//! The daemon's reply frames, byte for byte: for every reply kind, on a
//! cache miss and on a hit, the frame the connection loop writes (each
//! memoized reply part sent in place) equals the frame `write_message`
//! writes for the `Response` an in-process `Session` gives. The
//! equivalence tests in `daemon.rs` compare after a decode and a
//! re-encode, so they cannot see a byte the rendering moves; these
//! read the raw frame off the socket.

use pba_binfeat::{rank_topk, CorpusIndex, IndexConfig};
use pba_driver::{Error, Session, SessionConfig};
use pba_gen::{corpus, generate};
use pba_serve::proto::{decode_message, read_frame, write_frame, write_message};
use pba_serve::{
    slice_function, sorted_features, BinSpec, Request, Response, ServeAddr, ServeConfig, Server,
    ServerHandle, TopkHit,
};
use std::net::TcpStream;

/// A switch-heavy test binary, so `slice_func` has rows to serve.
fn gen_elf(seed: u64, funcs: usize) -> Vec<u8> {
    generate(&corpus::switch_heavy(seed, funcs, true)).elf
}

fn test_config() -> SessionConfig {
    SessionConfig::default().with_threads(1)
}

fn spawn_tcp() -> ServerHandle {
    let config = ServeConfig { cap_bytes: usize::MAX, session: test_config() };
    Server::bind(&ServeAddr::parse("127.0.0.1:0"), config).unwrap().spawn()
}

fn raw_tcp(handle: &ServerHandle) -> TcpStream {
    match handle.addr() {
        ServeAddr::Tcp(a) => TcpStream::connect(a.as_str()).unwrap(),
        #[cfg(unix)]
        ServeAddr::Unix(_) => panic!("raw_tcp wants a TCP server"),
    }
}

/// The frame `write_message` writes for `reply`, length prefix included.
fn frame_of(reply: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    write_message(&mut frame, reply).unwrap();
    frame
}

/// Send `req` and return the reply frame exactly as it came off the
/// socket, length prefix included.
fn served(s: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_message(s, req).unwrap();
    let payload = read_frame(s).unwrap().expect("a reply frame");
    [&(payload.len() as u32).to_be_bytes()[..], &payload].concat()
}

/// Assert that the daemon answers `req` with exactly `want`'s frame.
fn check(s: &mut TcpStream, req: &Request, want: &Response, what: &str) {
    let got = served(s, req);
    let want = frame_of(want);
    if got != want {
        let at =
            got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
        panic!(
            "{what}: frames differ at byte {at} of {} / {} (served {:?}…, want {:?}…)",
            got.len(),
            want.len(),
            String::from_utf8_lossy(&got[at.saturating_sub(20)..(at + 40).min(got.len())]),
            String::from_utf8_lossy(&want[at.saturating_sub(20)..(at + 40).min(want.len())]),
        );
    }
}

fn inline(elf: &[u8]) -> BinSpec {
    BinSpec::Bytes(elf.to_vec())
}

fn struct_reply(s: &Session, hit: bool) -> Response {
    let out = s.structure().unwrap();
    Response::Struct {
        hit,
        stats: s.stats(),
        text: out.text.clone(),
        functions: out.structure.functions.len() as u64,
        loops: out.structure.loop_count() as u64,
        stmts: out.structure.stmt_count() as u64,
    }
}

fn features_reply(s: &Session, hit: bool) -> Response {
    let features = sorted_features(s).unwrap();
    Response::Features { hit, stats: s.stats(), features }
}

fn slice_reply(s: &Session, entry: u64, hit: bool) -> Response {
    let jumps = slice_function(s, entry).unwrap();
    Response::SliceFunc { hit, stats: s.stats(), jumps }
}

fn similarity_reply(a: &Session, b: &Session, hit_a: bool, hit_b: bool) -> Response {
    let (fa, fb) = (&a.features().unwrap().index, &b.features().unwrap().index);
    Response::Similarity {
        hit_a,
        hit_b,
        cosine: pba_binfeat::similarity::cosine(fa, fb),
        jaccard: pba_binfeat::similarity::jaccard(fa, fb),
    }
}

fn topk_reply(mirror: &CorpusIndex, q: &Session, k: usize, exact: bool, hit: bool) -> Response {
    let query = &q.features().unwrap().index;
    let (hits, candidates) = if exact {
        let top = rank_topk(query, mirror.features(), k);
        let hits = top.into_iter().map(|(i, score)| TopkHit { hash: mirror.hash_at(i), score });
        (hits.collect(), mirror.len() as u64)
    } else {
        let r = mirror.query_topk(query, k, None);
        (
            r.hits.into_iter().map(|h| TopkHit { hash: h.hash, score: h.score }).collect(),
            r.candidates,
        )
    };
    Response::CorpusTopk { hit, exact, candidates, hits }
}

fn first_jump(s: &Session) -> u64 {
    pba_dataflow::collect_indirect_jumps(s.cfg().unwrap())[0].0
}

#[test]
fn every_reply_kind_is_the_in_process_frame_on_a_miss_and_on_a_hit() {
    let bins: Vec<Vec<u8>> = (0..5).map(|i| gen_elf(61 + i, 8)).collect();
    let mirror: Vec<Session> =
        bins.iter().map(|b| Session::open(b.clone(), test_config())).collect();
    let [a, b, c, d, e] = &mirror[..] else { unreachable!() };
    let handle = spawn_tcp();
    let mut s = raw_tcp(&handle);

    // struct: a miss builds the rendered text, a hit sends it.
    let req = Request::Struct { bin: inline(&bins[0]) };
    check(&mut s, &req, &struct_reply(a, false), "struct (miss)");
    check(&mut s, &req, &struct_reply(a, true), "struct (hit)");

    // features: on a miss, and twice on a hit (built, then reused).
    let req = Request::Features { bin: inline(&bins[1]) };
    check(&mut s, &req, &features_reply(b, false), "features (miss)");
    check(&mut s, &req, &features_reply(b, true), "features (hit)");
    let req = Request::Features { bin: inline(&bins[0]) };
    check(&mut s, &req, &features_reply(a, true), "features (hit, first build)");
    check(&mut s, &req, &features_reply(a, true), "features (hit, reused)");

    // slice_func.
    let entry = first_jump(c);
    let req = Request::SliceFunc { bin: inline(&bins[2]), entry };
    check(&mut s, &req, &slice_reply(c, entry, false), "slice_func (miss)");
    check(&mut s, &req, &slice_reply(c, entry, true), "slice_func (hit)");

    // similarity: one operand new, then both resident.
    let req = Request::Similarity { a: inline(&bins[0]), b: inline(&bins[3]) };
    check(&mut s, &req, &similarity_reply(a, d, true, false), "similarity (b missed)");
    check(&mut s, &req, &similarity_reply(a, d, true, true), "similarity (both hit)");

    // corpus_ingest: new, then already indexed.
    let mut index = CorpusIndex::default();
    for (i, bin) in bins.iter().enumerate().take(4) {
        let session = &mirror[i];
        let feats = session.features().unwrap().index.clone();
        let hash = session.content_hash();
        let fresh = index.insert_signed(hash, IndexConfig::default().signature(&feats), feats);
        assert!(fresh);
        let req = Request::CorpusIngest { bin: inline(bin) };
        let want = Response::CorpusIngest {
            ingested: true,
            hash,
            index_entries: index.len() as u64,
            index_bytes: index.heap_bytes(),
        };
        check(&mut s, &req, &want, "corpus_ingest (new)");
    }
    let want = Response::CorpusIngest {
        ingested: false,
        hash: a.content_hash(),
        index_entries: index.len() as u64,
        index_bytes: index.heap_bytes(),
    };
    check(&mut s, &Request::CorpusIngest { bin: inline(&bins[0]) }, &want, "corpus_ingest (known)");

    // corpus_topk: LSH on a miss, then on a hit twice (the signature is
    // built, then reused), and the exact path.
    let req = Request::CorpusTopk { bin: inline(&bins[4]), k: 3, exact: false };
    check(&mut s, &req, &topk_reply(&index, e, 3, false, false), "corpus_topk (miss)");
    check(&mut s, &req, &topk_reply(&index, e, 3, false, true), "corpus_topk (hit)");
    let req = Request::CorpusTopk { bin: inline(&bins[0]), k: 3, exact: false };
    check(&mut s, &req, &topk_reply(&index, a, 3, false, true), "corpus_topk (hit, signed)");
    check(&mut s, &req, &topk_reply(&index, a, 3, false, true), "corpus_topk (hit, memo)");
    let req = Request::CorpusTopk { bin: inline(&bins[0]), k: 3, exact: true };
    check(&mut s, &req, &topk_reply(&index, a, 3, true, true), "corpus_topk (exact)");

    // Error replies: an analysis failure, and an undecodable frame.
    let req = Request::SliceFunc { bin: inline(&bins[0]), entry: 0x1 };
    let want = Response::from_error(&Error::FunctionNotFound("0x1".into()));
    check(&mut s, &req, &want, "error (analysis)");
    write_frame(&mut s, b"definitely not json").unwrap();
    let payload = read_frame(&mut s).unwrap().unwrap();
    let decode_error = decode_message::<Request>(b"definitely not json").unwrap_err();
    assert_eq!(frame_of(&Response::from_error(&decode_error))[4..], payload[..], "error (decode)");

    // stats: the daemon's counters as it sees them once the reply is out
    // (nothing else runs in between).
    let got = served(&mut s, &Request::Stats);
    let shared = handle.shared();
    let sessions = shared.cache.sessions().into_iter().map(|(h, s)| (h, s.stats())).collect();
    assert_eq!(got, frame_of(&Response::Stats { serve: shared.serve_stats(), sessions }), "stats");

    check(
        &mut s,
        &Request::Evict { hash: Some(d.content_hash()) },
        &Response::Evicted { sessions: 1 },
        "evict",
    );
    check(&mut s, &Request::Shutdown, &Response::Shutdown, "shutdown");
    drop(s);
    handle.stop().unwrap();
}

/// After an eviction the same request opens a fresh session and a fresh
/// entry, and is served from that entry's parts; other binaries are
/// served from theirs. The cache's resident bytes are exactly each
/// session's own plus the rendered texts of its entry.
#[test]
fn evict_then_the_same_request_is_served_from_the_fresh_entry() {
    let (one, two) = (gen_elf(71, 8), gen_elf(72, 8));
    let handle = spawn_tcp();
    let mut s = raw_tcp(&handle);
    let first = Session::open(one.clone(), test_config());
    let req = Request::Struct { bin: inline(&one) };
    check(&mut s, &req, &struct_reply(&first, false), "struct (miss)");
    check(&mut s, &req, &struct_reply(&first, true), "struct (hit)");
    check(&mut s, &Request::Evict { hash: None }, &Response::Evicted { sessions: 1 }, "evict");

    let other = Session::open(two.clone(), test_config());
    let other_req = Request::Struct { bin: inline(&two) };
    check(&mut s, &other_req, &struct_reply(&other, false), "another binary after the evict");
    let again = Session::open(one.clone(), test_config());
    check(&mut s, &req, &struct_reply(&again, false), "the same request after the evict");
    check(&mut s, &req, &struct_reply(&again, true), "and its hit");
    check(&mut s, &other_req, &struct_reply(&other, true), "the other binary's hit");

    let serve = handle.shared().serve_stats();
    let rendered = |s: &Session| serde_json::to_string(&s.structure().unwrap().text).unwrap().len();
    let sessions = again.stats().resident_bytes + other.stats().resident_bytes;
    let parts = rendered(&again) + rendered(&other);
    assert_eq!(serve.sessions_resident, 2);
    assert_eq!(serve.resident_bytes, sessions + parts as u64, "sessions plus their rendered texts");
    drop(s);
    handle.stop().unwrap();
}

/// A `struct` hit's rendered text counts toward the cache's resident
/// bytes, beyond what the sessions report for themselves.
#[test]
fn a_struct_hit_counts_its_rendered_text_in_resident_bytes() {
    let bin = gen_elf(81, 8);
    let shared =
        pba_serve::ServeShared::new(pba_serve::SessionCache::new(usize::MAX, test_config()));
    let req = Request::Struct { bin: inline(&bin) };
    shared.handle(req.clone());
    let Response::Struct { hit: true, text, .. } = shared.handle(req) else {
        panic!("not a struct hit")
    };
    let Response::Stats { serve, sessions } = shared.handle(Request::Stats) else {
        panic!("not a stats reply")
    };
    let own: u64 = sessions.iter().map(|(_, s)| s.resident_bytes).sum();
    let rendered = serde_json::to_string(&text).unwrap().len() as u64;
    assert!(rendered > text.len() as u64, "the text has quotes to escape");
    assert!(
        serve.resident_bytes >= own + rendered,
        "resident {} < sessions {own} + rendered text {rendered}",
        serve.resident_bytes
    );
}
