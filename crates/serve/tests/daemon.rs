//! Socket-level integration tests for the daemon: served responses are
//! byte-identical (in wire form) to an in-process [`Session`] driven the
//! same way, the session cache recomputes nothing across connections and
//! bounds itself under concurrent clients, and protocol abuse — garbage
//! frames, oversized announcements, torn frames, vanishing clients —
//! stays connection-scoped.

use pba_driver::{Session, SessionConfig};
use pba_elf::types::EM_X86_64;
use pba_elf::{ElfBuilder, ImageBytes, SecFlags, SecType, SymBind, SymType};
use pba_gen::{corpus, generate};
use pba_serve::proto::{read_message, write_frame, write_message};
use pba_serve::{
    slice_function, sorted_features, BinSpec, Client, Request, Response, ServeAddr, ServeConfig,
    Server, ServerHandle, MAX_FRAME,
};
use serde::Serialize;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A switch-heavy test binary (every function gets a jump table, so
/// `slice_func` always has rows to serve).
fn gen_elf(seed: u64, funcs: usize) -> Vec<u8> {
    generate(&corpus::switch_heavy(seed, funcs, true)).elf
}

/// The one session config both sides of an equivalence test must share
/// (the config shapes the structure text, so it is part of the answer).
fn test_config() -> SessionConfig {
    SessionConfig::default().with_threads(1)
}

fn spawn_tcp(cap_bytes: usize) -> ServerHandle {
    Server::bind(
        &ServeAddr::parse("127.0.0.1:0"),
        ServeConfig { cap_bytes, session: test_config() },
    )
    .unwrap()
    .spawn()
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect_retry(handle.addr(), Duration::from_secs(10)).unwrap()
}

/// A raw TCP stream to the daemon, for writing frames the [`Client`]
/// would never produce.
fn raw_tcp(handle: &ServerHandle) -> TcpStream {
    match handle.addr() {
        ServeAddr::Tcp(a) => TcpStream::connect(a.as_str()).unwrap(),
        #[cfg(unix)]
        ServeAddr::Unix(_) => panic!("raw_tcp wants a TCP server"),
    }
}

/// The wire form both directions agree on; equality of these strings is
/// what "byte-identical to an in-process session" means below (the
/// proto round-trip tests pin that decode is lossless).
fn wire<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).unwrap()
}

#[test]
fn served_responses_match_in_process_session_for_every_kind() {
    let a = gen_elf(11, 8);
    let b = gen_elf(12, 8);
    let handle = spawn_tcp(usize::MAX);
    let mut client = connect(&handle);

    // The in-process mirror: same bytes, same config, same accessor
    // sequence as the handler serves below.
    let sa = Session::open(ImageBytes::from(a.clone()), test_config());
    let sb = Session::open(ImageBytes::from(b.clone()), test_config());

    // struct — first sight of A, so a miss.
    let out = sa.structure().unwrap();
    let expected = Response::Struct {
        hit: false,
        stats: sa.stats(),
        text: out.text.clone(),
        functions: out.structure.functions.len() as u64,
        loops: out.structure.loop_count() as u64,
        stmts: out.structure.stmt_count() as u64,
    };
    let served = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(a.clone()) }).unwrap();
    assert_eq!(wire(&served), wire(&expected), "struct (miss)");

    // struct again — a hit, and nothing recomputed, so only `hit` moves.
    let expected = Response::Struct {
        hit: true,
        stats: sa.stats(),
        text: out.text.clone(),
        functions: out.structure.functions.len() as u64,
        loops: out.structure.loop_count() as u64,
        stmts: out.structure.stmt_count() as u64,
    };
    let served = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(a.clone()) }).unwrap();
    assert_eq!(wire(&served), wire(&expected), "struct (hit)");

    // features — the session is resident, the feature index is new.
    let features = sorted_features(&sa).unwrap();
    let expected = Response::Features { hit: true, stats: sa.stats(), features };
    let served = client.request_ok(&Request::Features { bin: BinSpec::Bytes(a.clone()) }).unwrap();
    assert_eq!(wire(&served), wire(&expected), "features");

    // slice_func — every indirect jump of one real function.
    let (entry, _) = pba_dataflow::collect_indirect_jumps(sa.cfg().unwrap())[0];
    let jumps = slice_function(&sa, entry).unwrap();
    assert!(!jumps.is_empty(), "pct_switch=1.0 must yield sliceable jumps");
    let expected = Response::SliceFunc { hit: true, stats: sa.stats(), jumps };
    let served =
        client.request_ok(&Request::SliceFunc { bin: BinSpec::Bytes(a.clone()), entry }).unwrap();
    assert_eq!(wire(&served), wire(&expected), "slice_func");

    // slice_func at a bogus entry — an error frame with the
    // FunctionNotFound exit code, and the connection stays usable.
    let served =
        client.request(&Request::SliceFunc { bin: BinSpec::Bytes(a.clone()), entry: 0x1 }).unwrap();
    match served {
        Response::Error { code, ref message } => {
            assert_eq!(code, 1, "FunctionNotFound exit code: {message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // similarity — A resident, B opened by this request.
    let fa = &sa.features().unwrap().index;
    let fb = &sb.features().unwrap().index;
    let expected = Response::Similarity {
        hit_a: true,
        hit_b: false,
        cosine: pba_binfeat::similarity::cosine(fa, fb),
        jaccard: pba_binfeat::similarity::jaccard(fa, fb),
    };
    let served = client
        .request_ok(&Request::Similarity {
            a: BinSpec::Bytes(a.clone()),
            b: BinSpec::Bytes(b.clone()),
        })
        .unwrap();
    assert_eq!(wire(&served), wire(&expected), "similarity");

    // The same binary by server-local path lands on the same session —
    // keyed by content, not transport — so B's features are already in.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pba-serve-itest-{}.elf", std::process::id()));
    std::fs::write(&path, &b).unwrap();
    let features = sorted_features(&sb).unwrap();
    let expected = Response::Features { hit: true, stats: sb.stats(), features };
    let served = client
        .request_ok(&Request::Features { bin: BinSpec::Path(path.to_str().unwrap().to_string()) })
        .unwrap();
    assert_eq!(wire(&served), wire(&expected), "features by path (content-keyed hit)");
    std::fs::remove_file(&path).ok();

    handle.stop().unwrap();
}

#[test]
fn second_query_recomputes_nothing_across_connections() {
    let bin = gen_elf(21, 6);
    let handle = spawn_tcp(usize::MAX);

    let mut first = connect(&handle);
    let served = first.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin.clone()) }).unwrap();
    let Response::Struct { hit, stats, .. } = served else { panic!("not a struct reply") };
    assert!(!hit);
    assert_eq!(stats.structure_builds, 1);
    drop(first); // a whole new connection, same daemon

    let mut second = connect(&handle);
    let served = second.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin) }).unwrap();
    let Response::Struct { hit, stats, .. } = served else { panic!("not a struct reply") };
    assert!(hit, "second query must find the session resident");
    assert_eq!(stats.cfg_parses, 1, "no re-parse across connections");
    assert_eq!(stats.structure_builds, 1, "no re-build across connections");

    let stats = handle.stop().unwrap();
    assert_eq!(stats.connections, 2);
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
}

/// A `struct` and then a `features` request for one binary: the
/// resident session builds each function's loop forest once, and the
/// second reply reuses them.
#[test]
fn struct_then_features_build_each_loop_forest_once() {
    let bin = gen_elf(23, 6);
    let probe = Session::open(bin.clone(), test_config());
    let funcs = probe.ir().unwrap().len() as u64;
    let handle = spawn_tcp(usize::MAX);
    let mut client = connect(&handle);

    let served = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin.clone()) }).unwrap();
    let Response::Struct { stats, .. } = served else { panic!("not a struct reply") };
    assert_eq!(stats.loop_forests, funcs, "structure() reads every function's forest");

    let served = client.request_ok(&Request::Features { bin: BinSpec::Bytes(bin) }).unwrap();
    let Response::Features { hit, stats, .. } = served else { panic!("not a features reply") };
    assert!(hit, "the session is resident");
    assert_eq!(stats.feature_builds, 1);
    assert_eq!(stats.loop_forests, funcs, "features() builds no forest of its own");
    handle.stop().unwrap();
}

/// The `struct` reply's text, pinned as an FNV-1a-64 digest: the
/// equivalence test above only compares the daemon with an in-process
/// session, which would move together. Regenerate only for an intended
/// output change (the failure message prints the new digest).
#[test]
fn struct_reply_text_matches_the_checked_in_digest() {
    const GOLDEN: (u64, usize, u64) = (0x8dac_c391_959c_be60, 64_905, 889);
    let handle = spawn_tcp(usize::MAX);
    let mut client = connect(&handle);
    let served =
        client.request_ok(&Request::Struct { bin: BinSpec::Bytes(gen_elf(11, 24)) }).unwrap();
    let Response::Struct { text, stmts, .. } = served else { panic!("not a struct reply") };
    let got = (pba_elf::image::fnv1a_64(text.as_bytes()), text.len(), stmts);
    assert_eq!(got, GOLDEN, "struct reply (digest, bytes, statements): {got:#x?}");
    handle.stop().unwrap();
}

#[test]
fn concurrent_clients_respect_cap_and_evict_lru() {
    let bins: Vec<Vec<u8>> = (0..4).map(|i| gen_elf(100 + i, 6)).collect();

    // Price one fully-analyzed session, then cap the daemon at ~2.5 of
    // them: four distinct binaries must force LRU eviction.
    let probe = Session::open(ImageBytes::from(bins[0].clone()), test_config());
    probe.features().unwrap();
    let one = probe.stats().resident_bytes as usize;
    assert!(one > 0, "resident_bytes must price the session");
    let cap = one * 2 + one / 2;
    let handle = spawn_tcp(cap);

    let mut workers = Vec::new();
    for t in 0..8usize {
        let addr = handle.addr().clone();
        let bins = bins.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_retry(&addr, Duration::from_secs(10)).unwrap();
            for i in 0..6 {
                // Skewed mix: six threads hammer two hot keys, two walk
                // the whole corpus (the cold keys cause the evictions).
                let k = if t < 6 { (t + i) % 2 } else { (t + i) % 4 };
                let reply = client
                    .request_ok(&Request::Features { bin: BinSpec::Bytes(bins[k].clone()) })
                    .unwrap();
                assert!(matches!(reply, Response::Features { .. }));
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let mut client = connect(&handle);
    let Response::Stats { serve, sessions } = client.request_ok(&Request::Stats).unwrap() else {
        panic!("not a stats reply")
    };
    assert_eq!(serve.errors, 0, "every concurrent request must be served cleanly");
    assert_eq!(serve.requests, 8 * 6 + 1);
    assert!(serve.cache_hits > 0, "hot keys must hit");
    assert!(serve.sessions_evicted > 0, "four binaries under a 2.5-session cap must evict");
    assert!(
        serve.resident_bytes <= cap as u64 || serve.sessions_resident == 1,
        "resident_bytes {} exceeds cap {cap} with {} sessions resident",
        serve.resident_bytes,
        serve.sessions_resident
    );
    assert_eq!(serve.sessions_resident as usize, sessions.len());

    handle.stop().unwrap();
}

#[test]
fn protocol_abuse_is_connection_scoped() {
    let bin = gen_elf(31, 6);
    let handle = spawn_tcp(usize::MAX);

    // A whole frame of garbage: answered with an error frame, and the
    // *same connection* keeps working (the stream is still in sync).
    let mut s = raw_tcp(&handle);
    write_frame(&mut s, b"definitely not json").unwrap();
    match read_message::<Response>(&mut s).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, 76),
        other => panic!("expected error frame, got {other:?}"),
    }
    write_message(&mut s, &Request::Stats).unwrap();
    assert!(
        matches!(read_message::<Response>(&mut s).unwrap().unwrap(), Response::Stats { .. }),
        "connection must survive an undecodable payload"
    );
    drop(s);

    // An oversized announcement: one error frame, then the connection
    // is closed (no way to resync past a frame the server won't read).
    let mut s = raw_tcp(&handle);
    s.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes()).unwrap();
    match read_message::<Response>(&mut s).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, 76),
        other => panic!("expected error frame, got {other:?}"),
    }
    assert!(
        read_message::<Response>(&mut s).unwrap().is_none(),
        "server must close after an oversized announcement"
    );
    drop(s);

    // A torn frame: announce 50 bytes, send 5, vanish.
    let mut s = raw_tcp(&handle);
    s.write_all(&50u32.to_be_bytes()).unwrap();
    s.write_all(b"short").unwrap();
    drop(s);

    // A client that sends a valid (expensive) request and disconnects
    // before the reply: the server computes, fails to write, moves on.
    let mut s = raw_tcp(&handle);
    write_message(&mut s, &Request::Features { bin: BinSpec::Bytes(bin.clone()) }).unwrap();
    drop(s);

    // The daemon is alive and serving; the three framing/decode
    // failures above are counted once each (the torn frame lands
    // asynchronously, so poll).
    let mut client = connect(&handle);
    let reply = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin) }).unwrap();
    assert!(matches!(reply, Response::Struct { .. }), "daemon must outlive abusive clients");
    let mut errors = 0;
    for _ in 0..250 {
        let Response::Stats { serve, .. } = client.request_ok(&Request::Stats).unwrap() else {
            panic!("not a stats reply")
        };
        errors = serve.errors;
        if errors >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(errors, 3, "garbage + oversized + torn frame, nothing else");

    // Clean protocol-level shutdown: acknowledged, then drained.
    let ack = client.request(&Request::Shutdown).unwrap();
    assert_eq!(wire(&ack), wire(&Response::Shutdown));
    let stats = handle.stop().unwrap();
    assert_eq!(stats.errors, 3);
}

#[test]
fn short_tail_is_answered_and_the_connection_serves_on() {
    let handle = spawn_tcp(usize::MAX);
    // A whole frame whose header claims a 4096-byte operand but whose
    // tail holds four: an error frame, and the stream is still in sync.
    let mut s = raw_tcp(&handle);
    write_frame(&mut s, b"{\"kind\":\"struct\",\"bin\":{\"bytes\":4096}}\x7fELF").unwrap();
    match read_message::<Response>(&mut s).unwrap().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, 76);
            assert!(message.contains("runs past the frame's tail"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    write_message(&mut s, &Request::Stats).unwrap();
    match read_message::<Response>(&mut s).unwrap().unwrap() {
        Response::Stats { serve, .. } => assert_eq!(serve.errors, 1, "the short tail, once"),
        other => panic!("connection must survive a short tail, got {other:?}"),
    }
    drop(s);
    assert_eq!(handle.stop().unwrap().errors, 1);
}

#[test]
fn deeply_nested_frame_is_answered_not_a_crash() {
    let handle = spawn_tcp(usize::MAX);
    // 1 MiB of `[`: decoding recursed once per byte and overflowed the
    // connection thread's stack, aborting the whole daemon.
    let mut s = raw_tcp(&handle);
    write_frame(&mut s, &vec![b'['; 1 << 20]).unwrap();
    match read_message::<Response>(&mut s).unwrap().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, 76);
            assert!(message.contains("recursion limit exceeded"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    write_message(&mut s, &Request::Stats).unwrap();
    assert!(
        matches!(read_message::<Response>(&mut s).unwrap().unwrap(), Response::Stats { .. }),
        "connection must survive a too-deep payload"
    );
    drop(s);
    handle.stop().unwrap();
}

#[test]
fn hostile_jump_table_gets_a_struct_reply() {
    // `cmp rdi, 4; ja ret; jmp [rdi*8 - 8]; ret`: the table base is
    // `u64::MAX - 7`, so reading its entries overflows the address space.
    let text = vec![
        0x48, 0x83, 0xFF, 0x04, // cmp rdi, 4
        0x0F, 0x87, 0x07, 0x00, 0x00, 0x00, // ja +7 (the ret)
        0xFF, 0x24, 0xFD, 0xF8, 0xFF, 0xFF, 0xFF, // jmp [rdi*8 - 8]
        0xC3, // ret
    ];
    let mut b = ElfBuilder::new(EM_X86_64);
    b.entry(0x401000);
    b.add_section(
        ".text",
        SecType::ProgBits,
        SecFlags::ALLOC.with(SecFlags::EXEC),
        0x401000,
        16,
        text,
    );
    b.add_section(".rodata", SecType::ProgBits, SecFlags::ALLOC, 0x402000, 8, vec![0; 64]);
    b.add_symbol("f", 0x401000, 18, SymBind::Global, SymType::Func, ".text");
    let bin = b.build().unwrap();

    let handle = spawn_tcp(usize::MAX);
    let mut client = connect(&handle);
    let reply = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin) }).unwrap();
    assert!(matches!(reply, Response::Struct { hit: false, functions: 1, .. }), "{reply:?}");
    handle.stop().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_and_unlinks_on_shutdown() {
    let bin = gen_elf(41, 6);
    let path = std::env::temp_dir().join(format!("pba-serve-itest-{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    let addr = ServeAddr::parse(&format!("unix:{}", path.display()));
    assert_eq!(addr, ServeAddr::Unix(path.clone()));
    let handle = Server::bind(&addr, ServeConfig { cap_bytes: usize::MAX, session: test_config() })
        .unwrap()
        .spawn();
    assert!(path.exists(), "socket must exist once bind returns");

    let mut client = Client::connect_retry(handle.addr(), Duration::from_secs(10)).unwrap();
    let reply = client.request_ok(&Request::Struct { bin: BinSpec::Bytes(bin) }).unwrap();
    assert!(matches!(reply, Response::Struct { hit: false, .. }));

    // Explicit eviction over the wire, then shutdown.
    let Response::Evicted { sessions } = client.request_ok(&Request::Evict { hash: None }).unwrap()
    else {
        panic!("not an evict reply")
    };
    assert_eq!(sessions, 1);
    let ack = client.request(&Request::Shutdown).unwrap();
    assert_eq!(wire(&ack), wire(&Response::Shutdown));
    let stats = handle.stop().unwrap();
    assert_eq!(stats.sessions_resident, 0);
    assert!(!path.exists(), "socket must be unlinked after shutdown");
}
