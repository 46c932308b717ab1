//! `serve_hit` and `serve_churn`: framed request round trips over TCP
//! `127.0.0.1` to an in-process `pba_serve::Server`, binaries inline.
//!
//! Closed loop, 2 client connections: a caller of the daemon is a tool that
//! waits for its reply. Both use `pba_serve::Client`, so a request leaves as the
//! product sends it (length prefix and payload in separate writes, Nagle on).
//!
//! `serve_hit`: three binaries that fit the cache and are warmed in set-up, so
//! analysis does nothing and the wire, the codec, the content hash and the cache
//! lookup are the whole cost. `serve_churn`: twelve binaries of the same class
//! against a cap of three sessions, plus ingest of fresh binaries 1 : 4 with
//! top-K, so most requests miss, analyse, evict, and contend for the index lock.
//!
//! The request kinds come in equal shares and the keys are drawn uniformly; the
//! seed picks the operands and shuffles the order. The binaries are clone
//! families, as in the library workloads: a program's random shape moves its
//! parse time by a tenth and more, so each member's base program is the same
//! for every seed and only its appended functions are drawn from the seed.

use crate::inputs::{stream, Rng, BASE};
use crate::layers::{jump_funcs, pool};
use crate::trace::Trace;
use crate::workload::{Workload, THREADS};
use pba_binfeat::similarity::{cosine, jaccard};
use pba_binfeat::{CorpusIndex, FeatureIndex, IndexConfig};
use pba_driver::{Session, SessionConfig};
use pba_elf::ImageBytes;
use pba_gen::{generate, GenConfig};
use pba_serve::proto::{
    decode_message, hex_decode, hex_encode, read_frame, write_frame, write_message,
};
use pba_serve::{
    slice_function, sorted_features, BinSpec, Client, Request, Response, ServeAddr, ServeConfig,
    ServeShared, Server, ServerHandle, SessionCache, SliceJump,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const CLIENTS: usize = 2;
const K: u64 = 5;

/// Functions of a working-set binary: some 72 KiB of ELF with debug info, and
/// 60 ms of analysis for a request that misses.
const FUNCS: usize = 140;

/// Each analysis kind this often in a client's schedule, and `corpus_ingest` a
/// quarter as often as `corpus_topk`.
const SHARE: usize = 12;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Struct,
    Features,
    Slice,
    Similarity,
    Topk,
    Ingest,
}

#[derive(Clone, Copy)]
struct Slot {
    kind: Kind,
    /// The binary; for `Ingest`, unused (a fresh one is taken when the op runs).
    a: usize,
    /// The second binary of `Similarity`, or which jump function `Slice` cuts.
    b: usize,
}

/// One working-set binary and every artifact a reply about it must equal,
/// computed by an in-process `Session` with the server's configuration.
struct Bin {
    elf: Vec<u8>,
    hash: u64,
    text: String,
    counts: [u64; 3],
    features: Vec<(u64, u64)>,
    index: FeatureIndex,
    slices: Vec<(u64, Vec<SliceJump>)>,
    resident: usize,
}

fn session_config() -> SessionConfig {
    SessionConfig::default().with_threads(THREADS).with_name("serve")
}

fn reference(elf: Vec<u8>) -> Bin {
    let s = Session::open(elf.clone(), session_config());
    let hs = s.structure().expect("structure of a generated binary");
    let counts = [
        hs.structure.functions.len() as u64,
        hs.structure.loop_count() as u64,
        hs.structure.stmt_count() as u64,
    ];
    let slices = jump_funcs(s.cfg().expect("cfg"))
        .into_iter()
        .map(|e| (e, slice_function(&s, e).expect("slice")))
        .collect();
    Bin {
        hash: s.content_hash(),
        text: hs.text.clone(),
        counts,
        features: sorted_features(&s).expect("features"),
        index: s.features().expect("features").index.clone(),
        slices,
        resident: s.stats().resident_bytes as usize,
        elf,
    }
}

pub struct Serve<const CHURN: bool> {
    handle: Option<ServerHandle>,
    cap: usize,
    clients: Vec<Mutex<Client>>,
    bins: Vec<Bin>,
    schedule: Vec<Vec<Slot>>,
    /// Tiny binaries nobody has ingested yet, and how many were handed out.
    fresh: Vec<Vec<u8>>,
    next_fresh: [AtomicUsize; CLIENTS],
    /// Every hash a top-K hit may carry: the set-up corpus and the fresh pool.
    known: HashSet<u64>,
    /// `serve_hit`: the same corpus in the same order, indexed in-process.
    mirror: CorpusIndex,
    /// The requests set-up sent, for warming the traced run's second handler.
    warm: Vec<Request>,
    traced: OnceLock<Traced>,
}

pub type ServeHit = Serve<false>;
pub type ServeChurn = Serve<true>;

/// What only the traced run needs: a connection of its own and a second,
/// socket-less handler in the server's state, on which the server half of each
/// round trip is replayed.
struct Traced {
    stream: Mutex<TcpStream>,
    shadow: ServeShared,
}

pub struct Out {
    slot: Slot,
    /// Which fresh binary an `Ingest` sent, counted over the whole run.
    fresh: Option<usize>,
    reply: Response,
}

fn inline(elf: &[u8]) -> BinSpec {
    BinSpec::Bytes(elf.to_vec())
}

/// `n` binaries of `num_funcs` functions. Member `k`'s base program is the same
/// for every seed; four appended functions are drawn from the seed.
fn working_set(rng: &mut Rng, n: usize, num_funcs: usize) -> Vec<Bin> {
    (0..n as u64)
        .map(|k| {
            let cfg = GenConfig {
                seed: BASE + 100 + k,
                num_funcs,
                // switch-heavy, so every binary has jump tables to slice
                pct_switch: 1.0,
                extra_funcs: 4,
                variant: rng.next(),
                ..Default::default()
            };
            reference(generate(&cfg).elf)
        })
        .collect()
}

fn schedule(rng: &mut Rng, mix: &[(Kind, usize)], bins: &[Bin]) -> Vec<Slot> {
    let mut slots = Vec::new();
    for &(kind, count) in mix {
        for _ in 0..count {
            let a = rng.below(bins.len());
            let b = match kind {
                Kind::Slice => rng.below(bins[a].slices.len().max(1)),
                _ => rng.below(bins.len()),
            };
            // a binary without a jump table has nothing to slice
            let kind = if kind == Kind::Slice && bins[a].slices.is_empty() {
                Kind::Features
            } else {
                kind
            };
            slots.push(Slot { kind, a, b });
        }
    }
    rng.shuffle(&mut slots);
    slots
}

impl<const CHURN: bool> Serve<CHURN> {
    fn request(&self, slot: &Slot, fresh: Option<usize>) -> Request {
        let a = &self.bins[slot.a];
        match slot.kind {
            Kind::Struct => Request::Struct { bin: inline(&a.elf) },
            Kind::Features => Request::Features { bin: inline(&a.elf) },
            Kind::Slice => Request::SliceFunc { bin: inline(&a.elf), entry: a.slices[slot.b].0 },
            Kind::Similarity => {
                Request::Similarity { a: inline(&a.elf), b: inline(&self.bins[slot.b].elf) }
            }
            Kind::Topk => Request::CorpusTopk { bin: inline(&a.elf), k: K, exact: false },
            Kind::Ingest => Request::CorpusIngest {
                bin: inline(self.fresh(fresh.expect("ingest takes a fresh binary"))),
            },
        }
    }

    /// The clients take turns through the pool, each on its own count, so that
    /// what a client ingests does not depend on how the two interleave.
    fn take_fresh(&self, client: usize, slot: &Slot) -> Option<usize> {
        (slot.kind == Kind::Ingest)
            .then(|| self.next_fresh[client].fetch_add(1, Ordering::Relaxed) * CLIENTS + client)
    }

    fn fresh(&self, n: usize) -> &Vec<u8> {
        &self.fresh[n % self.fresh.len()]
    }

    fn slot(&self, client: usize, i: u64) -> Slot {
        let s = &self.schedule[client];
        s[i as usize % s.len()]
    }

    fn traced(&self) -> &Traced {
        self.traced.get_or_init(|| {
            let handle = self.handle.as_ref().expect("server runs");
            let ServeAddr::Tcp(addr) = handle.addr() else { panic!("the suite binds TCP") };
            let stream = TcpStream::connect(addr.as_str()).expect("connect");
            let shadow = ServeShared::new(SessionCache::new(self.cap, session_config()));
            for req in &self.warm {
                pool().install(|| shadow.handle(req.clone()));
            }
            Traced { stream: Mutex::new(stream), shadow }
        })
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12
}

impl<const CHURN: bool> Workload for Serve<CHURN> {
    type Out = Out;
    const TAIL_PCT: u32 = 75;
    const EXACT_OPS: u64 = 20;
    const USES_SESSION: bool = false;

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn setup(seed: u64, quick: bool) -> Self {
        let mut rng = stream(seed, if CHURN { 6 } else { 5 });
        let funcs = if quick { FUNCS / 4 } else { FUNCS };
        let bins = working_set(&mut rng, if CHURN { 12 } else { 3 }, funcs);
        let mean = bins.iter().map(|b| b.resident).sum::<usize>() / bins.len();
        let cap = if CHURN { 3 * mean } else { 256 << 20 };

        let fresh: Vec<Vec<u8>> = (0..if CHURN { 256 } else { 9 })
            .map(|_| {
                let cfg = GenConfig {
                    seed: rng.next(),
                    num_funcs: 10,
                    debug_info: false,
                    ..Default::default()
                };
                generate(&cfg).elf
            })
            .collect();
        let mut known: HashSet<u64> = bins.iter().map(|b| b.hash).collect();
        known.extend(fresh.iter().map(|f| pba_elf::image::fnv1a_64(f)));

        let config = ServeConfig { cap_bytes: cap, session: session_config() };
        let handle = Server::bind(&ServeAddr::parse("127.0.0.1:0"), config).expect("bind").spawn();
        let connect =
            || Client::connect_retry(handle.addr(), Duration::from_secs(10)).expect("connect");

        // Index the working set (and for serve_hit a few strangers, which then
        // never change), then touch every kind of request once per operand so
        // that serve_hit starts with every artifact memoized.
        let mut warm: Vec<Request> =
            bins.iter().map(|b| Request::CorpusIngest { bin: inline(&b.elf) }).collect();
        let mut mirror = CorpusIndex::default();
        for b in &bins {
            mirror.insert_signed(
                b.hash,
                IndexConfig::default().signature(&b.index),
                b.index.clone(),
            );
        }
        if !CHURN {
            for f in &fresh {
                warm.push(Request::CorpusIngest { bin: inline(f) });
                let s = Session::open(f.clone(), session_config());
                let feats = s.features().expect("features").index.clone();
                mirror.insert_signed(
                    s.content_hash(),
                    IndexConfig::default().signature(&feats),
                    feats,
                );
            }
            for b in &bins {
                warm.push(Request::Struct { bin: inline(&b.elf) });
                warm.push(Request::Features { bin: inline(&b.elf) });
                for (entry, _) in &b.slices {
                    warm.push(Request::SliceFunc { bin: inline(&b.elf), entry: *entry });
                }
            }
        }
        // Warm the daemon's own cache and index through its socket-less handler:
        // over the socket every request would wait out a delayed ACK or two.
        let shared = handle.shared();
        for req in &warm {
            let reply = pool().install(|| shared.handle(req.clone()));
            assert!(!matches!(reply, Response::Error { .. }), "warm-up request refused");
        }

        let mut mix = vec![
            (Kind::Struct, SHARE),
            (Kind::Features, SHARE),
            (Kind::Slice, SHARE),
            (Kind::Similarity, SHARE),
            (Kind::Topk, SHARE),
        ];
        if CHURN {
            mix.push((Kind::Ingest, SHARE / 4));
        }
        let schedule = (0..CLIENTS).map(|_| schedule(&mut rng, &mix, &bins)).collect();
        let clients = (0..CLIENTS).map(|_| Mutex::new(connect())).collect();
        let w = Serve {
            handle: Some(handle),
            cap,
            clients,
            bins,
            schedule,
            fresh,
            next_fresh: Default::default(),
            known,
            mirror,
            warm,
            traced: OnceLock::new(),
        };
        // One discarded round trip per connection, so both are established and
        // past their first exchange. serve_churn stays otherwise cold.
        for c in 0..CLIENTS {
            let probe = Request::Features { bin: inline(&w.bins[0].elf) };
            w.clients[c].lock().expect("client lock").request_ok(&probe).expect("probe");
        }
        w
    }

    fn op(&self, client: usize, i: u64) -> Result<Out, String> {
        let slot = self.slot(client, i);
        let fresh = self.take_fresh(client, &slot);
        let req = self.request(&slot, fresh);
        let mut conn = self.clients[client].lock().expect("client lock");
        let reply = conn.request(&req).map_err(|e| e.to_string())?;
        Ok(Out { slot, fresh, reply })
    }

    fn check(&self, _client: usize, _i: u64, out: Out) -> Result<(), String> {
        let a = &self.bins[out.slot.a];
        let must_hit = |hit: bool| {
            if CHURN || hit {
                Ok(())
            } else {
                Err(format!("{:?} missed a cache that holds the whole working set", out.slot.kind))
            }
        };
        match (out.slot.kind, out.reply) {
            (Kind::Struct, Response::Struct { hit, text, functions, loops, stmts, .. }) => {
                must_hit(hit)?;
                if text != a.text || [functions, loops, stmts] != a.counts {
                    return Err("struct reply differs from the in-process Session".into());
                }
            }
            (Kind::Features, Response::Features { hit, features, .. }) => {
                must_hit(hit)?;
                if features != a.features {
                    return Err("features reply differs from the in-process Session".into());
                }
            }
            (Kind::Slice, Response::SliceFunc { hit, jumps, .. }) => {
                must_hit(hit)?;
                if jumps != a.slices[out.slot.b].1 {
                    return Err("slice_func reply differs from the in-process Session".into());
                }
            }
            (Kind::Similarity, Response::Similarity { hit_a, hit_b, cosine: c, jaccard: j }) => {
                must_hit(hit_a && hit_b)?;
                let b = &self.bins[out.slot.b];
                if !close(c, cosine(&a.index, &b.index)) || !close(j, jaccard(&a.index, &b.index)) {
                    return Err("similarity reply differs from the in-process Sessions".into());
                }
            }
            (Kind::Topk, Response::CorpusTopk { hit, hits, .. }) => {
                must_hit(hit)?;
                if hits.first().map(|h| (h.hash, close(h.score, 1.0))) != Some((a.hash, true)) {
                    return Err("top-K does not start with the query's own entry at 1.0".into());
                }
                if let Some(h) = hits.iter().find(|h| !self.known.contains(&h.hash)) {
                    return Err(format!("top-K hit {:#x} was never ingested", h.hash));
                }
                if !CHURN {
                    let want = self.mirror.query_topk(&a.index, K as usize, None).hits;
                    let same = hits.len() == want.len()
                        && hits
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.hash == w.hash && close(g.score, w.score));
                    if !same {
                        return Err("top-K reply differs from the in-process index".into());
                    }
                }
            }
            (Kind::Ingest, Response::CorpusIngest { ingested, hash, .. }) => {
                let n = out.fresh.expect("ingest took a fresh binary");
                if hash != pba_elf::image::fnv1a_64(self.fresh(n)) {
                    return Err("ingest reply carries another binary's hash".into());
                }
                if n < self.fresh.len() && !ingested {
                    return Err("a fresh binary was reported as already indexed".into());
                }
            }
            (kind, Response::Error { code, message }) => {
                return Err(format!("{kind:?} refused (exit {code}): {message}"));
            }
            (kind, _) => return Err(format!("{kind:?} answered with another kind of reply")),
        }
        Ok(())
    }

    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String> {
        let traced = self.traced();
        let slot = self.slot(0, i);
        let fresh = self.take_fresh(0, &slot);
        let req = self.request(&slot, fresh);
        let mut stream = traced.stream.lock().expect("stream lock");
        let mut frame = Vec::new();

        let (encode, wire, reply) = t.span("op", |t| -> Result<_, String> {
            let (encode, r) = t.span_id("serve.encode_req", |_| write_message(&mut frame, &req));
            r.map_err(|e| e.to_string())?;
            // the same two writes the product's client makes
            let (wire, payload) = t.span_id("serve.wire", |_| {
                write_frame(&mut *stream, &frame[4..])?;
                read_frame(&mut *stream)
            });
            let payload = payload.map_err(|e| e.to_string())?.ok_or("connection closed")?;
            let reply = t
                .span("serve.decode_resp", |_| decode_message::<Response>(&payload))
                .map_err(|e| e.to_string())?;
            Ok((encode, wire, reply))
        })?;
        drop(stream);

        // The server's half, replayed on the second handler and charged to the
        // round trip; what remains of `serve.wire` is the wire itself.
        let operands: Vec<&Vec<u8>> = match &req {
            Request::Similarity { a: BinSpec::Bytes(a), b: BinSpec::Bytes(b) } => vec![a, b],
            Request::Struct { bin: BinSpec::Bytes(b) }
            | Request::Features { bin: BinSpec::Bytes(b) }
            | Request::SliceFunc { bin: BinSpec::Bytes(b), .. }
            | Request::CorpusTopk { bin: BinSpec::Bytes(b), .. }
            | Request::CorpusIngest { bin: BinSpec::Bytes(b) } => vec![b],
            _ => Vec::new(),
        };
        let hex: Vec<String> = t.under(encode, |t| {
            t.span("serve.hex_encode", |_| operands.iter().map(|b| hex_encode(b)).collect())
        });
        let (decode, again) = t.under(wire, |t| {
            t.span_id("serve.decode_req", |_| decode_message::<Request>(&frame[4..]))
        });
        let again = again.map_err(|e| e.to_string())?;
        t.under(decode, |t| {
            t.span("serve.hex_decode", |_| {
                for h in &hex {
                    black_box(hex_decode(h).ok());
                }
            })
        });
        let (handle, shadow_reply) = t.under(wire, |t| {
            t.span_id("serve.handle", |_| pool().install(|| traced.shadow.handle(again)))
        });
        if slot.kind != Kind::Ingest {
            let (get, _) = t.under(handle, |t| {
                t.span_id("serve.cache_get", |_| {
                    for b in &operands {
                        // as the handler resolves an inline operand
                        let image = ImageBytes::from((*b).clone());
                        black_box(traced.shadow.cache.get_or_open(image).hit);
                    }
                })
            });
            let images: Vec<ImageBytes> =
                operands.iter().map(|b| ImageBytes::from((*b).clone())).collect();
            t.under(get, |t| {
                t.span("elf.hash", |_| {
                    for image in &images {
                        black_box(image.content_hash());
                    }
                })
            });
        }
        let mut reply_frame = Vec::new();
        t.under(wire, |t| {
            t.span("serve.encode_resp", |_| write_message(&mut reply_frame, &shadow_reply))
        })
        .map_err(|e| e.to_string())?;

        if i < Self::EXACT_OPS {
            t.sample("serve.req_bytes", (frame.len() - 4) as f64);
            // the second handler's reply: it serves this client alone, so its
            // hit flags do not depend on what the other client asked for
            t.sample("serve.resp_bytes", (reply_frame.len() - 4) as f64);
        }
        self.check(0, i, Out { slot, fresh, reply })
    }

    fn finish(&self, t: Option<&mut Trace>) -> Result<(), String> {
        let stats = self.handle.as_ref().expect("server runs").shared().serve_stats();
        if let Some(t) = t {
            let lookups = stats.cache_hits + stats.cache_misses;
            t.set("serve.cache_hits", stats.cache_hits as f64);
            t.set("serve.cache_misses", stats.cache_misses as f64);
            t.set("serve.hit_ratio", stats.cache_hits as f64 / lookups.max(1) as f64);
            t.set("serve.sessions_evicted", stats.sessions_evicted as f64);
            t.set("serve.resident_bytes", stats.resident_bytes as f64);
            t.set("serve.index_bytes", stats.index_bytes as f64);
            t.set("serve.errors", stats.errors as f64);
        }
        if stats.errors != 0 {
            return Err(format!("the daemon counted {} error replies", stats.errors));
        }
        if CHURN && stats.sessions_evicted == 0 {
            return Err("twelve binaries under a cap of three sessions evicted nothing".into());
        }
        if !CHURN && stats.sessions_evicted != 0 {
            return Err(format!("{} evictions from a cache that fits", stats.sessions_evicted));
        }
        Ok(())
    }
}

impl<const CHURN: bool> Drop for Serve<CHURN> {
    fn drop(&mut self) {
        // close the connections first, so the server's connection threads see
        // EOF instead of waiting out their read timeout
        self.clients.clear();
        self.traced.take();
        if let Some(h) = self.handle.take() {
            let _ = h.stop();
        }
    }
}
