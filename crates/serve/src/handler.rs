//! Request handling: the pure `Request → Response` core the server
//! dispatches to — and the piece tests drive without any socket, which
//! is how "served responses are byte-identical to an in-process
//! `Session`" is pinned.
//!
//! A reply is built as the data tree the connection writes: the derived
//! form of its [`Response`], with the entry's memoized reply parts in
//! place (see [`crate::proto`]). [`ServeShared::handle`] renders that
//! tree into a frame and decodes it, so tests and in-process callers
//! see exactly what a client would.

use crate::cache::{Cached, SessionCache};
use crate::proto::{
    decode_message, write_value, BinSpec, Request, Response, ServeStats, SliceJump, TopkHit,
};
use pba_binfeat::{rank_topk, CorpusIndex, IndexConfig};
use pba_concurrent::Counter;
use pba_dataflow::{CfgView, ExecutorKind, FuncIr};
use pba_driver::{Error, Session};
use pba_elf::ImageBytes;
use pba_isa::ControlFlow;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything a connection thread shares with the daemon: the session
/// cache, the corpus index, the daemon-wide counters, and the shutdown
/// latch.
pub struct ServeShared {
    /// The keyed session cache.
    pub cache: SessionCache,
    /// The banded-MinHash corpus index (`corpus_ingest` /
    /// `corpus_topk`). Signatures are computed off-lock; the lock only
    /// covers the fold and the bucket probes.
    index: Mutex<CorpusIndex>,
    /// The index's config, fixed at start, so signing needs no lock.
    index_config: IndexConfig,
    /// The index's heap bytes, stored under the index lock by every
    /// insert, so each request can reserve them in the cache cap
    /// without taking that lock.
    index_bytes: AtomicU64,
    requests: Counter,
    errors: Counter,
    connections: Counter,
    shutdown: AtomicBool,
}

impl ServeShared {
    /// Fresh daemon state around a session cache.
    pub fn new(cache: SessionCache) -> ServeShared {
        let index = CorpusIndex::default();
        ServeShared {
            cache,
            index_bytes: AtomicU64::new(index.heap_bytes()),
            index_config: index.config(),
            index: Mutex::new(index),
            requests: Counter::new(),
            errors: Counter::new(),
            connections: Counter::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// `(entries, heap bytes)` of the corpus index.
    pub fn index_totals(&self) -> (u64, u64) {
        let idx = self.index.lock().unwrap();
        (idx.len() as u64, idx.heap_bytes())
    }

    /// Has a shutdown request been served?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the daemon to stop accepting (used by the shutdown request
    /// and by in-process harnesses tearing a server down).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Count one accepted connection.
    pub fn connection_opened(&self) {
        self.connections.inc();
    }

    /// Count one frame that never became a served response (framing or
    /// decode failure).
    pub fn protocol_error(&self) {
        self.requests.inc();
        self.errors.inc();
    }

    /// Daemon-wide counters, merged from the server, the cache, and the
    /// corpus index.
    pub fn serve_stats(&self) -> ServeStats {
        let (hits, misses, evictions, resident, bytes) = self.cache.counters();
        let (index_entries, index_bytes) = self.index_totals();
        ServeStats {
            requests: self.requests.get(),
            errors: self.errors.get(),
            cache_hits: hits,
            cache_misses: misses,
            sessions_evicted: evictions,
            sessions_resident: resident,
            resident_bytes: bytes,
            index_bytes,
            index_entries,
            connections: self.connections.get(),
        }
    }

    /// Serve one request. Never panics on malformed input: analysis and
    /// lookup failures come back as [`Response::Error`] frames. After
    /// every analysis request the cache cap is re-enforced, since
    /// artifact memoization may have grown the served session; the
    /// corpus index's bytes are reserved out of the cap every time.
    ///
    /// The reply is the frame a connection would write for `req`,
    /// decoded (see the module docs).
    pub fn handle(&self, req: Request) -> Response {
        let mut frame = Vec::new();
        write_value(&mut frame, self.respond(req))
            .and_then(|()| decode_message(&frame[4..]))
            .unwrap_or_else(|e| Response::from_error(&e))
    }

    /// Serve one request as the data tree of its reply, memoized parts
    /// in place, for the connection loop to write.
    pub(crate) fn respond(&self, req: Request) -> Value {
        self.requests.inc();
        self.dispatch(req).unwrap_or_else(|e| {
            self.errors.inc();
            Response::from_error(&e).to_value()
        })
    }

    fn dispatch(&self, req: Request) -> Result<Value, Error> {
        let reply = match req {
            Request::Struct { bin } => return self.serve_struct(bin),
            Request::Features { bin } => return self.serve_features(bin),
            Request::SliceFunc { bin, entry } => self.serve_slice(bin, entry)?,
            Request::Similarity { a, b } => self.serve_similarity(a, b)?,
            Request::CorpusIngest { bin } => self.serve_corpus_ingest(bin)?,
            Request::CorpusTopk { bin, k, exact } => {
                self.serve_corpus_topk(bin, k as usize, exact)?
            }
            Request::Stats => {
                let sessions =
                    self.cache.sessions().into_iter().map(|(h, s)| (h, s.stats())).collect();
                Response::Stats { serve: self.serve_stats(), sessions }
            }
            Request::Evict { hash } => {
                Response::Evicted { sessions: self.cache.evict(hash) as u64 }
            }
            Request::Shutdown => {
                self.request_shutdown();
                Response::Shutdown
            }
        };
        Ok(reply.to_value())
    }

    /// Resolve a binary operand through the cache, which finds a
    /// resident session by the operand's bytes without hashing them
    /// with FNV-1a. An inline image moves into the session (or is
    /// dropped on a hit) — never copied.
    fn resolve(&self, bin: BinSpec) -> Result<Cached, Error> {
        match bin {
            BinSpec::Bytes(b) => Ok(self.cache.get_or_open(ImageBytes::from(b))),
            BinSpec::Path(p) => self.cache.open_path(&p),
        }
    }

    /// Evict cold sessions until they fit the cap beside the index.
    fn enforce_cap(&self) {
        self.cache.enforce_cap(self.index_bytes.load(Ordering::Relaxed) as usize);
    }

    fn serve_struct(&self, bin: BinSpec) -> Result<Value, Error> {
        let cached = self.resolve(bin)?;
        let out = cached.session.structure()?;
        let text = cached.parts.text.get_or_init(|| rendered(&out.text));
        let reply = Response::Struct {
            hit: cached.hit,
            text: String::new(),
            functions: out.structure.functions.len() as u64,
            loops: out.structure.loop_count() as u64,
            stmts: out.structure.stmt_count() as u64,
            stats: cached.session.stats(),
        };
        self.enforce_cap();
        Ok(with_part(reply, "text", text))
    }

    fn serve_features(&self, bin: BinSpec) -> Result<Value, Error> {
        let cached = self.resolve(bin)?;
        let index = &cached.session.features()?.index;
        let features =
            cached.parts.features.get_or_init(|| rendered(&index.pairs().collect::<Vec<_>>()));
        let reply = Response::Features {
            hit: cached.hit,
            stats: cached.session.stats(),
            features: Vec::new(),
        };
        self.enforce_cap();
        Ok(with_part(reply, "features", features))
    }

    fn serve_slice(&self, bin: BinSpec, entry: u64) -> Result<Response, Error> {
        let cached = self.resolve(bin)?;
        let jumps = slice_function(&cached.session, entry)?;
        let reply = Response::SliceFunc { hit: cached.hit, stats: cached.session.stats(), jumps };
        self.enforce_cap();
        Ok(reply)
    }

    /// Ingest one binary into the corpus index. The session is
    /// *ephemeral* — opened outside the cache, its features moved into
    /// the index, and dropped before replying — so streaming a whole
    /// corpus through this request keeps at most one session resident
    /// regardless of corpus size. Re-ingesting indexed content skips
    /// analysis entirely (the `content_hash` check costs one pass over
    /// the image, which `ImageBytes` memoizes).
    fn serve_corpus_ingest(&self, bin: BinSpec) -> Result<Response, Error> {
        let image = match bin {
            BinSpec::Bytes(b) => ImageBytes::from(b),
            BinSpec::Path(p) => ImageBytes::from_path(&p)
                .map_err(|e| Error::Io { path: p, message: e.to_string() })?,
        };
        let hash = image.content_hash();
        let mut ingested = false;
        let known = self.index.lock().unwrap().contains(hash);
        if !known {
            let session = Session::open(image, self.cache.config().clone());
            session.features()?;
            let feats = match session.into_features() {
                Some(Ok(f)) => f,
                Some(Err(e)) => return Err(e),
                None => return Err(Error::Protocol("features vanished mid-ingest".into())),
            };
            let sig = self.index_config.signature(&feats.index);
            let mut idx = self.index.lock().unwrap();
            ingested = idx.insert_signed(hash, sig, feats.index);
            self.index_bytes.store(idx.heap_bytes(), Ordering::Relaxed);
        }
        let (index_entries, index_bytes) = self.index_totals();
        self.enforce_cap();
        Ok(Response::CorpusIngest { ingested, hash, index_entries, index_bytes })
    }

    /// Top-`k` corpus entries nearest the query binary: LSH candidates
    /// by default, brute-force [`rank_topk`] over the whole corpus when
    /// `exact` (the baseline the bench and recall tests compare
    /// against). The query itself resolves through the session cache —
    /// repeat queries for the same binary are cache hits — and its LSH
    /// signature is a reply part of the cache entry: built on the
    /// entry's first LSH query, before that query takes the index lock,
    /// and reused by every later one.
    fn serve_corpus_topk(&self, bin: BinSpec, k: usize, exact: bool) -> Result<Response, Error> {
        let cached = self.resolve(bin)?;
        let query = &cached.session.features()?.index;
        let sig = (!exact)
            .then(|| cached.parts.signature.get_or_init(|| self.index_config.signature(query)));
        let idx = self.index.lock().unwrap();
        let (hits, candidates) = if let Some(sig) = sig {
            let r = idx.query_topk_signed(query, sig, k, None);
            let hits =
                r.hits.into_iter().map(|h| TopkHit { hash: h.hash, score: h.score }).collect();
            (hits, r.candidates)
        } else {
            let top = rank_topk(query, idx.features(), k);
            let hits =
                top.into_iter().map(|(i, score)| TopkHit { hash: idx.hash_at(i), score }).collect();
            (hits, idx.len() as u64)
        };
        drop(idx);
        self.enforce_cap();
        Ok(Response::CorpusTopk { hit: cached.hit, exact, candidates, hits })
    }

    fn serve_similarity(&self, a: BinSpec, b: BinSpec) -> Result<Response, Error> {
        let ca = self.resolve(a)?;
        let cb = self.resolve(b)?;
        let fa = &ca.session.features()?.index;
        let fb = &cb.session.features()?.index;
        let reply = Response::Similarity {
            hit_a: ca.hit,
            hit_b: cb.hit,
            cosine: pba_binfeat::similarity::cosine(fa, fb),
            jaccard: pba_binfeat::similarity::jaccard(fa, fb),
        };
        self.enforce_cap();
        Ok(reply)
    }
}

/// The feature index as `(hash, count)` pairs sorted by hash — the
/// deterministic wire form of `session.features()`, whose key and count
/// arrays are in that order already and are zipped into pairs here.
pub fn sorted_features(session: &Session) -> Result<Vec<(u64, u64)>, Error> {
    Ok(session.features()?.index.pairs().collect())
}

/// `value` rendered as JSON, once, for a reply part.
fn rendered<T: Serialize + ?Sized>(value: &T) -> Arc<str> {
    Arc::from(serde_json::to_string(value).expect("a reply part holds no byte strings"))
}

/// `reply`'s derived tree with its field `name` replaced by the
/// rendered `part`, which the frame writer sends in place: the bytes
/// are those of `reply` with the part's value in that field.
fn with_part(reply: Response, name: &str, part: &Arc<str>) -> Value {
    let mut tree = reply.to_value();
    let Value::Object(fields) = &mut tree else { unreachable!("a response derives an object") };
    let (_, slot) =
        fields.iter_mut().find(|(key, _)| key == name).expect("the response has the field");
    *slot = Value::Raw(Arc::clone(part));
    tree
}

/// Slice every indirect jump of the function at `entry`, rows sorted by
/// block address — the deterministic wire form of a `slice_func` query.
/// This is what the handler serves and what the equivalence tests run
/// in-process for comparison. The jumps are found in the function's own
/// IR, by each block's last instruction (no decoding, nothing outside
/// the function read):
/// the blocks [`pba_dataflow::collect_indirect_jumps`] lists for `entry`.
pub fn slice_function(session: &Session, entry: u64) -> Result<Vec<SliceJump>, Error> {
    let ir = session.ir()?;
    let fir = ir.func(entry).ok_or_else(|| Error::FunctionNotFound(format!("{entry:#x}")))?;
    Ok(indirect_jumps(fir).filter_map(|block| slice_row(fir, block)).collect())
}

/// The member blocks of `fir` that end in an indirect jump, ascending.
fn indirect_jumps(fir: &FuncIr) -> impl Iterator<Item = u64> + '_ {
    fir.blocks().iter().copied().filter(|&b| {
        fir.insns(b).last().is_some_and(|i| i.control_flow() == ControlFlow::IndirectBranch)
    })
}

/// One `slice_func` row: the jump at `block` sliced within `fir`.
fn slice_row(fir: &FuncIr, block: u64) -> Option<SliceJump> {
    pba_dataflow::slice_indirect_jump_with(fir, block, ExecutorKind::Serial).map(|o| SliceJump {
        block,
        widened: o.widened,
        facts: o.facts.len() as u64,
        classified: o.facts.iter().filter(|p| p.form.is_some()).count() as u64,
        bounded: o.facts.iter().filter(|p| p.bound.is_some()).count() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_driver::SessionConfig;
    use pba_gen::{generate, GenConfig};

    /// Function-local discovery finds exactly the whole-binary scan's
    /// jumps for each function, so the served rows are those the scan
    /// would give.
    #[test]
    fn function_local_jumps_match_the_whole_binary_scan() {
        for (seed, pct_shared) in [(0x511CE, 0.0), (0x511CF, 0.2)] {
            let cfg = GenConfig {
                seed,
                num_funcs: 40,
                pct_switch: 1.0,
                pct_shared,
                ..Default::default()
            };
            let session =
                Session::open(generate(&cfg).elf, SessionConfig::default().with_threads(2));
            let scan = pba_dataflow::collect_indirect_jumps(session.cfg().unwrap());
            let ir = session.ir().unwrap();
            let mut found = 0;
            for fir in ir.funcs() {
                let want: Vec<u64> =
                    scan.iter().filter(|&&(f, _)| f == fir.entry()).map(|&(_, b)| b).collect();
                assert_eq!(indirect_jumps(fir).collect::<Vec<_>>(), want, "{:#x}", fir.entry());
                let rows: Vec<SliceJump> = want.iter().filter_map(|&b| slice_row(fir, b)).collect();
                assert_eq!(slice_function(&session, fir.entry()).unwrap(), rows);
                found += want.len();
            }
            assert_eq!(found, scan.len(), "seed {seed:#x}: every jump belongs to a function");
            assert!(found > 0, "seed {seed:#x}: a switch-heavy image has jump tables");
        }
    }
}
