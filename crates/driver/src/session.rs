//! The session: one handle per binary, every artifact computed at most
//! once.

use crate::error::Error;
use pba_binfeat::BinaryFeatures;
use pba_cfg::Cfg;
use pba_concurrent::Memo;
use pba_dataflow::{BinaryIr, ExecutorKind, FuncAnalyses, LoopForest};
use pba_dwarf::decode::DebugSlices;
use pba_dwarf::DebugInfo;
use pba_elf::{Elf, ImageBytes};
use pba_hpcstruct::{analyze_artifacts, ArtifactTimes, HsConfig, HsOutput};
use pba_parse::stats::StatsSnapshot;
use pba_parse::{ParseConfig, ParseInput, ParseResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One configuration surface for the whole stack.
///
/// Everything that used to be plumbed separately — a bare `threads:
/// usize` here, an `HsConfig` there, a `ParseConfig` underneath — lives
/// in one place with one convention: **`threads: 0` means "all
/// available", everywhere.**
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads for every parallel phase (0 = all available).
    pub threads: usize,
    /// Kept for the benchmark suite, which sets and reads it; nothing in
    /// the session reads it (see [`ExecutorKind`]).
    pub executor: ExecutorKind,
    /// Parse-engine options (scheduling, ablation toggles). Its
    /// `threads` field is overridden by [`SessionConfig::threads`] so
    /// there is exactly one thread knob.
    pub parse: ParseConfig,
    /// Load-module name recorded in the structure file.
    pub name: String,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            threads: 0,
            executor: ExecutorKind::Serial,
            parse: ParseConfig::default(),
            name: "a.out".into(),
        }
    }
}

impl SessionConfig {
    /// Set the worker-thread count (0 = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set [`SessionConfig::executor`], which nothing reads.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Set the load-module name used by `structure()`.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The thread count after applying the 0 = all-available rule.
    /// The mapping is owned by [`ParseConfig::effective_threads`] so
    /// the convention has exactly one definition.
    pub fn effective_threads(&self) -> usize {
        ParseConfig { threads: self.threads, ..self.parse.clone() }.effective_threads()
    }
}

/// How many times each artifact was actually computed in this session.
///
/// Every field is 0 or 1 once the session quiesces (loop forests: at
/// most one per function) — that *is* the session contract, and the
/// memoization tests assert it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// ELF image parses.
    pub elf_parses: u64,
    /// DWARF decodes.
    pub dwarf_decodes: u64,
    /// CFG constructions (the expensive one the paper parallelizes).
    pub cfg_parses: u64,
    /// Whole-binary analysis-IR builds (each decodes every unique block
    /// exactly once; everything downstream borrows).
    pub ir_builds: u64,
    /// Whole-binary `run_all_ir` dataflow sweeps.
    pub dataflow_runs: u64,
    /// hpcstruct structure builds.
    pub structure_builds: u64,
    /// BinFeat feature extractions.
    pub feature_builds: u64,
    /// Per-function loop forests built, read off the IR, which owns
    /// them: at most one per function, whichever consumer asked first
    /// (`structure()`, `features()` or the loop accessors).
    pub loop_forests: u64,
    /// Estimated bytes of heap the session's memoized artifacts pin
    /// right now: the shared input image counted once, plus each
    /// computed artifact's owned storage (`heap_bytes()`). `Arc`-shared
    /// structures — block arenas, block indices, the image behind the
    /// parsed ELF — are counted exactly once. This is the eviction
    /// signal for a resident server: how much a cached session costs.
    ///
    /// Each artifact is sized once, by the first [`Session::stats`] call
    /// that observes it built, and that figure is kept — built artifacts
    /// do not change. What grows afterwards, each IR function's RPO
    /// ranks and loop forest, is re-read per call, one figure per
    /// function: no walk over blocks or loops.
    pub resident_bytes: u64,
}

/// A lazily-memoized analysis session over one binary.
///
/// `Session` is *the* entry point to the stack: open it once, then ask
/// for artifacts — [`elf`](Session::elf), [`debug_info`](Session::debug_info),
/// [`cfg`](Session::cfg), [`dataflow`](Session::dataflow),
/// [`loop_forest`](Session::loop_forest), [`structure`](Session::structure),
/// [`features`](Session::features). Each is computed at most once per
/// session, concurrent callers block on the in-flight computation and
/// then share the result (a [`pba_concurrent::Memo`] per artifact, the
/// IR's own cells for the loop forests), and failures are memoized just
/// like successes. The daemon's `pba_serve::SessionCache` caches
/// exactly this handle: one session per binary, artifacts reused across
/// requests.
pub struct Session {
    config: SessionConfig,
    /// The shared input image. Cloning is an `Arc` bump; the first
    /// `elf()` computation parses *this* storage without copying it, so
    /// the session and the parsed ELF pin the same bytes once.
    input: ImageBytes,
    elf: Memo<Result<Elf, Error>>,
    debug: Memo<Result<DebugInfo, Error>>,
    parse: Memo<Result<ParseResult, Error>>,
    ir: Memo<Result<BinaryIr, Error>>,
    dataflow: Memo<Result<HashMap<u64, FuncAnalyses>, Error>>,
    structure: Memo<Result<HsOutput, Error>>,
    features: Memo<Result<BinaryFeatures, Error>>,
    bytes: ArtifactBytes,
}

/// Resident bytes of each built artifact, measured by the first
/// [`Session::stats`] that finds it ready and then kept, so a cache hit
/// never repeats a whole-artifact walk.
#[derive(Default)]
struct ArtifactBytes {
    elf: OnceLock<usize>,
    debug: OnceLock<usize>,
    cfg: OnceLock<usize>,
    ir: OnceLock<usize>,
    dataflow: OnceLock<usize>,
    structure: OnceLock<usize>,
    features: OnceLock<usize>,
}

/// An artifact's bytes: 0 until it is built (or if it failed), then
/// `size` of it, measured on the first call and kept.
fn sized<T>(
    memo: &Memo<Result<T, Error>>,
    bytes: &OnceLock<usize>,
    size: impl FnOnce(&T) -> usize,
) -> usize {
    match memo.get() {
        Some(Ok(artifact)) => *bytes.get_or_init(|| size(artifact)),
        _ => 0,
    }
}

impl Session {
    /// Open a session over a raw ELF image — an owned `Vec<u8>`, a
    /// borrowed slice, or an already-shared [`ImageBytes`]. Nothing is
    /// parsed yet; every artifact is computed on first use. The first
    /// session of a process fixes the C allocator's thresholds, which
    /// keeps peak RSS from one run to the next steady (`heap.rs`).
    pub fn open(bytes: impl Into<ImageBytes>, config: SessionConfig) -> Session {
        crate::heap::steady();
        Session {
            config,
            input: bytes.into(),
            elf: Memo::new(),
            debug: Memo::new(),
            parse: Memo::new(),
            ir: Memo::new(),
            dataflow: Memo::new(),
            structure: Memo::new(),
            features: Memo::new(),
            bytes: ArtifactBytes::default(),
        }
    }

    /// Open a session over a file on disk. The image is memory-mapped
    /// when the platform supports it (falling back to a plain read), so
    /// a resident session over a large binary pins file-backed pages —
    /// evictable by the OS — instead of anonymous heap.
    pub fn open_path(path: impl AsRef<Path>, config: SessionConfig) -> Result<Session, Error> {
        let path = path.as_ref();
        let bytes = ImageBytes::from_path(path)
            .map_err(|e| Error::Io { path: path.display().to_string(), message: e.to_string() })?;
        Ok(Session::open(bytes, config))
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Stable 64-bit content hash of the input image (cached FNV-1a via
    /// [`ImageBytes::content_hash`]) — the cache key a serving daemon
    /// uses for this session, and a stable identity for tests and
    /// corpus indexes.
    pub fn content_hash(&self) -> u64 {
        self.input.content_hash()
    }

    /// The shared input image backing this session.
    pub fn input(&self) -> &ImageBytes {
        &self.input
    }

    /// The parsed ELF image.
    pub fn elf(&self) -> Result<&Elf, Error> {
        self.elf
            .get_or_compute(|| Elf::parse(self.input.clone()).map_err(Error::from))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The decoded debug information (parallel per-CU decode on the
    /// session's pool). Empty (not an error) for stripped binaries.
    pub fn debug_info(&self) -> Result<&DebugInfo, Error> {
        self.debug
            .get_or_compute(|| {
                let elf = self.elf()?;
                // Pools of equal size share one process-lived registry.
                let pool = rayon::ThreadPoolBuilder::new().num_threads(self.config.threads);
                let pool = pool.build().expect("pool");
                pool.install(|| pba_dwarf::decode_parallel(DebugSlices::from_elf(elf)))
                    .map_err(Error::from)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn parse_result(&self) -> Result<&ParseResult, Error> {
        self.parse
            .get_or_compute(|| {
                let elf = self.elf()?;
                let input = ParseInput::from_elf(elf)?;
                let mut pc = self.config.parse.clone();
                pc.threads = self.config.threads;
                Ok(pba_parse::parse(&input, &pc))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The finalized control-flow graph (the paper's parallel phase).
    pub fn cfg(&self) -> Result<&Cfg, Error> {
        self.parse_result().map(|r| &r.cfg)
    }

    /// Machine-independent work counters from the CFG parse.
    pub fn parse_stats(&self) -> Result<StatsSnapshot, Error> {
        self.parse_result().map(|r| r.stats.snapshot())
    }

    /// The decode-once analysis IR: one instruction arena for the
    /// binary and one [`pba_dataflow::FuncIr`] per function (arena ids,
    /// adjacency, memoized RPO ranks), built in parallel with every
    /// unique block decoded exactly once. Every downstream analysis
    /// artifact — `dataflow()`, `structure()`, `features()`, the loop
    /// forests — borrows this IR, so "decode once per binary" is a
    /// structural invariant of the session (`tests/ir.rs` asserts it).
    pub fn ir(&self) -> Result<&BinaryIr, Error> {
        self.ir
            .get_or_compute(|| {
                let cfg = self.cfg()?;
                Ok(BinaryIr::build(cfg, self.config.threads))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The three standard dataflow analyses (liveness, reaching defs,
    /// stack height) for every function, keyed by entry — the engine's
    /// `run_all_ir` facts over the shared IR, fanned across the session's
    /// pool once, each function's three fixpoints on one worker.
    pub fn dataflow(&self) -> Result<&HashMap<u64, FuncAnalyses>, Error> {
        self.dataflow
            .get_or_compute(|| {
                let ir = self.ir()?;
                Ok(pba_dataflow::run_all_ir(ir, self.config.threads, ExecutorKind::Serial))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The natural-loop forest of one function: the one the shared
    /// [`Session::ir`] keeps for it ([`pba_dataflow::FuncIr::loop_forest`]),
    /// built by whichever consumer asked first — this call,
    /// `structure()` or `features()` — and shared from then on.
    pub fn loop_forest(&self, entry: u64) -> Result<Arc<LoopForest>, Error> {
        let ir = self.ir()?;
        let fir = ir.func(entry).ok_or_else(|| Error::FunctionNotFound(format!("{entry:#x}")))?;
        Ok(Arc::clone(fir.loop_forest()))
    }

    /// Every function's loop forest, keyed by entry. Those not built yet
    /// are built across the session's pool; the rest are reused.
    pub fn loop_forests(&self) -> Result<HashMap<u64, Arc<LoopForest>>, Error> {
        let ir = self.ir()?;
        Ok(pba_dataflow::run_per_function_ir(ir, self.config.threads, |f| {
            Arc::clone(f.loop_forest())
        }))
    }

    /// The recovered program structure (the hpcstruct case study),
    /// phase-timed. Artifact phases report the time this call spent
    /// *obtaining* each artifact — near zero when another accessor
    /// already paid for it.
    pub fn structure(&self) -> Result<&HsOutput, Error> {
        self.structure
            .get_or_compute(|| {
                let t = Instant::now();
                let _elf = self.elf()?;
                let read = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let di = self.debug_info()?;
                let dwarf = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let cfg = self.cfg()?;
                let ir = self.ir()?;
                // The IR is part of the CFG-plane artifact cost: phase 4
                // reports parse + decode-once build (≈0 when memoized).
                let cfg_secs = t.elapsed().as_secs_f64();
                let hs = HsConfig { threads: self.config.threads, name: self.config.name.clone() };
                Ok(analyze_artifacts(
                    di,
                    cfg,
                    ir,
                    &hs,
                    ExecutorKind::Serial,
                    ArtifactTimes { read, dwarf, cfg: cfg_secs },
                ))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The forensic feature index (the BinFeat case study), stage-timed.
    /// `t_cfg` is the time this call spent obtaining the CFG artifact —
    /// near zero when it was already memoized.
    pub fn features(&self) -> Result<&BinaryFeatures, Error> {
        self.features
            .get_or_compute(|| {
                let t = Instant::now();
                let cfg = self.cfg()?;
                let ir = self.ir()?;
                let t_cfg = t.elapsed().as_secs_f64();
                let mut bf = pba_binfeat::extract_cfg_features(
                    cfg,
                    ir,
                    self.config.threads,
                    ExecutorKind::Serial,
                );
                bf.t_cfg = t_cfg;
                Ok(bf)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Consume the session and take its feature artifact out without
    /// cloning (None if `features()` was never driven to completion).
    pub fn into_features(self) -> Option<Result<BinaryFeatures, Error>> {
        self.features.into_inner()
    }

    /// Compute counts per artifact (each 0 or 1 after quiescence —
    /// the at-most-once contract, measurable) plus the resident-heap
    /// estimate of everything memoized so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            elf_parses: self.elf.computes(),
            dwarf_decodes: self.debug.computes(),
            cfg_parses: self.parse.computes(),
            ir_builds: self.ir.computes(),
            dataflow_runs: self.dataflow.computes(),
            structure_builds: self.structure.computes(),
            feature_builds: self.features.computes(),
            loop_forests: self.built_ir().map_or(0, |ir| ir.loop_forests_built() as u64),
            resident_bytes: self.resident_bytes() as u64,
        }
    }

    /// Estimated bytes of heap the memoized artifacts pin, shared
    /// storage counted once (see [`SessionStats::resident_bytes`]).
    fn resident_bytes(&self) -> usize {
        let b = &self.bytes;
        // The input image, counted exactly once (zero when mmapped); the
        // parsed ELF shares its storage, so only the ELF's decoded
        // section/symbol metadata counts on top.
        self.input.heap_bytes()
            + sized(&self.elf, &b.elf, |elf| elf.heap_bytes() - elf.image().heap_bytes())
            + sized(&self.debug, &b.debug, DebugInfo::heap_bytes)
            + sized(&self.parse, &b.cfg, |r| r.cfg.heap_bytes())
            // Each unique block arena once, plus every graph's dense
            // adjacency and index.
            + sized(&self.ir, &b.ir, BinaryIr::built_heap_bytes)
            + sized(&self.dataflow, &b.dataflow, |df| {
                df.capacity() * (std::mem::size_of::<(u64, FuncAnalyses)>() + 1)
                    + df.values().map(FuncAnalyses::heap_bytes).sum::<usize>()
            })
            + sized(&self.structure, &b.structure, HsOutput::heap_bytes)
            + sized(&self.features, &b.features, BinaryFeatures::heap_bytes)
            // The ranks and loop forests the IR's functions memoized since.
            + self.built_ir().map_or(0, BinaryIr::memo_heap_bytes)
    }

    /// The IR, if it has been built (and did not fail).
    fn built_ir(&self) -> Option<&BinaryIr> {
        self.ir.get()?.as_ref().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_gen::{generate, GenConfig};

    /// The oracle: a full walk over every memoized artifact, which the
    /// sized-once figures must equal at any point.
    fn walk(s: &Session) -> usize {
        use std::mem::size_of;
        let mut total = s.input.heap_bytes();
        if let Some(Ok(elf)) = s.elf.get() {
            total += elf.heap_bytes() - elf.image().heap_bytes();
        }
        if let Some(Ok(di)) = s.debug.get() {
            total += di.heap_bytes();
        }
        if let Some(Ok(r)) = s.parse.get() {
            total += r.cfg.heap_bytes();
        }
        if let Some(Ok(ir)) = s.ir.get() {
            // The loop forests built so far included.
            total += ir.heap_bytes();
        }
        if let Some(Ok(df)) = s.dataflow.get() {
            total += df.capacity() * (size_of::<(u64, FuncAnalyses)>() + 1)
                + df.values().map(FuncAnalyses::heap_bytes).sum::<usize>();
        }
        if let Some(Ok(hs)) = s.structure.get() {
            total += hs.heap_bytes();
        }
        if let Some(Ok(bf)) = s.features.get() {
            total += bf.heap_bytes();
        }
        total
    }

    fn image() -> Vec<u8> {
        generate(&GenConfig { num_funcs: 24, seed: 0x5E55, ..Default::default() }).elf
    }

    /// Drive a session one artifact at a time, checking the reported
    /// bytes against the walk after every step (so each artifact is
    /// sized at a different moment, before later steps grow the IR's
    /// ranks and forests).
    #[test]
    fn resident_bytes_equal_the_walk_after_every_step() {
        let s = Session::open(image(), SessionConfig::default().with_threads(2));
        let check = |step: &str| {
            assert_eq!(s.stats().resident_bytes as usize, walk(&s), "after {step}");
        };
        check("open");
        s.elf().unwrap();
        check("elf");
        s.cfg().unwrap();
        check("cfg");
        let entry = s.ir().unwrap().funcs().map(|f| f.entry()).min().unwrap();
        check("ir");
        s.loop_forest(entry).unwrap();
        check("loop_forest");
        s.dataflow().unwrap();
        check("dataflow");
        s.structure().unwrap();
        check("structure");
        s.features().unwrap();
        check("features");
        s.loop_forests().unwrap();
        check("loop_forests");
        let once = s.stats().resident_bytes;
        assert_eq!(s.stats().resident_bytes, once, "a repeated stats() moves nothing");
    }
}
