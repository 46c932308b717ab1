//! The seven-phase hpcstruct pipeline with per-phase timing.
//!
//! Since the `pba::Session` redesign this crate no longer parses bytes
//! itself: phases 1 (read), 2 (DWARF) and 4 (CFG) produce *artifacts*
//! that every analysis consumer shares, so they live behind the
//! session's memoized accessors. [`analyze_artifacts`] is the
//! artifact-level pipeline — phases 3 and 5–7 over a read-only
//! [`DebugInfo`] and [`Cfg`] — and takes the caller-measured artifact
//! times ([`ArtifactTimes`]) so the emitted [`PhaseTimes`] keeps the
//! exact Figure 2 shape. The byte-level entry point (`analyze`) is a
//! thin layer over a session in `pba-driver`, re-exported as
//! `pba::hpcstruct::analyze`.

use crate::structure::{FuncStruct, InlineScope, LoopStruct, StmtRange, StructFile};
use pba_cfg::Cfg;
use pba_dataflow::{BinaryIr, CfgView, ExecutorKind};
use pba_dwarf::{DebugInfo, InlinedSub};
use pba_loops::loop_forest_on;
use rayon::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// Names of the seven phases, matching the paper's Figure 2 numbering.
pub const PHASE_NAMES: [&str; 7] = [
    "1:read",
    "2:dwarf-parallel",
    "3:linemap-serial",
    "4:cfg-parallel",
    "5:skeleton",
    "6:query-parallel",
    "7:serialize",
];

/// Wall time per phase, in seconds.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseTimes {
    /// Seconds per phase, indexed like [`PHASE_NAMES`].
    pub seconds: [f64; 7],
}

impl PhaseTimes {
    /// End-to-end time.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// The parallel DWARF phase (Table 2's "DWARF" column).
    pub fn dwarf(&self) -> f64 {
        self.seconds[1]
    }

    /// The parallel CFG phase (Table 2's "CFG" column).
    pub fn cfg(&self) -> f64 {
        self.seconds[3]
    }
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct HsConfig {
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Load-module name recorded in the structure file.
    pub name: String,
}

impl Default for HsConfig {
    fn default() -> Self {
        HsConfig { threads: 0, name: "a.out".into() }
    }
}

/// Wall times of the artifact-producing phases (1: read, 2: DWARF
/// decode, 4: CFG construction), measured by whoever supplied the
/// artifacts. A session that already holds a memoized artifact reports
/// the (near-zero) time it took to *fetch* it — which is exactly the
/// amortization story the phase trace should tell.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArtifactTimes {
    /// Phase 1: reading/ingesting the binary image.
    pub read: f64,
    /// Phase 2: parallel DWARF decode.
    pub dwarf: f64,
    /// Phase 4: parallel CFG construction.
    pub cfg: f64,
}

/// Output: the structure document, its serialized text, and timings.
#[derive(Debug, Clone)]
pub struct HsOutput {
    /// The structure document.
    pub structure: StructFile,
    /// Serialized form.
    pub text: String,
    /// Per-phase wall times.
    pub times: PhaseTimes,
}

impl HsOutput {
    /// Bytes of heap the memoized output pins: the structure document
    /// plus its serialized text.
    pub fn heap_bytes(&self) -> usize {
        self.structure.heap_bytes() + self.text.capacity()
    }
}

/// Global line map: `(addr, unit index, file index, line)` sorted by
/// address — "a serial structure optimized for accelerated lookup"
/// (paper phase 3, including its resistance to parallelization).
struct LineMap {
    entries: Vec<(u64, u32, u32, u32)>,
    files: Vec<Vec<String>>,
}

impl LineMap {
    fn build(di: &DebugInfo) -> LineMap {
        let mut entries = Vec::with_capacity(di.line_row_count());
        let mut files = Vec::with_capacity(di.units.len());
        for (ui, u) in di.units.iter().enumerate() {
            for r in &u.line_table.rows {
                entries.push((r.addr, ui as u32, r.file, r.line));
            }
            files.push(u.files.clone());
        }
        entries.sort_unstable();
        LineMap { entries, files }
    }

    fn lookup(&self, addr: u64) -> Option<(&str, u32)> {
        let i = match self.entries.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (_, ui, fi, line) = self.entries[i];
        let name = self
            .files
            .get(ui as usize)
            .and_then(|f| f.get(fi as usize))
            .map(String::as_str)
            .unwrap_or("??");
        Some((name, line))
    }
}

fn convert_inline(files: &[String], inl: &InlinedSub) -> InlineScope {
    InlineScope {
        name: inl.name.clone(),
        lo: inl.low_pc,
        hi: inl.high_pc,
        call_file: files.get(inl.call_file as usize).cloned().unwrap_or_else(|| "??".into()),
        call_line: inl.call_line,
        children: inl.children.iter().map(|c| convert_inline(files, c)).collect(),
    }
}

/// Run phases 3 and 5–7 over already-built artifacts: the line map, the
/// skeleton, the parallel query phase (loops, statements, inline scopes,
/// stack frames), and serialization. `_exec` is ignored (see
/// [`ExecutorKind`]). `ir` is the shared decode-once analysis IR
/// (`Session::ir()`); every instruction this pipeline reads — loop
/// discovery, the stack-frame fixpoint, the statement walk — is a
/// borrow of its arenas, so the query phases decode nothing. `pre`
/// carries the artifact phases' wall times so the returned
/// [`PhaseTimes`] stays Figure 2-shaped.
pub fn analyze_artifacts(
    di: &DebugInfo,
    cfg_graph: &Cfg,
    ir: &BinaryIr,
    cfg: &HsConfig,
    _exec: ExecutorKind,
    pre: ArtifactTimes,
) -> HsOutput {
    // 0 = all available, uniformly: the pool builder owns the mapping.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(cfg.threads).build().expect("pool");
    let mut times = PhaseTimes::default();
    times.seconds[0] = pre.read;
    times.seconds[1] = pre.dwarf;
    times.seconds[3] = pre.cfg;

    // Phase 3: serial line-map construction.
    let t = Instant::now();
    let linemap = LineMap::build(di);
    times.seconds[2] = t.elapsed().as_secs_f64();

    // Phase 5: skeleton construction (serial).
    let t = Instant::now();
    let mut skeleton: Vec<FuncStruct> = cfg_graph
        .functions
        .values()
        .map(|f| FuncStruct {
            name: pba_elf::demangle::pretty_name(&f.name),
            entry: f.entry,
            ranges: f.ranges(cfg_graph),
            frame_bytes: None,
            loops: Vec::new(),
            stmts: Vec::new(),
            inlines: Vec::new(),
        })
        .collect();
    skeleton.sort_by_key(|f| f.entry);
    times.seconds[4] = t.elapsed().as_secs_f64();

    // Phase 6: parallel queries (loops, statements, inline scopes,
    // stack frames). The dataflow engine's whole-binary driver fans the
    // per-function stack analysis across the pool once; the
    // per-function closures below then read its results.
    let t = Instant::now();
    let frame_of = pba_dataflow::run_per_function_ir(ir, cfg.threads, |fir| {
        pba_dataflow::stack_heights_and_extent_on(fir, fir.graph()).1
    });
    // Map entries to DWARF subprograms once: a sorted array queried by
    // binary search (entries are read-only from here on).
    let mut subprogram_of: Vec<(u64, (u32, u32))> = di
        .units
        .iter()
        .enumerate()
        .flat_map(|(ui, u)| {
            u.subprograms
                .iter()
                .enumerate()
                .map(move |(si, sp)| (sp.low_pc(), (ui as u32, si as u32)))
        })
        .collect();
    // Stable sort + keep the last entry per pc: the same overwrite
    // semantics a map insert in iteration order had.
    subprogram_of.sort_by_key(|&(pc, _)| pc);
    let subprogram_of = {
        let mut dedup: Vec<(u64, (u32, u32))> = Vec::with_capacity(subprogram_of.len());
        for e in subprogram_of {
            match dedup.last_mut() {
                Some(last) if last.0 == e.0 => *last = e,
                _ => dedup.push(e),
            }
        }
        dedup
    };
    let subprogram_of = |entry: u64| -> Option<(usize, usize)> {
        subprogram_of
            .binary_search_by_key(&entry, |&(pc, _)| pc)
            .ok()
            .map(|i| (subprogram_of[i].1 .0 as usize, subprogram_of[i].1 .1 as usize))
    };
    pool.install(|| {
        skeleton.par_iter_mut().for_each(|fs| {
            // Loops (AC2).
            if let Some(fir) = ir.func(fs.entry) {
                let forest = loop_forest_on(fir, fir.graph());
                fs.loops = forest
                    .loops
                    .iter()
                    .map(|l| LoopStruct { header: l.header, depth: l.depth, blocks: l.size() })
                    .collect();
                fs.loops.sort_by_key(|l| (l.depth, l.header));
            }
            // Stack frame extent, precomputed by the dataflow engine's
            // whole-binary pass above.
            if let Some(&extent) = frame_of.get(&fs.entry) {
                fs.frame_bytes = extent;
            }
            // Statement ranges (AC3): walk covered ranges, coalescing
            // consecutive addresses with the same line. The blocks of a
            // merged range tile it exactly (finalized blocks are
            // disjoint), so chaining the IR's per-block slices is the
            // same instruction sequence the old linear re-decode
            // produced — minus the decode.
            let fir = ir.func(fs.entry);
            for &(lo, hi) in &fs.ranges {
                let mut cur: Option<StmtRange> = None;
                let range_insns = fir.iter().flat_map(|f| {
                    // The block list is sorted: binary-search the
                    // covered sub-range instead of scanning every block
                    // once per range.
                    let blocks = f.blocks();
                    let start = blocks.partition_point(|&b| b < lo);
                    let end = blocks.partition_point(|&b| b < hi);
                    blocks[start..end].iter().flat_map(|&b| f.insns(b))
                });
                for insn in range_insns {
                    let here = linemap.lookup(insn.addr);
                    match (&mut cur, here) {
                        (Some(c), Some((f, l))) if c.file == f && c.line == l => c.hi = insn.end(),
                        (prev, Some((f, l))) => {
                            if let Some(done) = prev.take() {
                                fs.stmts.push(done);
                            }
                            *prev = Some(StmtRange {
                                lo: insn.addr,
                                hi: insn.end(),
                                file: f.to_string(),
                                line: l,
                            });
                        }
                        (prev, None) => {
                            if let Some(done) = prev.take() {
                                fs.stmts.push(done);
                            }
                        }
                    }
                }
                if let Some(done) = cur.take() {
                    fs.stmts.push(done);
                }
            }
            // Inline scopes (AC4).
            if let Some((ui, si)) = subprogram_of(fs.entry) {
                let unit = &di.units[ui];
                fs.inlines = unit.subprograms[si]
                    .inlines
                    .iter()
                    .map(|inl| convert_inline(&unit.files, inl))
                    .collect();
            }
        });
    });
    times.seconds[5] = t.elapsed().as_secs_f64();

    // Phase 7: serialization (parallel per function, serial concat).
    let t = Instant::now();
    let structure = StructFile { load_module: cfg.name.clone(), functions: skeleton };
    let chunks: Vec<String> =
        pool.install(|| structure.functions.par_iter().map(|f| f.to_text()).collect());
    let mut text = format!("<LM n=\"{}\">\n", structure.load_module);
    for c in chunks {
        text.push_str(&c);
    }
    text.push_str("</LM>\n");
    times.seconds[6] = t.elapsed().as_secs_f64();

    HsOutput { structure, text, times }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};

    /// Build the three artifacts the way a session would, then run the
    /// artifact-level pipeline. (The byte-level `analyze` wrapper and
    /// its end-to-end tests live in `pba-driver`.)
    fn run(bytes: &[u8], threads: usize, name: &str) -> HsOutput {
        let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
        let di =
            pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
        let input = ParseInput::from_elf(&elf).unwrap();
        let parsed = parse_parallel(&input, threads);
        let ir = BinaryIr::build(&parsed.cfg, threads);
        analyze_artifacts(
            &di,
            &parsed.cfg,
            &ir,
            &HsConfig { threads, name: name.into() },
            ExecutorKind::Serial,
            ArtifactTimes::default(),
        )
    }

    fn sample() -> Vec<u8> {
        generate(&GenConfig { num_funcs: 30, seed: 77, ..Default::default() }).elf
    }

    #[test]
    fn pipeline_produces_structure() {
        let out = run(&sample(), 2, "test.so");
        assert!(!out.structure.functions.is_empty());
        assert!(out.structure.stmt_count() > 0, "line info recovered");
        assert!(out.structure.loop_count() > 0, "loops recovered");
        assert!(out.text.contains("<LM n=\"test.so\">"));
        assert_eq!(out.times.seconds.len(), PHASE_NAMES.len());
        assert!(out.times.total() > 0.0);
    }

    #[test]
    fn statements_map_to_generated_files() {
        let out = run(&sample(), 1, "t");
        let f = &out.structure.functions[0];
        assert!(!f.stmts.is_empty());
        assert!(
            f.stmts.iter().all(|s| s.file.contains("module_")),
            "files come from the generated CUs: {:?}",
            f.stmts.first()
        );
        // Statement ranges are sorted and non-overlapping within a
        // function range walk.
        for w in f.stmts.windows(2) {
            assert!(w[0].lo < w[1].lo || w[0].hi <= w[1].lo);
        }
    }

    #[test]
    fn artifact_times_flow_into_phase_slots() {
        let out_bytes = sample();
        let elf = pba_elf::Elf::parse(out_bytes.clone()).unwrap();
        let di =
            pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
        let input = ParseInput::from_elf(&elf).unwrap();
        let parsed = parse_parallel(&input, 1);
        let ir = BinaryIr::build(&parsed.cfg, 1);
        let out = analyze_artifacts(
            &di,
            &parsed.cfg,
            &ir,
            &HsConfig { threads: 1, name: "t".into() },
            ExecutorKind::Serial,
            ArtifactTimes { read: 1.0, dwarf: 2.0, cfg: 4.0 },
        );
        assert_eq!(out.times.seconds[0], 1.0);
        assert_eq!(out.times.seconds[1], 2.0);
        assert_eq!(out.times.seconds[3], 4.0);
        assert_eq!(out.times.dwarf(), 2.0);
        assert_eq!(out.times.cfg(), 4.0);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let bytes = sample();
        let a = run(&bytes, 1, "t");
        let b = run(&bytes, 4, "t");
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn executor_choice_does_not_change_output() {
        let bytes = sample();
        let elf = pba_elf::Elf::parse(bytes.clone()).unwrap();
        let di =
            pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
        let input = ParseInput::from_elf(&elf).unwrap();
        let parsed = parse_parallel(&input, 2);
        let ir = BinaryIr::build(&parsed.cfg, 2);
        let hs = HsConfig { threads: 2, name: "t".into() };
        let a =
            analyze_artifacts(&di, &parsed.cfg, &ir, &hs, ExecutorKind::Serial, Default::default());
        let b =
            analyze_artifacts(&di, &parsed.cfg, &ir, &hs, ExecutorKind::Auto, Default::default());
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.text, b.text);
    }
}
