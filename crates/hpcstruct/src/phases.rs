//! The seven-phase hpcstruct pipeline with per-phase timing.
//!
//! Since the `pba::Session` redesign this crate no longer parses bytes
//! itself: phases 1 (read), 2 (DWARF) and 4 (CFG) produce *artifacts*
//! that every analysis consumer shares, so they live behind the
//! session's memoized accessors. [`analyze_artifacts`] is the
//! artifact-level pipeline — phases 3 and 5–7 over a read-only
//! [`DebugInfo`] and [`Cfg`] — and takes the caller-measured artifact
//! times ([`ArtifactTimes`]) so the emitted [`PhaseTimes`] keeps the
//! exact Figure 2 shape. `pba::Session::structure()` is its one
//! byte-level caller.
//!
//! Phase 3 interns every file name once across all compile units and
//! keeps one `(addr, file id, line)` row per address (see `LineMap`
//! for which row wins when units disagree about an address). Phase 5
//! builds each function's name and ranges on the pool. Phase 6 is one
//! task per function: its loops, its stack-frame extent, its statement
//! ranges (a cursor walked along the line rows of each covered range,
//! coalescing on file id and line) and its inline scopes. Phase 7 is
//! [`StructFile::to_text`], the one text writer. Every statement range
//! and inline scope shares its file name's `Arc<str>`.

use crate::structure::{FuncStruct, InlineScope, LoopStruct, StmtRange, StructFile};
use pba_cfg::Cfg;
use pba_dataflow::{BinaryIr, CfgView, ExecutorKind};
use pba_dwarf::{DebugInfo, InlinedSub};
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
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

/// Phase 3's line map, "a serial structure optimized for accelerated
/// lookup" (the paper notes this phase resisted parallelization).
///
/// File names are interned once across all units: each distinct name
/// is one `Arc<str>` with a dense id, and every statement range and
/// inline scope that names it shares that `Arc`. Rows are kept one per
/// address, `(addr, file id, line)`, address-sorted, so a statement walk
/// seeks once per covered range ([`LineMap::seek`]) and then moves a
/// cursor forward per instruction ([`LineMap::advance`]).
///
/// Units may give rows at one address that differ in file or line.
/// Among the rows at an address, the one kept is the last in
/// `(addr, unit, file, line)` order: the row a binary search over the
/// full sorted table resolves that address to.
struct LineMap {
    /// `(addr, file id, line)`, one row per address, address-sorted.
    rows: Vec<(u64, u32, u32)>,
    /// Interned file names, indexed by file id.
    names: Vec<Arc<str>>,
    /// Per unit, the file id of each entry of its file table.
    unit_files: Vec<Vec<u32>>,
    /// The id of `??`, the name of a file index past its unit's table.
    unknown: u32,
}

impl LineMap {
    fn build<'d>(di: &'d DebugInfo) -> LineMap {
        let mut ids: HashMap<&'d str, u32> = HashMap::new();
        let mut names: Vec<Arc<str>> = Vec::new();
        let mut intern = |name: &'d str| {
            *ids.entry(name).or_insert_with(|| {
                names.push(Arc::from(name));
                (names.len() - 1) as u32
            })
        };
        let unknown = intern("??");
        let unit_files: Vec<Vec<u32>> =
            di.units.iter().map(|u| u.files.iter().map(|f| intern(f)).collect()).collect();
        // Sort `(addr, unit, row index)` keys, then overwrite them in
        // place with one `(addr, file id, line)` row per address: the
        // same 16 bytes, so the map needs no second buffer.
        let mut rows: Vec<(u64, u32, u32)> = Vec::with_capacity(di.line_row_count());
        for (ui, u) in di.units.iter().enumerate() {
            rows.extend(
                u.line_table.rows.iter().enumerate().map(|(ri, r)| (r.addr, ui as u32, ri as u32)),
            );
        }
        rows.sort_unstable();
        let row = |(_, ui, ri): (u64, u32, u32)| {
            let r = di.units[ui as usize].line_table.rows[ri as usize];
            (ui, r.file, r.line)
        };
        let (mut read, mut kept) = (0, 0);
        while read < rows.len() {
            let addr = rows[read].0;
            // The last row of the address in (unit, file, line) order.
            let mut last = row(rows[read]);
            read += 1;
            while read < rows.len() && rows[read].0 == addr {
                last = last.max(row(rows[read]));
                read += 1;
            }
            let (ui, fi, line) = last;
            let file = unit_files[ui as usize].get(fi as usize).copied().unwrap_or(unknown);
            rows[kept] = (addr, file, line);
            kept += 1;
        }
        rows.truncate(kept);
        LineMap { rows, names, unit_files, unknown }
    }

    /// A cursor for a walk over ascending addresses from `addr` on: the
    /// index of the first row that starts past `addr`.
    fn seek(&self, addr: u64) -> usize {
        self.rows.partition_point(|r| r.0 <= addr)
    }

    /// `(file id, line)` of the row covering `addr`, moving `cursor`
    /// past every row that starts at or before it. `addr` must not be
    /// below an address the cursor was sought or advanced to.
    fn advance(&self, cursor: &mut usize, addr: u64) -> Option<(u32, u32)> {
        while self.rows.get(*cursor).is_some_and(|r| r.0 <= addr) {
            *cursor += 1;
        }
        let (_, file, line) = self.rows[cursor.checked_sub(1)?];
        Some((file, line))
    }

    /// The shared name of file id `file`.
    fn name(&self, file: u32) -> Arc<str> {
        Arc::clone(&self.names[file as usize])
    }

    /// The shared name of entry `file` of unit `unit`'s file table.
    fn unit_file(&self, unit: usize, file: u32) -> Arc<str> {
        self.name(self.unit_files[unit].get(file as usize).copied().unwrap_or(self.unknown))
    }

    #[cfg(test)]
    fn lookup(&self, addr: u64) -> Option<(&str, u32)> {
        let (file, line) = self.advance(&mut self.seek(addr), addr)?;
        Some((&self.names[file as usize], line))
    }
}

fn convert_inline(linemap: &LineMap, unit: usize, inl: &InlinedSub) -> InlineScope {
    InlineScope {
        name: inl.name.clone(),
        lo: inl.low_pc,
        hi: inl.high_pc,
        call_file: linemap.unit_file(unit, inl.call_file),
        call_line: inl.call_line,
        children: inl.children.iter().map(|c| convert_inline(linemap, unit, c)).collect(),
    }
}

/// Append the statement ranges (AC3) of a covered range starting at
/// `lo` to `out`: consecutive instructions on the same file and line
/// coalesce into one range. `insns` are the range's instructions as
/// `(addr, end)`, in address order.
fn statements(
    linemap: &LineMap,
    lo: u64,
    insns: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<StmtRange>,
) {
    let mut cursor = linemap.seek(lo);
    // (lo, hi, file id, line) of the range being extended.
    let mut cur: Option<(u64, u64, u32, u32)> = None;
    let close = |(lo, hi, file, line): (u64, u64, u32, u32)| StmtRange {
        lo,
        hi,
        file: linemap.name(file),
        line,
    };
    for (addr, end) in insns {
        match (&mut cur, linemap.advance(&mut cursor, addr)) {
            (Some(c), Some((file, line))) if (c.2, c.3) == (file, line) => c.1 = end,
            (c, here) => {
                out.extend(c.take().map(close));
                *c = here.map(|(file, line)| (addr, end, file, line));
            }
        }
    }
    out.extend(cur.map(close));
}

/// Run phases 3 and 5–7 over already-built artifacts: the line map, the
/// skeleton, the parallel query phase (loops, statements, inline scopes,
/// stack frames), and serialization. `_exec` is ignored (see
/// [`ExecutorKind`]). `ir` is the shared decode-once analysis IR
/// (`Session::ir()`); every instruction this pipeline reads — loop
/// discovery, the stack-frame fixpoint, the statement walk — is a
/// borrow of its arenas, so the query phases decode nothing, and the
/// loops are the IR's own forests (built here only if not yet). `pre`
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

    // Phase 5: skeleton construction, names and ranges on the pool. The
    // function map iterates in entry order, which the skeleton keeps.
    let t = Instant::now();
    let funcs: Vec<_> = cfg_graph.functions.values().collect();
    let mut skeleton: Vec<FuncStruct> = pool.install(|| {
        funcs
            .par_iter()
            .map(|f| FuncStruct {
                name: pba_elf::demangle::pretty_name(&f.name),
                entry: f.entry,
                ranges: f.ranges(cfg_graph),
                frame_bytes: None,
                loops: Vec::new(),
                stmts: Vec::new(),
                inlines: Vec::new(),
            })
            .collect()
    });
    times.seconds[4] = t.elapsed().as_secs_f64();

    // Phase 6: parallel queries (loops, stack frames, statements,
    // inline scopes), one task per function.
    let t = Instant::now();
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
            let fir = ir.func(fs.entry);
            if let Some(fir) = fir {
                // Loops (AC2), off the IR's one forest per function.
                fs.loops = fir
                    .loop_forest()
                    .loops
                    .iter()
                    .map(|l| LoopStruct { header: l.header, depth: l.depth, blocks: l.size() })
                    .collect();
                fs.loops.sort_by_key(|l| (l.depth, l.header));
                // Stack frame extent, from the dataflow engine's
                // stack-height fixpoint.
                fs.frame_bytes = pba_dataflow::stack_heights_and_extent_on(fir, fir.graph()).1;
            }
            // Statement ranges (AC3), per covered range. The blocks of a
            // merged range tile it exactly (finalized blocks are
            // disjoint), so chaining the IR's per-block slices walks the
            // range's instructions in address order, decoding nothing.
            for &(lo, hi) in &fs.ranges {
                let insns = fir.iter().flat_map(|f| {
                    // The block list is sorted: binary-search the
                    // covered sub-range instead of scanning every block
                    // once per range.
                    let blocks = f.blocks();
                    let start = blocks.partition_point(|&b| b < lo);
                    let end = blocks.partition_point(|&b| b < hi);
                    blocks[start..end].iter().flat_map(|&b| f.insns(b))
                });
                statements(&linemap, lo, insns.map(|i| (i.addr, i.end())), &mut fs.stmts);
            }
            // Exact capacity: the session's resident size counts it.
            fs.stmts.shrink_to_fit();
            // Inline scopes (AC4).
            if let Some((ui, si)) = subprogram_of(fs.entry) {
                fs.inlines = di.units[ui].subprograms[si]
                    .inlines
                    .iter()
                    .map(|inl| convert_inline(&linemap, ui, inl))
                    .collect();
            }
        });
    });
    times.seconds[5] = t.elapsed().as_secs_f64();

    // Phase 7: serialization, the same writer `StructFile::to_text` is.
    let t = Instant::now();
    let structure = StructFile { load_module: cfg.name.clone(), functions: skeleton };
    let text = structure.to_text();
    times.seconds[6] = t.elapsed().as_secs_f64();

    HsOutput { structure, text, times }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};

    /// Build the three artifacts the way a session would, then run the
    /// artifact-level pipeline. (The session-level end-to-end tests
    /// live in `pba-driver`.)
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

    /// Two CUs give rows at one address with different files and lines,
    /// and one CU gives two rows at another: the map resolves each such
    /// address to the last of its rows in `(addr, unit, file, line)`
    /// order, before and after it, and for every address up to the next
    /// row.
    #[test]
    fn line_map_resolves_equal_address_rows_to_the_last() {
        use pba_dwarf::{CompileUnit, LineRow, LineTable};
        let unit = |name: &str, files: &[&str], rows: &[(u64, u32, u32)]| CompileUnit {
            name: name.into(),
            low_pc: rows[0].0,
            high_pc: rows[rows.len() - 1].0 + 0x10,
            files: files.iter().map(|f| f.to_string()).collect(),
            subprograms: Vec::new(),
            line_table: LineTable {
                rows: rows.iter().map(|&(addr, file, line)| LineRow { addr, file, line }).collect(),
            },
        };
        let di = DebugInfo {
            units: vec![
                unit("a.c", &["a.c", "a.h"], &[(0x1000, 0, 3), (0x1010, 1, 9), (0x1030, 0, 40)]),
                unit(
                    "b.c",
                    &["b.c", "b.h"],
                    &[
                        (0x1010, 0, 7),
                        (0x1020, 0, 8),
                        (0x1030, 1, 2),
                        (0x1030, 0, 50),
                        (0x1040, 5, 1),
                    ],
                ),
            ],
        };
        let map = LineMap::build(&di);
        assert_eq!(map.lookup(0x0fff), None, "before the first row");
        assert_eq!(map.lookup(0x1000), Some(("a.c", 3)));
        assert_eq!(map.lookup(0x100f), Some(("a.c", 3)));
        assert_eq!(map.lookup(0x1010), Some(("b.c", 7)), "unit 1 sorts after unit 0");
        assert_eq!(map.lookup(0x101f), Some(("b.c", 7)));
        assert_eq!(map.lookup(0x1020), Some(("b.c", 8)));
        assert_eq!(map.lookup(0x1030), Some(("b.h", 2)), "file 1 sorts after file 0");
        assert_eq!(map.lookup(0x103f), Some(("b.h", 2)));
        assert_eq!(map.lookup(0x1040), Some(("??", 1)), "a file index past the unit's table");
        assert_eq!(map.lookup(u64::MAX), Some(("??", 1)));
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
