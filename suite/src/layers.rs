//! The analysis layers called one by one under spans, in the order
//! `pba_driver::Session` calls them. The traced ops of the three library
//! workloads are built from these pieces; the untraced ops use `Session`.

use crate::trace::Trace;
use crate::workload::THREADS;
use pba_dataflow::engine::stats as engine_stats;
use pba_dataflow::{BinaryIr, ExecutorKind};
use pba_elf::{Elf, ImageBytes};
use pba_parse::stats::StatsSnapshot;
use pba_parse::{ParseConfig, ParseInput, ParseResult};

/// How many traced ops also run the side measurements (the same layer run
/// another way). They are expensive and repeat exactly, so a few suffice.
pub const SIDE_OPS: u64 = 2;

pub fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(THREADS).build().expect("pool")
}

/// ELF parse, CFG parse and IR build: what every `Session` artifact needs first.
pub struct Front {
    pub elf: Elf,
    pub parsed: ParseResult,
    pub ir: BinaryIr,
}

fn parse_with(elf: &Elf, threads: usize) -> Result<ParseResult, String> {
    let input = ParseInput::from_elf(elf).map_err(|e| e.to_string())?;
    Ok(pba_parse::parse(&input, &ParseConfig { threads, ..Default::default() }))
}

pub fn front(t: &mut Trace, image: &ImageBytes, op: u64) -> Result<Front, String> {
    let elf = t.span("elf.parse", |_| Elf::parse(image.clone())).map_err(|e| e.to_string())?;
    t.sample("elf.image_bytes", image.len() as f64);
    t.sample("elf.text_bytes", elf.section(".text").map_or(0, |s| s.size) as f64);

    let parsed = t.span("parse.cfg", |_| parse_with(&elf, THREADS))?;
    let s = parsed.stats.snapshot();
    for (name, v) in parse_counters(&s) {
        t.sample(name, v as f64);
    }
    t.sample("parse.wasted_ratio", s.block_races as f64 / s.blocks_created.max(1) as f64);

    let ir = t.span("dataflow.ir", |_| BinaryIr::build(&parsed.cfg, THREADS));
    t.sample("dataflow.ir_bytes", ir.heap_bytes() as f64);

    // Exact counters are sampled on the first ops only, whose inputs are the
    // same however many ops the run has time for.
    if op < SIDE_OPS {
        t.sample("dataflow.ir_unique_insns", ir.unique_block_insn_count() as f64);
        let t1 = t.side("parse.cfg_t1", |_| parse_with(&elf, 1))?;
        let s1 = t1.stats.snapshot();
        for (name, v) in parse_counters_t1(&s1) {
            t.sample(name, v as f64);
        }
    }
    Ok(Front { elf, parsed, ir })
}

fn parse_counters(s: &StatsSnapshot) -> [(&'static str, u64); 11] {
    [
        ("parse.insns_decoded", s.insns_decoded),
        ("parse.blocks_created", s.blocks_created),
        ("parse.edges_created", s.edges_created),
        ("parse.funcs_created", s.funcs_created),
        ("parse.split_iterations", s.split_iterations),
        ("parse.block_races", s.block_races),
        ("parse.cache_hits", s.cache_hits),
        ("parse.noreturn_waits", s.noreturn_waits),
        ("parse.jt_bounded", s.jt_bounded),
        ("parse.jt_unbounded", s.jt_unbounded),
        ("parse.decode_errors", s.decode_errors),
    ]
}

/// The counters of the one-thread parse that do not depend on scheduling.
fn parse_counters_t1(s: &StatsSnapshot) -> [(&'static str, u64); 7] {
    [
        ("parse.t1.insns_decoded", s.insns_decoded),
        ("parse.t1.blocks_created", s.blocks_created),
        ("parse.t1.edges_created", s.edges_created),
        ("parse.t1.funcs_created", s.funcs_created),
        ("parse.t1.split_iterations", s.split_iterations),
        ("parse.t1.jt_bounded", s.jt_bounded),
        ("parse.t1.jt_unbounded", s.jt_unbounded),
    ]
}

/// Pool counters over one traced op: call before, then `rayon_delta` after.
pub fn rayon_mark() -> [u64; 3] {
    [
        rayon::stats::TASKS_EXECUTED.get(),
        rayon::stats::TASKS_STOLEN.get(),
        rayon::stats::TASKS_SPLIT.get(),
    ]
}

pub fn rayon_delta(t: &mut Trace, mark: [u64; 3]) {
    let now = rayon_mark();
    t.sample("rayon.tasks_executed", (now[0] - mark[0]) as f64);
    t.sample("rayon.tasks_stolen", (now[1] - mark[1]) as f64);
    t.sample("rayon.tasks_split", (now[2] - mark[2]) as f64);
}

/// `run_all_ir` under `exec` inside a span, returning the engine's visit count.
fn run_all_under(t: &mut Trace, span: &'static str, ir: &BinaryIr, exec: ExecutorKind) -> u64 {
    let before = engine_stats::VISITS.get();
    t.side(span, |_| std::hint::black_box(pba_dataflow::run_all_ir(ir, THREADS, exec)));
    engine_stats::VISITS.get() - before
}

/// Side measurements of the dataflow layer on this input: the whole-binary
/// sweep under each executor, and each spec alone under `exec`.
pub fn dataflow_sides(t: &mut Trace, ir: &BinaryIr, exec: ExecutorKind) {
    let visits = run_all_under(t, "dataflow.run_all_serial", ir, ExecutorKind::Serial);
    t.sample("dataflow.visits_serial", visits as f64);
    run_all_under(t, "dataflow.run_all_parallel", ir, ExecutorKind::Parallel(0));
    run_all_under(t, "dataflow.run_all_async", ir, ExecutorKind::Async(0));

    t.side("dataflow.liveness", |_| {
        std::hint::black_box(pba_dataflow::run_per_function_ir(ir, THREADS, |f| {
            pba_dataflow::liveness_on(f, f.graph(), exec)
        }))
    });
    t.side("dataflow.reaching", |_| {
        std::hint::black_box(pba_dataflow::run_per_function_ir(ir, THREADS, |f| {
            pba_dataflow::reaching_defs_on(f, f.graph(), exec)
        }))
    });
    t.side("dataflow.stack", |_| {
        std::hint::black_box(pba_dataflow::run_per_function_ir(ir, THREADS, |f| {
            pba_dataflow::stack_heights_on(f, f.graph(), exec)
        }))
    });

    // The three analyses of only the functions Auto hands to a within-function
    // executor: 0 when no function is past the threshold.
    let threshold = pba_dataflow::auto_block_threshold();
    let big: Vec<_> = ir.funcs().filter(|f| f.blocks().len() >= threshold).collect();
    t.side("dataflow.within_func", |_| {
        pool().install(|| {
            for f in &big {
                let g = f.graph();
                std::hint::black_box(pba_dataflow::liveness_on(*f, g, ExecutorKind::Auto));
                std::hint::black_box(pba_dataflow::reaching_defs_on(*f, g, ExecutorKind::Auto));
                std::hint::black_box(pba_dataflow::stack_heights_on(*f, g, ExecutorKind::Auto));
            }
        })
    });
}

/// Every function's loop forest under a `loops.forest` span, with its counters.
pub fn loop_forests(t: &mut Trace, ir: &BinaryIr) {
    let forests = t.span("loops.forest", |_| {
        pba_dataflow::run_per_function_ir(ir, THREADS, |f| pba_loops::loop_forest_on(f, f.graph()))
    });
    t.sample("loops.count", forests.values().map(|f| f.loops.len()).sum::<usize>() as f64);
    t.sample("loops.max_depth", forests.values().map(|f| f.max_depth()).max().unwrap_or(0) as f64);
}

/// Entries of the functions that have an indirect jump, ascending.
pub fn jump_funcs(cfg: &pba_cfg::Cfg) -> Vec<u64> {
    let mut entries: Vec<u64> =
        pba_dataflow::collect_indirect_jumps(cfg).into_iter().map(|(f, _)| f).collect();
    entries.sort_unstable();
    entries.dedup();
    entries
}

pub fn debug_bytes(elf: &Elf) -> u64 {
    elf.sections.iter().filter(|s| s.name.starts_with(".debug_")).map(|s| s.size).sum()
}

/// `driver.*` counters of an untraced op's `Session`.
pub fn session_counters(t: &mut Trace, s: &pba_driver::SessionStats) {
    t.set("driver.resident_bytes", s.resident_bytes as f64);
    t.set("driver.cfg_parses", s.cfg_parses as f64);
    t.set("driver.ir_builds", s.ir_builds as f64);
    t.set("driver.dataflow_runs", s.dataflow_runs as f64);
}
