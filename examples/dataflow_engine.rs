//! Dataflow engine walkthrough: generate a synthetic binary, parse its
//! CFG in parallel, decode it once into the analysis IR, then run the
//! whole-binary analysis driver and poke at per-function engine results.
//!
//! ```text
//! cargo run --example dataflow_engine --release [THREADS]
//! ```

use pba::dataflow::{run_all_ir, BinaryIr, ExecutorKind, Height};
use pba::gen::{generate, GenConfig};
use pba::parse::{parse_parallel, ParseInput};
use std::time::Instant;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // A binary with the constructs that make dataflow interesting:
    // loops, switches, shared blocks, tail calls.
    let binary = generate(&GenConfig { num_funcs: 64, seed: 0xD47A, ..Default::default() });
    let elf = pba::elf::Elf::parse(binary.elf.clone()).expect("well-formed ELF");
    let input = ParseInput::from_elf(&elf).expect(".text present");
    let result = parse_parallel(&input, threads);
    let cfg = result.cfg;
    println!(
        "parsed {} functions / {} blocks on {threads} threads",
        cfg.functions.len(),
        cfg.blocks.len()
    );

    // Every unique block decoded once; each analysis run below only
    // runs fixpoints over it.
    let t = Instant::now();
    let ir = BinaryIr::build(&cfg, threads);
    println!("IR: {} instructions decoded in {:?}", ir.unique_block_insn_count(), t.elapsed());

    // The whole-binary driver: every function × three analyses, fanned
    // across a rayon pool, each function's fixpoints on one worker.
    let t = Instant::now();
    let analyses = run_all_ir(&ir, threads, ExecutorKind::Serial);
    println!(
        "run_all_ir({threads} threads) over {} functions in {:?}",
        analyses.len(),
        t.elapsed()
    );

    // Sample what the engine computed: the densest function's facts.
    let densest =
        cfg.functions.values().max_by_key(|f| f.blocks.len()).expect("at least one function");
    let a = &analyses[&densest.entry];
    println!("\ndensest function {} ({} blocks):", densest.name, densest.blocks.len());
    println!("  live-in registers at entry: {}", a.liveness.live_in_count(densest.entry));
    println!("  definition sites: {}", a.reaching.defs.len());
    match a.stack.entry_frame(densest.entry).map(|f| f.sp) {
        Some(Height::Known(h)) => println!("  stack height at entry: {h} (by definition 0)"),
        other => println!("  stack height at entry: {other:?}"),
    }
    let deepest = densest
        .blocks
        .iter()
        .filter_map(|&b| match a.stack.entry_frame(b).map(|f| f.sp) {
            Some(Height::Known(h)) => Some(h),
            _ => None,
        })
        .min();
    if let Some(h) = deepest {
        println!("  deepest known stack extent: {} bytes", -h.min(0));
    }
}
