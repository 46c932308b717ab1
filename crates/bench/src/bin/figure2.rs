//! Figure 2: phase trace of hpcstruct on the TensorFlow-class binary.
//!
//! The paper's figure is an HPCToolkit timeline; the same information —
//! which phase dominates, which phases parallelize — is printed here as
//! a proportional text trace. Phase 4 (CFG construction) is then taken
//! apart from the inside with the parser's own phase counters
//! (`ParseStats::{traverse,sweep,refine,finalize}_ns`).

use pba_bench::report::secs;
use pba_bench::workload;
use pba_bench::workloads::run_threads;
use pba_driver::analyze;
use pba_gen::Profile;
use pba_hpcstruct::{HsConfig, PHASE_NAMES};
use pba_parse::stats::StatsSnapshot;
use pba_parse::{parse_parallel, ParseInput};

/// The parse whose total phase time is the median of `reps` runs.
fn median_parse(input: &ParseInput, threads: usize, reps: usize) -> (f64, StatsSnapshot) {
    let mut runs: Vec<(f64, StatsSnapshot)> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            let stats = parse_parallel(input, threads).stats.snapshot();
            (t.elapsed().as_secs_f64(), stats)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(reps / 2)
}

fn main() {
    let threads = run_threads();
    let g = workload(Profile::TensorFlow, 0xF162);
    let out = analyze(&g.elf, &HsConfig { threads, name: "TensorFlow".into() }).expect("hpcstruct");
    let total = out.times.total();

    println!(
        "Figure 2: hpcstruct phase trace on the TensorFlow-class binary ({threads} threads)\n"
    );
    const WIDTH: usize = 60;
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        let t = out.times.seconds[i];
        let bar = ((t / total) * WIDTH as f64).round() as usize;
        println!(
            "{name:<18} {:>9}  |{}{}| {:>5.1}%",
            secs(t),
            "#".repeat(bar),
            " ".repeat(WIDTH - bar),
            t / total * 100.0
        );
    }
    println!("{:<18} {:>9}", "total", secs(total));
    println!(
        "\nparallel phases: 2 (DWARF), 4 (CFG), 6 (query), 7 (serialize); \
         serial phases 1, 3, 5 bound the end-to-end speedup (Amdahl)."
    );
    println!(
        "structure: {} functions, {} loops, {} statements",
        out.structure.functions.len(),
        out.structure.loop_count(),
        out.structure.stmt_count()
    );

    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("generated ELF");
    let input = ParseInput::from_elf(&elf).expect("parse input");
    println!("\nCFG construction from the inside (median of 9 parses):");
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>17}",
        "threads",
        "parse",
        "traverse",
        "sweep",
        "refine",
        "finalize",
        "sweep_views",
        "refine_reanalyses"
    );
    for t in [1, threads] {
        let (wall, s) = median_parse(&input, t, 9);

        println!(
            "{t:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>17}",
            secs(wall),
            secs(s.traverse_ns as f64 * 1e-9),
            secs(s.sweep_ns as f64 * 1e-9),
            secs(s.refine_ns as f64 * 1e-9),
            secs(s.finalize_ns as f64 * 1e-9),
            s.sweep_views,
            s.refine_reanalyses
        );
    }
}
