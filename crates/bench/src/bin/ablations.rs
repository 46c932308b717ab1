//! Ablations of the parser's design decisions (the `pba_parse::ParseConfig`
//! toggles), reported by wall time *and* machine-independent work
//! counters (so the comparison is meaningful even on hosts with few
//! cores):
//!
//! 1. eager vs. deferred non-returning notification (Section 5.3);
//! 2. per-task decode cache on/off (Section 6.3);
//! 3. task-parallel vs. level-synchronous round scheduling
//!    (Section 6.3 / Listing 2);
//! 4. the serial (1-thread) reference.

use pba_bench::report::{secs, Table};
use pba_bench::{outln, workload};
use pba_gen::Profile;
use pba_parse::{parse, ParseConfig, ParseInput, Scheduling};

fn main() {
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let g = workload(Profile::TensorFlow, 0xAB1A);
    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("elf");
    let input = ParseInput::from_elf(&elf).expect("input");

    let configs: Vec<(&str, ParseConfig)> = vec![
        ("baseline (task, eager, cache)", ParseConfig { threads, ..Default::default() }),
        ("deferred noreturn", ParseConfig { threads, eager_noreturn: false, ..Default::default() }),
        ("no decode cache", ParseConfig { threads, decode_cache: false, ..Default::default() }),
        (
            "rounds scheduling",
            ParseConfig { threads, scheduling: Scheduling::Rounds, ..Default::default() },
        ),
        ("serial (1 thread)", ParseConfig { threads: 1, ..Default::default() }),
    ];

    outln!(
        "Ablations on the TensorFlow-class binary ({} functions, {threads} threads)\n",
        g.stats.num_funcs
    );
    let mut t = Table::new(&[
        "Configuration",
        "time",
        "insns",
        "cache-hit",
        "splits",
        "nr-waits",
        "nr-resumes",
        "blocks",
        "funcs",
    ]);
    let mut canonical = None;
    for (name, cfg) in configs {
        let start = std::time::Instant::now();
        let r = parse(&input, &cfg);
        let dt = start.elapsed().as_secs_f64();
        let s = r.stats.snapshot();
        t.row(vec![
            name.into(),
            secs(dt),
            s.insns_decoded.to_string(),
            s.cache_hits.to_string(),
            s.split_iterations.to_string(),
            s.noreturn_waits.to_string(),
            s.noreturn_resumes.to_string(),
            r.cfg.blocks.len().to_string(),
            r.cfg.functions.len().to_string(),
        ]);
        // Every configuration must agree on the final CFG.
        let c = r.cfg.canonical();
        match &canonical {
            None => canonical = Some(c),
            Some(base) => assert_eq!(&c, base, "ablation '{name}' changed the CFG"),
        }
    }
    outln!("{}", t.render());
    outln!("all configurations produced the identical canonical CFG.");
}
