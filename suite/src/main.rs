//! `suite`: the repo's one benchmark. See `suite/README.md`.
//!
//! With `--workload` it runs that one workload and ends with the result line
//! `BENCHMARK.json`'s contract asks for. Without, it runs every workload in a
//! child process each and prints one row per workload and metric.

mod fleet;
mod inputs;
mod layers;
mod registry;
mod roundset;
mod stats;
mod trace;
mod wl_features;
mod wl_serve;
mod wl_skewed;
mod wl_struct;
mod wl_topk;
mod workload;

use workload::{run, Outcome, RunArgs};

fn usage() -> ! {
    eprintln!(
        "usage: suite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      suite [--seed <n>] [--runs <r>] [--trace <0|1>] [--quick]\n\
         \x20            [--out <file> [--commit <id>]] [--compare <file>] [--check-counters]\n\
         \x20      suite --print-benchmark-json\n\
         workloads: {}",
        registry::workload_names().join(", ")
    );
    std::process::exit(2)
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "struct_large" => run::<wl_struct::StructLarge>(name, args),
        "features_corpus" => run::<wl_features::FeaturesCorpus>(name, args),
        "topk_query" => run::<wl_topk::TopkQuery>(name, args),
        "skewed_dataflow" => run::<wl_skewed::SkewedDataflow>(name, args),
        "serve_hit" => run::<wl_serve::ServeHit>(name, args),
        "serve_churn" => run::<wl_serve::ServeChurn>(name, args),
        _ => return None,
    })
}

/// One workload in this process; the last line printed is the result.
fn single(name: &str, args: &RunArgs) {
    // The contract allows a run 180 s. A run still going after 150 s is hung
    // (suite/README.md, "What the first runs showed"): fail it, not the harness.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(150));
        eprintln!("suite: no result after 150 s, giving up");
        std::process::exit(3);
    });
    let Some(out) = run_workload(name, args) else { usage() };
    println!(
        "workload {name}  seed {}  trace {}  threads {}  nproc {}{}",
        args.seed,
        u8::from(args.trace),
        workload::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.quick { "  QUICK: numbers are not comparable with a full run" } else { "" }
    );
    for (n, v, u) in &out.metrics {
        println!("  {n:<32} {v:>16.6} {u}");
    }
    for note in &out.notes {
        println!("  # {note}");
    }
    let line = |v| serde_json::to_string(&v).expect("a Value always renders");
    if args.trace {
        println!("{}", line(out.exact_json()));
    }
    println!("{}", line(out.result_json()));
}

fn main() {
    let mut workload = None;
    let mut args = fleet::FleetArgs {
        seed: 1,
        seconds: registry::RUN_SECONDS as f64,
        runs: 1,
        trace: false,
        quick: false,
        out: None,
        compare: None,
        check_counters: false,
        commit: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--quick" => args.quick = true,
            "--runs" => args.runs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value()),
            "--compare" => args.compare = Some(value()),
            "--commit" => args.commit = value(),
            "--check-counters" => args.check_counters = true,
            "--print-benchmark-json" => {
                let doc = serde_json::to_string_pretty(&registry::benchmark_json());
                println!("{}", doc.expect("a Value always renders"));
                return;
            }
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.runs == 0 {
        usage();
    }
    match workload {
        Some(name) => {
            // ~10x less work for a smoke run
            let seconds = if args.quick { args.seconds / 10.0 } else { args.seconds };
            let run = RunArgs { seed: args.seed, seconds, trace: args.trace, quick: args.quick };
            single(&name, &run)
        }
        None => match fleet::run(&args) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("suite: {e}");
                std::process::exit(1);
            }
        },
    }
}
