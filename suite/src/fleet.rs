//! Every workload, each run in a child process of its own, so that
//! `peak_rss_mib` belongs to that run alone. Prints one row per workload and
//! metric; writes, compares with, and self-checks a `BENCH_<pr>.json`.

use crate::registry::{workload_names, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{quartiles, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

pub struct FleetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
    pub compare: Option<String>,
    pub check_counters: bool,
    pub commit: String,
}

/// What one child printed: its result line and, for a traced run, its
/// exact-counter line.
struct Child {
    result: Value,
    exact: Option<Value>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    get(get(get(result, "metrics")?, name)?, "value").and_then(number)
}

fn run_child(args: &FleetArgs, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload} seed {seed}: {}\n{stdout}{stderr}", out.status));
    }
    let mut json = stdout.lines().rev().filter(|l| l.starts_with('{'));
    let result = json.next().ok_or("no result line")?;
    let result: Value = serde_json::from_str(result).map_err(|e| e.to_string())?;
    let exact = json.next().and_then(|l| serde_json::from_str::<Value>(l).ok());
    for note in stdout.lines().filter(|l| l.contains("# FAILED")) {
        println!("  {workload} seed {seed}:{note}");
    }
    Ok(Child { result, exact: exact.and_then(|e| get(&e, "exact").cloned()) })
}

/// All values of one workload: end-to-end metric -> one value per run,
/// per-layer metric -> the traced run's value, and the exact counters.
#[derive(Default)]
struct Collected {
    end_to_end: BTreeMap<&'static str, Vec<f64>>,
    per_layer: BTreeMap<&'static str, f64>,
    exact: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
}

fn count(result: &Value, key: &str) -> u64 {
    get(result, key).and_then(number).unwrap_or(0.0) as u64
}

fn collect(
    args: &FleetArgs,
    workload: &str,
    untraced: bool,
    traced: bool,
) -> Result<Collected, String> {
    let mut c = Collected::default();
    if untraced {
        for r in 0..args.runs {
            let child = run_child(args, workload, args.seed + r as u64, false)?;
            c.attempted += count(&child.result, "attempted");
            c.failed += count(&child.result, "failed");
            for m in END_TO_END {
                let v = metric(&child.result, m.name).ok_or(format!("{} missing", m.name))?;
                c.end_to_end.entry(m.name).or_default().push(v);
            }
        }
    }
    if traced {
        let child = run_child(args, workload, args.seed, true)?;
        c.attempted += count(&child.result, "attempted");
        c.failed += count(&child.result, "failed");
        for m in PER_LAYER {
            let v = metric(&child.result, m.name).ok_or(format!("{} missing", m.name))?;
            c.per_layer.insert(m.name, v);
        }
        if let Some(Value::Object(fields)) = child.exact {
            c.exact = fields.iter().filter_map(|(k, v)| Some((k.clone(), number(v)?))).collect();
        }
    }
    Ok(c)
}

fn median_of(v: &[f64]) -> f64 {
    crate::stats::median(&mut v.to_vec())
}

fn print_rows(workload: &str, c: &Collected) {
    for m in END_TO_END {
        let Some(values) = c.end_to_end.get(m.name) else { continue };
        let mut row =
            format!("{workload:<16} {:<28} {:>16.6} {:<6}", m.name, median_of(values), m.unit);
        if values.len() >= 2 {
            let (q1, _, q3) = quartiles(values);
            let s = spread(values);
            let flag = if s > m.bound {
                "  OVER ITS BOUND"
            } else if s > m.bound / 3.0 {
                "  over a third of its bound"
            } else {
                ""
            };
            row += &format!(
                "  q1 {q1:.6} q3 {q3:.6} spread {:.2}% of bound {:.0}%{flag}",
                s * 100.0,
                m.bound * 100.0
            );
        }
        println!("{row}");
    }
    if c.per_layer.is_empty() {
        // the traced run reports it among the per-layer metrics
        let fail_ratio = c.failed as f64 / c.attempted.max(1) as f64;
        println!("{workload:<16} {:<28} {fail_ratio:>16.6} ratio", "fail_ratio");
    }
    for m in PER_LAYER {
        if let Some(v) = c.per_layer.get(m.name) {
            println!("{workload:<16} {:<28} {v:>16.6} {:<6}", m.name, m.unit);
        }
    }
}

fn to_json(args: &FleetArgs, all: &[(&'static str, Collected)]) -> Value {
    let s = |v: &str| Value::Str(v.into());
    let workloads = all
        .iter()
        .map(|(name, c)| {
            let e2e = END_TO_END
                .iter()
                .filter_map(|m| {
                    let values = c.end_to_end.get(m.name)?;
                    let (q1, _, q3) = if values.len() >= 2 {
                        quartiles(values)
                    } else {
                        (values[0], values[0], values[0])
                    };
                    let fields = vec![
                        ("unit".to_string(), s(m.unit)),
                        ("median".to_string(), Value::F64(median_of(values))),
                        ("q1".to_string(), Value::F64(q1)),
                        ("q3".to_string(), Value::F64(q3)),
                        (
                            "values".to_string(),
                            Value::Array(values.iter().map(|v| Value::F64(*v)).collect()),
                        ),
                    ];
                    Some((m.name.to_string(), Value::Object(fields)))
                })
                .collect();
            let layers = PER_LAYER
                .iter()
                .filter_map(|m| {
                    let v = c.per_layer.get(m.name)?;
                    let exact = c.exact.iter().any(|(k, _)| k == m.name);
                    let mut fields = vec![
                        ("unit".to_string(), s(m.unit)),
                        ("value".to_string(), Value::F64(*v)),
                    ];
                    if exact {
                        fields.push(("exact".to_string(), Value::Bool(true)));
                    }
                    Some((m.name.to_string(), Value::Object(fields)))
                })
                .collect();
            let exact = c.exact.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect();
            let fields = vec![
                ("end_to_end".to_string(), Value::Object(e2e)),
                ("per_layer".to_string(), Value::Object(layers)),
                ("exact".to_string(), Value::Object(exact)),
            ];
            (name.to_string(), Value::Object(fields))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("issue".into(), Value::U64(11)),
        ("commit".into(), s(&args.commit)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("threads".into(), Value::U64(crate::workload::THREADS as u64)),
        ("seed".into(), Value::U64(args.seed)),
        ("runs".into(), Value::U64(args.runs as u64)),
        ("run_seconds".into(), Value::F64(args.seconds)),
        ("quick".into(), Value::Bool(args.quick)),
        ("load".into(), s("closed loop; the serve workloads and topk_query use 2 clients")),
        ("workloads".into(), Value::Object(workloads)),
    ])
}

/// Is `new` worse than `old` by more than `bound` of `old`?
fn worse_by(m: &Metric, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    if m.higher {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// One row per workload and metric: exact counters must be equal, timings may
/// be worse by their bound at most, and a metric whose runs spread wider than
/// its bound on either side is unresolved, not unchanged. A median that is worse
/// within the bound but by more than either side's runs spread is pointed out
/// and does not fail the comparison. Exact counters are
/// a function of the seed: they are compared only with a baseline of `seed`.
fn compare(base: &Value, seed: u64, all: &[(&'static str, Collected)]) -> bool {
    let mut ok = true;
    let same_seed = get(base, "seed").and_then(number) == Some(seed as f64);
    if !same_seed {
        println!("the baseline has another seed: exact counters are not compared");
    }
    for (name, c) in all {
        let Some(b) = get(base, "workloads").and_then(|w| get(w, name)) else {
            println!("{name:<16} not in the baseline");
            continue;
        };
        for m in END_TO_END {
            let (Some(values), Some(old)) =
                (c.end_to_end.get(m.name), get(b, "end_to_end").and_then(|e| get(e, m.name)))
            else {
                continue;
            };
            let med = |k: &str| get(old, k).and_then(number).unwrap_or(0.0);
            let (old_med, new_med) = (med("median"), median_of(values));
            let old_spread = if old_med == 0.0 { 0.0 } else { (med("q3") - med("q1")) / old_med };
            let change = worse_by(m, old_med, new_med);
            let new_spread = spread(values);
            let verdict = if old_spread > m.bound || new_spread > m.bound {
                "unresolved"
            } else if change > m.bound {
                ok = false;
                "REGRESSED"
            } else if change > old_spread.max(new_spread) {
                // The bound has to cover the noisiest workload. This row's own
                // runs differ by less than its median moved: worth a look.
                "ok, but worse by more than its runs spread"
            } else {
                "ok"
            };
            println!(
                "{name:<16} {:<28} {old_med:>14.6} -> {new_med:>14.6} {:<6} {:+7.2}% worse (bound {:.0}%)  {verdict}",
                m.name,
                m.unit,
                change * 100.0,
                m.bound * 100.0
            );
        }
        for (k, new) in c.exact.iter().filter(|_| same_seed) {
            let Some(old) = get(b, "exact").and_then(|e| get(e, k)).and_then(number) else {
                continue;
            };
            if (old, *new) == (0.0, 0.0) {
                continue;
            }
            let verdict = if old == *new {
                "equal"
            } else {
                ok = false;
                "DIFFERS"
            };
            println!("{name:<16} {k:<28} {old:>14} -> {new:>14} exact   {verdict}");
        }
    }
    ok
}

/// The traced run twice with one seed: every exact counter must repeat.
fn check_counters(args: &FleetArgs, names: &[&'static str]) -> Result<bool, String> {
    let mut ok = true;
    for name in names {
        let a = collect(args, name, false, true)?;
        let b = collect(args, name, false, true)?;
        for ((k, x), (_, y)) in a.exact.iter().zip(&b.exact) {
            // a layer this workload does not run
            if (*x, *y) == (0.0, 0.0) {
                continue;
            }
            let verdict = if x == y { "repeats" } else { "DIFFERS" };
            ok &= x == y;
            println!("{name:<16} {k:<28} {x:>14} {y:>14}  {verdict}");
        }
        ok &= a.failed + b.failed == 0;
    }
    Ok(ok)
}

/// Exit code of the whole invocation.
pub fn run(args: &FleetArgs) -> Result<i32, String> {
    let names = workload_names();
    println!(
        "suite: seed {} runs {} seconds {} threads {} nproc {}{}",
        args.seed,
        args.runs,
        args.seconds,
        crate::workload::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.quick { "  QUICK: numbers are not comparable with a full run" } else { "" }
    );
    if args.seconds != RUN_SECONDS as f64 && !args.quick {
        println!(
            "suite: BENCHMARK.json measures for {RUN_SECONDS} s; these numbers are not comparable"
        );
    }
    if args.check_counters {
        return Ok(if check_counters(args, &names)? { 0 } else { 1 });
    }
    // A baseline file, or a comparison with one, needs both kinds of run.
    let both = args.out.is_some() || args.compare.is_some();
    let mut all = Vec::new();
    let mut failed = 0;
    for name in names {
        let c = collect(args, name, both || !args.trace, both || args.trace)?;
        print_rows(name, &c);
        println!("{name:<16} attempted {} failed {}", c.attempted, c.failed);
        failed += c.failed;
        all.push((name, c));
    }
    let mut code = i32::from(failed > 0);
    if let Some(path) = &args.compare {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let base: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        if !compare(&base, args.seed, &all) {
            code = 1;
        }
    }
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&to_json(args, &all)).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("suite: wrote {path}");
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Outcome;

    #[test]
    fn a_result_line_reads_back_as_it_was_written() {
        let out = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("op_p50_ms", 1.25, "ms"), ("ops_per_s", 800.0, "1/s")],
            exact: vec![("parse.t1.insns_decoded", 4242.0)],
            notes: Vec::new(),
        };
        let line = serde_json::to_string(&out.result_json()).unwrap();
        let back: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = match &back {
            Value::Object(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&back, "correct"), Some(&Value::Bool(true)));
        assert_eq!(count(&back, "attempted"), 12);
        assert_eq!(metric(&back, "op_p50_ms"), Some(1.25));
        assert_eq!(metric(&back, "ops_per_s"), Some(800.0));
        assert_eq!(
            get(get(get(&back, "metrics").unwrap(), "ops_per_s").unwrap(), "unit"),
            Some(&Value::Str("1/s".into()))
        );

        let exact: Value =
            serde_json::from_str(&serde_json::to_string(&out.exact_json()).unwrap()).unwrap();
        assert_eq!(
            get(&exact, "exact").and_then(|e| get(e, "parse.t1.insns_decoded")).and_then(number),
            Some(4242.0)
        );
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END.iter().find(|m| m.higher).unwrap();
        assert!((worse_by(lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(lower, 100.0, 90.0) < 0.0);
    }
}
