//! The workload interface and the one runner every workload goes through.

use crate::registry::{END_TO_END, EXACT, PER_LAYER};
use crate::stats::{latency, median, Latency};
use crate::trace::Trace;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Analysis threads, everywhere. The box has two cores; a fixed count keeps
/// runs on different machines doing the same work.
pub const THREADS: usize = 2;

/// How often an untraced run sets up; `setup_s` is the median. (The driver's
/// contract asks for several set-ups a run. A traced run reports no `setup_s`
/// and sets up once.)
const SETUPS: usize = 3;

/// Most spans in a traced run: plenty for a median, and it keeps the span file
/// of a workload with millisecond ops to a few megabytes.
const MAX_TRACED_SPANS: usize = 40_000;

pub trait Workload: Sync + Sized {
    /// What one op hands to its check.
    type Out;

    /// Generate inputs from `seed`, write files, warm caches, bind servers, run
    /// and discard warm-up ops, compute references. All of it is `setup_s`.
    fn setup(seed: u64, quick: bool) -> Self;

    /// Closed-loop client threads issuing ops (1 for the library workloads).
    fn clients(&self) -> usize {
        1
    }

    /// The tail percentile `op_tail_ms` reports: the highest of 75 / 90 / 99 that
    /// this workload's usual sample count per client leaves ten samples beyond,
    /// with room to spare. (A run with too few samples falls back by itself.)
    const TAIL_PCT: u32;

    /// The exact counters are sampled on this many first traced ops, so a traced
    /// run does at least as many, however short it is.
    const EXACT_OPS: u64;

    /// Whether an op runs a `pba_driver::Session`, so that the untraced op minus
    /// the traced layers is `driver.session_overhead_s`.
    const USES_SESSION: bool;

    /// One op, timed.
    fn op(&self, client: usize, i: u64) -> Result<Self::Out, String>;

    /// Is the op's output right? Not part of the op's latency.
    fn check(&self, client: usize, i: u64, out: Self::Out) -> Result<(), String>;

    /// The same op with each layer's public function called under a span.
    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String>;

    /// Whole-run checks, and in a traced run the counters read once at the end.
    fn finish(&self, _t: Option<&mut Trace>) -> Result<(), String> {
        Ok(())
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Counters that repeat exactly for a seed (traced runs only).
    pub exact: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str((*unit).into())),
                ];
                (name.to_string(), Value::Object(m))
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    pub fn exact_json(&self) -> Value {
        let fields = self.exact.iter().map(|(n, v)| (n.to_string(), Value::F64(*v))).collect();
        Value::Object(vec![("exact".into(), Value::Object(fields))])
    }
}

struct Phase {
    /// Op latencies, one list per client.
    lat: Vec<Vec<f64>>,
    attempted: u64,
    errors: Vec<String>,
    wall: f64,
}

impl Phase {
    /// Each client's latency summary, averaged over the clients. A client stays
    /// on its core and its connection, so pooling two clients' samples can put
    /// the median on the edge between two groups; their own medians do not move.
    fn latency(&mut self, tail_pct: u32) -> Latency {
        let per_client: Vec<Latency> = self.lat.iter_mut().map(|l| latency(l, tail_pct)).collect();
        let n = per_client.len() as f64;
        Latency {
            p50: per_client.iter().map(|l| l.p50).sum::<f64>() / n,
            tail: per_client.iter().map(|l| l.tail).sum::<f64>() / n,
            tail_pct: per_client.iter().map(|l| l.tail_pct).min().unwrap_or(50),
            samples: per_client.iter().map(|l| l.samples).min().unwrap_or(0),
        }
    }
}

/// One closed-loop client: it issues its next op when the previous one returned,
/// until `done`. Returns its op latencies and the ops that failed.
fn client<W: Workload>(w: &W, c: usize, done: impl Fn() -> bool) -> (Vec<f64>, Vec<String>) {
    let mut lat = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0u64;
    while !done() {
        let t0 = Instant::now();
        let out = w.op(c, i);
        lat.push(t0.elapsed().as_secs_f64());
        if let Err(e) = out.and_then(|o| w.check(c, i, o)) {
            errors.push(format!("client {c} op {i}: {e}"));
        }
        i += 1;
    }
    (lat, errors)
}

/// Every client of the workload for `seconds`.
fn measure<W: Workload>(w: &W, seconds: f64) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients())
            .map(|c| s.spawn(move || client(w, c, || Instant::now() >= deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut phase = Phase { lat: Vec::new(), attempted: 0, errors: Vec::new(), wall };
    for (lat, errors) in per_client {
        phase.attempted += lat.len() as u64;
        phase.lat.push(lat);
        phase.errors.extend(errors);
    }
    phase
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

fn set_up<W: Workload>(args: &RunArgs) -> (W, f64) {
    let repeats = if args.trace || args.quick { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(W::setup(args.seed, args.quick));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&mut times))
}

pub fn run<W: Workload>(name: &str, args: &RunArgs) -> Outcome {
    let (w, setup_s) = set_up::<W>(args);
    if args.trace {
        run_traced(name, &w, args)
    } else {
        run_untraced(&w, args, setup_s)
    }
}

fn fail_notes(errors: &[String], notes: &mut Vec<String>) {
    for e in errors.iter().take(5) {
        notes.push(format!("FAILED {e}"));
    }
    if errors.len() > 5 {
        notes.push(format!("... and {} more failed ops", errors.len() - 5));
    }
}

fn run_untraced<W: Workload>(w: &W, args: &RunArgs, setup_s: f64) -> Outcome {
    let mut phase = measure(w, args.seconds);
    let mut failed = phase.errors.len() as u64;
    let mut notes = Vec::new();
    fail_notes(&phase.errors, &mut notes);
    if let Err(e) = w.finish(None) {
        // a whole-run check failed: no op of the run can be trusted
        failed = phase.attempted;
        notes.push(format!("FAILED {e}"));
    }
    let Latency { p50, tail, tail_pct, samples } = phase.latency(W::TAIL_PCT);
    notes.push(format!(
        "closed loop, {} client{}; op_tail_ms is p{tail_pct} of {samples} samples per client",
        w.clients(),
        if w.clients() == 1 { "" } else { "s" }
    ));
    let values: BTreeMap<&str, f64> = [
        ("op_p50_ms", p50 * 1e3),
        ("op_tail_ms", tail * 1e3),
        ("ops_per_s", phase.attempted as f64 / phase.wall),
        ("peak_rss_mib", peak_rss_mib()),
        ("setup_s", setup_s),
    ]
    .into();
    let metrics = END_TO_END.iter().map(|m| (m.name, values[m.name], m.unit)).collect();
    Outcome { attempted: phase.attempted, failed, metrics, exact: Vec::new(), notes }
}

fn run_traced<W: Workload>(name: &str, w: &W, args: &RunArgs) -> Outcome {
    // Two thirds of the time traced, then a third untraced: this run's own
    // reference for trace_overhead_pct and driver.session_overhead_s. Traced
    // first, so that the traced ops start from the state set-up left, which is
    // the same on every run. Client 0 is traced; the workload's other clients
    // keep issuing untraced ops, so that a traced op meets the load an untraced
    // one does.
    let mut t = Trace::new();
    let mut errors = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 2.0 / 3.0);
    let mut i = 0u64;
    let stop = AtomicBool::new(false);
    let mut others = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..w.clients())
            .map(|c| {
                let stop = &stop;
                s.spawn(move || client(w, c, || stop.load(Ordering::Relaxed)))
            })
            .collect();
        while i < W::EXACT_OPS || (Instant::now() < deadline && t.spans.len() < MAX_TRACED_SPANS) {
            t.begin_op(i);
            if let Err(e) = w.traced_op(i, &mut t) {
                errors.push(format!("traced op {i}: {e}"));
            }
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (lat, mut errs) = h.join().expect("client thread");
            others += lat.len() as u64;
            errors.append(&mut errs);
        }
    });
    let mut plain = measure(w, args.seconds / 3.0);
    let untraced_p50 = plain.latency(W::TAIL_PCT).p50;
    errors.append(&mut plain.errors);
    let attempted = i + others + plain.attempted;
    let mut failed = errors.len() as u64;
    let mut notes = Vec::new();
    fail_notes(&errors, &mut notes);
    if let Err(e) = w.finish(Some(&mut t)) {
        failed = attempted;
        notes.push(format!("FAILED {e}"));
    }

    t.set("fail_ratio", failed as f64 / attempted as f64);
    let (op_time, layers) = t.op_times();
    t.set("trace_overhead_pct", 100.0 * (op_time - untraced_p50) / untraced_p50);
    if W::USES_SESSION {
        t.set("driver.session_overhead_s", untraced_p50 - layers);
    }
    notes.push(format!(
        "{i} traced ops; untraced op p50 {:.3} ms, traced op {:.3} ms, layers {:.3} ms",
        untraced_p50 * 1e3,
        op_time * 1e3,
        layers * 1e3
    ));
    match write_trace(name, &t) {
        Ok(path) => notes.push(format!("{} spans written to {path}", t.spans.len())),
        Err(e) => notes.push(format!("could not write the span file: {e}")),
    }

    let mut values = t.metrics();
    if let (Some(t1), Some(t2)) = (values.get("parse.cfg_t1_s"), values.get("parse.cfg_s")) {
        if *t2 > 0.0 {
            let speedup = t1 / t2;
            values.insert("parse.speedup_t2".into(), speedup);
        }
    }
    let get = |n: &str| values.get(n).copied().unwrap_or(0.0);
    let metrics = PER_LAYER.iter().map(|m| (m.name, get(m.name), m.unit)).collect();
    let exact = EXACT.iter().map(|n| (*n, get(n))).collect();
    Outcome { attempted, failed, metrics, exact, notes }
}

fn write_trace(name: &str, t: &Trace) -> std::io::Result<String> {
    let dir = std::path::Path::new("target/bench");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{name}.json"));
    let text = serde_json::to_string(&t.to_json(name)).map_err(std::io::Error::other)?;
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}
