//! Spans recorded from outside the product crates.
//!
//! In `--trace 1` mode a workload calls each layer's public function itself,
//! in `Session`'s order, inside [`Trace::span`]. Spans stay in memory and are
//! written to `target/bench/trace_<workload>.json` when the run ends. A layer's
//! self time is its span's duration minus the durations of its child spans.
//!
//! Every traced op has one `op` root span. A *side* span measures the same
//! layer run another way (one thread, another executor, brute force): it is a
//! child of wherever it ran, so its time is subtracted from that parent, but it
//! and everything below it never count towards the op's own time.

use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The traced op this span belongs to; spans of one op share it.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A side measurement, or a span below one.
    pub side: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
    /// Per-op samples of counts and bytes, reduced to medians at the end.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Whole-run values (ratios, totals read once when the run ends).
    finals: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            samples: BTreeMap::new(),
            finals: BTreeMap::new(),
        }
    }

    /// Spans opened from now on belong to op `id`.
    pub fn begin_op(&mut self, id: u64) {
        self.op_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn run<R>(
        &mut self,
        name: &'static str,
        side: bool,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> (u32, R) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let side = side || parent.is_some_and(|p| self.spans[p as usize].side);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op_id: self.op_id, parent, start_ns, end_ns: start_ns, side });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        (id, out)
    }

    /// Run `f` under a span named `name`, a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        self.run(name, false, f).1
    }

    /// [`Trace::span`], also returning the span's index for [`Trace::under`].
    pub fn span_id<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> (u32, R) {
        self.run(name, false, f)
    }

    /// Run `f` under a side span: measured, subtracted from its parent, never
    /// part of the op.
    pub fn side<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        self.run(name, true, f).1
    }

    /// Attribute the spans `f` opens to the finished span `parent`. The server
    /// half of a round trip cannot be timed from outside while it happens, so
    /// the same calls are replayed afterwards and charged to the round trip;
    /// what is left of it is the wire.
    pub fn under<R>(&mut self, parent: u32, f: impl FnOnce(&mut Trace) -> R) -> R {
        self.open.push(parent);
        let out = f(self);
        self.open.pop();
        out
    }

    /// One per-op sample of a count or a size.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A whole-run value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.finals.insert(name, value);
    }

    /// Self time of every span, in seconds, indexed like `spans`.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own.into_iter().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Metric values of the run: `<span name>_s` is the median over ops of the
    /// span's self time summed within the op; samples reduce to their median.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let own = self.self_times();
        let mut per_op: BTreeMap<(&str, u64), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            *per_op.entry((s.name, s.op_id)).or_default() += t;
        }
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in per_op {
            by_name.entry(name).or_default().push(t);
        }
        let mut out = BTreeMap::new();
        for (name, mut v) in by_name {
            out.insert(format!("{name}_s"), median(&mut v));
        }
        for (name, v) in &self.samples {
            out.insert(name.to_string(), median(&mut v.clone()));
        }
        for (name, v) in &self.finals {
            out.insert(name.to_string(), *v);
        }
        out
    }

    /// `(op, layers)`: medians over ops of the summed self time of every
    /// non-side span of the op, with and without the `op` root's own self time
    /// (the glue between layer calls).
    pub fn op_times(&self) -> (f64, f64) {
        let own = self.self_times();
        let mut per_op: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own).filter(|(s, _)| !s.side) {
            let e = per_op.entry(s.op_id).or_default();
            e.0 += t;
            if s.parent.is_some() {
                e.1 += t;
            }
        }
        let (mut op, mut layers): (Vec<f64>, Vec<f64>) = per_op.into_values().unzip();
        (median(&mut op), median(&mut layers))
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let own = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, t)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("op_id".into(), Value::U64(s.op_id)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p.into()))),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("side".into(), Value::Bool(s.side)),
                    ("self_ns".into(), Value::U64((t * 1e9).round() as u64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op_id: u64, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, op_id, parent, start_ns: start, end_ns: end, side: false }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        let mut t = Trace::new();
        t.spans = vec![
            span("op", 0, None, 0, 1_000),
            span("a", 0, Some(0), 100, 700),
            span("a.inner", 0, Some(1), 200, 500),
            span("b", 0, Some(0), 700, 900),
            // a side span inside the op: subtracted from the root, not part of the op
            Span { side: true, ..span("a.other_way", 0, Some(0), 900, 950) },
        ];
        let own = t.self_times();
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(ns, vec![150, 300, 300, 200, 50]);
        let (op, layers) = t.op_times();
        assert!((op - 950e-9).abs() < 1e-15 && (layers - 800e-9).abs() < 1e-15);
    }

    #[test]
    fn metrics_take_the_median_over_ops_of_the_per_op_sum() {
        let mut t = Trace::new();
        for (op, dur) in [(0u64, 100u64), (1, 300), (2, 200)] {
            let root = t.spans.len() as u32;
            t.spans.push(span("op", op, None, 0, 1_000));
            // the same layer entered twice in one op: its self times add up
            t.spans.push(span("x", op, Some(root), 0, dur));
            t.spans.push(span("x", op, Some(root), dur, 2 * dur));
        }
        t.sample("x.count", 7.0);
        t.sample("x.count", 9.0);
        t.set("x.ratio", 0.5);
        let m = t.metrics();
        assert!((m["x_s"] - 400e-9).abs() < 1e-15);
        assert_eq!(m["x.count"], 8.0);
        assert_eq!(m["x.ratio"], 0.5);
    }

    #[test]
    fn nested_closures_record_parents() {
        let mut t = Trace::new();
        t.begin_op(3);
        t.span("op", |t| {
            let (a, ()) = t.span_id("a", |t| t.span("a.inner", |_| ()));
            t.side("b", |t| t.span("b.inner", |_| ()));
            t.under(a, |t| t.span("a.replayed", |_| ()));
        });
        let parents: Vec<Option<u32>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), Some(3), Some(1)]);
        let side: Vec<bool> = t.spans.iter().map(|s| s.side).collect();
        assert_eq!(side, vec![false, false, false, true, true, false]);
        assert!(t.spans.iter().all(|s| s.op_id == 3 && s.end_ns >= s.start_ns));
    }
}
