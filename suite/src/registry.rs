//! Names, units and directions of everything the suite reports. `BENCHMARK.json`
//! at the repo root is this file rendered by `suite --print-benchmark-json`.

use serde_json::Value;

/// How long one run measures. The driver makes 136 runs of the six workloads and
/// allows them 3 420 s with set-up and builds: sixteen seconds of measuring and
/// some four of set-up a run leave a fifth of that spare.
pub const RUN_SECONDS: u64 = 16;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

impl WorkloadInfo {
    /// `why` on one line: the source wraps it.
    fn why_line(&self) -> String {
        self.why.split_whitespace().collect::<Vec<_>>().join(" ")
    }
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "struct_large",
        why: "file -> Session::open_path -> structure() -> to_text() on large debug-heavy images: \
              the paper's hpcstruct case, all of elf/dwarf/parse/ir/loops/hpcstruct, no serve or binfeat",
    },
    WorkloadInfo {
        name: "features_corpus",
        why: "many small stripped binaries -> features() -> sign -> index insert: the paper's \
              BinFeat case, per-binary fixed cost dominates, write side of the index",
    },
    WorkloadInfo {
        name: "topk_query",
        why: "one lap of query_topk(k=5) over every entry of a prebuilt 600-entry clone-family \
              index: read side of binfeat::index alone, pairs with features_corpus",
    },
    WorkloadInfo {
        name: "skewed_dataflow",
        why: "one ~2400-block function among hundreds of tiny ones, ExecutorKind::Auto: the only \
              input past the Auto threshold, so the within-function executors carry the time",
    },
    WorkloadInfo {
        name: "serve_hit",
        why: "closed loop, 2 clients, TCP, 3-binary working set resident in the cache: every \
              request is a hit, so wire, codec, hash and cache lookup are the whole cost",
    },
    WorkloadInfo {
        name: "serve_churn",
        why: "closed loop, 2 clients, 12 binaries against a 3-session cap plus ingest:topk 1:4: \
              mostly misses, analysis and eviction per request, index writes contending with reads",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher, bound }
}

/// Reported for every workload with tracing off. A bound is three times the
/// widest spread its metric showed over ten seeds on any workload, in any of
/// the sets of runs behind README.md's Bounds table, and at most the contract's
/// 25 %. `fail_ratio` is not here: the contract wants metrics that are never 0
/// and it is 0 on every healthy run; the result line's `attempted` / `failed`
/// carry it, and it is the first per-layer metric.
pub const END_TO_END: &[Metric] = &[
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_tail_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.15),
    e2e("setup_s", "s", false, 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: true, bound: 0.0 }
}

/// Reported for every workload by the traced run; a layer that does nothing
/// on a workload reports 0.
pub const PER_LAYER: &[Metric] = &[
    lower("fail_ratio", "ratio"),
    lower("trace_overhead_pct", "%"),
    lower("elf.load_s", "s"),
    lower("elf.parse_s", "s"),
    lower("elf.hash_s", "s"),
    lower("elf.image_bytes", "bytes"),
    lower("elf.text_bytes", "bytes"),
    lower("dwarf.decode_s", "s"),
    lower("dwarf.debug_bytes", "bytes"),
    lower("dwarf.cus", "count"),
    lower("dwarf.line_rows", "count"),
    lower("parse.cfg_s", "s"),
    lower("parse.cfg_t1_s", "s"),
    higher("parse.speedup_t2", "ratio"),
    lower("parse.insns_decoded", "count"),
    lower("parse.blocks_created", "count"),
    lower("parse.edges_created", "count"),
    lower("parse.funcs_created", "count"),
    lower("parse.split_iterations", "count"),
    lower("parse.block_races", "count"),
    higher("parse.cache_hits", "count"),
    lower("parse.noreturn_waits", "count"),
    higher("parse.jt_bounded", "count"),
    lower("parse.jt_unbounded", "count"),
    lower("parse.decode_errors", "count"),
    lower("parse.wasted_ratio", "ratio"),
    lower("dataflow.ir_s", "s"),
    lower("dataflow.run_all_s", "s"),
    lower("dataflow.run_all_serial_s", "s"),
    lower("dataflow.run_all_parallel_s", "s"),
    lower("dataflow.run_all_async_s", "s"),
    lower("dataflow.within_func_s", "s"),
    lower("dataflow.liveness_s", "s"),
    lower("dataflow.reaching_s", "s"),
    lower("dataflow.stack_s", "s"),
    lower("dataflow.slice_s", "s"),
    lower("dataflow.roundset_baseline_s", "s"),
    lower("dataflow.ir_unique_insns", "count"),
    lower("dataflow.ir_bytes", "bytes"),
    lower("dataflow.visits", "count"),
    lower("dataflow.visits_serial", "count"),
    lower("dataflow.roundset_visits", "count"),
    lower("dataflow.async_enqueued", "count"),
    higher("dataflow.async_stolen", "count"),
    lower("dataflow.slice_jumps", "count"),
    lower("dataflow.slice_widened", "count"),
    lower("dataflow.facts_bytes", "bytes"),
    lower("rayon.tasks_executed", "count"),
    higher("rayon.tasks_stolen", "count"),
    lower("rayon.tasks_split", "count"),
    lower("loops.forest_s", "s"),
    lower("loops.count", "count"),
    lower("loops.max_depth", "count"),
    lower("hpcstruct.assemble_s", "s"),
    lower("hpcstruct.to_text_s", "s"),
    lower("hpcstruct.funcs", "count"),
    lower("hpcstruct.stmts", "count"),
    lower("hpcstruct.loops", "count"),
    lower("hpcstruct.text_bytes", "bytes"),
    lower("hpcstruct.heap_bytes", "bytes"),
    lower("binfeat.extract_s", "s"),
    lower("binfeat.sign_s", "s"),
    lower("binfeat.insert_s", "s"),
    lower("binfeat.query_s", "s"),
    lower("binfeat.brute_s", "s"),
    lower("binfeat.feature_keys", "count"),
    lower("binfeat.candidates_per_query", "count"),
    lower("binfeat.candidate_ratio", "ratio"),
    higher("binfeat.recall_at_5", "ratio"),
    lower("binfeat.index_bytes", "bytes"),
    lower("binfeat.index_entries", "count"),
    lower("driver.session_overhead_s", "s"),
    lower("driver.resident_bytes", "bytes"),
    lower("driver.cfg_parses", "count"),
    lower("driver.ir_builds", "count"),
    lower("driver.dataflow_runs", "count"),
    lower("serve.hex_encode_s", "s"),
    lower("serve.hex_decode_s", "s"),
    lower("serve.encode_req_s", "s"),
    lower("serve.decode_req_s", "s"),
    lower("serve.encode_resp_s", "s"),
    lower("serve.decode_resp_s", "s"),
    lower("serve.cache_get_s", "s"),
    lower("serve.handle_s", "s"),
    lower("serve.wire_s", "s"),
    lower("serve.req_bytes", "bytes"),
    lower("serve.resp_bytes", "bytes"),
    higher("serve.cache_hits", "count"),
    lower("serve.cache_misses", "count"),
    higher("serve.hit_ratio", "ratio"),
    lower("serve.sessions_evicted", "count"),
    lower("serve.resident_bytes", "bytes"),
    lower("serve.index_bytes", "bytes"),
    lower("serve.errors", "count"),
];

/// Counters that repeat exactly for a given seed, so a later PR may rest a
/// count claim on them. The traced run prints them on their own line;
/// `--check-counters` runs it twice and compares. `parse.t1.*` come from the
/// one-thread side parse: the two-thread parse's counters depend on the
/// interleaving.
pub const EXACT: &[&str] = &[
    "parse.t1.insns_decoded",
    "parse.t1.blocks_created",
    "parse.t1.edges_created",
    "parse.t1.funcs_created",
    "parse.t1.split_iterations",
    "parse.t1.jt_bounded",
    "parse.t1.jt_unbounded",
    "dataflow.visits_serial",
    "dataflow.ir_unique_insns",
    "binfeat.feature_keys",
    "binfeat.candidates_per_query",
    "serve.req_bytes",
    "serve.resp_bytes",
    "hpcstruct.text_bytes",
    "driver.resident_bytes",
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

fn s(v: &str) -> Value {
    Value::Str(v.into())
}

fn better(m: &Metric) -> Value {
    s(if m.higher { "higher" } else { "lower" })
}

/// The contract file, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "suite/Cargo.toml",
        "--",
    ]
    .map(s)
    .into();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".into(), s(w.name)),
                ("why".into(), Value::Str(w.why_line())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), better(m)),
                ("bound".into(), Value::F64(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), better(m)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("command".into(), Value::Array(command)),
        ("paths".into(), Value::Array(vec![s("suite")])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        ("workloads".into(), Value::Array(workloads)),
        ("end_to_end".into(), Value::Array(end_to_end)),
        ("per_layer".into(), Value::Array(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(EXACT.iter().all(|n| well_formed(n)));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        let units = END_TO_END.iter().chain(PER_LAYER).map(|m| m.unit);
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let doc = serde_json::to_string(&benchmark_json()).unwrap();
        assert!(doc.len() < 64 << 10);
        for w in WORKLOADS {
            let why = w.why_line();
            assert!(why.len() <= 200 && !why.contains('\n'), "{}: {}", w.name, why.len());
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json(), "regenerate with suite --print-benchmark-json");
    }
}
