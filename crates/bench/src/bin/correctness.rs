//! Section 8.1: correctness against ground truth over a coreutils-class
//! corpus (the paper used 113 binaries from coreutils + tar). Its first
//! eleven seeds run in tier-1 as `tests/ground_truth.rs`.

use pba_bench::report::Table;
use pba_bench::workloads::scale;
use pba_bench::{check_binary, outln, CheckReport};
use pba_gen::{generate, Profile};

fn main() {
    let n = ((113.0 * scale()) as usize).max(4);
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    eprintln!("checking {n} coreutils-class binaries with {threads} threads...");

    let mut agg = CheckReport::default();
    for i in 0..n {
        let g = generate(&Profile::Coreutils.config(0xC0DE + i as u64));
        agg.merge(check_binary(&g, threads));
    }

    outln!("\nSection 8.1: parser output vs. exact ground truth ({n} binaries)\n");
    let mut t = Table::new(&["Property", "Matched", "Total", "Rate"]);
    let rate = |m: usize, tot: usize| {
        if tot == 0 {
            "-".to_string()
        } else {
            format!("{:.2}%", 100.0 * m as f64 / tot as f64)
        }
    };
    t.row(vec![
        "function ranges".into(),
        agg.funcs_range_match.to_string(),
        agg.funcs_total.to_string(),
        rate(agg.funcs_range_match, agg.funcs_total),
    ]);
    t.row(vec![
        "non-returning status".into(),
        agg.funcs_status_match.to_string(),
        agg.funcs_total.to_string(),
        rate(agg.funcs_status_match, agg.funcs_total),
    ]);
    t.row(vec![
        "jump-table sizes".into(),
        agg.jts_match.to_string(),
        agg.jts_total.to_string(),
        rate(agg.jts_match, agg.jts_total),
    ]);
    t.row(vec![
        "no-fallthrough noreturn calls".into(),
        agg.norets_match.to_string(),
        agg.norets_total.to_string(),
        rate(agg.norets_match, agg.norets_total),
    ]);
    outln!("{}", t.render());

    if agg.diffs.is_empty() {
        outln!("no differences found.");
    } else {
        outln!("differences ({} shown):", agg.diffs.len());
        for d in &agg.diffs {
            outln!("  {d}");
        }
    }
    std::process::exit(if agg.perfect() { 0 } else { 1 });
}
