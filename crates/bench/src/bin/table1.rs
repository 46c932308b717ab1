//! Table 1: section-size statistics of the evaluation binaries.
//!
//! Paper reference (MiB): LLNL1 363/77/243, LLNL2 1913/149/1612,
//! Camellia 299/40/232, TensorFlow 7844/112/7622. Our generated
//! stand-ins are scaled down but must preserve the *shape*: debug
//! dominates TensorFlow-class, text is proportionally largest in
//! LLNL1-class.

use pba_bench::report::{mib, Table};
use pba_bench::workload;
use pba_gen::Profile;

fn main() {
    println!("Table 1: relevant statistics of the benchmark binaries (MiB)\n");
    let mut t = Table::new(&["Binary", "Total", ".text", ".debug_*", "functions", "symbols"]);
    for (i, p) in Profile::TABLE1.iter().enumerate() {
        let g = workload(*p, 0xB1A5 + i as u64);
        t.row(vec![
            p.name().to_string(),
            mib(g.stats.total_size),
            mib(g.stats.text_size),
            mib(g.stats.debug_size),
            g.stats.num_funcs.to_string(),
            g.stats.num_symbols.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(scaled-down stand-ins; see the pba-gen crate docs for the substitution rationale)");
}
