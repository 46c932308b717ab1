//! Software-forensics workflow: extract instruction, control-flow and
//! data-flow features from a corpus of binaries, BinFeat style.
//!
//! ```text
//! cargo run --example forensics --release [-- <corpus-size>]
//! ```

use pba::binfeat::FeatureIndex;
use pba::gen::{generate, Profile};
use pba::{Session, SessionConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    println!("building a corpus of {n} server-class binaries...");
    let corpus: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut cfg = Profile::Server.config(9000 + i as u64);
            cfg.num_funcs = 48;
            generate(&cfg).elf
        })
        .collect();

    // One session per binary, one after another, every thread inside
    // each binary: the paper's Table 3 setup. The corpus vocabulary is
    // the sum of the per-binary feature counts.
    let mut vocabulary = FeatureIndex::default();
    let [mut cfg, mut insn, mut control, mut data] = [0.0f64; 4];
    for elf in corpus {
        let session = Session::open(elf, SessionConfig::default().with_threads(threads));
        let f = session.features().expect("corpus analyzable");
        cfg += f.t_cfg;
        insn += f.t_if;
        control += f.t_cf;
        data += f.t_df;
        for (&k, &v) in &f.index {
            *vocabulary.entry(k).or_insert(0) += v;
        }
    }
    println!(
        "\nextracted {} distinct features ({} total occurrences) from {n} binaries",
        vocabulary.len(),
        vocabulary.values().sum::<u64>(),
    );
    println!("stage times ({threads} threads):");
    println!("  CFG construction      {:8.1} ms", cfg * 1e3);
    println!("  instruction features  {:8.1} ms", insn * 1e3);
    println!("  control-flow features {:8.1} ms", control * 1e3);
    println!("  data-flow features    {:8.1} ms", data * 1e3);
    println!("  total                 {:8.1} ms", (cfg + insn + control + data) * 1e3);

    // The most common features form the base vocabulary a model trains
    // on; print the head of the distribution.
    let mut by_count: Vec<(&u64, &u64)> = vocabulary.iter().collect();
    by_count.sort_by_key(|(_, &c)| std::cmp::Reverse(c));
    println!("\nmost frequent feature hashes:");
    for (hash, count) in by_count.into_iter().take(8) {
        println!("  {hash:#018x}  x{count}");
    }
}
