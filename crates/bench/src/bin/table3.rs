//! Table 3: BinFeat stage times (CFG, IF, CF, DF, total) versus thread
//! count over the forensics corpus.
//!
//! The paper's corpus is 504 binaries built from Apache/Redis/
//! mysqlslap/Nginx; ours is the server-class generator profile. The
//! corpus size scales with `PBA_SCALE` (default 24 binaries — the
//! shape, per-stage scaling, is what matters). As in the paper, the
//! binaries run one after another and the threads work inside each
//! binary; a stage's time is its sum over the corpus.

use pba_bench::outln;
use pba_bench::report::{secs, speedup, Table};
use pba_bench::workloads::{scale, sweep_threads};
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, Profile};

/// Corpus totals of the four stages (CFG, IF, CF, DF) at `threads`
/// threads, in seconds.
fn stage_times(corpus: &[Vec<u8>], threads: usize) -> [f64; 4] {
    let mut sum = [0.0; 4];
    for elf in corpus {
        let session = Session::open(elf.as_slice(), SessionConfig::default().with_threads(threads));
        let f = session.features().expect("binfeat");
        for (s, t) in sum.iter_mut().zip([f.t_cfg, f.t_if, f.t_cf, f.t_df]) {
            *s += t;
        }
    }
    sum
}

fn main() {
    let n_binaries = ((24.0 * scale()) as usize).max(2);
    eprintln!("generating {n_binaries} server-class binaries...");
    let corpus: Vec<Vec<u8>> = (0..n_binaries)
        .map(|i| {
            let mut cfg = Profile::Server.config(0x7AB3 + i as u64);
            cfg.num_funcs = (cfg.num_funcs / 4).max(16); // corpus of smaller binaries
            generate(&cfg).elf
        })
        .collect();

    let threads = sweep_threads();
    outln!("\nTable 3: BinFeat performance over {n_binaries} binaries (seconds)\n");
    let mut t = Table::new(&["Threads", "CFG", "IF", "CF", "DF", "BinFeat"]);
    let mut base: Option<(f64, f64, f64, f64, f64)> = None;
    for &n in &threads {
        let [c, i, f, d] = stage_times(&corpus, n);
        let tot = c + i + f + d;
        if base.is_none() {
            base = Some((c, i, f, d, tot));
        }
        t.row(vec![n.to_string(), secs(c), secs(i), secs(f), secs(d), secs(tot)]);
    }
    if let (Some((bc, bi, bf, bd, bt)), Some(&n)) = (base, threads.last()) {
        let [c, i, f, d] = stage_times(&corpus, n);
        t.row(vec![
            format!("speedup@{n}"),
            speedup(bc, c),
            speedup(bi, i),
            speedup(bf, f),
            speedup(bd, d),
            speedup(bt, c + i + f + d),
        ]);
    }
    outln!("{}", t.render());
    outln!("paper reference @64 threads: CFG x3.8, IF x17.9, CF x15.7, DF x9.0, total x6.9");
    outln!("(CFG scales worst: small functions + non-returning dependencies, Section 8.3)");
}
