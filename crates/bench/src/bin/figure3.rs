//! Figure 3: speedup curves (geometric mean over the four binaries) of
//! hpcstruct end-to-end, DWARF parsing, and CFG construction versus
//! thread count.

use pba_bench::report::Table;
use pba_bench::{outln, sweep_threads, workload};
use pba_driver::{Session, SessionConfig};
use pba_gen::Profile;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let threads = sweep_threads();
    let binaries: Vec<_> = Profile::TABLE1
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name(), workload(*p, 0xF163 + i as u64)))
        .collect();

    let config = |n: usize, name: &str| SessionConfig::default().with_threads(n).with_name(name);

    // Baselines at 1 thread.
    let mut base: Vec<(f64, f64, f64)> = Vec::new();
    for (name, g) in &binaries {
        let session = Session::open(g.elf.as_slice(), config(1, name));
        let out = session.structure().expect("hpcstruct");
        base.push((out.times.dwarf(), out.times.cfg(), out.times.total()));
    }

    outln!("Figure 3: average speedup (geometric mean over 4 binaries)\n");
    let mut t = Table::new(&["Threads", "hpcstruct", "DWARF", "CFG"]);
    for &n in &threads {
        let mut sp_total = Vec::new();
        let mut sp_dwarf = Vec::new();
        let mut sp_cfg = Vec::new();
        for ((name, g), &(bd, bc, bt)) in binaries.iter().zip(&base) {
            let session = Session::open(g.elf.as_slice(), config(n, name));
            let out = session.structure().expect("hpcstruct");
            sp_dwarf.push(bd / out.times.dwarf().max(1e-9));
            sp_cfg.push(bc / out.times.cfg().max(1e-9));
            sp_total.push(bt / out.times.total().max(1e-9));
        }
        t.row(vec![
            n.to_string(),
            format!("x{:.2}", geomean(&sp_total)),
            format!("x{:.2}", geomean(&sp_dwarf)),
            format!("x{:.2}", geomean(&sp_cfg)),
        ]);
    }
    outln!("{}", t.render());
    outln!("paper reference @64 threads: CFG up to x25, DWARF up to x14, hpcstruct ~x8-13");
    outln!("(on a single-core host all curves stay flat at ~x1; the sweep still");
    outln!(" exercises the full multi-thread code paths)");
}
