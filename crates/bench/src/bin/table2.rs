//! Table 2: hpcstruct wall times — parallel DWARF parsing, parallel CFG
//! construction, and end-to-end — per binary and thread count, with
//! speedups relative to one thread.

use pba_bench::report::{secs, speedup, Table};
use pba_bench::{outln, sweep_threads, workload};
use pba_driver::{Session, SessionConfig};
use pba_gen::Profile;

fn main() {
    let threads = sweep_threads();
    outln!("Table 2: hpcstruct performance (seconds, median of 3)\n");
    let mut t = Table::new(&["Binary", "Threads", "DWARF (2)", "CFG (4)", "hpcstruct"]);
    for (i, p) in Profile::TABLE1.iter().enumerate() {
        let g = workload(*p, 0x7AB2 + i as u64);
        let mut base: Option<(f64, f64, f64)> = None;
        let config = |n: usize| SessionConfig::default().with_threads(n).with_name(p.name());
        for &n in &threads {
            let mut dwarf = Vec::new();
            let mut cfg = Vec::new();
            let mut total = Vec::new();
            for _ in 0..3 {
                let session = Session::open(g.elf.as_slice(), config(n));
                let out = session.structure().expect("hpcstruct");
                dwarf.push(out.times.dwarf());
                cfg.push(out.times.cfg());
                total.push(out.times.total());
            }
            let med = |v: &mut Vec<f64>| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            };
            let (d, c, tt) = (med(&mut dwarf), med(&mut cfg), med(&mut total));
            if base.is_none() {
                base = Some((d, c, tt));
            }
            t.row(vec![p.name().into(), n.to_string(), secs(d), secs(c), secs(tt)]);
        }
        if let Some((bd, bc, bt)) = base {
            // Speedup row at the largest thread count.
            let n = *threads.last().unwrap();
            let session = Session::open(g.elf.as_slice(), config(n));
            let out = session.structure().expect("hpcstruct");
            t.row(vec![
                format!("{} speedup", p.name()),
                format!("@{n}"),
                speedup(bd, out.times.dwarf()),
                speedup(bc, out.times.cfg()),
                speedup(bt, out.times.total()),
            ]);
        }
    }
    outln!("{}", t.render());
    outln!("paper reference @16 threads: DWARF x7.8-14.4, CFG x8.9-25.2, end-to-end x5.8-8.1");
}
