//! Performance-analysis workflow: recover program structure (functions,
//! loops, source lines, inlined scopes) the way HPCToolkit's hpcstruct
//! does, and print the phase breakdown.
//!
//! ```text
//! cargo run --example perf_struct --release [-- <path-to-elf>]
//! ```
//!
//! Without an argument, a TensorFlow-class synthetic binary is
//! generated (template-bloated debug info, thousands of line rows).

use pba::gen::{generate, Profile};
use pba::hpcstruct::{analyze, HsConfig, PHASE_NAMES};

fn main() {
    let (name, bytes) = match std::env::args().nth(1) {
        Some(path) => {
            let bytes = std::fs::read(&path).expect("readable input file");
            (path, bytes)
        }
        None => {
            let mut cfg = Profile::TensorFlow.config(42);
            cfg.num_funcs = 400;
            ("tensorflow-class (synthetic)".to_string(), generate(&cfg).elf)
        }
    };

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let out = analyze(&bytes, &HsConfig { threads, name: name.clone() }).expect("analyzable ELF");

    println!("hpcstruct-style structure recovery for {name} ({threads} threads)\n");
    for (i, phase) in PHASE_NAMES.iter().enumerate() {
        println!("  {phase:<18} {:8.3} ms", out.times.seconds[i] * 1e3);
    }
    println!("  {:<18} {:8.3} ms\n", "total", out.times.total() * 1e3);
    println!(
        "structure: {} functions, {} loops, {} statement ranges",
        out.structure.functions.len(),
        out.structure.loop_count(),
        out.structure.stmt_count()
    );

    // Show one function's recovered structure.
    if let Some(f) = out
        .structure
        .functions
        .iter()
        .max_by_key(|f| f.loops.len() * 100 + f.inlines.len() * 10 + f.stmts.len())
    {
        let mut text = String::new();
        f.write_text(&mut text);
        println!("\nsample entry:\n{text}");
    }

    // The full structure file would normally be written to disk:
    let path = std::env::temp_dir().join("pba_structure.txt");
    std::fs::write(&path, &out.text).expect("writable temp dir");
    println!("full structure file written to {}", path.display());
}
