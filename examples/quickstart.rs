//! Quickstart: open one `Session` over a binary and let every analysis
//! share its lazily-memoized artifacts.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use pba::gen::{generate, GenConfig};
use pba::{Session, SessionConfig};

fn main() {
    // A small synthetic binary with all the challenging constructs:
    // shared code, jump tables, non-returning functions, tail calls.
    let binary = generate(&GenConfig { num_funcs: 24, seed: 7, ..Default::default() });
    println!(
        "generated ELF: {} bytes, {} functions ({} with symbols)",
        binary.stats.total_size, binary.stats.num_funcs, binary.stats.num_symbols
    );

    // One handle per binary, one configuration surface. threads: 0
    // means "all available" — the same convention at every layer.
    let session = Session::open(binary.elf.clone(), SessionConfig::default().with_name("quick"));

    // The CFG is built in parallel on first use and memoized for every
    // consumer below.
    let cfg = session.cfg().expect("parseable ELF");
    println!(
        "parsed: {} functions, {} blocks, {} edges ({} threads)",
        cfg.functions.len(),
        cfg.blocks.len(),
        cfg.edges().len(),
        session.config().effective_threads()
    );
    let s = session.parse_stats().expect("stats follow the parse");
    println!(
        "work: {} instructions decoded, {} block splits, {} call sites waited on callee status",
        s.insns_decoded, s.split_iterations, s.noreturn_waits
    );

    // Walk one function.
    let f = cfg.functions.values().max_by_key(|f| f.blocks.len()).unwrap();
    println!("\nlargest function: {} at {:#x} ({} blocks)", f.name, f.entry, f.blocks.len());
    for &b in f.blocks.iter().take(8) {
        let blk = &cfg.blocks[&b];
        let term = cfg.code.insns(blk.start, blk.end).last().map(|i| i.mnemonic());
        println!(
            "  block [{:#x}, {:#x})  {:2} insns  ends with {}",
            blk.start,
            blk.end,
            cfg.code.insns(blk.start, blk.end).len(),
            term.unwrap_or("?")
        );
    }

    // Per-function loop analysis over the read-only CFG (Listing 7): the
    // function's IR builds its forest once and every consumer shares it.
    let forest = session.loop_forest(f.entry).expect("function exists");
    println!("loops: {} (max nesting depth {})", forest.loops.len(), forest.max_depth());

    // Both application case studies reuse the same single parse.
    let structure = session.structure().expect("structure");
    let features = session.features().expect("features");
    println!(
        "\nhpcstruct: {} functions, {} loops, {} statements",
        structure.structure.functions.len(),
        structure.structure.loop_count(),
        structure.structure.stmt_count()
    );
    println!("binfeat: {} distinct features", features.index.len());
    let stats = session.stats();
    println!(
        "session artifact computes: elf {} / dwarf {} / cfg {} — everything shared one parse",
        stats.elf_parses, stats.dwarf_decodes, stats.cfg_parses
    );
    assert_eq!(stats.cfg_parses, 1);
}
