//! The decode-once invariant at the session level: however many
//! consumers hang off one session, every unique block's bytes are
//! decoded exactly once (by the memoized `ir()` build), and the loop
//! forests ride the same IR.

use pba_dataflow::CfgView;
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use std::sync::Arc;

fn sample(debug_info: bool) -> Vec<u8> {
    generate(&GenConfig { num_funcs: 24, seed: 0x1DEC, debug_info, ..Default::default() }).elf
}

#[test]
fn eight_concurrent_consumers_decode_each_block_exactly_once() {
    let session = Session::open(sample(true), SessionConfig::default().with_threads(2));
    // Force the parse first so the parser's own decoding is excluded
    // from the analysis-plane count.
    let after_parse = session.cfg().expect("cfg").code.decode_count();

    // Eight concurrent consumers spanning every IR-backed artifact.
    std::thread::scope(|s| {
        for i in 0..8 {
            let session = &session;
            s.spawn(move || match i % 4 {
                0 => {
                    session.structure().expect("structure");
                }
                1 => {
                    session.features().expect("features");
                }
                2 => {
                    session.dataflow().expect("dataflow");
                }
                _ => {
                    session.loop_forests().expect("loop_forests");
                }
            });
        }
    });

    let decoded = session.cfg().expect("cfg").code.decode_count() - after_parse;
    let unique = session.ir().expect("ir").unique_block_insn_count() as u64;
    assert!(unique > 0, "corpus must have instructions");
    assert_eq!(decoded, unique, "all consumers together decode each unique block exactly once");
    let stats = session.stats();
    assert_eq!(stats.ir_builds, 1, "one memoized IR build serves everyone");
    assert_eq!(stats.cfg_parses, 1);
}

#[test]
fn loop_forests_prefills_the_per_entry_cache_and_reuses_it() {
    let session = Session::open(sample(false), SessionConfig::default().with_threads(2));
    let entries: Vec<u64> = session.cfg().expect("cfg").functions.keys().copied().collect();
    assert!(!entries.is_empty());

    // Warm one entry by hand; the whole-binary accessor must reuse it.
    let first = session.loop_forest(entries[0]).expect("forest");
    let all = session.loop_forests().expect("loop_forests");
    assert_eq!(all.len(), entries.len(), "one forest per function");
    assert!(Arc::ptr_eq(&first, &all[&entries[0]]), "pre-computed entry is shared, not recomputed");
    assert_eq!(
        session.stats().loop_forests,
        entries.len() as u64,
        "each forest computed exactly once across both accessors"
    );

    // Later per-entry calls hit the pre-filled cache.
    let again = session.loop_forest(entries[entries.len() - 1]).expect("forest");
    assert!(Arc::ptr_eq(&again, &all[&entries[entries.len() - 1]]));
    assert_eq!(session.stats().loop_forests, entries.len() as u64);
}

/// The memory-plane sweep: at every `pct_shared` level (none, the
/// default, heavy overlap) the `Arc`-shared block layout must yield the
/// same dataflow facts as independent per-function builds (each owning
/// private arenas — the copied layout), and byte-identical hpcstruct
/// text and binfeat indexes across sessions and thread counts.
#[test]
fn shared_block_layout_is_output_invariant_across_pct_shared() {
    for pct_shared in [0.0, 0.08, 0.30] {
        let cfg = GenConfig {
            num_funcs: 24,
            seed: 0x5A7E,
            pct_shared,
            pct_cold: pct_shared / 2.0,
            ..Default::default()
        };
        let elf = generate(&cfg).elf;
        let session =
            Session::open(elf.clone(), SessionConfig::default().with_threads(2).with_name("m"));
        let text = session.structure().expect("structure").text.clone();
        let feats = session.features().expect("features").index.clone();
        let df = session.dataflow().expect("dataflow");
        assert!(
            session.stats().resident_bytes > 0,
            "a driven session reports its resident footprint"
        );
        let ir_bytes = session.ir().expect("ir").heap_bytes() as u64;
        assert!(
            session.stats().resident_bytes >= ir_bytes,
            "pct_shared={pct_shared}: resident_bytes must at least cover the memoized IR \
             ({ir_bytes} bytes)"
        );

        // Copied-layout oracle: a fresh FuncIr per function owns its own
        // arenas; facts must match the shared-IR session exactly.
        let cfg_graph = session.cfg().expect("cfg");
        for f in cfg_graph.functions.values() {
            let view = pba_dataflow::FuncIr::build(cfg_graph, f);
            let graph = pba_dataflow::FlowGraph::build(&view);
            let lone = pba_dataflow::liveness_on(&view, &graph, pba_dataflow::ExecutorKind::Serial);
            let shared = &df[&f.entry];
            for &b in view.blocks() {
                assert_eq!(
                    shared.liveness.live_in(b),
                    lone.live_in(b),
                    "pct_shared={pct_shared}: shared IR changed liveness of {b:#x}"
                );
            }
        }

        // A second session over the same bytes, different thread count:
        // byte-identical external outputs.
        let again = Session::open(elf, SessionConfig::default().with_threads(1).with_name("m"));
        assert_eq!(again.structure().expect("structure").text, text);
        assert_eq!(again.features().expect("features").index, feats);
    }
}

/// `BinaryIr` stores each unique block exactly once: every function
/// owning a block serves its instructions from the same storage, so a
/// block reached by N functions hands all N the same pointer.
#[test]
fn binary_ir_stores_each_unique_block_once() {
    let g = generate(&GenConfig {
        num_funcs: 32,
        seed: 0xA5C,
        pct_shared: 0.5,
        debug_info: false,
        ..Default::default()
    });
    let session = Session::open(g.elf, SessionConfig::default().with_threads(2));
    let ir = session.ir().expect("ir");

    let mut owners: std::collections::HashMap<u64, Vec<_>> = std::collections::HashMap::new();
    for f in ir.funcs() {
        for &b in f.blocks() {
            if !f.insns(b).is_empty() {
                owners.entry(b).or_default().push(f.insns(b).as_ptr());
            }
        }
    }
    let shared = owners.values().filter(|p| p.len() >= 2).count();
    assert!(shared > 0, "pct_shared=0.5 corpus must contain a block owned by two functions");
    for (b, ptrs) in &owners {
        assert!(
            ptrs.iter().all(|&p| p == ptrs[0]),
            "block {b:#x} owned by {} functions must be stored once",
            ptrs.len()
        );
    }
}

#[test]
fn ir_memoizes_failures_like_other_artifacts() {
    let session = Session::open(b"not an elf".to_vec(), SessionConfig::default());
    assert!(session.ir().is_err());
    assert!(session.ir().is_err(), "failure memoized, not recomputed");
    assert_eq!(session.stats().elf_parses, 1);
}
