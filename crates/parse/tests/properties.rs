//! Property tests over randomly configured workloads: the determinism
//! and soundness guarantees must hold for *any* generated program, not
//! just the hand-picked seeds of the integration tests.

use pba_cfg::RetStatus;
use pba_gen::{generate, GenConfig};
use pba_parse::{parse, parse_parallel, parse_serial, ParseConfig, ParseInput, Scheduling};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (any::<u64>(), 8usize..40, 0.0f64..0.5, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.3, 0.0f64..0.25)
        .prop_map(
            |(seed, num_funcs, pct_switch, pct_tailcall, pct_noreturn, pct_nosym, pct_shared)| {
                GenConfig {
                    seed,
                    num_funcs,
                    pct_switch,
                    pct_tailcall,
                    pct_noreturn,
                    pct_nosym,
                    pct_shared,
                    pct_cold: pct_shared / 2.0,
                    debug_info: false,
                    ..Default::default()
                }
            },
        )
}

fn input_for(g: &pba_gen::Generated) -> ParseInput {
    let elf = pba_elf::Elf::parse(g.elf.clone()).unwrap();
    ParseInput::from_elf(&elf).unwrap()
}

proptest! {
    // Each case parses a binary several times; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's headline claim: thread count and scheduling must not
    /// change the final CFG.
    #[test]
    fn any_workload_parses_deterministically(cfg in arb_config()) {
        let g = generate(&cfg);
        let input = input_for(&g);
        let reference = parse_serial(&input).cfg.canonical();
        let par = parse_parallel(&input, 4).cfg.canonical();
        prop_assert_eq!(&par, &reference, "parallel != serial");
        let rounds = parse(
            &input,
            &ParseConfig { threads: 4, scheduling: Scheduling::Rounds, ..Default::default() },
        )
        .cfg
        .canonical();
        prop_assert_eq!(&rounds, &reference, "rounds != task");
    }

    /// Soundness against exact ground truth: every symboled function is
    /// found with exactly the truth ranges and status.
    #[test]
    fn any_workload_matches_ground_truth(cfg in arb_config()) {
        let g = generate(&cfg);
        let input = input_for(&g);
        let r = parse_parallel(&input, 2);
        for f in &g.truth.functions {
            if !f.has_symbol {
                continue;
            }
            let parsed = r.cfg.functions.get(&f.entry);
            prop_assert!(parsed.is_some(), "{} at {:#x} missing", f.name, f.entry);
            let parsed = parsed.unwrap();
            let got = parsed.ranges(&r.cfg);
            let mut want = f.ranges.clone();
            want.sort_unstable();
            prop_assert_eq!(&got, &want, "{}: range mismatch", &f.name);
            prop_assert_eq!(
                parsed.ret_status == RetStatus::NoReturn,
                f.noreturn,
                "{}: status mismatch", &f.name
            );
        }
    }

    /// Structural invariants of any parsed CFG.
    #[test]
    fn cfg_structural_invariants(cfg in arb_config()) {
        let g = generate(&cfg);
        let input = input_for(&g);
        let r = parse_parallel(&input, 3);
        let cfg = &r.cfg;

        // Block sanity: non-empty, within the code region; block map key
        // equals block start.
        for (&start, b) in &cfg.blocks {
            prop_assert_eq!(start, b.start);
            prop_assert!(b.start < b.end, "empty block {:#x}", start);
            prop_assert!(cfg.code.contains(b.start));
        }
        // Blocks never overlap (splitting resolved everything).
        let mut prev_end = 0u64;
        for b in cfg.blocks.values() {
            prop_assert!(b.start >= prev_end, "overlap at {:#x}", b.start);
            prev_end = b.end;
        }
        // Edges reference existing blocks.
        for e in cfg.edges() {
            prop_assert!(cfg.blocks.contains_key(&e.src), "dangling edge src {:#x}", e.src);
            prop_assert!(cfg.blocks.contains_key(&e.dst), "dangling edge dst {:#x}", e.dst);
        }
        // Adjacency contract: the edge array is strictly increasing, and
        // each block's out-/in-edges are exactly its edges in
        // `(src, dst, kind)` order.
        prop_assert!(cfg.edges().windows(2).all(|w| w[0] < w[1]), "edges not strictly sorted");
        for &b in cfg.blocks.keys() {
            let out: Vec<_> = cfg.edges().iter().filter(|e| e.src == b).copied().collect();
            let inc: Vec<_> = cfg.edges().iter().filter(|e| e.dst == b).copied().collect();
            prop_assert_eq!(cfg.out_edges(b), &out[..], "out-edges of {:#x}", b);
            prop_assert_eq!(cfg.in_edges(b), &inc[..], "in-edges of {:#x}", b);
        }
        // Functions: entry is a member block; members exist; every block
        // belongs to at least one function.
        let mut owned = std::collections::HashSet::new();
        for f in cfg.functions.values() {
            prop_assert!(f.blocks.contains(&f.entry), "{}: entry not a member", f.name);
            for b in &f.blocks {
                prop_assert!(cfg.blocks.contains_key(b));
                owned.insert(*b);
            }
        }
        for &start in cfg.blocks.keys() {
            prop_assert!(owned.contains(&start), "orphan block {:#x}", start);
        }
        // Every block ends on a decodable boundary chain.
        for b in cfg.blocks.values() {
            let insns = cfg.code.insns(b.start, b.end);
            prop_assert!(!insns.is_empty(), "undecodable block {:#x}", b.start);
            let covered: u64 = insns.iter().map(|i| i.len as u64).sum();
            prop_assert_eq!(covered, b.end - b.start, "block {:#x} has a decode gap", b.start);
        }
    }
}
