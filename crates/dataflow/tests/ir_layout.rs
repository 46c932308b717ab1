//! The flat IR layout against a brute-force oracle read straight off the
//! `Cfg`: for every generator profile, with and without shared blocks,
//! each function's `CfgView` answers — adjacency, instructions, block
//! ranges, the call bit — must be what a scan of the whole CFG gives,
//! whether the function came out of `BinaryIr::build` (at 1 and 2
//! threads) or `FuncIr::build`. Each function's loop forest is built
//! once and counted and sized where it is kept.

use pba_cfg::{Cfg, EdgeKind, Function};
use pba_dataflow::loops::loop_forest_on;
use pba_dataflow::{BinaryIr, CfgView, FuncIr};
use pba_gen::{generate, Profile};
use pba_isa::{ControlFlow, Insn};
use std::sync::Arc;

const PROFILES: [Profile; 7] = [
    Profile::Llnl1,
    Profile::Llnl2,
    Profile::Camellia,
    Profile::TensorFlow,
    Profile::Coreutils,
    Profile::Server,
    Profile::Skewed,
];

/// `profile` at a twentieth of its size, no debug info.
fn cfg_of(profile: Profile, pct_shared: f64) -> Cfg {
    let mut c = profile.config(0x1A_0047);
    c.num_funcs = (c.num_funcs / 20).max(24);
    c.huge_diamonds /= 20;
    c.pct_shared = pct_shared;
    c.debug_info = false;
    let elf = pba_elf::Elf::parse(generate(&c).elf).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    pba_parse::parse_parallel(&input, 2).cfg
}

/// Check `view` (the IR of `f`) block by block against `cfg`.
fn check(cfg: &Cfg, f: &Function, view: &dyn CfgView, what: &str) {
    let mut members = f.blocks.clone();
    members.sort_unstable();
    assert_eq!(view.entry(), f.entry, "{what}");
    assert_eq!(view.blocks(), members.as_slice(), "{what}: member list");
    let intra = |kind: EdgeKind| !kind.is_interprocedural();
    for &b in &members {
        let at = format!("{what}: block {b:#x} of {:#x}", f.entry);
        let succs: Vec<(u64, EdgeKind)> = cfg
            .edges()
            .iter()
            .filter(|e| e.src == b && intra(e.kind) && members.contains(&e.dst))
            .map(|e| (e.dst, e.kind))
            .collect();
        let preds: Vec<(u64, EdgeKind)> = cfg
            .edges()
            .iter()
            .filter(|e| e.dst == b && intra(e.kind) && members.contains(&e.src))
            .map(|e| (e.src, e.kind))
            .collect();
        assert_eq!(view.succ_edges(b), succs.as_slice(), "{at}: successors");
        assert_eq!(view.pred_edges(b), preds.as_slice(), "{at}: predecessors");

        let block = cfg.blocks[&b];
        let insns = cfg.code.insns(block.start, block.end);
        assert_eq!(view.block_range(b), (block.start, block.end), "{at}: range");
        assert_eq!(view.insns(b), insns.as_slice(), "{at}: instructions");
        let call = insns.last().is_some_and(|i| {
            matches!(i.control_flow(), ControlFlow::Call { .. } | ControlFlow::IndirectCall)
        });
        assert_eq!(view.ends_in_call(b), call, "{at}: ends_in_call");
    }
    let outside = (1u64..).find(|x| !members.contains(x)).unwrap();
    assert!(view.insns(outside).is_empty(), "{what}: a non-member has no instructions");
    assert!(view.succ_edges(outside).is_empty() && view.pred_edges(outside).is_empty());
}

#[test]
fn every_function_matches_the_cfg_oracle() {
    for profile in PROFILES {
        for pct_shared in [0.0, 0.3] {
            let cfg = cfg_of(profile, pct_shared);
            let tag = format!("{} pct_shared={pct_shared}", profile.name());
            let owned: usize = cfg.functions.values().map(|f| f.blocks.len()).sum();
            if pct_shared > 0.0 {
                assert!(owned > cfg.blocks.len(), "{tag}: some block has two owners");
            }
            let decoded: usize =
                cfg.blocks.values().map(|b| cfg.code.insns(b.start, b.end).len()).sum();
            for threads in [1, 2] {
                let ir = BinaryIr::build(&cfg, threads);
                let what = format!("{tag}, BinaryIr at {threads} threads");
                assert_eq!(ir.len(), cfg.functions.len(), "{what}");
                let entries: Vec<u64> = ir.funcs().map(|f| f.entry()).collect();
                assert!(entries.iter().copied().eq(cfg.functions.keys().copied()), "{what}");
                for f in cfg.functions.values() {
                    check(&cfg, f, ir.func(f.entry).expect("one IR per function"), &what);
                }
                assert_eq!(ir.unique_block_insn_count(), decoded, "{what}: each block once");
                assert_eq!(
                    ir.unique_block_insn_count() * std::mem::size_of::<Insn>(),
                    ir.shared_insn_bytes(),
                    "{what}: the arena holds exactly the unique instructions"
                );
            }
            for f in cfg.functions.values() {
                check(&cfg, f, &FuncIr::build(&cfg, f), &format!("{tag}, FuncIr::build"));
            }
        }
    }
}

/// Each function's loop forest is built once, by the first caller, and
/// sized then: every later ask shares that forest, `loop_forests_built`
/// counts the built ones, and `memo_heap_bytes` adds each one's bytes
/// to the memoized ranks.
#[test]
fn each_loop_forest_is_built_once_and_sized_when_built() {
    let cfg = cfg_of(Profile::Server, 0.3);
    let ir = BinaryIr::build(&cfg, 2);
    let ranks = |ir: &BinaryIr| ir.funcs().map(|f| f.graph().rank_heap_bytes()).sum::<usize>();
    assert_eq!(ir.loop_forests_built(), 0);
    assert_eq!(ir.memo_heap_bytes(), ranks(&ir));

    let first = ir.funcs().next().unwrap();
    let forest = Arc::clone(first.loop_forest());
    assert!(Arc::ptr_eq(&forest, first.loop_forest()), "a second ask shares the first forest");
    assert_eq!(ir.loop_forests_built(), 1);

    let mut loops = 0;
    for f in ir.funcs() {
        let fresh = loop_forest_on(f, f.graph());
        assert_eq!(f.loop_forest().loops, fresh.loops, "{:#x}", f.entry());
        loops += fresh.loops.len();
    }
    assert!(loops > 0, "the image has loops");
    assert_eq!(ir.loop_forests_built(), ir.len());
    let forests: usize = ir.funcs().map(|f| f.loop_forest().heap_bytes()).sum();
    assert_eq!(ir.memo_heap_bytes(), ranks(&ir) + forests);
}
