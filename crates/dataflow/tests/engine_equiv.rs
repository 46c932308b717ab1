//! Engine equivalence properties, on randomized `pba-gen` binaries:
//!
//! 1. the engine reproduces the bespoke worklist loops byte-for-byte
//!    (the original fixpoints are kept here as reference
//!    implementations; the reaching-defs oracle carries the deliberate
//!    gen-retraction fix — a later same-block redefinition now retracts
//!    the earlier def's gen bits). The engine drives the allocation-free
//!    `transfer_into` path and recomputes inputs from settled outputs,
//!    so this pins both against the reference fixpoints;
//! 2. the `BinaryIr`-backed `run_all_ir` agrees with per-function
//!    invocation;
//! 3. on a Skewed-profile corpus, whose giant function crosses the Auto
//!    threshold, every `ExecutorKind` value gives the serial facts.

use pba_dataflow::engine::ExecutorKind;
use pba_dataflow::{
    liveness_on, reaching_defs_on, stack_heights_on, BinaryIr, CfgView, Def, FlowGraph, FuncIr,
};
use pba_gen::{generate, GenConfig};
use pba_isa::{ControlFlow, Reg, RegSet};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (any::<u64>(), 6usize..24, 0.0f64..0.5, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.25).prop_map(
        |(seed, num_funcs, pct_switch, pct_tailcall, pct_noreturn, pct_shared)| GenConfig {
            seed,
            num_funcs,
            pct_switch,
            pct_tailcall,
            pct_noreturn,
            pct_shared,
            pct_cold: pct_shared / 2.0,
            debug_info: false,
            ..Default::default()
        },
    )
}

fn parsed_cfg(cfg: &GenConfig) -> pba_cfg::Cfg {
    let g = generate(cfg);
    let elf = pba_elf::Elf::parse(g.elf).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    pba_parse::parse_parallel(&input, 2).cfg
}

// ---------------------------------------------------------------------
// Reference implementations: the pre-engine bespoke fixpoint loops,
// verbatim in structure, kept to pin the engine to the old results.
// ---------------------------------------------------------------------

/// The original `liveness` worklist (pre-refactor `liveness.rs`).
fn reference_liveness(view: &dyn CfgView) -> (HashMap<u64, RegSet>, HashMap<u64, RegSet>) {
    let exit_live = || {
        let mut s = Reg::sysv_callee_saved();
        s.insert(Reg::RAX);
        s.insert(Reg::RSP);
        s
    };
    let blocks = view.blocks();
    let mut gen = HashMap::new();
    let mut kill = HashMap::new();
    for &b in blocks {
        let mut g = RegSet::EMPTY;
        let mut k = RegSet::EMPTY;
        for i in view.insns(b) {
            match i.control_flow() {
                ControlFlow::Call { .. } | ControlFlow::IndirectCall => {
                    g = g.union(RegSet::from_iter(Reg::SYSV_ARGS).minus(k));
                    k = k.union(Reg::sysv_caller_saved());
                }
                _ => {
                    g = g.union(i.regs_read().minus(k));
                    k = k.union(i.regs_written());
                }
            }
        }
        gen.insert(b, g);
        kill.insert(b, k);
    }
    let mut live_in: HashMap<u64, RegSet> = HashMap::new();
    let mut live_out: HashMap<u64, RegSet> = HashMap::new();
    for &b in blocks {
        let is_exit = view.succ_edges(b).is_empty();
        live_out.insert(b, if is_exit { exit_live() } else { RegSet::EMPTY });
        live_in.insert(b, RegSet::EMPTY);
    }
    let mut work: Vec<u64> = blocks.to_vec();
    while let Some(b) = work.pop() {
        let out = live_out[&b];
        let new_in = gen[&b].union(out.minus(kill[&b]));
        live_in.insert(b, new_in);
        for &(p, _) in view.pred_edges(b) {
            let merged = live_out[&p].union(new_in);
            if merged != live_out[&p] {
                live_out.insert(p, merged);
                work.push(p);
            }
        }
    }
    (live_in, live_out)
}

/// The original `stack_heights` worklist (pre-refactor `stack.rs`).
fn reference_stack(
    view: &dyn CfgView,
) -> (HashMap<u64, pba_dataflow::stack::Frame>, HashMap<u64, pba_dataflow::stack::Frame>) {
    use pba_dataflow::stack::{transfer, Frame};
    use pba_dataflow::Height;
    let blocks = view.blocks();
    let bottom = Frame { sp: Height::Bottom, fp: Height::Bottom };
    let mut at_entry: HashMap<u64, Frame> = blocks.iter().map(|&b| (b, bottom)).collect();
    let mut at_exit: HashMap<u64, Frame> = blocks.iter().map(|&b| (b, bottom)).collect();
    let entry = view.entry();
    at_entry.insert(entry, Frame::entry());
    let mut work = vec![entry];
    while let Some(b) = work.pop() {
        let mut f = at_entry[&b];
        for i in view.insns(b) {
            f = transfer(i, f);
        }
        if f != at_exit[&b] {
            at_exit.insert(b, f);
            for &(s, _) in view.succ_edges(b) {
                let cur = at_entry[&s];
                let joined = cur.join(f);
                if joined != cur {
                    at_entry.insert(s, joined);
                    work.push(s);
                }
            }
        }
    }
    (at_entry, at_exit)
}

/// Reaching defs at block entry via the original dense fixpoint shape,
/// materialized as sorted def lists per block.
fn reference_reaching(view: &dyn CfgView) -> HashMap<u64, Vec<Def>> {
    let blocks = view.blocks();
    // gen/kill as def-sets per block, fixpoint over HashSet facts.
    use std::collections::HashSet;
    let mut all_defs: Vec<Def> = Vec::new();
    for &b in blocks {
        for i in view.insns(b) {
            for r in i.regs_written().iter() {
                let d = Def { addr: i.addr, reg: r };
                if !all_defs.contains(&d) {
                    all_defs.push(d);
                }
            }
        }
    }
    let by_reg = |r: Reg| all_defs.iter().copied().filter(move |d| d.reg == r);
    // Gen-retracting semantics (matching `ReachingSpec`): a later
    // same-block redef kills earlier defs of the register AND retracts
    // their gen bits, so only the last def per register flows out of the
    // block. (The pre-refactor loops kept earlier same-block gens alive;
    // that quirk was fixed deliberately and this oracle changed with it.)
    let transfer = |b: u64, inn: &HashSet<Def>| -> HashSet<Def> {
        let mut gen: HashSet<Def> = HashSet::new();
        let mut kill: HashSet<Def> = HashSet::new();
        for i in view.insns(b) {
            for r in i.regs_written().iter() {
                let this = Def { addr: i.addr, reg: r };
                kill.extend(by_reg(r));
                kill.remove(&this);
                gen.retain(|d| d.reg != r);
                gen.insert(this);
            }
        }
        let mut out: HashSet<Def> = inn.difference(&kill).copied().collect();
        out.extend(gen);
        out
    };
    let mut reach_in: HashMap<u64, HashSet<Def>> =
        blocks.iter().map(|&b| (b, HashSet::new())).collect();
    let mut work: Vec<u64> = blocks.to_vec();
    while let Some(b) = work.pop() {
        let out = transfer(b, &reach_in[&b]);
        for &(s, _) in view.succ_edges(b) {
            let inn = reach_in.get_mut(&s).unwrap();
            let before = inn.len();
            inn.extend(out.iter().copied());
            if inn.len() != before {
                work.push(s);
            }
        }
    }
    reach_in
        .into_iter()
        .map(|(b, s)| {
            let mut v: Vec<Def> = s.into_iter().collect();
            v.sort_unstable();
            (b, v)
        })
        .collect()
}

proptest! {
    // Each case parses a binary and runs 3 analyses and their reference
    // loops over every function; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn executors_and_legacy_loops_agree(cfg in arb_config()) {
        let cfg_graph = parsed_cfg(&cfg);
        prop_assert!(!cfg_graph.functions.is_empty());

        for f in cfg_graph.functions.values() {
            let view = FuncIr::build(&cfg_graph, f);
            let graph = FlowGraph::build(&view);

            // --- liveness ---
            let serial = liveness_on(&view, &graph, ExecutorKind::Serial);
            let (ref_in, ref_out) = reference_liveness(&view);
            for &b in view.blocks() {
                prop_assert_eq!(serial.live_in(b), ref_in[&b], "engine liveness != legacy ({})", f.name);
                prop_assert_eq!(serial.live_out(b), ref_out[&b]);
            }

            // --- stack heights ---
            let serial = stack_heights_on(&view, &graph, ExecutorKind::Serial);
            let (ref_entry, ref_exit) = reference_stack(&view);
            for &b in view.blocks() {
                prop_assert_eq!(serial.entry_frame(b), Some(ref_entry[&b]), "engine stack != legacy ({})", f.name);
                prop_assert_eq!(serial.exit_frame(b), Some(ref_exit[&b]));
            }

            // --- reaching definitions ---
            let serial = reaching_defs_on(&view, &graph, ExecutorKind::Serial);
            let reference = reference_reaching(&view);
            for &b in &f.blocks {
                let mut got = serial.reaching_at_entry(b);
                got.sort_unstable();
                prop_assert_eq!(&got, &reference[&b], "engine reaching != legacy ({})", f.name);
                // Point lookups agree with the materialized sets.
                for d in &reference[&b] {
                    prop_assert!(serial.def_reaches_entry(b, *d));
                }
            }
        }
    }

    #[test]
    fn run_all_and_run_all_ir_match_per_function_results(cfg in arb_config()) {
        let cfg_graph = parsed_cfg(&cfg);
        let ir = BinaryIr::build(&cfg_graph, 2);
        for threads in [1usize, 4] {
            let all_ir = pba_dataflow::run_all_ir(&ir, threads, ExecutorKind::Serial);
            prop_assert_eq!(all_ir.len(), cfg_graph.functions.len());
            for f in cfg_graph.functions.values() {
                let view = FuncIr::build(&cfg_graph, f);
                let graph = FlowGraph::build(&view);
                let b = &all_ir[&f.entry];
                let lone = liveness_on(&view, &graph, ExecutorKind::Serial);
                let stack = stack_heights_on(&view, &graph, ExecutorKind::Serial);
                let rd = reaching_defs_on(&view, &graph, ExecutorKind::Serial);
                for &blk in view.blocks() {
                    prop_assert_eq!(b.liveness.live_in(blk), lone.live_in(blk));
                    prop_assert_eq!(b.stack.entry_frame(blk), stack.entry_frame(blk));
                }
                prop_assert_eq!(&b.reaching.defs, &rd.defs);
            }
        }
    }
}

/// The Skewed-profile corpus: one giant function (past the Auto
/// threshold, thousands of blocks of deep diamond chains) among hundreds
/// of small ones. All three analyses must be byte-identical to serial
/// under every `Async` thread count and under `Auto`.
#[test]
fn async_matches_serial_on_skewed_corpus() {
    let mut gen_cfg = pba_gen::Profile::Skewed.config(0xA51C);
    gen_cfg.num_funcs = 40; // scale the small-function tail down for test time
    let g = generate(&gen_cfg);
    let elf = pba_elf::Elf::parse(g.elf).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    let cfg_graph = pba_parse::parse_parallel(&input, 2).cfg;
    let giant =
        cfg_graph.functions.values().map(|f| f.blocks.len()).max().expect("non-empty corpus");
    assert!(giant > 1000, "Skewed profile must keep its giant function ({giant} blocks)");

    for f in cfg_graph.functions.values() {
        let view = FuncIr::build(&cfg_graph, f);
        let graph = FlowGraph::build(&view);
        let live = liveness_on(&view, &graph, ExecutorKind::Serial);
        let stack = stack_heights_on(&view, &graph, ExecutorKind::Serial);
        let rd = reaching_defs_on(&view, &graph, ExecutorKind::Serial);
        let mut execs: Vec<ExecutorKind> =
            [1usize, 2, 4, 8].iter().map(|&t| ExecutorKind::Async(t)).collect();
        execs.push(ExecutorKind::Auto);
        for exec in execs {
            let l = liveness_on(&view, &graph, exec);
            let s = stack_heights_on(&view, &graph, exec);
            let r = reaching_defs_on(&view, &graph, exec);
            for &b in view.blocks() {
                assert_eq!(l.live_in(b), live.live_in(b), "{exec:?} liveness at {b:#x}");
                assert_eq!(l.live_out(b), live.live_out(b), "{exec:?} liveness at {b:#x}");
                assert_eq!(s.entry_frame(b), stack.entry_frame(b), "{exec:?} stack at {b:#x}");
                assert_eq!(s.exit_frame(b), stack.exit_frame(b), "{exec:?} stack at {b:#x}");
            }
            assert_eq!(r.defs, rd.defs, "{exec:?} def table");
            for &b in view.blocks() {
                let mut got = r.reaching_at_entry(b);
                let mut want = rd.reaching_at_entry(b);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{exec:?} reaching at {b:#x}");
            }
        }
    }
}
