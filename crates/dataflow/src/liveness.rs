//! Backward register-liveness analysis (AC6).
//!
//! Classic may-liveness over bit-mask register sets: a register is live
//! at a point if some path to a use avoids an intervening definition.
//! Block-level transfer functions are precomputed (`gen`/`kill` masks)
//! into a [`LivenessSpec`]; the fixpoint itself is the generic engine's
//! ([`crate::engine::fixpoint`]).
//! [`RegSet`] facts are `Copy`, so with the engine's scratch-fact loop a
//! liveness fixpoint performs no per-visit allocation at all.
//!
//! ABI boundary conditions (System V):
//! * at `ret`: the return register and callee-saved registers are live;
//! * at a call: argument registers are considered used and caller-saved
//!   registers killed (the callee may clobber them).

use crate::engine::{fixpoint, DataflowSpec, Direction, ExecutorKind, FlowGraph};
use crate::view::CfgView;
use pba_isa::{ControlFlow, Reg, RegSet};
use std::sync::Arc;

/// Per-block liveness facts, dense over the function's block list with
/// address-keyed accessors ([`LivenessResult::live_in`] /
/// [`LivenessResult::live_out`]) for compatibility.
#[derive(Debug, Clone, Default)]
pub struct LivenessResult {
    blocks: Arc<Vec<u64>>,
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl LivenessResult {
    /// Block addresses in the dense order of the fact vectors.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Dense index of `block` in the fact vectors: the graph's block
    /// list is address-sorted.
    fn id(&self, block: u64) -> Option<usize> {
        self.blocks.binary_search(&block).ok()
    }

    /// Bytes of heap owned by the fact vectors (the shared block list
    /// belongs to the function's graph, counted with the IR).
    pub fn heap_bytes(&self) -> usize {
        (self.live_in.capacity() + self.live_out.capacity()) * std::mem::size_of::<RegSet>()
    }

    /// Registers live at `block`'s entry (empty for non-members).
    pub fn live_in(&self, block: u64) -> RegSet {
        self.id(block).map(|i| self.live_in[i]).unwrap_or(RegSet::EMPTY)
    }

    /// Registers live at `block`'s exit (empty for non-members).
    pub fn live_out(&self, block: u64) -> RegSet {
        self.id(block).map(|i| self.live_out[i]).unwrap_or(RegSet::EMPTY)
    }

    /// Number of live registers at block entry (BinFeat's feature).
    pub fn live_in_count(&self, block: u64) -> u32 {
        self.live_in(block).len()
    }
}

/// Registers deemed live at a function exit.
fn exit_live() -> RegSet {
    let mut s = Reg::sysv_callee_saved();
    s.insert(Reg::RAX);
    s.insert(Reg::RSP);
    s
}

/// Per-instruction transfer `live = gen ∪ (live \ kill)` applied in
/// reverse; calls additionally use args and kill caller-saved registers.
fn transfer_insn(i: &pba_isa::Insn, mut live: RegSet) -> RegSet {
    match i.control_flow() {
        ControlFlow::Call { .. } | ControlFlow::IndirectCall => {
            live = live.minus(Reg::sysv_caller_saved());
            live = live.union(RegSet::from_iter(Reg::SYSV_ARGS));
            live.insert(Reg::RSP);
            live
        }
        _ => {
            live = live.minus(i.regs_written());
            live.union(i.regs_read())
        }
    }
}

/// Liveness as a [`DataflowSpec`]: backward may-analysis whose facts are
/// [`RegSet`] masks, with `gen`/`kill` precomputed per block — dense
/// vectors over the view's block list, found by binary search in that
/// (ascending) list.
pub struct LivenessSpec<'v> {
    blocks: &'v [u64],
    gen: Vec<RegSet>,
    kill: Vec<RegSet>,
}

impl<'v> LivenessSpec<'v> {
    /// Precompute block transfer masks from `view` (each block's
    /// already-decoded instructions are read once, borrowed).
    pub fn build(view: &'v dyn CfgView) -> LivenessSpec<'v> {
        let blocks = view.blocks();
        let mut gen = vec![RegSet::EMPTY; blocks.len()];
        let mut kill = vec![RegSet::EMPTY; blocks.len()];
        for (bi, &b) in blocks.iter().enumerate() {
            let mut g = RegSet::EMPTY;
            let mut k = RegSet::EMPTY;
            // Forward scan: a read is gen only if not already killed.
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
            gen[bi] = g;
            kill[bi] = k;
        }
        LivenessSpec { blocks, gen, kill }
    }
}

impl DataflowSpec for LivenessSpec<'_> {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _block: u64) -> RegSet {
        RegSet::EMPTY
    }

    fn boundary(&self, _block: u64) -> RegSet {
        exit_live()
    }

    fn meet(&self, into: &mut RegSet, incoming: &RegSet) {
        *into = into.union(*incoming);
    }

    fn transfer(&self, block: u64, input: &RegSet) -> RegSet {
        let i = self.blocks.binary_search(&block).expect("spec covers every graph block");
        self.gen[i].union(input.minus(self.kill[i]))
    }

    // `RegSet` is `Copy`: the default `transfer_into` is already
    // allocation-free, no override needed.
}

/// Run liveness over one function's [`FlowGraph`] (so whole-binary
/// drivers can share one graph — and its memoized RPO ranks — across all
/// analyses; [`crate::ir::FuncIr::graph`] is that graph). `_exec` is
/// ignored (see [`ExecutorKind`]).
pub fn liveness_on(view: &dyn CfgView, graph: &FlowGraph, _exec: ExecutorKind) -> LivenessResult {
    let spec = LivenessSpec::build(view);
    // Direction-relative input is the block's live-out set.
    let (live_out, live_in) = fixpoint(&spec, graph);
    LivenessResult { blocks: Arc::clone(&graph.blocks), live_in, live_out }
}

/// Walk a block's instructions backward to compute liveness *before*
/// each instruction, given the block's live-out set. Returns pairs of
/// `(insn address, live set before the instruction)` in address order.
pub fn per_insn_liveness(
    view: &dyn CfgView,
    result: &LivenessResult,
    block: u64,
) -> Vec<(u64, RegSet)> {
    let insns = view.insns(block);
    let mut live = result.live_out(block);
    let mut out: Vec<(u64, RegSet)> = Vec::with_capacity(insns.len());
    for i in insns.iter().rev() {
        live = transfer_insn(i, live);
        out.push((i.addr, live));
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use pba_isa::x86::decode_one;

    fn decode_seq(bytes: &[u8], base: u64) -> Vec<pba_isa::Insn> {
        let mut out = vec![];
        let mut at = 0usize;
        while at < bytes.len() {
            let i = decode_one(&bytes[at..], base + at as u64).unwrap();
            at += i.len as usize;
            out.push(i);
        }
        out
    }

    #[test]
    fn straightline_use_def() {
        // mov rax, rdi ; add rax, rsi ; ret
        let mut code = vec![];
        pba_isa::x86::encode::mov_rr(&mut code, Reg::RAX, Reg::RDI);
        pba_isa::x86::encode::alu_rr(&mut code, pba_isa::insn::AluKind::Add, Reg::RAX, Reg::RSI);
        pba_isa::x86::encode::ret(&mut code);
        let end = 0x1000 + code.len() as u64;
        let view = VecView::new(0x1000, vec![(0x1000, end, decode_seq(&code, 0x1000))], vec![]);
        let r = liveness_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let live_in = r.live_in(0x1000);
        assert!(live_in.contains(Reg::RDI), "rdi is an argument use");
        assert!(live_in.contains(Reg::RSI));
        assert!(!live_in.contains(Reg::RAX), "rax defined before use");
    }

    #[test]
    fn diamond_merges_liveness() {
        // b0: cmp rdi, 0; je b2
        // b1: mov rax, rsi; jmp b3
        // b2: mov rax, rdx
        // b3: ret
        let enc = pba_isa::x86::encode::cmp_ri;
        let mut c0 = vec![];
        enc(&mut c0, Reg::RDI, 0);
        let j = pba_isa::x86::encode::jcc_rel32(&mut c0, pba_isa::insn::Cond::E);
        pba_isa::x86::encode::patch_rel32(&mut c0, j, 0x40);
        let b0 = decode_seq(&c0, 0x1000);
        let b0_end = 0x1000 + c0.len() as u64;

        let mut c1 = vec![];
        pba_isa::x86::encode::mov_rr(&mut c1, Reg::RAX, Reg::RSI);
        let j = pba_isa::x86::encode::jmp_rel32(&mut c1);
        pba_isa::x86::encode::patch_rel32(&mut c1, j, 0x100);
        let b1 = decode_seq(&c1, 0x2000);
        let b1_end = 0x2000 + c1.len() as u64;

        let mut c2 = vec![];
        pba_isa::x86::encode::mov_rr(&mut c2, Reg::RAX, Reg::RDX);
        let b2 = decode_seq(&c2, 0x3000);
        let b2_end = 0x3000 + c2.len() as u64;

        let mut c3 = vec![];
        pba_isa::x86::encode::ret(&mut c3);
        let b3 = decode_seq(&c3, 0x4000);
        let b3_end = 0x4000 + c3.len() as u64;

        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, b0_end, b0),
                (0x2000, b1_end, b1),
                (0x3000, b2_end, b2),
                (0x4000, b3_end, b3),
            ],
            vec![
                (0x1000, 0x3000, EdgeKind::CondTaken),
                (0x1000, 0x2000, EdgeKind::CondNotTaken),
                (0x2000, 0x4000, EdgeKind::Direct),
                (0x3000, 0x4000, EdgeKind::Fallthrough),
            ],
        );
        let r = liveness_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let live_in = r.live_in(0x1000);
        assert!(live_in.contains(Reg::RDI));
        assert!(live_in.contains(Reg::RSI), "used on the b1 path");
        assert!(live_in.contains(Reg::RDX), "used on the b2 path");
        // rax defined on both paths before b3's use-as-return.
        assert!(!live_in.contains(Reg::RAX));
        // b3 live-in: exit conventions.
        assert!(r.live_in(0x4000).contains(Reg::RAX));
    }

    #[test]
    fn call_clobbers_caller_saved() {
        // mov r10, rdi ; call X ; ret   — r10 dies at the call.
        let mut code = vec![];
        pba_isa::x86::encode::mov_rr(&mut code, Reg::R10, Reg::RDI);
        let c = pba_isa::x86::encode::call_rel32(&mut code);
        pba_isa::x86::encode::patch_rel32(&mut code, c, 0x500);
        pba_isa::x86::encode::ret(&mut code);
        let end = 0x1000 + code.len() as u64;
        let view = VecView::new(0x1000, vec![(0x1000, end, decode_seq(&code, 0x1000))], vec![]);
        let r = liveness_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let per = per_insn_liveness(&view, &r, 0x1000);
        // Before the call: argument registers live.
        let before_call = per[1].1;
        assert!(before_call.contains(Reg::RDI));
        // r10 (caller-saved) is not live after its definition since the
        // call kills it before any use.
        let before_mov = per[0].1;
        assert!(!before_mov.contains(Reg::R10));
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // b0: mov rcx, rdi
        // b1: add rcx, rsi ; cmp rcx, 100 ; jl b1   (self loop)
        // b2: ret
        let mut c0 = vec![];
        pba_isa::x86::encode::mov_rr(&mut c0, Reg::RCX, Reg::RDI);
        let b0 = decode_seq(&c0, 0x1000);
        let b0_end = 0x1000 + c0.len() as u64;
        let mut c1 = vec![];
        pba_isa::x86::encode::alu_rr(&mut c1, pba_isa::insn::AluKind::Add, Reg::RCX, Reg::RSI);
        pba_isa::x86::encode::cmp_ri(&mut c1, Reg::RCX, 100);
        let j = pba_isa::x86::encode::jcc_rel32(&mut c1, pba_isa::insn::Cond::L);
        pba_isa::x86::encode::patch_rel32(&mut c1, j, 0);
        let b1 = decode_seq(&c1, 0x2000);
        let b1_end = 0x2000 + c1.len() as u64;
        let mut c2 = vec![];
        pba_isa::x86::encode::ret(&mut c2);
        let b2 = decode_seq(&c2, 0x3000);

        let view = VecView::new(
            0x1000,
            vec![(0x1000, b0_end, b0), (0x2000, b1_end, b1), (0x3000, 0x3001, b2)],
            vec![
                (0x1000, 0x2000, EdgeKind::Fallthrough),
                (0x2000, 0x2000, EdgeKind::CondTaken),
                (0x2000, 0x3000, EdgeKind::CondNotTaken),
            ],
        );
        let r = liveness_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        // rsi live around the loop (used every iteration).
        assert!(r.live_in(0x2000).contains(Reg::RSI));
        assert!(r.live_out(0x2000).contains(Reg::RSI), "live across the back edge");
        assert!(r.live_in(0x1000).contains(Reg::RDI));
    }
}
