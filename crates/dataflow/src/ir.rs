//! The decode-once analysis IR: per-function instruction arenas plus
//! everything every client analysis re-derived per run before.
//!
//! The paper's premise is that the finalized CFG is a read-only artifact
//! every analysis shares. In practice the *CFG* was shared but the
//! expensive derivatives were not: each analysis re-decoded block bytes,
//! rebuilt the dense [`FlowGraph`], and re-ranked it in reverse
//! postorder. [`FuncIr`] is those artifacts computed **once** per
//! function — one decoded-instruction arena (`Vec<Insn>` + per-block
//! index ranges), the intra-procedural adjacency, the graph with its
//! memoized RPO ranks, and per-block summary bits (terminator kind,
//! `ends_in_call`) — behind the borrowing [`CfgView`] API, so liveness,
//! reaching defs, stack analysis, slicing, hpcstruct's query phases and
//! BinFeat's extractors all read the same slices. [`BinaryIr`] is the
//! whole-binary map of them, decoding each unique block exactly once
//! (shared blocks are copied into each owning function's arena, not
//! re-decoded); `pba::Session::ir()` memoizes it so *decode-once* is a
//! structural invariant of the session, not per-consumer luck —
//! measured against [`pba_cfg::CodeRegion::decode_count`] by the
//! driver's `tests/ir.rs`.

use crate::engine::FlowGraph;
use crate::view::CfgView;
use pba_cfg::{Cfg, EdgeKind, Function};
use pba_isa::{ControlFlow, Insn};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Precomputed facts about one block, answered without touching the
/// arena (let alone re-decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Control-flow category of the block's last instruction
    /// (`None` for an empty block).
    pub terminator: Option<ControlFlow>,
    /// Whether the block ends in a (direct or indirect) call — the bit
    /// liveness consults at call boundaries.
    pub ends_in_call: bool,
}

impl BlockSummary {
    fn of(insns: &[Insn]) -> BlockSummary {
        let terminator = insns.last().map(|i| i.control_flow());
        let ends_in_call =
            matches!(terminator, Some(ControlFlow::Call { .. }) | Some(ControlFlow::IndirectCall));
        BlockSummary { terminator, ends_in_call }
    }
}

/// One function's analysis IR: decoded instruction arena, byte ranges,
/// intra-procedural adjacency, block summaries, and the shared
/// [`FlowGraph`] (dense indices + memoized RPO ranks). Built once,
/// borrowed everywhere — implements [`CfgView`], so every analysis in
/// this crate runs over it without decoding or allocating per query.
pub struct FuncIr {
    entry: u64,
    /// `[start, end)` byte range per block, dense order.
    ranges: Vec<(u64, u64)>,
    /// Each block's decoded instructions, dense order. The handles are
    /// shared: a block owned by several functions (shared code) stores
    /// its instructions once in the binary, every owner holding the same
    /// `Arc` — borrows served through [`CfgView::insns`] are unchanged.
    block_insns: Vec<Arc<[Insn]>>,
    /// Total instructions across all blocks (cached sum).
    insn_total: usize,
    /// Intra-procedural successors per block, dense order.
    succs: Vec<Vec<(u64, EdgeKind)>>,
    /// Intra-procedural predecessors per block, dense order.
    preds: Vec<Vec<(u64, EdgeKind)>>,
    /// Per-block summary bits, dense order.
    summaries: Vec<BlockSummary>,
    /// The dense graph (owns the block list and address index).
    graph: FlowGraph,
}

impl FuncIr {
    /// Build the IR of `func` within `cfg`, decoding each member block
    /// exactly once.
    pub fn build(cfg: &Cfg, func: &Function) -> FuncIr {
        FuncIr::assemble(cfg, func, |start, end| cfg.code.insns(start, end).into())
    }

    /// Build the IR from pre-decoded block bodies (`insns_of(start, end)`
    /// returns the block's instruction handle — [`BinaryIr::build`] uses
    /// this to decode shared blocks once for the whole binary and hand
    /// every owning function the same `Arc`).
    fn assemble(cfg: &Cfg, func: &Function, insns_of: impl Fn(u64, u64) -> Arc<[Insn]>) -> FuncIr {
        let mut blocks = func.blocks.clone();
        blocks.sort_unstable();
        let members: std::collections::HashSet<u64> = blocks.iter().copied().collect();

        let mut ranges = Vec::with_capacity(blocks.len());
        let mut block_insns: Vec<Arc<[Insn]>> = Vec::with_capacity(blocks.len());
        let mut insn_total = 0usize;
        let mut summaries = Vec::with_capacity(blocks.len());
        let mut succs = Vec::with_capacity(blocks.len());
        let mut preds = Vec::with_capacity(blocks.len());
        let mut edges: Vec<(u64, u64, EdgeKind)> = Vec::new();
        for &b in &blocks {
            let (start, end) = match cfg.blocks.get(&b) {
                Some(blk) => (blk.start, blk.end),
                None => (b, b),
            };
            ranges.push((start, end));
            let insns = insns_of(start, end);
            summaries.push(BlockSummary::of(&insns));
            insn_total += insns.len();
            block_insns.push(insns);
            let s: Vec<(u64, EdgeKind)> = cfg
                .out_edges(b)
                .iter()
                .filter(|e| !e.kind.is_interprocedural() && members.contains(&e.dst))
                .map(|e| (e.dst, e.kind))
                .collect();
            edges.extend(s.iter().map(|&(d, k)| (b, d, k)));
            succs.push(s);
            preds.push(
                cfg.in_edges(b)
                    .iter()
                    .filter(|e| !e.kind.is_interprocedural() && members.contains(&e.src))
                    .map(|e| (e.src, e.kind))
                    .collect(),
            );
        }
        let graph = FlowGraph::from_parts(blocks, func.entry, &edges);
        FuncIr {
            entry: func.entry,
            ranges,
            block_insns,
            insn_total,
            succs,
            preds,
            summaries,
            graph,
        }
    }

    /// Function entry block address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Member block addresses, ascending (the dense order of every
    /// per-block vector here and of the graph).
    pub fn blocks(&self) -> &[u64] {
        &self.graph.blocks
    }

    /// The dense graph with its memoized RPO ranks — pass this to the
    /// `_on` analysis entry points so all fixpoints share one ranking.
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// The summary bits of `block`, if it is a member.
    pub fn summary(&self, block: u64) -> Option<&BlockSummary> {
        self.graph.index_of(block).map(|i| &self.summaries[i])
    }

    /// Total decoded instructions across the function's blocks.
    pub fn insn_count(&self) -> usize {
        self.insn_total
    }

    /// The shared instruction handle of `block`, if it is a member
    /// (what [`BinaryIr`]'s storage accounting and the sharing tests
    /// inspect; analyses use the borrowing [`CfgView::insns`]).
    pub fn block_insns(&self, block: u64) -> Option<&Arc<[Insn]>> {
        self.graph.index_of(block).map(|i| &self.block_insns[i])
    }

    /// Estimated heap bytes of the function's structure — adjacency,
    /// ranges, summaries, graph — *excluding* instruction storage, which
    /// is shared and accounted once per unique block by
    /// [`BinaryIr::heap_bytes`].
    pub fn struct_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let edges: usize = self
            .succs
            .iter()
            .chain(self.preds.iter())
            .map(|v| {
                size_of::<Vec<(u64, EdgeKind)>>() + v.capacity() * size_of::<(u64, EdgeKind)>()
            })
            .sum();
        self.ranges.capacity() * size_of::<(u64, u64)>()
            + self.block_insns.capacity() * size_of::<Arc<[Insn]>>()
            + self.summaries.capacity() * size_of::<BlockSummary>()
            + edges
            + self.graph.heap_bytes()
    }
}

impl CfgView for FuncIr {
    fn entry(&self) -> u64 {
        self.entry
    }

    fn blocks(&self) -> &[u64] {
        &self.graph.blocks
    }

    fn block_range(&self, block: u64) -> (u64, u64) {
        self.graph.index_of(block).map(|i| self.ranges[i]).unwrap_or((block, block))
    }

    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.graph.index_of(block).map(|i| self.succs[i].as_slice()).unwrap_or(&[])
    }

    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.graph.index_of(block).map(|i| self.preds[i].as_slice()).unwrap_or(&[])
    }

    fn insns(&self, block: u64) -> &[Insn] {
        match self.graph.index_of(block) {
            Some(i) => &self.block_insns[i],
            None => &[],
        }
    }

    fn ends_in_call(&self, block: u64) -> bool {
        self.summary(block).map(|s| s.ends_in_call).unwrap_or(false)
    }
}

/// The whole-binary analysis IR: one [`FuncIr`] per function, built in
/// parallel, with each unique block's bytes decoded **exactly once**
/// and stored **exactly once** — functions sharing a block hold the
/// same `Arc<[Insn]>` handle, so shared code costs the binary one copy
/// no matter how many functions own it. This is the artifact
/// `pba::Session::ir()` memoizes — build it once, run every analysis
/// over borrowed slices.
pub struct BinaryIr {
    funcs: HashMap<u64, FuncIr>,
    insn_total: usize,
    unique_block_insns: usize,
}

impl BinaryIr {
    /// Build the IR of every function of `cfg` on a rayon pool of
    /// `threads` workers (0 = all available).
    pub fn build(cfg: &Cfg, threads: usize) -> BinaryIr {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("ir pool");
        // Decode every unique block once, in parallel, into the shared
        // storage handles.
        let block_list: Vec<(u64, u64)> = cfg.blocks.values().map(|b| (b.start, b.end)).collect();
        let decoded_vec: Vec<(u64, Arc<[Insn]>)> = pool.install(|| {
            block_list
                .par_iter()
                .map(|&(start, end)| (start, Arc::from(cfg.code.insns(start, end))))
                .collect()
        });
        let unique_block_insns = decoded_vec.iter().map(|(_, v)| v.len()).sum();
        let decoded: HashMap<u64, Arc<[Insn]>> = decoded_vec.into_iter().collect();

        // Assemble per-function IRs in parallel, largest first. Owners
        // of a shared block clone the *handle*, not the instructions —
        // once `decoded` drops below, each block's strong count is
        // exactly its number of owning functions.
        let mut funcs: Vec<&Function> = cfg.functions.values().collect();
        funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks.len()));
        let irs: Vec<(u64, FuncIr)> = pool.install(|| {
            funcs
                .par_iter()
                .map(|f| {
                    let ir = FuncIr::assemble(cfg, f, |start, _end| {
                        decoded.get(&start).cloned().unwrap_or_else(|| Arc::from(Vec::new()))
                    });
                    (f.entry, ir)
                })
                .collect()
        });
        let insn_total = irs.iter().map(|(_, ir)| ir.insn_count()).sum();
        BinaryIr { funcs: irs.into_iter().collect(), insn_total, unique_block_insns }
    }

    /// The IR of the function entered at `entry`.
    pub fn func(&self, entry: u64) -> Option<&FuncIr> {
        self.funcs.get(&entry)
    }

    /// Every function's IR (unordered).
    pub fn funcs(&self) -> impl Iterator<Item = &FuncIr> {
        self.funcs.values()
    }

    /// Function count.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True when the binary has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Total arena instructions across all functions (shared blocks
    /// counted once per owning function).
    pub fn insn_count(&self) -> usize {
        self.insn_total
    }

    /// Instructions in the binary's unique blocks — exactly how many
    /// decodes building this IR performed (the decode-once invariant
    /// the session tests assert).
    pub fn unique_block_insn_count(&self) -> usize {
        self.unique_block_insns
    }

    /// Instruction-storage bytes actually resident: each unique block's
    /// `Arc<[Insn]>` counted once, however many functions share it.
    pub fn shared_insn_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0usize;
        for f in self.funcs.values() {
            for b in f.blocks() {
                if let Some(handle) = f.block_insns(*b) {
                    if seen.insert(Arc::as_ptr(handle)) {
                        bytes += handle.len() * std::mem::size_of::<Insn>();
                    }
                }
            }
        }
        bytes
    }

    /// Estimated total heap bytes: unique instruction storage plus every
    /// function's structural vectors (the session's resident-size
    /// contribution of this artifact).
    pub fn heap_bytes(&self) -> usize {
        self.shared_insn_bytes() + self.funcs.values().map(FuncIr::struct_heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_cfg::{Block, CodeRegion, Edge, RetStatus};
    use pba_isa::x86::encode;
    use pba_isa::{Arch, Reg};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn from_view_preserves_shape_and_summaries() {
        // b0: mov rax, rdi ; call X   b1: ret
        let mut code = vec![];
        encode::mov_rr(&mut code, Reg::RAX, Reg::RDI);
        let c = encode::call_rel32(&mut code);
        encode::patch_rel32(&mut code, c, 0x500);
        let b1 = 0x1000 + code.len() as u64;
        encode::ret(&mut code);
        let end = 0x1000 + code.len() as u64;

        let blocks = BTreeMap::from([
            (0x1000, Block { start: 0x1000, end: b1 }),
            (b1, Block { start: b1, end }),
        ]);
        let edges = BTreeSet::from([
            Edge { src: 0x1000, dst: b1, kind: EdgeKind::CallFallthrough },
            Edge { src: 0x1000, dst: 0x1500, kind: EdgeKind::Call },
        ]);
        let f = Function {
            entry: 0x1000,
            name: "f".into(),
            blocks: vec![b1, 0x1000],
            ret_status: RetStatus::Returns,
        };
        let region = Arc::new(CodeRegion::new(Arch::X86_64, 0x1000, code));
        let cfg = Cfg::new(blocks, edges, BTreeMap::from([(0x1000, f.clone())]), region);

        let ir = FuncIr::build(&cfg, &f);
        assert_eq!(ir.blocks(), &[0x1000, b1]);
        assert_eq!(ir.insns(0x1000), cfg.code.insns(0x1000, b1).as_slice());
        assert_eq!(ir.insn_count(), 3);
        assert!(ir.ends_in_call(0x1000), "summary bit, no decode");
        assert!(!ir.ends_in_call(b1));
        assert_eq!(ir.summary(b1).unwrap().terminator, Some(ControlFlow::Ret));
        assert_eq!(ir.succ_edges(0x1000), &[(b1, EdgeKind::CallFallthrough)], "no call edge");
        assert_eq!(ir.pred_edges(b1), &[(0x1000, EdgeKind::CallFallthrough)]);
        assert_eq!(ir.block_range(0x1000), (0x1000, b1));
        assert_eq!(ir.insns(0xdead), &[] as &[Insn], "non-member is empty, not a panic");
    }
}
