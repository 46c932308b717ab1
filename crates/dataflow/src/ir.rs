//! The decode-once analysis IR, stored flat: one instruction arena per
//! binary plus everything every client analysis re-derived per run
//! before.
//!
//! The paper's premise is that the finalized CFG is a read-only artifact
//! every analysis shares. In practice the *CFG* was shared but the
//! expensive derivatives were not: each analysis re-decoded block bytes,
//! rebuilt the dense [`FlowGraph`], and re-ranked it in reverse
//! postorder. [`BinaryIr`] is those artifacts computed **once**: every
//! unique block decoded exactly once into one `Vec<Insn>` in block-address
//! order (shared blocks are stored once by construction), and per
//! function a [`FuncIr`] — the arena id of each member block, the
//! intra-procedural adjacency as [`Csr`] rows, the graph with its
//! memoized RPO ranks, and the loop forest built on first use — behind
//! the borrowing [`CfgView`] API, so
//! liveness, reaching defs, stack analysis, slicing, hpcstruct's query
//! phases and BinFeat's extractors all read the same slices.
//! `pba::Session::ir()` memoizes it so *decode-once* is a structural
//! invariant of the session, not per-consumer luck — measured against
//! [`pba_cfg::CodeRegion::decode_count`] by the driver's `tests/ir.rs`.

use crate::engine::FlowGraph;
use crate::loops::{loop_forest_on, LoopForest};
use crate::view::CfgView;
use pba_cfg::{Cfg, CodeRegion, Csr, EdgeKind, Function};
use pba_isa::Insn;
use rayon::prelude::*;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// Decode chunks per pool thread in [`BinaryIr::build`]: enough that a
/// slow chunk does not hold the pool up.
const CHUNKS_PER_THREAD: usize = 4;

/// The arena id of a member block the CFG has no block for.
const NO_BLOCK: u32 = u32::MAX;

/// Decoded instructions of a set of blocks, stored flat: one `Vec<Insn>`
/// in block-address order, the `[start, end)` of each block, and where
/// each block's instructions begin (`n + 1` offsets).
struct Arena {
    insns: Vec<Insn>,
    ranges: Vec<(u64, u64)>,
    offsets: Vec<u32>,
}

impl Arena {
    /// Decode the blocks `ranges` (ascending, disjoint) in order.
    fn decode(code: &CodeRegion, ranges: Vec<(u64, u64)>) -> Arena {
        let mut insns = Vec::new();
        let mut offsets = Vec::with_capacity(ranges.len() + 1);
        offsets.push(0);
        for &(start, end) in &ranges {
            code.insns_into(start, end, &mut insns);
            offsets.push(insns.len() as u32);
        }
        Arena { insns, ranges, offsets }
    }

    /// Decode `ranges` in contiguous chunks on `pool` and concatenate
    /// them: the same arena as [`Arena::decode`], in parallel.
    fn decode_on(pool: &rayon::ThreadPool, code: &CodeRegion, ranges: Vec<(u64, u64)>) -> Arena {
        let chunks = pool.current_num_threads() * CHUNKS_PER_THREAD;
        let parts: Vec<&[(u64, u64)]> =
            ranges.chunks(ranges.len().div_ceil(chunks).max(1)).collect();
        let parts: Vec<Arena> =
            pool.install(|| parts.par_iter().map(|c| Arena::decode(code, c.to_vec())).collect());
        let mut insns = Vec::with_capacity(parts.iter().map(|p| p.insns.len()).sum());
        let mut offsets = Vec::with_capacity(ranges.len() + 1);
        offsets.push(0);
        for part in parts {
            let base = insns.len() as u32;
            offsets.extend(part.offsets[1..].iter().map(|o| base + o));
            insns.extend(part.insns);
        }
        Arena { insns, ranges, offsets }
    }

    /// The id of the block starting at `start`.
    fn id(&self, start: u64) -> Option<u32> {
        self.ranges.binary_search_by_key(&start, |r| r.0).ok().map(|i| i as u32)
    }

    fn insns(&self, id: u32) -> &[Insn] {
        let id = id as usize;
        &self.insns[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.insns.capacity() * size_of::<Insn>()
            + self.ranges.capacity() * size_of::<(u64, u64)>()
            + self.offsets.capacity() * size_of::<u32>()
    }
}

/// One function's analysis IR: the arena id of each member block, the
/// intra-procedural adjacency, the shared [`FlowGraph`] (dense
/// indices + memoized RPO ranks), and the function's loop forest once
/// some consumer has asked for it. Built once, borrowed everywhere —
/// implements [`CfgView`], so every analysis in this crate runs over it
/// without decoding or allocating per query.
pub struct FuncIr {
    entry: u64,
    /// The instructions, shared with every function of the binary.
    arena: Arc<Arena>,
    /// Arena id per member block, dense order ([`NO_BLOCK`] if absent).
    ids: Vec<u32>,
    /// Intra-procedural successors per block, dense order.
    succs: Csr<(u64, EdgeKind)>,
    /// Intra-procedural predecessors per block, dense order.
    preds: Csr<(u64, EdgeKind)>,
    /// The dense graph (owns the block list and address index).
    graph: FlowGraph,
    /// The loop forest and its heap bytes, measured when it was built.
    loops: OnceLock<(Arc<LoopForest>, usize)>,
}

impl FuncIr {
    /// Build the IR of `func` within `cfg` over a private arena of just
    /// its blocks, decoding each member block exactly once.
    pub fn build(cfg: &Cfg, func: &Function) -> FuncIr {
        let blocks = func.blocks.iter().filter_map(|b| cfg.blocks.get(b));
        let mut ranges: Vec<_> = blocks.map(|b| (b.start, b.end)).collect();
        ranges.sort_unstable();
        FuncIr::assemble(cfg, func, &Arc::new(Arena::decode(&cfg.code, ranges)))
    }

    /// Build the IR of `func` over `arena`, which holds its blocks. The
    /// graph keeps each member's intra-procedural out-edges in `Cfg`
    /// order, and its by-target rows come out in `(src, kind)` order:
    /// the `Cfg`'s `in_edges` order. The address-keyed rows are those.
    fn assemble(cfg: &Cfg, func: &Function, arena: &Arc<Arena>) -> FuncIr {
        let mut blocks = func.blocks.clone();
        blocks.sort_unstable();
        let ids = blocks.iter().map(|&b| arena.id(b).unwrap_or(NO_BLOCK)).collect();
        let edges = blocks.iter().flat_map(|&b| {
            let intra = cfg.out_edges(b).iter().filter(|e| !e.kind.is_interprocedural());
            intra.map(move |e| (b, e.dst, e.kind))
        });
        let graph = FlowGraph::from_parts(&blocks, func.entry, edges);
        let succs = graph.succs.map(|&(j, kind)| (blocks[j as usize], kind));
        let preds = graph.preds.map(|&(i, kind)| (blocks[i as usize], kind));
        let arena = Arc::clone(arena);
        FuncIr { entry: func.entry, arena, ids, succs, preds, graph, loops: OnceLock::new() }
    }

    /// Function entry block address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Member block addresses, ascending (the dense order of every
    /// per-block array here and of the graph).
    pub fn blocks(&self) -> &[u64] {
        &self.graph.blocks
    }

    /// The dense graph with its memoized RPO ranks — pass this to the
    /// `_on` analysis entry points so all fixpoints share one ranking.
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// The function's natural-loop forest, built by the first caller
    /// (concurrent callers wait for it) and shared with every later one:
    /// hpcstruct, BinFeat and the session all read this one forest.
    pub fn loop_forest(&self) -> &Arc<LoopForest> {
        let (forest, _) = self.loops.get_or_init(|| {
            let forest = loop_forest_on(self, &self.graph);
            // The `Arc` allocation holds the forest beside two counts.
            let bytes = forest.heap_bytes() + size_of::<LoopForest>() + 2 * size_of::<usize>();
            (Arc::new(forest), bytes)
        });
        forest
    }

    /// The arena id of `block`, if it is a member the CFG has.
    fn id(&self, block: u64) -> Option<u32> {
        self.graph.id(block).map(|i| self.ids[i]).filter(|&id| id != NO_BLOCK)
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
        self.id(block).map(|id| self.arena.ranges[id as usize]).unwrap_or((block, block))
    }

    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.graph.id(block).map(|i| self.succs.row(i)).unwrap_or(&[])
    }

    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.graph.id(block).map(|i| self.preds.row(i)).unwrap_or(&[])
    }

    fn insns(&self, block: u64) -> &[Insn] {
        self.id(block).map(|id| self.arena.insns(id)).unwrap_or(&[])
    }
}

/// The whole-binary analysis IR: one arena holding each unique block's
/// instructions, decoded **exactly once** and stored **exactly once**
/// however many functions own the block, and one [`FuncIr`] per
/// function over it. This is the artifact `pba::Session::ir()`
/// memoizes — build it once, run every analysis over borrowed slices.
pub struct BinaryIr {
    arena: Arc<Arena>,
    /// Sorted by entry.
    funcs: Vec<FuncIr>,
}

impl BinaryIr {
    /// Build the IR of every function of `cfg` on a rayon pool of
    /// `threads` workers (0 = all available).
    pub fn build(cfg: &Cfg, threads: usize) -> BinaryIr {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("ir pool");
        let ranges = cfg.blocks.values().map(|b| (b.start, b.end)).collect();
        let arena = Arc::new(Arena::decode_on(&pool, &cfg.code, ranges));
        // Assemble per-function IRs in parallel, largest first.
        let mut funcs: Vec<&Function> = cfg.functions.values().collect();
        funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks.len()));
        let mut funcs: Vec<FuncIr> =
            pool.install(|| funcs.par_iter().map(|f| FuncIr::assemble(cfg, f, &arena)).collect());
        funcs.sort_unstable_by_key(|f| f.entry);
        BinaryIr { arena, funcs }
    }

    /// The IR of the function entered at `entry`.
    pub fn func(&self, entry: u64) -> Option<&FuncIr> {
        self.funcs.binary_search_by_key(&entry, |f| f.entry).ok().map(|i| &self.funcs[i])
    }

    /// Every function's IR, by ascending entry.
    pub fn funcs(&self) -> impl Iterator<Item = &FuncIr> {
        self.funcs.iter()
    }

    /// Function count.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True when the binary has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Instructions in the binary's unique blocks — exactly how many
    /// decodes building this IR performed (the decode-once invariant
    /// the session tests assert).
    pub fn unique_block_insn_count(&self) -> usize {
        self.arena.insns.len()
    }

    /// Instruction-storage bytes: the arena, which holds each unique
    /// block once however many functions own it.
    pub fn shared_insn_bytes(&self) -> usize {
        self.arena.insns.capacity() * size_of::<Insn>()
    }

    /// Estimated total heap bytes: [`BinaryIr::built_heap_bytes`] plus
    /// [`BinaryIr::memo_heap_bytes`] (the session's resident-size
    /// contribution of this artifact).
    pub fn heap_bytes(&self) -> usize {
        self.built_heap_bytes() + self.memo_heap_bytes()
    }

    /// Heap bytes fixed when the IR is built: the arena once, plus every
    /// function's arena ids, adjacency and graph as built.
    pub fn built_heap_bytes(&self) -> usize {
        let own = |f: &FuncIr| {
            f.ids.capacity() * size_of::<u32>()
                + f.succs.heap_bytes()
                + f.preds.heap_bytes()
                + f.graph.heap_bytes()
        };
        self.arena.heap_bytes() + self.funcs.iter().map(own).sum::<usize>()
    }

    /// Heap bytes the functions memoized since the build: the RPO ranks
    /// of each graph and the loop forests, each sized when it was built,
    /// so this reads one figure per function and walks no forest.
    pub fn memo_heap_bytes(&self) -> usize {
        let memo =
            |f: &FuncIr| f.graph.rank_heap_bytes() + f.loops.get().map_or(0, |&(_, bytes)| bytes);
        self.funcs.iter().map(memo).sum()
    }

    /// How many functions' loop forests have been built.
    pub fn loop_forests_built(&self) -> usize {
        self.funcs.iter().filter(|f| f.loops.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_cfg::{Block, Edge, RetStatus};
    use pba_isa::x86::encode;
    use pba_isa::{Arch, ControlFlow, Reg};
    use std::collections::BTreeMap;

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
        let edges = vec![
            Edge { src: 0x1000, dst: b1, kind: EdgeKind::CallFallthrough },
            Edge { src: 0x1000, dst: 0x1500, kind: EdgeKind::Call },
        ];
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
        assert_eq!(ir.insns(0x1000).len() + ir.insns(b1).len(), 3);
        assert!(ir.ends_in_call(0x1000), "read off the arena, no decode");
        assert!(!ir.ends_in_call(b1));
        assert_eq!(ir.insns(b1).last().map(|i| i.control_flow()), Some(ControlFlow::Ret));
        assert_eq!(ir.succ_edges(0x1000), &[(b1, EdgeKind::CallFallthrough)], "no call edge");
        assert_eq!(ir.pred_edges(b1), &[(0x1000, EdgeKind::CallFallthrough)]);
        assert_eq!(ir.block_range(0x1000), (0x1000, b1));
        assert_eq!(ir.insns(0xdead), &[] as &[Insn], "non-member is empty, not a panic");
    }
}
