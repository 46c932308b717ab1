//! The generic dataflow engine: one fixpoint, many analyses.
//!
//! The paper's thesis is that once the CFG is finalized and read-only,
//! *any* client analysis can run in parallel. This module is the
//! machinery that makes that true for dataflow analyses rather than
//! per-analysis luck: an analysis describes itself as a
//! [`DataflowSpec`] — direction, lattice bottom, boundary fact, meet,
//! and block transfer — and [`fixpoint`] drives the Kildall worklist to
//! the least fixpoint: a priority worklist in reverse postorder (from
//! [`pba_cfg::order`]) on the calling thread.
//!
//! The hot loop is *allocation-free*: facts live in dense `Vec`s indexed
//! by block, the worklist priority is the [`FlowGraph`]'s memoized dense
//! RPO ranks (computed at most once per direction, shared by every
//! analysis that reuses the graph), and each visit recomputes its input
//! into a reused scratch fact and writes its output through
//! [`DataflowSpec::transfer_into`] — no per-visit fact allocation for
//! the bit-vector analyses.
//!
//! Parallelism is *across* functions, as in the paper: [`run_all_ir`] /
//! [`run_per_function_ir`] fan work over a size-sorted list of one
//! decoded [`crate::ir::BinaryIr`]'s functions on a sized rayon pool
//! (the Listing 7 `schedule(dynamic)` shape), each function's fixpoints
//! on one worker.

use crate::ir::{BinaryIr, FuncIr};
use crate::liveness::{liveness_on, LivenessResult};
use crate::reaching::{reaching_defs_on, ReachingDefs};
use crate::stack::{stack_heights_on, StackResult};
use crate::view::CfgView;
use pba_cfg::order::rpo_ranks_dense;
use pba_cfg::{Csr, EdgeKind};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// Engine work counters, exposed for benchmarks. Monotonic and
/// process-global: a measurement reads the difference across the section
/// it measures.
pub mod stats {
    pub use pba_concurrent::stats::Counter;

    /// Block visits (one input-recompute + transfer) by [`super::fixpoint`].
    pub static VISITS: Counter = Counter::new();
    /// Kept for the benchmark suite, which reads it; always 0.
    pub static ASYNC_ENQUEUED: Counter = Counter::new();
    /// Kept for the benchmark suite, which reads it; always 0.
    pub static ASYNC_STOLEN: Counter = Counter::new();
}

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exits (e.g. reaching definitions, stack height).
    Forward,
    /// Facts flow exits → entry (e.g. liveness).
    Backward,
}

/// A dataflow analysis, described declaratively.
///
/// Implementations must be monotone: `transfer` may only grow (in the
/// lattice order implied by `meet`) when its input grows. Every spec in
/// this crate is; the uniqueness of the least fixpoint, and so the
/// independence of results from visit order, depends on it.
pub trait DataflowSpec {
    /// The lattice element attached to each block boundary. `Send +
    /// Sync` lets facts cross threads: the benchmark suite's round-based
    /// baseline shares and returns them across rayon workers.
    type Fact: Clone + PartialEq + Send + Sync;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The lattice bottom for `block` (the "no information yet" value
    /// every boundary starts from).
    fn bottom(&self, block: u64) -> Self::Fact;

    /// The fact injected at direction-source blocks: the function entry
    /// for forward problems, the exit blocks for backward ones.
    fn boundary(&self, block: u64) -> Self::Fact;

    /// Join `incoming` into `into` (the lattice meet/join).
    fn meet(&self, into: &mut Self::Fact, incoming: &Self::Fact);

    /// Apply `block`'s transfer function to its direction-input fact.
    fn transfer(&self, block: u64, input: &Self::Fact) -> Self::Fact;

    /// Apply `block`'s transfer function, writing the result into `out`
    /// (whose prior contents are arbitrary and must be fully
    /// overwritten). [`fixpoint`] calls *this* on its hot path with a
    /// reused scratch fact; the default falls back to [`Self::transfer`]
    /// and costs one fact allocation per visit, so specs whose facts
    /// heap-allocate (bit vectors, sets) should override it with an
    /// in-place computation.
    fn transfer_into(&self, block: u64, input: &Self::Fact, out: &mut Self::Fact) {
        *out = self.transfer(block, input);
    }

    /// Meet the fact arriving over the CFG edge `src → dst` (of `kind`)
    /// into the receiving block's input `into`. `fact` is the value
    /// leaving the direction-predecessor (the source block's output for
    /// forward problems, the destination block's output for backward
    /// ones). The default is plain [`Self::meet`]; specs whose transfer
    /// depends on *how* control reached a block (e.g. the taken/not-taken
    /// side of a guarding branch in [`crate::slice`]) override it to
    /// adjust each incoming element on its way into `into`, without
    /// materializing the adjusted fact.
    fn meet_edge(
        &self,
        into: &mut Self::Fact,
        src: u64,
        dst: u64,
        kind: EdgeKind,
        fact: &Self::Fact,
    ) {
        let _ = (src, dst, kind);
        self.meet(into, fact);
    }
}

/// Per-direction traversal metadata, computed at most once per graph.
#[derive(Debug)]
struct DirInfo {
    /// `is_source[i]`: does block `i`'s input carry the boundary fact?
    is_source: Vec<bool>,
    /// Worklist priority: rank in the direction-appropriate reverse
    /// postorder, computed directly on dense indices.
    rank: Vec<u32>,
    /// Blocks reachable from the direction's sources: ranks below this
    /// cut form the source-anchored RPO (see [`FlowGraph::entry_rpo`]).
    reachable: usize,
}

/// The CFG shape [`fixpoint`] iterates over, precomputed once per
/// function from a [`CfgView`]: dense indices (a block's index is its
/// position in the address-sorted block list, found by binary search),
/// successor/predecessor adjacency as [`Csr`] rows, the entry block, and
/// (memoized per direction) the RPO ranks the worklist prioritizes by. Shared via
/// [`crate::ir::FuncIr`], one graph serves every analysis of a function
/// and the rank computation happens at most once per direction.
#[derive(Debug)]
pub struct FlowGraph {
    /// Block start addresses, ascending: the dense-index order (shared
    /// with the results packaged from this graph, which look blocks up
    /// in it by binary search too).
    pub blocks: Arc<Vec<u64>>,
    pub(crate) succs: Csr<(u32, EdgeKind)>,
    pub(crate) preds: Csr<(u32, EdgeKind)>,
    entry: Option<usize>,
    fwd: OnceLock<DirInfo>,
    bwd: OnceLock<DirInfo>,
}

impl FlowGraph {
    /// Capture `view`'s intra-procedural shape.
    pub fn build(view: &dyn CfgView) -> FlowGraph {
        let blocks = view.blocks();
        let edges =
            blocks.iter().flat_map(|&b| view.succ_edges(b).iter().map(move |&(s, k)| (b, s, k)));
        FlowGraph::from_parts(blocks, view.entry(), edges)
    }

    /// Assemble a graph from an explicit block list and edge list
    /// (edges whose endpoints are not in `blocks` are dropped). This is
    /// what [`crate::ir::FuncIr`] and the slice's cone restriction use
    /// to build graphs without an intermediate view. The graph numbers
    /// the blocks in ascending address order, whatever order `blocks`
    /// lists them in (duplicates are not allowed); each block's
    /// successors and predecessors keep the order of `edges`.
    pub fn from_parts(
        blocks: &[u64],
        entry: u64,
        edges: impl IntoIterator<Item = (u64, u64, EdgeKind)>,
    ) -> FlowGraph {
        let mut blocks = blocks.to_vec();
        if !blocks.is_sorted() {
            blocks.sort_unstable();
        }
        assert!(blocks.windows(2).all(|w| w[0] < w[1]), "duplicate block in a flow graph");
        let id = |b: u64| blocks.binary_search(&b).ok();
        let dense: Vec<(usize, usize, EdgeKind)> = edges
            .into_iter()
            .filter_map(|(src, dst, kind)| Some((id(src)?, id(dst)?, kind)))
            .collect();
        let succs = Csr::group(blocks.len(), dense.iter().map(|&(i, j, k)| (i, (j as u32, k))));
        let preds = Csr::group(blocks.len(), dense.iter().map(|&(i, j, k)| (j, (i as u32, k))));
        let entry = id(entry);
        FlowGraph {
            blocks: Arc::new(blocks),
            succs,
            preds,
            entry,
            fwd: OnceLock::new(),
            bwd: OnceLock::new(),
        }
    }

    /// The dense id of `block` (its position in [`FlowGraph::blocks`]),
    /// if it is a member.
    #[inline]
    pub fn id(&self, block: u64) -> Option<usize> {
        self.blocks.binary_search(&block).ok()
    }

    /// Direction-sources: blocks whose input carries the boundary fact.
    fn sources(&self, dir: Direction) -> Vec<usize> {
        match dir {
            Direction::Forward => self.entry.into_iter().collect(),
            Direction::Backward => {
                (0..self.blocks.len()).filter(|&i| self.succs.row(i).is_empty()).collect()
            }
        }
    }

    /// Edges pointing into a block, under `dir`.
    fn dir_preds(&self, dir: Direction) -> &Csr<(u32, EdgeKind)> {
        match dir {
            Direction::Forward => &self.preds,
            Direction::Backward => &self.succs,
        }
    }

    /// Edges leaving a block, under `dir`.
    fn dir_succs(&self, dir: Direction) -> &Csr<(u32, EdgeKind)> {
        match dir {
            Direction::Forward => &self.succs,
            Direction::Backward => &self.preds,
        }
    }

    /// The direction's sources and RPO ranks, computed on first use and
    /// memoized — every later analysis over this graph reuses them.
    fn dir_info(&self, dir: Direction) -> &DirInfo {
        let cell = match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        };
        cell.get_or_init(|| {
            let sources = self.sources(dir);
            let mut is_source = vec![false; self.blocks.len()];
            for &s in &sources {
                is_source[s] = true;
            }
            let (rank, reachable) = rpo_ranks_dense(self.dir_succs(dir), &sources);
            DirInfo { is_source, rank, reachable }
        })
    }

    /// The entry-anchored reverse postorder: every block reachable from
    /// the function entry, in forward RPO. Memoized with the forward
    /// worklist ranks, so dominator construction
    /// ([`crate::dominators::dominators_on`]) shares the one traversal
    /// every forward fixpoint over this graph already paid for.
    pub fn entry_rpo(&self) -> Vec<u64> {
        let info = self.dir_info(Direction::Forward);
        let mut rpo = vec![0u64; info.reachable];
        for (i, &b) in self.blocks.iter().enumerate() {
            let r = info.rank[i] as usize;
            if r < info.reachable {
                rpo[r] = b;
            }
        }
        rpo
    }

    /// Estimated heap bytes of the graph as built: block list and
    /// adjacency. Fixed once the graph exists; the memoized direction
    /// metadata is [`FlowGraph::rank_heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<u64>()
            + self.succs.heap_bytes()
            + self.preds.heap_bytes()
    }

    /// Heap bytes of the direction metadata (RPO ranks, source flags)
    /// memoized so far — it grows as the first analysis in each
    /// direction runs over the graph.
    pub fn rank_heap_bytes(&self) -> usize {
        [&self.fwd, &self.bwd]
            .iter()
            .filter_map(|c| c.get())
            .map(|d| d.is_source.capacity() + d.rank.capacity() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// The per-block seed facts (boundary at direction-sources, bottom
/// elsewhere), computed once per run so the hot loop can reset its
/// scratch input by `clone_from` instead of re-asking the spec.
fn seed_facts<S: DataflowSpec>(spec: &S, graph: &FlowGraph, info: &DirInfo) -> Vec<S::Fact> {
    graph
        .blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| if info.is_source[i] { spec.boundary(b) } else { spec.bottom(b) })
        .collect()
}

/// Recompute block `b`'s input by meeting its direction-predecessors'
/// outputs into `into`, which the caller has already reset to the
/// block's seed fact (boundary at sources, bottom elsewhere). Each
/// incoming fact goes through the spec's [`DataflowSpec::meet_edge`]
/// for the CFG edge it arrives over (plain meet unless overridden).
fn recompute_input_into<S: DataflowSpec>(
    spec: &S,
    graph: &FlowGraph,
    out: &[S::Fact],
    dir: Direction,
    b: usize,
    into: &mut S::Fact,
) {
    let addr = graph.blocks[b];
    for &(p, kind) in graph.dir_preds(dir).row(b) {
        let p = p as usize;
        // Reconstruct the CFG-oriented edge: forward problems receive
        // facts along `p → b`, backward ones along `b → p`.
        let (src, dst) = match dir {
            Direction::Forward => (graph.blocks[p], addr),
            Direction::Backward => (addr, graph.blocks[p]),
        };
        spec.meet_edge(into, src, dst, kind, &out[p]);
    }
}

/// Kept for the benchmark suite, which names it until it drops
/// [`ExecutorKind`]: the suite sizes its "giant function" filters by it.
/// No product code reads it.
pub fn auto_block_threshold() -> usize {
    2048
}

/// Kept for the benchmark suite, which names every value until it drops
/// the type. Every value runs the one [`fixpoint`]; the `exec`
/// parameters that take this type ignore it, and no product code
/// branches on it.
#[derive(Debug, Clone, Copy, Default)]
pub enum ExecutorKind {
    /// The one fixpoint; what product code passes.
    #[default]
    Serial,
    /// Same as `Serial`; the thread count is ignored.
    Parallel(usize),
    /// Same as `Serial`; the thread count is ignored.
    Async(usize),
    /// Same as `Serial`.
    Auto,
}

/// Run `spec` over `graph` to its least fixpoint. Returns the dense
/// `(input, output)` fact vectors, in direction-relative terms:
/// `input[i]` is the fact flowing *into* `graph.blocks[i]` (at block
/// entry for forward problems, at block exit for backward ones) and
/// `output[i]` is its transfer.
///
/// The worklist is a priority queue on reverse-postorder rank
/// (direction-adjusted, ranks memoized on the graph), the order that
/// settles acyclic regions in one pass; every block is visited at least
/// once so the results cover the whole function. The visit loop owns
/// two scratch facts and writes through [`DataflowSpec::transfer_into`]
/// / `clone_from`, so specs with in-place transfers run the whole
/// fixpoint without allocating.
///
/// Only two fact vectors are live: the per-block seeds and the outputs.
/// Inputs are not recorded per visit; they are recomputed once, from the
/// settled outputs, into the seeds' storage after the loop. That keeps
/// peak fact memory at two vectors instead of three: a reaching-
/// definitions fact holds one bit per def, so on a giant function each
/// fact vector is blocks × defs bits and a third one raises peak memory.
/// The recomputed inputs are the ones the last visits saw: a predecessor
/// whose output changes re-queues the block, so every block's last visit
/// comes after its predecessors' last changes.
pub fn fixpoint<S: DataflowSpec>(spec: &S, graph: &FlowGraph) -> (Vec<S::Fact>, Vec<S::Fact>) {
    let (mut seeds, output) = settle(spec, graph);
    let dir = spec.direction();
    for (b, input) in seeds.iter_mut().enumerate() {
        recompute_input_into(spec, graph, &output, dir, b, input);
    }
    (seeds, output)
}

/// [`fixpoint`]'s outputs alone, skipping the input pass, for a caller
/// that reads only outputs: the jump-table slice, whose edge transfer
/// builds a new path set per edge, so the pass is not free.
pub(crate) fn fixpoint_outputs<S: DataflowSpec>(spec: &S, graph: &FlowGraph) -> Vec<S::Fact> {
    settle(spec, graph).1
}

/// The worklist loop of [`fixpoint`]: returns the per-block seeds and
/// the settled outputs.
fn settle<S: DataflowSpec>(spec: &S, graph: &FlowGraph) -> (Vec<S::Fact>, Vec<S::Fact>) {
    let n = graph.blocks.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let dir = spec.direction();
    let info = graph.dir_info(dir);
    let seeds = seed_facts(spec, graph, info);
    let mut output: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();

    // Min-heap on RPO rank (BinaryHeap is a max-heap; invert).
    let mut heap: BinaryHeap<(std::cmp::Reverse<u32>, usize)> =
        (0..n).map(|i| (std::cmp::Reverse(info.rank[i]), i)).collect();
    let mut queued = vec![true; n];

    let mut in_scratch = spec.bottom(graph.blocks[0]);
    let mut out_scratch = spec.bottom(graph.blocks[0]);
    while let Some((_, b)) = heap.pop() {
        queued[b] = false;
        stats::VISITS.inc();
        in_scratch.clone_from(&seeds[b]);
        recompute_input_into(spec, graph, &output, dir, b, &mut in_scratch);
        spec.transfer_into(graph.blocks[b], &in_scratch, &mut out_scratch);
        if out_scratch != output[b] {
            std::mem::swap(&mut output[b], &mut out_scratch);
            for &(s, _) in graph.dir_succs(dir).row(b) {
                let s = s as usize;
                if !queued[s] {
                    queued[s] = true;
                    heap.push((std::cmp::Reverse(info.rank[s]), s));
                }
            }
        }
    }
    (seeds, output)
}

/// The three standard per-function analyses, engine-computed.
#[derive(Debug)]
pub struct FuncAnalyses {
    /// Backward register liveness (AC6).
    pub liveness: LivenessResult,
    /// Forward reaching definitions.
    pub reaching: ReachingDefs,
    /// Forward stack-height analysis.
    pub stack: StackResult,
}

impl FuncAnalyses {
    /// Bytes of heap owned by the three fact sets. The block lists
    /// these results carry are `Arc`-shared with the function's graph
    /// and counted once with the IR, not here.
    pub fn heap_bytes(&self) -> usize {
        self.liveness.heap_bytes() + self.reaching.heap_bytes() + self.stack.heap_bytes()
    }
}

/// The three standard analyses of one function, off its IR — one
/// decoded arena, one graph, memoized RPO ranks shared by all three
/// fixpoints.
fn func_analyses(ir: &FuncIr) -> FuncAnalyses {
    let graph = ir.graph();
    FuncAnalyses {
        liveness: liveness_on(ir, graph, ExecutorKind::Serial),
        reaching: reaching_defs_on(ir, graph, ExecutorKind::Serial),
        stack: stack_heights_on(ir, graph, ExecutorKind::Serial),
    }
}

/// Run the three standard analyses over every function of a prebuilt
/// [`BinaryIr`], fanning functions across a rayon pool of `threads`
/// workers. `_exec` is ignored (see [`ExecutorKind`]).
///
/// This is the paper's "parallel analysis over a read-only CFG" phase:
/// no decoding, no graph building — the analyses only run fixpoints,
/// each function's on one worker.
pub fn run_all_ir(
    ir: &BinaryIr,
    threads: usize,
    _exec: ExecutorKind,
) -> HashMap<u64, FuncAnalyses> {
    run_per_function_ir(ir, threads, func_analyses)
}

/// The whole-binary fan-out underneath [`run_all_ir`]: apply `analyze`
/// to every function's already-decoded IR, size-sorted largest-first
/// across a rayon pool of `threads` workers, keyed by function entry.
///
/// Consumers needing only one analysis (BinFeat wants liveness,
/// hpcstruct phase 6 wants stack heights) go through this directly
/// rather than paying for all three.
pub fn run_per_function_ir<T: Send>(
    ir: &BinaryIr,
    threads: usize,
    analyze: impl Fn(&FuncIr) -> T + Sync,
) -> HashMap<u64, T> {
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("per-function pool");
    let mut funcs: Vec<&FuncIr> = ir.funcs().collect();
    // Largest first: starting the giants early gives the stealing pool
    // the whole run to rebalance around them.
    funcs.sort_by_key(|f| std::cmp::Reverse(f.blocks().len()));
    let results: Vec<(u64, T)> =
        pool.install(|| funcs.par_iter().map(|fir| (fir.entry(), analyze(fir))).collect());
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{stack_heights_on, Height};
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use pba_concurrent::Counter;
    use pba_isa::x86::{decode_one, encode};
    use pba_isa::{Insn, Reg};

    /// A toy forward "block counting" spec: each block's output is
    /// `max(inputs) + 1`; the fixpoint is the longest acyclic distance
    /// from entry, saturating on cycles at the cap. Counts its
    /// `transfer_into` calls so tests can pin that the fixpoint drives
    /// the in-place path.
    struct Depth {
        cap: u32,
        into_calls: Counter,
    }

    impl Depth {
        fn new(cap: u32) -> Depth {
            Depth { cap, into_calls: Counter::new() }
        }
    }

    impl DataflowSpec for Depth {
        type Fact = u32;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self, _b: u64) -> u32 {
            0
        }
        fn boundary(&self, _b: u64) -> u32 {
            1
        }
        fn meet(&self, into: &mut u32, incoming: &u32) {
            *into = (*into).max(*incoming);
        }
        fn transfer(&self, _b: u64, input: &u32) -> u32 {
            (*input + 1).min(self.cap)
        }
        fn transfer_into(&self, b: u64, input: &u32, out: &mut u32) {
            self.into_calls.inc();
            *out = self.transfer(b, input);
        }
    }

    fn diamond() -> VecView {
        VecView::new(
            1,
            vec![(1, 2, vec![]), (2, 3, vec![]), (3, 4, vec![]), (4, 5, vec![])],
            vec![
                (1, 2, EdgeKind::CondTaken),
                (1, 3, EdgeKind::CondNotTaken),
                (2, 4, EdgeKind::Direct),
                (3, 4, EdgeKind::Fallthrough),
            ],
        )
    }

    #[test]
    fn serial_reaches_expected_fixpoint() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(100);
        let (input, output) = fixpoint(&spec, &graph);
        let at = |b: u64| graph.id(b).unwrap();
        assert_eq!(input[at(1)], 1);
        assert_eq!(output[at(1)], 2);
        assert_eq!(input[at(4)], 3, "join takes the max over both arms");
        assert_eq!(spec.into_calls.get(), 4, "RPO settles an acyclic graph in one pass");
    }

    /// A view that counts [`CfgView::insns`] calls, per test rather
    /// than in the process-global [`stats::VISITS`]. The stack-height
    /// spec reads a block's instructions once per transfer of a reached
    /// block, so the count is the number of transfers that did work.
    struct CountingView {
        inner: VecView,
        insns_calls: Counter,
    }

    impl CfgView for CountingView {
        fn entry(&self) -> u64 {
            self.inner.entry()
        }
        fn blocks(&self) -> &[u64] {
            self.inner.blocks()
        }
        fn block_range(&self, block: u64) -> (u64, u64) {
            self.inner.block_range(block)
        }
        fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
            self.inner.succ_edges(block)
        }
        fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
            self.inner.pred_edges(block)
        }
        fn insns(&self, block: u64) -> &[Insn] {
            self.insns_calls.inc();
            self.inner.insns(block)
        }
    }

    /// `n` one-`push` blocks: an entry whose arms (one block, two
    /// blocks) meet at block 4 with different heights, then a chain from
    /// block 4 with a back edge to it. The RPO worklist visits the join
    /// once, after both arms, then sweeps the chain and revisits the join
    /// once for the back edge; a schedule that reaches the join through
    /// the short arm first sweeps the chain twice.
    fn looped_pushes(n: u64) -> CountingView {
        assert!(n >= 6, "the loop needs blocks past the join");
        let mut push = vec![];
        encode::push_r(&mut push, Reg::RAX);
        let at = |i: u64| 0x1000 + 0x10 * i;
        let blocks =
            (0..n).map(|i| (at(i), at(i) + 1, vec![decode_one(&push, at(i)).unwrap()])).collect();
        let mut edges = vec![
            (at(0), at(1), EdgeKind::CondTaken),
            (at(0), at(2), EdgeKind::CondNotTaken),
            (at(1), at(4), EdgeKind::Direct),
            (at(2), at(3), EdgeKind::Fallthrough),
            (at(3), at(4), EdgeKind::Direct),
            (at(n - 1), at(4), EdgeKind::Direct),
        ];
        edges.extend((5..n).map(|i| (at(i - 1), at(i), EdgeKind::Fallthrough)));
        CountingView { inner: VecView::new(at(0), blocks, edges), insns_calls: Counter::new() }
    }

    /// Stack heights on a [`looped_pushes`] view under `Serial` and then
    /// under each of `execs`: every one must give the serial facts with
    /// the serial number of transfers.
    fn assert_match_serial(view: &CountingView, graph: &FlowGraph, execs: &[ExecutorKind]) {
        let n = view.blocks().len() as u64;
        let exit = *view.blocks().iter().max().unwrap();
        let before = view.insns_calls.get();
        let serial = stack_heights_on(view, graph, ExecutorKind::Serial);
        let serial_calls = view.insns_calls.get() - before;
        assert_eq!(serial_calls, n + 1, "one sweep, then the join once more");
        assert_eq!(serial.exit_frame(exit).unwrap().sp, Height::Top, "the arms disagree");
        for &exec in execs {
            let before = view.insns_calls.get();
            let r = stack_heights_on(view, graph, exec);
            assert_eq!(view.insns_calls.get() - before, serial_calls, "{exec:?} transfer calls");
            for &b in view.blocks() {
                assert_eq!(r.entry_frame(b), serial.entry_frame(b), "{exec:?} at {b:#x}");
                assert_eq!(r.exit_frame(b), serial.exit_frame(b), "{exec:?} at {b:#x}");
            }
        }
    }

    #[test]
    fn executors_agree_on_cyclic_graph_and_use_transfer_into() {
        let mut view = diamond();
        view.edges.push((4, 1, EdgeKind::Direct)); // loop back
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(17);
        let (input, output) = fixpoint(&spec, &graph);
        assert!(spec.into_calls.get() > 0, "the hot loop goes through transfer_into");
        assert!(output.iter().all(|&d| d == 17), "the loop saturates every block at the cap");
        assert!(input.iter().all(|&d| d == 17), "inputs are recomputed from settled outputs");

        let view = looped_pushes(8);
        let graph = FlowGraph::build(&view);
        let execs = [ExecutorKind::Parallel(0), ExecutorKind::Parallel(4), ExecutorKind::Async(4)];
        assert_match_serial(&view, &graph, &execs);
    }

    #[test]
    fn async_matches_serial_across_thread_counts() {
        let view = looped_pushes(8);
        let graph = FlowGraph::build(&view);
        let execs = [0usize, 1, 2, 4, 8].map(ExecutorKind::Async);
        assert_match_serial(&view, &graph, &execs);
    }

    #[test]
    fn async_visit_count_stays_near_serial_on_a_chain() {
        let n = 512u64;
        let mut push = vec![];
        encode::push_r(&mut push, Reg::RAX);
        let at = |i: u64| 0x1000 + 0x10 * i;
        let view = CountingView {
            inner: VecView::new(
                at(0),
                (0..n)
                    .map(|i| (at(i), at(i) + 1, vec![decode_one(&push, at(i)).unwrap()]))
                    .collect(),
                (1..n).map(|i| (at(i - 1), at(i), EdgeKind::Fallthrough)).collect(),
            ),
            insns_calls: Counter::new(),
        };
        let graph = FlowGraph::build(&view);
        stack_heights_on(&view, &graph, ExecutorKind::Serial);
        let serial_visits = view.insns_calls.get();
        assert_eq!(serial_visits, n, "RPO settles a chain in one sweep");
        stack_heights_on(&view, &graph, ExecutorKind::Async(1));
        let async_visits = view.insns_calls.get() - serial_visits;
        assert!(
            async_visits <= serial_visits * 2,
            "async {async_visits} visits vs serial {serial_visits}: runaway re-enqueue"
        );
    }

    #[test]
    fn auto_matches_serial_on_both_sides_of_the_threshold() {
        let small = looped_pushes(8);
        let graph = FlowGraph::build(&small);
        assert!(graph.blocks.len() < auto_block_threshold());
        assert_match_serial(&small, &graph, &[ExecutorKind::Auto]);

        let large = looped_pushes(auto_block_threshold() as u64 + 10);
        let graph = FlowGraph::build(&large);
        assert!(graph.blocks.len() > auto_block_threshold());
        assert_match_serial(&large, &graph, &[ExecutorKind::Auto]);
    }

    #[test]
    fn backward_sources_are_exit_blocks() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        assert_eq!(
            graph.dir_info(Direction::Backward).is_source,
            vec![false, false, false, true],
            "block 4 at dense index 3"
        );
        assert_eq!(graph.dir_info(Direction::Forward).is_source, vec![true, false, false, false]);
    }

    #[test]
    fn rank_memoization_computes_once_per_direction() {
        let view = diamond();
        let graph = FlowGraph::build(&view);
        let a = graph.dir_info(Direction::Forward) as *const DirInfo;
        let b = graph.dir_info(Direction::Forward) as *const DirInfo;
        assert_eq!(a, b, "same memoized DirInfo");
    }
}
