//! The generic dataflow engine: one fixpoint, many analyses, three
//! executors behind one entry point, [`ExecutorKind::run`].
//!
//! The paper's thesis is that once the CFG is finalized and read-only,
//! *any* client analysis can run in parallel. This module is the
//! machinery that makes that true for dataflow analyses rather than
//! per-analysis luck: an analysis describes itself as a
//! [`DataflowSpec`] — direction, lattice bottom, boundary fact, meet,
//! and block transfer — and an executor drives the Kildall worklist to
//! the least fixpoint. Because every spec here is monotone over a
//! finite-height lattice, the fixpoint is *unique*, so the executor is
//! a runtime value, not a type: [`ExecutorKind::Serial`] (priority
//! worklist in reverse postorder, from [`pba_cfg::order`]),
//! [`ExecutorKind::Parallel`] (round-based rayon worklist, after the
//! `parallel-dataflow` exemplar) and [`ExecutorKind::Async`]
//! (barrier-free worklist on work-stealing deques) are interchangeable
//! by construction — the property `tests/engine_equiv.rs` checks on
//! randomized binaries.
//!
//! Since the decode-once refactor the hot loop is also
//! *allocation-free*: facts live in dense `Vec`s indexed by block, the
//! worklist priority is the [`FlowGraph`]'s memoized dense RPO ranks
//! (computed at most once per direction, shared by every analysis that
//! reuses the graph), and each visit recomputes its input into a reused
//! scratch fact and writes its output through
//! [`DataflowSpec::transfer_into`] — no per-visit fact allocation for
//! the bit-vector analyses.
//!
//! # The barrier-free executor
//!
//! [`ExecutorKind::Parallel`] pays a full fork/join barrier per round:
//! every round waits for its slowest block before any block of the next
//! round starts, so a skewed propagation chain serializes on the
//! stragglers. [`ExecutorKind::Async`] drops the barrier entirely. A
//! block is a task; each visit recomputes the block's input from its
//! direction-predecessors' *published* outputs, runs
//! [`DataflowSpec::transfer_into`] into a reused scratch fact, and on
//! change publishes the new output and signals the block's
//! direction-successors — re-enqueued onto the running worker's own
//! Chase–Lev deque, where idle workers steal them.
//!
//! Why is that safe? Two different hazards, two different answers:
//!
//! * **Stale reads are safe by monotonicity.** A visit may read a
//!   predecessor's output an instant before that predecessor publishes
//!   a newer value — exactly the cross-round staleness the round-based
//!   executor already tolerates. The publish-then-signal protocol
//!   guarantees the reader is re-signaled (its [`pba_concurrent::TaskSet`]
//!   state goes dirty-or-queued), so the missed value is re-read on a
//!   later visit; since facts only grow toward the unique least
//!   fixpoint, arriving late costs revisits, never correctness.
//! * **Torn reads are not** — half-old, half-new bytes of a multi-word
//!   fact are not a lattice element at all. Outputs therefore live in
//!   [`pba_concurrent::FactSlots`], whose striped locks make every
//!   publish and read atomic per slot: readers see possibly-stale,
//!   never-torn facts.
//!
//! Termination is the in-flight protocol of
//! [`pba_concurrent::TaskSet`]: workers spin (then yield) until no task
//! is queued or running, which — because successors are signaled
//! *before* a visit retires — can only happen at the fixpoint. Blocks
//! are seeded through a FIFO injector in direction-RPO rank order, so
//! the first sweep visits blocks in the serial executor's priority
//! order and the visit count stays comparable (a unit test asserts
//! within 2× of serial on one worker).
//!
//! Two levels of parallelism mirror the paper's phase structure:
//! *within* a function via [`ExecutorKind::Parallel`] /
//! [`ExecutorKind::Async`], and *across* functions via [`run_all_ir`] /
//! [`run_per_function_ir`], which fan work over a size-sorted list of
//! one decoded [`crate::ir::BinaryIr`]'s functions on a sized rayon pool
//! (the Listing 7 `schedule(dynamic)` shape).

use crate::ir::{BinaryIr, FuncIr};
use crate::liveness::{liveness_on, LivenessResult};
use crate::reaching::{reaching_defs_on, ReachingDefs};
use crate::stack::{stack_heights_on, StackResult};
use crate::view::CfgView;
use crossbeam::deque::{Injector, Stealer, Worker};
use pba_cfg::order::rpo_ranks_dense;
use pba_cfg::{BlockIndex, EdgeKind};
use pba_concurrent::{FactSlots, TaskSet};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Executor work counters, exposed for benchmarks: visits performed (all
/// executors) and the async executor's enqueue/steal traffic. Monotonic
/// and process-global: a measurement reads the difference across the
/// section it measures.
pub mod stats {
    pub use pba_concurrent::stats::Counter;

    /// Block visits (one input-recompute + transfer), by any executor.
    pub static VISITS: Counter = Counter::new();
    /// Tasks pushed onto an async worker's deque or the seed injector.
    pub static ASYNC_ENQUEUED: Counter = Counter::new();
    /// Tasks an async worker obtained by stealing from a sibling.
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
/// this crate is; the engine's executor-independence depends on it.
pub trait DataflowSpec {
    /// The lattice element attached to each block boundary.
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
    /// overwritten). The executors call *this* on their hot path with a
    /// reused scratch fact; the default falls back to [`Self::transfer`]
    /// and costs one fact allocation per visit, so specs whose facts
    /// heap-allocate (bit vectors, sets) should override it with an
    /// in-place computation.
    fn transfer_into(&self, block: u64, input: &Self::Fact, out: &mut Self::Fact) {
        *out = self.transfer(block, input);
    }

    /// Optional edge transfer: adjust the fact flowing along the CFG
    /// edge `src → dst` (of `kind`) before it is met into the receiving
    /// block's input. `fact` is the value leaving the direction-
    /// predecessor (the source block's output for forward problems, the
    /// destination block's output for backward ones). Return `None` for
    /// identity — the default, which costs no clone; specs whose
    /// transfer depends on *how* control reached a block (e.g. the
    /// taken/not-taken side of a guarding branch in [`crate::slice`])
    /// override it.
    fn edge_transfer(
        &self,
        src: u64,
        dst: u64,
        kind: EdgeKind,
        fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        let _ = (src, dst, kind, fact);
        None
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

/// The CFG shape the executors iterate over, precomputed once per
/// function from a [`CfgView`]: dense indices, successor/predecessor
/// adjacency, the entry block, and (memoized per direction) the
/// RPO ranks the serial worklist prioritizes by. Shared via
/// [`crate::ir::FuncIr`], one graph serves every analysis of a function
/// and the rank computation happens at most once per direction.
#[derive(Debug)]
pub struct FlowGraph {
    /// Block start addresses, in dense-index order (shared with the
    /// results packaged from this graph).
    pub blocks: Arc<Vec<u64>>,
    index: Arc<BlockIndex>,
    succs: Vec<Vec<(usize, EdgeKind)>>,
    preds: Vec<Vec<(usize, EdgeKind)>>,
    entry: Option<usize>,
    fwd: OnceLock<DirInfo>,
    bwd: OnceLock<DirInfo>,
}

impl FlowGraph {
    /// Capture `view`'s intra-procedural shape.
    pub fn build(view: &dyn CfgView) -> FlowGraph {
        let blocks: Vec<u64> = view.blocks().to_vec();
        let entry = view.entry();
        let mut edges = Vec::new();
        for &b in &blocks {
            for &(s, kind) in view.succ_edges(b) {
                edges.push((b, s, kind));
            }
        }
        FlowGraph::from_parts(blocks, entry, &edges)
    }

    /// Assemble a graph from an explicit block list and edge list
    /// (edges whose endpoints are not in `blocks` are dropped). This is
    /// what [`crate::ir::FuncIr`] and the slice's cone restriction use
    /// to build graphs without an intermediate view.
    pub fn from_parts(blocks: Vec<u64>, entry: u64, edges: &[(u64, u64, EdgeKind)]) -> FlowGraph {
        let index = BlockIndex::new(&blocks);
        let mut succs = vec![Vec::new(); blocks.len()];
        let mut preds = vec![Vec::new(); blocks.len()];
        for &(src, dst, kind) in edges {
            if let (Some(i), Some(j)) = (index.get(src), index.get(dst)) {
                succs[i].push((j, kind));
                preds[j].push((i, kind));
            }
        }
        let entry = index.get(entry);
        FlowGraph {
            blocks: Arc::new(blocks),
            index: Arc::new(index),
            succs,
            preds,
            entry,
            fwd: OnceLock::new(),
            bwd: OnceLock::new(),
        }
    }

    /// The shared address → dense-id index (the one map every dense
    /// artifact built from this graph keys by).
    pub fn index(&self) -> &Arc<BlockIndex> {
        &self.index
    }

    /// Direction-sources: blocks whose input carries the boundary fact.
    fn sources(&self, dir: Direction) -> Vec<usize> {
        match dir {
            Direction::Forward => self.entry.into_iter().collect(),
            Direction::Backward => {
                (0..self.blocks.len()).filter(|&i| self.succs[i].is_empty()).collect()
            }
        }
    }

    /// Edges pointing into a block, under `dir`.
    fn dir_preds(&self, dir: Direction) -> &[Vec<(usize, EdgeKind)>] {
        match dir {
            Direction::Forward => &self.preds,
            Direction::Backward => &self.succs,
        }
    }

    /// Edges leaving a block, under `dir`.
    fn dir_succs(&self, dir: Direction) -> &[Vec<(usize, EdgeKind)>] {
        match dir {
            Direction::Forward => &self.succs,
            Direction::Backward => &self.preds,
        }
    }

    /// The direction's sources and RPO ranks, computed on first use and
    /// memoized — every later analysis over this graph (and every
    /// executor run) reuses them.
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
    /// (`pba_loops::dominators_on`) shares the one traversal every
    /// forward fixpoint over this graph already paid for.
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

    /// Estimated heap bytes of the graph as built: block list, index,
    /// adjacency. Fixed once the graph exists; the memoized direction
    /// metadata is [`FlowGraph::rank_heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let adjacency: usize = self
            .succs
            .iter()
            .chain(self.preds.iter())
            .map(|v| {
                size_of::<Vec<(usize, EdgeKind)>>() + v.capacity() * size_of::<(usize, EdgeKind)>()
            })
            .sum();
        self.blocks.capacity() * size_of::<u64>() + self.index.heap_bytes() + adjacency
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

/// One shared step: recompute block `b`'s input by meeting its
/// direction-predecessors' outputs into `into`, which the caller has
/// already reset to the block's seed fact (boundary at sources, bottom
/// elsewhere) — by `clone_from` on a reused scratch in the serial loop,
/// or by the initializing clone itself in the parallel rounds. Each
/// incoming fact first passes the spec's
/// [`DataflowSpec::edge_transfer`] for the CFG edge it arrives over
/// (identity unless overridden).
fn recompute_input_into<S: DataflowSpec>(
    spec: &S,
    graph: &FlowGraph,
    out: &[S::Fact],
    dir: Direction,
    b: usize,
    into: &mut S::Fact,
) {
    let addr = graph.blocks[b];
    for &(p, kind) in &graph.dir_preds(dir)[b] {
        // Reconstruct the CFG-oriented edge: forward problems receive
        // facts along `p → b`, backward ones along `b → p`.
        let (src, dst) = match dir {
            Direction::Forward => (graph.blocks[p], addr),
            Direction::Backward => (addr, graph.blocks[p]),
        };
        match spec.edge_transfer(src, dst, kind, &out[p]) {
            Some(adjusted) => spec.meet(into, &adjusted),
            None => spec.meet(into, &out[p]),
        }
    }
}

/// The block-count threshold at which [`ExecutorKind::Auto`] switches a
/// function from the serial to the async executor. Below it, task and
/// queue overhead dwarfs the transfer work; above it, the worklist is
/// wide enough for idle pool workers to steal a useful share (the
/// `pba-gen` Skewed-profile giant the `skewed_dataflow` suite workload
/// measures sits past it).
pub fn auto_block_threshold() -> usize {
    2048
}

/// Which executor drives a [`DataflowSpec`] to its fixpoint; every
/// analysis takes it as a runtime value and [`ExecutorKind::run`] is the
/// one place an executor is called.
///
/// The thread count of `Parallel` and `Async` means the same for both:
/// 0 inherits the ambient rayon context (no pool is built — the cheap,
/// composable default under an enclosing `install`, such as
/// [`run_per_function_ir`]'s pool); an explicit count builds a dedicated
/// pool per `run`, which is for ablations, not hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub enum ExecutorKind {
    /// Priority worklist in reverse postorder, on the calling thread.
    #[default]
    Serial,
    /// Round-based parallel worklist with its thread count. Since the
    /// work-stealing shim, `Parallel(0)` composes with
    /// [`run_per_function_ir`]: a worker's nested rounds split into its
    /// own deque, where idle pool workers steal them.
    Parallel(usize),
    /// Barrier-free worklist on work-stealing deques (see the module
    /// docs), with its thread count.
    Async(usize),
    /// Pick per function: `Serial` below [`auto_block_threshold`]
    /// blocks, `Async(0)` at or above it. The right default for
    /// whole-binary drivers on skewed workloads: the one giant function
    /// goes on the barrier-free worklist (stealable, no per-round join),
    /// the thousands of small ones stay on the cheap serial worklist.
    /// The large side is the async executor rather than the round-based
    /// one because it keeps the same stealing behavior without the
    /// per-round barrier.
    Auto,
}

impl ExecutorKind {
    /// Run `spec` over `graph` to its least fixpoint with the selected
    /// executor. Returns the dense `(input, output)` fact vectors, in
    /// direction-relative terms: `input[i]` is the fact flowing *into*
    /// `graph.blocks[i]` (at block entry for forward problems, at block
    /// exit for backward ones) and `output[i]` is its transfer.
    pub fn run<S: DataflowSpec + Sync>(
        &self,
        spec: &S,
        graph: &FlowGraph,
    ) -> (Vec<S::Fact>, Vec<S::Fact>) {
        if graph.blocks.is_empty() {
            return (Vec::new(), Vec::new());
        }
        match *self {
            ExecutorKind::Serial => serial_fixpoint(spec, graph),
            ExecutorKind::Parallel(threads) => on_pool(threads, || round_fixpoint(spec, graph)),
            ExecutorKind::Async(threads) => on_pool(threads, || async_fixpoint(spec, graph)),
            ExecutorKind::Auto if graph.blocks.len() >= auto_block_threshold() => {
                async_fixpoint(spec, graph)
            }
            ExecutorKind::Auto => serial_fixpoint(spec, graph),
        }
    }
}

/// Run `f` on a dedicated pool of `threads` workers, or in the ambient
/// rayon context when `threads` is 0.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    match threads {
        0 => f(),
        t => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("executor pool")
            .install(f),
    }
}

/// The priority-worklist serial fixpoint.
///
/// Blocks are visited in reverse postorder (direction-adjusted, ranks
/// memoized on the graph), the order that settles acyclic regions in
/// one pass; every block is visited at least once so the results cover
/// the whole function. The visit loop owns two scratch facts and writes
/// through [`DataflowSpec::transfer_into`] / `clone_from`, so specs
/// with in-place transfers run the whole fixpoint without allocating.
fn serial_fixpoint<S: DataflowSpec>(spec: &S, graph: &FlowGraph) -> (Vec<S::Fact>, Vec<S::Fact>) {
    let n = graph.blocks.len();
    let dir = spec.direction();
    let mut input: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    let mut output: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    let info = graph.dir_info(dir);
    let seeds = seed_facts(spec, graph, info);

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
        input[b].clone_from(&in_scratch);
        if out_scratch != output[b] {
            std::mem::swap(&mut output[b], &mut out_scratch);
            for &(s, _) in &graph.dir_succs(dir)[b] {
                if !queued[s] {
                    queued[s] = true;
                    heap.push((std::cmp::Reverse(info.rank[s]), s));
                }
            }
        }
    }
    (input, output)
}

/// A raw slot pointer the round executor hands to its parallel body:
/// batch indices are distinct, so each task has exclusive access to its
/// own slots (`input[b]`, `round_out[b]`) while the snapshot vectors are
/// only read.
struct SlotPtr<T>(*mut T);
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}
impl<T> Clone for SlotPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotPtr<T> {}
impl<T> SlotPtr<T> {
    /// Get the pointer (method access keeps closures capturing the
    /// whole Send/Sync wrapper, not the raw field).
    fn get(self) -> *mut T {
        self.0
    }
}

/// The round-based parallel fixpoint (the shape of the
/// `gabizon103/parallel-dataflow` exemplar) on the current rayon
/// context: each round recomputes every dirty block from a snapshot of
/// the current outputs, then merges and marks direction-successors of
/// changed blocks dirty.
///
/// Reads within a round may see the previous round's facts; monotonicity
/// makes that a matter of round count, not of the fixpoint reached.
///
/// This executor is the ablation baseline the barrier-free one is
/// measured against, so its constant factors are kept honest: the batch
/// list, the next-round list, and the per-round result facts are all
/// buffers reused across rounds — a round allocates no fact and no
/// worklist storage. Each round's results are written in place (inputs
/// directly, outputs into a dense scratch vector swapped element-wise on
/// change during the merge).
fn round_fixpoint<S: DataflowSpec + Sync>(
    spec: &S,
    graph: &FlowGraph,
) -> (Vec<S::Fact>, Vec<S::Fact>) {
    let n = graph.blocks.len();
    let dir = spec.direction();
    let mut input: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    let mut output: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();
    let info = graph.dir_info(dir);
    let seeds = seed_facts(spec, graph, info);

    // Round buffers, allocated once: the current batch, the next
    // batch (deduplicated by `queued`), and a dense scratch vector
    // the round's outputs land in before the merge swaps changed
    // facts into `output`.
    let mut batch: Vec<usize> = (0..n).collect();
    let mut next: Vec<usize> = Vec::with_capacity(n);
    let mut queued = vec![false; n];
    let mut round_out: Vec<S::Fact> = graph.blocks.iter().map(|&b| spec.bottom(b)).collect();

    while !batch.is_empty() {
        let inp_ptr = SlotPtr(input.as_mut_ptr());
        let out_ptr = SlotPtr(round_out.as_mut_ptr());
        let seeds_ref = &seeds;
        let output_ref = &output;
        batch.par_iter().for_each(|&b| {
            stats::VISITS.inc();
            // SAFETY: batch indices are distinct (the `queued` flags
            // deduplicate), so slot `b` of each buffer is written by
            // exactly one task; `output` and `seeds` are only read.
            let inp = unsafe { &mut *inp_ptr.get().add(b) };
            let outp = unsafe { &mut *out_ptr.get().add(b) };
            inp.clone_from(&seeds_ref[b]);
            recompute_input_into(spec, graph, output_ref, dir, b, inp);
            spec.transfer_into(graph.blocks[b], inp, outp);
        });
        next.clear();
        for &b in &batch {
            queued[b] = false;
        }
        for &b in &batch {
            if round_out[b] != output[b] {
                std::mem::swap(&mut output[b], &mut round_out[b]);
                for &(s, _) in &graph.dir_succs(dir)[b] {
                    if !queued[s] {
                        queued[s] = true;
                        next.push(s);
                    }
                }
            }
        }
        std::mem::swap(&mut batch, &mut next);
    }
    (input, output)
}

/// [`recompute_input_into`] against concurrently-published outputs: each
/// predecessor fact is read (and edge-adjusted, and met) under its slot's
/// stripe lock, so the value folded in is possibly stale, never torn.
fn recompute_input_from_slots<S: DataflowSpec>(
    spec: &S,
    graph: &FlowGraph,
    out: &FactSlots<S::Fact>,
    dir: Direction,
    b: usize,
    into: &mut S::Fact,
) {
    let addr = graph.blocks[b];
    for &(p, kind) in &graph.dir_preds(dir)[b] {
        let (src, dst) = match dir {
            Direction::Forward => (graph.blocks[p], addr),
            Direction::Backward => (addr, graph.blocks[p]),
        };
        out.with(p, |fact| match spec.edge_transfer(src, dst, kind, fact) {
            Some(adjusted) => spec.meet(into, &adjusted),
            None => spec.meet(into, fact),
        });
    }
}

/// The barrier-free fixpoint on the current rayon registry: one worker
/// loop per available thread, run as scope tasks so nesting under
/// [`run_per_function_ir`]'s pool composes (an occupied pool degrades to
/// fewer active workers, never deadlocks — any single worker loop can
/// drain the whole graph alone).
fn async_fixpoint<S: DataflowSpec + Sync>(
    spec: &S,
    graph: &FlowGraph,
) -> (Vec<S::Fact>, Vec<S::Fact>) {
    let n = graph.blocks.len();
    let dir = spec.direction();
    let info = graph.dir_info(dir);
    let seeds = seed_facts(spec, graph, info);
    let outputs: FactSlots<S::Fact> =
        FactSlots::new(graph.blocks.iter().map(|&b| spec.bottom(b)).collect());
    let tasks = TaskSet::new(n);
    let injector: Injector<usize> = Injector::new();
    let abort = AtomicBool::new(false);

    // Seed every block through the FIFO injector in direction-RPO rank
    // order: the workers' first sweep then visits blocks in the serial
    // executor's priority order, which settles acyclic regions in one
    // pass and keeps the total visit count comparable to serial.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| info.rank[i]);
    for i in order {
        let push = tasks.signal(i);
        debug_assert!(push, "seeding an idle task always enqueues");
        injector.push(i);
        stats::ASYNC_ENQUEUED.inc();
    }

    let workers = rayon::current_num_threads().min(n).max(1);
    let deques: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<usize>> = deques.iter().map(|d| d.stealer()).collect();
    {
        let (seeds, outputs, tasks, injector, stealers, abort) =
            (&seeds, &outputs, &tasks, &injector, &stealers[..], &abort);
        rayon::scope(|s| {
            for (w, deque) in deques.into_iter().enumerate() {
                s.spawn(move |_| {
                    async_worker(
                        spec, graph, dir, seeds, outputs, tasks, injector, stealers, abort, deque,
                        w,
                    );
                });
            }
        });
    }

    let output = outputs.into_inner();
    // Final input pass: recompute every block's input from the settled
    // outputs. The serial executor's recorded inputs equal this meet as
    // well (a later predecessor change would have re-enqueued and
    // revisited the block), so results stay byte-identical across
    // executors. `seeds` is consumed as the starting values.
    let mut input = seeds;
    for (b, inp) in input.iter_mut().enumerate() {
        recompute_input_into(spec, graph, &output, dir, b, inp);
    }
    (input, output)
}

/// One async worker loop: pop own deque (LIFO), else take a seed from
/// the injector (FIFO), else steal from a sibling; visit until the
/// task set drains.
#[allow(clippy::too_many_arguments)]
fn async_worker<S: DataflowSpec + Sync>(
    spec: &S,
    graph: &FlowGraph,
    dir: Direction,
    seeds: &[S::Fact],
    outputs: &FactSlots<S::Fact>,
    tasks: &TaskSet,
    injector: &Injector<usize>,
    stealers: &[Stealer<usize>],
    abort: &AtomicBool,
    deque: Worker<usize>,
    w: usize,
) {
    // A panicking visit (spec code) would leave its block claimed
    // forever and sibling workers spinning on a count that can never
    // drain; flag them down before the unwind leaves this frame, then
    // let rayon's scope propagate the panic.
    struct AbortOnPanic<'a>(&'a AtomicBool);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::SeqCst);
            }
        }
    }
    let _guard = AbortOnPanic(abort);

    let first = graph.blocks[0];
    let mut in_scratch = spec.bottom(first);
    let mut out_scratch = spec.bottom(first);
    loop {
        if abort.load(Ordering::SeqCst) {
            return;
        }
        let next = deque.pop().or_else(|| injector.steal().success()).or_else(|| {
            for off in 1..stealers.len() {
                let j = (w + off) % stealers.len();
                if let Some(t) = stealers[j].steal().success() {
                    stats::ASYNC_STOLEN.inc();
                    return Some(t);
                }
            }
            None
        });
        let Some(b) = next else {
            if tasks.in_flight() == 0 {
                return;
            }
            std::thread::yield_now();
            continue;
        };
        // Claim before reading inputs: a predecessor publishing after
        // this point marks the block dirty and forces a re-visit, so no
        // published value can be missed for good.
        tasks.claim(b);
        stats::VISITS.inc();
        in_scratch.clone_from(&seeds[b]);
        recompute_input_from_slots(spec, graph, outputs, dir, b, &mut in_scratch);
        spec.transfer_into(graph.blocks[b], &in_scratch, &mut out_scratch);
        // Publish, then signal, then retire — in that order: successors
        // signaled here are counted in-flight before this block's count
        // can drop, so the in-flight count only reaches zero at the
        // fixpoint.
        if outputs.publish_if_changed(b, &out_scratch) {
            for &(s, _) in &graph.dir_succs(dir)[b] {
                if tasks.signal(s) {
                    deque.push(s);
                    stats::ASYNC_ENQUEUED.inc();
                }
            }
        }
        if tasks.finish(b) {
            deque.push(b);
            stats::ASYNC_ENQUEUED.inc();
        }
    }
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
    /// Bytes of heap owned by the three fact sets. The block lists and
    /// indices these results carry are `Arc`-shared with the function's
    /// graph and counted once with the IR, not here.
    pub fn heap_bytes(&self) -> usize {
        self.liveness.heap_bytes() + self.reaching.heap_bytes() + self.stack.heap_bytes()
    }
}

/// The three standard analyses of one function, off its IR — one
/// decoded arena, one graph, memoized RPO ranks shared by all three
/// fixpoints.
fn func_analyses(ir: &FuncIr, exec: ExecutorKind) -> FuncAnalyses {
    let graph = ir.graph();
    FuncAnalyses {
        liveness: liveness_on(ir, graph, exec),
        reaching: reaching_defs_on(ir, graph, exec),
        stack: stack_heights_on(ir, graph, exec),
    }
}

/// Run the three standard analyses over every function of a prebuilt
/// [`BinaryIr`], fanning functions across a rayon pool of `threads`
/// workers, each function's fixpoints on `exec`.
///
/// This is the paper's "parallel analysis over a read-only CFG" phase:
/// no decoding, no graph building — the analyses only run fixpoints.
/// Across-function parallelism is where the throughput is, so
/// [`ExecutorKind::Serial`] is the usual per-function executor.
pub fn run_all_ir(ir: &BinaryIr, threads: usize, exec: ExecutorKind) -> HashMap<u64, FuncAnalyses> {
    run_per_function_ir(ir, threads, |fir| func_analyses(fir, exec))
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
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use pba_concurrent::Counter;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// A toy forward "block counting" spec: each block's output is
    /// `max(inputs) + 1`; the fixpoint is the longest acyclic distance
    /// from entry, saturating on cycles at the block count (capped).
    /// Counts its `transfer_into` calls so tests can pin that the
    /// executors actually drive the in-place path.
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
        let (input, output) = ExecutorKind::Serial.run(&Depth::new(100), &graph);
        let at = |b: u64| graph.index().get(b).unwrap();
        assert_eq!(input[at(1)], 1);
        assert_eq!(output[at(1)], 2);
        assert_eq!(input[at(4)], 3, "join takes the max over both arms");
    }

    #[test]
    fn executors_agree_on_cyclic_graph_and_use_transfer_into() {
        let mut view = diamond();
        view.edges.push((4, 1, EdgeKind::Direct)); // loop back
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(17);
        let a = ExecutorKind::Serial.run(&spec, &graph);
        let serial_calls = spec.into_calls.get();
        assert!(serial_calls > 0, "serial hot loop goes through transfer_into");
        let b = ExecutorKind::Parallel(4).run(&spec, &graph);
        let parallel_calls = spec.into_calls.get();
        assert!(parallel_calls > serial_calls, "parallel rounds too");
        let c = ExecutorKind::Async(4).run(&spec, &graph);
        assert!(spec.into_calls.get() > parallel_calls, "async visits too");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, c.0, "async input diverges");
        assert_eq!(a.1, c.1, "async output diverges");
    }

    #[test]
    fn async_matches_serial_across_thread_counts() {
        let mut view = diamond();
        view.edges.push((4, 1, EdgeKind::Direct)); // loop back
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(17);
        let serial = ExecutorKind::Serial.run(&spec, &graph);
        for threads in [1usize, 2, 4, 8] {
            let r = ExecutorKind::Async(threads).run(&spec, &graph);
            assert_eq!(serial.0, r.0, "{threads} threads");
            assert_eq!(serial.1, r.1, "{threads} threads");
        }
    }

    #[test]
    fn async_visit_count_stays_near_serial_on_a_chain() {
        // On one worker, seeds drain from the FIFO injector in rank
        // order, so the first sweep settles a chain exactly like the
        // serial priority worklist: the visit count must not run away.
        let n = 512u64;
        let view = VecView::new(
            1,
            (1..=n).map(|b| (b, b + 1, vec![])).collect(),
            (1..n).map(|b| (b, b + 1, EdgeKind::Direct)).collect(),
        );
        let graph = FlowGraph::build(&view);
        // Per-instance transfer counters (the global `stats` counters
        // are shared with concurrently-running tests).
        let serial_spec = Depth::new(u32::MAX);
        ExecutorKind::Serial.run(&serial_spec, &graph);
        let serial_visits = serial_spec.into_calls.get();
        let async_spec = Depth::new(u32::MAX);
        ExecutorKind::Async(1).run(&async_spec, &graph);
        let async_visits = async_spec.into_calls.get();
        assert!(
            async_visits <= serial_visits * 2,
            "async {async_visits} visits vs serial {serial_visits}: runaway re-enqueue"
        );
    }

    #[test]
    fn auto_matches_serial_on_both_sides_of_the_threshold() {
        // Small graph (serial side).
        let view = diamond();
        let graph = FlowGraph::build(&view);
        let spec = Depth::new(100);
        let serial = ExecutorKind::Serial.run(&spec, &graph);
        let auto = ExecutorKind::Auto.run(&spec, &graph);
        assert_eq!(serial.0, auto.0);
        assert_eq!(serial.1, auto.1);

        // A chain longer than the threshold (parallel side).
        let n = auto_block_threshold() as u64 + 10;
        let view = VecView::new(
            1,
            (1..=n).map(|b| (b, b + 1, vec![])).collect(),
            (1..n).map(|b| (b, b + 1, EdgeKind::Direct)).collect(),
        );
        let graph = FlowGraph::build(&view);
        assert!(graph.blocks.len() >= auto_block_threshold());
        let spec = Depth::new(u32::MAX);
        let serial = ExecutorKind::Serial.run(&spec, &graph);
        let auto = ExecutorKind::Auto.run(&spec, &graph);
        assert_eq!(serial.0, auto.0);
        assert_eq!(serial.1, auto.1);
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

    /// A forward spec that records the rayon pool width each visit runs
    /// under.
    struct PoolWidth(Mutex<BTreeSet<usize>>);

    impl DataflowSpec for PoolWidth {
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
            self.0.lock().unwrap().insert(rayon::current_num_threads());
            *input
        }
    }

    #[test]
    fn explicit_thread_counts_get_their_pool_and_zero_inherits_the_enclosing_one() {
        let n = 64u64;
        let view = VecView::new(
            1,
            (1..=n).map(|b| (b, b + 1, vec![])).collect(),
            (1..n).map(|b| (b, b + 1, EdgeKind::Direct)).collect(),
        );
        let graph = FlowGraph::build(&view);
        // Pool widths seen by `exec`'s visits when run inside an
        // enclosing pool of `enclosing` workers.
        let widths = |exec: ExecutorKind, enclosing: usize| {
            let spec = PoolWidth(Mutex::new(BTreeSet::new()));
            let pool = rayon::ThreadPoolBuilder::new().num_threads(enclosing).build().unwrap();
            pool.install(|| exec.run(&spec, &graph));
            spec.0.into_inner().unwrap()
        };
        for t in [1usize, 3] {
            let only_t = BTreeSet::from([t]);
            assert_eq!(widths(ExecutorKind::Parallel(t), 2), only_t, "Parallel({t}) in a 2-pool");
            assert_eq!(widths(ExecutorKind::Async(t), 2), only_t, "Async({t}) in a 2-pool");
            assert_eq!(widths(ExecutorKind::Parallel(0), t), only_t, "Parallel(0) in a {t}-pool");
            assert_eq!(widths(ExecutorKind::Async(0), t), only_t, "Async(0) in a {t}-pool");
        }
    }
}
