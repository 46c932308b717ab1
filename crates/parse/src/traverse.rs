//! The parallel control-flow traversal engine (paper Listings 2-3).
//!
//! Work items are `(function context, block start)` pairs. Under task
//! scheduling, discovering a function spawns its traversal immediately
//! into the enclosing rayon scope — onto the discovering worker's own
//! deque, from which idle workers steal, so one function whose
//! traversal explodes (a `Skewed`-profile giant) sheds its discoveries
//! to the rest of the pool instead of serializing it. Under rounds
//! scheduling, discoveries queue for the next level-synchronous batch
//! (the ablation baseline). Both schedulings produce canonically
//! identical CFGs at any thread count (the commutativity invariants of
//! Section 4, pinned by the equivalence tests).
//! The outer loop also drives the inter-round consequences: deferred
//! non-returning resolution, the jump-table fixed point, and the final
//! ret-sweep for functions whose entry block was parsed inside another
//! function's traversal (see the crate docs, "The run loop").

use crate::config::{ParseConfig, Scheduling};
use crate::finalize;
use crate::input::ParseInput;
use crate::jumptable::{decide, eval_targets, TableDecision};
use crate::snapshot::SnapshotView;
use crate::state::{CallDisposition, RawJumpTable, RegisterOutcome, State};
use crate::stats::timed;
use crate::ParseResult;
use crossbeam::queue::SegQueue;
use pba_cfg::EdgeKind;
use pba_concurrent::fxhash::{FxHashMap, FxHashSet};
use pba_dataflow::{backward_cone, slice_cone};
use pba_isa::{ControlFlow, Insn};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Upper bound on scanned jump-table entries when no bound was
/// recovered (over-approximation cap; finalization clamps further).
const MAX_JT_ENTRIES: usize = 1024;

/// Safety cap on post-traversal jump-table re-analysis rounds (the
/// fixed-point iteration of Section 5.3). The fixed point is driven by
/// monotone inputs (the discovered-table set and the graph only grow),
/// so it converges long before a generous cap; the cap only guards
/// against pathological inputs.
const JT_REFINE_ROUNDS: usize = 32;

/// One traversal work item.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Function context the traversal is attributed to.
    pub func: u64,
    /// Block start to parse from.
    pub start: u64,
}

/// Where new work goes.
pub enum Sched<'a, 'scope> {
    /// Spawn into the live rayon scope (task parallelism).
    Task(&'a rayon::Scope<'scope>, &'scope SegQueue<Work>),
    /// Queue for the next round (level-synchronous ablation).
    Rounds(&'a SegQueue<Work>),
}

/// Result of linear parsing one block.
struct ParsedBlock {
    end: u64,
    term: Option<Insn>,
    teardown_before: bool,
}

/// Per-thread decode cache (paper Section 6.3): every address this
/// thread has decoded maps to the end/terminator of the block it falls
/// in, so branching into the middle of already-analyzed code skips
/// re-decoding. Keyed by a per-parse run id so concurrent or repeated
/// parses never observe each other's entries. Written once per decoded
/// instruction, hence the Fx hasher (keys are code addresses).
type DecodeCache = FxHashMap<u64, (u64, u64, bool)>;

thread_local! {
    static TLS_CACHE: std::cell::RefCell<(u64, DecodeCache)> =
        std::cell::RefCell::new((0, DecodeCache::default()));
}

/// Run `f` on this thread's decode cache, emptied first if it still
/// holds another parse's entries.
fn with_cache<R>(state: &State<'_>, f: impl FnOnce(&mut DecodeCache) -> R) -> R {
    TLS_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.0 != state.run_id {
            c.0 = state.run_id;
            c.1.clear();
        }
        f(&mut c.1)
    })
}

/// Decode work of one `traverse` call, flushed into the shared
/// counters once at its end: bumping them per instruction keeps one
/// cache line bouncing between the workers.
#[derive(Default)]
struct DecodeWork {
    insns: u64,
    cache_hits: u64,
    errors: u64,
}

impl DecodeWork {
    fn flush(&self, state: &State<'_>) {
        state.stats.insns_decoded.add(self.insns);
        state.stats.cache_hits.add(self.cache_hits);
        state.stats.decode_errors.add(self.errors);
    }
}

fn linear_parse(state: &State<'_>, start: u64, work: &mut DecodeWork) -> ParsedBlock {
    if state.cfg.decode_cache {
        if let Some((end, term_start, td)) = with_cache(state, |c| c.get(&start).copied()) {
            work.cache_hits += 1;
            let term = state.input.code.decode(term_start);
            return ParsedBlock { end, term, teardown_before: td };
        }
    }
    let code = &state.input.code;
    let mut at = start;
    let mut teardown = false;
    let mut visited: Vec<u64> = Vec::new();
    loop {
        let Some(insn) = code.decode(at) else {
            work.errors += 1;
            return ParsedBlock { end: at, term: None, teardown_before: false };
        };
        work.insns += 1;
        if insn.is_cti() {
            if state.cfg.decode_cache {
                let end = insn.end();
                let term_start = insn.addr;
                with_cache(state, |c| {
                    // Record every visited boundary: a later branch into
                    // the middle of this code resolves without decoding.
                    // The teardown flag holds for any start at or before
                    // the penultimate instruction; the terminator's own
                    // address sees no preceding instruction.
                    for &a in &visited {
                        c.insert(a, (end, term_start, teardown));
                    }
                    c.insert(term_start, (end, term_start, false));
                });
            }
            return ParsedBlock { end: insn.end(), term: Some(insn), teardown_before: teardown };
        }
        visited.push(at);
        teardown = insn.is_frame_teardown();
        at = insn.end();
        if !code.contains(at) {
            return ParsedBlock { end: at, term: None, teardown_before: false };
        }
    }
}

/// Traverse from the work item's start in its function context
/// (Listing 3).
fn traverse<'i: 'scope, 'scope>(state: &'scope State<'i>, sched: &Sched<'_, 'scope>, w: Work) {
    let mut work = DecodeWork::default();
    let mut worklist = vec![w.start];
    while let Some(b) = worklist.pop() {
        let pb = linear_parse(state, b, &mut work);
        if pb.end == b {
            // Undecodable from the first byte: retract the block.
            state.blocks.remove(&b);
            continue;
        }
        match state.register_end(b, pb.end) {
            RegisterOutcome::CreateEdges => {
                create_edges(state, sched, w.func, b, &pb, &mut worklist)
            }
            RegisterOutcome::SplitDone => {}
        }
    }
    work.flush(state);
}

/// Handle a newly created function: traverse it, or — if its entry block
/// already exists from another function's traversal — scan the existing
/// subgraph for `ret`s so its status is not falsely `NoReturn`.
fn enter_function<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    entry: u64,
) {
    if state.create_block(entry) {
        submit(state, sched, Work { func: entry, start: entry });
    } else {
        scan_existing(state, sched, entry);
    }
}

/// One block of a [`walk_function`] result.
struct WalkedBlock {
    start: u64,
    /// The block's terminator is a `ret` (its end is in `ret_ends`).
    is_ret: bool,
    /// Targets of the tail-call edges leaving the block.
    tail_calls: Vec<u64>,
}

/// The intra-procedural subgraph of `entry` as the shared maps hold it
/// now: every registered block reachable over non-inter-procedural
/// edges, in address order, with its terminator class and the tail-call
/// edges leaving it. Nothing is decoded and no view is built — the
/// terminator class was recorded when the block's edges were created.
fn walk_function(state: &State<'_>, entry: u64) -> Vec<WalkedBlock> {
    state.stats.sweep_views.inc();
    let mut blocks = Vec::new();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut work = vec![entry];
    while let Some(b) = work.pop() {
        if !seen.insert(b) {
            continue;
        }
        let Some(end) = state.blocks.find(&b).map(|rec| rec.end) else { continue };
        if end == 0 {
            continue; // still being parsed
        }
        let mut tail_calls = Vec::new();
        if let Some(edges) = state.edges.find(&end) {
            for &(dst, kind) in edges.iter() {
                if kind == EdgeKind::TailCall {
                    tail_calls.push(dst);
                } else if !kind.is_interprocedural() && !seen.contains(&dst) {
                    work.push(dst);
                }
            }
        }
        blocks.push(WalkedBlock { start: b, is_ret: state.ret_ends.contains(end), tail_calls });
    }
    blocks.sort_unstable_by_key(|b| b.start);
    blocks
}

/// Re-walk already-parsed blocks under a new function context.
fn scan_existing<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    entry: u64,
) {
    for b in walk_function(state, entry) {
        if b.is_ret {
            let resumed = state.notify_returns(entry);
            process_resumed(state, sched, resumed);
        }
        // Tail-call dependencies out of this subgraph.
        for dst in b.tail_calls {
            let resumed = state.add_tail_dependency(entry, dst);
            process_resumed(state, sched, resumed);
        }
    }
}

/// Create the call fall-through edges + parse work for resumed waiters.
fn process_resumed<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    resumed: Vec<(u64, u64)>,
) {
    for (call_end, caller) in resumed {
        state.add_edge(call_end, call_end, EdgeKind::CallFallthrough);
        if state.input.valid_code_addr(call_end) && state.create_block(call_end) {
            submit(state, sched, Work { func: caller, start: call_end });
        }
    }
}

fn submit<'i: 'scope, 'scope>(state: &'scope State<'i>, sched: &Sched<'_, 'scope>, w: Work) {
    match sched {
        Sched::Task(scope, queue) => {
            let q = *queue;
            scope.spawn(move |s| traverse(state, &Sched::Task(s, q), w));
        }
        Sched::Rounds(q) => q.push(w),
    }
}

/// Invariant 3: the registering thread creates all out-edges.
fn create_edges<'i: 'scope, 'scope>(
    state: &'scope State<'i>,
    sched: &Sched<'_, 'scope>,
    fctx: u64,
    block_start: u64,
    pb: &ParsedBlock,
    worklist: &mut Vec<u64>,
) {
    let e = pb.end;
    let Some(term) = pb.term else { return };
    let valid = |t: u64| state.input.valid_code_addr(t);

    match term.control_flow() {
        ControlFlow::Branch { target } if valid(target) => {
            // Tail-call heuristics (Section 2.1): branch to a known
            // function entry, or a frame-teardown branch to new code.
            let is_entry = state.funcs.contains_key(&target);
            if is_entry {
                state.add_edge(e, target, EdgeKind::TailCall);
                if state.create_function(target, None, false) {
                    enter_function(state, sched, target);
                }
                let resumed = state.add_tail_dependency(fctx, target);
                process_resumed(state, sched, resumed);
            } else if state.blocks.contains_key(&target) && !pb.teardown_before {
                // Known block, no teardown: intra-procedural branch.
                state.add_edge(e, target, EdgeKind::Direct);
            } else if pb.teardown_before {
                // Teardown before the branch: tail call to a new
                // function (O_FEI).
                state.add_edge(e, target, EdgeKind::TailCall);
                if state.create_function(target, None, false) {
                    enter_function(state, sched, target);
                }
                let resumed = state.add_tail_dependency(fctx, target);
                process_resumed(state, sched, resumed);
            } else {
                state.add_edge(e, target, EdgeKind::Direct);
                if state.create_block(target) {
                    worklist.push(target);
                }
            }
        }
        ControlFlow::Branch { .. } => {} // branch out of the region
        ControlFlow::CondBranch { target } => {
            if valid(target) {
                state.add_edge(e, target, EdgeKind::CondTaken);
                if state.create_block(target) {
                    worklist.push(target);
                }
            }
            if valid(e) {
                state.add_edge(e, e, EdgeKind::CondNotTaken);
                if state.create_block(e) {
                    worklist.push(e);
                }
            }
        }
        ControlFlow::Call { target } if valid(target) => {
            state.add_edge(e, target, EdgeKind::Call);
            if state.create_function(target, None, false) {
                enter_function(state, sched, target);
            }
            match state.call_disposition(target, e, fctx) {
                CallDisposition::Fallthrough => {
                    state.add_edge(e, e, EdgeKind::CallFallthrough);
                    if valid(e) && state.create_block(e) {
                        worklist.push(e);
                    }
                }
                CallDisposition::NoFallthrough => {}
                CallDisposition::Waiting => {}
            }
        }
        ControlFlow::Call { .. } | ControlFlow::IndirectCall => {
            // Callee outside the region (PLT-like) or indirect: assume it
            // returns, as Dyninst does.
            state.add_edge(e, e, EdgeKind::CallFallthrough);
            if valid(e) && state.create_block(e) {
                worklist.push(e);
            }
        }
        ControlFlow::Ret => {
            state.ret_ends.insert(e);
            let resumed = state.notify_returns(fctx);
            process_resumed(state, sched, resumed);
        }
        ControlFlow::Halt => {}
        ControlFlow::IndirectBranch => {
            let new_blocks = analyze_jump_table(state, fctx, block_start, e);
            for t in new_blocks {
                worklist.push(t);
            }
        }
        ControlFlow::Fallthrough => unreachable!("non-CTI cannot terminate a block"),
    }
}

/// Slice the indirect jump ending `block` over a snapshot, reading only
/// the jump's backward `cone`, and decide its table, folding the
/// widening signal into the parse stats.
fn sliced_decision(
    state: &State<'_>,
    view: &SnapshotView,
    block: u64,
    cone: &[u64],
) -> Option<TableDecision> {
    state.stats.jt_slices.inc();
    let outcome = slice_cone(view, block, cone)?;
    if outcome.widened {
        state.stats.jt_widened.inc();
    }
    decide(&outcome.facts)
}

/// Run jump-table analysis for the indirect jump whose block ends at
/// `e`. Adds indirect edges; returns the newly created target blocks
/// (to be parsed by the caller in this function context).
fn analyze_jump_table(state: &State<'_>, fctx: u64, block_start: u64, e: u64) -> Vec<u64> {
    let view = SnapshotView::build(state, fctx, &[block_start]);
    let cone = backward_cone(&view, block_start);
    let decision = sliced_decision(state, &view, block_start, &cone);
    // Record the jump whatever the slice found, with the cone it read:
    // the post-quiescence fixed point retries it once that cone has
    // grown or been re-split — the paper's "repeat the analysis of a
    // jump table after more control flow paths are created" (Section
    // 5.3).
    let mut jt = RawJumpTable {
        func: fctx,
        block_start,
        block_end: e,
        sliced_on: view.cone_key(block_start, &cone),
        decision: decision.clone(),
        ..Default::default()
    };
    if let Some(d) = &decision {
        jt.set_form(&d.form);
    }
    state.jts.insert(e, jt);
    match decision {
        None => Vec::new(),
        Some(d) if d.bound.is_none() => {
            // No guard bound recovered: an unbounded scan now would
            // plant over-approximated edges that can split not-yet-parsed
            // code mid-instruction. Defer target creation to the fixed
            // point, where other discovered tables clamp the scan — the
            // paper's delay-vs-monotonicity balance of Section 5.3.
            state.stats.jt_unbounded.inc();
            Vec::new()
        }
        Some(d) => {
            state.stats.jt_bounded.inc();
            apply_decision(state, e, block_start, &d, MAX_JT_ENTRIES).unwrap_or_default()
        }
    }
}

/// Write `decision` back to the jump table recorded at `e`, the one
/// write-back of discovery and the fixed point: evaluate its targets
/// (at most `max_entries`), and return `None` if the record already
/// holds them. Otherwise remove the indirect edges to targets it no
/// longer has, update the record (its jump block is now `block_start`)
/// and add an edge to every target. Returns the target blocks this
/// created.
fn apply_decision(
    state: &State<'_>,
    e: u64,
    block_start: u64,
    decision: &TableDecision,
    max_entries: usize,
) -> Option<Vec<u64>> {
    let (targets, bounded) = eval_targets(state.input, decision, max_entries);
    let stale: Vec<u64> = {
        let mut acc = state.jts.find_mut(&e)?;
        if targets == acc.targets && bounded == acc.bounded && acc.stride != 0 {
            return None;
        }
        // Targets dropped by a tighter clamp leave stale indirect edges
        // behind (O_ER is commutative, so removing them is safe).
        let stale = acc.targets.iter().copied().filter(|t| !targets.contains(t)).collect();
        acc.targets = targets.clone();
        acc.bounded = bounded;
        acc.block_start = block_start;
        acc.set_form(&decision.form);
        stale
    };
    if !stale.is_empty() {
        if let Some(mut acc) = state.edges.find_mut(&e) {
            acc.retain(|&(d, k)| !(k == EdgeKind::Indirect && stale.contains(&d)));
        }
        state.touch(e);
    }
    let mut new_blocks = Vec::new();
    for t in targets {
        state.add_edge(e, t, EdgeKind::Indirect);
        if state.create_block(t) {
            new_blocks.push(t);
        }
    }
    Some(new_blocks)
}

/// Post-quiescence jump-table fixed point (Section 5.3): re-slice each
/// recorded table whose backward cone changed since its last slice;
/// queue any new targets for another traversal round. Returns true if
/// anything new appeared.
///
/// `views` keeps each function's [`SnapshotView`] from one round to the
/// next. A view no change has reached since (`State::touch`) is the view
/// a rebuild would give, so it is kept — with the blocks its slices
/// decoded — and its tables, whose cones it holds unchanged, are not
/// looked at again.
fn refine_jump_tables(
    state: &State<'_>,
    queue: &SegQueue<Work>,
    views: &mut FxHashMap<u64, SnapshotView>,
) -> bool {
    state.track_changes();
    let touched = state.take_touched();
    // (jump end, function, current jump block) per table. The jump's
    // block may have been split since discovery; the current owner of
    // the end is the block that actually holds the indirect jump now.
    let mut tables: Vec<(u64, u64, u64)> = Vec::new();
    state.jts.for_each(|&e, jt| {
        let cur_start = state.block_ends.find(&e).map(|a| *a).unwrap_or(jt.block_start);
        tables.push((e, jt.func, cur_start));
    });

    // Slice: one view per function, shared by its tables. A table whose
    // cone is the one its last slice read (`RawJumpTable::sliced_on`)
    // keeps that slice's decision, and its blocks are not decoded.
    // Slices read the graph and write nothing but counters, so they run
    // in parallel.
    let mut by_func: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for &(e, func, jump_block) in &tables {
        by_func.entry(func).or_default().push((e, jump_block));
    }
    let work: Vec<_> =
        by_func.into_iter().map(|(func, jumps)| (func, jumps, views.remove(&func))).collect();
    let sliced: Vec<_> = work
        .into_par_iter()
        .map(|(func, jumps, view)| (func, reslice_function(state, func, &jumps, view, &touched)))
        .collect();
    for (func, (view, resliced)) in sliced {
        views.insert(func, view);
        for (e, key, decision) in resliced {
            if let Some(mut jt) = state.jts.find_mut(&e) {
                jt.sliced_on = key;
                jt.decision = decision;
            }
        }
    }

    // Evaluate, in table order, against the table locations known so
    // far ("compilers do not emit overlapping jump tables"): read once
    // up front, kept current as tables resolve below.
    let mut table_addrs: Vec<Option<u64>> = tables
        .iter()
        .map(|(e, ..)| state.jts.find(e).and_then(|jt| (jt.stride > 0).then_some(jt.table_addr)))
        .collect();
    let mut changed = false;
    for (i, &(e, func, cur_start)) in tables.iter().enumerate() {
        let Some(decision) = state.jts.find(&e).and_then(|jt| jt.decision.clone()) else {
            continue;
        };
        let (table_addr, stride) = (decision.form.table(), decision.form.stride());
        // Unbounded tables are clamped here; the finalization pass
        // re-clamps as a safety net for tables discovered even later.
        let next_table = table_addrs.iter().flatten().copied().filter(|&a| a > table_addr).min();
        let max_entries = match next_table {
            Some(n) if decision.bound.is_none() && stride > 0 => {
                (((n - table_addr) / stride as u64) as usize).min(MAX_JT_ENTRIES)
            }
            _ => MAX_JT_ENTRIES,
        };
        let Some(new_blocks) = apply_decision(state, e, cur_start, &decision, max_entries) else {
            continue;
        };
        table_addrs[i] = (stride > 0).then_some(table_addr);
        for t in new_blocks {
            queue.push(Work { func, start: t });
        }
        changed = true;
    }
    changed
}

/// A table the fixed point sliced again: its jump end, the cone key the
/// slice read, and what it decided.
type Resliced = (u64, Vec<u64>, Option<TableDecision>);

/// One function's part of a fixed-point round: `jumps` are its tables as
/// `(jump end, current jump block)`, `kept` its view from the last round
/// and `touched` the addresses changed since. Returns the view to keep
/// and the tables whose cone changed, sliced again.
fn reslice_function(
    state: &State<'_>,
    func: u64,
    jumps: &[(u64, u64)],
    kept: Option<SnapshotView>,
    touched: &FxHashSet<u64>,
) -> (SnapshotView, Vec<Resliced>) {
    let mut jump_blocks: Vec<u64> = jumps.iter().map(|&(_, b)| b).collect();
    jump_blocks.sort_unstable();
    if let Some(view) = kept.filter(|v| v.is_current(&jump_blocks, touched)) {
        // Unchanged view, unchanged cones: nothing to look at.
        return (view, Vec::new());
    }
    let view = SnapshotView::build(state, func, &jump_blocks);
    let resliced = jumps
        .iter()
        .filter_map(|&(e, block)| {
            let cone = backward_cone(&view, block);
            let key = view.cone_key(block, &cone);
            if state.jts.find(&e).is_some_and(|jt| jt.sliced_on == key) {
                return None;
            }
            state.stats.refine_reanalyses.inc();
            Some((e, key, sliced_decision(state, &view, block, &cone)))
        })
        .collect();
    (view, resliced)
}

/// Final sweep: functions still `Unset` whose reachable subgraph
/// contains a `ret` (parsed under another traversal context) become
/// `Returns`, and tail-call edges out of the subgraph are re-registered
/// as status dependencies — the traversal context that first parsed a
/// shared block may not be every function that owns it. Returns resumed
/// call sites from dependencies on already-returning targets.
fn ret_sweep(state: &State<'_>) -> Vec<(u64, u64)> {
    let entries: Vec<u64> = state.funcs.snapshot_keys();
    let resumed: Vec<Vec<(u64, u64)>> = entries
        .par_iter()
        .map(|&f| {
            let unset = state
                .funcs
                .find(&f)
                .map(|a| a.status == pba_cfg::RetStatus::Unset)
                .unwrap_or(false);
            if !unset {
                return Vec::new();
            }
            let blocks = walk_function(state, f);
            if blocks.iter().any(|b| b.is_ret) {
                if let Some(mut acc) = state.funcs.find_mut(&f) {
                    acc.has_ret = true;
                }
            }
            let mut resumed = Vec::new();
            for dst in blocks.into_iter().flat_map(|b| b.tail_calls) {
                resumed.extend(state.add_tail_dependency(f, dst));
            }
            resumed
        })
        .collect();
    resumed.into_iter().flatten().collect()
}

/// Run the full engine: init, traversal rounds, status resolution,
/// jump-table fixed point, finalization.
pub fn run(input: &ParseInput, cfg: &ParseConfig) -> ParseResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.effective_threads())
        .build()
        .expect("thread pool");

    pool.install(|| {
        let state = State::new(input, cfg);
        // Stage 1: parallel function initialization from the symbol
        // table (Listing 2 line 1).
        input.seeds.par_iter().for_each(|(addr, name)| {
            if input.code.contains(*addr) {
                state.create_function(*addr, Some(name.clone()), true);
            }
        });

        let queue: SegQueue<Work> = SegQueue::new();
        for f in state.funcs.snapshot_keys() {
            if state.create_block(f) {
                queue.push(Work { func: f, start: f });
            }
        }

        let mut jt_rounds_left = JT_REFINE_ROUNDS;
        let mut jt_views = FxHashMap::default();
        loop {
            // Drain pending work into a batch.
            let mut batch = Vec::new();
            while let Some(w) = queue.pop() {
                batch.push(w);
            }
            if !batch.is_empty() {
                timed(&state.stats.traverse_ns, || match cfg.scheduling {
                    Scheduling::Task => {
                        rayon::scope(|s| {
                            for w in batch {
                                let stref: &State<'_> = &state;
                                let q = &queue;
                                s.spawn(move |s2| traverse(stref, &Sched::Task(s2, q), w));
                            }
                        });
                    }
                    Scheduling::Rounds => {
                        batch.par_iter().for_each(|w| traverse(&state, &Sched::Rounds(&queue), *w));
                    }
                });
                continue;
            }

            // Quiesced: resolve statuses (no-op in eager mode unless a
            // scan set has_ret late), then the jump-table fixed point.
            // Always loop after resuming call sites: even when their
            // fall-through blocks already exist, the new summary edges
            // can make further `ret`s reachable for the next sweep.
            let resumed = timed(&state.stats.sweep_ns, || {
                let mut resumed = ret_sweep(&state);
                resumed.extend(state.resolve_statuses());
                resumed
            });
            if !resumed.is_empty() {
                process_resumed(&state, &Sched::Rounds(&queue), resumed);
                continue;
            }
            if jt_rounds_left > 0
                && timed(&state.stats.refine_ns, || {
                    refine_jump_tables(&state, &queue, &mut jt_views)
                })
            {
                // Something changed: even without new blocks, new edges
                // can alter status reachability — loop so the sweep and
                // resolution re-run.
                jt_rounds_left -= 1;
                continue;
            }
            if queue.is_empty() {
                break;
            }
        }
        drop(jt_views);
        state.close_statuses();
        // Finalization runs inside the sized pool so its parallel steps
        // use the configured thread count (Table 2's CFG column times
        // the whole construction, finalization included).
        let started = std::time::Instant::now();
        let result = finalize::finalize(state);
        result.stats.finalize_ns.add(started.elapsed().as_nanos() as u64);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_cfg::CodeRegion;
    use pba_isa::Arch;

    #[test]
    fn walk_function_reads_terminator_classes_and_tail_calls_off_the_maps() {
        let input = ParseInput::from_parts(
            CodeRegion::new(Arch::X86_64, 0x1000, vec![0x90; 0x100]),
            vec![],
            vec![],
        );
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        // 0x1000 -> 0x1040 (taken) and -> 0x1020 (not taken); 0x1020
        // tail-calls 0x1080, calls 0x10c0 and branches to 0x1060, which
        // is created but not registered yet (end == 0); 0x1040 returns.
        for (start, end) in [(0x1000, 0x1020), (0x1020, 0x1040), (0x1040, 0x1060)] {
            s.create_block(start);
            s.register_end(start, end);
        }
        s.create_block(0x1060);
        s.add_edge(0x1020, 0x1040, EdgeKind::CondTaken);
        s.add_edge(0x1020, 0x1020, EdgeKind::CondNotTaken);
        s.add_edge(0x1040, 0x1080, EdgeKind::TailCall);
        s.add_edge(0x1040, 0x10c0, EdgeKind::Call);
        s.add_edge(0x1040, 0x1060, EdgeKind::Direct);
        s.ret_ends.insert(0x1060);

        let seen: Vec<(u64, bool, Vec<u64>)> = walk_function(&s, 0x1000)
            .into_iter()
            .map(|b| (b.start, b.is_ret, b.tail_calls))
            .collect();
        assert_eq!(
            seen,
            vec![(0x1000, false, vec![]), (0x1020, false, vec![0x1080]), (0x1040, true, vec![])],
            "address order; callee and tail-call target not entered; unregistered block skipped"
        );
        assert_eq!(s.stats.sweep_views.get(), 1);
    }
}
