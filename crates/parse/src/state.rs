//! Shared concurrent parse state and the invariant-maintaining
//! operations.
//!
//! Three accessor maps mirror the paper's Listings 4-5:
//!
//! * `blocks` keyed by **start** — Invariant 1 (block creation);
//! * `block_ends` keyed by **end** — Invariants 2-4 (end registration,
//!   edge-creation arbitration, eager split);
//! * `funcs` keyed by **entry** — Invariant 5 plus the non-returning
//!   status protocol (the entry-level accessor doubles as the
//!   per-function lock for status/waiter updates).
//!
//! Edges live in their own map keyed by *source block end*. That
//! identity is stable under block splits (it is exactly what the
//! paper's partial order preserves), so splitting never migrates
//! edges — it only inserts the implicit fall-through link. For the
//! same reason `ret_ends`, the set of block ends whose terminator is a
//! `ret`, needs no maintenance under splits: the status sweeps answer
//! "does this subgraph return" from it without decoding anything.

use crate::config::ParseConfig;
use crate::input::ParseInput;
use crate::jumptable::TableDecision;
use crate::stats::ParseStats;
use crossbeam::queue::SegQueue;
use pba_cfg::{EdgeKind, RetStatus};
use pba_concurrent::fxhash::FxHashSet;
use pba_concurrent::{AddressSet, ConcurrentHashMap};
use pba_dataflow::JumpTableForm;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-block record. `end == 0` means "created, not yet registered".
#[derive(Debug, Clone, Copy)]
pub struct BlockRec {
    /// Current end address (shrinks monotonically under splits).
    pub end: u64,
}

/// Per-function record; mutated only under its accessor lock.
#[derive(Debug, Clone)]
pub struct FuncState {
    /// Non-returning analysis status.
    pub status: RetStatus,
    /// A `ret` instruction has been decoded in this function's
    /// traversal context.
    pub has_ret: bool,
    /// Call sites `(call block end, caller entry)` waiting for this
    /// function to be proven returning.
    pub waiters: Vec<(u64, u64)>,
    /// Functions whose status follows this one (they tail-call us).
    pub dependents: Vec<u64>,
    /// Symbol name, if seeded from the symbol table.
    pub name: Option<String>,
    /// Came from the symbol table / entry point (never removed by
    /// finalization).
    pub seeded: bool,
}

/// A recorded jump table (pre-finalization).
#[derive(Debug, Clone, Default)]
pub struct RawJumpTable {
    /// Function context the jump was analyzed in.
    pub func: u64,
    /// Start of the block terminated by the indirect jump.
    pub block_start: u64,
    /// End of that block (the edge key).
    pub block_end: u64,
    /// Table base address.
    pub table_addr: u64,
    /// Entry stride.
    pub stride: u8,
    /// Whether each entry is a relative offset (vs. absolute pointer).
    pub relative: bool,
    /// Resolved targets, in table order.
    pub targets: Vec<u64>,
    /// A guard bound was recovered; unbounded tables are clamped during
    /// finalization.
    pub bounded: bool,
    /// What the jump's last slice read (`SnapshotView::cone_key`): the
    /// jump-table fixed point slices again only when the cone differs.
    pub sliced_on: Vec<u64>,
    /// What that slice decided.
    pub decision: Option<TableDecision>,
}

impl RawJumpTable {
    /// Record the table shape (address, stride, relative) of `form`.
    pub fn set_form(&mut self, form: &JumpTableForm) {
        self.table_addr = form.table();
        self.stride = form.stride();
        self.relative = matches!(form, JumpTableForm::Relative { .. });
    }
}

/// What `register_end` tells the caller to do.
#[derive(Debug, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// This thread registered the original end: create the out-edges
    /// (Invariant 3).
    CreateEdges,
    /// The end was contested; splits were performed (or the end was
    /// already ours). No edge creation.
    SplitDone,
}

/// The shared state for one parse run.
pub struct State<'i> {
    /// Input being parsed.
    pub input: &'i ParseInput,
    /// Configuration.
    pub cfg: &'i ParseConfig,
    /// Invariant 1: blocks by start address.
    pub blocks: ConcurrentHashMap<u64, BlockRec>,
    /// Invariant 2: registered ends → current owning block start.
    pub block_ends: ConcurrentHashMap<u64, u64>,
    /// Edges keyed by source block end.
    pub edges: ConcurrentHashMap<u64, Vec<(u64, EdgeKind)>>,
    /// Invariant 5: functions by entry.
    pub funcs: ConcurrentHashMap<u64, FuncState>,
    /// Jump tables keyed by the indirect jump's block end.
    pub jts: ConcurrentHashMap<u64, RawJumpTable>,
    /// Ends of blocks terminated by a `ret`, recorded by the thread that
    /// creates the block's out-edges (Invariant 3).
    pub ret_ends: AddressSet,
    /// Work counters.
    pub stats: ParseStats,
    /// Whether [`State::touch`] records anything.
    tracking: AtomicBool,
    /// Block starts and ends whose record or out-edges changed since the
    /// last [`State::take_touched`].
    touched: SegQueue<u64>,
    /// Unique id of this parse run (namespaces thread-local caches).
    pub run_id: u64,
}

impl<'i> State<'i> {
    /// Fresh state.
    pub fn new(input: &'i ParseInput, cfg: &'i ParseConfig) -> State<'i> {
        State {
            input,
            cfg,
            blocks: ConcurrentHashMap::new(),
            block_ends: ConcurrentHashMap::new(),
            edges: ConcurrentHashMap::new(),
            funcs: ConcurrentHashMap::new(),
            jts: ConcurrentHashMap::new(),
            ret_ends: AddressSet::new(),
            stats: ParseStats::default(),
            tracking: AtomicBool::new(false),
            touched: SegQueue::new(),
            run_id: {
                use std::sync::atomic::AtomicU64;
                static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
                NEXT_RUN.fetch_add(1, Ordering::Relaxed)
            },
        }
    }

    /// Invariant 1: returns `true` iff this call created the block (the
    /// caller must then parse it).
    pub fn create_block(&self, start: u64) -> bool {
        let created = self.blocks.insert(start, BlockRec { end: 0 });
        if created {
            self.stats.blocks_created.inc();
        } else {
            self.stats.block_races.inc();
        }
        created
    }

    fn set_block_end(&self, start: u64, end: u64) {
        self.touch(start);
        if let Some(mut acc) = self.blocks.find_mut(&start) {
            acc.end = end;
        } else {
            // A split remainder for a block created by another thread's
            // chain: ensure it exists.
            let (mut acc, _) = self.blocks.insert_with(start, || BlockRec { end });
            acc.end = end;
        }
    }

    /// Insert an edge; deduplicated. Returns true if newly added.
    pub fn add_edge(&self, src_end: u64, dst: u64, kind: EdgeKind) -> bool {
        let (mut acc, _) = self.edges.insert_with(src_end, Vec::new);
        if acc.iter().any(|&(d, k)| d == dst && k == kind) {
            return false;
        }
        acc.push((dst, kind));
        drop(acc);
        self.touch(src_end);
        self.stats.edges_created.inc();
        true
    }

    /// Record that the block starting at `addr`, or the out-edges keyed
    /// by the block end `addr`, changed — once [`State::track_changes`]
    /// has been called; before that, nothing is kept.
    pub fn touch(&self, addr: u64) {
        // Relaxed: the flag publishes nothing. It is set between phases,
        // before the traversal tasks that read it are spawned, and the
        // spawn orders the store before their loads.
        if self.tracking.load(Ordering::Relaxed) {
            self.touched.push(addr);
        }
    }

    /// Start recording changes for [`State::take_touched`]: the
    /// jump-table fixed point keeps each function's view across its
    /// rounds and rebuilds only those a change reached.
    pub fn track_changes(&self) {
        self.tracking.store(true, Ordering::Relaxed);
    }

    /// Every address [`State::touch`]ed since the last call.
    pub fn take_touched(&self) -> FxHashSet<u64> {
        std::iter::from_fn(|| self.touched.pop()).collect()
    }

    /// Invariants 2-4: register that the block starting at `start` ends
    /// at `end`, eagerly splitting on contested ends. Each loop
    /// iteration re-registers at a strictly smaller end address, so the
    /// loop converges (paper, Invariant 4).
    pub fn register_end(&self, start: u64, end: u64) -> RegisterOutcome {
        let mut cur_start = start;
        let mut cur_end = end;
        let mut first = true;
        loop {
            let (mut acc, inserted) = self.block_ends.insert_with(cur_end, || cur_start);
            if inserted {
                self.stats.ends_registered.inc();
                self.set_block_end(cur_start, cur_end);
                return if first {
                    RegisterOutcome::CreateEdges
                } else {
                    RegisterOutcome::SplitDone
                };
            }
            let xi = *acc;
            if xi == cur_start {
                // Idempotent re-registration (duplicate worklist entry).
                return RegisterOutcome::SplitDone;
            }
            self.stats.split_iterations.inc();
            if xi > cur_start {
                // Ours is longer on the left: shrink to [cur_start, xi)
                // and re-register at xi. The registered block keeps the
                // end (and its edges, which are keyed by the end).
                drop(acc);
                self.set_block_end(cur_start, xi);
                self.add_edge(xi, xi, EdgeKind::Fallthrough);
                cur_end = xi;
            } else {
                // The registered block [xi, cur_end) is longer: it
                // shrinks to [xi, cur_start); ours takes over the
                // registration of cur_end. Out-edges stay keyed at
                // cur_end — no migration.
                *acc = cur_start;
                drop(acc);
                self.set_block_end(cur_start, cur_end);
                self.set_block_end(xi, cur_start);
                self.add_edge(cur_start, cur_start, EdgeKind::Fallthrough);
                // Carry the remainder [xi, cur_start).
                cur_end = cur_start;
                cur_start = xi;
            }
            first = false;
        }
    }

    /// Invariant 5: returns `true` iff this call created the function
    /// (the caller should schedule its traversal).
    pub fn create_function(&self, entry: u64, name: Option<String>, seeded: bool) -> bool {
        let known_noret = name.as_deref().map(ParseInput::known_noreturn).unwrap_or(false);
        let (mut acc, created) = self.funcs.insert_with(entry, || FuncState {
            status: if known_noret { RetStatus::NoReturn } else { RetStatus::Unset },
            has_ret: false,
            waiters: Vec::new(),
            dependents: Vec::new(),
            name: name.clone(),
            seeded,
        });
        if created {
            self.stats.funcs_created.inc();
        } else {
            // Late-arriving symbol info upgrades an anonymous function.
            if acc.name.is_none() {
                acc.name = name;
            }
            if seeded {
                acc.seeded = true;
            }
        }
        created
    }

    /// Call-site disposition against the callee's current status.
    pub fn call_disposition(&self, callee: u64, call_end: u64, caller: u64) -> CallDisposition {
        let Some(mut acc) = self.funcs.find_mut(&callee) else {
            // Callee unknown (e.g. call outside the region): assume it
            // returns, like Dyninst does for PLT stubs.
            return CallDisposition::Fallthrough;
        };
        match acc.status {
            RetStatus::Returns => CallDisposition::Fallthrough,
            RetStatus::NoReturn => CallDisposition::NoFallthrough,
            // Both modes wait here; they differ in when the status
            // resolves (`notify_returns` / `add_tail_dependency`).
            RetStatus::Unset => {
                acc.waiters.push((call_end, caller));
                self.stats.noreturn_waits.inc();
                CallDisposition::Waiting
            }
        }
    }

    /// Record that a `ret` was decoded in `entry`'s traversal context.
    /// In eager mode, flips the status to `Returns` and drains waiters /
    /// dependents transitively. Returns the resumed call sites
    /// `(call block end, caller entry)` for the caller to schedule.
    pub fn notify_returns(&self, entry: u64) -> Vec<(u64, u64)> {
        let mut resumed = Vec::new();
        let mut queue = vec![entry];
        while let Some(f) = queue.pop() {
            let Some(mut acc) = self.funcs.find_mut(&f) else { continue };
            acc.has_ret = true;
            if !self.cfg.eager_noreturn {
                continue;
            }
            if acc.status != RetStatus::Unset {
                continue;
            }
            acc.status = RetStatus::Returns;
            let waiters = std::mem::take(&mut acc.waiters);
            let dependents = std::mem::take(&mut acc.dependents);
            drop(acc);
            self.stats.noreturn_resumes.add(waiters.len() as u64);
            resumed.extend(waiters);
            queue.extend(dependents);
        }
        resumed
    }

    /// Register that `f` tail-calls `dep` so `f`'s status follows
    /// `dep`'s. Returns resumed call sites if `dep` already returns
    /// (which immediately proves `f` returning too).
    pub fn add_tail_dependency(&self, f: u64, dep: u64) -> Vec<(u64, u64)> {
        let already_returns = {
            let Some(mut acc) = self.funcs.find_mut(&dep) else { return Vec::new() };
            let returns = acc.status == RetStatus::Returns;
            if (!returns || !self.cfg.eager_noreturn) && !acc.dependents.contains(&f) {
                // In deferred mode a dependency on an already-returning
                // function must still be recorded: the round-boundary
                // resolution drains residual dependents of `Returns`
                // functions (registrations can arrive after the flip).
                // Deduplicated: the quiesce sweep re-registers.
                acc.dependents.push(f);
            }
            returns
        };
        if already_returns && self.cfg.eager_noreturn {
            self.notify_returns(f)
        } else {
            Vec::new()
        }
    }

    /// Post-traversal status resolution: fixpoint over `has_ret` and
    /// tail dependencies, then everything still `Unset` becomes
    /// `NoReturn`. Returns resumed call sites discovered by the
    /// fixpoint (non-empty only in deferred mode or for late cycles).
    pub fn resolve_statuses(&self) -> Vec<(u64, u64)> {
        let mut resumed = Vec::new();
        // 1. has_ret ⇒ Returns (deferred mode leaves these Unset), and
        // drain residual waiters/dependents registered on functions
        // that already transitioned in an earlier round.
        let entries: Vec<u64> = self.funcs.snapshot_keys();
        let mut queue: Vec<u64> = Vec::new();
        for &f in &entries {
            if let Some(mut acc) = self.funcs.find_mut(&f) {
                if acc.status == RetStatus::Unset && acc.has_ret {
                    acc.status = RetStatus::Returns;
                }
                if acc.status == RetStatus::Returns {
                    resumed.extend(std::mem::take(&mut acc.waiters));
                    queue.extend(std::mem::take(&mut acc.dependents));
                }
            }
        }
        // 2. propagate through dependents.
        while let Some(f) = queue.pop() {
            if let Some(mut acc) = self.funcs.find_mut(&f) {
                if acc.status == RetStatus::Unset {
                    acc.status = RetStatus::Returns;
                    resumed.extend(std::mem::take(&mut acc.waiters));
                    queue.extend(std::mem::take(&mut acc.dependents));
                }
            }
        }
        resumed
    }

    /// Final step: everything still `Unset` is non-returning (cyclic
    /// dependencies all-noreturn rule).
    pub fn close_statuses(&self) {
        for f in self.funcs.snapshot_keys() {
            if let Some(mut acc) = self.funcs.find_mut(&f) {
                if acc.status == RetStatus::Unset {
                    acc.status = RetStatus::NoReturn;
                }
            }
        }
    }
}

/// What a call site should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallDisposition {
    /// Callee returns: create the call fall-through edge now.
    Fallthrough,
    /// Callee never returns: no fall-through edge.
    NoFallthrough,
    /// Callee status unknown: a waiter was registered.
    Waiting,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_cfg::CodeRegion;
    use pba_isa::Arch;

    fn test_input() -> ParseInput {
        ParseInput::from_parts(
            CodeRegion::new(Arch::X86_64, 0x1000, vec![0xC3; 64]),
            vec![],
            vec![],
        )
    }

    #[test]
    fn block_creation_unique() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        assert!(s.create_block(0x1000));
        assert!(!s.create_block(0x1000));
        assert_eq!(s.stats.blocks_created.get(), 1);
        assert_eq!(s.stats.block_races.get(), 1);
    }

    #[test]
    fn register_then_contest_splits() {
        // Block A = [0x10, 0x30) registers first; B = [0x20, 0x30)
        // contests: B keeps [0x20, 0x30)? No — B's start is greater, so
        // B shrinks... Recheck the algorithm: registered xi = 0x10 <
        // B.start 0x20 → registered block [0x10,0x30) shrinks to
        // [0x10, 0x20), B takes over the end registration.
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        s.create_block(0x10);
        s.create_block(0x20);
        assert_eq!(s.register_end(0x10, 0x30), RegisterOutcome::CreateEdges);
        assert_eq!(s.register_end(0x20, 0x30), RegisterOutcome::SplitDone);
        assert_eq!(s.blocks.find(&0x10).unwrap().end, 0x20);
        assert_eq!(s.blocks.find(&0x20).unwrap().end, 0x30);
        assert_eq!(*s.block_ends.find(&0x30).unwrap(), 0x20);
        assert_eq!(*s.block_ends.find(&0x20).unwrap(), 0x10);
        // Fall-through edge linking the split halves.
        let e = s.edges.find(&0x20).unwrap();
        assert!(e.contains(&(0x20, EdgeKind::Fallthrough)));
    }

    #[test]
    fn three_way_split_chain() {
        // Paper Figure 1: blocks starting 0x04, 0x0A, 0x0D all end 0x20.
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        for b in [0x04, 0x0A, 0x0D] {
            s.create_block(b);
        }
        assert_eq!(s.register_end(0x0A, 0x20), RegisterOutcome::CreateEdges);
        assert_eq!(s.register_end(0x04, 0x20), RegisterOutcome::SplitDone);
        assert_eq!(s.register_end(0x0D, 0x20), RegisterOutcome::SplitDone);
        assert_eq!(s.blocks.find(&0x04).unwrap().end, 0x0A);
        assert_eq!(s.blocks.find(&0x0A).unwrap().end, 0x0D);
        assert_eq!(s.blocks.find(&0x0D).unwrap().end, 0x20);
        // Ends registry consistent.
        assert_eq!(*s.block_ends.find(&0x0A).unwrap(), 0x04);
        assert_eq!(*s.block_ends.find(&0x0D).unwrap(), 0x0A);
        assert_eq!(*s.block_ends.find(&0x20).unwrap(), 0x0D);
    }

    #[test]
    fn concurrent_split_storm_converges() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        let starts: Vec<u64> = (0..16u64).map(|i| 0x100 + i * 4).collect();
        std::thread::scope(|scope| {
            for chunk in starts.chunks(4) {
                let s = &s;
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    for b in chunk {
                        s.create_block(b);
                        s.register_end(b, 0x200);
                    }
                });
            }
        });
        // Every block [start_i, start_{i+1}) plus the last to 0x200.
        for (i, &b) in starts.iter().enumerate() {
            let want_end = starts.get(i + 1).copied().unwrap_or(0x200);
            assert_eq!(s.blocks.find(&b).unwrap().end, want_end, "block {b:#x}");
        }
        // Exactly one registration per boundary.
        for &b in &starts[1..] {
            assert!(s.block_ends.find(&b).is_some());
        }
    }

    #[test]
    fn function_creation_and_known_noreturn() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        assert!(s.create_function(0x1000, Some("exit".into()), true));
        assert!(!s.create_function(0x1000, None, false));
        let f = s.funcs.find(&0x1000).unwrap();
        assert_eq!(f.status, RetStatus::NoReturn);
        assert!(f.seeded);
    }

    #[test]
    fn eager_notification_resumes_waiters() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        s.create_function(0x2000, None, false); // callee

        // Caller waits.
        assert_eq!(s.call_disposition(0x2000, 0x1100, 0x1000), CallDisposition::Waiting);
        // Callee's ret found → waiter resumed.
        let resumed = s.notify_returns(0x2000);
        assert_eq!(resumed, vec![(0x1100, 0x1000)]);
        // Later calls see Returns directly.
        assert_eq!(s.call_disposition(0x2000, 0x1200, 0x1000), CallDisposition::Fallthrough);
    }

    #[test]
    fn tail_dependency_propagates_returns() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        s.create_function(0xA0, None, false); // F
        s.create_function(0xB0, None, false); // D

        // F tail-calls D; a caller of F waits.
        assert_eq!(s.call_disposition(0xA0, 0x50, 0x40), CallDisposition::Waiting);
        assert!(s.add_tail_dependency(0xA0, 0xB0).is_empty());
        // D returns → F returns → waiter on F resumes.
        let resumed = s.notify_returns(0xB0);
        assert_eq!(resumed, vec![(0x50, 0x40)]);
    }

    #[test]
    fn unresolved_cycle_closes_to_noreturn() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        s.create_function(0xA0, None, false);
        s.create_function(0xB0, None, false);
        // Mutual tail dependencies, no ret anywhere.
        s.add_tail_dependency(0xA0, 0xB0);
        s.add_tail_dependency(0xB0, 0xA0);
        assert!(s.resolve_statuses().is_empty());
        s.close_statuses();
        assert_eq!(s.funcs.find(&0xA0).unwrap().status, RetStatus::NoReturn);
        assert_eq!(s.funcs.find(&0xB0).unwrap().status, RetStatus::NoReturn);
    }

    #[test]
    fn deferred_mode_resolves_in_rounds() {
        let input = test_input();
        let cfg = ParseConfig { eager_noreturn: false, ..Default::default() };
        let s = State::new(&input, &cfg);
        s.create_function(0x2000, None, false);
        assert_eq!(s.call_disposition(0x2000, 0x1100, 0x1000), CallDisposition::Waiting);
        // ret decoded, but no eager flip.
        assert!(s.notify_returns(0x2000).is_empty());
        assert_eq!(s.funcs.find(&0x2000).unwrap().status, RetStatus::Unset);
        // Round-boundary resolution finds it.
        let resumed = s.resolve_statuses();
        assert_eq!(resumed, vec![(0x1100, 0x1000)]);
        assert_eq!(s.funcs.find(&0x2000).unwrap().status, RetStatus::Returns);
    }

    #[test]
    fn add_edge_dedupes() {
        let input = test_input();
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        assert!(s.add_edge(0x10, 0x20, EdgeKind::Direct));
        assert!(!s.add_edge(0x10, 0x20, EdgeKind::Direct));
        assert!(s.add_edge(0x10, 0x20, EdgeKind::TailCall)); // different kind
        assert_eq!(s.stats.edges_created.get(), 2);
    }
}
