//! Serial and parallel CFG construction — the paper's core contribution.
//!
//! The engine implements the three-stage structure of Listing 2:
//!
//! 1. **Parallel initialization** — function seeds come from the symbol
//!    table (plus the ELF entry point) and are inserted through the
//!    accessor map, so duplicate symbols resolve to one function
//!    (Invariant 5).
//! 2. **Parallel control-flow traversal** (Listing 3) — tasks traverse
//!    one function each, spawning a new task the moment a new function
//!    is discovered (the task-parallelism lesson of Section 6.3; the
//!    level-synchronous `parallel for` of Listing 2 is kept as an
//!    ablation via [`ParseConfig::scheduling`]). Traversal maintains the
//!    five invariants of Section 5.2:
//!    * *Block creation* — at most one block per start address
//!      (accessor-map insert winner parses it);
//!    * *Block end* — at most one block registered per end address,
//!      checked once per control-flow instruction, not per instruction;
//!    * *Edge creation* — only the end-registering thread creates the
//!      out-edges (and runs jump-table analysis);
//!    * *Block split* — losers run the eager split loop, which
//!      re-registers at a strictly smaller end address each iteration
//!      and therefore converges;
//!    * *Function creation* — at most one function per entry.
//!
//!    Edges are keyed by `(source block end, target start)` — the
//!    identity the paper's partial order preserves across splits — so
//!    splitting never migrates edges at all; only the implicit
//!    fall-through edge is added.
//! 3. **Parallel finalization** (Section 5.4) — jump-table
//!    over-approximations are clamped using the "compilers do not emit
//!    overlapping jump tables" observation, tail calls are corrected
//!    with the three rules, function boundaries are recomputed by
//!    intra-procedural reachability, and functions without incoming
//!    inter-procedural edges are removed.
//!
//! Non-returning functions use the eager-notification protocol of
//! Section 5.3: the first `ret` decoded in a function flips its status
//! to `Returns` and immediately resumes every call site waiting on it.
//! Remaining `Unset` functions (cyclic dependencies, `hlt`/`ud2` bodies)
//! become `NoReturn` when traversal quiesces.
//!
//! # The run loop
//!
//! [`traverse::run`] alternates traversal batches with three
//! quiesce-time steps until none of them produces work, then
//! finalizes. Each step's wall time and work is in [`ParseStats`]
//! (`traverse_ns`, `sweep_ns`, `refine_ns`, `finalize_ns`,
//! `sweep_views`, `refine_reanalyses`, `jt_slices`, `jt_views`).
//!
//! * **Ret sweep.** A function whose entry block was first parsed
//!   inside another function's traversal never saw its own `ret`. For
//!   every function still `Unset`, the sweep walks the intra-procedural
//!   subgraph straight off the shared maps — `blocks` for a block's
//!   end, `edges` for its successors, an Fx visited set — and reads
//!   each block's terminator class from `State::ret_ends`, which the
//!   edge-creating thread filled in when it saw the `ret`. It decodes
//!   nothing and builds no view. Tail-call edges leaving the subgraph
//!   are re-registered as status dependencies. The same walk serves a
//!   function discovered at an already-parsed block (`scan_existing`).
//! * **Status resolution**, then resumption of the call sites it
//!   released.
//! * **Jump-table fixed point.** A slice reads only the jump's
//!   backward cone — the blocks within `pba_dataflow::slice::MAX_DEPTH`
//!   predecessor edges — so that cone is what the fixed point keys its
//!   memo on: every recorded table remembers the
//!   [`snapshot::SnapshotView::cone_key`] its last slice read (the
//!   entry, the cone's blocks and their ends, the edges among them) and
//!   what that slice decided, discovery included. Per function one
//!   [`snapshot::SnapshotView`] is kept from round to round. From the
//!   first round on, the state records every block start or end whose
//!   record or out-edges change (`State::touch`); a kept view none of
//!   whose reads was touched is reused as it is, with its tables'
//!   cones and decisions, and no table of it is looked at. A touched
//!   view is built again, and a table is sliced again only if its cone
//!   key moved. Slicing itself is cheap
//!   per state: each path state's expression is classified once, when
//!   it is made, and shared between states (see [`pba_dataflow::slice`]).
//!   Every table is then re-*evaluated* from its remembered decision,
//!   in table order, because an unbounded table's extent also depends
//!   on where the other tables start: that part is a table read and a
//!   comparison, and it is what converges the clamp.
//!
//! Finalization takes the traversal state by value: each concurrent map
//! is taken apart into plain owned maps (`ConcurrentHashMap::into_entries`),
//! so no accessor map survives traversal and finalization locks nothing.
//! It then works on dense block ids (blocks sorted by address once,
//! edges in one `(source, target)`-sorted array with CSR offsets,
//! reachability by stamp array) and hands that edge array to the
//! [`pba_cfg::Cfg`] as it stands: see [`finalize`].
//!
//! `parse_serial` is the same engine on a one-thread pool — the paper's
//! serial baseline — and the determinism tests assert that any thread
//! count produces the identical canonical CFG.

pub mod config;
pub mod finalize;
pub mod input;
pub mod jumptable;
pub mod snapshot;
pub mod state;
pub mod stats;
pub mod traverse;

pub use config::{ParseConfig, Scheduling};
pub use input::ParseInput;
pub use stats::ParseStats;

use pba_cfg::Cfg;

/// Output of a parse: the finalized CFG plus work metrics.
pub struct ParseResult {
    /// The finalized control-flow graph.
    pub cfg: Cfg,
    /// Machine-independent work counters.
    pub stats: ParseStats,
}

/// Parse with an explicit configuration (thread count, scheduling,
/// ablation toggles).
pub fn parse(input: &ParseInput, cfg: &ParseConfig) -> ParseResult {
    traverse::run(input, cfg)
}

/// The paper's parallel configuration on `threads` threads.
pub fn parse_parallel(input: &ParseInput, threads: usize) -> ParseResult {
    parse(input, &ParseConfig { threads, ..Default::default() })
}

/// Serial baseline: the same engine on one thread.
pub fn parse_serial(input: &ParseInput) -> ParseResult {
    parse(input, &ParseConfig { threads: 1, ..Default::default() })
}
