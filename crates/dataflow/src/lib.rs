//! Intra-procedural data-flow analyses (Dyninst DataflowAPI analogue).
//!
//! Three consumers in the paper's applications (Section 7.1):
//!
//! * **jump-table analysis** (AC within CFG construction) — backward
//!   slicing from an indirect jump plus symbolic evaluation of the target
//!   expression, the only place Dyninst lifts instructions to an IR.
//!   [`slice::slice_indirect_jump_with`] reproduces that: it walks
//!   definitions backward along control-flow paths, substitutes them into
//!   a symbolic [`expr::Expr`], recognizes the absolute and PC-relative
//!   table dispatch patterns, and extracts the `cmp`+`ja` bound guarding
//!   each path. Results are *unioned over paths* — the paper's Section
//!   5.3 fix that makes `O_IEC` monotonic at the cost of possible
//!   over-approximation (cleaned up during finalization).
//!
//!   Since the engine refactor the backward walk is itself a
//!   [`engine::DataflowSpec`] run over one dense graph of the jump's
//!   backward cone: the lattice fact is a bounded, ordered set of
//!   per-path states `(Expr, Option<(Reg, bound)>, depth)` at each
//!   block boundary, the meet is set union
//!   (union-over-paths *is* the join), the block transfer substitutes
//!   definitions backward through the block, and the engine's
//!   edge-kind-aware [`engine::DataflowSpec::meet_edge`] hook
//!   attaches guard bounds from `cmp`+`jcc` terminators according to
//!   which branch side the path arrived through. Each state's
//!   expression is classified once, when it is made, and shared
//!   between states (the cost model is in [`mod@slice`]). Sets exceeding
//!   [`slice::MAX_PATHS`] widen to the classified forms they already
//!   contain (guard-bounded forms kept preferentially, up to the hard
//!   cap) — widening gives up on still-ambiguous paths, not on proven
//!   dispatch patterns. Widening is sticky per block, so its one
//!   non-monotone (output-shrinking) step happens at most once per
//!   block, and path states stop crossing edges at
//!   [`slice::MAX_DEPTH`]; together these make the fixpoint terminate
//!   unconditionally.
//! * **register liveness** (AC6) — classic backward may-analysis over
//!   [`pba_isa::RegSet`] bit masks; BinFeat's data-flow features are live
//!   register counts.
//! * **stack-height analysis** — forward analysis of the stack pointer
//!   relative to function entry; hpcstruct's per-function frame extent
//!   ([`stack::stack_heights_and_extent_on`]) and [`engine::run_all_ir`]
//!   consume it. (The parser's tail-call correction does not: its edge
//!   rules read only CFG shape.)
//!
//! All analyses run over the borrowing [`view::CfgView`] trait so they
//! work both on finalized [`pba_cfg::Cfg`] functions and on the
//! parser's in-flight function snapshots — and every view hands out
//! references into storage it already owns, so no analysis decodes or
//! allocates per query.
//!
//! ## The decode-once IR and the memory plane
//!
//! [`ir::BinaryIr`] is the artifact every analysis shares, stored flat:
//! one instruction arena for the whole binary — each unique block
//! decoded exactly once, in parallel chunks, into one `Vec<Insn>` in
//! block-address order — and one [`ir::FuncIr`] per function holding
//! its blocks' arena ids, its intra-procedural adjacency as
//! [`pba_cfg::Csr`] rows, and the [`engine::FlowGraph`] (itself CSR)
//! with memoized RPO ranks, beside them the natural-loop forest
//! ([`loops`] over [`dominators`]) that its first user builds and
//! hpcstruct, BinFeat and the session all read
//! ([`ir::FuncIr::loop_forest`]). Functions sharing
//! a block (error paths, outlined `.cold` fragments) read the same
//! arena slice, so a resident session pins what its unique data costs
//! ([`ir::BinaryIr::shared_insn_bytes`]). Downstream, the analyses are
//! dense end-to-end: every graph numbers its blocks in ascending
//! address order, so a block's dense id is a binary search over the
//! graph's (shared) block list, and every result keys its per-block
//! facts by that id into plain `Vec`s; addr-keyed lookups survive only
//! where a caller at a public seam thinks in block addresses.
//! `pba::Session::ir()` memoizes the `BinaryIr` so decode-once is a
//! structural invariant rather than per-consumer luck, and each
//! artifact's `heap_bytes()` feeds the session's `resident_bytes`
//! estimate.
//!
//! ## The engine
//!
//! The fixpoint machinery itself lives in [`engine`]: analyses describe
//! themselves as a [`engine::DataflowSpec`] (direction, lattice bottom,
//! boundary fact, meet, block transfer) and [`engine::fixpoint`] drives
//! the one worklist, a reverse-postorder priority queue on the calling
//! thread, holding two fact vectors (seeds and outputs) and recomputing
//! the inputs once from the settled outputs. Monotone specs over finite
//! lattices have a unique least fixpoint, which `tests/engine_equiv.rs`
//! checks against the original bespoke worklist loops. Liveness,
//! reaching definitions and stack height are all spec'd this way, each
//! with one entry point over a prebuilt [`engine::FlowGraph`]
//! ([`liveness::liveness_on`], [`reaching::reaching_defs_on`],
//! [`stack::stack_heights_on`]);
//! [`engine::run_all_ir`] fans all three across the functions of a
//! [`ir::BinaryIr`] on a sized rayon pool — the paper's "parallel
//! analysis over a read-only CFG" phase, parallel *between* functions.
//! [`engine::ExecutorKind`] and the `exec` parameters that take it are
//! kept only because the benchmark suite names them; every value runs
//! the one fixpoint.

pub mod dominators;
pub mod engine;
pub mod expr;
pub mod ir;
pub mod liveness;
pub mod loops;
pub mod reaching;
pub mod slice;
pub mod stack;
pub mod view;

pub use engine::{
    auto_block_threshold, fixpoint, run_all_ir, run_per_function_ir, DataflowSpec, Direction,
    ExecutorKind, FlowGraph, FuncAnalyses,
};
pub use expr::Expr;
pub use ir::{BinaryIr, FuncIr};
pub use liveness::{liveness_on, LivenessResult};
pub use loops::{Loop, LoopForest};
pub use reaching::{reaching_defs_on, Def, ReachingDefs};
pub use slice::{
    backward_cone, collect_indirect_jumps, slice_cone, slice_indirect_jump_with, JumpTableForm,
    PathFact, SliceOutcome,
};
pub use stack::{stack_heights_and_extent_on, stack_heights_on, Height, StackResult};
pub use view::{CfgView, VecView};
