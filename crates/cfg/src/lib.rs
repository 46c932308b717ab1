//! Control-flow-graph model and the PPoPP'21 operation algebra.
//!
//! The paper's central abstraction (Section 3) defines a CFG as a tuple
//! `G = ⟨B, C, E, F⟩` — basic blocks `[s, e)`, candidate blocks `[t]`
//! whose end is not yet known, edges, and function entries — and six core
//! operations whose dependency/commutativity/monotonicity properties
//! (Section 4) justify the parallel algorithm. This crate implements that
//! abstraction twice, at two altitudes:
//!
//! * [`model`] — the concrete, post-construction CFG that applications
//!   consume: blocks, typed edges, functions with (possibly shared)
//!   block sets, and the code bytes needed to re-decode instructions.
//!   This is what `pba-parse` produces and what loop analysis, data-flow
//!   analysis, hpcstruct and BinFeat operate on.
//! * [`ops`] — the *abstract* graph with the six operations implemented
//!   literally (`O_BER`, `O_DEC`, `O_CFEC`, `O_IEC`, `O_FEI`, `O_ER`)
//!   over a pluggable [`ops::CodeOracle`]. This is the executable version
//!   of the paper's theory: property tests check the commutativity and
//!   monotonicity claims of Section 4.1 directly, and the parser's output
//!   is differentially tested against the algebra's fixpoint.
//! * [`order`] — the partial order `G1 ≼ G2` of Section 3, used to state
//!   monotonicity ("a larger graph includes more control flow elements"),
//!   and [`order::rpo_ranks_dense`], the one reverse-postorder numbering that
//!   dominators and the dataflow engine's worklist share.
//! * [`index`] — the shared dense block index: [`BlockIndex`] maps block
//!   start addresses to stable `u32` ranks by binary search, so CFG
//!   adjacency, dominators, loop bodies, and the dataflow specs key
//!   their per-block storage by rank into plain `Vec`s instead of
//!   addr-keyed hash maps (the memory plane's ID scheme).

pub mod index;
pub mod model;
pub mod ops;
pub mod order;

pub use index::BlockIndex;
pub use model::{Block, Cfg, CodeRegion, Edge, EdgeKind, Function, RetStatus};
pub use ops::{AbsGraph, CodeOracle, SyntheticCode};
pub use order::graph_le;
