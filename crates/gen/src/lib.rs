//! Synthetic workload generator with exact ground truth.
//!
//! The paper evaluates on binaries we cannot ship (export-controlled LLNL
//! codes, a 7.7 GiB TensorFlow build, 113 coreutils/tar binaries with
//! GCC-RTL-derived ground truth). This crate is the substitution: it
//! emits *real ELF64/x86-64 binaries* whose
//! control-flow constructs exercise every challenge the paper names —
//!
//! * functions sharing code (common error blocks branched into from
//!   several functions),
//! * non-returning functions (leaf `exit`-likes, wrapper chains, and
//!   conditional error paths),
//! * jump tables (absolute and PIC-relative dispatch, adjacent tables,
//!   an unbounded-guard variant that forces over-approximation),
//! * tail calls (frame-teardown jumps to other functions) and outlined
//!   cold blocks (the `.cold` pattern from Section 8.1),
//! * functions without symbols (discovered only through calls),
//!
//! — and records exact [`truth::GroundTruth`] (function address ranges,
//! jump-table sizes and locations, non-returning call sites) instead of
//! the paper's approximate DWARF+RTL reconstruction.
//!
//! [`profiles`] scales the knobs to stand in for each evaluation binary
//! class (LLNL1/LLNL2/Camellia/TensorFlow for Table 2, the
//! coreutils+tar-class 113-binary set for Section 8.1, and the 504-binary
//! forensics corpus for Table 3). [`corpus`] names the inputs the
//! golden tests pin.

pub mod asm;
pub mod corpus;
pub mod debug;
pub mod emit;
pub mod plan;
pub mod profiles;
pub mod truth;

pub use emit::{generate, Generated};
pub use plan::GenConfig;
pub use profiles::Profile;
pub use truth::{FuncTruth, GroundTruth, JumpTableTruth};
