//! Shared code for the evaluation binaries (one per paper table /
//! figure, plus the ablations and the Section 8.1 correctness check).
//!
//! * [`workloads`] — cached generation of the profile binaries so the
//!   table binaries don't regenerate identical inputs;
//! * [`check`] — the Section 8.1 ground-truth checker (function ranges,
//!   jump-table sizes, non-returning calls);
//! * [`report`] — plain-text tables and [`outln!`], the binaries' stdout.
//!
//! Environment knobs:
//! * `PBA_SCALE` — multiplies workload function counts (default 1.0;
//!   use <1 for smoke runs, >1 for bigger machines);
//! * `PBA_THREADS` — comma-separated thread counts for sweeps
//!   (default `1,2,4,8,16,32,64` clamped by available parallelism ×4);
//!   single-run binaries take its last entry (default: available
//!   parallelism).

pub mod check;
pub mod report;
pub mod workloads;

pub use check::{check_binary, CheckReport};
pub use report::Table;
pub use workloads::{scaled, sweep_threads, workload};
