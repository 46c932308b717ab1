//! Program-structure recovery — the `hpcstruct` case study (paper
//! Section 7/8.2).
//!
//! hpcstruct relates machine instructions back to their static calling
//! context: function (AC1), loop (AC2), source line (AC3) and inlined
//! call chain (AC4), by walking the CFG (AC5) and the debug info. The
//! pipeline reproduces the seven phases of the paper's Figure 2 trace:
//!
//! 1. read the binary image;
//! 2. parse debug info **in parallel** (one task per compile unit);
//! 3. build the address→line map in a **serial** accelerated-lookup
//!    structure (the paper notes this phase resisted parallelization —
//!    footnote 3);
//! 4. construct the CFG **in parallel** (the paper's core contribution);
//! 5. convert parse results into skeleton structure objects;
//! 6. query analyses **in parallel** (loops per function, statement
//!    ranges, inline scopes);
//! 7. serialize the structure file.
//!
//! Phases 1, 2 and 4 produce the shared analysis *artifacts* (ELF,
//! debug info, CFG); since the `pba::Session` redesign they live behind
//! the session's memoized accessors so every consumer computes them at
//! most once per binary. This crate owns the artifact-level remainder:
//! [`analyze_artifacts`] runs phases 3 and 5–7 over a read-only
//! [`pba_dwarf::DebugInfo`] and [`pba_cfg::Cfg`] and returns both the
//! structure document and the per-phase wall times, which the bench
//! harness prints as Figure 2 and aggregates into Table 2's
//! DWARF/CFG/total columns. Bytes reach it through a session:
//! `pba::Session::structure()` is the whole pipeline.

pub mod phases;
pub mod structure;

pub use phases::{analyze_artifacts, ArtifactTimes, HsConfig, HsOutput, PhaseTimes, PHASE_NAMES};
pub use structure::{FuncStruct, InlineScope, LoopStruct, StmtRange, StructFile};
