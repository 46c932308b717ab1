//! Loop analysis over binary CFGs (Dyninst `LoopAnalyzer` analogue, AC2).
//!
//! hpcstruct attributes performance to loop constructs and BinFeat uses
//! loop nesting depth as a forensic feature; both need natural loops
//! recovered from the function CFG:
//!
//! 1. [`dominators`](mod@dominators) — immediate dominators via the
//!    Cooper-Harvey-Kennedy iterative algorithm over a reverse-postorder
//!    numbering (simple, and on function-sized graphs competitive with
//!    Lengauer-Tarjan);
//! 2. [`loops`] — back edges (`head dom tail`), natural-loop bodies by
//!    backward flood from each tail, loops merged per header, and a
//!    nesting forest built by body inclusion.
//!
//! Both run on the same [`pba_dataflow::CfgView`] the other analyses use,
//! so they work on finalized functions and parser snapshots alike.

pub mod dominators;
pub mod loops;

pub use dominators::{dominators, dominators_on, DomTree};
pub use loops::{loop_forest, loop_forest_on, Loop, LoopForest};
