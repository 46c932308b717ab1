//! The session layer (`pba::session`) — one lazily-memoized analysis
//! handle per binary.
//!
//! The paper's architecture is: one expensive parallel phase builds the
//! CFG, then every downstream consumer — hpcstruct's query phases,
//! forensic feature extraction, ad-hoc dataflow — reads the same
//! *read-only* artifacts. [`Session`] makes that shape the API: open a
//! handle over a binary once, and every artifact accessor ([`Session::elf`],
//! [`Session::debug_info`], [`Session::cfg`], [`Session::dataflow`],
//! [`Session::loop_forest`], [`Session::structure`],
//! [`Session::features`]) is computed at most once per session, with
//! concurrent callers blocking on the in-flight computation and sharing
//! the result. Ask for `structure()` and then `features()` and the CFG
//! is parsed once, not twice — [`Session::stats`] proves it, and the
//! suite's `driver.cfg_parses` counter measures it.
//!
//! [`SessionConfig`] is the one configuration surface (threads,
//! executor, parse options, load-module name) with one convention:
//! `threads: 0` means "all available", everywhere. [`Error`] is the one
//! failure type, wrapping ELF/DWARF/IO failures so they memoize and
//! propagate uniformly (`pba::Error`).
//!
//! The historical byte-level entry points survive as thin session
//! layers: [`analyze`] (hpcstruct), [`extract_binary`] and
//! [`analyze_corpus`] (BinFeat).

pub mod apps;
pub mod error;
pub mod session;

pub use apps::{analyze, analyze_corpus, extract_binary};
pub use error::Error;
pub use session::{Session, SessionConfig, SessionStats};

// The executor selection travels through `SessionConfig`; re-export it
// so session consumers don't need a direct pba-dataflow dependency.
pub use pba_dataflow::ExecutorKind;
