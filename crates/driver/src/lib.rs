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
//! [`SessionConfig`] is the one configuration surface (threads, parse
//! options, load-module name) with one convention:
//! `threads: 0` means "all available", everywhere. [`Error`] is the one
//! failure type, wrapping ELF/DWARF/IO failures so they memoize and
//! propagate uniformly (`pba::Error`).
//!
//! A session is the only way from bytes to artifacts: hpcstruct is
//! `Session::open(bytes, config).structure()`, BinFeat is
//! `.features()`, and a corpus is one session per binary.

pub mod error;
mod heap;
pub mod session;

pub use error::Error;
pub use session::{Session, SessionConfig, SessionStats};
