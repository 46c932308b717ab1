//! # pba — Parallel Binary Analysis
//!
//! A from-scratch Rust implementation of **"Parallel Binary Code
//! Analysis"** (Meng, Anderson, Mellor-Crummey, Krentel, Miller,
//! Milaković — PPoPP 2021): multithreaded control-flow-graph
//! construction from binaries, plus the substrate stack it needs and
//! the two application case studies the paper evaluates.
//!
//! ## Quick start
//!
//! The entry point is a [`Session`]: one handle per binary, one
//! configuration surface, and every analysis artifact computed lazily,
//! at most once, shared by all consumers.
//!
//! ```
//! use pba::gen::{generate, GenConfig};
//! use pba::{Session, SessionConfig};
//!
//! // Generate a synthetic test binary (or bring your own ELF64 bytes).
//! let binary = generate(&GenConfig { num_funcs: 16, seed: 1, ..Default::default() });
//!
//! // One session per binary. threads: 0 = all available, everywhere.
//! let session = Session::open(binary.elf.clone(), SessionConfig::default().with_threads(4));
//!
//! // The CFG is parsed in parallel on first use, then memoized.
//! let cfg = session.cfg().unwrap();
//! assert!(!cfg.functions.is_empty());
//!
//! // Downstream artifacts reuse it — starting with the decode-once
//! // analysis IR (one instruction arena + graph + RPO ranks per
//! // function; every unique block decoded exactly once)...
//! let ir = session.ir().unwrap();
//! assert_eq!(ir.len(), cfg.functions.len());
//!
//! // ...which the dataflow facts for every function borrow...
//! let facts = session.dataflow().unwrap();
//! assert_eq!(facts.len(), cfg.functions.len());
//!
//! // ...per-function loop forests (each built once, kept by the IR)...
//! let entry = *cfg.functions.keys().next().unwrap();
//! let forest = session.loop_forest(entry).unwrap();
//! let _ = forest.max_depth();
//!
//! // ...and both application case studies, off the same single parse.
//! let structure = session.structure().unwrap();
//! let features = session.features().unwrap();
//! assert!(!structure.structure.functions.is_empty());
//! assert!(!features.index.is_empty());
//! assert_eq!(session.stats().cfg_parses, 1); // everything above: one CFG parse
//! assert_eq!(session.stats().ir_builds, 1); // ...and one decode of each block
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`session`] | `pba-driver` | the [`Session`] handle, the one way from bytes to artifacts: lazily-memoized accessors (incl. the decode-once `ir()`), [`SessionConfig`], unified [`Error`], `resident_bytes` accounting for every memoized artifact |
//! | [`concurrent`] | `pba-concurrent` | accessor-style concurrent hash map (TBB analogue), striped sets, counters, the block-or-share [`concurrent::Memo`] cell |
//! | [`elf`] | `pba-elf` | ELF64 reader/writer, mini-demangler, the mmap-or-heap [`elf::ImageBytes`] shared input image |
//! | [`isa`] | `pba-isa` | architecture-independent instructions; x86-64 + rv-lite codecs |
//! | [`dwarf`] | `pba-dwarf` | DWARF-modeled debug info: encoder + parallel per-CU decoder |
//! | [`cfg`](mod@cfg) | `pba-cfg` | CFG model with each edge stored once in address-sorted arrays, the dense [`cfg::BlockIndex`] and [`cfg::Csr`] adjacency the analysis graphs use, the six-operation algebra, the partial order, the reverse-postorder ranking |
//! | [`dataflow`] | `pba-dataflow` | generic dataflow engine (`DataflowSpec` run to its least fixpoint by one allocation-free RPO worklist, `fixpoint`; parallel across functions by `run_all_ir`), the memory plane (one instruction arena per binary in `BinaryIr`, CSR adjacency in `FuncIr`, dense block ranks end-to-end), liveness, reaching defs, stack height, slicing + jump-table evaluation, dominators (dense `Vec<u32>` idoms over the shared block index) and natural-loop nesting forests, one per `FuncIr`, built once for every consumer |
//! | [`parse`] | `pba-parse` | the serial & parallel CFG construction engine |
//! | [`gen`] | `pba-gen` | synthetic workload generator with exact ground truth |
//! | [`hpcstruct`] | `pba-hpcstruct` | program-structure recovery (performance analysis): the artifact-level phases behind [`Session::structure`] |
//! | [`binfeat`] | `pba-binfeat` | forensic feature extraction behind [`Session::features`], cosine/Jaccard similarity (`rank_topk` partial selection), and the banded-MinHash [`binfeat::CorpusIndex`] for sub-linear corpus top-K |
//! | [`serve`] | `pba-serve` | the analysis daemon: `content_hash → Session` LRU cache, length-prefixed framed protocol, corpus index hosting (`corpus_ingest`/`corpus_topk`), `pba serve` / `pba query` |

pub use pba_binfeat as binfeat;
pub use pba_cfg as cfg;
pub use pba_concurrent as concurrent;
pub use pba_dataflow as dataflow;
pub use pba_driver as session;
pub use pba_dwarf as dwarf;
pub use pba_elf as elf;
pub use pba_gen as gen;
pub use pba_hpcstruct as hpcstruct;
pub use pba_isa as isa;
pub use pba_parse as parse;
pub use pba_serve as serve;

pub use pba_driver::{Error, Session, SessionConfig, SessionStats};
