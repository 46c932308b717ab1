//! Binary code feature extraction — the BinFeat case study (paper
//! Sections 7.1 and 8.3).
//!
//! Software-forensics models consume features extracted from every
//! function of every binary in a corpus. Three feature families map to
//! the paper's Table 3 stages:
//!
//! * **IF — instruction features**: mnemonic n-grams (n = 1..3) over
//!   each function's instruction stream (AC5);
//! * **CF — control-flow features**: CFG graphlets (per-block
//!   in-degree/out-degree/terminator signatures) and loop-nesting depths
//!   (AC1, AC2);
//! * **DF — data-flow features**: live-register counts at block
//!   entries, from the liveness analysis (AC6) — the heaviest stage, as
//!   the paper observes ("data flow analysis typically has a higher
//!   time complexity").
//!
//! Extraction follows the Listing 7 pattern: parse the CFG, then a
//! dynamically scheduled parallel loop over functions **sorted by
//! descending size** ("sorting is important as functions will have
//! different sizes"), with per-function feature vectors merged into a
//! global index by parallel reduction (Section 7.2).
//!
//! The CFG itself arrives through the session's memoized artifact
//! cache: this crate extracts from a read-only [`pba_cfg::Cfg`]
//! ([`extract_cfg_features`]), and a binary's features are
//! `pba::Session::features()`. A corpus is one session per binary; the
//! paper's Table 3 sums the stage times over them (`--bin table3`), and
//! `pba topk <dir>` indexes them in a [`CorpusIndex`].

pub mod features;
pub mod index;
pub mod similarity;

pub use features::{extract_cfg_features, BinaryFeatures, FeatureIndex};
pub use index::{CorpusIndex, IndexConfig, TopkHit, TopkResult};
pub use similarity::{cosine, jaccard, rank, rank_topk};
