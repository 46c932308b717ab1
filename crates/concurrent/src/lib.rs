//! Concurrent containers underpinning parallel CFG construction.
//!
//! The PPoPP'21 paper ("Parallel Binary Code Analysis", Meng et al.) builds
//! its five concurrency invariants on Intel TBB's `concurrent_hash_map`,
//! whose distinguishing feature is *entry-level reader-writer locking*
//! exposed through an "accessor" object (paper, Listings 4 and 5):
//!
//! * a racing `insert` admits exactly one winner, which becomes the unique
//!   arbiter for the inserted element (Invariants 1, 2 and 5);
//! * the accessor returned by `insert`/`find` is a read or write lock on
//!   that single entry, so per-element critical sections (edge creation vs.
//!   block splitting, Invariants 3 and 4) are mutually exclusive without
//!   serializing unrelated elements.
//!
//! [`ConcurrentHashMap`] reproduces those semantics from scratch: a sharded
//! hash table whose values are `Arc<RwLock<V>>`, with shard locks held only
//! for the brief bucket manipulation and entry locks (via
//! `parking_lot`'s `arc_lock` guards) held for as long as the caller keeps
//! the accessor alive.
//!
//! The crate also provides the small supporting cast used across the
//! workspace: a fast integer-friendly hasher ([`fxhash`]), a concurrent
//! monotonic counter set for machine-independent work metrics ([`stats`]),
//! a lock-striped integer set ([`AddressSet`]) used for visited-address
//! tracking, and a block-or-share lazy cell ([`Memo`]) that memoizes a
//! session's analysis artifacts exactly once across threads.

pub mod chm;
pub mod fxhash;
pub mod iset;
pub mod memo;
pub mod stats;

pub use chm::{ConcurrentHashMap, ReadAccessor, WriteAccessor};
pub use fxhash::{fx_hash_u64, FxBuildHasher, FxHasher};
pub use iset::AddressSet;
pub use memo::Memo;
pub use stats::Counter;
