//! A sharded concurrent hash map with TBB-style entry-level accessors.
//!
//! This is the Rust analogue of the `tbb::concurrent_hash_map` usage in the
//! paper's Listings 4-6. The two properties the parallel parser depends on:
//!
//! 1. **Unique arbiter.** When several threads race to insert the same key,
//!    exactly one observes `inserted == true`. That thread is the arbiter
//!    for the element (it creates the block / registers the block end /
//!    creates the function — Invariants 1, 2 and 5).
//! 2. **Entry-level mutual exclusion.** The accessor returned by
//!    [`ConcurrentHashMap::insert_with`] or
//!    [`ConcurrentHashMap::find_mut`] is a write lock on *that entry
//!    alone*. Edge creation and block splitting for the same block-end
//!    address exclude each other (Invariants 3 and 4) while operations on
//!    different addresses proceed in parallel.
//!
//! Faithfulness detail: like TBB, a successful insert hands the inserter
//! its write accessor *before* the entry becomes visible to other threads,
//! so no thread can ever observe an entry whose winner has not yet locked
//! it. We achieve this by acquiring the (uncontended) entry lock prior to
//! publishing the `Arc` into the shard.
//!
//! # Locking discipline
//!
//! Shard locks are held only for bucket manipulation, never while user code
//! runs. Entry locks are held for as long as the caller keeps the accessor.
//! Callers must not acquire a second accessor into the same map while
//! holding one unless a global key order is respected; the parser's
//! block-split loop relies on its strictly-decreasing end-address order for
//! progress (paper, Invariant 4).

use crate::fxhash::FxBuildHasher;
use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, RawRwLock, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

type Shard<K, V> = RwLock<HashMap<K, Arc<RwLock<V>>, FxBuildHasher>>;

/// A write (exclusive) lock on a single map entry.
///
/// Equivalent to a TBB `accessor`. Holding it excludes all other accessors
/// to the same entry but nothing else.
pub struct WriteAccessor<V> {
    guard: ArcRwLockWriteGuard<RawRwLock, V>,
}

impl<V> Deref for WriteAccessor<V> {
    type Target = V;
    #[inline]
    fn deref(&self) -> &V {
        &self.guard
    }
}

impl<V> DerefMut for WriteAccessor<V> {
    #[inline]
    fn deref_mut(&mut self) -> &mut V {
        &mut self.guard
    }
}

/// A read (shared) lock on a single map entry.
///
/// Equivalent to a TBB `const_accessor`.
pub struct ReadAccessor<V> {
    guard: ArcRwLockReadGuard<RawRwLock, V>,
}

impl<V> Deref for ReadAccessor<V> {
    type Target = V;
    #[inline]
    fn deref(&self) -> &V {
        &self.guard
    }
}

/// Sharded concurrent hash map with entry-level accessor locking.
///
/// See the [module documentation](self) for semantics. The shard count is
/// fixed at construction and must be a power of two; each shard is an
/// ordinary `HashMap` behind a `RwLock`, and every value is stored as
/// `Arc<RwLock<V>>` so entry locks survive shard-lock release (and even
/// concurrent removal).
pub struct ConcurrentHashMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// `hash >> shard_shift` selects the shard (uses the high bits, which
    /// Fx mixes best).
    shard_shift: u32,
    hasher: FxBuildHasher,
}

impl<K: Hash + Eq + Clone, V> Default for ConcurrentHashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V> ConcurrentHashMap<K, V> {
    /// Default shard count: enough to keep 64 hardware threads (the paper's
    /// largest configuration) off each other's locks.
    pub const DEFAULT_SHARDS: usize = 128;

    /// Create a map with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Create a map with `shards` shards (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        let shards: Box<[Shard<K, V>]> =
            (0..n).map(|_| RwLock::new(HashMap::with_hasher(FxBuildHasher::default()))).collect();
        ConcurrentHashMap {
            shard_shift: 64 - n.trailing_zeros(),
            shards,
            hasher: FxBuildHasher::default(),
        }
    }

    #[inline]
    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key);
        // For a single shard the shift is 64, which is UB for `>>`; mask it.
        let idx = if self.shards.len() == 1 { 0 } else { (h >> self.shard_shift) as usize };
        &self.shards[idx]
    }

    /// Insert `key` if absent (constructing the value with `init`), or find
    /// the existing entry. Returns a write accessor plus `true` iff this
    /// call performed the insertion.
    ///
    /// This is the two-in-one TBB `insert(accessor, key)` operation from
    /// Listing 5: winners proceed to their arbiter duty under the accessor;
    /// losers get the same accessor later and see the winner's value.
    pub fn insert_with(&self, key: K, init: impl FnOnce() -> V) -> (WriteAccessor<V>, bool) {
        let shard = self.shard_for(&key);
        // Fast path: key already present (read lock only).
        {
            let map = shard.read();
            if let Some(arc) = map.get(&key) {
                let arc = Arc::clone(arc);
                drop(map);
                return (WriteAccessor { guard: arc.write_arc() }, false);
            }
        }
        let mut map = shard.write();
        if let Some(arc) = map.get(&key) {
            // Lost the race between our read probe and write lock.
            let arc = Arc::clone(arc);
            drop(map);
            return (WriteAccessor { guard: arc.write_arc() }, false);
        }
        let arc = Arc::new(RwLock::new(init()));
        // Acquire the entry lock *before* publication so the winner is
        // locked-in before any other thread can race for the accessor.
        let guard = arc.write_arc();
        map.insert(key, arc);
        drop(map);
        (WriteAccessor { guard }, true)
    }

    /// Listing 4-style insert: attempt to publish `value` under `key`.
    /// Returns `true` iff this call inserted (the caller is the arbiter).
    /// No accessor is retained.
    pub fn insert(&self, key: K, value: V) -> bool {
        let shard = self.shard_for(&key);
        {
            let map = shard.read();
            if map.contains_key(&key) {
                return false;
            }
        }
        let mut map = shard.write();
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, Arc::new(RwLock::new(value)));
        true
    }

    /// Find `key` and return a shared (read) accessor.
    pub fn find(&self, key: &K) -> Option<ReadAccessor<V>> {
        let arc = self.get_arc(key)?;
        Some(ReadAccessor { guard: arc.read_arc() })
    }

    /// Find `key` and return an exclusive (write) accessor.
    pub fn find_mut(&self, key: &K) -> Option<WriteAccessor<V>> {
        let arc = self.get_arc(key)?;
        Some(WriteAccessor { guard: arc.write_arc() })
    }

    /// Fetch the entry's backing `Arc` without locking the entry.
    fn get_arc(&self, key: &K) -> Option<Arc<RwLock<V>>> {
        let shard = self.shard_for(key);
        let map = shard.read();
        map.get(key).map(Arc::clone)
    }

    /// Whether `key` is present (racy by nature; useful as a hint).
    pub fn contains_key(&self, key: &K) -> bool {
        let shard = self.shard_for(key);
        shard.read().contains_key(key)
    }

    /// Remove `key`. Returns the backing `Arc` if it was present. Threads
    /// still holding accessors keep the value alive; they simply become
    /// unreachable via the map.
    pub fn remove(&self, key: &K) -> Option<Arc<RwLock<V>>> {
        let shard = self.shard_for(key);
        shard.write().remove(key)
    }

    /// Number of entries (sums shard sizes; exact only in quiescence).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map is empty (exact only in quiescence).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Collect all keys. Per-shard consistent, globally racy.
    pub fn snapshot_keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            out.extend(s.read().keys().cloned());
        }
        out
    }

    /// Visit each entry under its read lock, with no shard lock held. The
    /// callback must not touch this map (deadlock risk); intended for
    /// quiescent phases.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let mut entries = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            entries.extend(s.read().iter().map(|(k, v)| (k.clone(), Arc::clone(v))));
        }
        for (k, arc) in entries {
            f(&k, &arc.read());
        }
    }

    /// Consume the map into its `(key, value)` pairs, in no particular
    /// order: the hand-off from a concurrent phase to code that owns the
    /// data outright (the parser's finalization). A value is moved out of
    /// its entry; one that an accessor still holds is cloned under the
    /// entry's read lock instead, so a reader never blocks the hand-off
    /// and a writer on another thread is waited for, never torn. As with
    /// [`Self::find`], a write accessor held by the calling thread itself
    /// deadlocks.
    pub fn into_entries(self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.into_vec() {
            out.extend(shard.into_inner().into_iter().map(|(k, arc)| {
                let v = Arc::try_unwrap(arc)
                    .map(RwLock::into_inner)
                    .unwrap_or_else(|arc| arc.read().clone());
                (k, v)
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn insert_then_find() {
        let m: ConcurrentHashMap<u64, String> = ConcurrentHashMap::new();
        assert!(m.insert(0x400, "entry".into()));
        assert!(!m.insert(0x400, "dup".into()));
        assert_eq!(m.find(&0x400).unwrap().as_str(), "entry");
        assert!(m.find(&0x500).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_with_reports_unique_winner() {
        let m: ConcurrentHashMap<u64, u32> = ConcurrentHashMap::new();
        let (a1, inserted1) = m.insert_with(7, || 1);
        assert!(inserted1);
        drop(a1);
        let (a2, inserted2) = m.insert_with(7, || 2);
        assert!(!inserted2);
        assert_eq!(*a2, 1, "loser must observe the winner's value");
    }

    #[test]
    fn write_accessor_excludes_readers() {
        let m = Arc::new(ConcurrentHashMap::<u64, u64>::new());
        let (mut acc, _) = m.insert_with(1, || 0);
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            // Must block until the writer releases, then see the final value.
            let r = m2.find(&1).unwrap();
            *r
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        *acc = 42;
        drop(acc);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn racing_inserts_have_exactly_one_winner() {
        // The heart of Invariants 1/2/5: N threads race to create the same
        // block; exactly one must win, and all must agree on the value.
        const THREADS: usize = 8;
        const KEYS: u64 = 200;
        let m = Arc::new(ConcurrentHashMap::<u64, usize>::new());
        let winners = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let m = Arc::clone(&m);
                let winners = Arc::clone(&winners);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..KEYS {
                        let (acc, inserted) = m.insert_with(k, || tid);
                        if inserted {
                            winners.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(*acc, tid);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::Relaxed) as u64, KEYS);
        assert_eq!(m.len() as u64, KEYS);
    }

    #[test]
    fn winner_is_locked_before_publication() {
        // A loser acquiring the accessor must always observe a fully
        // initialized value — the winner holds the entry lock from before
        // the entry became visible.
        const ROUNDS: u64 = 300;
        for round in 0..ROUNDS {
            let m = Arc::new(ConcurrentHashMap::<u64, (u64, u64)>::with_shards(4));
            let barrier = Arc::new(Barrier::new(2));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        let (mut acc, inserted) = m.insert_with(round, || (0, 0));
                        if inserted {
                            // Simulate multi-step initialization under the
                            // accessor, as Listing 5 does for block ends.
                            acc.0 = round + 1;
                            acc.1 = round + 1;
                        } else {
                            assert_eq!(acc.0, acc.1, "saw torn initialization");
                            assert_eq!(acc.0, round + 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn remove_keeps_held_accessors_alive() {
        let m: ConcurrentHashMap<u64, u64> = ConcurrentHashMap::new();
        let (acc, _) = m.insert_with(9, || 99);
        assert!(m.remove(&9).is_some());
        assert_eq!(*acc, 99, "accessor outlives removal");
        assert!(m.find(&9).is_none());
    }

    #[test]
    fn into_entries_moves_free_values_and_clones_held_ones() {
        let m: ConcurrentHashMap<u64, Vec<u64>> = ConcurrentHashMap::with_shards(4);
        for k in 0..8 {
            m.insert(k, vec![k]);
        }
        // A reader on this thread: its entry is cloned, not waited on.
        let reader = m.find(&3).unwrap();
        // A writer still holds its accessor when the hand-off starts on
        // another thread: however the two interleave, the hand-off comes
        // back with the writer's value, never a torn or lost one.
        let (mut writer, _) = m.insert_with(9, Vec::new);
        let started = Barrier::new(2);
        let mut entries = std::thread::scope(|scope| {
            let handoff = scope.spawn(|| {
                started.wait();
                m.into_entries()
            });
            started.wait();
            writer.push(99);
            drop(writer);
            handoff.join().unwrap()
        });
        entries.sort_unstable();
        let mut want: Vec<(u64, Vec<u64>)> = (0..8).map(|k| (k, vec![k])).collect();
        want.push((9, vec![99]));
        assert_eq!(entries, want);
        assert_eq!(*reader, vec![3], "the held accessor still reads its own copy");
    }

    #[test]
    fn snapshot_keys_and_for_each() {
        let m: ConcurrentHashMap<u64, u64> = ConcurrentHashMap::new();
        for k in 0..100 {
            m.insert(k, k * 2);
        }
        let mut keys = m.snapshot_keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        let mut sum = 0;
        m.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..100).map(|k| k * 2).sum::<u64>());
    }

    #[test]
    fn single_shard_map_works() {
        // Exercises the shift == 64 edge case.
        let m: ConcurrentHashMap<u64, u64> = ConcurrentHashMap::with_shards(1);
        for k in 0..32 {
            assert!(m.insert(k, k));
        }
        assert_eq!(m.len(), 32);
        assert_eq!(*m.find(&31).unwrap(), 31);
    }
}
