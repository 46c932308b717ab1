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
//! publishing the key in the shard's index.
//!
//! # Storage
//!
//! Each shard keeps its entries in a slab of append-only chunks that
//! never move (4, 8, 16, … slots, so a small map stays small). A slot
//! holds the key and the entry's `RwLock<V>`, and the shard's `HashMap`
//! maps each key to its slot. An entry therefore costs no heap
//! allocation of its own, and an accessor is a plain borrow guard on its
//! slot's lock that stays valid once the shard lock is released.
//! [`ConcurrentHashMap::remove`] only unlinks the key: the slot lives
//! until the map is dropped or consumed, so an accessor held across a
//! removal still reads valid memory.
//!
//! # Locking discipline
//!
//! Shard locks are held only for index and slab manipulation, never while
//! user code runs. Entry locks are held for as long as the caller keeps
//! the accessor. Callers must not acquire a second accessor into the same
//! map while holding one unless a global key order is respected; the
//! parser's block-split loop relies on its strictly-decreasing
//! end-address order for progress (paper, Invariant 4).

use crate::fxhash::FxBuildHasher;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Slots in a slab's first chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 4;

/// Append-only storage whose elements never move: slot `i` keeps its
/// address from [`Slab::push`] until the slab is dropped, and the slab
/// grows by adding a chunk twice the size of the last, never by copying.
///
/// The chunks are held as raw pointers, not `Box`es, so that `push`
/// (through `&mut Slab`) never asserts unique access to a chunk whose
/// earlier slots other threads are reading.
struct Slab<T> {
    chunks: Vec<NonNull<T>>,
    len: usize,
}

// SAFETY: the slab owns its chunks and their initialized slots outright,
// so moving it to another thread moves `T`s (`T: Send`).
unsafe impl<T: Send> Send for Slab<T> {}
// SAFETY: through `&Slab` other threads only reach `&T` (`T: Sync`);
// every mutation takes `&mut Slab`.
unsafe impl<T: Sync> Sync for Slab<T> {}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab { chunks: Vec::new(), len: 0 }
    }

    /// The chunk and offset of slot `i`: slot `i` is element
    /// `i + FIRST_CHUNK` counting from the start of a chunk of
    /// `FIRST_CHUNK` slots before the first.
    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        let n = i + FIRST_CHUNK;
        let c = (n.ilog2() - FIRST_CHUNK.ilog2()) as usize;
        (c, n - (FIRST_CHUNK << c))
    }

    /// Pointer to slot `i`, which must lie in an allocated chunk.
    #[inline]
    fn slot_ptr(&self, i: usize) -> *mut T {
        let (c, off) = Self::locate(i);
        // SAFETY: chunk `c` is an allocation of `FIRST_CHUNK << c` slots
        // and `off` is below that (`locate`), so the offset stays inside it.
        unsafe { self.chunks[c].as_ptr().add(off) }
    }

    /// Append `value`; returns its slot index.
    fn push(&mut self, value: T) -> usize {
        let i = self.len;
        let (c, _) = Self::locate(i);
        if c == self.chunks.len() {
            let chunk = Box::<[T]>::new_uninit_slice(FIRST_CHUNK << c);
            self.chunks.push(NonNull::from(Box::leak(chunk)).cast());
        }
        // SAFETY: slot `i` is in an allocated chunk (just ensured) and
        // uninitialized (`i == len`), so nothing is overwritten; no
        // reference to it exists yet.
        unsafe { self.slot_ptr(i).write(value) };
        self.len += 1;
        i
    }

    /// Pointer to the initialized slot `i`; it stays valid, and the slot
    /// is never written again, until the slab is dropped or consumed.
    #[inline]
    fn get(&self, i: usize) -> *const T {
        assert!(i < self.len, "slab slot {i} out of range");
        self.slot_ptr(i)
    }

    /// Move every slot's value out, in slot order.
    fn into_each(mut self, mut f: impl FnMut(usize, T)) {
        // With `len` zeroed first, a panic in `f` leaks the values not
        // yet moved instead of dropping them twice.
        let len = std::mem::take(&mut self.len);
        for i in 0..len {
            // SAFETY: slots below the old `len` are initialized, and each
            // is read exactly once; `Drop` no longer sees them.
            f(i, unsafe { self.slot_ptr(i).read() });
        }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        for i in 0..self.len {
            // SAFETY: slots below `len` are initialized and dropped once.
            unsafe { self.slot_ptr(i).drop_in_place() };
        }
        for (c, chunk) in self.chunks.iter().enumerate() {
            let raw = std::ptr::slice_from_raw_parts_mut(
                chunk.as_ptr().cast::<MaybeUninit<T>>(),
                FIRST_CHUNK << c,
            );
            // SAFETY: `raw` is exactly the `Box<[MaybeUninit<T>]>` that
            // `push` leaked for chunk `c`; it is freed once, here.
            drop(unsafe { Box::from_raw(raw) });
        }
    }
}

/// An entry: its key (for the slab-order hand-off) and its lock.
type Slot<K, V> = (K, RwLock<V>);

struct Shard<K, V> {
    /// Key → index of its live slot in `slots`.
    index: HashMap<K, usize, FxBuildHasher>,
    slots: Slab<Slot<K, V>>,
}

/// A write (exclusive) lock on a single map entry.
///
/// Equivalent to a TBB `accessor`. Holding it excludes all other accessors
/// to the same entry but nothing else.
pub struct WriteAccessor<'a, V> {
    guard: RwLockWriteGuard<'a, V>,
}

impl<V> Deref for WriteAccessor<'_, V> {
    type Target = V;
    #[inline]
    fn deref(&self) -> &V {
        &self.guard
    }
}

impl<V> DerefMut for WriteAccessor<'_, V> {
    #[inline]
    fn deref_mut(&mut self) -> &mut V {
        &mut self.guard
    }
}

/// A read (shared) lock on a single map entry.
///
/// Equivalent to a TBB `const_accessor`.
pub struct ReadAccessor<'a, V> {
    guard: RwLockReadGuard<'a, V>,
}

impl<V> Deref for ReadAccessor<'_, V> {
    type Target = V;
    #[inline]
    fn deref(&self) -> &V {
        &self.guard
    }
}

/// Sharded concurrent hash map with entry-level accessor locking.
///
/// See the [module documentation](self) for semantics. The shard count is
/// fixed at construction and must be a power of two; each shard is a
/// slab of entries and a `HashMap` index into it behind one `RwLock`, and
/// every entry is a `(K, RwLock<V>)` slot that never moves, so entry locks
/// survive shard-lock release (and even concurrent removal).
pub struct ConcurrentHashMap<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
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
        let shards = (0..n)
            .map(|_| {
                RwLock::new(Shard {
                    index: HashMap::with_hasher(FxBuildHasher::default()),
                    slots: Slab::new(),
                })
            })
            .collect();
        ConcurrentHashMap {
            shard_shift: 64 - n.trailing_zeros(),
            shards,
            hasher: FxBuildHasher::default(),
        }
    }

    #[inline]
    fn shard_for(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let h = self.hasher.hash_one(key);
        // For a single shard the shift is 64, which is UB for `>>`; mask it.
        let idx = if self.shards.len() == 1 { 0 } else { (h >> self.shard_shift) as usize };
        &self.shards[idx]
    }

    /// Slot `i` of `shard`, one of this map's shards, borrowed for as
    /// long as the map rather than the shard lock.
    #[inline]
    fn slot<'a>(&'a self, shard: &Shard<K, V>, i: usize) -> &'a Slot<K, V> {
        // SAFETY: `shard` belongs to `self`, and its slots never move, are
        // never written after `push` initialized them, and are freed
        // only when the map is dropped or consumed, which the `&'a self`
        // borrow rules out for `'a`. The slot was initialized before its
        // index was published under the shard's write lock, and the
        // caller read that index under the shard lock, which orders the
        // initialization before this read.
        unsafe { &*shard.slots.get(i) }
    }

    /// The slot of `key`, if present.
    #[inline]
    fn find_slot(&self, key: &K) -> Option<&Slot<K, V>> {
        let shard = self.shard_for(key).read();
        let i = *shard.index.get(key)?;
        Some(self.slot(&shard, i))
    }

    /// Insert `key` if absent (constructing the value with `init`), or find
    /// the existing entry. Returns a write accessor plus `true` iff this
    /// call performed the insertion.
    ///
    /// This is the two-in-one TBB `insert(accessor, key)` operation from
    /// Listing 5: winners proceed to their arbiter duty under the accessor;
    /// losers get the same accessor later and see the winner's value.
    pub fn insert_with(&self, key: K, init: impl FnOnce() -> V) -> (WriteAccessor<'_, V>, bool) {
        // Fast path: key already present (read lock only).
        if let Some(slot) = self.find_slot(&key) {
            return (WriteAccessor { guard: slot.1.write() }, false);
        }
        let mut shard = self.shard_for(&key).write();
        if let Some(&i) = shard.index.get(&key) {
            // Lost the race between our read probe and write lock.
            let slot = self.slot(&shard, i);
            drop(shard);
            return (WriteAccessor { guard: slot.1.write() }, false);
        }
        let i = shard.slots.push((key.clone(), RwLock::new(init())));
        // Acquire the entry lock *before* publication so the winner is
        // locked-in before any other thread can race for the accessor.
        let guard = self.slot(&shard, i).1.write();
        shard.index.insert(key, i);
        drop(shard);
        (WriteAccessor { guard }, true)
    }

    /// Listing 4-style insert: attempt to publish `value` under `key`.
    /// Returns `true` iff this call inserted (the caller is the arbiter).
    /// No accessor is retained.
    pub fn insert(&self, key: K, value: V) -> bool {
        let lock = self.shard_for(&key);
        if lock.read().index.contains_key(&key) {
            return false;
        }
        let mut shard = lock.write();
        if shard.index.contains_key(&key) {
            return false;
        }
        let i = shard.slots.push((key.clone(), RwLock::new(value)));
        shard.index.insert(key, i);
        true
    }

    /// Find `key` and return a shared (read) accessor.
    pub fn find(&self, key: &K) -> Option<ReadAccessor<'_, V>> {
        Some(ReadAccessor { guard: self.find_slot(key)?.1.read() })
    }

    /// Find `key` and return an exclusive (write) accessor.
    pub fn find_mut(&self, key: &K) -> Option<WriteAccessor<'_, V>> {
        Some(WriteAccessor { guard: self.find_slot(key)?.1.write() })
    }

    /// Whether `key` is present (racy by nature; useful as a hint).
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).read().index.contains_key(key)
    }

    /// Remove `key`; returns whether it was present. Only the key is
    /// unlinked: threads still holding accessors keep using the entry,
    /// which becomes unreachable via the map and is dropped with it.
    pub fn remove(&self, key: &K) -> bool {
        self.shard_for(key).write().index.remove(key).is_some()
    }

    /// Number of entries (sums shard sizes; exact only in quiescence).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().index.len()).sum()
    }

    /// Whether the map is empty (exact only in quiescence).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().index.is_empty())
    }

    /// Collect all keys. Per-shard consistent, globally racy.
    pub fn snapshot_keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            out.extend(s.read().index.keys().cloned());
        }
        out
    }

    /// Visit each entry under its read lock, with no shard lock held. The
    /// callback must not touch this map (deadlock risk); intended for
    /// quiescent phases.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let mut slots = Vec::with_capacity(self.len());
        for s in self.shards.iter() {
            let shard = s.read();
            slots.extend(shard.index.values().map(|&i| self.slot(&shard, i)));
        }
        for (k, lock) in slots {
            f(k, &lock.read());
        }
    }

    /// Consume the map into its `(key, value)` pairs: the hand-off from a
    /// concurrent phase to code that owns the data outright (the parser's
    /// finalization). Each shard's slab is walked in slot order and every
    /// live value is moved out; removed entries are dropped. The order is
    /// not the key order, and callers must not depend on it.
    ///
    /// No accessor can be alive, since each one borrows the map:
    ///
    /// ```compile_fail
    /// use pba_concurrent::ConcurrentHashMap;
    /// let m: ConcurrentHashMap<u64, u64> = ConcurrentHashMap::new();
    /// m.insert(1, 10);
    /// let held = m.find(&1).unwrap();
    /// let entries = m.into_entries(); // error: `m` is still borrowed
    /// assert_eq!(*held, entries[0].1);
    /// ```
    pub fn into_entries(self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        let mut live = Vec::new();
        for shard in self.shards.into_vec() {
            let Shard { index, slots } = shard.into_inner();
            live.clear();
            live.resize(slots.len, false);
            for i in index.into_values() {
                live[i] = true;
            }
            slots.into_each(|i, (k, lock)| {
                if live[i] {
                    out.push((k, lock.into_inner()));
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

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
        assert!(m.remove(&9));
        assert!(!m.remove(&9));
        assert_eq!(*acc, 99, "accessor outlives removal");
        assert!(m.find(&9).is_none());
    }

    #[test]
    fn into_entries_moves_every_live_value() {
        let m: ConcurrentHashMap<u64, Vec<u64>> = ConcurrentHashMap::with_shards(4);
        for k in 0..8 {
            m.insert(k, vec![k]);
        }
        // A writer's value, left by an accessor dropped before the hand-off.
        let (mut writer, _) = m.insert_with(9, Vec::new);
        writer.push(99);
        drop(writer);
        let mut entries = m.into_entries();
        entries.sort_unstable();
        let mut want: Vec<(u64, Vec<u64>)> = (0..8).map(|k| (k, vec![k])).collect();
        want.push((9, vec![99]));
        assert_eq!(entries, want);
    }

    /// Counts its drops in a shared counter.
    struct Counted(u64, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn slab_entries_span_chunks_and_drop_exactly_once() {
        const KEYS: u64 = 1500; // chunks of 4, 8, …, 1024 slots: nine chunks
        let drops = Arc::new(AtomicUsize::new(0));
        let fill = || {
            let m = ConcurrentHashMap::with_shards(1);
            for k in 0..KEYS {
                assert!(m.insert(k, Counted(k, Arc::clone(&drops))));
            }
            m
        };

        // Consumed: removed values drop in the hand-off, live ones move out.
        let m = fill();
        assert!((0..KEYS).all(|k| m.find(&k).is_some_and(|v| v.0 == k)));
        for k in (0..KEYS).step_by(3) {
            assert!(m.remove(&k));
        }
        // A removed key inserted again takes a new slot; the old one is dead.
        assert!(m.insert(0, Counted(7_000, Arc::clone(&drops))));
        let removed = KEYS.div_ceil(3) as usize;
        assert_eq!(drops.load(Ordering::Relaxed), 0, "removal only unlinks");
        let mut entries = m.into_entries();
        assert_eq!(drops.load(Ordering::Relaxed), removed);
        entries.sort_unstable_by_key(|e| e.0);
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let want: Vec<u64> = (0..KEYS).filter(|k| k % 3 != 0 || *k == 0).collect();
        assert_eq!(keys, want, "each live key exactly once");
        assert!(entries.iter().all(|(k, v)| v.0 == if *k == 0 { 7_000 } else { *k }));
        drop(entries);
        assert_eq!(drops.load(Ordering::Relaxed), KEYS as usize + 1);

        // Never taken apart: dropping the map drops every value once.
        drops.store(0, Ordering::Relaxed);
        let m = fill();
        assert!(m.remove(&5));
        drop(m);
        assert_eq!(drops.load(Ordering::Relaxed), KEYS as usize);
    }

    #[test]
    fn slab_slots_map_onto_growing_chunks() {
        let mut at = Vec::new();
        for c in 0..5 {
            for off in 0..FIRST_CHUNK << c {
                at.push((c, off));
            }
        }
        let got: Vec<(usize, usize)> = (0..at.len()).map(Slab::<u8>::locate).collect();
        assert_eq!(got, at);
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
