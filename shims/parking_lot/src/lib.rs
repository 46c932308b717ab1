//! Offline shim for the `parking_lot` subset this workspace uses.
//!
//! The container building this repo has no crates.io access, so the
//! locking primitives are reimplemented here with an API-compatible
//! surface: a non-poisoning `Mutex` and a one-word `RwLock`.
//!
//! The `RwLock` is what `pba-concurrent`'s accessor map takes twice per
//! operation (shard, then entry), so its uncontended path is the cost
//! that matters: a `read`/`write` is one compare-and-swap on the lock's
//! state word and the matching unlock is one atomic read-modify-write;
//! neither touches a mutex or makes a system call. A contended acquire
//! spins briefly, then parks on a process-wide table of `std`
//! mutex/condvar pairs striped by the lock's address, so a lock costs
//! one word beside its data. The state word counts the threads parked
//! on the lock, and an unlock goes to the table only when that count is
//! non-zero. Writers are preferred: while a writer is parked, no new
//! reader enters.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

// The state word, low bits first: the writer bit, the parked-writer
// count, the parked-reader count, the reader count.
const WRITER: u64 = 1;
const PARKED_WRITER: u64 = 1 << 1;
const PARKED_READER: u64 = 1 << 21;
const ONE_READER: u64 = 1 << 41;
const PARKED_WRITERS: u64 = PARKED_READER - PARKED_WRITER;
const PARKED_READERS: u64 = ONE_READER - PARKED_READER;
const READERS: u64 = !(ONE_READER - 1);

/// Rounds of `spin_loop` backoff (1, 2, 4, … hints) a contended acquire
/// makes before it parks. Short: with two CPUs, a spinner that outlasts
/// the holder's time slice only delays the holder.
const SPIN_ROUNDS: u32 = 6;

/// Where contended acquires sleep. A parked thread registers in its
/// lock's state word under the bucket mutex before it waits, and an
/// unlock that sees a registration notifies under the same mutex, so
/// no wake-up is lost. Locks sharing a bucket see each other's
/// notifications as spurious wake-ups and re-check their own word.
struct Bucket {
    mutex: StdMutex<()>,
    cv: Condvar,
}

const BUCKETS: usize = 64;

static PARKING: [Bucket; BUCKETS] =
    [const { Bucket { mutex: StdMutex::new(()), cv: Condvar::new() } }; BUCKETS];

fn bucket(state: &AtomicU64) -> &'static Bucket {
    let addr = state as *const AtomicU64 as usize as u64;
    &PARKING[((addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize]
}

/// Lock a bucket's mutex. It guards no data (the state word is the
/// data), so a poisoned one is as good as a clean one.
fn lock_bucket(b: &Bucket) -> StdMutexGuard<'_, ()> {
    b.mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A reader-writer lock with the `parking_lot` API shape: infallible,
/// non-poisoning `read()`/`write()`.
pub struct RwLock<T: ?Sized> {
    state: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: the lock owns its `T` (`state` is an atomic), so sending the
// lock sends the `T`; that needs `T: Send`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: sharing the lock lets readers on several threads hold `&T` at
// once (`T: Sync`) and a writer on any thread take `&mut T`, move a
// value in or out and so in effect send it (`T: Send`).
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Create an unlocked lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { state: AtomicU64::new(0), data: UnsafeCell::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// What a read or write acquire waits for, as masks of the state word.
struct Want {
    /// Bits that must be clear for the acquire to succeed.
    blocked_by: u64,
    /// Added to the state word on success.
    take: u64,
    /// One unit of this side's parked count.
    parked: u64,
    /// All bits of this side's parked count.
    parked_mask: u64,
}

const READ: Want = Want {
    blocked_by: WRITER | PARKED_WRITERS,
    take: ONE_READER,
    parked: PARKED_READER,
    parked_mask: PARKED_READERS,
};
const WRITE: Want = Want {
    blocked_by: WRITER | READERS,
    take: WRITER,
    parked: PARKED_WRITER,
    parked_mask: PARKED_WRITERS,
};

/// `s` with one more holder of `want`'s kind; a reader count past the
/// state word's field would wrap into a free lock.
#[inline]
fn taken(s: u64, want: &Want) -> u64 {
    s.checked_add(want.take).expect("RwLock reader count overflow")
}

impl<T: ?Sized> RwLock<T> {
    /// One attempt at taking the lock from the observed state `s`.
    #[inline]
    fn try_take(&self, s: u64, want: &Want) -> bool {
        // Acquire pairs with the Release of the unlock that freed it.
        s & want.blocked_by == 0
            && self
                .state
                .compare_exchange_weak(s, taken(s, want), Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    #[inline]
    fn lock_shared(&self) {
        if !self.try_take(self.state.load(Ordering::Relaxed), &READ) {
            self.lock_slow(&READ);
        }
    }

    #[inline]
    fn lock_exclusive(&self) {
        if self.state.compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed).is_err() {
            self.lock_slow(&WRITE);
        }
    }

    #[cold]
    fn lock_slow(&self, want: &Want) {
        for round in 0..SPIN_ROUNDS {
            if self.try_take(self.state.load(Ordering::Relaxed), want) {
                return;
            }
            for _ in 0..1u32 << round {
                std::hint::spin_loop();
            }
        }
        let b = bucket(&self.state);
        let mut guard = lock_bucket(b);
        let mut registered = false;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & want.blocked_by == 0 {
                let next = taken(if registered { s - want.parked } else { s }, want);
                // Acquire as in `try_take`.
                if self
                    .state
                    .compare_exchange_weak(s, next, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            if !registered {
                // Relaxed: the count publishes no data. An unlock reads
                // it with a read-modify-write, which sees the latest
                // value, and this compare-exchange fails if an unlock
                // came first, so the unlock either sees the
                // registration or this thread sees the lock free.
                let full = s & want.parked_mask == want.parked_mask;
                assert!(!full, "RwLock parked-thread count overflow");
                if self
                    .state
                    .compare_exchange_weak(s, s + want.parked, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                registered = true;
            }
            guard = b.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    #[inline]
    fn unlock_shared(&self) {
        // Release pairs with the next acquire's Acquire.
        let prev = self.state.fetch_sub(ONE_READER, Ordering::Release);
        if prev & READERS == ONE_READER && prev & (PARKED_WRITERS | PARKED_READERS) != 0 {
            self.wake();
        }
    }

    #[inline]
    fn unlock_exclusive(&self) {
        // Release as in `unlock_shared`.
        let prev = self.state.fetch_sub(WRITER, Ordering::Release);
        if prev & (PARKED_WRITERS | PARKED_READERS) != 0 {
            self.wake();
        }
    }

    /// Wake every thread parked in this lock's bucket; each re-checks
    /// its own lock. Taking the bucket mutex orders the notify after
    /// any registered waiter has gone to sleep.
    #[cold]
    fn wake(&self) {
        let b = bucket(&self.state);
        let _guard = lock_bucket(b);
        b.cv.notify_all();
    }

    /// Acquire a shared borrow-scoped read guard.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock_shared();
        RwLockReadGuard { lock: self }
    }

    /// Acquire an exclusive borrow-scoped write guard.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.lock_exclusive();
        RwLockWriteGuard { lock: self }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Borrow-scoped shared guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds a shared lock for its lifetime, so no
        // writer has a `&mut T`.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.unlock_shared();
    }
}

/// Borrow-scoped exclusive guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the exclusive lock for its lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the exclusive lock for its lifetime,
        // and `&mut self` makes this the only borrow through it.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// Non-poisoning mutex with the `parking_lot` API shape.
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create an unlocked mutex holding `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: StdMutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (recovers from poisoning like parking_lot, which
    /// has no poisoning at all).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()) }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Mutex guard.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        let (a, b) = (l.read(), l.read());
        assert_eq!((*a, *b), (7, 7), "readers share");
        drop((a, b));
        assert_eq!(l.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rwlock_is_one_word_beside_its_data() {
        assert!(std::mem::size_of::<RwLock<u64>>() <= 32);
        assert_eq!(std::mem::size_of::<RwLock<u64>>(), 16);
    }

    /// Threads parked on `l`, from its state word.
    fn parked<T>(l: &RwLock<T>) -> u64 {
        let s = l.state.load(Ordering::Relaxed);
        (s & PARKED_WRITERS) / PARKED_WRITER + (s & PARKED_READERS) / PARKED_READER
    }

    /// Spin until `n` threads are counted asleep on the lock.
    fn await_waiters<T>(l: &RwLock<T>, n: u64) {
        while parked(l) != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn reader_blocked_behind_a_writer_is_woken() {
        // The hand-off the waiter count must not break: the unlock that
        // follows a *registered* sleeper has to notify it.
        let l = Arc::new(RwLock::new(0u32));
        let mut w = l.write();
        let reader = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || *l.read())
        };
        await_waiters(&l, 1);
        *w = 7;
        drop(w);
        assert_eq!(reader.join().unwrap(), 7);
        assert_eq!(l.state.load(Ordering::Relaxed), 0, "no reader, writer or sleeper left");
    }

    #[test]
    fn writer_blocked_behind_readers_is_woken_and_holds_back_new_readers() {
        let l = Arc::new(RwLock::new(0u32));
        let r1 = l.read();
        let r2 = l.read();
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || *l.write() = 9)
        };
        await_waiters(&l, 1);
        // Writer preference: a reader arriving now queues behind it.
        let late = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || *l.read())
        };
        await_waiters(&l, 2);
        drop(r1);
        drop(r2);
        writer.join().unwrap();
        assert_eq!(late.join().unwrap(), 9);
    }

    #[test]
    fn writers_exclude_readers() {
        let l = Arc::new(RwLock::new(0u64));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let mut g = l.write();
                    let v = *g;
                    *g = v + 1;
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 4000);
    }

    #[test]
    fn mixed_readers_and_writers_never_see_a_torn_value() {
        // Eight threads (seven workers and this one) on three locks. Each round first parks every
        // worker behind a write lock the main thread holds, so the
        // parked path and its wake-up run every round whatever the
        // scheduler does; then the workers race, writers storing
        // `(n, n)` pairs and readers checking that the halves agree.
        const THREADS: usize = 7;
        const ROUNDS: usize = 20;
        const OPS: u64 = 300;
        let locks: Vec<RwLock<(u64, u64)>> = (0..3).map(|_| RwLock::new((0, 0))).collect();
        let barrier = Barrier::new(THREADS + 1);
        let writes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (locks, barrier, writes) = (&locks, &barrier, &writes);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        let first = locks[round % locks.len()].read();
                        assert_eq!(first.0, first.1);
                        drop(first);
                        for i in 0..OPS {
                            let l = &locks[(i as usize + t) % locks.len()];
                            if (i + t as u64).is_multiple_of(4) {
                                let mut g = l.write();
                                let n = g.0 + 1;
                                g.0 = n;
                                std::hint::black_box(&mut *g);
                                g.1 = n;
                                writes.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let g = l.read();
                                assert_eq!(g.0, g.1, "torn read");
                            }
                        }
                        barrier.wait();
                    }
                });
            }
            for round in 0..ROUNDS {
                let first = &locks[round % locks.len()];
                let held = first.write();
                barrier.wait();
                await_waiters(first, THREADS as u64);
                drop(held);
                // The round's end: no worker is left holding or waiting
                // for a lock when the next round's is taken.
                barrier.wait();
            }
        });
        let total: u64 = locks.iter().map(|l| l.read().0).sum();
        assert_eq!(total, writes.load(Ordering::Relaxed) as u64);
        assert!(locks.iter().all(|l| l.state.load(Ordering::Relaxed) == 0));
    }
}
