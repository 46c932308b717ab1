//! Offline shim for the `parking_lot` subset this workspace uses.
//!
//! The container building this repo has no crates.io access, so the
//! locking primitives are reimplemented here with an API-compatible
//! surface: non-poisoning `Mutex`/`RwLock`, plus the `arc_lock` entry
//! guards (`read_arc`/`write_arc`) that `pba-concurrent`'s accessor map
//! relies on. The rwlock is a classic writer-preferring
//! `Mutex<Condvar>` design with one property the parser depends on: an
//! unlock that nobody is waiting for makes no system call. A
//! `Condvar::notify_*` is a `futex_wake` whether or not anyone sleeps,
//! and the accessor map takes two of these locks (shard + entry) per
//! operation, so the lock counts its waiting readers and writers and
//! notifies only a non-zero count.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Raw lock marker type (type-level compatibility with `lock_api`).
pub struct RawRwLock(());

#[derive(Default)]
struct RwState {
    /// Active readers.
    readers: usize,
    /// Writer currently inside.
    writer: bool,
    /// Writers waiting (readers defer to them to avoid writer starvation).
    writers_waiting: usize,
    /// Readers asleep on `readers_cv`.
    readers_waiting: usize,
}

/// A reader-writer lock with the `parking_lot` API shape: infallible,
/// non-poisoning `read()`/`write()`, plus Arc-owning guards.
pub struct RwLock<T: ?Sized> {
    state: StdMutex<RwState>,
    readers_cv: Condvar,
    writers_cv: Condvar,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Create an unlocked lock holding `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            state: StdMutex::new(RwState::default()),
            readers_cv: Condvar::new(),
            writers_cv: Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn lock_shared(&self) {
        let mut s = self.state.lock().unwrap();
        if s.writer || s.writers_waiting > 0 {
            s.readers_waiting += 1;
            while s.writer || s.writers_waiting > 0 {
                s = self.readers_cv.wait(s).unwrap();
            }
            s.readers_waiting -= 1;
        }
        s.readers += 1;
    }

    fn lock_exclusive(&self) {
        let mut s = self.state.lock().unwrap();
        s.writers_waiting += 1;
        while s.writer || s.readers > 0 {
            s = self.writers_cv.wait(s).unwrap();
        }
        s.writers_waiting -= 1;
        s.writer = true;
    }

    fn unlock_shared(&self) {
        let mut s = self.state.lock().unwrap();
        s.readers -= 1;
        if s.readers == 0 && s.writers_waiting > 0 {
            self.writers_cv.notify_one();
        }
    }

    fn unlock_exclusive(&self) {
        let mut s = self.state.lock().unwrap();
        s.writer = false;
        if s.writers_waiting > 0 {
            self.writers_cv.notify_one();
        } else if s.readers_waiting > 0 {
            self.readers_cv.notify_all();
        }
    }

    /// Acquire a shared borrow-scoped read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock_shared();
        RwLockReadGuard { lock: self }
    }

    /// Acquire an exclusive borrow-scoped write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.lock_exclusive();
        RwLockWriteGuard { lock: self }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Acquire a shared guard that owns the `Arc`, surviving any borrow
    /// scope (the `arc_lock` feature of real `parking_lot`).
    pub fn read_arc(self: &Arc<Self>) -> ArcRwLockReadGuard<RawRwLock, T>
    where
        T: Sized,
    {
        self.lock_shared();
        ArcRwLockReadGuard::new(Arc::clone(self))
    }

    /// Acquire an exclusive guard that owns the `Arc`.
    pub fn write_arc(self: &Arc<Self>) -> ArcRwLockWriteGuard<RawRwLock, T>
    where
        T: Sized,
    {
        self.lock_exclusive();
        ArcRwLockWriteGuard::new(Arc::clone(self))
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
    fn deref(&self) -> &T {
        // Safety: shared lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
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
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: exclusive lock held for the guard's lifetime.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_exclusive();
    }
}

/// Arc-owning shared guard: keeps the value alive even if the lock is
/// removed from whatever container published it.
pub struct ArcRwLockReadGuard<R, T> {
    lock: Arc<RwLock<T>>,
    // `R` mirrors lock_api's raw-lock parameter for signature parity.
    #[allow(dead_code)]
    _raw: std::marker::PhantomData<R>,
}

impl<R, T> ArcRwLockReadGuard<R, T> {
    fn new(lock: Arc<RwLock<T>>) -> Self {
        ArcRwLockReadGuard { lock, _raw: std::marker::PhantomData }
    }
}

impl<T> Deref for ArcRwLockReadGuard<RawRwLock, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T> Drop for ArcRwLockReadGuard<R, T> {
    fn drop(&mut self) {
        self.lock.unlock_shared();
    }
}

/// Arc-owning exclusive guard.
pub struct ArcRwLockWriteGuard<R, T> {
    lock: Arc<RwLock<T>>,
    #[allow(dead_code)]
    _raw: std::marker::PhantomData<R>,
}

impl<R, T> ArcRwLockWriteGuard<R, T> {
    fn new(lock: Arc<RwLock<T>>) -> Self {
        ArcRwLockWriteGuard { lock, _raw: std::marker::PhantomData }
    }
}

impl<T> Deref for ArcRwLockWriteGuard<RawRwLock, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for ArcRwLockWriteGuard<RawRwLock, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<R, T> Drop for ArcRwLockWriteGuard<R, T> {
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn arc_write_guard_outlives_container() {
        let arc = Arc::new(RwLock::new(String::from("x")));
        let mut g = arc.write_arc();
        g.push('y');
        drop(arc);
        assert_eq!(&*g, "xy");
    }

    /// Spin until `n` threads are counted asleep on the lock.
    fn await_waiters<T>(l: &RwLock<T>, n: usize) {
        while {
            let s = l.state.lock().unwrap();
            s.readers_waiting + s.writers_waiting != n
        } {
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
        let s = l.state.lock().unwrap();
        assert_eq!((s.readers, s.readers_waiting, s.writers_waiting), (0, 0, 0));
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
}
