//! Offline shim for the `rayon` subset this workspace uses.
//!
//! The container has no crates.io access, so this crate provides real
//! data parallelism behind rayon's API shape — since the work-stealing
//! refactor, with rayon's *scheduling discipline* too:
//!
//! * a persistent **work-stealing pool** per pool size (same-size
//!   [`ThreadPool`]s share one process-lived registry; a lazily-built
//!   global pool serves everything else): each worker owns a Chase–Lev
//!   style deque ([`crossbeam::deque`]) it pushes and pops LIFO, idle
//!   workers steal FIFO from their siblings, and an injector queue
//!   receives work submitted from non-worker threads;
//! * `par_iter()` / `par_iter_mut()` / `into_par_iter()` producing an
//!   order-preserving [`ParIter`] whose combinators run as **splittable
//!   index-range tasks**: one root task over `0..len` splits in half
//!   until it reaches the grain size, leaving the right halves in the
//!   owner's deque for thieves — skewed item costs rebalance
//!   dynamically instead of riding out a static chunk assignment;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`], which scope all
//!   parallel operations (and their stealing) to the pool's workers;
//! * [`scope`] with nested [`Scope::spawn`]: tasks spawned from a
//!   worker go to that worker's own deque (depth-first, stealable),
//!   tasks spawned from outside the pool go to the injector.
//!
//! Semantics match rayon where the workspace depends on them:
//! deterministic output order for `map`/`collect` (results are written
//! into their slot by index, so scheduling order never shows),
//! all tasks complete before `scope` returns, panics propagate after
//! the scope/operation drains, and `install` bounds the parallelism of
//! everything called inside it. A pool of `n` threads runs `n - 1`
//! persistent workers plus the calling thread, which executes tasks
//! while it waits — so `num_threads(1)` degrades to strictly serial
//! execution on the caller, with no queue handoff.
//!
//! Scheduling activity is observable through [`stats`]
//! (cache-line-padded [`pba_concurrent::stats::Counter`]s): tasks
//! executed, tasks obtained by stealing, and range splits. The
//! benchmark suite reports them as its `rayon.tasks_*` rows.

use crossbeam::deque::{Injector, Stealer, Worker};
use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

/// Scheduler work counters, exposed for benchmarks. Monotonic and
/// global (all pools share them); [`stats::reset`] zeroes them between
/// measurement rows.
pub mod stats {
    pub use pba_concurrent::stats::Counter;

    /// Tasks executed, by anyone (workers and waiting callers).
    pub static TASKS_EXECUTED: Counter = Counter::new();
    /// Tasks obtained by stealing from another worker's deque.
    pub static TASKS_STOLEN: Counter = Counter::new();
    /// Index-range splits performed by parallel-iterator tasks.
    pub static TASKS_SPLIT: Counter = Counter::new();

    /// Zero all counters (between benchmark iterations).
    pub fn reset() {
        TASKS_EXECUTED.reset();
        TASKS_STOLEN.reset();
        TASKS_SPLIT.reset();
    }
}

/// An erased, heap-allocated task. Lifetimes are erased on submission;
/// soundness comes from the submitting construct (scope or parallel
/// operation) blocking until its latch counts every task complete.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Erase a task's lifetime so it can sit in a persistent worker's deque.
///
/// # Safety
/// The caller must not return from the stack frame owning the data the
/// task borrows until the task has finished executing.
unsafe fn erase<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Task>(task)
}

/// A raw pointer that may cross threads (the pointee outlives the tasks
/// referencing it — same contract as [`erase`]).
struct SendPtr<T>(*const T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Get the pointer (method access keeps closures capturing the
    /// whole Send wrapper, not the raw field).
    fn get(self) -> *const T {
        self.0
    }
}

/// A mutable raw pointer that may cross threads (disjoint index ranges
/// guarantee exclusive access per element).
struct SendMutPtr<T>(*mut T);
unsafe impl<T> Send for SendMutPtr<T> {}
unsafe impl<T> Sync for SendMutPtr<T> {}
impl<T> Clone for SendMutPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendMutPtr<T> {}
impl<T> SendMutPtr<T> {
    /// See [`SendPtr::get`].
    fn get(self) -> *mut T {
        self.0
    }
}

/// The persistent pool behind a [`ThreadPool`] (or the global default):
/// `n_effective - 1` parked worker threads, each owning a deque, plus
/// an injector for work arriving from non-worker threads. The calling
/// thread of a parallel operation acts as the remaining executor.
struct Registry {
    /// Configured parallelism (workers + the participating caller).
    n_effective: usize,
    /// Per-worker deques (owner end).
    deques: Vec<Worker<Task>>,
    /// Per-worker deques (thief end), index-aligned with `deques`.
    stealers: Vec<Stealer<Task>>,
    /// FIFO queue for tasks submitted from outside the pool.
    injector: Injector<Task>,
    /// How many threads are parked on `cv`: idle workers *and* callers
    /// waiting for a latch (see [`Registry::park_unless`]). Every push
    /// and every latch completion notifies under this lock, which makes
    /// the park/notify race lossless — and only when the count is
    /// non-zero, because a notify nobody hears is still a syscall.
    sleepers: Mutex<usize>,
    cv: Condvar,
}

impl Registry {
    /// Build a registry of `num_threads` effective threads (0 = all
    /// available) and spawn its persistent workers.
    fn new(num_threads: usize) -> Arc<Registry> {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let n = if num_threads == 0 { hw } else { num_threads };
        let workers = n.saturating_sub(1);
        let deques: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = deques.iter().map(|d| d.stealer()).collect();
        let reg = Arc::new(Registry {
            n_effective: n.max(1),
            deques,
            stealers,
            injector: Injector::new(),
            sleepers: Mutex::new(0),
            cv: Condvar::new(),
        });
        for i in 0..workers {
            let r = Arc::clone(&reg);
            std::thread::Builder::new()
                .name(format!("pba-rayon-{i}"))
                .spawn(move || worker_main(r, i))
                .expect("spawn pool worker");
        }
        reg
    }

    /// Enqueue a task: onto the submitting worker's own deque when the
    /// submitter belongs to this registry (owner-LIFO), else onto the
    /// injector. Wakes one parked thread — worker or waiting caller,
    /// either can run it.
    fn submit(&self, task: Task) {
        match ctx_owner_index(self) {
            Some(i) => self.deques[i].push(task),
            None => self.injector.push(task),
        }
        if *self.lock_sleepers() > 0 {
            self.cv.notify_one();
        }
    }

    fn lock_sleepers(&self) -> std::sync::MutexGuard<'_, usize> {
        self.sleepers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park until the next push or latch completion, unless `ready()`
    /// already holds or a task is queued. Both are checked under the
    /// sleep lock, and both events notify under it *after* becoming
    /// observable, so the event is either seen here or its notify finds
    /// this thread counted and waiting. Returning is only a hint to look
    /// again (wake-ups can be spurious or meant for someone else).
    fn park_unless(&self, ready: impl Fn() -> bool) {
        let mut sleepers = self.lock_sleepers();
        if ready() || self.any_queued() {
            return;
        }
        *sleepers += 1;
        sleepers = self.cv.wait(sleepers).unwrap_or_else(|e| e.into_inner());
        *sleepers -= 1;
    }

    /// Wake every parked thread: a latch drained, and its waiter is one
    /// of them.
    fn wake_all(&self) {
        if *self.lock_sleepers() > 0 {
            self.cv.notify_all();
        }
    }

    /// Find one runnable task: own deque (LIFO) first, then the
    /// injector, then steal (FIFO) from siblings round-robin.
    fn find_task(&self, owner: Option<usize>) -> Option<Task> {
        if let Some(i) = owner {
            if let Some(t) = self.deques[i].pop() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.steal().success() {
            return Some(t);
        }
        let k = self.stealers.len();
        let start = owner.map(|i| i + 1).unwrap_or(0);
        for off in 0..k {
            let j = (start + off) % k;
            if owner == Some(j) {
                continue;
            }
            if let Some(t) = self.stealers[j].steal().success() {
                stats::TASKS_STOLEN.inc();
                return Some(t);
            }
        }
        None
    }

    /// Whether any queue holds a task (checked under the sleep lock
    /// before a thread parks).
    fn any_queued(&self) -> bool {
        !self.injector.is_empty() || self.deques.iter().any(|d| !d.is_empty())
    }
}

fn execute(task: Task) {
    stats::TASKS_EXECUTED.inc();
    task();
}

/// Persistent worker main loop: run tasks forever, parking when the
/// whole registry is drained. Registries are cached for the process
/// lifetime (see [`pooled_registry`]), so workers are never torn down —
/// they park, exactly like rayon's global pool.
fn worker_main(reg: Arc<Registry>, index: usize) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        c.registry = Some(Arc::clone(&reg));
        c.worker_of = Some((Arc::clone(&reg), index));
    });
    loop {
        match reg.find_task(Some(index)) {
            Some(t) => execute(t),
            None => reg.park_unless(|| false),
        }
    }
}

/// Countdown latch for one scope or parallel operation: tracks
/// outstanding tasks. It lives in the waiting caller's stack frame, so
/// the decrement that brings it to zero is the last access any task
/// makes to it (see [`Latch::decrement`]).
struct Latch {
    counter: std::sync::atomic::AtomicUsize,
}

impl Latch {
    fn new() -> Latch {
        Latch { counter: std::sync::atomic::AtomicUsize::new(0) }
    }

    fn increment(&self) {
        self.counter.fetch_add(1, Ordering::SeqCst);
    }

    /// Count one task complete; the last one wakes the registry's
    /// parked threads, the waiter among them. The waiter may return and
    /// free the latch (and the scope or job around it) as soon as the
    /// counter reads zero, so nothing here touches `self` after the
    /// `fetch_sub` — which is why `reg` is a plain reference the caller
    /// took *before* decrementing: registries are never freed (see
    /// [`pooled_registry`]), the frame that holds the `Arc` may be.
    fn decrement(&self, reg: &Registry) {
        if self.counter.fetch_sub(1, Ordering::SeqCst) == 1 {
            reg.wake_all();
        }
    }

    fn done(&self) -> bool {
        self.counter.load(Ordering::SeqCst) == 0
    }
}

/// Block until `latch` drains, executing pool tasks while waiting (the
/// caller is the pool's n-th executor; with a 1-thread pool it is the
/// *only* one). With nothing to run the caller parks on the registry,
/// not on its latch: a task pushed after the scan — by another caller
/// of a worker-less registry, or by a task this latch is waiting for
/// while every worker sleeps in a nested wait — wakes it to scan again,
/// so no task can be left on a queue nobody will look at.
fn wait_with_work(reg: &Arc<Registry>, latch: &Latch) {
    let owner = ctx_owner_index(reg);
    while !latch.done() {
        match reg.find_task(owner) {
            Some(t) => execute(t),
            None => reg.park_unless(|| latch.done()),
        }
    }
}

struct Ctx {
    /// Registry parallel operations on this thread use ([`install`]
    /// override, or the worker's own pool). `None` = global pool.
    registry: Option<Arc<Registry>>,
    /// Set on persistent worker threads: which registry and slot.
    worker_of: Option<(Arc<Registry>, usize)>,
}

thread_local! {
    static CTX: RefCell<Ctx> = const { RefCell::new(Ctx { registry: None, worker_of: None }) };
}

fn global_registry() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Registry::new(0)))
}

/// Registry for a requested pool size, cached process-wide: building a
/// `ThreadPool` of a size seen before is a map lookup, not an OS-thread
/// spawn — `run_per_function_ir`-style code that builds a pool per call
/// pays the worker spawn cost once per distinct size, ever. Size 0 (all
/// available) resolves to the global registry.
fn pooled_registry(num_threads: usize) -> Arc<Registry> {
    if num_threads == 0 {
        return global_registry();
    }
    static CACHE: OnceLock<Mutex<std::collections::HashMap<usize, Arc<Registry>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(cache.entry(num_threads).or_insert_with(|| Registry::new(num_threads)))
}

fn current_registry() -> Arc<Registry> {
    CTX.with(|c| c.borrow().registry.clone()).unwrap_or_else(global_registry)
}

/// This thread's worker slot in `reg`, if it is one of `reg`'s workers.
fn ctx_owner_index(reg: &Registry) -> Option<usize> {
    CTX.with(|c| {
        c.borrow().worker_of.as_ref().filter(|(r, _)| std::ptr::eq(&**r, reg)).map(|&(_, i)| i)
    })
}

/// The thread count parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    current_registry().n_effective
}

// ---------------------------------------------------------------------
// Splittable index-range jobs (the substrate under ParIter).
// ---------------------------------------------------------------------

/// One parallel operation over `0..len`: a root task splits itself in
/// half until ranges reach `grain`, pushing right halves for thieves.
struct IndexJob<'a> {
    registry: &'a Arc<Registry>,
    latch: Latch,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    grain: usize,
    body: &'a (dyn Fn(usize) + Sync),
}

impl IndexJob<'_> {
    fn spawn_range(&self, lo: usize, hi: usize) {
        self.latch.increment();
        let ptr = SendPtr(self as *const IndexJob);
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let job = unsafe { &*ptr.get() };
            job.run_range(lo, hi);
        });
        // Safety: `run_index_job` waits on the latch before returning,
        // so `self` (and everything `body` borrows) outlives the task.
        self.registry.submit(unsafe { erase(task) });
    }

    fn run_range(&self, lo: usize, mut hi: usize) {
        while hi - lo > self.grain {
            let mid = lo + (hi - lo) / 2;
            stats::TASKS_SPLIT.inc();
            self.spawn_range(mid, hi);
            hi = mid;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in lo..hi {
                (self.body)(i);
            }
        }));
        if let Err(p) = result {
            self.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(p);
        }
        let reg: &Registry = self.registry;
        self.latch.decrement(reg);
    }
}

/// Run `body(i)` for every `i in 0..len` on the current registry,
/// splitting the index range for dynamic load balance. Each index runs
/// exactly once; panics propagate after the whole range drains.
fn run_index_job(len: usize, body: &(dyn Fn(usize) + Sync)) {
    if len == 0 {
        return;
    }
    let registry = current_registry();
    let threads = registry.n_effective.min(len);
    if threads <= 1 {
        // Strictly serial: no queues, no latch, panics unwind directly.
        for i in 0..len {
            body(i);
        }
        return;
    }
    // Grain: ~8 leaves per executor, so stealing has granularity to
    // rebalance skew without drowning tiny items in task overhead.
    let grain = (len / (threads * 8)).max(1);
    let job =
        IndexJob { registry: &registry, latch: Latch::new(), panic: Mutex::new(None), grain, body };
    job.spawn_range(0, len);
    wait_with_work(&registry, &job.latch);
    let panic = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

/// Parallel map `items -> Vec<R>`, preserving order: each range task
/// moves its items out by index and writes results into their slots.
fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let len = items.len();
    let mut items = ManuallyDrop::new(items);
    let src = SendMutPtr(items.as_mut_ptr());
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(len);
    // Safety: MaybeUninit needs no initialization; every slot is
    // written exactly once below before being read.
    unsafe { out.set_len(len) };
    let dst = SendMutPtr(out.as_mut_ptr());
    run_index_job(len, &|i| {
        // Safety: index ranges are disjoint and each index runs exactly
        // once, so the reads (moving T out) and writes are exclusive.
        unsafe {
            let v = src.get().add(i).read();
            (*dst.get().add(i)).write(f(v));
        }
    });
    // All elements were moved out; release the source buffer without
    // running destructors. (On panic the buffers leak — propagation
    // beats double-drop.)
    unsafe {
        items.set_len(0);
        ManuallyDrop::drop(&mut items);
    }
    let mut out = ManuallyDrop::new(out);
    // Safety: every slot is initialized; MaybeUninit<R> and R share layout.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, len, out.capacity()) }
}

/// Parallel for_each over owned items (no output buffer).
fn par_consume<T: Send>(items: Vec<T>, f: &(impl Fn(T) + Sync)) {
    let len = items.len();
    let mut items = ManuallyDrop::new(items);
    let src = SendMutPtr(items.as_mut_ptr());
    run_index_job(len, &|i| {
        // Safety: as in `par_map_vec`, each index is consumed once.
        unsafe { f(src.get().add(i).read()) }
    });
    unsafe {
        items.set_len(0);
        ManuallyDrop::drop(&mut items);
    }
}

/// An order-preserving parallel iterator over materialized items; each
/// combinator is one splittable index-range pass on the stealing pool.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map, preserving order.
    pub fn map<R: Send>(self, f: impl Fn(T) -> R + Sync) -> ParIter<R> {
        ParIter { items: par_map_vec(self.items, &f) }
    }

    /// Parallel filter_map, preserving order.
    pub fn filter_map<R: Send>(self, f: impl Fn(T) -> Option<R> + Sync) -> ParIter<R> {
        ParIter { items: par_map_vec(self.items, &f).into_iter().flatten().collect() }
    }

    /// Parallel filter, preserving order.
    pub fn filter(self, f: impl Fn(&T) -> bool + Sync) -> ParIter<T> {
        ParIter {
            items: par_map_vec(self.items, &|t| if f(&t) { Some(t) } else { None })
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// Parallel for_each.
    pub fn for_each(self, f: impl Fn(T) + Sync) {
        par_consume(self.items, &f);
    }

    /// Collect the (already ordered) results into any `FromIterator`
    /// collection — including `Result<Vec<_>, E>` like rayon.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// `.par_iter()` entry point (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// Borrow `self` as a parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// `.par_iter_mut()` entry point (rayon's `IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Mutably borrowed item type.
    type Item: Send + 'a;
    /// Mutably borrow `self` as a parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

/// `.into_par_iter()` entry point (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send, S> IntoParallelIterator for std::collections::HashSet<T, S> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self.into_iter().collect() }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a sized [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Set the worker count (0 = all available).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Build the pool. Workers are spawned the first time a size is
    /// requested and shared by every later same-size pool (see
    /// [`pooled_registry`]).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { registry: pooled_registry(self.num_threads) })
    }
}

/// A persistent work-stealing pool of `n - 1` parked workers; the
/// thread calling [`ThreadPool::install`] participates as the n-th
/// executor while it waits, so a 1-thread pool runs everything on the
/// caller. Same-size pools share one process-lived registry; dropping a
/// `ThreadPool` just drops the handle — the workers stay parked, like
/// rayon's global pool.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Run `f` with this pool as the ambient registry: parallel
    /// operations (and scopes) started inside use — and are bounded
    /// by — this pool's workers.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CTX.with(|c| c.borrow_mut().registry.replace(Arc::clone(&self.registry)));
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CTX.with(|c| c.borrow_mut().registry = prev);
            }
        }
        // Restore the previous context verbatim — `None` stays `None`
        // (current_registry falls back to the global pool lazily;
        // instantiating it here would spawn its workers for nothing).
        let _restore = Restore(prev);
        f()
    }

    /// The pool's effective parallelism (resolving 0 to the hardware
    /// count).
    pub fn current_num_threads(&self) -> usize {
        self.registry.n_effective
    }
}

/// A fork/join scope: tasks spawned into it (including transitively,
/// from other tasks) all complete before [`scope`] returns.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    latch: Latch,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Submit `body` to run inside this scope: onto the spawning
    /// worker's own deque when called from a pool worker (idle workers
    /// steal it), onto the injector otherwise.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.increment();
        let ptr = SendPtr(self as *const Scope<'scope>);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let sc = unsafe { &*ptr.get() };
            let result = catch_unwind(AssertUnwindSafe(|| body(sc)));
            if let Err(p) = result {
                sc.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(p);
            }
            let reg: &Registry = &sc.registry;
            sc.latch.decrement(reg);
        });
        // Safety: `scope` waits on the latch before returning, so the
        // Scope and all 'scope borrows outlive the task.
        self.registry.submit(unsafe { erase(task) });
    }
}

/// Create a scope on the current registry, run `op` in it, then work
/// until every spawned task (and their transitive spawns) completes.
/// The first panic — from `op` or any task — propagates after the
/// scope drains.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let registry = current_registry();
    let sc = Scope {
        registry: Arc::clone(&registry),
        latch: Latch::new(),
        panic: Mutex::new(None),
        marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&sc)));
    wait_with_work(&registry, &sc.latch);
    let task_panic = sc.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match result {
        Err(p) => resume_unwind(p),
        Ok(r) => {
            if let Some(p) = task_panic {
                resume_unwind(p);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_type() {
        let v = vec![1u32, 2, 3];
        let ok: Result<Vec<u32>, String> = v.par_iter().map(|&x| Ok(x)).collect();
        assert_eq!(ok.unwrap(), vec![1, 2, 3]);
        let err: Result<Vec<u32>, String> =
            v.par_iter().map(|&x| if x == 2 { Err("no".into()) } else { Ok(x) }).collect();
        assert!(err.is_err());
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v: Vec<u64> = (0..100).collect();
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v[0], 1);
        assert_eq!(v[99], 100);
    }

    #[test]
    fn install_bounds_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 3));
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ambient = current_num_threads();
        outer.install(|| {
            assert_eq!(current_num_threads(), 3);
            inner.install(|| {
                assert_eq!(current_num_threads(), 2);
                // Parallel ops inside see the inner pool.
                let v: Vec<usize> = (0..64usize).collect();
                let out: Vec<usize> = v.par_iter().map(|&x| x + 1).collect();
                assert_eq!(out[63], 64);
            });
            assert_eq!(current_num_threads(), 3, "inner install must restore");
        });
        assert_eq!(current_num_threads(), ambient, "outer install must restore");
    }

    #[test]
    fn collect_order_is_deterministic_across_pools() {
        let v: Vec<u64> = (0..5000).collect();
        let reference: Vec<u64> = v.iter().map(|&x| x.wrapping_mul(0x9E37_79B9)).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got: Vec<u64> =
                pool.install(|| v.par_iter().map(|&x| x.wrapping_mul(0x9E37_79B9)).collect());
            assert_eq!(got, reference, "order must not depend on scheduling ({threads} threads)");
        }
    }

    #[test]
    fn scope_runs_nested_spawns() {
        let count = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..10 {
                s.spawn(|s2| {
                    count.fetch_add(1, Ordering::Relaxed);
                    s2.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn scope_completes_deep_spawn_chains_before_returning() {
        // A chain of tasks each spawning the next: scope must not return
        // until the transitively-last task has run.
        fn chain(s: &Scope<'_>, left: usize, count: &'static AtomicUsize) {
            count.fetch_add(1, Ordering::Relaxed);
            if left > 0 {
                s.spawn(move |s2| chain(s2, left - 1, count));
            }
        }
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        COUNT.store(0, Ordering::Relaxed);
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            scope(|s| s.spawn(|s2| chain(s2, 99, &COUNT)));
        });
        assert_eq!(COUNT.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn skewed_tasks_complete_with_correct_results() {
        // One item ~1000x the cost of the rest: the stealing pool must
        // still produce every result, in order, with the skewed item
        // not blocking the others' completion.
        let costs: Vec<u64> = (0..200).map(|i| if i == 7 { 200_000 } else { 200 }).collect();
        let spin = |n: u64| -> u64 {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(std::hint::black_box(i ^ acc).rotate_left(7));
            }
            acc
        };
        let reference: Vec<u64> = costs.iter().map(|&c| spin(c)).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let got: Vec<u64> = pool.install(|| costs.par_iter().map(|&c| spin(c)).collect());
        assert_eq!(got, reference);
    }

    #[test]
    fn one_thread_pool_is_strictly_serial() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let main_id = std::thread::current().id();
        pool.install(|| {
            (0..32usize).collect::<Vec<_>>().par_iter().for_each(|_| {
                assert_eq!(std::thread::current().id(), main_id);
            });
        });
    }

    #[test]
    fn stats_count_executed_tasks() {
        // Not exact (other tests run concurrently and share the global
        // counters), but a parallel run must count at least its own
        // executed leaf tasks.
        let before = stats::TASKS_EXECUTED.get();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let v: Vec<usize> = (0..256).collect();
        let s: usize = pool.install(|| v.par_iter().map(|&x| x).collect::<Vec<_>>()).iter().sum();
        assert_eq!(s, 255 * 128);
        assert!(stats::TASKS_EXECUTED.get() > before, "parallel run must execute tasks");
    }

    #[test]
    fn panic_in_map_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let v: Vec<usize> = (0..64).collect();
                let _: Vec<usize> =
                    v.par_iter().map(|&x| if x == 33 { panic!("boom") } else { x }).collect();
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panic_in_scope_task_propagates_after_drain() {
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let ran2 = std::sync::Arc::clone(&ran);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let r = std::sync::Arc::clone(&ran2);
                s.spawn(move |_| {
                    r.fetch_add(1, Ordering::Relaxed);
                    panic!("task boom");
                });
                let r = std::sync::Arc::clone(&ran2);
                s.spawn(move |_| {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            })
        }));
        assert!(result.is_err(), "task panic must propagate");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "sibling task still runs");
    }
}
