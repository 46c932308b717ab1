//! Offline shim for the `crossbeam` subset this workspace uses: the
//! unbounded MPMC [`queue::SegQueue`] and the work-stealing
//! [`deque`] (`Worker`/`Stealer`/`Injector`, the `crossbeam-deque`
//! API shape).
//! Lock-based rather than lock-free — the work items distributed over
//! these structures (traversal tasks, per-function analyses, split
//! index ranges) are coarse enough that a mutexed deque is not the
//! bottleneck, and the container has no crates.io access.

pub mod deque {
    //! Chase–Lev style work-stealing deque: the owner pushes and pops at
    //! one end (LIFO, so its own most-recently-split work runs first,
    //! depth-first), thieves steal from the other end (FIFO, so they
    //! take the oldest — and, under recursive splitting, largest —
    //! pending task). The discipline is Chase–Lev's; the implementation
    //! is a mutexed `VecDeque` rather than the lock-free array, which
    //! keeps the owner/thief protocol trivially linearizable (the
    //! property the proptest model check in `shims/rayon` leans on).

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Result of a steal attempt (API subset of `crossbeam_deque::Steal`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The deque was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried. The lock-based
        /// shim never produces this; it exists for API compatibility.
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen value, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                Steal::Empty | Steal::Retry => None,
            }
        }
    }

    /// Owner handle: LIFO push/pop at the back.
    pub struct Worker<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    /// Thief handle: FIFO steal from the front. Cloneable; any number of
    /// thieves may race.
    pub struct Stealer<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// Create an empty LIFO worker deque.
        pub fn new_lifo() -> Worker<T> {
            Worker { inner: Arc::new(Mutex::new(VecDeque::new())) }
        }

        /// Owner push (back).
        pub fn push(&self, task: T) {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).push_back(task);
        }

        /// Owner pop (back — the most recently pushed task).
        pub fn pop(&self) -> Option<T> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_back()
        }

        /// Whether the deque is empty (racy by nature).
        pub fn is_empty(&self) -> bool {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
        }

        /// Number of queued tasks (racy by nature).
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// A thief handle onto this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Stealer<T> {
        /// Thief steal (front — the oldest task).
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Whether the deque is empty (racy by nature).
        pub fn is_empty(&self) -> bool {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer { inner: Arc::clone(&self.inner) }
        }
    }

    /// Shared FIFO injector queue (API subset of
    /// `crossbeam_deque::Injector`): the global entry point of a
    /// work-stealing scheduler. Producers outside the worker pool push
    /// here; workers steal in FIFO order, so externally submitted tasks
    /// run in submission order.
    pub struct Injector<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// Create an empty injector.
        pub fn new() -> Injector<T> {
            Injector { inner: Mutex::new(VecDeque::new()) }
        }

        /// Enqueue at the back.
        pub fn push(&self, task: T) {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).push_back(task);
        }

        /// Steal from the front (the oldest task).
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Whether the injector is empty (racy by nature).
        pub fn is_empty(&self) -> bool {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
        }

        /// Number of queued tasks (racy by nature).
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn owner_is_lifo_thief_is_fifo() {
            let w = Worker::new_lifo();
            let s = w.stealer();
            w.push(1);
            w.push(2);
            w.push(3);
            assert_eq!(s.steal(), Steal::Success(1), "thief takes the oldest");
            assert_eq!(w.pop(), Some(3), "owner takes the newest");
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), None);
            assert_eq!(s.steal(), Steal::Empty);
        }

        #[test]
        fn injector_is_fifo() {
            let inj = Injector::new();
            inj.push(1);
            inj.push(2);
            inj.push(3);
            assert_eq!(inj.len(), 3);
            assert_eq!(inj.steal(), Steal::Success(1), "injector steals oldest first");
            assert_eq!(inj.steal(), Steal::Success(2));
            assert_eq!(inj.steal(), Steal::Success(3));
            assert_eq!(inj.steal(), Steal::Empty);
            assert!(inj.is_empty());
        }

        #[test]
        fn concurrent_thieves_take_each_task_once() {
            let w = Worker::new_lifo();
            for i in 0..1000 {
                w.push(i);
            }
            let mut handles = vec![];
            for _ in 0..4 {
                let s = w.stealer();
                handles.push(std::thread::spawn(move || {
                    let mut got = vec![];
                    while let Some(t) = s.steal().success() {
                        got.push(t);
                    }
                    got
                }));
            }
            let mut all: Vec<i32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>());
        }
    }
}

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Unbounded MPMC FIFO queue (API subset of `crossbeam::queue::SegQueue`).
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> SegQueue<T> {
        /// Create an empty queue.
        pub fn new() -> SegQueue<T> {
            SegQueue { inner: Mutex::new(VecDeque::new()) }
        }

        /// Enqueue at the back.
        pub fn push(&self, value: T) {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).push_back(value);
        }

        /// Dequeue from the front.
        pub fn pop(&self) -> Option<T> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop_front()
        }

        /// Number of queued items (racy by nature).
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// Whether the queue is empty (racy by nature).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let q = SegQueue::new();
            q.push(1);
            q.push(2);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), None);
        }

        #[test]
        fn concurrent_producers_consumers() {
            let q = std::sync::Arc::new(SegQueue::new());
            let mut handles = vec![];
            for t in 0..4 {
                let q = q.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(t * 100 + i);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            assert_eq!(n, 400);
        }
    }
}
