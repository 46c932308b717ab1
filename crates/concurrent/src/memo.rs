//! Block-or-share lazy memoization cell.
//!
//! [`Memo`] is the artifact-caching primitive underneath `pba::Session`:
//! the first caller of [`Memo::get_or_compute`] runs the closure, every
//! concurrent caller *blocks* until the value is ready, and from then on
//! all callers *share* the one computed value by reference. The cell
//! never recomputes — "computed at most once" is the whole contract —
//! and a [`Counter`] records how many computations actually ran so
//! callers can assert the contract (the session bench reports it as its
//! parse-count column).

use crate::stats::Counter;
use std::sync::OnceLock;

/// A thread-safe write-once cell: first caller computes, concurrent
/// callers block until the value is ready, later callers share it.
///
/// Reentrancy is not supported: a compute closure must not call
/// [`Memo::get_or_compute`] on the *same* cell (it would deadlock).
/// Nesting across *different* cells is fine and is how a session builds
/// derived artifacts from earlier ones.
#[derive(Debug, Default)]
pub struct Memo<T> {
    cell: OnceLock<T>,
    computes: Counter,
}

impl<T> Memo<T> {
    /// An empty cell.
    pub const fn new() -> Self {
        Memo { cell: OnceLock::new(), computes: Counter::new() }
    }

    /// Return the memoized value, computing it with `f` if this is the
    /// first call. Concurrent callers block until the winner's `f`
    /// finishes, then share the same reference.
    pub fn get_or_compute(&self, f: impl FnOnce() -> T) -> &T {
        self.cell.get_or_init(|| {
            self.computes.inc();
            f()
        })
    }

    /// The value, if it has been computed already.
    pub fn get(&self) -> Option<&T> {
        self.cell.get()
    }

    /// Consume the cell and take the value out without cloning, if it
    /// was computed. This is how a throwaway session hands its one
    /// artifact to a byte-level wrapper.
    pub fn into_inner(self) -> Option<T> {
        self.cell.into_inner()
    }

    /// How many times a compute closure actually ran (0 or 1 once the
    /// cell has quiesced; the memoization tests assert exactly this).
    pub fn computes(&self) -> u64 {
        self.computes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn computes_once_and_shares() {
        let m = Memo::new();
        assert!(m.get().is_none());
        assert_eq!(*m.get_or_compute(|| 42), 42);
        assert_eq!(*m.get_or_compute(|| 7), 42, "second closure must not run");
        assert_eq!(m.get(), Some(&42));
        assert_eq!(m.computes(), 1);
    }

    #[test]
    fn concurrent_callers_block_or_share() {
        let m = Arc::new(Memo::new());
        let runs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                let runs = Arc::clone(&runs);
                s.spawn(move || {
                    let v = m.get_or_compute(|| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: every loser must block
                        // on this slow winner rather than recompute.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        1234u64
                    });
                    assert_eq!(*v, 1234);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(m.computes(), 1);
    }
}
