//! A task pushed after a waiter's scan must still be run.
//!
//! Two callers share the worker-less one-thread registry (what two
//! daemon connections, or `pba topk`'s one-thread sessions on a pool,
//! do). Caller B runs a task of caller A's scope while A, finding the
//! queues empty, parks; the task then spawns a child. Before the fix A
//! parked on *its latch's* condvar, B left (its own scope was done), and
//! the child sat on the injector for good. The interleaving is forced
//! with channels; a symmetric stress loop passes on the broken pool and
//! proves nothing.
//!
//! Own test binary: the one-thread registry is process-wide, and a
//! neighbouring test's waiter would otherwise be free to help.

use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn task_pushed_after_the_waiters_scan_is_not_stranded() {
    let (b_busy_tx, b_busy_rx) = channel::<()>();
    let (t1_pushed_tx, t1_pushed_rx) = channel::<()>();
    let (t1_started_tx, t1_started_rx) = channel::<()>();
    let (a_waiting_tx, a_waiting_rx) = channel::<()>();
    let (go_tx, go_rx) = channel::<()>();
    let (done_tx, done_rx) = channel::<&'static str>();
    let child_ran = Arc::new(AtomicBool::new(false));

    // Caller B: its first task holds B until A has pushed T1, then
    // keeps B's scope open with one more task — so B's next scan, with
    // its own latch still up, takes T1 off the (FIFO) injector.
    let done_b = done_tx.clone();
    let b = std::thread::spawn(move || {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            rayon::scope(move |s| {
                s.spawn(move |s| {
                    b_busy_tx.send(()).unwrap();
                    t1_pushed_rx.recv().unwrap();
                    s.spawn(|_| {});
                });
            });
        });
        done_b.send("b").unwrap();
    });

    // Caller A: pushes T1 once B is inside its first task, and does not
    // start waiting until T1 runs (on B — nobody else can take it).
    let ran = Arc::clone(&child_ran);
    let a = std::thread::spawn(move || {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            rayon::scope(move |s| {
                b_busy_rx.recv().unwrap();
                s.spawn(move |s| {
                    t1_started_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    // Pushed from B's thread while A sleeps.
                    s.spawn(move |_| ran.store(true, Ordering::SeqCst));
                });
                t1_pushed_tx.send(()).unwrap();
                t1_started_rx.recv().unwrap();
                a_waiting_tx.send(()).unwrap();
            });
        });
        done_tx.send("a").unwrap();
    });

    // A's scope body has returned; what is left before it parks is B's
    // no-op filler task and one scan of empty queues. The pause lets it
    // get there — it is what makes the *broken* pool fail every time;
    // the fixed one passes whether A has parked yet or not.
    a_waiting_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    go_tx.send(()).unwrap();

    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a caller is still waiting after 60 s: a task was stranded on the injector");
    }
    a.join().unwrap();
    b.join().unwrap();
    assert!(child_ran.load(Ordering::SeqCst));
}
