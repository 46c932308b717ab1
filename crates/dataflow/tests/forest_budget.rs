//! Heap budget of the loop forests.
//!
//! A forest is built once per function and kept as long as the session
//! keeps its IR, so what it allocates and what it pins are both part of
//! the IR's cost. This binary holds exactly one test, so the counting
//! allocator below sees no other test's allocations, and it runs every
//! pool at one thread, so no worker frees memory behind its back. It
//! checks three things:
//!
//! 1. building every function's forest of the `struct_large`-sized
//!    TensorFlow-class image, ranks already memoized, makes at most
//!    [`FOREST_ALLOCS`] allocations;
//! 2. the bytes the forests leave live on a fresh `BinaryIr` are exactly
//!    the growth of `memo_heap_bytes()`, so the session's resident size
//!    counts what they pin;
//! 3. on a function of `k` sibling loops over `4k` blocks, the bytes a
//!    forest build allocates grow linearly in `k`, not with loops ×
//!    blocks.
//!
//! Print the measurements with
//! `cargo test -p pba-dataflow --test forest_budget -- --nocapture`.

use pba_cfg::EdgeKind;
use pba_dataflow::loops::loop_forest_on;
use pba_dataflow::{stack_heights_on, BinaryIr, ExecutorKind, FlowGraph, VecView};
use pba_gen::corpus;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the blocks handed out (`alloc`, `alloc_zeroed`, `realloc`),
/// the bytes they request, and the requested bytes still live.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed for building all 640 forests: half of the 6 750
/// that the per-header bit vectors and address-keyed sets made.
const FOREST_ALLOCS: u64 = 6_750 / 2;

/// Largest growth of a forest build's allocated bytes per doubling of
/// its loop count, with blocks growing in step.
const GROWTH_PER_DOUBLING: f64 = 2.2;

/// The `struct_large` workload's TensorFlow-class image (640 functions).
fn large_ir() -> BinaryIr {
    let case = corpus::structure().into_iter().find(|c| c.name == "large-TensorFlow").unwrap();
    let elf = pba_elf::Elf::parse(case.elf()).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    BinaryIr::build(&pba_parse::parse_parallel(&input, 1).cfg, 1)
}

/// `k` sibling loops over `4k` blocks: loop `j` is `4j → 4j+1 ⇄ 4j+2`,
/// left through `4j+3`, which falls into loop `j + 1`.
fn siblings(k: u64) -> VecView {
    let blocks = (0..4 * k).map(|b| (b, b + 1, vec![])).collect();
    let mut edges = Vec::new();
    for j in 0..k {
        let [pre, head, body, exit] = [4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3];
        edges.extend([(pre, head), (head, body), (body, head), (head, exit)]);
        if j + 1 < k {
            edges.push((exit, 4 * (j + 1)));
        }
    }
    VecView::new(0, blocks, edges.into_iter().map(|(a, b)| (a, b, EdgeKind::Direct)).collect())
}

#[test]
fn loop_forests_stay_within_their_heap_budget() {
    // 1. Allocation count, forward ranks already memoized.
    let ir = large_ir();
    for f in ir.funcs() {
        black_box(stack_heights_on(f, f.graph(), ExecutorKind::Serial));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for f in ir.funcs() {
        black_box(loop_forest_on(f, f.graph()));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!("{allocs} allocations for {} forests", ir.len());
    assert!(allocs <= FOREST_ALLOCS, "{allocs} allocations, budget {FOREST_ALLOCS}");
    drop(ir);

    // 2. What the kept forests pin is what the IR counts.
    let ir = large_ir();
    let (live, memo) = (LIVE.load(Ordering::Relaxed), ir.memo_heap_bytes());
    ir.funcs().for_each(|f| {
        f.loop_forest();
    });
    let pinned = LIVE.load(Ordering::Relaxed) - live;
    let counted = (ir.memo_heap_bytes() - memo) as u64;
    eprintln!("forests pin {pinned} B, memo_heap_bytes grew by {counted} B");
    assert_eq!(pinned, counted, "bytes left live != memo_heap_bytes growth");
    drop(ir);

    // 3. Bytes allocated grow linearly with sibling loops.
    let mut last = None;
    for k in [256, 512, 1024, 2048] {
        let view = siblings(k);
        let graph = FlowGraph::build(&view);
        black_box(stack_heights_on(&view, &graph, ExecutorKind::Serial));
        let before = REQUESTED.load(Ordering::Relaxed);
        let forest = loop_forest_on(&view, &graph);
        let bytes = REQUESTED.load(Ordering::Relaxed) - before;
        assert_eq!(forest.loops.len() as u64, k);
        drop(forest);
        eprintln!("k = {k}: {bytes} B allocated");
        if let Some(prev) = last {
            let growth = bytes as f64 / prev as f64;
            assert!(
                growth <= GROWTH_PER_DOUBLING,
                "k = {k}: {bytes} B after {prev} B at k / 2, {growth:.2}x per doubling"
            );
        }
        last = Some(bytes);
    }
}
