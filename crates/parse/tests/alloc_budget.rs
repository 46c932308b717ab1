//! Heap-allocation budget of one parse.
//!
//! The parser's shared state should cost a bounded number of heap
//! allocations per block, not one or more per map entry. This binary
//! holds exactly one test, so the counting allocator below sees no other
//! test's allocations. A 1-thread parse of a fixed image makes the same
//! allocations every time; the budget sits about 10 % above the count
//! measured when it was set (see `CHANGES.md`). Print the count with
//! `cargo test -p pba-parse --test alloc_budget -- --nocapture`.

use pba_gen::{generate, Profile};
use pba_parse::{parse, ParseConfig, ParseInput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every block handed out: `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per created block.
const PER_BLOCK: f64 = 10.4;

#[test]
fn one_thread_parse_stays_within_its_allocation_budget() {
    let mut gen = Profile::Server.config(11);
    gen.num_funcs = 110;
    gen.debug_info = false;
    let elf = pba_elf::Elf::parse(generate(&gen).elf).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let cfg = ParseConfig { threads: 1, ..Default::default() };

    // The first parse also pays for one-time set-up (thread-locals, the
    // pool's first thread).
    drop(parse(&input, &cfg));
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = parse(&input, &cfg);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let blocks = result.stats.blocks_created.get();
    drop(result);

    let per_block = allocs as f64 / blocks as f64;
    eprintln!("{allocs} allocations for {blocks} blocks ({per_block:.2} per block)");
    assert!(
        per_block <= PER_BLOCK,
        "{allocs} allocations for {blocks} blocks: {per_block:.2} per block, budget {PER_BLOCK}"
    );
}
