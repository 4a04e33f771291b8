//! Zero-allocation contract under fuzzed topologies: for *any*
//! ERC-clean generated netlist (not just the hand-written inverter in
//! `anasim`'s own allocation test), a sized scratch solve allocates at
//! most its returned `Solution`. The counting allocator counts the
//! measuring thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anasim::mna::AnalysisMode;
use anasim::newton::solve_with_scratch;
use anasim::{NewtonOptions, SolveScratch};
use drftest::fuzz::{random_netlist, DEFAULT_SEED};
use drill::Rng;

struct CountingAllocator;

thread_local! {
    /// Heap allocations made by this thread. Per-thread, so a test's
    /// measurement never sees the allocations of tests running
    /// concurrently; the const initializer keeps the counter itself
    /// allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` obligations carry over as they are;
// the count touches only a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn fuzzed_netlists_keep_the_scratch_solve_allocation_free() {
    let mut rng = Rng::seeded(DEFAULT_SEED);
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    let mut solved = 0usize;
    for _ in 0..24 {
        let nl = random_netlist(&mut rng);
        // Sizing solve: allowed to allocate (scratch growth).
        let Ok(_) = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch) else {
            continue; // structured failures are the fuzzer's concern
        };
        // Sized solve: only the returned Solution may allocate.
        let before = allocations();
        let again = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
            .expect("same netlist, same outcome");
        let allocs = allocations() - before;
        assert!(
            allocs <= 2,
            "netlist with {} unknowns allocated {allocs} times in a sized solve \
             ({} iterations)",
            nl.num_unknowns(),
            again.iterations
        );
        solved += 1;
    }
    assert!(solved >= 16, "only {solved} of 24 topologies solved");
}
