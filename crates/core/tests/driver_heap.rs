//! The driver's heap per sort: a thread keeps a spare `n_pad`-key buffer
//! across sorts, so once it has sorted a shape, a sort of that shape
//! allocates one `n_pad`-key buffer, the output it returns, and holds at
//! most two such buffers' worth of heap beyond its input.
//!
//! This file holds a single test because the counting allocator below is
//! process-wide and the test harness runs tests on parallel threads.

use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::pipeline::{simulate_sort, SortAlgorithm, SortConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest `LIVE` seen since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations of at least `LARGE` bytes since the last reset.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if bytes >= LARGE.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Headroom beyond the two buffers: launch bookkeeping.
const SMALL: usize = 16 << 10;

#[test]
fn a_repeated_sort_allocates_only_its_output() {
    let params = SortParams::e15_u512();
    let tile = params.tile();
    let config = SortConfig::with_params(params);
    let worst = |n| InputSpec::worst_case(params).generate(n);
    // Four launches (block sort, three merge passes), five launches, and a
    // ragged input padded to 32 tiles. The second buffer's worth of
    // headroom holds what scales with the tile, not with `n_pad`: one
    // simulated block's working set (~130 KB here) and the memo's
    // representatives, so at four tiles or fewer it would not fit.
    let inputs = [worst(8 * tile), worst(16 * tile), worst(32 * tile)[..21 * tile + 5].to_vec()];
    for input in &inputs {
        let n_pad = input.len().div_ceil(tile).next_power_of_two() * tile;
        let buffer = n_pad * std::mem::size_of::<u32>();
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let warm = simulate_sort(input, algo, &config);
            let before = LIVE.load(Ordering::Relaxed);
            PEAK.store(before, Ordering::Relaxed);
            LARGE_ALLOCS.store(0, Ordering::Relaxed);
            LARGE.store(buffer, Ordering::Relaxed);
            let run = simulate_sort(input, algo, &config);
            LARGE.store(usize::MAX, Ordering::Relaxed);
            let (peak, large) =
                (PEAK.load(Ordering::Relaxed) - before, LARGE_ALLOCS.load(Ordering::Relaxed));
            let case = format!("{algo:?}, n = {} (n_pad = {n_pad})", input.len());
            assert_eq!(large, 1, "{case}: {large} allocations of at least {buffer} B");
            assert!(
                peak <= 2 * buffer + SMALL,
                "{case}: the sort peaked at {peak} B, over two {n_pad}-key buffers \
                 ({}) plus {SMALL} B",
                2 * buffer
            );
            assert_eq!(run.output.capacity(), n_pad, "{case}: the output is the one allocation");
            assert_eq!(run.output, warm.output, "{case}");
        }
    }
}
