//! The worst-case generator's heap peak: `WorstCaseBuilder::build(n)`
//! unmerges level by level over two `n`-word buffers, so at no point does
//! it hold more than those two buffers plus its `O(wE)` run-length
//! pattern and tuple sequence.
//!
//! This file holds a single test because the counting allocator below is
//! process-wide and the test harness runs tests on parallel threads.

use cfmerge_core::worst_case::WorstCaseBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest `LIVE` seen since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for PeakAlloc {
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
static GLOBAL: PeakAlloc = PeakAlloc;

/// Headroom beyond the two buffers: the tuple sequence and one period of
/// the run-length pattern, a few KiB at `w = 32`.
const SMALL: usize = 16 << 10;

#[test]
fn build_peaks_at_two_buffers() {
    for (e, u) in [(15, 512), (17, 256)] {
        let b = WorstCaseBuilder::new(32, e, u);
        let tile = e * u;
        // Below one tile (a single key run, then two warps' worth), one
        // tile, and several tiles.
        for n in [e, 64 * e, tile / 2, tile, 2 * tile, 8 * tile, 32 * tile] {
            let before = LIVE.load(Ordering::Relaxed);
            PEAK.store(before, Ordering::Relaxed);
            let input = b.build(n);
            let peak = PEAK.load(Ordering::Relaxed) - before;
            let buffers = 2 * n * std::mem::size_of::<u32>();
            assert!(
                peak <= buffers + SMALL,
                "E={e} u={u} n={n}: build peaked at {peak} B, over two {n}-word buffers \
                 ({buffers} B) plus {SMALL} B"
            );
            assert_eq!(input.len(), n);
        }
    }
}
