//! The engine's accounting hot path allocates nothing once a block's
//! buffers have grown to its longest warp trace: recording accesses,
//! splitting rounds into loads and stores, pricing shared rounds and
//! counting global sectors all run on reused or stack storage.
//!
//! This file holds a single test because the counting allocator below is
//! process-wide and the test harness runs tests on parallel threads.

use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::profiler::PhaseClass;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A merge-like phase: loads with bank conflicts and broadcasts, lanes of
/// unequal length (partial rounds), a store mixed into a load round, and
/// scattered global traffic.
fn merge_like_phase(block: &mut BlockSim<u32>, input: &[u32], out: &mut [u32]) {
    block.phase(PhaseClass::Merge, |tid, lane| {
        for r in 0..8 + tid % 3 {
            // Lane pairs share a word (broadcast); pairs 16 words apart conflict.
            let _ = lane.ld((tid / 2 * 16 + r) % 2048);
        }
        if tid % 2 == 0 {
            lane.st(2048 + tid, tid as u32);
        }
        let v = lane.ld_global(input, (tid * 37) % input.len());
        lane.st_global(out, tid, v);
    });
}

#[test]
fn accounting_allocates_nothing_after_warm_up() {
    let (u, w) = (256, 32);
    let input: Vec<u32> = (0..4096).collect();
    let mut out = vec![0u32; u];
    let mut block = BlockSim::<u32>::new(BankModel::new(w), u, 4096);
    merge_like_phase(&mut block, &input, &mut out);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..5 {
        merge_like_phase(&mut block, &input, &mut out);
        block.phase(PhaseClass::Gather, |tid, lane| {
            let _ = lane.ld(tid);
        });
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "the accounting hot path allocated");
    assert!(block.profile.merge_bank_conflicts() > 0, "the phase should conflict");
}
