//! The block-sort kernel: sort one tile of `u·E` keys inside a block.
//!
//! Structure (both pipelines):
//!
//! 1. coalesced tile load, global → shared;
//! 2. each thread pulls its `E` contiguous keys into registers (strided
//!    reads — conflict-free exactly when `E` is coprime with `w`, which
//!    is why Thrust's heuristic picks such `E`), sorts them with an
//!    odd-even transposition network, writes them back;
//! 3. `log₂ u` merge rounds: run width `W = E, 2E, …, uE/2`; each thread
//!    finds its merge-path split inside its pair and moves `E` merged
//!    outputs to registers — by serial merge (baseline) or by the dual
//!    subsequence gather (CF) — then stores them for the next round;
//! 4. coalesced tile store, shared → global.
//!
//! The CF variant keeps each pair in the reversed-`B` layout between
//! rounds *at no extra cost*: the store of round `k` writes directly into
//! round `k+1`'s layout (the "reorder during transfer" of Section 5).

use super::kernels::{
    clamped_split, gather_merge_from_shared, serial_merge_from_shared, shared_merge_path,
    PairLayout,
};
use crate::gather::layout::CfLayout;
use crate::gather::schedule::ThreadSplit;
use crate::sort::key::SortKey;
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::{BlockSim, LaneCtx};
use cfmerge_gpu_sim::observer::{Observer, Passive};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_mergepath::networks::{oets_ops, oets_sort};

/// How threads move `(Aᵢ, Bᵢ)` from shared memory to registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Thrust baseline: data-dependent serial merge in shared memory.
    DirectSerial,
    /// CF-Merge: dual subsequence gather + register network.
    Gather,
}

/// Shared slot for block-local rank `r` under the CF inter-round layout
/// with run width `W` (pairs of `2W`): `A` half natural, `B` half
/// reversed within the pair.
fn cf_rank_slot(r: usize, run_w: usize) -> usize {
    let pair = 2 * run_w;
    let p = r / pair;
    let rel = r % pair;
    if rel < run_w {
        r
    } else {
        // B element with offset y = rel − W lands at pair-local
        // 2W − 1 − y (the π reversal).
        p * pair + (pair - 1 - (rel - run_w))
    }
}

/// [`cf_rank_slot`] of the consecutive ranks `first, first + 1, …`,
/// stepped through the pair instead of dividing per rank.
fn cf_rank_slots(first: usize, run_w: usize) -> impl Iterator<Item = usize> {
    let pair = 2 * run_w;
    let (mut pair_base, mut rel) = (first / pair * pair, first % pair);
    std::iter::repeat_with(move || {
        let slot = if rel < run_w { pair_base + rel } else { pair_base + 3 * run_w - 1 - rel };
        rel += 1;
        if rel == pair {
            (pair_base, rel) = (pair_base + pair, 0);
        }
        slot
    })
}

/// Store a thread's registers, the ranks `first, first + 1, …`, into
/// shared memory: at their ranks, or with `cf_run_w = Some(W)` into the
/// CF layout of run width `W`.
fn store_ranks<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    first: usize,
    regs: &[K],
    cf_run_w: Option<usize>,
) {
    match cf_run_w {
        Some(run_w) => {
            for ((m, &v), slot) in regs.iter().enumerate().zip(cf_rank_slots(first, run_w)) {
                debug_assert_eq!(
                    slot,
                    cf_rank_slot(first + m, run_w),
                    "CF store walk left cf_rank_slot"
                );
                lane.st(slot, v);
            }
        }
        None => {
            for (m, &v) in regs.iter().enumerate() {
                lane.st(first + m, v);
            }
        }
    }
}

/// Sort one tile. Reads `src_tile` (global), writes the sorted tile to
/// `dst_tile`. `global_base` is the tile's element offset in the global
/// array (for exact coalescing accounting). Returns the block's profile.
///
/// # Panics
/// Panics unless `u` is a power-of-two multiple of the warp width and the
/// tile slices have length `u·E`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn blocksort_block<K: SortKey>(
    banks: BankModel,
    u: usize,
    e: usize,
    strategy: MergeStrategy,
    src_tile: &[K],
    dst_tile: &mut [K],
    global_base: usize,
    count_accesses: bool,
) -> KernelProfile {
    blocksort_block_observed(
        banks,
        u,
        e,
        strategy,
        src_tile,
        dst_tile,
        global_base,
        count_accesses,
        Passive,
    )
    .0
}

/// [`blocksort_block`] watched by `observer`, which comes back with the
/// profile: a [`BlockTracer`](cfmerge_gpu_sim::BlockTracer) records every
/// phase and warp round, a [`Sanitizer`](cfmerge_gpu_sim::Sanitizer)
/// checks every access, and [`BlockFaults`](cfmerge_gpu_sim::BlockFaults)
/// may corrupt execution. Under [`Passive`] execution is bit-identical
/// to [`blocksort_block`]. Under injection, scheduled bit-flips, stuck banks
/// and lane drop-outs corrupt the tile; corrupted merge-path search
/// results are clamped into geometric bounds (see `clamped_split`) so
/// corruption always surfaces as wrong output data — detectable by
/// verification — never as a host-side panic.
///
/// # Panics
/// Same conditions as [`blocksort_block`].
#[must_use]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // kernel signature mirrors the CUDA launch; loops index parallel register arrays
pub fn blocksort_block_observed<K: SortKey, O: Observer>(
    banks: BankModel,
    u: usize,
    e: usize,
    strategy: MergeStrategy,
    src_tile: &[K],
    dst_tile: &mut [K],
    global_base: usize,
    count_accesses: bool,
    observer: O,
) -> (KernelProfile, O) {
    let w = banks.num_banks as usize;
    assert!(
        u.is_multiple_of(w) && u.is_power_of_two(),
        "u={u} must be a power-of-two multiple of w={w}"
    );
    let tile = u * e;
    assert_eq!(src_tile.len(), tile);
    assert_eq!(dst_tile.len(), tile);

    let mut block = BlockSim::with_observer(banks, u, tile, observer);
    block.set_counting(count_accesses);

    // 1. Coalesced load.
    block.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..e {
            let s = r * u + tid;
            let v = lane.ld_global(src_tile, s);
            lane.alu(2);
            // Record absolute-coalescing by offsetting: the trace stores
            // the tile-relative index; tiles are sector-aligned so the
            // sector count is identical. Store natural.
            lane.st(s, v);
        }
    });
    let _ = global_base; // tiles are sector-aligned; relative indices suffice

    // 2. Per-thread register sort, then store back — into the round-0
    //    layout (run width E) for CF.
    let cf = strategy == MergeStrategy::Gather;
    let mut regs = vec![K::default(); tile];
    block.phase(PhaseClass::Sort, |tid, lane| {
        let regs = &mut regs[tid * e..(tid + 1) * e];
        for (m, r) in regs.iter_mut().enumerate() {
            *r = lane.ld(tid * e + m);
        }
        let ops = oets_sort(regs);
        debug_assert_eq!(ops, oets_ops(e));
        lane.alu(3 * ops);
    });
    block.phase(PhaseClass::Sort, |tid, lane| {
        store_ranks(lane, tid * e, &regs[tid * e..(tid + 1) * e], cf.then_some(e));
    });

    // 3. Merge rounds.
    let mut run_w = e;
    while run_w < tile {
        let pair = 2 * run_w;
        let threads_per_pair = pair / e;
        // 3a. merge-path search within each pair.
        let mut splits = vec![ThreadSplit { a_begin: 0, a_len: 0 }; u];
        {
            let mut a_begin = vec![0usize; u];
            block.phase(PhaseClass::Search, |tid, lane| {
                let p = tid / threads_per_pair;
                let local_rank = (tid % threads_per_pair) * e;
                let layout = pair_layout(strategy, w, e, p * pair, run_w);
                a_begin[tid] = shared_merge_path(lane, &layout, local_rank);
            });
            for tid in 0..u {
                let next = if (tid + 1) % threads_per_pair == 0 { run_w } else { a_begin[tid + 1] };
                let diag = (tid % threads_per_pair) * e;
                splits[tid] = clamped_split(a_begin[tid], next, diag, e, run_w, run_w);
            }
        }
        // 3b. move to registers (serial merge or gather).
        match strategy {
            MergeStrategy::DirectSerial => {
                block.phase(PhaseClass::Merge, |tid, lane| {
                    let p = tid / threads_per_pair;
                    let local_tid = tid % threads_per_pair;
                    let layout = pair_layout(strategy, w, e, p * pair, run_w);
                    let b_begin = local_tid * e - splits[tid].a_begin;
                    let out = &mut regs[tid * e..(tid + 1) * e];
                    serial_merge_from_shared(lane, &layout, splits[tid], b_begin, out);
                });
            }
            MergeStrategy::Gather => {
                block.phase(PhaseClass::Gather, |tid, lane| {
                    let p = tid / threads_per_pair;
                    let local_tid = tid % threads_per_pair;
                    let layout = CfLayout::reversal_only(w, e, pair, run_w);
                    let out = &mut regs[tid * e..(tid + 1) * e];
                    gather_merge_from_shared(lane, p * pair, &layout, local_tid, splits[tid], out);
                });
            }
        }
        // 3c. store for the next round (or natural if this was the last).
        let next_w = pair;
        let cf_next = (cf && next_w < tile).then_some(next_w);
        block.phase(PhaseClass::Sort, |tid, lane| {
            store_ranks(lane, tid * e, &regs[tid * e..(tid + 1) * e], cf_next);
        });
        run_w = next_w;
    }

    // 4. Coalesced store.
    block.phase(PhaseClass::StoreTile, |tid, lane| {
        for r in 0..e {
            let s = r * u + tid;
            let v = lane.ld(s);
            lane.st_global(dst_tile, s, v);
            lane.alu(2);
        }
    });

    block.finish()
}

fn pair_layout(
    strategy: MergeStrategy,
    w: usize,
    e: usize,
    base: usize,
    run_w: usize,
) -> PairLayout {
    match strategy {
        MergeStrategy::DirectSerial => {
            PairLayout::Natural { base, a_total: run_w, total: 2 * run_w }
        }
        MergeStrategy::Gather => {
            PairLayout::Permuted { base, layout: CfLayout::reversal_only(w, e, 2 * run_w, run_w) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn run(
        u: usize,
        e: usize,
        w: u32,
        strategy: MergeStrategy,
        seed: u64,
    ) -> (Vec<u32>, KernelProfile) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let tile = u * e;
        let src: Vec<u32> = (0..tile).map(|_| rng.gen_range(0..100_000)).collect();
        let mut dst = vec![0u32; tile];
        let profile = blocksort_block(BankModel::new(w), u, e, strategy, &src, &mut dst, 0, true);
        let mut expect = src;
        expect.sort_unstable();
        assert_eq!(dst, expect, "blocksort output mismatch (u={u} E={e} w={w})");
        (dst, profile)
    }

    #[test]
    fn blocksort_sorts_both_strategies() {
        for &(u, e, w) in &[(32usize, 5usize, 32u32), (64, 15, 32), (64, 17, 32), (16, 5, 8)] {
            for strategy in [MergeStrategy::DirectSerial, MergeStrategy::Gather] {
                for seed in 0..3 {
                    let (out, _) = run(u, e, w, strategy, seed);
                    assert!(out.is_sorted(), "u={u} E={e} w={w} {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn cf_blocksort_gather_phase_is_conflict_free_for_coprime_e() {
        for &(u, e, w) in &[(64usize, 15usize, 32u32), (64, 17, 32), (128, 5, 32), (32, 3, 8)] {
            let (_, profile) = run(u, e, w, MergeStrategy::Gather, 7);
            assert_eq!(profile.phase(PhaseClass::Gather).bank_conflicts(), 0, "u={u} E={e} w={w}");
            // No serial-merge phase at all in the CF pipeline.
            assert_eq!(profile.phase(PhaseClass::Merge).shared_ld_requests, 0);
        }
    }

    #[test]
    fn noncoprime_e_conflicts_in_baseline_strided_phases() {
        // E = 16, w = 32: the register load/store strides hit gcd = 16
        // conflicts; this is the regime Thrust's coprime heuristic avoids.
        let (_, base) = run(64, 16, 32, MergeStrategy::DirectSerial, 3);
        let sort_phase = base.phase(PhaseClass::Sort);
        assert!(
            sort_phase.st_bank_conflicts() > 0 || sort_phase.ld_bank_conflicts() > 0,
            "expected strided conflicts at E=16"
        );
        let (_, coprime) = run(64, 15, 32, MergeStrategy::DirectSerial, 3);
        assert_eq!(coprime.phase(PhaseClass::Sort).bank_conflicts(), 0);
    }

    #[test]
    fn duplicate_heavy_tiles_sort_correctly() {
        let u = 64;
        let e = 15;
        let tile = u * e;
        let src = vec![42u32; tile];
        let mut dst = vec![0u32; tile];
        for strategy in [MergeStrategy::DirectSerial, MergeStrategy::Gather] {
            let _ = blocksort_block(BankModel::new(32), u, e, strategy, &src, &mut dst, 0, true);
            assert!(dst.iter().all(|&x| x == 42));
        }
    }

    #[test]
    fn counting_off_still_sorts() {
        let u = 32;
        let e = 5;
        let src: Vec<u32> = (0..(u * e) as u32).rev().collect();
        let mut dst = vec![0u32; u * e];
        let p = blocksort_block(
            BankModel::new(32),
            u,
            e,
            MergeStrategy::Gather,
            &src,
            &mut dst,
            0,
            false,
        );
        assert!(dst.is_sorted());
        assert_eq!(p.total().shared_requests(), 0);
    }

    #[test]
    fn cf_rank_walk_matches_closed_form_for_every_thread() {
        for (u, e) in [(8usize, 5usize), (16, 3), (32, 15), (32, 17)] {
            let mut run_w = e;
            while run_w < u * e {
                for tid in 0..u {
                    let walked: Vec<usize> = cf_rank_slots(tid * e, run_w).take(e).collect();
                    let closed: Vec<usize> =
                        (tid * e..(tid + 1) * e).map(|r| cf_rank_slot(r, run_w)).collect();
                    assert_eq!(walked, closed, "u={u} E={e} W={run_w} tid={tid}");
                }
                run_w *= 2;
            }
        }
    }

    #[test]
    fn cf_rank_slot_is_a_bijection_per_width() {
        for run_w in [5usize, 10, 20, 40] {
            let tile = 80;
            let mut seen = vec![false; tile];
            for r in 0..tile {
                let s = cf_rank_slot(r, run_w);
                assert!(s < tile && !seen[s], "run_w={run_w} r={r}");
                seen[s] = true;
            }
        }
    }
}
