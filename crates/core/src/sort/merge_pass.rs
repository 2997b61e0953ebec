//! The global merge-pass kernel: one block merges one `u·E`-output chunk
//! of a pair of sorted runs through shared memory.
//!
//! Baseline: load the chunk's `A` and `B` parts contiguously into shared
//! memory, binary-search per-thread splits, serial-merge in shared
//! (bank-conflict-prone), stage results through shared, store coalesced.
//!
//! CF-Merge: identical structure, but the tile is written into the
//! permuted layout `ρ(A ∪ π(B))` **during the load** (same traffic), the
//! searches run through the permuted index maps, and the serial merge is
//! replaced by the conflict-free gather + register network.
//!
//! Registers live in one register-major file (see
//! [`kernels`](super::kernels)); CF's network runs once after the gather.
//!
//! Both store phases are [`oblivious_phase`](BlockSim::oblivious_phase)s.
//! The load is a [`shape_phase`](BlockSim::shape_phase): its CF slots and
//! its global sectors depend on `|A|` and on the sector residues of
//! `a_begin` and `b_begin`, never on a key. Runs are whole tiles, so `A`
//! and `B` never share a sector, and no other alignment term counts.

use super::blocksort::MergeStrategy;
use super::kernels::{
    clamped_split, gather_from_shared, serial_merge_from_shared, shared_merge_path, PairLayout,
};
use crate::gather::layout::CfLayout;
use crate::gather::schedule::ThreadSplit;
use crate::sort::key::SortKey;
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::observer::{Observer, Passive};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_mergepath::networks::oets_sort_lanes;

/// One block's work item in a merge pass: absolute element ranges in the
/// source buffer for its `A` and `B` parts, and the absolute output base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeChunkJob {
    /// Start of the block's `A` slice in the source buffer.
    pub a_begin: usize,
    /// End of the `A` slice.
    pub a_end: usize,
    /// Start of the block's `B` slice.
    pub b_begin: usize,
    /// End of the `B` slice.
    pub b_end: usize,
}

impl MergeChunkJob {
    /// Elements taken from `A`.
    #[must_use]
    pub fn a_len(&self) -> usize {
        self.a_end - self.a_begin
    }

    /// Total outputs (`= u·E` for complete blocks).
    #[must_use]
    pub fn total(&self) -> usize {
        self.a_len() + (self.b_end - self.b_begin)
    }
}

/// Run one merge-pass block: reads `src[job ranges]`, writes the merged
/// chunk to `dst_chunk` (the block's disjoint output window). Returns the
/// block's profile.
///
/// # Panics
/// Panics if the job's total is not exactly `u·E` or `u` is not a
/// power-of-two multiple of the warp width.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn merge_pass_block<K: SortKey>(
    banks: BankModel,
    u: usize,
    e: usize,
    strategy: MergeStrategy,
    src: &[K],
    job: MergeChunkJob,
    dst_chunk: &mut [K],
    count_accesses: bool,
) -> KernelProfile {
    merge_pass_block_observed(banks, u, e, strategy, src, job, dst_chunk, count_accesses, Passive).0
}

/// [`merge_pass_block`] watched by `observer`, which comes back with the
/// profile: a [`BlockTracer`](cfmerge_gpu_sim::BlockTracer) records every
/// phase and warp round, a [`Sanitizer`](cfmerge_gpu_sim::Sanitizer)
/// checks every access, and [`BlockFaults`](cfmerge_gpu_sim::BlockFaults)
/// may corrupt execution. Under [`Passive`] execution is bit-identical
/// to [`merge_pass_block`]. Under injection, scheduled bit-flips, stuck banks
/// and lane drop-outs corrupt the chunk; corrupted merge-path search
/// results are clamped into geometric bounds (see `clamped_split`) so
/// corruption always surfaces as wrong output data — detectable by
/// verification — never as a host-side panic.
///
/// # Panics
/// Same conditions as [`merge_pass_block`].
#[must_use]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // kernel signature mirrors the CUDA launch; loops index parallel register arrays
pub fn merge_pass_block_observed<K: SortKey, O: Observer>(
    banks: BankModel,
    u: usize,
    e: usize,
    strategy: MergeStrategy,
    src: &[K],
    job: MergeChunkJob,
    dst_chunk: &mut [K],
    count_accesses: bool,
    observer: O,
) -> (KernelProfile, O) {
    let w = banks.num_banks as usize;
    assert!(u.is_multiple_of(w), "u={u} must be a multiple of w={w}");
    let tile = u * e;
    assert_eq!(job.total(), tile, "merge chunks must be complete tiles");
    assert_eq!(dst_chunk.len(), tile);
    let a_len = job.a_len();

    let mut block = BlockSim::with_observer(banks, u, tile, observer);
    block.set_counting(count_accesses);

    let layout = match strategy {
        MergeStrategy::DirectSerial => PairLayout::Natural { base: 0, a_total: a_len, total: tile },
        MergeStrategy::Gather => {
            PairLayout::Permuted { base: 0, layout: CfLayout::new(w, e, tile, a_len) }
        }
    };

    // 1. Coalesced load, permuting on the fly for CF (identical traffic:
    //    the reorder only changes *shared* write addresses).
    block.shape_phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..e {
            let s = r * u + tid;
            let (gidx, slot) = if s < a_len {
                (job.a_begin + s, layout.a_slot(s))
            } else {
                (job.b_begin + (s - a_len), layout.b_slot(s - a_len))
            };
            let v = lane.ld_global(src, gidx);
            lane.alu(3);
            lane.st(slot, v);
        }
    });

    // 2. Per-thread merge-path splits.
    let mut splits = vec![ThreadSplit { a_begin: 0, a_len: 0 }; u];
    {
        let mut a_begin = vec![0usize; u];
        block.phase(PhaseClass::Search, |tid, lane| {
            a_begin[tid] = shared_merge_path(lane, &layout, tid * e);
        });
        for tid in 0..u {
            let next = if tid + 1 < u { a_begin[tid + 1] } else { a_len };
            splits[tid] = clamped_split(a_begin[tid], next, tid * e, e, a_len, tile - a_len);
        }
    }

    // 3. Move to registers and merge.
    let mut regs = vec![K::default(); tile];
    match strategy {
        MergeStrategy::DirectSerial => {
            block.phase(PhaseClass::Merge, |tid, lane| {
                let b_begin = tid * e - splits[tid].a_begin;
                serial_merge_from_shared(lane, &layout, splits[tid], b_begin, &mut regs, u);
            });
        }
        MergeStrategy::Gather => {
            let cf = match layout {
                PairLayout::Permuted { layout, .. } => layout,
                PairLayout::Natural { .. } => unreachable!(),
            };
            block.phase(PhaseClass::Gather, |tid, lane| {
                gather_from_shared(lane, 0, &cf, tid, splits[tid], &mut regs, u);
            });
            oets_sort_lanes(&mut regs, u);
        }
    }

    // 4. Stage through shared (rank layout), then coalesced store.
    block.oblivious_phase(PhaseClass::StoreTile, |tid, lane| {
        for (m, &v) in regs[tid..].iter().step_by(u).enumerate() {
            lane.st(tid * e + m, v);
        }
    });
    block.oblivious_phase(PhaseClass::StoreTile, |tid, lane| {
        for r in 0..e {
            let s = r * u + tid;
            let v = lane.ld(s);
            lane.st_global(dst_chunk, s, v);
            lane.alu(2);
        }
    });

    block.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_mergepath::partition::partition_merge;
    use rand::{Rng, SeedableRng};

    fn merge_runs(
        u: usize,
        e: usize,
        w: u32,
        strategy: MergeStrategy,
        a: &[u32],
        b: &[u32],
    ) -> (Vec<u32>, KernelProfile) {
        let tile = u * e;
        let src: Vec<u32> = a.iter().chain(b).copied().collect();
        let chunks = partition_merge(a, b, tile);
        let mut out = vec![0u32; src.len()];
        let mut profile = KernelProfile::new();
        for (i, c) in chunks.iter().enumerate() {
            let job = MergeChunkJob {
                a_begin: c.a_begin,
                a_end: c.a_end,
                b_begin: a.len() + c.b_begin,
                b_end: a.len() + c.b_end,
            };
            let p = merge_pass_block(
                BankModel::new(w),
                u,
                e,
                strategy,
                &src,
                job,
                &mut out[i * tile..(i + 1) * tile],
                true,
            );
            profile.merge(&p);
        }
        (out, profile)
    }

    #[test]
    fn merge_pass_is_correct_both_strategies() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5150);
        for &(u, e, w) in &[(32usize, 5usize, 32u32), (64, 15, 32), (64, 17, 32), (64, 16, 32)] {
            let tile = u * e;
            for blocks in [2usize, 4] {
                let half = blocks * tile / 2;
                let mut a: Vec<u32> = (0..half).map(|_| rng.gen_range(0..1_000_000)).collect();
                let mut b: Vec<u32> = (0..half).map(|_| rng.gen_range(0..1_000_000)).collect();
                a.sort_unstable();
                b.sort_unstable();
                for strategy in [MergeStrategy::DirectSerial, MergeStrategy::Gather] {
                    let (out, _) = merge_runs(u, e, w, strategy, &a, &b);
                    let mut expect: Vec<u32> = a.iter().chain(&b).copied().collect();
                    expect.sort_unstable();
                    assert_eq!(out, expect, "u={u} E={e} {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn cf_merge_pass_has_zero_merge_and_gather_conflicts() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5151);
        for &(u, e) in &[(64usize, 15usize), (64, 17), (64, 16), (64, 24)] {
            let tile = u * e;
            let half = 2 * tile;
            let mut a: Vec<u32> = (0..half).map(|_| rng.gen_range(0..1_000_000)).collect();
            let mut b: Vec<u32> = (0..half).map(|_| rng.gen_range(0..1_000_000)).collect();
            a.sort_unstable();
            b.sort_unstable();
            let (_, profile) = merge_runs(u, e, 32, MergeStrategy::Gather, &a, &b);
            assert_eq!(profile.merge_bank_conflicts(), 0, "u={u} E={e}");
            // The permuting load is fully conflict-free for coprime E
            // (reversal keeps unit stride). For d > 1, only the single
            // round per block that straddles the A/B boundary can
            // conflict (different ρ shifts meet); a real kernel's
            // divergent branch would split it into two transactions, so
            // we bound it by w−1 per block.
            let load_conf = profile.phase(PhaseClass::LoadTile).bank_conflicts();
            let d = cfmerge_numtheory::gcd(32, e as u64);
            if d == 1 {
                assert_eq!(load_conf, 0, "u={u} E={e}");
            } else {
                let blocks = 4u64; // 4 tiles in this test
                assert!(load_conf <= blocks * 31, "u={u} E={e}: load conflicts {load_conf}");
            }
        }
    }

    #[test]
    fn baseline_merge_pass_conflicts_on_worst_case_pairs() {
        // The constructed pair must produce far more Merge-phase
        // conflicts than a random pair of the same size.
        let (u, e, w) = (64usize, 15usize, 32u32);
        let builder = crate::worst_case::WorstCaseBuilder::new(w as usize, e, u);
        let warps = 2 * u / (w as usize) * 2; // two blocks' worth, even
        let (aw, bw) = builder.merge_pair(warps);
        let (_, worst) = merge_runs(u, e, w, MergeStrategy::DirectSerial, &aw, &bw);

        let mut rng = rand::rngs::SmallRng::seed_from_u64(5152);
        let mut ar: Vec<u32> = (0..aw.len()).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut br: Vec<u32> = (0..bw.len()).map(|_| rng.gen_range(0..1_000_000)).collect();
        ar.sort_unstable();
        br.sort_unstable();
        let (_, random) = merge_runs(u, e, w, MergeStrategy::DirectSerial, &ar, &br);

        let wc = worst.phase(PhaseClass::Merge).bank_conflicts();
        let rc = random.phase(PhaseClass::Merge).bank_conflicts();
        assert!(wc > 3 * rc.max(1), "worst {wc} vs random {rc}");

        // CF on the same worst-case input: still zero.
        let (_, cf) = merge_runs(u, e, w, MergeStrategy::Gather, &aw, &bw);
        assert_eq!(cf.merge_bank_conflicts(), 0);
    }

    #[test]
    fn global_traffic_is_identical_across_strategies() {
        // CF's permutation happens in shared addressing only; global
        // sectors must match the baseline exactly.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5153);
        let (u, e) = (64usize, 15usize);
        let tile = u * e;
        let mut a: Vec<u32> = (0..tile).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut b: Vec<u32> = (0..tile).map(|_| rng.gen_range(0..1_000_000)).collect();
        a.sort_unstable();
        b.sort_unstable();
        let (_, base) = merge_runs(u, e, 32, MergeStrategy::DirectSerial, &a, &b);
        let (_, cf) = merge_runs(u, e, 32, MergeStrategy::Gather, &a, &b);
        assert_eq!(base.total().global_ld_sectors, cf.total().global_ld_sectors);
        assert_eq!(base.total().global_st_sectors, cf.total().global_st_sectors);
    }
}
