//! The gather and scatter as simulator kernels.
//!
//! These are the phases CF-Merge splices into the mergesort pipelines;
//! they are also directly unit-tested here for the paper's headline
//! property: **zero bank conflicts in every round**, measured by the
//! simulator's exact accounting rather than asserted from the math.

use super::layout::CfLayout;
use super::schedule::{GatherSchedule, RegisterSlot, ThreadSplit};
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::observer::Observer;
use cfmerge_gpu_sim::profiler::PhaseClass;

/// Run the load-balanced dual subsequence gather on a block whose shared
/// memory already holds the permuted layout `ρ(A ∪ π(B))`.
///
/// Returns each thread's register array `items`, indexed by round: the
/// rotated bitonic sequence described in the module docs of
/// [`super::schedule`].
///
/// # Panics
/// Panics if the layout/splits disagree with the block shape.
#[must_use]
#[allow(clippy::needless_range_loop)] // round index j is the semantic loop variable
pub fn gather_block<O: Observer>(
    block: &mut BlockSim<u32, O>,
    layout: &CfLayout,
    splits: &[ThreadSplit],
) -> Vec<Vec<u32>> {
    assert_eq!(splits.len(), block.threads(), "one split per thread");
    assert_eq!(layout.total, block.threads() * layout.e, "layout must cover the block tile");
    assert!(block.shared_len() >= layout.total, "shared memory too small for tile");
    let e = layout.e;
    let mut items = vec![vec![0u32; e]; splits.len()];
    block.phase(PhaseClass::Gather, |tid, lane| {
        let sched = GatherSchedule::new(*layout, tid, splits[tid]);
        for j in 0..e {
            items[tid][j] = lane.ld(sched.round(j).slot());
        }
    });
    items
}

/// The inverse procedure (footnote 5): scatter each thread's register
/// array back into the permuted shared layout, bank-conflict-free, round
/// `j` writing the element that belongs at the slot round `j` of the
/// gather would read.
///
/// `items` must be indexed by round (the layout [`gather_block`] returns).
#[allow(clippy::needless_range_loop)] // round index j is the semantic loop variable
pub fn scatter_block<O: Observer>(
    block: &mut BlockSim<u32, O>,
    layout: &CfLayout,
    splits: &[ThreadSplit],
    items: &[Vec<u32>],
) {
    assert_eq!(splits.len(), block.threads());
    assert_eq!(items.len(), splits.len());
    let e = layout.e;
    block.phase(PhaseClass::Gather, |tid, lane| {
        let sched = GatherSchedule::new(*layout, tid, splits[tid]);
        for j in 0..e {
            lane.st(sched.round(j).slot(), items[tid][j]);
        }
    });
}

/// Host-side oracle: what the gather must return, computed directly from
/// the unpermuted `A` and `B` lists.
#[must_use]
pub fn gather_reference(
    a: &[u32],
    b: &[u32],
    layout: &CfLayout,
    splits: &[ThreadSplit],
) -> Vec<Vec<u32>> {
    assert_eq!(a.len(), layout.a_total);
    assert_eq!(b.len(), layout.b_total());
    splits
        .iter()
        .enumerate()
        .map(|(tid, &split)| {
            let sched = GatherSchedule::new(*layout, tid, split);
            (0..layout.e)
                .map(|j| match sched.round(j) {
                    RegisterSlot::A { m, .. } => a[split.a_begin + m],
                    RegisterSlot::B { m, .. } => b[sched.b_begin() + m],
                })
                .collect()
        })
        .collect()
}

/// Host-side helper: materialize the permuted layout `ρ(A ∪ π(B))` into a
/// plain vector (what the tile-load phase of CF-Merge produces in shared
/// memory).
#[must_use]
pub fn permuted_tile(a: &[u32], b: &[u32], layout: &CfLayout) -> Vec<u32> {
    assert_eq!(a.len(), layout.a_total);
    assert_eq!(b.len(), layout.b_total());
    let mut tile = vec![0u32; layout.total];
    for (x, &v) in a.iter().enumerate() {
        tile[layout.a_slot(x)] = v;
    }
    for (y, &v) in b.iter().enumerate() {
        tile[layout.b_slot(y)] = v;
    }
    tile
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_gpu_sim::banks::BankModel;
    use rand::{Rng, SeedableRng};

    fn random_case(
        rng: &mut rand::rngs::SmallRng,
        w: usize,
        e: usize,
        warps: usize,
    ) -> (CfLayout, Vec<ThreadSplit>, Vec<u32>, Vec<u32>) {
        let u = w * warps;
        let mut splits = Vec::with_capacity(u);
        let mut a_total = 0usize;
        for _ in 0..u {
            let len = rng.gen_range(0..=e);
            splits.push(ThreadSplit { a_begin: a_total, a_len: len });
            a_total += len;
        }
        let layout = CfLayout::new(w, e, u * e, a_total);
        // Sorted lists so the data is a realistic merge input (values
        // don't matter to conflicts, but the pipelines rely on sortedness).
        let mut a: Vec<u32> = (0..a_total as u32).map(|i| i * 2).collect();
        let mut b: Vec<u32> = (0..layout.b_total() as u32).map(|i| i * 2 + 1).collect();
        a.sort_unstable();
        b.sort_unstable();
        (layout, splits, a, b)
    }

    fn run_gather(
        w: usize,
        e: usize,
        warps: usize,
        rng: &mut rand::rngs::SmallRng,
    ) -> (cfmerge_gpu_sim::profiler::KernelProfile, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let (layout, splits, a, b) = random_case(rng, w, e, warps);
        let tile = permuted_tile(&a, &b, &layout);
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), w * warps, layout.total);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            // Host-style seed of shared memory: unit-stride writes.
            let u = w * warps;
            for r in 0..e {
                let idx = r * u + tid;
                lane.st(idx, tile[idx]);
            }
        });
        let items = gather_block(&mut block, &layout, &splits);
        let expect = gather_reference(&a, &b, &layout, &splits);
        (block.profile.clone(), items, expect)
    }

    #[test]
    fn gather_returns_the_right_elements() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for &(w, e, warps) in &[(12usize, 5usize, 1usize), (9, 6, 2), (32, 15, 2), (32, 16, 1)] {
            for _ in 0..5 {
                let (_, items, expect) = run_gather(w, e, warps, &mut rng);
                assert_eq!(items, expect, "w={w} E={e} warps={warps}");
            }
        }
    }

    #[test]
    fn gather_is_bank_conflict_free_headline() {
        // The paper's central claim, measured: zero conflicts in the
        // gather phase, for coprime AND non-coprime E, single and
        // multi-warp blocks.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let cases: &[(usize, usize, usize)] = &[
            (12, 5, 1),
            (12, 5, 4),
            (9, 6, 1),
            (9, 6, 3),
            (6, 4, 3),
            (8, 6, 2),
            (32, 15, 1),
            (32, 15, 16),
            (32, 17, 8),
            (32, 16, 4),
            (32, 24, 2),
            (32, 32, 2),
        ];
        for &(w, e, warps) in cases {
            for trial in 0..10 {
                let (profile, _, _) = run_gather(w, e, warps, &mut rng);
                assert_eq!(
                    profile.phase(PhaseClass::Gather).bank_conflicts(),
                    0,
                    "w={w} E={e} warps={warps} trial={trial}"
                );
                // Exactly E fully-populated rounds per warp.
                let g = profile.phase(PhaseClass::Gather);
                assert_eq!(g.shared_ld_requests, (e * warps) as u64);
                assert_eq!(g.shared_ld_transactions, (e * warps) as u64);
            }
        }
    }

    #[test]
    fn tile_load_is_also_conflict_free() {
        // The permuted tile is written with unit-stride rounds, so the
        // load phase itself must not introduce conflicts either.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        for &(w, e, warps) in &[(9usize, 6usize, 2usize), (32, 16, 4), (32, 15, 2)] {
            let (profile, _, _) = run_gather(w, e, warps, &mut rng);
            assert_eq!(profile.phase(PhaseClass::LoadTile).bank_conflicts(), 0);
        }
    }

    #[test]
    fn scatter_roundtrips_and_is_conflict_free() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        for &(w, e, warps) in &[(12usize, 5usize, 2usize), (9, 6, 2), (32, 15, 2), (32, 16, 2)] {
            let (layout, splits, a, b) = random_case(&mut rng, w, e, warps);
            let tile = permuted_tile(&a, &b, &layout);
            let items = gather_reference(&a, &b, &layout, &splits);

            let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), w * warps, layout.total);
            scatter_block(&mut block, &layout, &splits, &items);
            assert_eq!(block.shared(), &tile[..], "scatter must rebuild the permuted tile");
            assert_eq!(block.profile.phase(PhaseClass::Gather).bank_conflicts(), 0);
            assert_eq!(
                block.profile.phase(PhaseClass::Gather).shared_st_transactions,
                (e * warps) as u64
            );
        }
    }

    #[test]
    fn naive_unpermuted_gather_does_conflict() {
        // Negative control: reading A_i/B_i straight out of the natural
        // layout with the same round structure (no π, no ρ) must show
        // conflicts on adversarial splits — otherwise our conflict
        // accounting could be vacuous.
        let w = 32usize;
        let e = 15usize;
        // Every thread takes all E from A: threads scan contiguous
        // E-blocks; strides within a round are E apart *per thread id*,
        // i.e. lane i reads a_begin = i*E, all offset by round j: banks
        // (i*E + j) % w — fine; instead make all threads scan the SAME
        // column region: a_begin chosen so banks collide.
        let u = w;
        let _splits: Vec<ThreadSplit> =
            (0..u).map(|i| ThreadSplit { a_begin: i * e, a_len: e }).collect();
        let a: Vec<u32> = (0..(u * e) as u32).collect();
        let layout = CfLayout::new(w, e, u * e, u * e);
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, layout.total);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..e {
                lane.st(r * u + tid, a[r * u + tid]);
            }
        });
        // Natural-layout sequential scan: thread i reads a[i*E + j] in
        // round j — this is Thrust's per-thread access shape. With
        // coprime E it happens to be conflict-free; with E = 16 it is
        // catastrophic. Use E = 16-style stride by doubling:
        block.phase(PhaseClass::Merge, |tid, lane| {
            for j in 0..e {
                // Simulate a non-coprime-like pathological alignment:
                // every thread starts at a multiple of w.
                let start = (tid * w) % (u * e);
                let _ = lane.ld((start + j) % (u * e));
            }
        });
        let merge = block.profile.phase(PhaseClass::Merge);
        assert!(
            merge.bank_conflicts() > 0,
            "negative control failed: expected conflicts, got none"
        );
    }
}
