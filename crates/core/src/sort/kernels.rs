//! Shared-memory kernel building blocks used by both pipelines.
//!
//! Everything here runs *inside* a
//! [`BlockSim`](cfmerge_gpu_sim::BlockSim) phase body, against a
//! [`LaneCtx`] — the only way to touch memory, so all accounting is
//! automatic. The two pipelines differ only in which pieces they compose:
//!
//! | phase            | Thrust baseline               | CF-Merge                           |
//! |------------------|-------------------------------|------------------------------------|
//! | tile layout      | `A` then `B`, natural order   | `ρ(A ∪ π(B))`                      |
//! | partition search | binary search, natural slots  | binary search, permuted slots      |
//! | move to regs     | serial merge (data-dependent) | dual subsequence gather (oblivious)|
//! | merge            | done during the move          | odd-even transposition in registers|

use crate::gather::layout::CfLayout;
use crate::gather::schedule::{GatherSchedule, ThreadSplit};
use crate::sort::key::SortKey;
use cfmerge_gpu_sim::banks::MAX_BANKS;
use cfmerge_gpu_sim::block::LaneCtx;
use cfmerge_gpu_sim::observer::Observer;
use cfmerge_mergepath::diagonal::merge_path_by;
use cfmerge_mergepath::networks::{merge_bitonic_runs, oets_ops, oets_sort};

/// How a block's `[A | B]` pair is laid out in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairLayout {
    /// Thrust baseline: `A` at `[base, base+|A|)`, `B` right after.
    Natural {
        /// Shared-memory offset of the pair region.
        base: usize,
        /// `|A|`.
        a_total: usize,
        /// `|A| + |B|`.
        total: usize,
    },
    /// CF-Merge: `ρ(A ∪ π(B))` at `[base, base+total)`.
    Permuted {
        /// Shared-memory offset of the pair region.
        base: usize,
        /// The permutation maps.
        layout: CfLayout,
    },
}

impl PairLayout {
    /// Shared slot of the `A` element at A-offset `x`.
    #[inline]
    #[must_use]
    pub fn a_slot(&self, x: usize) -> usize {
        match *self {
            PairLayout::Natural { base, a_total, .. } => {
                debug_assert!(x < a_total);
                base + x
            }
            PairLayout::Permuted { base, layout } => base + layout.a_slot(x),
        }
    }

    /// Shared slot of the `B` element at B-offset `y`.
    #[inline]
    #[must_use]
    pub fn b_slot(&self, y: usize) -> usize {
        match *self {
            PairLayout::Natural { base, a_total, total } => {
                debug_assert!(y < total - a_total);
                base + a_total + y
            }
            PairLayout::Permuted { base, layout } => base + layout.b_slot(y),
        }
    }

    /// `|A|`.
    #[inline]
    #[must_use]
    pub fn a_total(&self) -> usize {
        match *self {
            PairLayout::Natural { a_total, .. } => a_total,
            PairLayout::Permuted { layout, .. } => layout.a_total,
        }
    }

    /// `|A| + |B|`.
    #[inline]
    #[must_use]
    pub fn total(&self) -> usize {
        match *self {
            PairLayout::Natural { total, .. } => total,
            PairLayout::Permuted { layout, .. } => layout.total,
        }
    }
}

/// Assemble a thread's [`ThreadSplit`] from its own and its successor's
/// search results, clamping `a_len` into the geometrically valid range.
///
/// On a clean run the clamp is the identity: merge-path splits are
/// monotone and consecutive diagonals differ by `E`, so
/// `next − a_begin ∈ [lo, hi]` already. Under fault injection a corrupted
/// search can return any value within its binary-search bounds, making
/// neighbor results non-monotone; without the clamp the split arithmetic
/// would underflow or send the serial merge / gather schedule out of
/// bounds (a host-side panic no real GPU would produce — the hardware
/// would just read garbage). The clamp keeps every subsequent access
/// in-bounds so corruption surfaces as *wrong data*, which verification
/// catches, rather than as a simulator crash.
///
/// `diag` is the thread's output diagonal (`local_rank · E`), `a_total`/
/// `b_total` the pair's run lengths. Requires `a_begin ≤ min(diag,
/// a_total)` and `diag − a_begin ≤ b_total`, which the bounded
/// merge-path binary search guarantees even with a corrupted comparator.
pub(crate) fn clamped_split(
    a_begin: usize,
    next: usize,
    diag: usize,
    e: usize,
    a_total: usize,
    b_total: usize,
) -> ThreadSplit {
    let b_begin = diag - a_begin;
    // lo ≤ hi because (local_rank + 1)·E ≤ a_total + b_total for every
    // thread of the pair.
    let lo = e.saturating_sub(b_total - b_begin);
    let hi = e.min(a_total - a_begin);
    ThreadSplit { a_begin, a_len: next.saturating_sub(a_begin).clamp(lo, hi) }
}

/// Merge-path binary search against shared memory: the split of the first
/// `diag` outputs of the pair under `layout`. Charges two shared loads
/// and a few ALU ops per iteration, exactly as the device code would.
#[must_use]
pub fn shared_merge_path<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    layout: &PairLayout,
    diag: usize,
) -> usize {
    let a_len = layout.a_total();
    let b_len = layout.total() - a_len;
    let x = merge_path_by(diag, a_len, b_len, |i, j| {
        let a = lane.ld(layout.a_slot(i));
        let b = lane.ld(layout.b_slot(j));
        lane.alu(4); // compare + bound updates
        a <= b
    });
    lane.alu(4); // bounds setup
    x
}

/// The Thrust baseline's per-thread serial merge: `E` outputs taken from
/// shared memory with one data-dependent load per step (plus up to two
/// head preloads), written to the thread's register array `out`.
///
/// This is the phase the worst-case inputs of Section 4 attack.
pub fn serial_merge_from_shared<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    layout: &PairLayout,
    split: ThreadSplit,
    b_begin: usize,
    out: &mut [K],
) {
    let e = out.len();
    let a_end = split.a_begin + split.a_len;
    let b_len = e - split.a_len;
    let b_end = b_begin + b_len;
    let mut ai = split.a_begin;
    let mut bi = b_begin;
    // Head preloads (predicated off when a side is empty).
    let mut a_key = if ai < a_end { Some(lane.ld(layout.a_slot(ai))) } else { None };
    let mut b_key = if bi < b_end { Some(lane.ld(layout.b_slot(bi))) } else { None };
    for slot in out.iter_mut() {
        let take_a = match (a_key, b_key) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("split sizes guarantee E available elements"),
        };
        lane.alu(4); // compare, select, pointer bump, loop
        if take_a {
            *slot = a_key.expect("checked");
            ai += 1;
            a_key = if ai < a_end { Some(lane.ld(layout.a_slot(ai))) } else { None };
        } else {
            *slot = b_key.expect("checked");
            bi += 1;
            b_key = if bi < b_end { Some(lane.ld(layout.b_slot(bi))) } else { None };
        }
    }
}

/// CF-Merge's replacement for the serial merge: the dual subsequence
/// gather (`E` conflict-free loads) into registers, then an odd-even
/// transposition network to merge the rotated bitonic register array —
/// zero further shared-memory traffic.
///
/// `pair_tid` is the thread's index *within the pair* (equals `tid` for
/// whole-block pairs). Requires the shared region to hold the permuted
/// layout. Writes the merged outputs to `out`.
///
/// The gather issues Algorithm 1's loads in round order through
/// [`GatherSchedule::walk`], which also undoes the rotation: the
/// registers hold `Aᵢ` ascending then `Bᵢ` descending. The network is
/// charged its fixed `3·oets_ops(E)` ALU ops, and [`merge_bitonic_runs`]
/// computes its output in `O(E)` host time.
///
/// # Panics
/// Panics if the split does not fit the layout (see
/// [`GatherSchedule::new`]) or `E` exceeds [`MAX_BANKS`], the widest warp
/// and so the largest `E` a block can run.
pub fn gather_merge_from_shared<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    base: usize,
    layout: &CfLayout,
    pair_tid: usize,
    split: ThreadSplit,
    out: &mut [K],
) {
    let e = out.len();
    debug_assert_eq!(e, layout.e);
    assert!(e <= MAX_BANKS, "E = {e} exceeds the {MAX_BANKS} registers a thread can hold");
    let sched = GatherSchedule::new(*layout, pair_tid, split);
    let mut regs = [K::default(); MAX_BANKS];
    for (j, (m, slot)) in sched.walk().enumerate() {
        debug_assert_eq!(slot, sched.round(j).slot(), "gather walk left Algorithm 1 at round {j}");
        regs[m] = lane.ld(base + slot);
    }
    merge_bitonic_runs(&regs[..e], split.a_len, out);
    debug_assert!(
        {
            let mut network = regs[..e].to_vec();
            oets_sort(&mut network);
            network == out
        },
        "register merge differs from the odd-even transposition network"
    );
    lane.alu(3 * oets_ops(e)); // ~3 instructions per compare-exchange
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_gpu_sim::banks::BankModel;
    use cfmerge_gpu_sim::block::BlockSim;
    use cfmerge_gpu_sim::profiler::PhaseClass;
    use cfmerge_mergepath::partition::partition_merge;
    use rand::{Rng, SeedableRng};

    fn sorted_pair(rng: &mut rand::rngs::SmallRng, la: usize, lb: usize) -> (Vec<u32>, Vec<u32>) {
        let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(0..10_000)).collect();
        let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(0..10_000)).collect();
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }

    /// Drive a full single-block merge through search + serial merge and
    /// check the output against a CPU merge.
    #[test]
    fn baseline_block_merge_is_correct() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let (w, e) = (8usize, 5usize);
        let u = 16usize;
        for _ in 0..20 {
            let total = u * e;
            let la = rng.gen_range(0..=total);
            let (a, b) = sorted_pair(&mut rng, la, total - la);
            let layout = PairLayout::Natural { base: 0, a_total: a.len(), total };
            let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, total);
            block.phase(PhaseClass::LoadTile, |tid, lane| {
                for r in 0..e {
                    let s = r * u + tid;
                    let v = if s < a.len() { a[s] } else { b[s - a.len()] };
                    lane.st(s, v);
                }
            });
            let mut splits = vec![ThreadSplit { a_begin: 0, a_len: 0 }; u];
            block.phase(PhaseClass::Search, |tid, lane| {
                let x = shared_merge_path(lane, &layout, tid * e);
                splits[tid].a_begin = x;
            });
            for tid in 0..u {
                let next = if tid + 1 < u { splits[tid + 1].a_begin } else { a.len() };
                splits[tid].a_len = next - splits[tid].a_begin;
            }
            let mut out = vec![vec![0u32; e]; u];
            block.phase(PhaseClass::Merge, |tid, lane| {
                let b_begin = tid * e - splits[tid].a_begin;
                serial_merge_from_shared(lane, &layout, splits[tid], b_begin, &mut out[tid]);
            });
            let merged: Vec<u32> = out.into_iter().flatten().collect();
            let mut expect: Vec<u32> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            assert_eq!(merged, expect);
        }
    }

    #[test]
    fn search_splits_match_partition_merge() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(78);
        let (w, e, u) = (8usize, 5usize, 16usize);
        let total = u * e;
        let (a, b) = sorted_pair(&mut rng, total / 2, total - total / 2);
        let layout = PairLayout::Natural { base: 0, a_total: a.len(), total };
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, total);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..e {
                let s = r * u + tid;
                let v = if s < a.len() { a[s] } else { b[s - a.len()] };
                lane.st(s, v);
            }
        });
        let mut found = vec![0usize; u];
        block.phase(PhaseClass::Search, |tid, lane| {
            found[tid] = shared_merge_path(lane, &layout, tid * e);
        });
        let chunks = partition_merge(&a, &b, e);
        for (tid, c) in chunks.iter().enumerate() {
            assert_eq!(found[tid], c.a_begin, "tid={tid}");
        }
    }

    #[test]
    fn gather_merge_is_correct_and_conflict_free() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(79);
        for &(w, e, warps) in &[(8usize, 5usize, 2usize), (32, 15, 2), (9, 6, 2), (32, 16, 2)] {
            let u = w * warps;
            let total = u * e;
            let la = {
                // pick an |A| realizable by merge-path chunks
                rng.gen_range(0..=total)
            };
            let (a, b) = sorted_pair(&mut rng, la, total - la);
            let layout = CfLayout::new(w, e, total, a.len());
            let tile = crate::gather::simulate::permuted_tile(&a, &b, &layout);
            let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, total);
            block.phase(PhaseClass::LoadTile, |tid, lane| {
                for r in 0..e {
                    let s = r * u + tid;
                    lane.st(s, tile[s]);
                }
            });
            // Exact merge-path splits (host-computed oracle; the pipeline
            // uses the in-kernel search, tested separately).
            let chunks = partition_merge(&a, &b, e);
            let splits: Vec<ThreadSplit> = chunks
                .iter()
                .map(|c| ThreadSplit { a_begin: c.a_begin, a_len: c.a_len() })
                .collect();
            let mut out = vec![vec![0u32; e]; u];
            block.phase(PhaseClass::Gather, |tid, lane| {
                gather_merge_from_shared(lane, 0, &layout, tid, splits[tid], &mut out[tid]);
            });
            let merged: Vec<u32> = out.into_iter().flatten().collect();
            let mut expect: Vec<u32> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            assert_eq!(merged, expect, "w={w} E={e}");
            assert_eq!(
                block.profile.phase(PhaseClass::Gather).bank_conflicts(),
                0,
                "w={w} E={e}: gather must be conflict-free"
            );
        }
    }

    #[test]
    fn cf_search_through_permuted_layout_matches_natural() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(80);
        let (w, e, u) = (8usize, 6usize, 16usize); // d = 2: ρ active
        let total = u * e;
        let (a, b) = sorted_pair(&mut rng, total / 2, total / 2);
        let layout = CfLayout::new(w, e, total, a.len());
        let pair = PairLayout::Permuted { base: 0, layout };
        let tile = crate::gather::simulate::permuted_tile(&a, &b, &layout);
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, total);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..e {
                lane.st(r * u + tid, tile[r * u + tid]);
            }
        });
        let mut found = vec![0usize; u];
        block.phase(PhaseClass::Search, |tid, lane| {
            found[tid] = shared_merge_path(lane, &pair, tid * e);
        });
        let chunks = partition_merge(&a, &b, e);
        for (tid, c) in chunks.iter().enumerate() {
            assert_eq!(found[tid], c.a_begin, "tid={tid}");
        }
    }

    #[test]
    fn serial_merge_counts_conflicts_on_adversarial_layouts() {
        // All w threads scan the same-aligned columns: the merge phase
        // must report heavy conflicts (this is what Section 4 exploits).
        let (w, e) = (8usize, 4usize);
        let u = w;
        let total = u * e;
        // A holds everything; splits give each thread a full-A scan at
        // w-aligned offsets: a_begin = tid*E, and E | w here, so all
        // threads start in the same bank.
        let a: Vec<u32> = (0..total as u32).collect();
        let layout = PairLayout::Natural { base: 0, a_total: total, total };
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, total);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..e {
                lane.st(r * u + tid, a[r * u + tid]);
            }
        });
        let mut out = vec![vec![0u32; e]; u];
        block.phase(PhaseClass::Merge, |tid, lane| {
            let split = ThreadSplit { a_begin: tid * e, a_len: e };
            serial_merge_from_shared(lane, &layout, split, 0, &mut out[tid]);
        });
        let m = block.profile.phase(PhaseClass::Merge);
        // Every round: 8 threads at stride 4 over 8 banks → gcd(4,8)=4
        // distinct words per bank... they collide heavily.
        assert!(m.bank_conflicts() > 0);
        assert!(m.shared_ld_transactions > m.shared_ld_requests);
    }
}
