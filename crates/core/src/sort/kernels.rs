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
//!
//! Each kernel keeps its threads' registers in one register-major
//! register file of `u·E` keys: thread `t`'s register `m` is
//! `regs[m·u + t]`. The serial merge and the gather write a thread's
//! registers straight into it. The odd-even transposition network, which
//! all threads of a block run in lock-step on the GPU, then runs once
//! after the phase for all `u` threads together
//! ([`oets_sort_lanes`](cfmerge_mergepath::networks::oets_sort_lanes)):
//! each compare-exchange is one contiguous `min`/`max` loop over a pair
//! of rows. The network touches no simulated memory, and the phase that
//! fills the registers charges its ALU ops.
//!
//! The building blocks that take a [`LaneCtx`] are `#[inline(always)]`:
//! inlined into their phase closures, the lane's cursors and ALU count
//! stay in registers instead of being bumped through memory per access.

use crate::gather::layout::CfLayout;
use crate::gather::schedule::{GatherSchedule, ThreadSplit};
use crate::sort::key::SortKey;
use cfmerge_gpu_sim::block::LaneCtx;
use cfmerge_gpu_sim::observer::Observer;
use cfmerge_mergepath::diagonal::merge_path_by;
use cfmerge_mergepath::networks::oets_ops;

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
#[inline(always)]
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
/// head preloads), written to the thread's registers in the block's
/// register file `regs` of `u` threads (see the module docs).
///
/// This is the phase the worst-case inputs of Section 4 attack.
#[inline(always)]
pub fn serial_merge_from_shared<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    layout: &PairLayout,
    split: ThreadSplit,
    b_begin: usize,
    regs: &mut [K],
    u: usize,
) {
    let e = regs.len() / u;
    let a_end = split.a_begin + split.a_len;
    let b_len = e - split.a_len;
    let b_end = b_begin + b_len;
    let mut ai = split.a_begin;
    let mut bi = b_begin;
    // Head preloads (predicated off when a side is empty).
    let mut a_key = if ai < a_end { Some(lane.ld(layout.a_slot(ai))) } else { None };
    let mut b_key = if bi < b_end { Some(lane.ld(layout.b_slot(bi))) } else { None };
    for slot in regs[lane.tid()..].iter_mut().step_by(u) {
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
/// gather, `E` conflict-free loads into the thread's registers in the
/// block's register file `regs` of `u` threads. The odd-even
/// transposition network that merges them runs after the phase, for all
/// threads at once ([`oets_sort_lanes`]); the gather charges its fixed
/// `3·oets_ops(E)` ALU ops.
///
/// `pair_tid` is the thread's index *within the pair* (equals `tid` for
/// whole-block pairs). Requires the shared region to hold the permuted
/// layout.
///
/// The gather issues Algorithm 1's loads in round order through
/// [`GatherSchedule::walk`], which also undoes the rotation: the
/// registers hold `Aᵢ` ascending then `Bᵢ` descending.
///
/// # Panics
/// Panics if the split does not fit the layout (see
/// [`GatherSchedule::new`]).
///
/// [`oets_sort_lanes`]: cfmerge_mergepath::networks::oets_sort_lanes
#[inline(always)]
pub fn gather_from_shared<K: SortKey, O: Observer>(
    lane: &mut LaneCtx<'_, K, O>,
    base: usize,
    layout: &CfLayout,
    pair_tid: usize,
    split: ThreadSplit,
    regs: &mut [K],
    u: usize,
) {
    let sched = GatherSchedule::new(*layout, pair_tid, split);
    let tid = lane.tid();
    for (j, (m, slot)) in sched.walk().enumerate() {
        debug_assert_eq!(slot, sched.round(j).slot(), "gather walk left Algorithm 1 at round {j}");
        regs[m * u + tid] = lane.ld(base + slot);
    }
    lane.alu(3 * oets_ops(layout.e)); // ~3 instructions per compare-exchange
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::blocksort::{blocksort_block_observed, MergeStrategy};
    use crate::sort::merge_pass::{merge_pass_block_observed, MergeChunkJob};
    use cfmerge_gpu_sim::banks::BankModel;
    use cfmerge_gpu_sim::block::BlockSim;
    use cfmerge_gpu_sim::fault::{BlockFaults, FaultKind, FaultPlan, FaultSite, Persistence};
    use cfmerge_gpu_sim::profiler::PhaseClass;
    use cfmerge_mergepath::networks::{oets_sort, oets_sort_lanes};
    use cfmerge_mergepath::partition::partition_merge;
    use rand::{Rng, SeedableRng};

    /// A register file's registers, thread by thread.
    fn thread_major(regs: &[u32], u: usize) -> Vec<u32> {
        (0..u).flat_map(|t| regs[t..].iter().step_by(u).copied()).collect()
    }

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
            let mut regs = vec![0u32; u * e];
            block.phase(PhaseClass::Merge, |tid, lane| {
                let b_begin = tid * e - splits[tid].a_begin;
                serial_merge_from_shared(lane, &layout, splits[tid], b_begin, &mut regs, u);
            });
            let merged = thread_major(&regs, u);
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
            let mut regs = vec![0u32; u * e];
            block.phase(PhaseClass::Gather, |tid, lane| {
                gather_from_shared(lane, 0, &layout, tid, splits[tid], &mut regs, u);
            });
            oets_sort_lanes(&mut regs, u);
            let merged = thread_major(&regs, u);
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
        let mut regs = vec![0u32; u * e];
        block.phase(PhaseClass::Merge, |tid, lane| {
            let split = ThreadSplit { a_begin: tid * e, a_len: e };
            serial_merge_from_shared(lane, &layout, split, 0, &mut regs, u);
        });
        let m = block.profile.phase(PhaseClass::Merge);
        // Every round: 8 threads at stride 4 over 8 banks → gcd(4,8)=4
        // distinct words per bank... they collide heavily.
        assert!(m.bank_conflicts() > 0);
        assert!(m.shared_ld_transactions > m.shared_ld_requests);
    }

    /// What a CF block writes when a stuck bank, armed at its last
    /// gather, corrupts that gather's loads and the final tile store's:
    /// per-thread `oets_sort` of each thread's gathered registers, staged
    /// at the thread's ranks, read back through the bank. `a` and `b` are
    /// the sorted runs the gather merges. Also says whether the stuck bank
    /// left some thread's gathered runs unsorted.
    fn stuck_bank_output(
        a: &[u32],
        b: &[u32],
        layout: CfLayout,
        bank: usize,
        bit: u32,
    ) -> (Vec<u32>, bool) {
        let (w, e) = (layout.w, layout.e);
        let shared = crate::gather::simulate::permuted_tile(a, b, &layout);
        let read = |s: usize, v: u32| if s % w == bank { v ^ (1 << bit) } else { v };
        let (mut staged, mut broken) = (Vec::new(), false);
        for (t, c) in partition_merge(a, b, e).iter().enumerate() {
            let split = ThreadSplit { a_begin: c.a_begin, a_len: c.a_len() };
            let mut regs = vec![0u32; e];
            for (m, slot) in GatherSchedule::new(layout, t, split).walk() {
                regs[m] = read(slot, shared[slot]);
            }
            let (run_a, run_b) = regs.split_at(split.a_len);
            broken |= !run_a.is_sorted() || !run_b.iter().rev().is_sorted();
            oets_sort(&mut regs);
            staged.extend(regs);
        }
        (staged.iter().enumerate().map(|(s, &v)| read(s, v)).collect(), broken)
    }

    fn stuck_bank_at(phase: u32, bank: usize, bit: u32) -> BlockFaults {
        let kind = FaultKind::StuckBank { bank: bank as u32, bit: bit as u8 };
        let site =
            FaultSite { kernel: 0, block: 0, phase, kind, persistence: Persistence::Permanent };
        FaultPlan::from_sites(vec![site]).block_faults(0, 0, 0, false)
    }

    /// A stuck bank armed at a CF block sort's last gather breaks
    /// gathered runs; the block writes the per-thread network's output
    /// on the registers the gather loaded.
    #[test]
    fn cf_blocksort_sorts_runs_a_stuck_bank_breaks() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(81);
        let (w, u, bank, bit) = (32usize, 64usize, 5usize, 20u32);
        for e in [15usize, 17] {
            let tile = u * e;
            let src: Vec<u32> = (0..tile).map(|_| rng.gen_range(0..100_000)).collect();
            let (mut a, mut b) = (src[..tile / 2].to_vec(), src[tile / 2..].to_vec());
            a.sort_unstable();
            b.sort_unstable();
            let layout = CfLayout::reversal_only(w, e, tile, tile / 2);
            let (expect, broken) = stuck_bank_output(&a, &b, layout, bank, bit);
            assert!(broken, "E={e}: the stuck bank must break a gathered run");
            // Two register-sort phases, then (search, gather, store) per round.
            let last_gather = 3 * u.trailing_zeros() + 2;
            let mut dst = vec![0u32; tile];
            let (_, faults) = blocksort_block_observed(
                BankModel::new(w as u32),
                u,
                e,
                MergeStrategy::Gather,
                &src,
                &mut dst,
                0,
                true,
                stuck_bank_at(last_gather, bank, bit),
            );
            assert_eq!(faults.records()[0].class, PhaseClass::Gather, "E={e}");
            assert_eq!(dst, expect, "E={e}");
        }
    }

    /// The same for a CF merge-pass block, whose one gather is phase 3.
    #[test]
    fn cf_merge_pass_sorts_runs_a_stuck_bank_breaks() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(82);
        let (w, u, bank, bit) = (32usize, 64usize, 9usize, 20u32);
        for e in [15usize, 17] {
            let tile = u * e;
            let (a, b) = sorted_pair(&mut rng, tile / 3, tile - tile / 3);
            let (expect, broken) =
                stuck_bank_output(&a, &b, CfLayout::new(w, e, tile, a.len()), bank, bit);
            assert!(broken, "E={e}: the stuck bank must break a gathered run");
            let src: Vec<u32> = a.iter().chain(&b).copied().collect();
            let job = MergeChunkJob { a_begin: 0, a_end: a.len(), b_begin: a.len(), b_end: tile };
            let mut dst = vec![0u32; tile];
            let (_, faults) = merge_pass_block_observed(
                BankModel::new(w as u32),
                u,
                e,
                MergeStrategy::Gather,
                &src,
                job,
                &mut dst,
                true,
                stuck_bank_at(3, bank, bit),
            );
            assert_eq!(faults.records()[0].class, PhaseClass::Gather, "E={e}");
            assert_eq!(dst, expect, "E={e}");
        }
    }
}
