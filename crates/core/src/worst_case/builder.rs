//! Realizing worst-case tuples as sortable inputs.
//!
//! Any assignment of output ranks to the two input lists is realizable:
//! with distinct keys, taking `A` = the values at A-assigned ranks (in
//! order) and `B` = the rest makes the stable merge consume ranks exactly
//! per the assignment. So the builder works purely on **rank → side**
//! assignments:
//!
//! * [`assign_sides`] lays the warp tuple sequences of
//!   [`super::tuples::warp_tuples`] over the output ranks of one merge,
//!   alternating warp orientation so both runs are consumed equally.
//! * [`WorstCaseBuilder::merge_pair`] produces one `(A, B)` pair — the
//!   unit experiment validated against Theorem 8.
//! * [`WorstCaseBuilder::build`] *unmerges* the whole merge tree of the
//!   sort (global passes and the qualifying block-sort rounds), producing
//!   an input permutation that attacks every merge pass, like the
//!   full-sort inputs of the paper's Section 5.
//!
//! `build` walks the tree level by level, not node by node. Every run at
//! one level has the same length, so one rank → side pattern serves the
//! whole level, and it is periodic: [`assign_sides`] repeats every `2d`
//! subproblems. The walk stores that period as run lengths — each tuple
//! `(a, b)` is an `a`-long copy to the left child and a `b`-long copy to
//! the right, with consecutive copies to one side fused — and splits
//! every run of the level by slice copies from one `n`-word buffer into
//! another; the two buffers swap roles at each level. The levels too
//! small for the construction interleave their runs, and all of them,
//! with the reversal of each leaf, are one strided pass at the end. The
//! peak is the two buffers plus the `O(wE)` pattern.

use super::tuples::{Tuple, WcParams};

/// Rank-to-side assignment for one merge producing `out_len` outputs:
/// `true` = the rank comes from `A` (the left run).
///
/// Requires `out_len` to be an even number of subproblems
/// (`out_len = 2k·wE/d`); [`WorstCaseBuilder::build`] interleaves the
/// runs of smaller merges instead.
///
/// # Panics
/// Panics if `out_len` is not an even multiple of the subproblem size.
#[must_use]
pub fn assign_sides(p: &WcParams, out_len: usize) -> Vec<bool> {
    let sub = p.w * p.e / p.d;
    assert!(
        out_len.is_multiple_of(2 * sub),
        "out_len={out_len} must be an even multiple of the subproblem size {sub}"
    );
    let t = super::tuples::sequence_t(p);
    let mut sides = Vec::with_capacity(out_len);
    for (a, b) in oriented_tuples(p, &t, out_len / sub) {
        sides.extend(std::iter::repeat_n(true, a));
        sides.extend(std::iter::repeat_n(false, b));
    }
    debug_assert_eq!(sides.len(), out_len);
    sides
}

/// The tuples of the first `subs` subproblems of a merge, each oriented
/// as it consumes. Global subproblem `g` belongs to warp `g/d` with local
/// index `g%d`; orientation alternates per local index (Section 4's
/// symmetric case) and flips per warp (balancing consecutive warps) —
/// exactly `warp_tuples(p, warp%2==1)` laid flat.
fn oriented_tuples<'a>(
    p: &'a WcParams,
    t: &'a [Tuple],
    subs: usize,
) -> impl Iterator<Item = Tuple> + 'a {
    (0..subs).flat_map(move |g| {
        let swap = (g % p.d % 2 == 1) ^ (g / p.d % 2 == 1);
        t.iter().map(move |&(a, b)| if swap { (b, a) } else { (a, b) })
    })
}

/// Builder for worst-case inputs targeting a Thrust-style mergesort with
/// warp width `w`, `E` elements per thread, and `u` threads per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstCaseBuilder {
    /// Warp width the construction targets.
    pub w: usize,
    /// Elements per thread.
    pub e: usize,
    /// Threads per block (tile = `u·E`).
    pub u: usize,
}

impl WorstCaseBuilder {
    /// New builder.
    ///
    /// # Panics
    /// Panics unless `1 < E ≤ w` and `w | u`.
    #[must_use]
    pub fn new(w: usize, e: usize, u: usize) -> Self {
        let _ = WcParams::new(w, e); // validates the E range
        assert!(u > 0 && u.is_multiple_of(w), "u={u} must be a positive multiple of w={w}");
        Self { w, e, u }
    }

    fn params(&self) -> WcParams {
        WcParams::new(self.w, self.e)
    }

    /// One worst-case merge pair: two sorted lists whose merge realizes
    /// the tuple pattern over `warps` warp-windows. Keys are
    /// `0..warps·wE`. Returns `(a, b)`.
    ///
    /// # Panics
    /// Panics if `warps` is 0 or odd (balance needs warp pairs) unless
    /// `warps == 1` with `d` even — for the unit experiments just use an
    /// even count.
    #[must_use]
    pub fn merge_pair(&self, warps: usize) -> (Vec<u32>, Vec<u32>) {
        let p = self.params();
        let out_len = warps * self.w * self.e;
        let sides = assign_sides(&p, out_len);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (rank, &is_a) in sides.iter().enumerate() {
            if is_a {
                a.push(rank as u32);
            } else {
                b.push(rank as u32);
            }
        }
        (a, b)
    }

    /// Whether a merge with `out_len` outputs qualifies for the tuple
    /// construction (an even number of subproblems).
    #[must_use]
    pub fn qualifies(&self, out_len: usize) -> bool {
        let p = self.params();
        out_len.is_multiple_of(2 * p.w * p.e / p.d)
    }

    /// Build a full worst-case input permutation of `0..n`.
    ///
    /// Unmerges from the final pass down: every merge in the sort's merge
    /// tree (global passes and block-sort rounds large enough for the
    /// construction) consumes per the worst-case tuples; smaller
    /// block-sort rounds get perfectly interleaved runs, and each leaf
    /// (one thread's `E` keys) is reversed. The walk goes level by level
    /// (see the module docs): it allocates two `n`-word buffers and an
    /// `O(wE)` pattern, and nothing per node.
    ///
    /// # Panics
    /// Panics unless `n` is `tile·2^k` for some `k ≥ 0` (the shape of
    /// every size in the paper's sweep) or `n < tile` and a multiple of
    /// `E`.
    #[must_use]
    pub fn build(&self, n: usize) -> Vec<u32> {
        let tile = self.u * self.e;
        assert!(
            self.u.is_power_of_two(),
            "full-input construction needs a power-of-two u (got {}) so the merge tree \
             splits evenly; use merge_pair() for other shapes",
            self.u
        );
        if n >= tile {
            let runs = n / tile;
            assert!(
                n.is_multiple_of(tile) && runs.is_power_of_two(),
                "worst-case build needs n = uE·2^k, got n={n} (tile {tile})"
            );
        } else {
            assert!(
                n.is_multiple_of(self.e) && (n / self.e).is_power_of_two(),
                "worst-case build needs n = E·2^k below one tile, got n={n}"
            );
        }
        let p = self.params();
        let t = super::tuples::sequence_t(&p);
        // The run of the whole array is the sorted values 0..n.
        let mut src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut pattern = Vec::new();
        let mut len = n;
        // Once a merge is too small for the construction, so is every
        // merge below it: a length the subproblem pair does not divide
        // has no half it divides.
        while self.qualifies(len) {
            level_pattern(&p, &t, len, &mut pattern);
            split_runs(&src, &mut dst, len, &pattern);
            std::mem::swap(&mut src, &mut dst);
            len /= 2;
        }
        interleave_leaves(&src, &mut dst, len, self.e);
        dst
    }
}

/// One period of the rank → side pattern of a merge with `len` outputs,
/// as run lengths: `(a, b)` sends the next `a` ranks to the left run,
/// then the next `b` to the right one. The orientation of
/// [`oriented_tuples`] repeats every `2d` subproblems, and so does the
/// pattern; a merge of fewer is its own period.
fn level_pattern(p: &WcParams, t: &[Tuple], len: usize, pattern: &mut Vec<Tuple>) {
    let subs = len / (p.w * p.e / p.d);
    let period = if subs.is_multiple_of(2 * p.d) { 2 * p.d } else { subs };
    pattern.clear();
    for (a, b) in oriented_tuples(p, t, period) {
        match pattern.last_mut() {
            // The last copy to the left continues, or the last copy to
            // the right does.
            Some(last) if last.1 == 0 => *last = (last.0 + a, b),
            Some(last) if a == 0 => last.1 += b,
            _ => pattern.push((a, b)),
        }
    }
}

/// Split every `len`-long run of `src` into its two child runs in `dst`,
/// repeating the run-length `pattern` over each run.
fn split_runs(src: &[u32], dst: &mut [u32], len: usize, pattern: &[Tuple]) {
    for (run, out) in src.chunks_exact(len).zip(dst.chunks_exact_mut(len)) {
        let (left, right) = out.split_at_mut(len / 2);
        let (mut r, mut l, mut rr) = (0, 0, 0);
        while r < len {
            for &(a, b) in pattern {
                left[l..l + a].copy_from_slice(&run[r..r + a]);
                right[rr..rr + b].copy_from_slice(&run[r + a..r + a + b]);
                (r, l, rr) = (r + a + b, l + a, rr + b);
            }
        }
    }
}

/// Every level below the construction in one pass: each `len`-long run
/// of `src` splits into interleaved halves, level after level, down to
/// leaves of `e` keys, which land in `dst` reversed. After `k` such
/// levels, rank `r` of a run sits in leaf `reverse_k(r mod 2^k)` at
/// position `r >> k`, so leaf `i` holds every `2^k`-th key from rank
/// `reverse_k(i)`.
fn interleave_leaves(src: &[u32], dst: &mut [u32], len: usize, e: usize) {
    let leaves = len / e;
    debug_assert!(leaves.is_power_of_two() && leaves * e == len, "len={len} E={e}");
    let k = leaves.trailing_zeros();
    for (run, out) in src.chunks_exact(len).zip(dst.chunks_exact_mut(len)) {
        for (i, leaf) in out.chunks_exact_mut(e).enumerate() {
            let first = i.reverse_bits().checked_shr(usize::BITS - k).unwrap_or(0);
            for (slot, &v) in leaf.iter_mut().rev().zip(run[first..].iter().step_by(leaves)) {
                *slot = v;
            }
        }
    }
}

/// DMM-level lock-step measurement of the baseline serial merge on a
/// constructed worst-case pair: step `s` of every thread touches the
/// address of the element it consumes (`A` at its A-offset, `B` at
/// `|A| + B-offset` — the natural layout). Returns total bank conflicts
/// across `warps` warps; divide by `warps` to compare against
/// [`super::theorem8::predicted_warp_conflicts`].
///
/// This is the measurement behind the `theorem8` experiment binary and
/// the validation tests.
#[must_use]
pub fn lockstep_baseline_conflicts(w: usize, e: usize, warps: usize) -> u64 {
    use cfmerge_gpu_sim::banks::BankModel;
    use cfmerge_mergepath::serial::{serial_merge_traced, Took};
    let b = WorstCaseBuilder::new(w, e, w);
    let (av, bv) = b.merge_pair(warps);
    let (_, trace) = serial_merge_traced(&av, &bv);
    let banks = BankModel::new(w as u32);
    let threads = warps * w;
    let mut a_off: Vec<usize> = Vec::with_capacity(threads);
    let mut b_off: Vec<usize> = Vec::with_capacity(threads);
    let (mut ca, mut cb) = (0usize, 0usize);
    for t in 0..threads {
        a_off.push(ca);
        b_off.push(cb);
        let seg = &trace[t * e..(t + 1) * e];
        ca += seg.iter().filter(|&&x| x == Took::A).count();
        cb += seg.iter().filter(|&&x| x == Took::B).count();
    }
    let b_base = av.len();
    let mut conflicts = 0u64;
    for v in 0..warps {
        let mut a_pos = a_off[v * w..v * w + w].to_vec();
        let mut b_pos = b_off[v * w..v * w + w].to_vec();
        for s in 0..e {
            let mut addrs = Vec::with_capacity(w);
            for lane in 0..w {
                let t = v * w + lane;
                let addr = match trace[t * e + s] {
                    Took::A => {
                        let x = a_pos[lane];
                        a_pos[lane] += 1;
                        x
                    }
                    Took::B => {
                        let x = b_base + b_pos[lane];
                        b_pos[lane] += 1;
                        x
                    }
                };
                addrs.push(addr as u32);
            }
            conflicts += u64::from(banks.round_cost(&addrs).conflicts);
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::super::tuples::warp_tuples;
    use super::*;
    use cfmerge_mergepath::serial::{serial_merge_traced, Took};

    /// The recursive builder the level walk replaced, node by node with a
    /// side per rank and a `left`/`right` vector per node: `build` must
    /// equal it byte for byte.
    fn recursive_build(b: &WorstCaseBuilder, n: usize) -> Vec<u32> {
        fn unmerge(b: &WorstCaseBuilder, values: &[u32], base: usize, input: &mut [u32]) {
            let len = values.len();
            if len <= b.e {
                for (i, &v) in values.iter().rev().enumerate() {
                    input[base + i] = v;
                }
                return;
            }
            let half = len / 2;
            let sides = if b.qualifies(len) {
                assign_sides(&b.params(), len)
            } else {
                (0..len).map(|r| r % 2 == 0).collect()
            };
            let mut left = Vec::with_capacity(half);
            let mut right = Vec::with_capacity(len - half);
            for (rank, &is_a) in sides.iter().enumerate() {
                if is_a {
                    left.push(values[rank]);
                } else {
                    right.push(values[rank]);
                }
            }
            assert_eq!(left.len(), half, "assignment must split runs evenly (len={len})");
            unmerge(b, &left, base, input);
            unmerge(b, &right, base + half, input);
        }
        let mut input = vec![0u32; n];
        let values: Vec<u32> = (0..n as u32).collect();
        unmerge(b, &values, 0, &mut input);
        input
    }

    #[test]
    fn level_walk_equals_the_recursive_unmerge() {
        let shapes =
            [(32, 15, 512), (32, 17, 256), (32, 16, 64), (32, 24, 64), (16, 12, 32), (8, 5, 16)];
        for (w, e, u) in shapes {
            let b = WorstCaseBuilder::new(w, e, u);
            let tile = u * e;
            let sub_tile = (0..).map(|j| e << j).take_while(|&n| n < tile);
            for n in sub_tile.chain((0..=5).map(|k| tile << k)) {
                assert!(b.build(n) == recursive_build(&b, n), "w={w} E={e} u={u} n={n}");
            }
        }
    }

    #[test]
    fn assign_sides_is_balanced() {
        for &(w, e) in &[(32usize, 15usize), (32, 17), (32, 16), (12, 9), (9, 6), (12, 5)] {
            let p = WcParams::new(w, e);
            for warps in [2usize, 4, 6] {
                let out_len = warps * w * e;
                let sides = assign_sides(&p, out_len);
                assert_eq!(sides.len(), out_len);
                let a_count = sides.iter().filter(|&&s| s).count();
                assert_eq!(a_count, out_len / 2, "w={w} E={e} warps={warps}");
            }
        }
    }

    #[test]
    fn merge_pair_realizes_the_tuples() {
        // Merging the constructed pair must consume exactly per the warp
        // tuple sequence: thread t's E outputs take a_t from A, b_t from B.
        for &(w, e) in &[(32usize, 15usize), (32, 17), (12, 9), (12, 5), (9, 6)] {
            let p = WcParams::new(w, e);
            let b = WorstCaseBuilder::new(w, e, w);
            let (av, bv) = b.merge_pair(2);
            assert_eq!(av.len() + bv.len(), 2 * w * e);
            assert_eq!(av.len(), bv.len());
            assert!(av.is_sorted() && bv.is_sorted());
            let (merged, trace) = serial_merge_traced(&av, &bv);
            assert_eq!(merged, (0..(2 * w * e) as u32).collect::<Vec<_>>());
            // Per-thread consumption counts.
            let mut tuples = warp_tuples(&p, false);
            tuples.extend(warp_tuples(&p, true));
            for (t, &(a_t, b_t)) in tuples.iter().enumerate() {
                let seg = &trace[t * e..(t + 1) * e];
                let took_a = seg.iter().filter(|&&x| x == Took::A).count();
                assert_eq!(took_a, a_t, "w={w} E={e} thread={t}");
                assert_eq!(e - took_a, b_t);
            }
        }
    }

    #[test]
    fn measured_conflicts_match_theorem8() {
        // Simulate the baseline merge lock-step on constructed pairs and
        // compare against Theorem 8's closed forms. The theorem counts
        // "E conflicts per aligned column scan" (E·#columns); the exact
        // per-step serialization count is E·(#columns − 1) plus incidental
        // collisions, so we accept a band around the prediction.
        for &(w, e) in &[
            (32usize, 15usize),
            (32, 17),
            (32, 16),
            (32, 24),
            (12, 5),
            (12, 9),
            (9, 6),
            (8, 6),
            (16, 12),
        ] {
            let warps = 4;
            let measured = lockstep_baseline_conflicts(w, e, warps) as f64 / warps as f64;
            let predicted = super::super::theorem8::predicted_warp_conflicts(w, e) as f64;
            // The theorem counts E per aligned column; exact per-step
            // serialization is E·(columns−1)-ish, so allow E·d of
            // boundary slack below and 30% above.
            let slack = (e * WcParams::new(w, e).d) as f64;
            assert!(
                measured >= 0.7 * predicted - slack && measured <= 1.3 * predicted + slack,
                "w={w} E={e}: measured {measured} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn worst_case_far_exceeds_random_conflicts() {
        // Sanity: the construction is orders of magnitude above a random
        // merge's conflicts for the headline parameters.
        use cfmerge_gpu_sim::banks::BankModel;
        use rand::{Rng, SeedableRng};
        let (w, e, warps) = (32usize, 15usize, 4usize);
        let worst = lockstep_baseline_conflicts(w, e, warps);

        // Random baseline: random sorted pair of the same size.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(12345);
        let total = warps * w * e;
        let mut av: Vec<u32> = (0..total as u32 / 2).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut bv: Vec<u32> = (0..total as u32 / 2).map(|_| rng.gen_range(0..1_000_000)).collect();
        av.sort_unstable();
        bv.sort_unstable();
        let (_, trace) = serial_merge_traced(&av, &bv);
        let banks = BankModel::new(w as u32);
        let mut conflicts = 0u64;
        let mut a_pos = vec![0usize; warps * w];
        let mut b_pos = vec![0usize; warps * w];
        let (mut ca, mut cb) = (0, 0);
        for t in 0..warps * w {
            a_pos[t] = ca;
            b_pos[t] = cb;
            let seg = &trace[t * e..(t + 1) * e];
            ca += seg.iter().filter(|&&x| x == Took::A).count();
            cb += seg.iter().filter(|&&x| x == Took::B).count();
        }
        for v in 0..warps {
            for s in 0..e {
                let mut addrs = Vec::with_capacity(w);
                for lane in 0..w {
                    let t = v * w + lane;
                    let addr = match trace[t * e + s] {
                        Took::A => {
                            let x = a_pos[t];
                            a_pos[t] += 1;
                            x
                        }
                        Took::B => {
                            let x = av.len() + b_pos[t];
                            b_pos[t] += 1;
                            x
                        }
                    };
                    addrs.push(addr as u32);
                }
                conflicts += u64::from(banks.round_cost(&addrs).conflicts);
            }
        }
        assert!(
            worst > 3 * conflicts.max(1),
            "worst-case ({worst}) should dwarf random ({conflicts})"
        );
    }

    #[test]
    fn build_produces_a_permutation() {
        let b = WorstCaseBuilder::new(32, 15, 64);
        let n = 64 * 15 * 8; // tile · 2³
        let input = b.build(n);
        let mut sorted = input.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn build_single_tile_and_subtile() {
        let b = WorstCaseBuilder::new(32, 15, 64);
        let input = b.build(64 * 15);
        assert_eq!(input.len(), 960);
        let small = b.build(15 * 4);
        assert_eq!(small.len(), 60);
    }

    #[test]
    fn every_level_of_the_tree_merges_consistently() {
        // Unmerging then re-merging level by level must reproduce the
        // sorted sequence — i.e. the construction is a consistent merge
        // tree, not just a permutation.
        let b = WorstCaseBuilder::new(8, 5, 16);
        let tile = 80;
        let n = tile * 4;
        let input = b.build(n);
        // Simulate the sort's merge tree: sort tiles, then merge pairwise.
        let mut runs: Vec<Vec<u32>> = input
            .chunks(tile)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .collect();
        while runs.len() > 1 {
            runs = runs
                .chunks(2)
                .map(|pair| {
                    let mut out = Vec::new();
                    cfmerge_mergepath::serial::serial_merge(&pair[0], &pair[1], &mut out);
                    out
                })
                .collect();
        }
        assert_eq!(runs[0], (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "n = uE·2^k")]
    fn bad_n_rejected() {
        let _ = WorstCaseBuilder::new(32, 15, 64).build(64 * 15 * 3);
    }

    #[test]
    #[should_panic(expected = "even multiple")]
    fn assign_sides_rejects_ragged_lengths() {
        let p = WcParams::new(32, 15);
        let _ = assign_sides(&p, 32 * 15);
    }
}
