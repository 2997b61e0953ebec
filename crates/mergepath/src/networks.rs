//! Data-oblivious sorting and merging networks.
//!
//! Once the dual subsequence gather has moved a thread's `E` elements into
//! registers, they must be processed *without data-dependent indexing* —
//! on real GPUs, dynamically indexed "register" arrays are spilled to
//! local memory by the compiler (Section 5 of the paper). The fix is a
//! fixed compare-exchange schedule. The paper adopts Thrust's **odd-even
//! transposition sort**; we implement it plus Batcher's odd-even
//! mergesort and the bitonic merger as ablations, each reporting its exact
//! compare-exchange count so the simulator can charge ALU time.

/// Odd-even transposition sort (Habermann 1972): `n` rounds of
/// alternating-parity adjacent compare-exchanges. Works for any `n` and
/// any input. Returns the number of compare-exchanges performed.
///
/// Each compare-exchange is a branch-free `min`/`max` pair; on equal
/// elements both keep their places, exactly as a swap-if-greater would.
pub fn oets_sort<T: Ord + Copy>(v: &mut [T]) -> u64 {
    let n = v.len();
    let mut ops = 0u64;
    for round in 0..n {
        let mut i = round % 2;
        while i + 1 < n {
            let (lo, hi) = (v[i], v[i + 1]);
            v[i] = lo.min(hi);
            v[i + 1] = lo.max(hi);
            ops += 1;
            i += 2;
        }
    }
    ops
}

/// Sort `regs` into `out` when `regs[..a_len]` ascends and `regs[a_len..]`
/// descends — the bitonic register array of CF-Merge's gather — with the
/// result [`oets_sort`] gives on any arrangement of `regs`, in `O(n)`.
///
/// The two runs are merged linearly. The merge emits a permutation of
/// `regs`; if that is not sorted, because a run was not, [`oets_sort`]
/// sorts it. Either way `out` is the sorted permutation of `regs`, which
/// is also what the network gives on any arrangement of `regs` when
/// equal elements are identical (as sort keys are).
///
/// # Panics
/// Panics if `out.len() != regs.len()` or `a_len > regs.len()`.
pub fn merge_bitonic_runs<T: Ord + Copy>(regs: &[T], a_len: usize, out: &mut [T]) {
    assert_eq!(regs.len(), out.len(), "register arrays differ in length");
    let (a, b) = regs.split_at(a_len);
    if a.is_empty() || b.is_empty() {
        out[..a.len()].copy_from_slice(a);
        out[a.len()..].copy_from_slice(b);
        out[a.len()..].reverse();
    } else {
        // `a` is read from its front, `b` from its back (its smallest
        // end). The heads are clamped into range so that every step reads
        // both without a branch: which run wins is data-dependent and
        // would be mispredicted half the time.
        let (mut i, mut j) = (0, b.len());
        for slot in out.iter_mut() {
            let (x, y) = (a[i.min(a.len() - 1)], b[j.saturating_sub(1)]);
            let take_a = (j == 0) | ((i < a.len()) & (x <= y));
            *slot = std::hint::select_unpredictable(take_a, x, y);
            i += usize::from(take_a);
            j -= usize::from(!take_a);
        }
    }
    if !out.is_sorted() {
        oets_sort(out);
    }
}

/// Exact compare-exchange count of [`oets_sort`] on `n` elements
/// (independent of data — the network is oblivious).
#[must_use]
pub fn oets_ops(n: usize) -> u64 {
    let n = n as u64;
    let even_rounds = n.div_ceil(2); // rounds 0, 2, 4, …
    let odd_rounds = n / 2;
    even_rounds * (n / 2) + odd_rounds * ((n.saturating_sub(1)) / 2)
}

/// Batcher's odd-even mergesort for arbitrary `n` (via virtual padding to
/// the next power of two with +∞ sentinels; compare-exchanges touching a
/// sentinel are provably no-ops and are skipped). Returns the number of
/// compare-exchanges actually executed.
pub fn batcher_sort<T: Ord>(v: &mut [T]) -> u64 {
    let n = v.len();
    if n < 2 {
        return 0;
    }
    // Classic iterative formulation (valid for arbitrary n; exhaustively
    // verified below by the 0-1 principle).
    let mut ops = 0u64;
    let mut p = 1usize;
    while p < n {
        let mut k = p;
        loop {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k {
                    let x = i + j;
                    let y = i + j + k;
                    if y < n && x / (2 * p) == y / (2 * p) {
                        if v[x] > v[y] {
                            v.swap(x, y);
                        }
                        ops += 1;
                    }
                }
                j += 2 * k;
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        p *= 2;
    }
    ops
}

/// Bitonic merge: sorts any *bitonic* sequence (ascending then descending,
/// or any circular rotation thereof — exactly the shape the dual
/// subsequence gather leaves in registers). Length must be a power of
/// two. Returns compare-exchange count (`(n/2)·log₂n`).
///
/// # Panics
/// Panics if `v.len()` is not a power of two.
pub fn bitonic_merge<T: Ord>(v: &mut [T]) -> u64 {
    let n = v.len();
    assert!(n.is_power_of_two(), "bitonic merge requires a power-of-two length, got {n}");
    let mut ops = 0u64;
    let mut k = n / 2;
    while k >= 1 {
        for i in 0..n {
            let j = i | k;
            if j != i {
                if v[i] > v[j] {
                    v.swap(i, j);
                }
                ops += 1;
            }
        }
        k /= 2;
    }
    ops
}

/// Compare-exchange count of [`bitonic_merge`].
#[must_use]
pub fn bitonic_merge_ops(n: usize) -> u64 {
    assert!(n.is_power_of_two());
    (n as u64 / 2) * n.trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn oets_sorts_random_inputs() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        for n in 0..40 {
            let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            let ops = oets_sort(&mut v);
            assert_eq!(v, expect, "n={n}");
            assert_eq!(ops, oets_ops(n as usize), "n={n}");
        }
    }

    /// `merge_bitonic_runs` against `oets_sort` on the register array the
    /// gather leaves before un-rotating it: every rotation `k`, every
    /// split `a_len`, keys drawn from a small range so runs repeat keys.
    #[test]
    fn bitonic_run_merge_matches_oets_on_every_split_and_rotation() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        for e in [5usize, 15, 16, 17, 32] {
            for a_len in 0..=e {
                for k in 0..e {
                    let mut a: Vec<u32> = (0..a_len).map(|_| rng.gen_range(0..6)).collect();
                    let mut b: Vec<u32> = (0..e - a_len).map(|_| rng.gen_range(0..6)).collect();
                    a.sort_unstable();
                    b.sort_unstable_by(|x, y| y.cmp(x));
                    let regs: Vec<u32> = a.iter().chain(&b).copied().collect();
                    let mut rotated = regs.clone();
                    rotated.rotate_right(k);
                    oets_sort(&mut rotated);
                    let mut out = vec![0; e];
                    merge_bitonic_runs(&regs, a_len, &mut out);
                    assert_eq!(out, rotated, "E={e} a_len={a_len} k={k}");
                }
            }
        }
    }

    #[test]
    fn bitonic_run_merge_sorts_unsorted_runs() {
        // A corrupted load breaks a run; the merge alone would emit
        // [5, 1, 2, 3, 4]-like output, so the network must finish it.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for e in [5usize, 15, 16, 17, 32] {
            for a_len in 0..=e {
                let regs: Vec<u32> = (0..e).map(|_| rng.gen_range(0..1000)).collect();
                let mut expect = regs.clone();
                oets_sort(&mut expect);
                let mut out = vec![0; e];
                merge_bitonic_runs(&regs, a_len, &mut out);
                assert_eq!(out, expect, "E={e} a_len={a_len}");
            }
        }
        let mut out = [0u32; 5];
        merge_bitonic_runs(&[9, 1, 2, 8, 3], 3, &mut out);
        assert_eq!(out, [1, 2, 3, 8, 9]);
    }

    #[test]
    fn oets_zero_one_principle() {
        // A comparison network sorts all inputs iff it sorts all 0-1
        // inputs (Knuth). Exhaustive for n ≤ 10.
        for n in 0..=10usize {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u32> = (0..n).map(|i| (mask >> i) & 1).collect();
                oets_sort(&mut v);
                assert!(v.is_sorted(), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn oets_ops_paper_parameters() {
        // E = 15: 8 even rounds × 7 + 7 odd rounds × 7 = 105.
        assert_eq!(oets_ops(15), 105);
        // E = 17: 9 × 8 + 8 × 8 = 136.
        assert_eq!(oets_ops(17), 136);
        assert_eq!(oets_ops(0), 0);
        assert_eq!(oets_ops(1), 0);
        assert_eq!(oets_ops(2), 1);
    }

    #[test]
    fn batcher_zero_one_principle() {
        for n in 0..=12usize {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u32> = (0..n).map(|i| (mask >> i) & 1).collect();
                batcher_sort(&mut v);
                assert!(v.is_sorted(), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn batcher_sorts_random_and_is_cheaper_than_oets() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        for n in [15usize, 17, 32, 100] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            let ops = batcher_sort(&mut v);
            assert_eq!(v, expect);
            if n >= 8 {
                // O(n log² n) < O(n²) for the sizes we care about.
                assert!(ops < oets_ops(n), "n={n} batcher={ops} oets={}", oets_ops(n));
            }
        }
    }

    #[test]
    fn bitonic_merge_handles_rotated_bitonic() {
        // Ascending-then-descending, plus every rotation of it, is
        // bitonic; the merger must sort them all.
        let base: Vec<u32> = vec![1, 3, 5, 7, 8, 6, 4, 2];
        for rot in 0..base.len() {
            let mut v: Vec<u32> = base[rot..].iter().chain(&base[..rot]).copied().collect();
            let ops = bitonic_merge(&mut v);
            assert!(v.is_sorted(), "rot={rot}");
            assert_eq!(ops, bitonic_merge_ops(8));
        }
    }

    #[test]
    fn bitonic_merge_is_exactly_the_gather_shape() {
        // A ascending followed by B descending — the register layout the
        // CF gather produces (before rotation).
        let a = [2u32, 9, 11, 12];
        let b = [10u32, 7, 3, 1];
        let mut v: Vec<u32> = a.iter().chain(&b).copied().collect();
        bitonic_merge(&mut v);
        assert_eq!(v, vec![1, 2, 3, 7, 9, 10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bitonic_merge_rejects_non_power_of_two() {
        let mut v = vec![3u32, 1, 2];
        let _ = bitonic_merge(&mut v);
    }

    #[test]
    fn networks_are_oblivious_op_counts() {
        // Same length → same op count regardless of data.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for n in [7usize, 15, 16, 17] {
            let mut v1: Vec<u32> = (0..n as u32).collect();
            let mut v2: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(oets_sort(&mut v1), oets_sort(&mut v2));
            let mut v1: Vec<u32> = (0..n as u32).rev().collect();
            let mut v2: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(batcher_sort(&mut v1), batcher_sort(&mut v2));
        }
    }
}
