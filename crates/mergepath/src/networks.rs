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

/// [`oets_sort`] run by `lanes` threads in lock-step, as a block runs
/// it on the GPU, over a register-major register file: thread `t`'s
/// register `m` is `regs[m·lanes + t]`. Register `m` of every thread is
/// then one contiguous row, so each compare-exchange step is one
/// `min`/`max` loop over a pair of rows, which the compiler vectorises.
///
/// Every thread's registers end as [`oets_sort`] leaves them. Returns
/// the compare-exchanges each thread performed, [`oets_ops`] of its
/// register count.
///
/// # Panics
/// Panics if `lanes` is zero or does not divide `regs.len()`.
pub fn oets_sort_lanes<T: Ord + Copy>(regs: &mut [T], lanes: usize) -> u64 {
    assert!(regs.len().is_multiple_of(lanes), "{} registers over {lanes} lanes", regs.len());
    let n = regs.len() / lanes;
    for round in 0..n {
        for i in (round % 2..n.saturating_sub(1)).step_by(2) {
            let (lo, hi) = regs[i * lanes..(i + 2) * lanes].split_at_mut(lanes);
            for (x, y) in lo.iter_mut().zip(hi) {
                let (a, b) = (*x, *y);
                *x = a.min(b);
                *y = a.max(b);
            }
        }
    }
    oets_ops(n)
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

    /// `oets_sort_lanes` against `oets_sort` on each thread's registers,
    /// over every register count and block width the kernels use: random
    /// keys, 16 distinct values, all-equal threads, all-sentinel threads
    /// (the padding), `u64` keys, and the runs a CF gather leaves (`A`
    /// ascending then `B` descending, at every split), unbroken and
    /// broken as a corrupted load breaks them.
    #[test]
    fn lane_network_matches_per_thread_oets() {
        fn check<T: Ord + Copy + std::fmt::Debug>(threads: &[Vec<T>], what: &str) {
            let (lanes, e) = (threads.len(), threads[0].len());
            let mut regs: Vec<T> = (0..e * lanes).map(|i| threads[i % lanes][i / lanes]).collect();
            assert_eq!(oets_sort_lanes(&mut regs, lanes), oets_ops(e), "{what} E={e} u={lanes}");
            for (t, thread) in threads.iter().enumerate() {
                let mut expect = thread.clone();
                oets_sort(&mut expect);
                let got: Vec<T> = regs[t..].iter().step_by(lanes).copied().collect();
                assert_eq!(got, expect, "{what} E={e} u={lanes} t={t}");
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        for e in [1usize, 2, 3, 5, 15, 16, 17, 24, 32, 64] {
            for u in [1usize, 32, 256, 512] {
                let mut draw = |f: &mut dyn FnMut(usize, &mut rand::rngs::SmallRng) -> u32| {
                    (0..u).map(|t| (0..e).map(|_| f(t, &mut rng)).collect()).collect::<Vec<_>>()
                };
                check(&draw(&mut |_, r| r.gen()), "random");
                check(&draw(&mut |_, r| r.gen_range(0..16)), "16 distinct");
                check(&draw(&mut |t, _| t as u32 % 7), "all-equal threads");
                check(&draw(&mut |t, r| if t % 3 == 0 { u32::MAX } else { r.gen() }), "sentinels");
                let mut runs = draw(&mut |_, r| r.gen_range(0..6));
                for (t, v) in runs.iter_mut().enumerate() {
                    let a_len = t % (e + 1);
                    v[..a_len].sort_unstable();
                    v[a_len..].sort_unstable_by(|x, y| y.cmp(x));
                    if t % 2 == 1 {
                        v[t % e] = 1000; // a stuck bit breaks a run
                    }
                }
                check(&runs, "gathered runs");
                let wide: Vec<Vec<u64>> =
                    (0..u).map(|_| (0..e).map(|_| rng.gen::<u64>() >> 60).collect()).collect();
                check(&wide, "u64");
            }
        }
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
