//! The merge path diagonal search (Green, McColl & Bader, 2012).
//!
//! Given sorted sequences `a` and `b` and an output rank `diag`, the merge
//! path search finds the unique `x` such that the first `diag` elements of
//! the *stable* merge of `a` and `b` consist of `a[..x]` and
//! `b[..diag - x]`. Stability means ties take from `a` first.
//!
//! This is the textbook order statistic (CLRS Exercise 9.3-10) the paper
//! describes in Section 1: each of `t` threads finds its own split in
//! `O(log n)` by a mutual binary search, independently of the others.

/// Stable merge-path split: number of elements the first `diag` outputs of
/// `merge(a, b)` take from `a`.
///
/// Equal keys are taken from `a` first, which makes the overall merge
/// stable and the split unique.
///
/// # Panics
/// Panics if `diag > a.len() + b.len()`.
#[must_use]
pub fn merge_path<T: Ord>(a: &[T], b: &[T], diag: usize) -> usize {
    assert!(
        diag <= a.len() + b.len(),
        "diagonal {diag} beyond merged length {}",
        a.len() + b.len()
    );
    merge_path_by(diag, a.len(), b.len(), |i, j| a[i] <= b[j])
}

/// Generalized merge-path split over index-based comparison.
///
/// `a_le_b(i, j)` must return whether `a[i] <= b[j]` (the stable "take
/// from A" predicate). This form lets the simulator kernels run the same
/// search against shared memory while recording every access, and lets the
/// CF pipeline search through its permuted layout.
///
/// Returns `x ∈ [max(0, diag-b_len), min(diag, a_len)]`, the count taken
/// from `a`.
///
/// The comparison's outcome is a coin flip on random keys, so the bounds
/// move by [`select_unpredictable`](std::hint::select_unpredictable)
/// rather than a branch. Inlined into each caller so that a simulator
/// kernel's lane context stays in registers through the search.
#[inline(always)]
#[must_use]
pub fn merge_path_by<F: FnMut(usize, usize) -> bool>(
    diag: usize,
    a_len: usize,
    b_len: usize,
    mut a_le_b: F,
) -> usize {
    let mut lo = diag.saturating_sub(b_len);
    let mut hi = diag.min(a_len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Take a[mid] into the prefix iff a[mid] <= b[diag-1-mid]
        // (strictly: iff NOT b[diag-1-mid] < a[mid]).
        let take_a = a_le_b(mid, diag - 1 - mid);
        lo = std::hint::select_unpredictable(take_a, mid + 1, lo);
        hi = std::hint::select_unpredictable(take_a, hi, mid);
    }
    lo
}

/// Number of comparison iterations `merge_path_by` performs for the given
/// bounds — the exact loop-trip count, used to charge the search phase in
/// the simulator (every lane runs the full `O(log)` loop, so warp lanes
/// stay aligned).
#[must_use]
pub fn merge_path_steps(diag: usize, a_len: usize, b_len: usize) -> u32 {
    let lo = diag.saturating_sub(b_len);
    let hi = diag.min(a_len);
    let mut range = hi - lo;
    let mut steps = 0;
    while range > 0 {
        range /= 2;
        steps += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: stable-merge the two slices and count prefix A-elements.
    fn oracle(a: &[u32], b: &[u32], diag: usize) -> usize {
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..diag {
            if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                i += 1;
            } else {
                j += 1;
            }
        }
        i
    }

    #[test]
    fn empty_and_degenerate() {
        let e: [u32; 0] = [];
        assert_eq!(merge_path(&e, &e, 0), 0);
        assert_eq!(merge_path(&[1u32, 2], &e, 2), 2);
        assert_eq!(merge_path(&e, &[1u32, 2], 2), 0);
        assert_eq!(merge_path(&[5u32], &[5u32], 1), 1); // tie: A first
    }

    #[test]
    fn all_diagonals_match_oracle() {
        let a: Vec<u32> = vec![1, 3, 3, 5, 7, 9, 9, 9, 11];
        let b: Vec<u32> = vec![2, 3, 4, 9, 9, 10, 12, 12];
        for diag in 0..=a.len() + b.len() {
            assert_eq!(merge_path(&a, &b, diag), oracle(&a, &b, diag), "diag={diag}");
        }
    }

    #[test]
    fn randomized_against_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let la = rng.gen_range(0..40);
            let lb = rng.gen_range(0..40);
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(0..20)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(0..20)).collect();
            a.sort_unstable();
            b.sort_unstable();
            for diag in 0..=la + lb {
                assert_eq!(merge_path(&a, &b, diag), oracle(&a, &b, diag));
            }
        }
    }

    /// Every sorted sequence of length `len` over the keys `{0, 1, 2}`.
    fn sorted_ternary(len: usize) -> impl Iterator<Item = Vec<u32>> {
        (0..=len).flat_map(move |zeros| {
            (0..=len - zeros).map(move |ones| {
                let mut v = vec![0; zeros];
                v.resize(zeros + ones, 1);
                v.resize(len, 2);
                v
            })
        })
    }

    #[test]
    fn every_diagonal_of_every_small_ternary_pair_matches_a_stable_merge() {
        // The reference walks the stable merge once (ties to A) and
        // records, after each output, how many outputs came from A.
        for a_len in 0..=12 {
            for b_len in 0..=12 {
                for a in sorted_ternary(a_len) {
                    for b in sorted_ternary(b_len) {
                        let mut from_a = vec![0];
                        let (mut i, mut j) = (0, 0);
                        while i + j < a_len + b_len {
                            if j == b_len || (i < a_len && a[i] <= b[j]) {
                                i += 1;
                            } else {
                                j += 1;
                            }
                            from_a.push(i);
                        }
                        for (diag, &want) in from_a.iter().enumerate() {
                            let got = merge_path_by(diag, a_len, b_len, |i, j| a[i] <= b[j]);
                            assert_eq!(got, want, "a={a:?} b={b:?} diag={diag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn splits_are_monotone() {
        let a: Vec<u32> = (0..50).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..50).map(|i| i * 2 + 1).collect();
        let mut prev = 0;
        for diag in 0..=100 {
            let x = merge_path(&a, &b, diag);
            assert!(x >= prev && x <= diag);
            prev = x;
        }
    }

    #[test]
    #[should_panic(expected = "beyond merged length")]
    fn oversized_diagonal_panics() {
        let _ = merge_path(&[1u32], &[2u32], 3);
    }

    #[test]
    fn step_count_bounds_search() {
        // merge_path_by must never call the predicate more than
        // merge_path_steps times.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).collect();
        for diag in 0..=200 {
            let mut calls = 0u32;
            let _ = merge_path_by(diag, a.len(), b.len(), |i, j| {
                calls += 1;
                a[i] <= b[j]
            });
            assert!(calls <= merge_path_steps(diag, a.len(), b.len()), "diag={diag}");
        }
    }
}
