//! Cheap output verification: sortedness plus order-independent multiset
//! checksums.
//!
//! The recovery driver (see [`crate::recovery`]) re-executes blocks whose
//! output fails verification, so the check must be (a) cheap — `O(n)` per
//! block, no allocation — and (b) *sound enough* that passing it implies
//! the output is exactly correct.
//!
//! The check is: **output is sorted** and **output's multiset checksum
//! equals the input's**. The checksum is the wrapping sum of a 64-bit
//! mix (SplitMix64's finalizer) of each key's bit pattern; summation
//! makes it order-independent (a multiset invariant) and *additive*:
//! `checksum(A ∪ B) = checksum(A) + checksum(B)` (wrapping), so a merge
//! block's expected checksum is computable from its input ranges without
//! materializing them.
//!
//! Soundness: if the output is a permutation of the input and sorted, it
//! *is* the unique sorted permutation — exactly correct. The checksum
//! admits collisions (a corrupted multiset hashing to the same sum), but
//! the mixer's avalanche makes that probability ≈ 2⁻⁶⁴ per check —
//! negligible against the simulator's deterministic fault plans, and the
//! same trade every production checksum scheme (ECC included) makes. For
//! tests, [`verify_sorted_permutation`] provides the exact oracle.

use crate::sort::key::SortKey;

/// SplitMix64 finalizer: the avalanche mix applied to each key's bits.
#[inline]
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent multiset checksum: wrapping sum of [`mix64`] over
/// each key's bit pattern. Additive across concatenation/union.
#[must_use]
pub fn multiset_checksum<K: SortKey>(keys: &[K]) -> u64 {
    keys.iter().fold(0u64, |acc, k| acc.wrapping_add(mix64(k.to_fault_bits())))
}

/// Why a block's output failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyFailure {
    /// `output[index] > output[index + 1]`.
    NotSorted {
        /// Index of the first inversion.
        index: usize,
    },
    /// The output's multiset checksum differs from the input's: keys were
    /// corrupted, lost, or duplicated.
    ChecksumMismatch {
        /// Checksum of the block's input ranges.
        expect: u64,
        /// Checksum of the block's output.
        got: u64,
    },
    /// Exact-oracle verdict: output is not a permutation of the input
    /// (only produced by [`verify_sorted_permutation`]).
    NotAPermutation,
}

impl std::fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyFailure::NotSorted { index } => {
                write!(f, "output not sorted (first inversion at index {index})")
            }
            VerifyFailure::ChecksumMismatch { expect, got } => {
                write!(f, "multiset checksum mismatch (expect {expect:#018x}, got {got:#018x})")
            }
            VerifyFailure::NotAPermutation => write!(f, "output is not a permutation of the input"),
        }
    }
}

/// The production check: `output` sorted and matching `expect_checksum`
/// (computed from the block's input ranges via [`multiset_checksum`]'s
/// additivity). Passing implies the output is exactly the sorted
/// permutation of the input, up to checksum collision (≈ 2⁻⁶⁴).
///
/// One pass folds the sortedness test into the checksum; the first
/// inversion is located only on failure. An unsorted output is reported
/// as [`VerifyFailure::NotSorted`] even if its checksum is also wrong.
pub fn verify_sorted_checksum<K: SortKey>(
    output: &[K],
    expect_checksum: u64,
) -> Result<(), VerifyFailure> {
    let mut got = output.first().map_or(0, |k| mix64(k.to_fault_bits()));
    let mut sorted = true;
    for pair in output.windows(2) {
        sorted &= pair[0] <= pair[1];
        got = got.wrapping_add(mix64(pair[1].to_fault_bits()));
    }
    if !sorted {
        check_sorted(output)?;
    }
    if got != expect_checksum {
        return Err(VerifyFailure::ChecksumMismatch { expect: expect_checksum, got });
    }
    Ok(())
}

/// `Err` with the first inversion of `output`, if it has one.
fn check_sorted<K: Ord>(output: &[K]) -> Result<(), VerifyFailure> {
    match output.windows(2).position(|pair| pair[0] > pair[1]) {
        Some(index) => Err(VerifyFailure::NotSorted { index }),
        None => Ok(()),
    }
}

/// Exact oracle (test harnesses): `output` is sorted *and* a true
/// permutation of `input` (sort-and-compare; `O(n log n)` and
/// allocating — not for the hot recovery path).
pub fn verify_sorted_permutation<K: SortKey>(
    input: &[K],
    output: &[K],
) -> Result<(), VerifyFailure> {
    check_sorted(output)?;
    if input.len() != output.len() {
        return Err(VerifyFailure::NotAPermutation);
    }
    let mut expect = input.to_vec();
    expect.sort_unstable();
    if expect != output {
        return Err(VerifyFailure::NotAPermutation);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_independent_and_additive() {
        let a = [5u32, 1, 9, 9, 3];
        let mut shuffled = a;
        shuffled.reverse();
        assert_eq!(multiset_checksum(&a), multiset_checksum(&shuffled));
        let b = [7u32, 7];
        let both: Vec<u32> = a.iter().chain(&b).copied().collect();
        assert_eq!(
            multiset_checksum(&both),
            multiset_checksum(&a).wrapping_add(multiset_checksum(&b))
        );
    }

    #[test]
    fn checksum_detects_single_bit_flip_and_duplication() {
        let a = [5u32, 1, 9, 3];
        let mut flipped = a;
        flipped[2] ^= 1 << 7;
        assert_ne!(multiset_checksum(&a), multiset_checksum(&flipped));
        // Lost element replaced by a duplicate (the lane-dropout shape).
        let mut duped = a;
        duped[1] = duped[0];
        assert_ne!(multiset_checksum(&a), multiset_checksum(&duped));
    }

    #[test]
    fn sorted_checksum_verdicts() {
        let input = [4u32, 2, 8, 6];
        let expect = multiset_checksum(&input);
        assert_eq!(verify_sorted_checksum(&[2u32, 4, 6, 8], expect), Ok(()));
        assert!(matches!(
            verify_sorted_checksum(&[4u32, 2, 6, 8], expect),
            Err(VerifyFailure::NotSorted { index: 0 })
        ));
        assert!(matches!(
            verify_sorted_checksum(&[2u32, 4, 6, 9], expect),
            Err(VerifyFailure::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn late_inversion_is_located_and_outranks_a_bad_checksum() {
        let input = [1u32, 2, 3, 4, 5, 6];
        let expect = multiset_checksum(&input);
        // Inversion at index 3, and 9 replaces 6: both checks fail.
        assert_eq!(
            verify_sorted_checksum(&[1u32, 2, 3, 9, 4, 5], expect),
            Err(VerifyFailure::NotSorted { index: 3 })
        );
        assert_eq!(
            verify_sorted_checksum(&[1u32, 2, 3, 4, 5, 9], expect),
            Err(VerifyFailure::ChecksumMismatch {
                expect,
                got: multiset_checksum(&[1u32, 2, 3, 4, 5, 9])
            })
        );
        let empty: [u32; 0] = [];
        assert_eq!(verify_sorted_checksum(&empty, 0), Ok(()));
        assert_eq!(verify_sorted_checksum(&[7u32], multiset_checksum(&[7u32])), Ok(()));
    }

    #[test]
    fn permutation_oracle_verdicts() {
        let input = [3u32, 1, 2];
        assert_eq!(verify_sorted_permutation(&input, &[1, 2, 3]), Ok(()));
        assert!(verify_sorted_permutation(&input, &[1, 2, 4]).is_err());
        assert!(verify_sorted_permutation(&input, &[3, 1, 2]).is_err());
        assert!(verify_sorted_permutation(&input, &[1, 2]).is_err());
        let empty: [u32; 0] = [];
        assert_eq!(verify_sorted_permutation(&empty, &empty), Ok(()));
    }
}
