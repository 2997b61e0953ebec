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
//!
//! ## Stripe checksums
//!
//! The verifying pass already hashes every output key, so
//! [`verify_sorted_striped`] also leaves the checksum of each fixed-width
//! *stripe* of the output. Once every block of a launch has verified, the
//! driver turns those sums into [`StripeChecksums`] prefix sums. The next
//! launch reads exactly that buffer, so a merge block's expected checksum
//! for any input range is a prefix difference plus the partial stripes at
//! the range's two ends, not a re-hash of the range.

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

/// `checksum`, the [`multiset_checksum`] of keys padded with `pad` copies
/// of `K::MAX_SENTINEL`, less the padding: the checksum of the keys alone.
#[must_use]
pub(crate) fn without_sentinels<K: SortKey>(checksum: u64, pad: usize) -> u64 {
    checksum.wrapping_sub((pad as u64).wrapping_mul(mix64(K::MAX_SENTINEL.to_fault_bits())))
}

/// Leave in `stripes[i]` the [`multiset_checksum`] of
/// `keys[i·stripe..(i+1)·stripe]` (a shorter last stripe if `stripe` does
/// not divide the length), as [`verify_sorted_striped`] does for a sorted
/// output, and return the checksum of all of `keys`.
///
/// # Panics
/// Panics if `stripes` has fewer than `keys.len().div_ceil(stripe)`
/// entries, or if `stripe` is zero.
pub(crate) fn stripe_checksums<K: SortKey>(keys: &[K], stripe: usize, stripes: &mut [u64]) -> u64 {
    assert!(stripes.len() >= keys.len().div_ceil(stripe), "too few stripe sums");
    keys.chunks(stripe).zip(stripes).fold(0u64, |total, (chunk, sum)| {
        *sum = multiset_checksum(chunk);
        total.wrapping_add(*sum)
    })
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
    verify_sorted_striped(output, expect_checksum, output.len().max(1), &mut [0])
}

/// [`verify_sorted_checksum`] that also leaves, in `stripes[i]`, the
/// checksum of `output[i·stripe..(i+1)·stripe]` (a shorter last stripe if
/// `stripe` does not divide the length). Every stripe is written, pass or
/// fail.
///
/// # Panics
/// Panics if `stripes` has fewer than `output.len().div_ceil(stripe)`
/// entries, or if `stripe` is zero.
pub fn verify_sorted_striped<K: SortKey>(
    output: &[K],
    expect_checksum: u64,
    stripe: usize,
    stripes: &mut [u64],
) -> Result<(), VerifyFailure> {
    assert!(stripes.len() >= output.len().div_ceil(stripe), "too few stripe sums");
    let mut got = 0u64;
    let mut sorted = true;
    // The first key compares with itself.
    let mut prev = output.first().copied().unwrap_or_default();
    for (chunk, sum) in output.chunks(stripe).zip(stripes) {
        let mut s = 0u64;
        for &k in chunk {
            sorted &= prev <= k;
            prev = k;
            s = s.wrapping_add(mix64(k.to_fault_bits()));
        }
        *sum = s;
        got = got.wrapping_add(s);
    }
    if !sorted {
        check_sorted(output)?;
    }
    if got != expect_checksum {
        return Err(VerifyFailure::ChecksumMismatch { expect: expect_checksum, got });
    }
    Ok(())
}

/// Prefix sums of the stripe checksums [`verify_sorted_striped`] left for
/// one buffer, answering the [`multiset_checksum`] of any range of it.
#[derive(Debug)]
pub struct StripeChecksums<'a> {
    stripe: usize,
    /// `prefix[i]`: the wrapping sum of stripes `0..=i`.
    prefix: &'a [u64],
}

impl<'a> StripeChecksums<'a> {
    /// Turn `stripes`, one buffer's checksums of `stripe`-key stripes in
    /// order, into their prefix sums in place.
    ///
    /// # Panics
    /// Panics if `stripe` is zero.
    pub fn from_stripes(stripe: usize, stripes: &'a mut [u64]) -> Self {
        assert!(stripe > 0, "stripes must be non-empty");
        let mut acc = 0u64;
        for s in stripes.iter_mut() {
            acc = acc.wrapping_add(*s);
            *s = acc;
        }
        Self { stripe, prefix: stripes }
    }

    /// The wrapping sum of stripes `0..i`.
    fn before(&self, i: usize) -> u64 {
        i.checked_sub(1).map_or(0, |last| self.prefix[last])
    }

    /// `multiset_checksum(&keys[lo..hi])`, where `keys` is the buffer the
    /// stripes were taken of: the whole stripes inside the range by prefix
    /// difference, the partial stripes at its ends by hashing them.
    ///
    /// # Panics
    /// Panics if the range is out of bounds of `keys` or of the stripes.
    #[must_use]
    pub fn range<K: SortKey>(&self, keys: &[K], lo: usize, hi: usize) -> u64 {
        let (first, last) = (lo.div_ceil(self.stripe), hi / self.stripe);
        if first >= last {
            return multiset_checksum(&keys[lo..hi]);
        }
        let (head, tail) = (first * self.stripe, last * self.stripe);
        self.before(last)
            .wrapping_sub(self.before(first))
            .wrapping_add(multiset_checksum(&keys[lo..head]))
            .wrapping_add(multiset_checksum(&keys[tail..hi]))
    }
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
    fn stripe_checksums_match_range_hashes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        // Tiles of 160 (not a multiple of 64: stripes of 32) and 448.
        for tile in [160usize, 448] {
            let stripe = cfmerge_numtheory::gcd(tile as u64, 64) as usize;
            let mut keys: Vec<u32> = (0..8 * tile).map(|_| rng.gen_range(0..1000)).collect();
            let mut stripes = vec![0u64; keys.len() / stripe];
            for (block, sums) in keys.chunks_mut(tile).zip(stripes.chunks_mut(tile / stripe)) {
                block.sort_unstable();
                let expect = multiset_checksum(block);
                assert_eq!(verify_sorted_striped(block, expect, stripe, sums), Ok(()));
            }
            let sums = StripeChecksums::from_stripes(stripe, &mut stripes);
            let mut ranges = vec![(0, keys.len()), (3, 3), (5, 9), (stripe, 2 * stripe)];
            ranges.extend((1..stripe).map(|len| (stripe + 1, stripe + 1 + len)));
            ranges.extend((0..200).map(|_| {
                let lo = rng.gen_range(0..keys.len());
                (lo, rng.gen_range(lo..=keys.len()))
            }));
            for (lo, hi) in ranges {
                let want = multiset_checksum(&keys[lo..hi]);
                assert_eq!(sums.range(&keys, lo, hi), want, "tile {tile} range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn striped_verdicts_match_the_plain_check() {
        let out = [1u32, 2, 3, 9, 4, 5, 6];
        let expect = multiset_checksum(&out);
        let mut stripes = [0u64; 3];
        assert_eq!(
            verify_sorted_striped(&out, expect, 3, &mut stripes),
            verify_sorted_checksum(&out, expect)
        );
        let want: Vec<u64> = out.chunks(3).map(multiset_checksum).collect();
        assert_eq!(stripes[..], want[..], "stripes are left on failure too");
    }

    /// Fold every total and stripe the three hashing passes give for sorted
    /// `key(0..len)`, stripes of 64 (the driver's stripe for 64 | tile), at
    /// every length 0–65 and one E=15/u=512 tile of 7680 keys. The passes
    /// must agree with each other; the digest pins what they agree on.
    fn checksum_digest<K: SortKey>(key: impl Fn(u64) -> K) -> u64 {
        const STRIPE: usize = 64;
        let mut digest = 0u64;
        for len in (0..=65).chain([7680]) {
            let keys: Vec<K> = (0..len).map(&key).collect();
            let total = multiset_checksum(&keys);
            let mut stripes = vec![0u64; keys.len().div_ceil(STRIPE)];
            assert_eq!(stripe_checksums(&keys, STRIPE, &mut stripes), total, "length {len}");
            let mut verified = vec![0u64; stripes.len()];
            assert_eq!(verify_sorted_striped(&keys, total, STRIPE, &mut verified), Ok(()));
            assert_eq!(verified, stripes, "length {len}");
            for x in std::iter::once(total).chain(stripes) {
                digest = mix64(digest ^ x);
            }
        }
        digest
    }

    /// Absolute values, computed once with a baseline x86-64 build: the
    /// hash loops are what the compiler vectorizes for wider targets, and
    /// their remainder loops run at these lengths.
    #[test]
    fn checksums_match_known_answers() {
        let mixed = [0, 1, u64::from(u32::MAX), u64::MAX].map(mix64);
        assert_eq!(
            mixed,
            [
                0xe220_a839_7b1d_cdaf,
                0x910a_2dec_8902_5cc1,
                0x73b1_3ba2_aff1_81c0,
                0xe4d9_7177_1b65_2c20
            ]
        );
        assert_eq!(multiset_checksum(&[3u32, 1, 4, 1, 5]), 0x1096_8f3d_72c3_9793);
        assert_eq!(multiset_checksum(&[u64::MAX, 0, 1 << 63]), 0x0f18_da52_a92c_edaa);
        assert_eq!(checksum_digest(|i| (i * 0x8_0001) as u32), 0x619b_690f_a7ca_2fee);
        assert_eq!(checksum_digest(|i| i / 2 * 0x8000_0001_0001), 0x8384_3c69_84c7_ad7a);
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
