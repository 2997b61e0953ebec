//! Stable key-value sorting on top of the generic pipelines.
//!
//! Thrust's mergesort is stable and sorts `(key, value)` pairs; the
//! simulated pipelines sort bare keys. Stability interacts with CF-Merge
//! nontrivially: the gather leaves `Bᵢ` *reversed* in registers, so a
//! key-only register network would emit equal `B` keys in reversed
//! order. The standard GPU remedy — and what we implement — is to sort
//! the packed 64-bit words `key · 2³² + original_index`: the index
//! tiebreak makes every comparison strict, which simultaneously restores
//! stability and realizes the value permutation.
//!
//! (The paper sidesteps this by benchmarking 4-byte keys only; this
//! module is the natural library extension a real user would need.)

use super::pipeline::{simulate_sort, SortAlgorithm, SortConfig, SortRun};

/// Result of a stable pair sort.
#[derive(Debug, Clone)]
pub struct PairSortRun {
    /// Sorted keys.
    pub keys: Vec<u32>,
    /// Values, permuted alongside their keys (stable).
    pub values: Vec<u32>,
    /// The underlying packed-u64 pipeline run (profile, timing, …).
    pub run: SortRun<u64>,
}

/// Stable sort-by-key of `(keys[i], values[i])` pairs on the simulated
/// GPU.
///
/// ```
/// use cfmerge_core::params::SortParams;
/// use cfmerge_core::sort::{sort_pairs_stable, SortAlgorithm, SortConfig};
///
/// let cfg = SortConfig::with_params(SortParams::new(5, 32));
/// let keys = [3u32, 1, 3, 2];
/// let values = [0u32, 1, 2, 3]; // original positions
/// let r = sort_pairs_stable(&keys, &values, SortAlgorithm::CfMerge, &cfg);
/// assert_eq!(r.keys, vec![1, 2, 3, 3]);
/// assert_eq!(r.values, vec![1, 3, 0, 2]); // equal keys keep input order
/// ```
///
/// # Panics
/// Panics if the slices' lengths differ or exceed `u32::MAX` (the index
/// tiebreak is packed into 32 bits).
#[must_use]
pub fn sort_pairs_stable(
    keys: &[u32],
    values: &[u32],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> PairSortRun {
    assert_eq!(keys.len(), values.len(), "one value per key");
    assert!(keys.len() <= u32::MAX as usize, "index tiebreak is 32-bit");
    let packed: Vec<u64> =
        keys.iter().enumerate().map(|(i, &k)| (u64::from(k) << 32) | i as u64).collect();
    let run = simulate_sort::<u64>(&packed, algo, config);
    let mut out_keys = Vec::with_capacity(keys.len());
    let mut out_values = Vec::with_capacity(values.len());
    for &p in &run.output {
        out_keys.push((p >> 32) as u32);
        out_values.push(values[(p & 0xFFFF_FFFF) as usize]);
    }
    PairSortRun { keys: out_keys, values: out_values, run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SortParams;
    use rand::{Rng, SeedableRng};

    fn cfg() -> SortConfig {
        SortConfig::with_params(SortParams::new(5, 32))
    }

    #[test]
    fn pair_sort_is_correct_and_stable() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xABCD);
        for n in [0usize, 1, 100, 1000, 5000] {
            // Few distinct keys → lots of ties to stress stability.
            let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..7)).collect();
            let values: Vec<u32> = (0..n as u32).collect(); // value = original index
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let r = sort_pairs_stable(&keys, &values, algo, &cfg());
                assert!(r.keys.is_sorted(), "{algo:?} n={n}");
                // Pairing preserved:
                for (k, v) in r.keys.iter().zip(&r.values) {
                    assert_eq!(keys[*v as usize], *k);
                }
                // Stability: equal keys keep ascending original indices.
                for w in r.keys.windows(2).zip(r.values.windows(2)) {
                    let (kw, vw) = w;
                    if kw[0] == kw[1] {
                        assert!(vw[0] < vw[1], "{algo:?}: stability violated");
                    }
                }
            }
        }
    }

    #[test]
    fn cf_pair_sort_is_conflict_free_in_merge_phases() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xBEEF);
        let n = 2000;
        let keys: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let values: Vec<u32> = (0..n as u32).collect();
        let r = sort_pairs_stable(&keys, &values, SortAlgorithm::CfMerge, &cfg());
        assert_eq!(r.run.profile.merge_bank_conflicts(), 0);
    }

    #[test]
    fn both_algorithms_agree() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xF00D);
        let n = 3000;
        let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let values: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let a = sort_pairs_stable(&keys, &values, SortAlgorithm::ThrustMergesort, &cfg());
        let b = sort_pairs_stable(&keys, &values, SortAlgorithm::CfMerge, &cfg());
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
    }

    #[test]
    #[should_panic(expected = "one value per key")]
    fn mismatched_lengths_panic() {
        let _ = sort_pairs_stable(&[1], &[], SortAlgorithm::CfMerge, &cfg());
    }
}
