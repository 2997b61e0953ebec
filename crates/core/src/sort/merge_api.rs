//! Standalone merging of two sorted arrays on the simulated GPU.
//!
//! CF-Merge is at heart a *merge* optimization; sorting is just the loop
//! around it. This module exposes the single merge as a public API — the
//! equivalent of `thrust::merge` — so users can merge pre-sorted runs
//! with either strategy and inspect the conflict profile of exactly one
//! pass.

use super::error::{validate_sort_config, SortError};
use super::key::SortKey;
use super::merge_pass::{merge_pass_block, MergeChunkJob};
use super::pipeline::{KernelReport, SortAlgorithm, SortConfig};
use cfmerge_gpu_sim::profiler::KernelProfile;
use cfmerge_mergepath::partition::partition_merge;
use rayon::prelude::*;

/// Result of a simulated merge.
#[derive(Debug, Clone)]
pub struct MergeRun<K = u32> {
    /// The merged output (`a.len() + b.len()` keys, stable).
    pub output: Vec<K>,
    /// Aggregated profile.
    pub profile: KernelProfile,
    /// Modeled runtime in seconds.
    pub simulated_seconds: f64,
    /// The single merge kernel's report.
    pub kernel: KernelReport,
}

/// Merge two sorted arrays on the simulated GPU with the chosen
/// pipeline's merge kernel.
///
/// Unlike [`super::pipeline::simulate_sort`], inputs need not be
/// tile-aligned: the tail chunk that doesn't fill a block is merged by a
/// partial block (threads predicated off), exactly as a guarded CUDA
/// kernel would.
///
/// ```
/// use cfmerge_core::params::SortParams;
/// use cfmerge_core::sort::{simulate_merge, SortAlgorithm, SortConfig};
///
/// let cfg = SortConfig::with_params(SortParams::new(5, 32));
/// let a: Vec<u32> = (0..100).map(|i| i * 2).collect();
/// let b: Vec<u32> = (0..100).map(|i| i * 2 + 1).collect();
/// let run = simulate_merge(&a, &b, SortAlgorithm::CfMerge, &cfg);
/// assert_eq!(run.output, (0..200).collect::<Vec<u32>>());
/// assert_eq!(run.profile.merge_bank_conflicts(), 0);
/// ```
///
/// # Panics
/// Panics if either input is not sorted (debug builds check this), or if
/// the configuration is invalid for the device.
#[must_use]
pub fn simulate_merge<K: SortKey>(
    a: &[K],
    b: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> MergeRun<K> {
    debug_assert!(a.is_sorted(), "input A must be sorted");
    debug_assert!(b.is_sorted(), "input B must be sorted");
    if let Err(err) = validate_sort_config(config) {
        panic!("{err}");
    }
    let (e, u) = (config.params.e, config.params.u);
    let banks = config.device.bank_model();
    let strategy = algo.strategy();
    let tile = u * e;
    let total = a.len() + b.len();

    // Pad to whole tiles with sentinels so every block is complete, then
    // truncate (same approach as the sort driver; the sentinels all land
    // in the final blocks).
    let padded = total.div_ceil(tile).max(1) * tile;
    let mut a_pad = a.to_vec();
    let mut b_pad = b.to_vec();
    a_pad.resize(a.len() + (padded - total) / 2, K::MAX_SENTINEL);
    b_pad.resize(b.len() + (padded - total).div_ceil(2), K::MAX_SENTINEL);
    let src: Vec<K> = a_pad.iter().chain(&b_pad).copied().collect();

    let chunks = partition_merge(&a_pad, &b_pad, tile);
    let jobs: Vec<MergeChunkJob> = chunks
        .iter()
        .map(|c| MergeChunkJob {
            a_begin: c.a_begin,
            a_end: c.a_end,
            b_begin: a_pad.len() + c.b_begin,
            b_end: a_pad.len() + c.b_end,
        })
        .collect();

    let mut out = vec![K::default(); padded];
    let profiles: Vec<KernelProfile> = jobs
        .par_iter()
        .zip(out.par_chunks_mut(tile))
        .map(|(job, chunk)| {
            merge_pass_block(banks, u, e, strategy, &src, *job, chunk, config.count_accesses)
        })
        .collect();
    let mut profile = KernelProfile::new();
    for p in &profiles {
        profile.merge(p);
    }
    let blocks = jobs.len() as u64;
    let time = config
        .timing
        .kernel_time(&config.device, &profile.total(), &config.launch(blocks))
        .expect("launchability was validated at entry");
    out.truncate(total);
    MergeRun {
        output: out,
        profile: profile.clone(),
        simulated_seconds: time.seconds,
        kernel: KernelReport { name: "merge".into(), blocks, profile, time },
    }
}

/// Non-panicking variant of [`simulate_merge`]: configuration problems
/// and unsorted inputs come back as a typed [`SortError`] instead of a
/// panic (release builds of `simulate_merge` silently accept unsorted
/// inputs; this entry point always checks).
pub fn try_simulate_merge<K: SortKey>(
    a: &[K],
    b: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> Result<MergeRun<K>, SortError> {
    validate_sort_config(config)?;
    if !a.is_sorted() {
        return Err(SortError::InvalidConfig { reason: "merge input A is not sorted".into() });
    }
    if !b.is_sorted() {
        return Err(SortError::InvalidConfig { reason: "merge input B is not sorted".into() });
    }
    Ok(simulate_merge(a, b, algo, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SortParams;
    use rand::{Rng, SeedableRng};

    fn cfg() -> SortConfig {
        SortConfig::with_params(SortParams::new(15, 64))
    }

    #[test]
    fn merge_is_correct_for_ragged_sizes() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3E6E);
        for (la, lb) in [(0usize, 0usize), (1, 0), (0, 1), (100, 33), (960, 960), (1000, 3000)] {
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(0..1_000_000)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(0..1_000_000)).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut expect: Vec<u32> = a.iter().chain(&b).copied().collect();
            expect.sort_unstable();
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let run = simulate_merge(&a, &b, algo, &cfg());
                assert_eq!(run.output, expect, "{algo:?} la={la} lb={lb}");
            }
        }
    }

    #[test]
    fn cf_merge_single_pass_zero_conflicts() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3E6F);
        let mut a: Vec<u32> = (0..5000).map(|_| rng.gen()).collect();
        let mut b: Vec<u32> = (0..5000).map(|_| rng.gen()).collect();
        a.sort_unstable();
        b.sort_unstable();
        let run = simulate_merge(&a, &b, SortAlgorithm::CfMerge, &cfg());
        assert_eq!(run.profile.merge_bank_conflicts(), 0);
        assert!(run.simulated_seconds > 0.0);
        assert_eq!(run.kernel.name, "merge");
    }

    #[test]
    fn worst_case_pair_hurts_only_the_baseline() {
        let b = crate::worst_case::WorstCaseBuilder::new(32, 15, 64);
        let (av, bv) = b.merge_pair(8);
        let base = simulate_merge(&av, &bv, SortAlgorithm::ThrustMergesort, &cfg());
        let cf = simulate_merge(&av, &bv, SortAlgorithm::CfMerge, &cfg());
        assert_eq!(base.output, cf.output);
        assert!(base.profile.merge_bank_conflicts() > 0);
        assert_eq!(cf.profile.merge_bank_conflicts(), 0);
        assert!(base.simulated_seconds > cf.simulated_seconds);
    }

    #[test]
    fn u64_keys_merge() {
        let a: Vec<u64> = (0u64..1000).map(|i| i * 3).collect();
        let b: Vec<u64> = (0u64..1000).map(|i| i * 3 + 1).collect();
        let run = simulate_merge(&a, &b, SortAlgorithm::CfMerge, &cfg());
        assert!(run.output.is_sorted());
        assert_eq!(run.output.len(), 2000);
    }
}
