//! Property tests for the fault-injection / recovery stack: for *any*
//! seeded [`FaultPlan`], the robust driver must terminate within its
//! retry bound and return either a verified sorted permutation of the
//! input or a typed error — never silently corrupted output.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{pipeline_shape, simulate_sort_robust, RobustConfig};
use cfmerge::core::sort::{SortAlgorithm, SortConfig, SortError};
use cfmerge::core::verify::{multiset_checksum, verify_sorted_permutation};
use cfmerge::gpu_sim::fault::{FaultPlan, FaultSpec};
use proptest::prelude::*;

fn params() -> SortParams {
    SortParams::new(5, 32) // tile = 160: small enough for many proptest cases
}

fn algo_strategy() -> impl Strategy<Value = SortAlgorithm> {
    any::<bool>().prop_map(
        |cf| {
            if cf {
                SortAlgorithm::CfMerge
            } else {
                SortAlgorithm::ThrustMergesort
            }
        },
    )
}

fn spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (1u32..=5, 0u32..=300, 0u32..=200, any::<bool>()).prop_map(
        |(sites, sticky_permille, permanent_permille, spikes)| FaultSpec {
            sites,
            max_phase: 6,
            sticky_permille,
            permanent_permille,
            spikes,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary fault plans: the driver always terminates with either a
    /// verified sorted permutation or a typed unrecoverable error, and the
    /// retry counters respect the configured bound.
    #[test]
    fn prop_faulty_runs_never_return_silent_corruption(
        seed in any::<u64>(),
        input_seed in any::<u64>(),
        n in 1usize..=3 * 160 + 37,
        algo in algo_strategy(),
        spec in spec_strategy(),
        allow_fallback in any::<bool>(),
        max_retries in 0u32..=3,
    ) {
        let p = params();
        let rcfg = RobustConfig {
            max_retries,
            allow_fallback,
            ..RobustConfig::new(SortConfig::with_params(p))
        };
        let plan = FaultPlan::generate(seed, &pipeline_shape(n, &p), &spec);
        let input = InputSpec::UniformRandom { seed: input_seed }.generate(n);

        match simulate_sort_robust(&input, algo, &rcfg, &plan) {
            Ok(r) => {
                // The only acceptable success: the exact sorted permutation.
                prop_assert_eq!(verify_sorted_permutation(&input, &r.run.output), Ok(()));
                // Retries are bounded: each retried block retries at most
                // max_retries times, on at most two pipeline executions
                // (primary + fallback).
                let c = r.report.counters;
                prop_assert!(
                    c.retries <= c.blocks_retried * u64::from(max_retries).max(1) * 2,
                    "retry bound violated: {:?}", c
                );
                prop_assert_eq!(c.unrecovered, 0);
                prop_assert!(c.fallbacks <= 1);
                if !allow_fallback {
                    prop_assert_eq!(c.fallbacks, 0);
                }
                // Detections and injections are recorded consistently.
                prop_assert_eq!(c.faults_detected, r.report.detections.len() as u64);
                prop_assert_eq!(c.faults_injected, r.report.injections.len() as u64);
            }
            Err(SortError::UnrecoverableFault { attempts, .. }) => {
                // Only plans that can outlive the recovery policy may end
                // here: permanent faults always can; sticky faults can when
                // fallback is disabled; transient faults only when there are
                // no retries *and* no fallback. The attempt count must
                // reflect the configured bound.
                prop_assert!(
                    plan.has_permanent()
                        || (!allow_fallback && (plan.has_persistent() || max_retries == 0)),
                    "plan recoverable under this policy must not end unrecoverable"
                );
                prop_assert!(attempts >= 1);
                prop_assert!(attempts <= max_retries + 1);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// A plan with no faults is bit-identical to the plain pipeline — the
    /// robustness layer is zero-cost when disabled.
    #[test]
    fn prop_clean_robust_run_matches_plain_sort(
        input_seed in any::<u64>(),
        n in 0usize..=2 * 160 + 13,
        algo in algo_strategy(),
    ) {
        let p = params();
        let cfg = SortConfig::with_params(p);
        let plain = cfmerge::core::sort::simulate_sort(
            &InputSpec::UniformRandom { seed: input_seed }.generate(n), algo, &cfg);
        let r = simulate_sort_robust(
            &InputSpec::UniformRandom { seed: input_seed }.generate(n),
            algo,
            &RobustConfig::new(cfg),
            &FaultPlan::none(),
        ).unwrap();
        // Output, profile, modeled seconds and every launch report (name,
        // grid, profile, time) are bit-identical.
        prop_assert_eq!(&r.run, &plain);
        prop_assert!(r.report.is_clean());
    }

    /// The multiset checksum is order-independent and additive — the two
    /// properties the per-block verifier relies on.
    #[test]
    fn prop_checksum_is_order_independent_and_additive(
        mut keys in proptest::collection::vec(any::<u32>(), 0..400),
        split in any::<u64>(),
    ) {
        let whole = multiset_checksum(&keys);
        let at = if keys.is_empty() { 0 } else { split as usize % keys.len() };
        let (a, b) = keys.split_at(at);
        prop_assert_eq!(
            multiset_checksum(a).wrapping_add(multiset_checksum(b)),
            whole,
            "checksum must be additive across any split"
        );
        keys.reverse();
        prop_assert_eq!(multiset_checksum(&keys), whole, "checksum must ignore order");
        keys.sort_unstable();
        prop_assert_eq!(multiset_checksum(&keys), whole);
    }
}
