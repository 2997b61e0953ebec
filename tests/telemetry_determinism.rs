//! Property tests for the telemetry subsystem's load-bearing guarantee,
//! **determinism**:
//!
//! 1. A [`MetricsSnapshot`] is a pure function of the recorded
//!    operations: replaying any operation sequence into a fresh registry
//!    yields byte-identical snapshot JSON, and the JSON round-trips
//!    losslessly (the perf gate and the golden test both lean on this).
//! 2. A [`SortService`], which always records telemetry, replays a
//!    fault-seasoned job mix to the same outcomes, modeled clock,
//!    counters and snapshot, bit for bit.
//!
//! Plus the histogram's structural invariant: every observation lands in
//! a bucket whose bounds bracket it, and quantiles are monotone.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{RobustConfig, SortService};
use cfmerge::core::resilience::{
    AdmissionConfig, BreakerConfig, ResilienceConfig, RetryBudgetConfig, ShedPolicy,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig};
use cfmerge::core::telemetry::{LogHistogram, MetricsRegistry, MetricsSnapshot};
use cfmerge::gpu_sim::fault::{FaultPlan, FaultSpec};
use cfmerge_json::{FromJson, ToJson};
use proptest::prelude::*;

/// One recordable operation, for replay testing.
#[derive(Debug, Clone)]
enum Op {
    Inc(u8, u64),
    Gauge(u8, f64),
    Observe(u8, u64),
    ObserveSeconds(u8, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (the shim has no `prop_oneof`; a discriminant field does the job)
    // Values are shifted into the JSON layer's exact-integer domain
    // (< 2^53, see the cfmerge-json crate docs) so snapshots round-trip.
    (0u8..4, 0u8..4, any::<u64>(), 0.0f64..1e3).prop_map(|(kind, n, v, f)| match kind {
        0 => Op::Inc(n, v >> 17),
        1 => Op::Gauge(n, f - 500.0),
        2 => Op::Observe(n, v >> 11),
        _ => Op::ObserveSeconds(n, f),
    })
}

fn apply(reg: &mut MetricsRegistry, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Inc(n, d) => reg.inc(&format!("counter_{n}_total"), d),
            Op::Gauge(n, v) => reg.set_gauge(&format!("gauge_{n}"), v),
            Op::Observe(n, v) => reg.observe(&format!("hist_{n}"), v),
            Op::ObserveSeconds(n, s) => reg.observe_seconds(&format!("lat_{n}_seconds"), s),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replaying any operation sequence yields a byte-identical
    /// snapshot, and the snapshot JSON round-trips losslessly.
    #[test]
    fn prop_snapshot_is_pure_function_of_operations(
        ops in proptest::collection::vec(op_strategy(), 0..64),
    ) {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        apply(&mut a, &ops);
        apply(&mut b, &ops);
        let sa = a.snapshot();
        let sb = b.snapshot();
        let ja = sa.to_json().to_string_pretty();
        prop_assert_eq!(&ja, &sb.to_json().to_string_pretty(), "replay must be byte-identical");

        let parsed = MetricsSnapshot::from_json(&sa.to_json()).expect("snapshot JSON parses");
        prop_assert_eq!(parsed.to_json().to_string_pretty(), ja, "JSON round-trip is lossless");

        // Prefixing then merging is still deterministic and sorted.
        let merged = sa.with_prefix("x_").merged(&sb.with_prefix("y_"));
        let names: Vec<&str> = merged.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        prop_assert_eq!(names, sorted, "snapshots stay sorted by name");
    }

    /// Every observation lands in a bucket that brackets it, and the
    /// derived quantiles are monotone and bounded by min/max.
    #[test]
    fn prop_histogram_buckets_bracket_observations(
        values in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.observe(v);
            let idx = LogHistogram::bucket_index(v);
            prop_assert!(v <= LogHistogram::bucket_upper_bound(idx));
            if idx > 0 {
                prop_assert!(v > LogHistogram::bucket_upper_bound(idx - 1));
            }
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let (p50, p99, p999) = (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
        prop_assert!(h.min() <= p50 && p50 <= p99 && p99 <= p999 && p999 <= h.max());
    }

    /// The same fault-seasoned job mix, run twice, produces identical
    /// outcomes, clock, and counters, and byte-identical snapshots.
    #[test]
    fn prop_service_telemetry_is_deterministic(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..4, 1..6),
        faulty in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let params = SortParams::new(5, 32);
        let spec = FaultSpec {
            sites: 2,
            max_phase: 6,
            sticky_permille: 300,
            permanent_permille: 0,
            spikes: true,
        };
        let run = || {
            let mut svc = SortService::with_resilience(
                RobustConfig::new(SortConfig::with_params(params)),
                ResilienceConfig {
                    admission: AdmissionConfig::bounded(4, ShedPolicy::RejectNewest),
                    retry_budget: RetryBudgetConfig::bounded(4.0),
                    breaker: BreakerConfig {
                        enabled: true,
                        failure_threshold: 2,
                        cooldown_s: 1e-6,
                    },
                },
            );
            for (i, tiles) in sizes.iter().enumerate() {
                let job_seed = seed ^ ((i as u64) << 16);
                let input =
                    InputSpec::UniformRandom { seed: job_seed }.generate(tiles * params.tile() + i);
                let plan = if faulty[i] {
                    FaultPlan::generate(
                        job_seed,
                        &cfmerge::core::recovery::pipeline_shape(input.len(), &params),
                        &spec,
                    )
                } else {
                    FaultPlan::none()
                };
                svc.submit_with_faults(&format!("job-{i}"), input, SortAlgorithm::CfMerge, plan, None);
            }
            let outcomes = svc.drain();
            let digest: Vec<String> = outcomes
                .iter()
                .map(|o| match &o.result {
                    Ok(run) => format!("{}: ok {:.17e}", o.label, run.run.simulated_seconds),
                    Err(e) => format!("{}: err {e}", o.label),
                })
                .collect();
            let snap = svc.telemetry_snapshot().to_json().to_string_pretty();
            (digest, svc.clock_s(), *svc.counters(), snap)
        };

        let (d_a, clock_a, counters_a, snap_a) = run();
        let (d_b, clock_b, counters_b, snap_b) = run();

        prop_assert_eq!(d_a, d_b, "outcomes replay identically");
        prop_assert_eq!(clock_a, clock_b, "the modeled clock replays identically");
        prop_assert_eq!(counters_a, counters_b);
        prop_assert_eq!(snap_a, snap_b, "telemetry snapshots are byte-identical across runs");
    }
}
