//! The deterministic telemetry showcase behind the `metrics_report`
//! binary and its golden test: one Figure-5 configuration run under full
//! instrumentation, producing a schema-v2 artifact with an embedded
//! [`MetricsSnapshot`], a Prometheus text exposition, and folded-stacks
//! flamegraph input — all pure functions of the modeled execution, so
//! every byte is pinned by the golden file.

use crate::artifact::{RunArtifact, RunRecord};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::RobustConfig;
use cfmerge_core::resilience::{
    AdmissionConfig, BreakerConfig, ResilienceConfig, RetryBudgetConfig, ShedPolicy, SortService,
};
use cfmerge_core::sort::{simulate_sort_traced, SortAlgorithm, SortConfig};
use cfmerge_core::telemetry::{MetricsRegistry, MetricsSnapshot};
use cfmerge_gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, Persistence};
use cfmerge_json::Json;

/// Everything `metrics_report` writes, built in one deterministic pass.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The schema-v2 artifact with the embedded metrics snapshot.
    pub artifact: RunArtifact,
    /// Prometheus text exposition of the same snapshot.
    pub prometheus: String,
    /// Folded stacks (`label;kernel;phase ns`) for both traced pipelines,
    /// ready for `flamegraph.pl` / inferno / speedscope.
    pub folded: String,
}

/// Metric prefix for one traced pipeline (`sim_thrust`, `sim_cf_merge`).
fn sim_prefix(algo: SortAlgorithm) -> String {
    format!("sim_{}", algo.label().replace('-', "_"))
}

/// Build the report: trace both pipelines on the first Figure-5 sweep
/// point (`E = 15, u = 512`, worst-case input), then run a small
/// fault-seasoned batch through a telemetry-enabled [`SortService`] for
/// the latency/queue/breaker metrics.
#[must_use]
pub fn build() -> TelemetryReport {
    let cfg = SortConfig::paper_e15_u512();
    let n = (1usize << 9) * cfg.params.e;
    let input = InputSpec::worst_case(cfg.params).generate(n);

    let mut art = RunArtifact::new("metrics_report", cfg.device.clone());
    let mut registry = MetricsRegistry::new();
    let mut folded = String::new();

    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let traced = simulate_sort_traced(&input, algo, &cfg);
        assert!(traced.run.output.is_sorted(), "pipeline produced unsorted output");
        registry.record_sort_run(&sim_prefix(algo), &traced.run);
        folded.push_str(&traced.trace.folded_stacks());
        art.runs.push(RunRecord::from_run(traced.trace.label.clone(), algo, &traced.run));
        art.add_summary(
            algo.label(),
            Json::obj([
                ("conflict_rounds", Json::from(traced.trace.conflict_rounds())),
                ("dropped_conflicts", Json::from(traced.trace.dropped_conflicts())),
                ("merge_conflicts", Json::from(traced.run.profile.merge_bank_conflicts())),
            ]),
        );
    }

    let service_snapshot = run_service_batch();
    let sim_snapshot = registry.snapshot();
    let snapshot = sim_snapshot.merged(&service_snapshot);

    if let Some(lat) = snapshot.histogram("service_job_latency_seconds") {
        art.add_summary(
            "service_latency",
            Json::obj([
                ("count", Json::from(lat.count)),
                ("p50_s", Json::from(lat.p50 as f64 / 1e9)),
                ("p99_s", Json::from(lat.p99 as f64 / 1e9)),
                ("p999_s", Json::from(lat.p999 as f64 / 1e9)),
            ]),
        );
    }
    art.telemetry = Some(snapshot.clone());

    TelemetryReport { artifact: art, prometheus: snapshot.to_prometheus(), folded }
}

/// A small deterministic batch through the resilient service with every
/// mechanism on: clean jobs of three sizes, one transient fault (retry),
/// one sticky fault (fallback + breaker trip), and one over-capacity
/// submission (shed) — enough to populate the latency histogram, the
/// queue-depth distribution, and the breaker/budget counters.
fn run_service_batch() -> MetricsSnapshot {
    let rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)));
    let mut svc = SortService::with_resilience(
        rcfg,
        ResilienceConfig {
            admission: AdmissionConfig::bounded(6, ShedPolicy::RejectNewest),
            retry_budget: RetryBudgetConfig::bounded(4.0),
            breaker: BreakerConfig { enabled: true, failure_threshold: 1, cooldown_s: 1e-6 },
        },
    );

    let site = |kind, persistence| FaultSite { kernel: 0, block: 0, phase: 1, kind, persistence };
    for (i, blocks) in [1usize, 2, 4].iter().enumerate() {
        let input = InputSpec::UniformRandom { seed: 100 + i as u64 }.generate(blocks * 160);
        svc.submit(&format!("clean-{i}"), input, SortAlgorithm::CfMerge);
    }
    let faulty = InputSpec::UniformRandom { seed: 200 }.generate(2 * 160);
    svc.submit_with_faults(
        "transient",
        faulty.clone(),
        SortAlgorithm::CfMerge,
        FaultPlan::from_sites(vec![site(
            FaultKind::StuckBank { bank: 0, bit: 0 },
            Persistence::Transient,
        )]),
        None,
    );
    svc.submit_with_faults(
        "sticky",
        faulty.clone(),
        SortAlgorithm::CfMerge,
        FaultPlan::from_sites(vec![site(
            FaultKind::StuckBank { bank: 1, bit: 3 },
            Persistence::Sticky,
        )]),
        None,
    );
    svc.submit("post-trip", faulty.clone(), SortAlgorithm::CfMerge);
    // The queue is bounded at 6: a seventh submission is shed.
    svc.submit("overflow", faulty, SortAlgorithm::CfMerge);

    let outcomes = svc.drain();
    assert_eq!(outcomes.len(), 7);
    svc.telemetry_snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::ToJson;

    #[test]
    fn report_is_deterministic_and_instrumented() {
        let a = build();
        let b = build();
        assert_eq!(
            a.artifact.to_json().to_string_pretty(),
            b.artifact.to_json().to_string_pretty(),
            "metrics_report artifact must be bit-stable"
        );
        assert_eq!(a.prometheus, b.prometheus);
        assert_eq!(a.folded, b.folded);

        let snap = a.artifact.telemetry.as_ref().expect("telemetry embedded");
        // Both pipelines recorded; CF-Merge's merge phases conflict-free.
        assert!(snap.get("sim_thrust_runs_total").is_some());
        assert!(snap.get("sim_cf_merge_runs_total").is_some());
        // The service batch populated the latency histogram.
        let lat = snap.histogram("service_job_latency_seconds").expect("latency recorded");
        assert_eq!(lat.count, 6, "six executed jobs verify");
        assert!(lat.p50 > 0);
        // Exposition and flamegraph carry the same run.
        assert!(a.prometheus.contains("cfmerge_service_job_latency_seconds_count 6"));
        assert!(a.folded.contains(";merge "), "folded stacks name the merge phase");
    }
}
