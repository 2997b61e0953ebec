//! The [`MetricsRegistry`]: named counters, gauges, and histograms over
//! modeled time.
//!
//! Nothing in the simulator's hot paths holds one: the costs are per
//! job, not per shared-memory access. The resilience services record
//! into theirs on every job, always — about 1 µs of host time per job —
//! and recording never touches modeled time, so outputs, kernels, and
//! modeled seconds are what they would be without it.

use crate::recovery::RecoveryCounters;
use crate::sort::pipeline::SortRun;
use crate::telemetry::histogram::LogHistogram;
use crate::telemetry::snapshot::{MetricSnapshot, MetricValue, MetricsSnapshot};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};

/// A live metric: monotone counter, last-write gauge, or distribution.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// A registry of named metrics. Names are free-form `snake_case` strings
/// (the Prometheus exporter sanitizes them); registration is implicit on
/// first use, and using one name with two different metric kinds panics —
/// that is always an instrumentation bug.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Insertion-ordered; snapshots sort by name so ordering here never
    /// leaks into artifacts.
    metrics: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, name: &str, make: impl FnOnce() -> Metric) -> &mut Metric {
        if let Some(i) = self.metrics.iter().position(|(n, _)| n == name) {
            return &mut self.metrics[i].1;
        }
        self.metrics.push((name.to_string(), make()));
        &mut self.metrics.last_mut().expect("just pushed").1
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, delta: u64) {
        match self.entry(name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.entry(name, || Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g = value,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Record `n` observations of `value` into histogram `name`.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        match self.entry(name, || Metric::Histogram(LogHistogram::new())) {
            Metric::Histogram(h) => h.observe_n(value, n),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Record a duration in modeled seconds into histogram `name`
    /// (stored as integer nanoseconds; see
    /// [`LogHistogram::observe_seconds`]).
    pub fn observe_seconds(&mut self, name: &str, seconds: f64) {
        match self.entry(name, || Metric::Histogram(LogHistogram::new())) {
            Metric::Histogram(h) => h.observe_seconds(seconds),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// The histogram registered under `name`, if any.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.metrics.iter().find_map(|(n, m)| match m {
            Metric::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// The counter registered under `name`, if any.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(n, m)| match m {
            Metric::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Record the per-phase simulator counters of a finished sort run
    /// under `prefix` (e.g. `sim_cf_merge`): shared transactions and
    /// requests, bank conflicts, global sectors, and ALU ops per active
    /// phase, plus the merge-phase conflict-degree distribution. Derived
    /// entirely from the always-on [`KernelProfile`], so the simulation
    /// itself runs untouched.
    pub fn record_profile(&mut self, prefix: &str, profile: &KernelProfile) {
        for class in PhaseClass::all() {
            let p = profile.phase(class);
            if p.is_zero() {
                continue;
            }
            let label = class.label();
            self.inc(&format!("{prefix}_phase_{label}_shared_requests"), p.shared_requests());
            self.inc(
                &format!("{prefix}_phase_{label}_shared_transactions"),
                p.shared_transactions(),
            );
            self.inc(&format!("{prefix}_phase_{label}_bank_conflicts"), p.bank_conflicts());
            self.inc(&format!("{prefix}_phase_{label}_global_sectors"), p.global_sectors());
            self.inc(&format!("{prefix}_phase_{label}_alu_ops"), p.alu_ops);
        }
        for (degree, &rounds) in profile.merge_degree_hist.buckets().iter().enumerate() {
            if rounds > 0 {
                self.observe_n(&format!("{prefix}_merge_round_degree"), degree as u64, rounds);
            }
        }
    }

    /// Record a finished pipeline run under `prefix`: the modeled runtime
    /// (latency histogram in modeled ns), element count, kernel launches,
    /// and the full per-phase profile.
    pub fn record_sort_run<K>(&mut self, prefix: &str, run: &SortRun<K>) {
        self.inc(&format!("{prefix}_runs_total"), 1);
        self.inc(&format!("{prefix}_elements_total"), run.n as u64);
        self.inc(&format!("{prefix}_kernel_launches_total"), run.kernels.len() as u64);
        self.observe_seconds(&format!("{prefix}_run_seconds"), run.simulated_seconds);
        self.record_profile(prefix, &run.profile);
    }

    /// Record the recovery layer's decisions for one robust run: faults
    /// injected/detected (checksum failures), per-block retries,
    /// pipeline fallbacks, unrecovered faults, and hedge launches/wins.
    pub fn record_recovery(&mut self, prefix: &str, counters: &RecoveryCounters) {
        self.inc(&format!("{prefix}_faults_injected_total"), counters.faults_injected);
        self.inc(&format!("{prefix}_faults_detected_total"), counters.faults_detected);
        self.inc(&format!("{prefix}_blocks_retried_total"), counters.blocks_retried);
        self.inc(&format!("{prefix}_retries_total"), counters.retries);
        self.inc(&format!("{prefix}_fallbacks_total"), counters.fallbacks);
        self.inc(&format!("{prefix}_unrecovered_total"), counters.unrecovered);
        self.inc(&format!("{prefix}_hedges_launched_total"), counters.hedges_launched);
        self.inc(&format!("{prefix}_hedges_won_total"), counters.hedges_won);
    }

    /// Freeze the registry into a bit-stable [`MetricsSnapshot`]:
    /// metrics sorted by name, histograms reduced to their sparse bucket
    /// vectors plus derived count/sum/min/max and p50/p99/p999.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics: Vec<MetricSnapshot> = self
            .metrics
            .iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(*c),
                    Metric::Gauge(g) => MetricValue::Gauge(*g),
                    Metric::Histogram(h) => MetricValue::Histogram(h.clone().into()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_coexist() {
        let mut r = MetricsRegistry::new();
        r.inc("jobs_total", 2);
        r.inc("jobs_total", 1);
        r.set_gauge("queue_depth", 4.0);
        r.set_gauge("queue_depth", 2.0);
        r.observe("latency", 100);
        r.observe("latency", 300);
        assert_eq!(r.counter("jobs_total"), Some(3));
        assert_eq!(r.histogram("latency").unwrap().count(), 2);
        assert_eq!(r.len(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 3);
        // Snapshots sort by name regardless of registration order.
        assert_eq!(snap.metrics[0].name, "jobs_total");
        assert_eq!(snap.metrics[1].name, "latency");
        assert_eq!(snap.metrics[2].name, "queue_depth");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("x", 1.0);
        r.inc("x", 1);
    }

    #[test]
    fn record_sort_run_captures_profile_and_latency() {
        let cfg = crate::sort::SortConfig::with_params(crate::params::SortParams::new(5, 32));
        let input = crate::inputs::InputSpec::UniformRandom { seed: 3 }.generate(32 * 5 * 2);
        let run = crate::sort::simulate_sort(&input, crate::sort::SortAlgorithm::CfMerge, &cfg);
        let mut r = MetricsRegistry::new();
        r.record_sort_run("sim_cf_merge", &run);
        assert_eq!(r.counter("sim_cf_merge_runs_total"), Some(1));
        assert_eq!(r.counter("sim_cf_merge_elements_total"), Some(run.n as u64));
        // CF-Merge's gather phase is conflict-free by construction.
        assert_eq!(r.counter("sim_cf_merge_phase_gather_bank_conflicts"), Some(0));
        let lat = r.histogram("sim_cf_merge_run_seconds").unwrap();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum(), (run.simulated_seconds * 1e9).round() as u64);
    }

    #[test]
    fn record_recovery_sums_counters() {
        let mut r = MetricsRegistry::new();
        let c = RecoveryCounters { retries: 2, fallbacks: 1, ..RecoveryCounters::default() };
        r.record_recovery("service", &c);
        r.record_recovery("service", &c);
        assert_eq!(r.counter("service_retries_total"), Some(4));
        assert_eq!(r.counter("service_fallbacks_total"), Some(2));
    }
}
