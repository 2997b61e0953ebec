//! The performance-regression gate behind `bench_diff --gate`.
//!
//! The simulator is deterministic, so a pinned artifact in `results/` is
//! not a noisy sample — it is the *exact* expected output of the current
//! code. The gate exploits that: it pairs a pinned baseline artifact with
//! a freshly regenerated one and demands every modeled number match
//! **exactly** (tolerance `0.0`) unless a per-metric relative tolerance
//! says otherwise. Any drift — slower *or* faster — trips the gate:
//! slower is a regression, faster means the pinned baseline is stale and
//! must be regenerated and reviewed.
//!
//! Compared, per artifact pair:
//! * every series point's `seconds` and `merge_conflicts` (paired by
//!   exact series label and point `n`),
//! * every run record's `simulated_seconds` and `merge_conflicts`
//!   (paired by label, repeats positionally),
//! * every telemetry metric present in both snapshots (counters and
//!   gauges by value; histograms by `count` and `sum`).
//!
//! A series, run, or telemetry metric present in the baseline but absent
//! from the current artifact is a coverage regression and fails the gate.
//! Metrics only the *current* artifact has are fine — that is how new
//! instrumentation lands.

use crate::artifact::RunArtifact;
use cfmerge_core::telemetry::{MetricValue, MetricsSnapshot};
use cfmerge_json::Json;

/// Per-metric relative tolerances for [`gate_artifacts`]. Everything not
/// named is compared exactly.
#[derive(Debug, Clone, Default)]
pub struct GateConfig {
    /// `(metric kind, relative tolerance)` pairs. Kinds are the ones the
    /// gate emits in violations: `seconds`, `merge_conflicts`, and
    /// telemetry metric names (e.g. `service_job_latency_seconds_sum`).
    pub tolerances: Vec<(String, f64)>,
}

impl GateConfig {
    /// The default, fully-exact gate.
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// Set the relative tolerance for one metric kind (replacing any
    /// earlier setting for the same kind).
    pub fn set_tolerance(&mut self, kind: &str, rel: f64) {
        assert!(rel >= 0.0 && rel.is_finite(), "tolerance must be a finite non-negative ratio");
        self.tolerances.retain(|(k, _)| k != kind);
        self.tolerances.push((kind.to_string(), rel));
    }

    /// Parse a `--tol kind=rel` argument value, e.g. `seconds=0.02`.
    ///
    /// # Errors
    /// Describes the malformed argument.
    pub fn parse_tolerance_arg(&mut self, arg: &str) -> Result<(), String> {
        let (kind, rel) =
            arg.split_once('=').ok_or_else(|| format!("expected KIND=REL, got `{arg}`"))?;
        let rel: f64 = rel.parse().map_err(|e| format!("bad tolerance in `{arg}`: {e}"))?;
        if !(rel >= 0.0 && rel.is_finite()) {
            return Err(format!("tolerance must be finite and ≥ 0, got `{arg}`"));
        }
        self.set_tolerance(kind, rel);
        Ok(())
    }

    /// Tolerance applied to metric `kind` (0.0 — exact — by default).
    #[must_use]
    pub fn tolerance_for(&self, kind: &str) -> f64 {
        self.tolerances.iter().find(|(k, _)| k == kind).map_or(0.0, |(_, rel)| *rel)
    }
}

/// One gated metric that moved beyond its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct GateViolation {
    /// Where: `series/<label>/n=<n>/seconds`, `run/<label>[i]/…`, or
    /// `telemetry/<metric>`.
    pub metric: String,
    /// The metric kind the tolerance was resolved under.
    pub kind: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Tolerance that was applied.
    pub tolerance: f64,
}

impl GateViolation {
    /// `current/baseline − 1`; infinite when the baseline is 0.
    #[must_use]
    pub fn rel_change(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// What [`gate_artifacts`] found.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics that moved beyond tolerance, in comparison order.
    pub violations: Vec<GateViolation>,
    /// Baseline entries with no counterpart in the current artifact
    /// (coverage regressions — these fail the gate too).
    pub missing: Vec<String>,
    /// Number of metric values compared.
    pub compared: usize,
}

impl GateReport {
    /// The gate passes iff nothing drifted and nothing disappeared.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.missing.is_empty()
    }

    /// Human-readable verdict for the CI log.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str(&format!(
                "perf gate PASSED: {} metrics compared, 0 drifted\n",
                self.compared
            ));
            return out;
        }
        out.push_str(&format!(
            "perf gate FAILED: {} of {} compared metrics drifted, {} missing\n",
            self.violations.len(),
            self.compared,
            self.missing.len()
        ));
        for v in &self.violations {
            out.push_str(&format!(
                "  {}: {} -> {} ({:+.3}%, tolerance {:.3}%)\n",
                v.metric,
                v.baseline,
                v.current,
                v.rel_change() * 100.0,
                v.tolerance * 100.0
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("  missing from current artifact: {m}\n"));
        }
        out
    }
}

struct Gate<'a> {
    cfg: &'a GateConfig,
    report: GateReport,
}

impl Gate<'_> {
    fn check(&mut self, metric: String, kind: &str, baseline: f64, current: f64) {
        self.report.compared += 1;
        let tol = self.cfg.tolerance_for(kind);
        let within =
            if baseline == 0.0 { current == 0.0 } else { (current / baseline - 1.0).abs() <= tol };
        if !within {
            self.report.violations.push(GateViolation {
                metric,
                kind: kind.to_string(),
                baseline,
                current,
                tolerance: tol,
            });
        }
    }
}

/// Gate `current` against the pinned `baseline` under `cfg`.
#[must_use]
pub fn gate_artifacts(
    baseline: &RunArtifact,
    current: &RunArtifact,
    cfg: &GateConfig,
) -> GateReport {
    let mut gate = Gate { cfg, report: GateReport::default() };

    for base in &baseline.series {
        let Some(cur) = current.series.iter().find(|s| s.label == base.label) else {
            gate.report.missing.push(format!("series `{}`", base.label));
            continue;
        };
        for bp in &base.points {
            let Some(cp) = cur.points.iter().find(|p| p.n == bp.n) else {
                gate.report.missing.push(format!("series `{}` point n={}", base.label, bp.n));
                continue;
            };
            let at = format!("series/{}/n={}", base.label, bp.n);
            gate.check(format!("{at}/seconds"), "seconds", bp.seconds, cp.seconds);
            gate.check(
                format!("{at}/merge_conflicts"),
                "merge_conflicts",
                bp.merge_conflicts as f64,
                cp.merge_conflicts as f64,
            );
        }
    }

    // Repeated run labels (repeat-seed runs) pair positionally; handle
    // each label once.
    let mut seen: Vec<&str> = Vec::new();
    for label in baseline.runs.iter().map(|r| r.label.as_str()) {
        if seen.contains(&label) {
            continue;
        }
        seen.push(label);
        let base_runs: Vec<_> = baseline.runs.iter().filter(|r| r.label == label).collect();
        let cur_runs: Vec<_> = current.runs.iter().filter(|r| r.label == label).collect();
        if cur_runs.is_empty() {
            gate.report.missing.push(format!("run `{label}`"));
            continue;
        }
        if cur_runs.len() < base_runs.len() {
            gate.report.missing.push(format!(
                "run `{label}` repeats ({} baseline vs {} current)",
                base_runs.len(),
                cur_runs.len()
            ));
        }
        for (i, (b, c)) in base_runs.iter().zip(&cur_runs).enumerate() {
            let at = format!("run/{label}[{i}]");
            gate.check(
                format!("{at}/simulated_seconds"),
                "seconds",
                b.simulated_seconds,
                c.simulated_seconds,
            );
            gate.check(
                format!("{at}/merge_conflicts"),
                "merge_conflicts",
                b.merge_conflicts as f64,
                c.merge_conflicts as f64,
            );
        }
    }

    match (&baseline.telemetry, &current.telemetry) {
        (Some(base), Some(cur)) => gate_telemetry(&mut gate, base, cur),
        (Some(_), None) => gate.report.missing.push("telemetry snapshot".into()),
        (None, _) => {}
    }

    for cov in [&CERTIFICATES, &TUNING] {
        match (baseline.summaries.get(cov.summary), current.summaries.get(cov.summary)) {
            (Some(base), Some(cur)) => cov.gate(&mut gate, base, cur),
            (Some(_), None) => gate.report.missing.push(format!("{} summary", cov.summary)),
            (None, _) => {}
        }
    }

    gate.report
}

/// A coverage block under `summaries` that must match exactly: scalar
/// totals, then rows keyed by name whose counts must match. A row count
/// that moved the way that loses coverage carries a `[COVERAGE LOSS: …]`
/// label in its metric name.
struct Coverage {
    /// Key under `summaries`, and the prefix and kind of every metric.
    summary: &'static str,
    /// A string field that must match exactly (a checksum), if any.
    digest: Option<&'static str>,
    /// Scalar totals.
    scalars: &'static [&'static str],
    /// Key of the row array, and the field naming each row.
    rows: (&'static str, &'static str),
    /// Per-row counts.
    fields: &'static [&'static str],
    /// The coverage-loss label for a row field moving `baseline → current`.
    loss: fn(field: &str, baseline: f64, current: f64) -> Option<&'static str>,
}

/// The certification coverage block: the scalar totals and every
/// profile's verdict counts. A profile whose `not_certifiable` count
/// *rose* lost coverage — lattice points that used to carry a decided
/// verdict became `Unknown`, which is precisely the regression the
/// fail-closed design turns into a gate failure instead of a silent
/// optimistic answer.
const CERTIFICATES: Coverage = Coverage {
    summary: "certificates",
    digest: None,
    scalars: &["schema", "records", "lint_findings", "failures"],
    rows: ("profiles", "profile"),
    fields: &["records", "conflict_free", "conflicting", "not_certifiable"],
    loss: |field, b, c| (field == "not_certifiable" && c > b).then_some("newly-unknown shapes"),
};

/// The auto-tuner coverage block: the ladder checksum, the scalar
/// totals, and every ladder's rung/tier counts. A ladder whose
/// `certified` or `rungs` count *fell* lost coverage — launch configs
/// the degradation ladder used to be able to run were silently pushed
/// off it, which shrinks the space the service can degrade into before
/// failing closed.
const TUNING: Coverage = Coverage {
    summary: "tuning",
    digest: Some("checksum"),
    scalars: &[
        "schema",
        "cert_schema",
        "ladder_count",
        "rungs",
        "certified",
        "degraded",
        "excluded",
        "validation_scenarios",
        "validation_failures",
    ],
    rows: ("ladders", "ladder"),
    fields: &["rungs", "certified", "degraded", "excluded"],
    loss: |field, b, c| {
        (matches!(field, "rungs" | "certified") && c < b).then_some("the degradation ladder shrank")
    },
};

impl Coverage {
    fn gate(&self, gate: &mut Gate<'_>, base: &Json, cur: &Json) {
        let name = self.summary;
        if let Some(key) = self.digest {
            match (base.get(key).and_then(Json::as_str), cur.get(key).and_then(Json::as_str)) {
                (Some(b), Some(c)) if b != c => gate
                    .report
                    .missing
                    .push(format!("{name} {key} match (ladders drifted: {b} -> {c})")),
                (Some(_), None) => gate.report.missing.push(format!("{name} field `{key}`")),
                _ => {}
            }
        }
        for key in self.scalars {
            match (base.get(key).and_then(Json::as_f64), cur.get(key).and_then(Json::as_f64)) {
                (Some(b), Some(c)) => gate.check(format!("{name}/{key}"), name, b, c),
                (Some(_), None) => gate.report.missing.push(format!("{name} field `{key}`")),
                (None, _) => {}
            }
        }
        let (array, row_key) = self.rows;
        let rows = |v: &Json| -> Vec<Json> {
            v.get(array).and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
        };
        let cur_rows = rows(cur);
        for brow in rows(base) {
            let Some(row) = brow.get(row_key).and_then(Json::as_str) else { continue };
            let Some(crow) =
                cur_rows.iter().find(|r| r.get(row_key).and_then(Json::as_str) == Some(row))
            else {
                gate.report.missing.push(format!("{name} {row_key} `{row}`"));
                continue;
            };
            for field in self.fields {
                let (Some(b), Some(c)) = (
                    brow.get(field).and_then(Json::as_f64),
                    crow.get(field).and_then(Json::as_f64),
                ) else {
                    continue;
                };
                let metric = match (self.loss)(field, b, c) {
                    Some(why) => format!("{name}/{row}/{field} [COVERAGE LOSS: {why}]"),
                    None => format!("{name}/{row}/{field}"),
                };
                gate.check(metric, name, b, c);
            }
        }
    }
}

fn gate_telemetry(gate: &mut Gate<'_>, base: &MetricsSnapshot, cur: &MetricsSnapshot) {
    for m in &base.metrics {
        let Some(c) = cur.get(&m.name) else {
            gate.report.missing.push(format!("telemetry metric `{}`", m.name));
            continue;
        };
        let at = format!("telemetry/{}", m.name);
        match (&m.value, c) {
            (MetricValue::Counter(b), MetricValue::Counter(c)) => {
                gate.check(at.clone(), &m.name, *b as f64, *c as f64);
            }
            (MetricValue::Gauge(b), MetricValue::Gauge(c)) => {
                gate.check(at.clone(), &m.name, *b, *c);
            }
            (MetricValue::Histogram(b), MetricValue::Histogram(c)) => {
                let count_kind = format!("{}_count", m.name);
                let sum_kind = format!("{}_sum", m.name);
                gate.check(format!("{at}/count"), &count_kind, b.count as f64, c.count as f64);
                gate.check(format!("{at}/sum"), &sum_kind, b.sum as f64, c.sum as f64);
            }
            _ => gate.report.missing.push(format!(
                "telemetry metric `{}` changed kind ({} vs {})",
                m.name,
                m.value.kind(),
                c.kind()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Series, SweepPoint};
    use cfmerge_core::telemetry::MetricsRegistry;
    use cfmerge_gpu_sim::device::Device;

    fn point(i: u32, n: usize, seconds: f64, conflicts: u64) -> SweepPoint {
        SweepPoint {
            i,
            n,
            seconds,
            throughput: n as f64 / (seconds * 1e6),
            conflicts_per_round: 0.0,
            merge_conflicts: conflicts,
        }
    }

    fn sample() -> RunArtifact {
        let mut art = RunArtifact::new("gate_test", Device::rtx2080ti());
        art.series.push(Series {
            label: "cf-merge/worst-case/E=15,u=512".into(),
            points: vec![point(9, 512 * 15, 1.0e-4, 0), point(10, 1024 * 15, 2.0e-4, 0)],
        });
        let mut reg = MetricsRegistry::new();
        reg.inc("runs_total", 2);
        reg.observe_seconds("run_seconds", 1.0e-4);
        reg.observe_seconds("run_seconds", 2.0e-4);
        art.telemetry = Some(reg.snapshot());
        art
    }

    #[test]
    fn identical_artifacts_pass_exactly() {
        let art = sample();
        let report = gate_artifacts(&art, &art, &GateConfig::exact());
        assert!(report.passed(), "{}", report.render());
        assert!(report.compared >= 4, "compared only {} metrics", report.compared);
        assert!(report.render().contains("PASSED"));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        cur.series[0].points[1].seconds *= 1.05; // 5% slower
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert!(v.metric.ends_with("n=15360/seconds"), "{}", v.metric);
        assert!((v.rel_change() - 0.05).abs() < 1e-9);
        assert!(report.render().contains("FAILED"));

        // A matching tolerance lets the same drift through.
        let mut cfg = GateConfig::exact();
        cfg.parse_tolerance_arg("seconds=0.10").unwrap();
        assert!(gate_artifacts(&base, &cur, &cfg).passed());
        // …but a conflict-count change stays exact under that config.
        let mut bad = base.clone();
        bad.series[0].points[0].merge_conflicts = 3;
        assert!(!gate_artifacts(&base, &bad, &cfg).passed());
    }

    #[test]
    fn missing_coverage_fails_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        cur.series.clear();
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 1);
        assert!(report.render().contains("missing"));

        let mut no_tel = base.clone();
        no_tel.telemetry = None;
        let report = gate_artifacts(&base, &no_tel, &GateConfig::exact());
        assert!(!report.passed());
        assert!(report.missing.iter().any(|m| m.contains("telemetry")));
        // The reverse direction — current gained telemetry — is fine.
        assert!(gate_artifacts(&no_tel, &base, &GateConfig::exact()).passed());
    }

    #[test]
    fn telemetry_drift_is_gated() {
        let base = sample();
        let mut cur = base.clone();
        let mut reg = MetricsRegistry::new();
        reg.inc("runs_total", 3); // counter drifted
        reg.observe_seconds("run_seconds", 1.0e-4);
        reg.observe_seconds("run_seconds", 2.0e-4);
        cur.telemetry = Some(reg.snapshot());
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.metric == "telemetry/runs_total"));
    }

    #[test]
    fn tolerance_args_validate() {
        let mut cfg = GateConfig::exact();
        assert!(cfg.parse_tolerance_arg("nonsense").is_err());
        assert!(cfg.parse_tolerance_arg("seconds=abc").is_err());
        assert!(cfg.parse_tolerance_arg("seconds=-0.5").is_err());
        cfg.parse_tolerance_arg("seconds=0.02").unwrap();
        cfg.parse_tolerance_arg("seconds=0.03").unwrap(); // replaces
        assert!((cfg.tolerance_for("seconds") - 0.03).abs() < 1e-12);
        assert_eq!(cfg.tolerance_for("merge_conflicts"), 0.0);
    }

    fn cert_summary(not_certifiable: u64) -> Json {
        Json::obj([
            ("schema", Json::from(1u64)),
            ("records", Json::from(84u64)),
            ("lint_findings", Json::from(0u64)),
            ("failures", Json::from(0u64)),
            (
                "profiles",
                Json::Arr(vec![Json::obj([
                    ("profile", Json::from("kepler_64bit_like")),
                    ("records", Json::from(28u64)),
                    ("conflict_free", Json::from(20u64 - not_certifiable.min(20))),
                    ("conflicting", Json::from(8u64)),
                    ("not_certifiable", Json::from(not_certifiable)),
                ])]),
            ),
        ])
    }

    #[test]
    fn certificate_drift_and_coverage_loss_fail_the_gate() {
        let mut base = sample();
        base.add_summary("certificates", cert_summary(0));
        // Identical certification coverage passes.
        let report = gate_artifacts(&base, &base, &GateConfig::exact());
        assert!(report.passed(), "{}", report.render());

        // A profile whose decided verdicts became refusals is flagged as
        // coverage loss, not just a numeric drift.
        let mut cur = sample();
        cur.add_summary("certificates", cert_summary(3));
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.metric.contains("COVERAGE LOSS")),
            "{}",
            report.render()
        );

        // Dropping the certificates block entirely is missing coverage.
        let no_cert = sample();
        let report = gate_artifacts(&base, &no_cert, &GateConfig::exact());
        assert!(!report.passed());
        assert!(report.missing.iter().any(|m| m.contains("certificates")));
        // The reverse — current gained certification — is fine.
        assert!(gate_artifacts(&no_cert, &base, &GateConfig::exact()).passed());
    }

    fn tuning_summary(certified: u64, checksum: &str) -> Json {
        Json::obj([
            ("schema", Json::from(1u64)),
            ("cert_schema", Json::from(1u64)),
            ("checksum", Json::from(checksum)),
            ("ladder_count", Json::from(6u64)),
            ("rungs", Json::from(certified + 2)),
            ("certified", Json::from(certified)),
            ("degraded", Json::from(2u64)),
            ("excluded", Json::from(12u64)),
            ("validation_scenarios", Json::from(2u64)),
            ("validation_failures", Json::from(0u64)),
            (
                "ladders",
                Json::Arr(vec![Json::obj([
                    ("ladder", Json::from("rtx2080ti/cf-merge")),
                    ("rungs", Json::from(certified)),
                    ("certified", Json::from(certified)),
                    ("degraded", Json::from(0u64)),
                    ("excluded", Json::from(1u64)),
                ])]),
            ),
        ])
    }

    #[test]
    fn tuning_drift_and_ladder_shrink_fail_the_gate() {
        let mut base = sample();
        base.add_summary("tuning", tuning_summary(4, "fnv1a64:00ff"));
        let report = gate_artifacts(&base, &base, &GateConfig::exact());
        assert!(report.passed(), "{}", report.render());

        // A ladder that lost certified rungs is flagged as coverage loss:
        // the service has less room to degrade into before failing
        // closed.
        let mut cur = sample();
        cur.add_summary("tuning", tuning_summary(2, "fnv1a64:00ff"));
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.metric.contains("COVERAGE LOSS")),
            "{}",
            report.render()
        );

        // A checksum drift alone fails even when every count matches.
        let mut cur = sample();
        cur.add_summary("tuning", tuning_summary(4, "fnv1a64:beef"));
        let report = gate_artifacts(&base, &cur, &GateConfig::exact());
        assert!(!report.passed());
        assert!(report.missing.iter().any(|m| m.contains("checksum")), "{}", report.render());

        // Dropping the tuning block entirely is missing coverage; the
        // reverse — current gained a tuner — is fine.
        let no_tuning = sample();
        let report = gate_artifacts(&base, &no_tuning, &GateConfig::exact());
        assert!(!report.passed());
        assert!(report.missing.iter().any(|m| m.contains("tuning")));
        assert!(gate_artifacts(&no_tuning, &base, &GateConfig::exact()).passed());
    }

    #[test]
    fn pinned_fig5_artifact_gates_cleanly_against_itself() {
        // The pinned artifact is its own baseline: the gate's pairing and
        // exact comparison must hold on real repo data, not just
        // fixtures.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig5.json");
        let art = RunArtifact::load(&path).expect("pinned fig5 artifact loads");
        let report = gate_artifacts(&art, &art, &GateConfig::exact());
        assert!(report.passed(), "{}", report.render());
        assert!(report.compared > 0);
    }
}
