//! The certification pipeline: machine-checkable conflict certificates
//! over the full (E, u, device-profile) lattice.
//!
//! [`build_certificate_table`] runs the device-parametric prover
//! ([`check_registry_on`]) and the static lint pass
//! ([`cfmerge_gpu_sim::check::lint_phases`]) over every
//! (kernel, E, u, device profile) combination the repo ships, and packs
//! the verdicts into a versioned [`CertificateTable`] with an exact JSON
//! round-trip. The pinned copy lives at `results/certificates.json`; the
//! `kernel_cert` bench bin regenerates it, cross-validates sampled
//! verdicts against [`BankModel::round_cost`](cfmerge_gpu_sim::BankModel),
//! and exits nonzero on any disagreement or drift.
//!
//! This table is the input contract for the ROADMAP's auto-tuner: at
//! admission time a service can look up `(kernel, E, u, profile)` and
//! know — with a proof, not a benchmark — whether the launch is
//! conflict-free, exactly how bad it is if not, or that the shape is
//! outside the analyzed lattice (`Unknown` verdicts fail closed).

use crate::analysis::{check_registry_on, PhaseReport};
use crate::inputs::InputSpec;
use crate::params::SortParams;
use crate::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge_gpu_sim::check::{lint_phases, Access, BankShape, PhaseIr, Verdict};
use cfmerge_gpu_sim::{Device, PhaseClass};
use cfmerge_json::json_struct;

/// Version of the certificate schema. Bump on any change to the record
/// layout; the gate treats a version change as drift.
pub const CERT_SCHEMA_VERSION: u32 = 1;

/// One device profile certificates are issued against.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Stable profile key used in certificate records.
    pub name: &'static str,
    /// The device it describes.
    pub device: Device,
}

/// Every device profile the repo models, in certificate order. Includes
/// the Kepler-style 64-bit-bank profile: same bank count as the paper's
/// testbed, qualitatively different conflict structure.
#[must_use]
pub fn device_profiles() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile { name: "rtx2080ti", device: Device::rtx2080ti() },
        DeviceProfile { name: "a100_like", device: Device::a100_like() },
        DeviceProfile { name: "kepler_64bit_like", device: Device::kepler_64bit_like() },
    ]
}

/// The launch configurations certificates cover: the paper's preferred
/// parameters, Thrust's shipped parameters, and the non-coprime stress
/// shape (`gcd(E, w) > 1`) whose honest degraded verdicts keep the table
/// from being a wall of `conflict-free`.
#[must_use]
pub fn cert_configs() -> Vec<SortParams> {
    vec![SortParams::e15_u512(), SortParams::e17_u256(), SortParams::new(16, 256)]
}

/// One certificate: the prover's verdict for one phase of one kernel at
/// one launch configuration on one device profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// Device profile key (see [`device_profiles`]).
    pub profile: String,
    /// Pipeline (`thrust` or `cf-merge`).
    pub algo: String,
    /// Elements per thread `E`.
    pub e: usize,
    /// Threads per block `u`.
    pub u: usize,
    /// Kernel name.
    pub kernel: String,
    /// Phase name.
    pub phase: String,
    /// `ld` or `st`.
    pub access: String,
    /// Bank count of the profile.
    pub banks: usize,
    /// Bank row width in 32-bit words (1 or 2).
    pub bank_word_u32s: u32,
    /// `conflict-free`, `conflicting`, or `not-certifiable`.
    pub verdict: String,
    /// The prover rule that decided it (`none` for refusals).
    pub strategy: String,
    /// Worst-case transactions per round (1 when free, 0 when refused).
    pub worst_degree: u32,
    /// The registry expectation the verdict was held to.
    pub expected: String,
    /// Whether the verdict satisfied the expectation and cross-validation.
    pub pass: bool,
}

impl CertRecord {
    fn from_report(
        profile: &DeviceProfile,
        shape: BankShape,
        algo: SortAlgorithm,
        params: SortParams,
        report: &PhaseReport,
    ) -> Self {
        let (verdict, strategy, worst_degree) = match &report.verdict {
            Verdict::ConflictFree(c) => ("conflict-free".to_string(), c.rule.to_string(), 1),
            Verdict::Conflicting { transactions, certificate } => {
                ("conflicting".to_string(), certificate.rule.to_string(), *transactions)
            }
            Verdict::NotCertifiable { .. } => {
                ("not-certifiable".to_string(), "none".to_string(), 0)
            }
        };
        CertRecord {
            profile: profile.name.to_string(),
            algo: algo.label().to_string(),
            e: params.e,
            u: params.u,
            kernel: report.spec.kernel.to_string(),
            phase: report.spec.phase.clone(),
            access: report.spec.access.to_string(),
            banks: shape.banks,
            bank_word_u32s: shape.word_u32s,
            verdict,
            strategy,
            worst_degree,
            expected: report.spec.expected.label(),
            pass: report.pass(),
        }
    }

    /// Stable identity of the lattice point this record certifies
    /// (everything except the verdict columns) — the key the drift gate
    /// joins on.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/E{}/u{}/{}/{}/{}",
            self.profile, self.algo, self.e, self.u, self.kernel, self.phase, self.access
        )
    }
}

json_struct! {
    CertRecord {
        profile, algo, e, u, kernel, phase, access, banks, bank_word_u32s, verdict, strategy,
        worst_degree, expected, pass,
    }
}

/// One static lint finding, keyed like a certificate. A healthy table has
/// zero of these: the pinned copy asserts the shipping kernels stay clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRecord {
    /// Device profile key.
    pub profile: String,
    /// Pipeline label.
    pub algo: String,
    /// Elements per thread `E`.
    pub e: usize,
    /// Threads per block `u`.
    pub u: usize,
    /// Lint name (`store-overlap`, `smem-capacity`, …).
    pub lint: String,
    /// Kernel the finding is against.
    pub kernel: String,
    /// Phase the finding is against.
    pub phase: String,
    /// What went wrong.
    pub message: String,
}

json_struct! { LintRecord { profile, algo, e, u, lint, kernel, phase, message } }

/// The versioned certificate table: every verdict and lint finding over
/// the full lattice, in deterministic order (profiles × configs × algos ×
/// registry order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateTable {
    /// Schema version ([`CERT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Certificates, one per lattice point.
    pub records: Vec<CertRecord>,
    /// Lint findings (empty for healthy kernels).
    pub lints: Vec<LintRecord>,
}

impl CertificateTable {
    /// Records that failed their expectation or cross-validation.
    #[must_use]
    pub fn failures(&self) -> Vec<&CertRecord> {
        self.records.iter().filter(|r| !r.pass).collect()
    }

    /// Count of records per verdict string, sorted by verdict.
    #[must_use]
    pub fn verdict_counts(&self) -> Vec<(String, usize)> {
        count_by(self.records.iter().map(|r| r.verdict.clone()))
    }

    /// Count of records per prover strategy, sorted by strategy.
    #[must_use]
    pub fn strategy_counts(&self) -> Vec<(String, usize)> {
        count_by(self.records.iter().map(|r| r.strategy.clone()))
    }
}

fn count_by(keys: impl Iterator<Item = String>) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for k in keys {
        match counts.iter_mut().find(|(name, _)| *name == k) {
            Some((_, n)) => *n += 1,
            None => counts.push((k, 1)),
        }
    }
    counts.sort();
    counts
}

json_struct! { CertificateTable { schema, records, lints } }

/// Lower one kernel's registry specs to the lint pass's IR.
fn lint_ir(reports: &[PhaseReport], kernel: &str) -> Vec<PhaseIr> {
    reports
        .iter()
        .filter(|r| r.spec.kernel == kernel)
        .map(|r| PhaseIr {
            kernel: r.spec.kernel.to_string(),
            phase: r.spec.phase.clone(),
            access: if r.spec.access == "st" { Access::Store } else { Access::Load },
            pattern: r.spec.pattern.clone(),
        })
        .collect()
}

/// Build the full certificate table: prover verdicts and lint findings
/// for every (profile, config, algorithm) in the lattice.
///
/// # Panics
/// Panics if a config is invalid for a profile's warp width (all shipped
/// profiles are 32-lane, all shipped configs are valid for them).
#[must_use]
pub fn build_certificate_table() -> CertificateTable {
    let mut records = Vec::new();
    let mut lints = Vec::new();
    for profile in device_profiles() {
        let shape = BankShape::of_device(&profile.device);
        for params in cert_configs() {
            params.validate(shape.banks);
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let reports = check_registry_on(algo, shape, params.e, params.u);
                for report in &reports {
                    records.push(CertRecord::from_report(&profile, shape, algo, params, report));
                }
                for kernel in ["blocksort", "merge-pass"] {
                    let ir = lint_ir(&reports, kernel);
                    let findings = lint_phases(
                        &ir,
                        shape.banks,
                        params.u / shape.banks,
                        params.tile(),
                        profile.device.shared_per_sm as usize,
                    );
                    lints.extend(findings.into_iter().map(|f| LintRecord {
                        profile: profile.name.to_string(),
                        algo: algo.label().to_string(),
                        e: params.e,
                        u: params.u,
                        lint: f.lint.to_string(),
                        kernel: f.kernel,
                        phase: f.phase,
                        message: f.message,
                    }));
                }
            }
        }
    }
    CertificateTable { schema: CERT_SCHEMA_VERSION, records, lints }
}

/// Registry-completeness audit: every phase class through which a
/// *profiled* run of either pipeline drives shared-memory traffic must
/// have a registry entry with a matching (kernel, class, direction) — so
/// a new kernel phase cannot ship without a pinned certificate.
///
/// Runs one small profiled sort per pipeline (4 tiles, enough to launch
/// the blocksort and at least one real merge pass) and returns a
/// description of every uncovered (kernel, class, direction).
#[must_use]
pub fn completeness_audit(params: SortParams) -> Vec<String> {
    use crate::analysis::kernel_registry;

    let mut gaps = Vec::new();
    let config = SortConfig::with_params(params);
    let n = 4 * params.tile();
    let input = InputSpec::RandomPermutation { seed: 0xCE27 }.generate(n);
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let registry = kernel_registry(algo, config.device.warp_width as usize, params.e, params.u);
        let covered = |kernel: &str, class: PhaseClass, access: &str| {
            registry.iter().any(|s| s.kernel == kernel && s.class == class && s.access == access)
        };
        let run = simulate_sort(&input, algo, &config);
        for kernel in &run.kernels {
            // merge-pass-0, merge-pass-1, … all share one registry key.
            let key =
                if kernel.name.starts_with("merge-pass") { "merge-pass" } else { "blocksort" };
            for class in PhaseClass::all() {
                let c = kernel.profile.phase(class);
                if c.shared_ld_requests > 0 && !covered(key, class, "ld") {
                    gaps.push(format!(
                        "{} ({}): {class:?} issues {} shared load requests but has no ld \
                         registry entry",
                        kernel.name,
                        algo.label(),
                        c.shared_ld_requests
                    ));
                }
                if c.shared_st_requests > 0 && !covered(key, class, "st") {
                    gaps.push(format!(
                        "{} ({}): {class:?} issues {} shared store requests but has no st \
                         registry entry",
                        kernel.name,
                        algo.label(),
                        c.shared_st_requests
                    ));
                }
            }
        }
    }
    gaps
}

/// Compare a freshly built table against a pinned one. Returns drift
/// descriptions: missing/extra lattice points, changed verdicts, new lint
/// findings, and — called out separately — points that regressed from a
/// decided verdict to `not-certifiable` (coverage loss).
#[must_use]
pub fn diff_tables(pinned: &CertificateTable, fresh: &CertificateTable) -> Vec<String> {
    let mut drift = Vec::new();
    if pinned.schema != fresh.schema {
        drift.push(format!("schema changed: {} → {}", pinned.schema, fresh.schema));
    }
    for p in &pinned.records {
        match fresh.records.iter().find(|f| f.key() == p.key()) {
            None => drift.push(format!("{}: lattice point disappeared", p.key())),
            Some(f) => {
                if f.verdict != p.verdict || f.worst_degree != p.worst_degree {
                    let mut msg = format!(
                        "{}: verdict changed {} (degree {}) → {} (degree {})",
                        p.key(),
                        p.verdict,
                        p.worst_degree,
                        f.verdict,
                        f.worst_degree
                    );
                    if f.verdict == "not-certifiable" && p.verdict != "not-certifiable" {
                        msg.push_str(" [COVERAGE LOSS: decided verdict became a refusal]");
                    }
                    drift.push(msg);
                } else if f.strategy != p.strategy {
                    drift.push(format!(
                        "{}: strategy changed {} → {}",
                        p.key(),
                        p.strategy,
                        f.strategy
                    ));
                } else if f.pass != p.pass {
                    drift.push(format!("{}: pass changed {} → {}", p.key(), p.pass, f.pass));
                }
            }
        }
    }
    for f in &fresh.records {
        if !pinned.records.iter().any(|p| p.key() == f.key()) {
            drift.push(format!("{}: new lattice point (re-pin the table)", f.key()));
        }
    }
    for l in &fresh.lints {
        if !pinned.lints.contains(l) {
            drift.push(format!(
                "new lint finding [{}] {}/{} on {}: {}",
                l.lint, l.kernel, l.phase, l.profile, l.message
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::{FromJson, ToJson};

    #[test]
    fn table_covers_every_profile_config_algo() {
        let table = build_certificate_table();
        for profile in device_profiles() {
            for params in cert_configs() {
                for algo in ["thrust", "cf-merge"] {
                    let n = table
                        .records
                        .iter()
                        .filter(|r| {
                            r.profile == profile.name
                                && r.e == params.e
                                && r.u == params.u
                                && r.algo == algo
                        })
                        .count();
                    assert!(
                        n >= 8,
                        "{}/{algo}/E{}/u{}: only {n} records",
                        profile.name,
                        params.e,
                        params.u
                    );
                }
            }
        }
        assert!(table.failures().is_empty(), "{:?}", table.failures());
        assert!(table.lints.is_empty(), "{:?}", table.lints);
    }

    #[test]
    fn table_json_roundtrip_is_exact() {
        let table = build_certificate_table();
        let json = table.to_json();
        let back = CertificateTable::from_json(&json).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.to_json().to_string_pretty(), json.to_string_pretty());
    }

    #[test]
    fn fused_profile_has_degraded_but_decided_verdicts() {
        let table = build_certificate_table();
        let kepler: Vec<_> =
            table.records.iter().filter(|r| r.profile == "kepler_64bit_like").collect();
        assert!(!kepler.is_empty());
        assert!(kepler.iter().all(|r| r.bank_word_u32s == 2));
        // The fused profile must contain *conflicting* verdicts the
        // 32-bit profiles certify free (E=15 strided phases), and every
        // record still passes its expectation.
        assert!(kepler.iter().any(|r| r.verdict == "conflicting" && r.e == 15));
        assert!(kepler.iter().all(|r| r.pass));
    }

    #[test]
    fn completeness_audit_is_clean_for_shipping_kernels() {
        for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
            let gaps = completeness_audit(params);
            assert!(gaps.is_empty(), "{gaps:?}");
        }
    }

    #[test]
    fn diff_detects_verdict_drift_and_coverage_loss() {
        let pinned = build_certificate_table();
        let mut fresh = pinned.clone();
        assert!(diff_tables(&pinned, &fresh).is_empty());
        let idx = fresh
            .records
            .iter()
            .position(|r| r.verdict == "conflict-free")
            .expect("some CF record");
        fresh.records[idx].verdict = "not-certifiable".into();
        fresh.records[idx].worst_degree = 0;
        let drift = diff_tables(&pinned, &fresh);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("COVERAGE LOSS"), "{drift:?}");
    }
}
