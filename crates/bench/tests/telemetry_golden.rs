//! Golden-file and schema-migration tests for the unified telemetry
//! artifact.
//!
//! * The golden test pins the full `metrics_report` artifact byte for
//!   byte (`tests/golden/metrics_report.json` at the workspace root):
//!   every counter, every histogram bucket, every latency percentile is
//!   a pure function of the modeled execution, so any drift is either a
//!   deliberate model change (bless with `UPDATE_GOLDEN=1`) or a
//!   determinism regression (fix it).
//! * The migration test feeds a hand-written schema-v1 artifact — the
//!   format every file in `results/` used before the telemetry field
//!   existed — through today's parser and checks it loads, reports no
//!   telemetry, and re-serializes at the current schema version.

use cfmerge_bench::artifact::{RunArtifact, SCHEMA_VERSION};
use cfmerge_bench::sweep::{Series, SweepPoint};
use cfmerge_bench::telemetry_report;
use cfmerge_core::cert::CertificateTable;
use cfmerge_core::tuning::TuningTable;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::{FromJson, Json, ToJson};
use std::path::Path;

#[test]
fn metrics_report_matches_the_golden_file() {
    let report = telemetry_report::build();
    let got = report.artifact.to_json().to_string_pretty();
    let golden_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/metrics_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, format!("{got}\n")).expect("bless golden file");
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path}: {e} (run with UPDATE_GOLDEN=1 to create it)")
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "the telemetry artifact drifted from the golden file; if the change is\n\
         intentional, regenerate tests/golden/metrics_report.json with UPDATE_GOLDEN=1"
    );

    // The golden artifact parses back into an identical in-memory value.
    let reparsed = RunArtifact::from_json(&Json::parse(&want).expect("golden file is JSON"))
        .expect("golden artifact parses");
    assert_eq!(reparsed.to_json().to_string_pretty().trim_end(), got.trim_end());
    let snap = reparsed.telemetry.expect("golden artifact embeds telemetry");
    assert!(snap.histogram("service_job_latency_seconds").is_some());
}

/// A schema-v1 artifact as every binary wrote it before the telemetry
/// field existed: today's layout, minus the optional `telemetry` key,
/// stamped version 1 (version 2 only *added* that key).
fn v1_fixture() -> String {
    let mut art = RunArtifact::new("fig5", Device::rtx2080ti());
    art.schema_version = 1;
    art.series.push(Series {
        label: "thrust/worst-case(E=15)/E=15,u=512".into(),
        points: vec![SweepPoint {
            i: 9,
            n: 7680,
            seconds: 1.25e-5,
            throughput: 614.4,
            conflicts_per_round: 31.0,
            merge_conflicts: 12_345,
        }],
    });
    art.add_summary("speedup", Json::from(1.5));
    let text = art.to_json().to_string_pretty();
    assert!(!text.contains("telemetry"), "fixture must predate the telemetry key");
    text
}

#[test]
fn schema_v1_artifacts_still_parse_after_the_telemetry_bump() {
    let fixture = v1_fixture();
    let v1 = Json::parse(&fixture).expect("fixture is valid JSON");
    let art = RunArtifact::from_json(&v1).expect("v1 artifact must keep parsing");
    assert_eq!(art.tool, "fig5");
    assert_eq!(art.schema_version, 1, "the original version survives the load");
    assert!(art.telemetry.is_none(), "v1 predates telemetry");
    assert_eq!(art.series.len(), 1);
    assert_eq!(art.series[0].points[0].merge_conflicts, 12_345);

    // Round-trip is lossless: a v1 file rewritten without new telemetry
    // is still byte-for-byte a v1 file (no silent version churn).
    assert_eq!(art.to_json().to_string_pretty(), fixture);

    // Freshly written artifacts carry the current version.
    assert_eq!(RunArtifact::new("x", Device::rtx2080ti()).schema_version, SCHEMA_VERSION);
}

#[test]
fn every_pinned_results_artifact_parses() {
    // The pinned artifacts in results/ are the perf gate's baselines;
    // whatever schema vintage they are, today's loader must read them,
    // and its output must re-emit each file byte for byte (pretty JSON
    // plus the writer's trailing newline): the schema of every type
    // they contain is pinned, key order and omitted defaults included.
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("results/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "json")
            || path.to_string_lossy().contains("perfetto")
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let json =
            Json::parse(&text).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        let reemitted = match path.file_name().and_then(|n| n.to_str()) {
            // The tuning table is pinned raw (docs/CERTIFICATION.md
            // describes its schema); hold it to its own loader and its
            // own checksum.
            Some("tuning.json") => TuningTable::from_json(&json).map(|table| {
                table
                    .verify()
                    .unwrap_or_else(|e| panic!("{} checksum must verify: {e}", path.display()));
                table.to_json()
            }),
            // The certificate table has its own schema too.
            Some("certificates.json") => CertificateTable::from_json(&json).map(|t| t.to_json()),
            _ => RunArtifact::from_json(&json).map(|a| a.to_json()),
        }
        .unwrap_or_else(|e| panic!("{} must load: {e}", path.display()));
        assert!(
            format!("{}\n", reemitted.to_string_pretty()) == text,
            "{} does not re-emit byte for byte through its loader",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 22, "expected the pinned artifact set, found {checked}");
}
