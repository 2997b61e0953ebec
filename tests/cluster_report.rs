//! Golden-file pin for the cluster report: a two-device cluster loses a
//! device mid-batch and every interrupted job must complete via
//! checkpoint migration — with zero corrupted outputs — and the report
//! (outcomes, counters, per-tenant SLOs, per-device summaries) must
//! serialize byte-for-byte to the committed golden file.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test cluster_report`
//! after an intentional schema change.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::RobustConfig;
use cfmerge::core::resilience::{
    ClusterConfig, ClusterService, DeviceFaultEvent, DeviceFaultKind, DeviceFaultPlan,
    ServiceCounters, SortJob,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig};
use cfmerge::core::verify::verify_sorted_permutation;
use cfmerge_json::{FromJson, Json, ToJson};

fn rcfg() -> RobustConfig {
    RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
}

/// The pinned batch: six jobs of mixed sizes from two tenants, all
/// submitted up front.
fn submit_batch(cluster: &mut ClusterService) -> Vec<Vec<u32>> {
    let params = SortParams::new(5, 32);
    let mut inputs = Vec::new();
    for (i, tiles) in [4usize, 8, 2, 6, 3, 8].iter().enumerate() {
        let n = tiles * params.tile() + i;
        let input = InputSpec::UniformRandom { seed: 0xC1_0C4A ^ ((i as u64) << 8) }.generate(n);
        let tenant = if i % 2 == 0 { "tenant-a" } else { "tenant-b" };
        let label = format!("golden/{tenant}/job-{i}");
        let job = SortJob::fresh(&label, input.clone(), SortAlgorithm::CfMerge);
        cluster.submit_at(tenant, Default::default(), 0.0, job);
        inputs.push(input);
    }
    inputs
}

#[test]
fn cluster_report_matches_golden_file() {
    // Pass 1 (fault-free): find when each device is mid-job so the kill
    // lands while both devices hold in-flight work. Deterministic, so
    // the derived crash time is as pinned as a literal.
    let mut probe = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
    submit_batch(&mut probe);
    let fault_free = probe.run();
    let victim = fault_free
        .outcomes
        .iter()
        .filter(|o| o.result.is_ok())
        .max_by(|a, b| a.completed_s.total_cmp(&b.completed_s))
        .expect("fault-free batch verifies");
    let exec_s = victim.result.as_ref().expect("ok").run.simulated_seconds;
    let crash_s = victim.completed_s - 0.5 * exec_s;
    let dead = victim.device.expect("ran on a device");

    // Pass 2: the same batch with the device killed mid-batch.
    let mut cfg = ClusterConfig::homogeneous(2, rcfg());
    cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
        at_s: crash_s,
        device: dead,
        kind: DeviceFaultKind::Crash,
    }]);
    let mut cluster = ClusterService::new(cfg);
    let inputs = submit_batch(&mut cluster);
    let report = cluster.run();

    // The scenario must actually exercise failover, and failover must be
    // lossless: every job verified, zero corrupted outputs, zero losses.
    assert!(report.counters.migrations >= 1, "the kill must interrupt in-flight work");
    assert_eq!(report.counters.device_crashes, 1);
    assert_eq!(report.counters.device_lost, 0, "migration must rescue every interrupted job");
    assert_eq!(report.counters.migrations_failed, 0);
    assert_eq!(report.counters.verified_ok, inputs.len() as u64);
    for (input, o) in inputs.iter().zip(&report.outcomes) {
        let run = o.result.as_ref().expect("every job completes");
        verify_sorted_permutation(input, &run.run.output)
            .unwrap_or_else(|f| panic!("{}: corrupted output after migration: {f}", o.label));
    }
    let migrated = report.outcomes.iter().find(|o| o.migrations > 0).expect("a migrated job");
    assert_ne!(migrated.device, Some(dead), "the migrated job finished on the survivor");

    let got = report.to_json().to_string_pretty();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cluster_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).expect("bless golden file");
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path}: {e} (run with UPDATE_GOLDEN=1 to create it)")
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "cluster report drifted from the golden file; if the change is\n\
         intentional, regenerate tests/golden/cluster_report.json"
    );

    // Round-trip: the counters embedded in the golden document parse
    // back, cluster-era fields included.
    let parsed = Json::parse(&want).expect("golden file parses");
    let counters =
        ServiceCounters::from_json(parsed.req("counters").unwrap()).expect("counters round-trip");
    assert_eq!(counters, report.counters);
    assert_eq!(counters.migrations, report.counters.migrations);
}
