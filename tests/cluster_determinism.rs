//! Determinism and parity properties for the multi-device cluster
//! service.
//!
//! 1. **Replay determinism** — for any (seed, traffic shape, device
//!    fault plan, admission policy), running the identical cluster twice
//!    yields a bit-identical report: same outcome order, same modeled
//!    completion times, same counters, same SLO percentiles, same
//!    serialized JSON. The workspace's rayon is the deterministic
//!    vendored shim (`vendor/rayon`), so available parallelism cannot
//!    perturb the event order either — the serialized-report equality
//!    here is what pins that contract.
//! 2. **Single-device parity** — with faults off, one device, and every
//!    arrival at `t = 0`, the cluster is bit-identical to `SortService`
//!    under every admission policy: outcomes, modeled clock, and
//!    counters.
//! 3. **Cross-queue eviction** — a bounded `RejectLargest` cluster evicts
//!    the largest queued job even when it sits on another device's
//!    queue.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{RobustConfig, SortService};
use cfmerge::core::resilience::{
    AdmissionConfig, ClusterConfig, ClusterReport, ClusterService, DeviceFaultPlan,
    DeviceFaultSpec, LoadGenConfig, MigrationConfig, Priority, ResilienceConfig, ShedPolicy,
    SortJob, TrafficShape,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig, SortError};
use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::ToJson;
use proptest::prelude::*;

fn rcfg() -> RobustConfig {
    RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
}

fn shape_strategy() -> impl Strategy<Value = TrafficShape> {
    (0u8..4, 5e4f64..2e5, 2usize..6).prop_map(|(kind, base_hz, burst_size)| match kind {
        0 => TrafficShape::Steady { rate_hz: 2.0 * base_hz },
        1 => TrafficShape::Diurnal { base_hz, peak_hz: 4.0 * base_hz, period_s: 1e-4 },
        2 => TrafficShape::Bursty { base_hz, burst_every_s: 5e-5, burst_size },
        _ => TrafficShape::WorstCaseFlood { rate_hz: 2.0 * base_hz },
    })
}

fn policy_strategy() -> impl Strategy<Value = AdmissionConfig> {
    (0u8..4, 2usize..6).prop_map(|(p, cap)| match p {
        0 => AdmissionConfig::default(),
        1 => AdmissionConfig::bounded(cap, ShedPolicy::RejectNewest),
        2 => AdmissionConfig::bounded(cap, ShedPolicy::RejectLargest),
        _ => AdmissionConfig::bounded(cap, ShedPolicy::DeadlineAware),
    })
}

fn build(
    seed: u64,
    devices: usize,
    shape: TrafficShape,
    admission: AdmissionConfig,
    fault_seed: u64,
    migration_enabled: bool,
) -> ClusterReport {
    let mut cfg = ClusterConfig::homogeneous(devices, rcfg());
    cfg.resilience.admission = admission;
    cfg.migration =
        if migration_enabled { MigrationConfig::default() } else { MigrationConfig::disabled() };
    // A seeded fault schedule over the whole traffic horizon: some draws
    // produce no faults at all, which is a case worth covering too.
    cfg.faults = DeviceFaultPlan::generate(
        fault_seed,
        devices,
        2e-4,
        &DeviceFaultSpec { events: 2, ..DeviceFaultSpec::default() },
    );
    let mut cluster = ClusterService::new(cfg);
    let gen = LoadGenConfig { shape, ..LoadGenConfig::steady(seed, 12, 1e5) };
    for req in gen.generate() {
        cluster.submit_request(req);
    }
    cluster.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: identical (seed, traffic, fault plan, policy) replay
    /// bit-identically — outcome order, counters, SLO percentiles, and
    /// the full serialized report.
    #[test]
    fn prop_cluster_reports_replay_bit_identically(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        devices in 1usize..4,
        shape in shape_strategy(),
        admission in policy_strategy(),
        migrate in any::<bool>(),
    ) {
        let a = build(seed, devices, shape, admission, fault_seed, migrate);
        let b = build(seed, devices, shape, admission, fault_seed, migrate);

        // Event order: per-job devices and completion times match 1:1.
        prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.device, y.device);
            prop_assert_eq!(x.completed_s, y.completed_s);
            prop_assert_eq!(x.migrations, y.migrations);
            prop_assert_eq!(x.result.is_ok(), y.result.is_ok());
        }
        prop_assert_eq!(&a.counters, &b.counters);
        prop_assert_eq!(&a.tenant_slos, &b.tenant_slos);
        prop_assert_eq!(a.clock_s, b.clock_s);
        prop_assert_eq!(a.to_json().to_string_pretty(), b.to_json().to_string_pretty());
        prop_assert_eq!(
            a.telemetry.to_json().to_string_pretty(),
            b.telemetry.to_json().to_string_pretty()
        );
    }
}

proptest! {
    // Cheap cases (one small device, at most nine jobs): enough of them
    // that every policy sees its queue overflow with tight and generous
    // deadlines queued.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 2: a fault-free N=1 cluster with all arrivals at t=0 is
    /// bit-identical to `SortService` for any job mix under any
    /// admission policy. Every third job carries a deadline, unreachable
    /// or generous by a seed bit, so deadline-aware shedding and
    /// deadline misses both occur.
    #[test]
    fn prop_single_device_cluster_matches_sort_service(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..6, 1..10),
        admission in policy_strategy(),
    ) {
        let params = SortParams::new(5, 32);
        let resilience = ResilienceConfig { admission, ..ResilienceConfig::default() };
        let mut svc = SortService::with_resilience(rcfg(), resilience);
        let mut cluster = ClusterService::new(ClusterConfig::single(rcfg(), resilience));
        for (i, tiles) in sizes.iter().enumerate() {
            let n = tiles * params.tile() + i % 5;
            let input =
                InputSpec::UniformRandom { seed: seed ^ ((i as u64) << 8) }.generate(n);
            let algo = if i % 2 == 0 {
                SortAlgorithm::CfMerge
            } else {
                SortAlgorithm::ThrustMergesort
            };
            let deadline_s =
                (i % 3 == 0).then(|| if (seed >> i) & 1 == 0 { 1e-15 } else { 1.0 });
            let label = format!("job-{i}");
            svc.submit_with_faults(&label, input.clone(), algo, FaultPlan::none(), deadline_s);
            let job = SortJob { deadline_s, ..SortJob::fresh(&label, input, algo) };
            cluster.submit_at("default", Priority::Interactive, 0.0, job);
        }
        let svc_out = svc.drain();
        let report = cluster.run();

        prop_assert_eq!(report.outcomes.len(), svc_out.len());
        for (c, s) in report.outcomes.iter().zip(&svc_out) {
            match (&c.result, &s.result) {
                (Ok(cr), Ok(sr)) => {
                    prop_assert_eq!(&cr.run.output, &sr.run.output);
                    prop_assert_eq!(cr.run.simulated_seconds, sr.run.simulated_seconds);
                }
                (Err(ce), Err(se)) => prop_assert_eq!(ce.to_string(), se.to_string()),
                _ => prop_assert!(false, "outcome class diverged"),
            }
        }
        prop_assert_eq!(report.clock_s, svc.clock_s());
        prop_assert_eq!(&report.counters, svc.counters());
    }
}

/// Two tenants homed on different devices of a 2-device cluster, every
/// arrival at t = 0, and a bounded `RejectLargest` queue: the largest
/// queued job waits on the *other* tenant's device, and it is the one
/// evicted, with the single-device service's reason string.
#[test]
fn reject_largest_evicts_across_device_queues() {
    let fnv = |s: &str| {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let (near, far) = ("tenant-a", "tenant-b");
    assert_ne!(fnv(near) % 2, fnv(far) % 2, "the two tenants must home on different devices");

    let mut cfg = ClusterConfig::homogeneous(2, rcfg());
    cfg.resilience.admission = AdmissionConfig::bounded(2, ShedPolicy::RejectLargest);
    let mut cluster = ClusterService::new(cfg);
    let tile = SortParams::new(5, 32).tile();
    let mut submit = |label: &str, tenant: &str, tiles: usize| {
        let input = InputSpec::UniformRandom { seed: tiles as u64 }.generate(tiles * tile);
        let job = SortJob::fresh(label, input, SortAlgorithm::CfMerge);
        cluster.submit_at(tenant, Priority::Interactive, 0.0, job)
    };
    let small = submit("small", near, 1);
    let big = submit("big", far, 8);
    let newcomer = submit("newcomer", near, 2);
    let report = cluster.run();

    let outcome = |id| report.outcomes.iter().find(|o| o.id == id).expect("every job has one");
    match &outcome(big).result {
        Err(SortError::Shed { policy, reason }) => {
            assert_eq!(*policy, "reject-largest");
            assert_eq!(
                reason,
                "evicted (1280 keys) for a newer 320-key job with the queue at capacity 2"
            );
        }
        other => panic!("the far device's big job must be evicted, got {other:?}"),
    }
    assert_eq!(outcome(big).device, None, "an evicted job never reaches a device");
    assert!(outcome(small).result.is_ok());
    assert!(outcome(newcomer).result.is_ok());
    assert_eq!(report.counters.shed_largest, 1);
    assert_eq!(report.counters.shed_overload, 0);
    assert_eq!((report.counters.submitted, report.counters.admitted), (3, 3));
    assert_eq!(report.counters.verified_ok, 2);
}
