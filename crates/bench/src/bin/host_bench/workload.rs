//! The four seeded workloads: how each builds its inputs from the seed
//! (set-up), what one op is, and how each op's output is checked and
//! fingerprinted.
//!
//! An op is one call into a layer's public entry point, timed from
//! outside. A workload's ops form a fixed *rep*; the timed loop repeats
//! reps until the run's time is up, so every rep does identical work and
//! must reproduce the first rep's modeled outputs exactly.

use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::{pipeline_shape, RecoveryCounters, RobustConfig, SortService};
use cfmerge_core::resilience::{
    BreakerConfig, ClusterConfig, ClusterReport, ClusterRequest, ClusterService, DeviceFaultEvent,
    DeviceFaultKind, DeviceFaultPlan, LoadGenConfig, ResilienceConfig, RetryBudgetConfig,
    ServiceCounters, TrafficShape,
};
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig, SortRun};
use cfmerge_gpu_sim::fault::{FaultPlan, FaultSpec};
use cfmerge_json::ToJson;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Worst,
    ThrustRandom,
    ServiceClosed,
    ClusterFailover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Worst,
        Workload::ThrustRandom,
        Workload::ServiceClosed,
        Workload::ClusterFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Worst => "fig5_worst",
            Workload::ThrustRandom => "thrust_random",
            Workload::ServiceClosed => "service_closed",
            Workload::ClusterFailover => "cluster_failover",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full scale is the measured benchmark; smoke scale runs the same code
/// paths on tiny tiles in well under a second, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Fig. 5: `(E, u)` and the sizes in tiles. At full scale the tile is
    /// 7680 keys, so 4…256 tiles are the paper's `n = 2^i·E`,
    /// `i ∈ {11, 13, 15, 17}`.
    fn fig5(self) -> (SortParams, [usize; 4]) {
        match self {
            Scale::Full => (SortParams::e15_u512(), [4, 16, 64, 256]),
            Scale::Smoke => (SortParams::new(5, 32), [1, 2, 4, 8]),
        }
    }

    /// Thrust's shipped `(E, u)` and the input size in tiles
    /// (`n = 2^14·17` at full scale).
    fn thrust(self) -> (SortParams, usize) {
        match self {
            Scale::Full => (SortParams::e17_u256(), 64),
            Scale::Smoke => (SortParams::new(7, 32), 8),
        }
    }

    /// Service: `(E, u)`, jobs per rep, largest job in tiles.
    fn service(self) -> (SortParams, usize, usize) {
        match self {
            Scale::Full => (SortParams::e15_u512(), 200, 8),
            Scale::Smoke => (SortParams::new(5, 32), 24, 4),
        }
    }

    /// Cluster: `(E, u)`, jobs per run, and the smallest and largest job
    /// in tiles — the load generator's default 2–3 keeps a run near 3 s,
    /// so the measuring window holds several.
    fn cluster(self) -> (SortParams, usize, (usize, usize)) {
        match self {
            Scale::Full => (SortParams::e15_u512(), 120, (2, 3)),
            Scale::Smoke => (SortParams::new(5, 32), 32, (1, 3)),
        }
    }
}

/// SplitMix64 over a seed and a per-use salt, so each workload draws an
/// independent stream from the one `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a-64, the modeled-output fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Modeled output of one sort: its modeled seconds and its profile.
    fn sort_run(&mut self, run: &SortRun) {
        self.u64(run.simulated_seconds.to_bits());
        self.str(&run.profile.to_json().to_string_compact());
    }
}

/// `std`'s `sort_unstable` of `keys`: the reference every sort is checked
/// against.
pub fn sorted(keys: &[u32]) -> Vec<u32> {
    let mut v = keys.to_vec();
    v.sort_unstable();
    v
}

/// An input and the result every op's output must equal.
pub struct Keys {
    pub input: Vec<u32>,
    pub expect: Vec<u32>,
}

impl Keys {
    fn new(input: Vec<u32>) -> Self {
        Self { expect: sorted(&input), input }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    Worst,
    Uniform,
    FewDistinct,
    NearlySorted,
    Permutation,
}

impl InputKind {
    pub fn spec(self, params: SortParams, seed: u64, n: usize) -> InputSpec {
        match self {
            InputKind::Worst => InputSpec::worst_case(params),
            InputKind::Uniform => InputSpec::UniformRandom { seed },
            InputKind::FewDistinct => InputSpec::FewDistinct { seed, distinct: 16 },
            InputKind::NearlySorted => InputSpec::NearlySorted { seed, swaps: n / 100 },
            InputKind::Permutation => InputSpec::RandomPermutation { seed },
        }
    }
}

/// One `service_closed` job before its input exists: cheap to build, so
/// tests can check the sizing rules at full scale.
#[derive(Debug, Clone)]
pub struct JobPlan {
    pub tiles: usize,
    pub tail: usize,
    pub kind: InputKind,
    pub algo: SortAlgorithm,
    pub input_seed: u64,
    pub fault_seed: Option<u64>,
}

impl JobPlan {
    pub fn n(&self, params: SortParams) -> usize {
        self.tiles * params.tile() + self.tail
    }
}

/// The `chaos sweep` fault mix with every site recoverable.
const RECOVERABLE_FAULTS: FaultSpec =
    FaultSpec { sites: 3, max_phase: 6, sticky_permille: 150, permanent_permille: 0, spikes: true };

/// The `service_closed` job list. Job shapes follow a fixed pattern:
/// sizes cycle through 1…max tiles; pipelines alternate job by job,
/// flipping phase every cycle so each size runs on both; one job in 4
/// has a short ragged tail, one in 8 runs on Theorem-8 worst-case input
/// and one in 8 carries a recoverable fault plan. The seed draws the keys
/// and tail lengths. Fault plans are seeded by job index instead: what a
/// fault costs (a retried block, or a fallback that reruns the sort on
/// Thrust) depends on where it fires, and a fixed schedule keeps the
/// slowest jobs, and so the tail, the same for every seed.
pub fn service_plan(scale: Scale, seed: u64) -> Vec<JobPlan> {
    let (_, jobs, max_tiles) = scale.service();
    let mut rng = Rng::new(seed, 0x5E41);
    (0..jobs)
        .map(|i| {
            let cycle = i / max_tiles;
            let tiles = 1 + i % max_tiles;
            let (tail, input_seed) = (1 + rng.below(7), rng.next_u64());
            let (tiles, tail, kind) = if i % 8 == 3 {
                // `WorstCaseBuilder::build` accepts only n = tile·2^k:
                // round down to a power of two and drop the tail.
                (1 << tiles.ilog2(), 0, InputKind::Worst)
            } else {
                let kind = [
                    InputKind::Uniform,
                    InputKind::FewDistinct,
                    InputKind::NearlySorted,
                    InputKind::Permutation,
                ][(i + cycle) % 4];
                (tiles, if i % 4 == 1 { tail } else { 0 }, kind)
            };
            let cf_first = (i + cycle) % 2 == 0;
            JobPlan {
                tiles,
                tail,
                kind,
                algo: if cf_first {
                    SortAlgorithm::CfMerge
                } else {
                    SortAlgorithm::ThrustMergesort
                },
                input_seed,
                fault_seed: (i % 8 == 6).then(|| Rng::new(i as u64, 0xFA17).next_u64()),
            }
        })
        .collect()
}

/// Burst spacing of the `cluster_failover` traffic, in modeled seconds.
const BURST_EVERY_S: f64 = 1e-3;

/// The `cluster_failover` traffic: bursts of 12 every 1 ms on a 2e4 Hz
/// background, three tenants. The schedule (arrivals, tenants,
/// priorities, sizes) is the same for every seed: which jobs the crash
/// interrupts, and so how much work migrates and reruns, depends on it,
/// and a fixed one keeps the work per run the same across seeds.
/// [`cluster_requests`] draws the keys from the seed.
fn cluster_load(scale: Scale) -> LoadGenConfig {
    let (params, jobs, (min_tiles, max_tiles)) = scale.cluster();
    LoadGenConfig {
        shape: TrafficShape::Bursty { base_hz: 2e4, burst_every_s: BURST_EVERY_S, burst_size: 12 },
        jobs,
        tenants: vec!["tenant-a".into(), "tenant-b".into(), "tenant-c".into()],
        seed: Rng::new(1, 0xC1u64).next_u64(),
        params,
        min_tiles,
        max_tiles,
        interactive_deadline_s: None,
    }
}

/// The `cluster_failover` request stream: [`cluster_load`]'s schedule
/// with every job's keys drawn from `seed`, input kinds cycling job by
/// job.
fn cluster_requests(load: &LoadGenConfig, seed: u64) -> Vec<ClusterRequest> {
    let mut rng = Rng::new(seed, 0xC1u64);
    let kinds = [
        InputKind::Uniform,
        InputKind::FewDistinct,
        InputKind::NearlySorted,
        InputKind::Permutation,
    ];
    let mut requests = load.generate();
    for (i, r) in requests.iter_mut().enumerate() {
        let n = r.input.len();
        r.input = kinds[i % kinds.len()].spec(load.params, rng.next_u64(), n).generate(n);
    }
    requests
}

/// Device 1 crashes 1 µs after the second burst lands — every device is
/// busy then, so the crash interrupts running work without an aiming
/// pre-pass — and restarts 1 ms later.
fn cluster_faults() -> DeviceFaultPlan {
    DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
        at_s: BURST_EVERY_S + 1e-6,
        device: 1,
        kind: DeviceFaultKind::CrashWithRestart { cooldown_s: 1e-3 },
    }])
}

pub enum Ops {
    /// Plain `simulate_sort` calls: `(input index, pipeline)`.
    Sorts { config: SortConfig, inputs: Vec<Keys>, ops: Vec<(usize, SortAlgorithm)> },
    /// One closed-loop client: each op submits one job and drains it.
    Service { config: RobustConfig, resilience: ResilienceConfig, jobs: Vec<ServiceJob> },
    /// Each op is one `ClusterService::run` over the whole request stream.
    Cluster { config: ClusterConfig, requests: Vec<ClusterRequest>, expects: Vec<Vec<u32>> },
}

pub struct ServiceJob {
    pub label: String,
    pub keys: Keys,
    pub algo: SortAlgorithm,
    pub plan: FaultPlan,
}

/// A workload after set-up: everything the timed loop needs, generated
/// from the seed.
pub struct Prepared {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// The `(E, u)` the workload's ops run at.
    pub params: SortParams,
    pub ops: Ops,
}

/// Build a workload's inputs, reference outputs, fault plans and load
/// stream. This is what `setup_s` times.
pub fn setup(workload: Workload, scale: Scale, seed: u64) -> Prepared {
    let (params, ops) = match workload {
        Workload::Fig5Worst => {
            // The Theorem-8 construction is deterministic: the seed does
            // not change this workload's inputs.
            let (params, tiles) = scale.fig5();
            let inputs: Vec<Keys> = tiles
                .iter()
                .map(|t| Keys::new(InputSpec::worst_case(params).generate(t * params.tile())))
                .collect();
            let ops = (0..inputs.len())
                .flat_map(|i| [(i, SortAlgorithm::ThrustMergesort), (i, SortAlgorithm::CfMerge)])
                .collect();
            (params, Ops::Sorts { config: SortConfig::with_params(params), inputs, ops })
        }
        Workload::ThrustRandom => {
            let (params, tiles) = scale.thrust();
            let n = tiles * params.tile();
            let mut rng = Rng::new(seed, 0x7A2);
            let inputs: Vec<Keys> =
                [InputKind::Uniform, InputKind::FewDistinct, InputKind::NearlySorted]
                    .iter()
                    .map(|k| Keys::new(k.spec(params, rng.next_u64(), n).generate(n)))
                    .collect();
            let ops = (0..inputs.len()).map(|i| (i, SortAlgorithm::ThrustMergesort)).collect();
            (params, Ops::Sorts { config: SortConfig::with_params(params), inputs, ops })
        }
        Workload::ServiceClosed => {
            let (params, ..) = scale.service();
            let jobs = service_plan(scale, seed)
                .into_iter()
                .enumerate()
                .map(|(i, job)| {
                    let n = job.n(params);
                    let plan = job.fault_seed.map_or_else(FaultPlan::none, |s| {
                        FaultPlan::generate(s, &pipeline_shape(n, &params), &RECOVERABLE_FAULTS)
                    });
                    ServiceJob {
                        label: format!("job-{i}/{}", job.algo.label()),
                        keys: Keys::new(job.kind.spec(params, job.input_seed, n).generate(n)),
                        algo: job.algo,
                        plan,
                    }
                })
                .collect();
            let resilience = ResilienceConfig {
                breaker: BreakerConfig { enabled: true, failure_threshold: 3, cooldown_s: 1e-4 },
                retry_budget: RetryBudgetConfig { capacity: Some(8.0), refill_per_second: 1e4 },
                ..ResilienceConfig::default()
            };
            let config = RobustConfig::new(SortConfig::with_params(params));
            (params, Ops::Service { config, resilience, jobs })
        }
        Workload::ClusterFailover => {
            let load = cluster_load(scale);
            let mut config = ClusterConfig::homogeneous(
                4,
                RobustConfig::new(SortConfig::with_params(load.params)),
            );
            config.faults = cluster_faults();
            let requests = cluster_requests(&load, seed);
            let expects = requests.iter().map(|r| sorted(&r.input)).collect();
            (load.params, Ops::Cluster { config, requests, expects })
        }
    };
    Prepared { workload, scale, seed, params, ops }
}

/// What one op did, measured from outside.
#[derive(Debug, Default)]
pub struct OpResult {
    pub host_s: f64,
    /// Keys the op sorted (over all its jobs).
    pub keys: u64,
    pub smem_requests: u64,
    pub bank_conflicts: u64,
    /// Kernel launches and sort runs, for launches per run.
    pub launches: u64,
    pub runs: u64,
    /// Modeled seconds and keys of the op's verified sorts.
    pub modeled_s: f64,
    pub modeled_keys: u64,
    pub failure: Option<String>,
    pub fingerprint: u64,
    /// The op's timed calls into the layer, `(span name, start, end)`.
    pub calls: Vec<(&'static str, Instant, Instant)>,
    pub recovery: RecoveryCounters,
    /// The service's counters after this op (service ops only).
    pub service: Option<ServiceCounters>,
    pub cluster: Option<ClusterStats>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    pub jobs: u64,
    pub verified: u64,
    pub migrations: u64,
    pub modeled_p50_s: f64,
    pub modeled_p99_s: f64,
    pub lost_work_s: f64,
}

pub fn cluster_stats(report: &ClusterReport) -> ClusterStats {
    let all = report.tenant_slos.iter().find(|s| s.tenant == "all");
    ClusterStats {
        jobs: report.outcomes.len() as u64,
        verified: report.outcomes.iter().filter(|o| o.result.is_ok()).count() as u64,
        migrations: report.counters.migrations,
        modeled_p50_s: all.map_or(0.0, |s| s.p50_s),
        modeled_p99_s: all.map_or(0.0, |s| s.p99_s),
        lost_work_s: report.lost_work_s,
    }
}

impl OpResult {
    fn account(&mut self, run: &SortRun, expect: &[u32]) {
        let total = run.profile.total();
        self.smem_requests += total.shared_requests();
        self.bank_conflicts += total.bank_conflicts();
        self.launches += run.kernels.len() as u64;
        self.runs += 1;
        self.modeled_s += run.simulated_seconds;
        self.modeled_keys += run.n as u64;
        if run.output != expect {
            self.fail("output is not the sorted input".to_string());
        }
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

/// Per-rep state: the closed-loop client talks to one fresh service per
/// rep, so every rep replays the same job sequence from the same state.
pub struct Rep {
    service: Option<SortService>,
}

impl Prepared {
    pub fn ops_per_rep(&self) -> usize {
        match &self.ops {
            Ops::Sorts { ops, .. } => ops.len(),
            Ops::Service { jobs, .. } => jobs.len(),
            Ops::Cluster { .. } => 1,
        }
    }

    pub fn new_rep(&self) -> Rep {
        let service = match &self.ops {
            Ops::Service { config, resilience, .. } => {
                Some(SortService::with_resilience(config.clone(), *resilience))
            }
            _ => None,
        };
        Rep { service }
    }

    /// One untimed op before timing starts: the op with the most keys, so
    /// the first rep does not pay for growing the heap to the largest
    /// buffers, or for the cluster a run over the first burst only.
    pub fn warm_up(&self) {
        let largest = |keys: &dyn Fn(usize) -> usize| {
            (0..self.ops_per_rep()).max_by_key(|&i| keys(i)).unwrap_or(0)
        };
        let op = match &self.ops {
            Ops::Sorts { inputs, ops, .. } => largest(&|i| inputs[ops[i].0].input.len()),
            Ops::Service { jobs, .. } => largest(&|i| jobs[i].keys.input.len()),
            Ops::Cluster { config, requests, .. } => {
                let mut cluster = ClusterService::new(config.clone());
                for r in requests.iter().take(12) {
                    cluster.submit_request(r.clone());
                }
                let _ = cluster.run();
                return;
            }
        };
        let _ = self.run_op(&mut self.new_rep(), op);
    }

    /// Run op `i` of a rep, timing only the calls into the layer. Inputs
    /// are copied before the clock starts and outputs checked after it
    /// stops.
    pub fn run_op(&self, rep: &mut Rep, i: usize) -> OpResult {
        let mut r = OpResult::default();
        let mut fp = Fnv::default();
        match &self.ops {
            Ops::Sorts { config, inputs, ops } => {
                let (idx, algo) = ops[i];
                let keys = &inputs[idx];
                let t0 = Instant::now();
                let run = simulate_sort(&keys.input, algo, config);
                let t1 = Instant::now();
                r.calls.push(("op:simulate_sort", t0, t1));
                r.host_s = (t1 - t0).as_secs_f64();
                r.keys = keys.input.len() as u64;
                r.account(&run, &keys.expect);
                fp.sort_run(&run);
            }
            Ops::Service { jobs, .. } => {
                let job = &jobs[i];
                let svc = rep.service.as_mut().expect("service reps carry a service");
                let (input, plan) = (job.keys.input.clone(), job.plan.clone());
                let t0 = Instant::now();
                svc.submit_with_faults(&job.label, input, job.algo, plan, None);
                let t1 = Instant::now();
                let outcome = svc.drain().pop().expect("one job submitted, one outcome");
                let t2 = Instant::now();
                r.calls.push(("op:SortService::submit_with_faults", t0, t1));
                r.calls.push(("op:SortService::drain", t1, t2));
                r.host_s = (t2 - t0).as_secs_f64();
                r.keys = job.keys.input.len() as u64;
                r.recovery = outcome.counters();
                match &outcome.result {
                    Ok(run) => {
                        r.account(&run.run, &job.keys.expect);
                        fp.sort_run(&run.run);
                        fp.str(run.algorithm.label());
                        fp.str(&run.report.counters.to_json().to_string_compact());
                    }
                    Err(e) => {
                        r.fail(format!("{}: {e}", job.label));
                        fp.str(&e.to_string());
                    }
                }
                fp.u64(u64::from(outcome.quarantined) | u64::from(outcome.probe) << 1);
                fp.str(&svc.counters().to_json().to_string_compact());
                r.service = Some(*svc.counters());
            }
            Ops::Cluster { config, requests, expects } => {
                let mut cluster = ClusterService::new(config.clone());
                for req in requests {
                    cluster.submit_request(req.clone());
                }
                let t0 = Instant::now();
                let report = cluster.run();
                let t1 = Instant::now();
                r.calls.push(("op:ClusterService::run", t0, t1));
                r.host_s = (t1 - t0).as_secs_f64();
                r.keys = requests.iter().map(|q| q.input.len() as u64).sum();
                for (o, expect) in report.outcomes.iter().zip(expects) {
                    match &o.result {
                        Ok(run) => {
                            r.recovery.merge(&run.report.counters);
                            r.account(&run.run, expect);
                        }
                        Err(e) => r.fail(format!("{}: {e}", o.label)),
                    }
                }
                if report.counters.migrations == 0 {
                    r.fail(
                        "the crash caused no checkpoint migration: workload invalid".to_string(),
                    );
                }
                r.cluster = Some(cluster_stats(&report));
                fp.str(&report.to_json().to_string_compact());
            }
        }
        r.fingerprint = fp.0;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Theorem-8 builder panics unless n = tile·2^k; every worst-case
    /// job the generators plan must have that shape, at both scales.
    #[test]
    fn worst_case_jobs_are_tile_times_power_of_two() {
        for scale in [Scale::Full, Scale::Smoke] {
            let (params, ..) = scale.service();
            for seed in 1..=4 {
                let plan = service_plan(scale, seed);
                assert!(plan.iter().any(|j| j.kind == InputKind::Worst));
                for job in plan.iter().filter(|j| j.kind == InputKind::Worst) {
                    let n = job.n(params);
                    assert!(
                        job.tail == 0 && job.tiles.is_power_of_two(),
                        "{scale:?} seed {seed}: {n}"
                    );
                }
            }
        }
    }

    /// Every workload's op list builds at smoke scale for seeds 1–4
    /// (this runs the worst-case builder on every planned size).
    #[test]
    fn every_workload_sets_up_at_smoke_scale() {
        for seed in 1..=4 {
            for w in Workload::ALL {
                let p = setup(w, Scale::Smoke, seed);
                assert!(p.ops_per_rep() > 0, "{}", w.name());
            }
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.str("a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.str("foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
