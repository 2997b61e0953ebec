//! Per-layer probes for the traced run. Each probe calls one layer's
//! public function from outside on inputs generated like the workload's
//! own (same `(E, u)`, same seed, the workload's input kind) and reports
//! host time per call, per block or per key.
//!
//! Self times are derived outside-in: the layer's own call minus its
//! children called the same way on the same data. For the service and
//! the cluster the jobs carry no keys, so the driver underneath returns
//! at once and the difference resolves microseconds of per-job work
//! that a sort of real keys would bury in its run-to-run noise.

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{
    cluster_stats, sorted, InputKind, OpResult, Ops, Prepared, Rng, Scale, Workload,
};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::{
    simulate_sort_robust, simulate_sort_robust_checkpointed, RobustConfig, SortService,
};
use cfmerge_core::resilience::{
    CheckpointPolicy, ClusterConfig, ClusterRequest, ClusterService, Priority, ResilienceConfig,
    ServiceCounters, SortCheckpoint,
};
use cfmerge_core::sort::blocksort::{blocksort_block, MergeStrategy};
use cfmerge_core::sort::merge_pass::{merge_pass_block, MergeChunkJob};
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge_core::verify::{multiset_checksum, verify_sorted_permutation};
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_gpu_sim::profiler::PhaseClass;
use cfmerge_mergepath::partition::partition_merge;
use std::hint::black_box;
use std::time::Instant;

/// Probe effort per scale: tiles in the probe input (a power of two, so
/// the Theorem-8 builder accepts it), repetitions per timing (the median
/// is reported), and calls per repetition for sub-microsecond calls.
struct Effort {
    tiles: usize,
    reps: usize,
    calls: usize,
    /// Keyless jobs in the service and cluster probes of workloads that
    /// have no jobs of their own.
    jobs: usize,
}

/// Host seconds of one call of `f`.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Host seconds of `reps` calls of `f`, each on fresh state from `setup`,
/// which runs outside the timed window.
fn samples<S>(reps: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let mut state = setup();
            timed(|| f(&mut state))
        })
        .collect()
}

/// Median host seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&samples(reps, || (), |()| f()))
}

/// The catalogue's `'static` name for a metric built at run time.
fn catalogued(name: &str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| *m == name)
        .expect("every probe metric has a catalogue entry")
}

/// Each merge strategy with its metric label, its pipeline and that
/// pipeline's metric label.
const STRATEGIES: [(MergeStrategy, &str, SortAlgorithm, &str); 2] = [
    (MergeStrategy::DirectSerial, "serial", SortAlgorithm::ThrustMergesort, "thrust"),
    (MergeStrategy::Gather, "gather", SortAlgorithm::CfMerge, "cf"),
];

/// A layer's name and the probe that measures it.
type LayerProbe<'p> = (&'static str, &'p dyn Fn(&mut Prober));

struct Prober<'a> {
    p: &'a Prepared,
    effort: Effort,
    banks: BankModel,
    config: SortConfig,
    /// Probe inputs of `effort.tiles` tiles: Theorem-8 worst case and
    /// uniform random. `fig5_worst` probes on the former, the other
    /// workloads on the latter.
    worst: Vec<u32>,
    random: Vec<u32>,
    primary_is_worst: bool,
    metrics: Vec<(&'static str, f64)>,
    failures: Vec<String>,
}

/// Run every probe for the prepared workload, each inside a
/// `probe:<layer>` span. `first_rep` holds the ops of the workload's
/// first rep, whose counters feed the count metrics.
pub fn run(
    p: &Prepared,
    first_rep: &[OpResult],
    spans: &mut Spans,
    root: Option<usize>,
    trace_overhead_ratio: f64,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let effort = match p.scale {
        Scale::Full => Effort { tiles: 4, reps: 5, calls: 20_000, jobs: 32 },
        Scale::Smoke => Effort { tiles: 2, reps: 2, calls: 100, jobs: 4 },
    };
    let config = SortConfig::with_params(p.params);
    let n = effort.tiles * p.params.tile();
    let mut pr = Prober {
        p,
        banks: config.device.bank_model(),
        worst: InputSpec::worst_case(p.params).generate(n),
        random: InputSpec::UniformRandom { seed: Rng::new(p.seed, 0x9B0).next_u64() }.generate(n),
        primary_is_worst: p.workload == Workload::Fig5Worst,
        config,
        effort,
        metrics: Vec::new(),
        failures: Vec::new(),
    };
    let probes: [LayerProbe; 12] = [
        ("gpu_sim::banks", &|pr| pr.banks_probe()),
        ("gpu_sim::block", &|pr| pr.block_probe(first_rep)),
        ("core::sort::blocksort", &|pr| pr.blocksort_probe()),
        ("core::sort::merge_pass", &|pr| pr.merge_pass_probe()),
        ("mergepath::partition", &|pr| pr.partition_probe()),
        ("core::sort::pipeline", &|pr| pr.pipeline_probe(first_rep)),
        ("core::recovery", &|pr| pr.recovery_probe(first_rep)),
        ("core::verify", &|pr| pr.verify_probe()),
        ("core::resilience::checkpoint", &|pr| pr.checkpoint_probe()),
        ("core::resilience::service", &|pr| pr.service_probe(first_rep)),
        ("core::resilience::cluster", &|pr| pr.cluster_probe(first_rep)),
        ("core::inputs", &|pr| pr.inputs_probe()),
    ];
    for (layer, probe) in probes {
        let id = spans.open(&format!("probe:{layer}"), root);
        probe(&mut pr);
        spans.close(id);
    }
    pr.metrics.push(("trace_overhead_ratio", trace_overhead_ratio));
    (pr.metrics, pr.failures)
}

impl Prober<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(format!("probe: {what}"));
        }
    }

    fn primary(&self) -> &[u32] {
        if self.primary_is_worst {
            &self.worst
        } else {
            &self.random
        }
    }

    fn tile(&self) -> usize {
        self.p.params.tile()
    }

    fn banks_probe(&mut self) {
        let nvidia = BankModel::nvidia();
        let random: Vec<u32> = self.random.iter().take(32).map(|k| k % 4096).collect();
        let patterns: [(&'static str, BankModel, Vec<u32>); 5] = [
            ("banks.round_cost_ns.unit_stride", nvidia, (0..32).collect()),
            ("banks.round_cost_ns.broadcast", nvidia, vec![7; 32]),
            ("banks.round_cost_ns.random", nvidia, random),
            ("banks.round_cost_ns.same_bank", nvidia, (0..32).map(|i| i * 32).collect()),
            ("banks.round_cost_ns.row64", BankModel::with_word(32, 2), (0..32).collect()),
        ];
        let calls = self.effort.calls;
        for (name, model, addrs) in patterns {
            let s = time_median(self.effort.reps, || {
                for _ in 0..calls {
                    black_box(black_box(&model).round_cost(black_box(&addrs)).transactions);
                }
            });
            self.put(name, s * 1e9 / calls as f64);
        }
    }

    /// One 16-round store phase of a 512-thread block (construction
    /// untimed), block construction at the paper's tile, and the first
    /// rep's shared-memory counts per key.
    fn block_probe(&mut self, first_rep: &[OpResult]) {
        let (u, rounds) = (512usize, 16usize);
        let values: Vec<u32> = self.random.iter().cycle().take(u).copied().collect();
        let phase = samples(
            self.effort.reps * 3,
            || BlockSim::<u32>::new(BankModel::nvidia(), u, u * rounds),
            |block| {
                block.phase(PhaseClass::Other, |tid, lane| {
                    for r in 0..rounds {
                        lane.st(r * u + tid, values[tid]);
                    }
                });
            },
        );
        let (tile, batch) = (SortParams::e15_u512().tile(), 20);
        let new = time_median(self.effort.reps * 3, || {
            for _ in 0..batch {
                black_box(BlockSim::<u32>::new(BankModel::nvidia(), u, tile));
            }
        }) / batch as f64;
        self.put("block.phase_us.st_512x16", median(&phase) * 1e6);
        self.put("block.new_us.e15_u512", new * 1e6);
        let keys: u64 = first_rep.iter().map(|o| o.modeled_keys).sum::<u64>().max(1);
        let smem: u64 = first_rep.iter().map(|o| o.smem_requests).sum();
        let conflicts: u64 = first_rep.iter().map(|o| o.bank_conflicts).sum();
        self.put("block.smem_requests_per_key", smem as f64 / keys as f64);
        self.put("block.bank_conflicts_per_key", conflicts as f64 / keys as f64);
    }

    fn blocksort_probe(&mut self) {
        let (tile, e, u) = (self.tile(), self.p.params.e, self.p.params.u);
        let mut results = Vec::new();
        for (strategy, label, ..) in STRATEGIES {
            for (kind, data) in [("worst", &self.worst), ("random", &self.random)] {
                let src = &data[..tile];
                let mut dst = vec![0u32; tile];
                let s = time_median(self.effort.reps, || {
                    black_box(blocksort_block(self.banks, u, e, strategy, src, &mut dst, 0, true));
                });
                results.push((
                    format!("blocksort.us_per_block.{label}.{kind}"),
                    s,
                    dst == sorted(src),
                ));
            }
        }
        self.put_blocks(results, "blocksort_block output is not the sorted tile");
    }

    /// Record per-block timings `(metric, seconds, output ok)`.
    fn put_blocks(&mut self, results: Vec<(String, f64, bool)>, failure: &str) {
        for (name, s, ok) in results {
            self.check(ok, failure);
            self.put(catalogued(&name), s * 1e6);
        }
    }

    /// The first block of the first merge pass over two sorted tiles.
    fn merge_pass_probe(&mut self) {
        let (tile, e, u) = (self.tile(), self.p.params.e, self.p.params.u);
        let mut results = Vec::new();
        for (strategy, label, ..) in STRATEGIES {
            for (kind, data) in [("worst", &self.worst), ("random", &self.random)] {
                let (a, b) = (sorted(&data[..tile]), sorted(&data[tile..2 * tile]));
                let chunk = partition_merge(&a, &b, tile)[0];
                let job = MergeChunkJob {
                    a_begin: chunk.a_begin,
                    a_end: chunk.a_end,
                    b_begin: tile + chunk.b_begin,
                    b_end: tile + chunk.b_end,
                };
                let src = [a.as_slice(), b.as_slice()].concat();
                let mut dst = vec![0u32; tile];
                let s = time_median(self.effort.reps, || {
                    black_box(merge_pass_block(
                        self.banks, u, e, strategy, &src, job, &mut dst, true,
                    ));
                });
                let expect = sorted(
                    &[&a[chunk.a_begin..chunk.a_end], &b[chunk.b_begin..chunk.b_end]].concat(),
                );
                results.push((format!("merge_pass.us_per_block.{label}.{kind}"), s, dst == expect));
            }
        }
        self.put_blocks(results, "merge_pass_block output is not the merged chunk");
    }

    /// Nanoseconds per output key of one `partition_merge` over two
    /// sorted halves of the probe input.
    fn partition_probe(&mut self) {
        let half = self.primary().len() / 2;
        let (a, b) = (sorted(&self.primary()[..half]), sorted(&self.primary()[half..]));
        let (tile, calls) = (self.tile(), (self.effort.calls / 100).max(1));
        let s = time_median(self.effort.reps, || {
            for _ in 0..calls {
                black_box(partition_merge(black_box(&a), black_box(&b), tile));
            }
        });
        self.put("partition.ns_per_key", s * 1e9 / (calls * 2 * half) as f64);
    }

    /// `simulate_sort`'s children as it calls them: every tile through
    /// `blocksort_block`, then each merge pass partitioned by
    /// `partition_merge` and run block by block through
    /// `merge_pass_block`. `src.len()` must be a power-of-two number of
    /// tiles (no padding); the sorted keys end up in `src`.
    fn replay_children(&self, strategy: MergeStrategy, src: &mut Vec<u32>, dst: &mut Vec<u32>) {
        let (tile, e, u) = (self.tile(), self.p.params.e, self.p.params.u);
        let n = src.len();
        for (t, (s, d)) in src.chunks(tile).zip(dst.chunks_mut(tile)).enumerate() {
            black_box(blocksort_block(self.banks, u, e, strategy, s, d, t * tile, true));
        }
        std::mem::swap(src, dst);
        let mut width = tile;
        while width < n {
            {
                let mut out = dst.chunks_mut(tile);
                let s: &[u32] = src;
                for lo in (0..n).step_by(2 * width) {
                    let (a, b) = (&s[lo..lo + width], &s[lo + width..lo + 2 * width]);
                    for c in partition_merge(a, b, tile) {
                        let job = MergeChunkJob {
                            a_begin: lo + c.a_begin,
                            a_end: lo + c.a_end,
                            b_begin: lo + width + c.b_begin,
                            b_end: lo + width + c.b_end,
                        };
                        let chunk = out.next().expect("one output tile per merge block");
                        black_box(merge_pass_block(
                            self.banks, u, e, strategy, s, job, chunk, true,
                        ));
                    }
                }
            }
            std::mem::swap(src, dst);
            width *= 2;
        }
    }

    /// Pipeline self time per key: `simulate_sort` minus the replay of
    /// its children, timed in alternating order on the same input.
    fn pipeline_probe(&mut self, first_rep: &[OpResult]) {
        let input = self.primary().to_vec();
        let expect = sorted(&input);
        let n = input.len();
        for (strategy, _, algo, label) in STRATEGIES {
            let (mut diffs, mut ok) = (Vec::new(), true);
            for rep in 0..self.effort.reps {
                let (mut src, mut dst) = (input.clone(), vec![0u32; n]);
                let mut sorts = true;
                let mut whole =
                    || timed(|| sorts = simulate_sort(&input, algo, &self.config).output == expect);
                let mut children = || timed(|| self.replay_children(strategy, &mut src, &mut dst));
                // Alternate which side runs first so cache warmth favours
                // neither.
                let (whole_s, children_s) = if rep % 2 == 0 {
                    (whole(), children())
                } else {
                    let c = children();
                    (whole(), c)
                };
                ok &= sorts && src == expect;
                diffs.push(whole_s - children_s);
            }
            self.check(ok, "simulate_sort or its replayed children did not sort");
            let name = catalogued(&format!("pipeline.self_ns_per_key.{label}"));
            self.put(name, median(&diffs) * 1e9 / n as f64);
        }
        let launches: u64 = first_rep.iter().map(|o| o.launches).sum();
        let runs: u64 = first_rep.iter().map(|o| o.runs).sum();
        self.put("pipeline.launches_per_op", launches as f64 / runs.max(1) as f64);
    }

    /// Robust driver with no faults over the plain pipeline, per
    /// pipeline, timed in alternation; plus the first rep's recovery
    /// counters.
    fn recovery_probe(&mut self, first_rep: &[OpResult]) {
        let input = self.primary().to_vec();
        let rcfg = RobustConfig::new(self.config.clone());
        let none = FaultPlan::none();
        for (_, _, algo, label) in STRATEGIES {
            let (mut plain, mut robust) = (Vec::new(), Vec::new());
            for _ in 0..self.effort.reps {
                plain.push(timed(|| drop(black_box(simulate_sort(&input, algo, &self.config)))));
                robust.push(timed(|| {
                    drop(black_box(simulate_sort_robust(&input, algo, &rcfg, &none)))
                }));
            }
            let name = catalogued(&format!("recovery.overhead_ratio.{label}"));
            self.put(name, median(&robust) / median(&plain));
        }
        let runs: u64 = first_rep.iter().map(|o| o.runs).sum();
        let retries: u64 = first_rep.iter().map(|o| o.recovery.retries).sum();
        let detected: u64 = first_rep.iter().map(|o| o.recovery.faults_detected).sum();
        self.put("recovery.retries_per_job", retries as f64 / runs.max(1) as f64);
        self.put("recovery.faults_detected", detected as f64);
    }

    fn verify_probe(&mut self) {
        let input = self.primary().to_vec();
        let expect = sorted(&input);
        let n = input.len() as f64;
        let calls = 10;
        let checksum = time_median(self.effort.reps, || {
            for _ in 0..calls {
                black_box(multiset_checksum(black_box(&input)));
            }
        }) / calls as f64;
        let mut ok = true;
        let perm = time_median(self.effort.reps, || {
            ok &= verify_sorted_permutation(&input, &expect).is_ok();
        });
        self.check(ok, "verify_sorted_permutation rejected a sorted permutation");
        self.put("verify.checksum_ns_per_key", checksum * 1e9 / n);
        self.put("verify.permutation_ns_per_key", perm * 1e9 / n);
    }

    /// Checkpoint capture on every pass over the robust driver alone
    /// (CF-Merge, as in the cluster), timed in alternation; then capture
    /// and validation of the last checkpoint by themselves.
    fn checkpoint_probe(&mut self) {
        let input = self.primary().to_vec();
        let rcfg = RobustConfig::new(self.config.clone());
        let none = FaultPlan::none();
        let algo = SortAlgorithm::CfMerge;
        let (mut robust, mut ckpt, mut last) = (Vec::new(), Vec::new(), None);
        for _ in 0..self.effort.reps {
            robust
                .push(timed(|| drop(black_box(simulate_sort_robust(&input, algo, &rcfg, &none)))));
            ckpt.push(timed(|| {
                let run = simulate_sort_robust_checkpointed(
                    &input,
                    algo,
                    &rcfg,
                    &none,
                    CheckpointPolicy::every_pass(),
                );
                last = run.ok().and_then(|(_, mut taken)| taken.pop());
            }));
        }
        self.put("checkpoint.overhead_ratio", median(&ckpt) / median(&robust));
        let Some(cp) = last else {
            self.check(false, "every-pass checkpointing captured no checkpoint");
            self.put("checkpoint.capture_ns_per_key", 0.0);
            self.put("checkpoint.validate_ns_per_key", 0.0);
            return;
        };
        let state = cp.state_keys::<u32>();
        let n_pad = state.len() as f64;
        let capture = time_median(self.effort.reps, || {
            black_box(SortCheckpoint::capture::<u32>(
                &cp.algorithm,
                (cp.e, cp.u),
                cp.n,
                cp.width,
                cp.completed_passes,
                cp.seconds_so_far,
                cp.counters,
                cp.input_checksum,
                &state,
            ));
        });
        let mut ok = true;
        let validate = time_median(self.effort.reps, || ok &= cp.validate_as::<u32>().is_ok());
        self.check(ok, "a freshly captured checkpoint failed validation");
        self.put("checkpoint.capture_ns_per_key", capture * 1e9 / n_pad);
        self.put("checkpoint.validate_ns_per_key", validate * 1e9 / n_pad);
    }

    /// Keyless stand-in jobs for workloads without jobs of their own.
    fn keyless_jobs(&self) -> Vec<(String, SortAlgorithm, FaultPlan)> {
        (0..self.effort.jobs)
            .map(|k| {
                let algo = STRATEGIES[k % 2].2;
                (format!("probe-{k}/{}", algo.label()), algo, FaultPlan::none())
            })
            .collect()
    }

    /// Host seconds of the robust driver on `jobs` without keys.
    fn keyless_driver_s(&self, jobs: &[(SortAlgorithm, &FaultPlan)], rcfg: &RobustConfig) -> f64 {
        time_median(self.effort.reps, || {
            for &(algo, plan) in jobs {
                drop(black_box(simulate_sort_robust::<u32>(&[], algo, rcfg, plan)));
            }
        })
    }

    /// Service self time per job: the workload's job sequence (labels,
    /// pipelines, fault plans) through a fresh `SortService` as the same
    /// closed loop — submit, drain, next — without keys, minus the
    /// robust driver on the same keyless jobs.
    fn service_probe(&mut self, first_rep: &[OpResult]) {
        let (rcfg, resilience, jobs) = match &self.p.ops {
            Ops::Service { config, resilience, jobs } => (
                config.clone(),
                *resilience,
                jobs.iter().map(|j| (j.label.clone(), j.algo, j.plan.clone())).collect(),
            ),
            _ => (
                RobustConfig::new(self.config.clone()),
                ResilienceConfig::default(),
                self.keyless_jobs(),
            ),
        };
        let (mut counters, mut ok) = (ServiceCounters::default(), true);
        let svc = samples(
            self.effort.reps,
            || (SortService::with_resilience(rcfg.clone(), resilience), jobs.clone()),
            |(svc, batch)| {
                for (label, algo, plan) in std::mem::take(batch) {
                    svc.submit_with_faults(&label, Vec::new(), algo, plan, None);
                    ok &= svc.drain().iter().all(|o| o.result.is_ok());
                }
                counters = *svc.counters();
            },
        );
        self.check(ok, "a keyless service job failed");
        let plain: Vec<_> = jobs.iter().map(|(_, algo, plan)| (*algo, plan)).collect();
        let drv = self.keyless_driver_s(&plain, &rcfg);
        self.put("service.self_us_per_job", (median(&svc) - drv) * 1e6 / jobs.len() as f64);
        let c = match (&self.p.ops, first_rep.last().and_then(|o| o.service)) {
            (Ops::Service { .. }, Some(c)) => c,
            _ => counters,
        };
        self.put("service.admitted_ratio", c.admitted as f64 / c.submitted.max(1) as f64);
        self.put("service.verified_ratio", c.verified_ok as f64 / c.executed.max(1) as f64);
        self.put("service.breaker_trips", c.breaker_opens as f64);
    }

    /// Cluster self time per job: the workload's request stream (arrival
    /// times, tenants, priorities, device faults) through one `run()`
    /// without keys, minus the robust driver on the same keyless jobs.
    /// Workloads without a cluster use keyless jobs arriving at t = 0 on
    /// four devices, and take the cluster counters from a small run of
    /// the probe input.
    fn cluster_probe(&mut self, first_rep: &[OpResult]) {
        let (config, requests): (ClusterConfig, Vec<ClusterRequest>) = match &self.p.ops {
            Ops::Cluster { config, requests, .. } => (
                config.clone(),
                requests
                    .iter()
                    .map(|r| ClusterRequest { input: Vec::new(), ..r.clone() })
                    .collect(),
            ),
            _ => (
                ClusterConfig::homogeneous(4, RobustConfig::new(self.config.clone())),
                self.keyless_jobs()
                    .into_iter()
                    .map(|(label, algo, _)| ClusterRequest {
                        at_s: 0.0,
                        label,
                        tenant: "default".to_string(),
                        priority: Priority::Interactive,
                        input: Vec::new(),
                        algo,
                        deadline_s: None,
                    })
                    .collect(),
            ),
        };
        let mut ok = true;
        let run = samples(
            self.effort.reps,
            || {
                let mut cluster = ClusterService::new(config.clone());
                for r in &requests {
                    cluster.submit_request(r.clone());
                }
                cluster
            },
            |cluster| ok &= cluster.run().outcomes.iter().all(|o| o.result.is_ok()),
        );
        let none = FaultPlan::none();
        let plain: Vec<_> = requests.iter().map(|r| (r.algo, &none)).collect();
        let drv = self.keyless_driver_s(&plain, &config.devices[0]);
        self.put("cluster.self_us_per_job", (median(&run) - drv) * 1e6 / requests.len() as f64);
        let c = match (&self.p.ops, first_rep.first().and_then(|o| o.cluster)) {
            (Ops::Cluster { .. }, Some(c)) => c,
            _ => {
                let mut cluster = ClusterService::new(config.clone());
                for (label, algo, _) in self.keyless_jobs().into_iter().take(4) {
                    cluster.submit(&label, self.primary().to_vec(), algo);
                }
                let report = cluster.run();
                ok &= report.outcomes.iter().all(|o| o.result.is_ok());
                cluster_stats(&report)
            }
        };
        self.check(ok, "a probe cluster job failed");
        self.put("cluster.migrations", c.migrations as f64);
        self.put("cluster.verified_ratio", c.verified as f64 / c.jobs.max(1) as f64);
        self.put("cluster.modeled_p50_s", c.modeled_p50_s);
        self.put("cluster.modeled_p99_s", c.modeled_p99_s);
        self.put("cluster.lost_work_s", c.lost_work_s);
    }

    fn inputs_probe(&mut self) {
        let n = self.primary().len();
        let params = self.p.params;
        let seed = Rng::new(self.p.seed, 0x1A7).next_u64();
        let worst = time_median(self.effort.reps, || {
            black_box(InputKind::Worst.spec(params, seed, n).generate(n));
        });
        let uniform = time_median(self.effort.reps, || {
            black_box(InputKind::Uniform.spec(params, seed, n).generate(n));
        });
        self.put("inputs.worst_case_ns_per_key", worst * 1e9 / n as f64);
        self.put("inputs.uniform_ns_per_key", uniform * 1e9 / n as f64);
    }
}
