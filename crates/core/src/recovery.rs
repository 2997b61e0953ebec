//! The one sort pipeline driver, with verified recovery and graceful
//! degradation, plus the batch [`SortService`] front-end.
//!
//! Every sort entry point runs the same driver: it pads the input, runs
//! the block sort, partitions and prices each merge pass, and sums the
//! launches. It verifies every block's output (sortedness + multiset
//! checksum, see [`crate::verify`]) and recovers from failures at block
//! granularity:
//!
//! 1. **Retry**: a block whose output fails verification is re-executed
//!    up to [`RobustConfig::max_retries`] times. Each retry is priced in
//!    the timing model (the failed execution's profile becomes an extra
//!    launch) plus exponential backoff
//!    (`retry_backoff_s · 2^(r−1)` for retry `r`).
//! 2. **Fallback**: a block that keeps failing — or a configuration that
//!    cannot launch at all — degrades to the Thrust-style pipeline
//!    (substituting Thrust's shipped `(E, u)` when the requested shape is
//!    unlaunchable). Every degradation is reported in the
//!    [`RecoveryReport`]; nothing degrades silently.
//! 3. **Typed failure**: a fault that survives both retries and fallback
//!    (a [`Persistence::Permanent`](cfmerge_gpu_sim::fault::Persistence)
//!    site) surfaces as
//!    [`SortError::UnrecoverableFault`] — never as silently corrupt
//!    output.
//!
//! The plain entry points ([`crate::sort::pipeline::simulate_sort`] and
//! its `try_`, `_traced` and `_checked` variants) are this driver under a
//! fixed policy: an empty [`FaultPlan`], no retries, no fallback, no
//! hedging and no checkpoints. Verification stays on, so a plain block
//! that fails it is a simulator bug and surfaces as a typed error. With
//! an empty plan the robust entry points therefore produce bit-identical
//! output, profile, and modeled seconds to the plain ones. A block whose
//! plan arms no fault site runs under `NoFaults`, at the plain kernels'
//! speed.
//!
//! See `docs/ROBUSTNESS.md` for the full design.

use crate::params::SortParams;
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::hedge::{HedgeConfig, HedgeCounters};
use crate::sort::blocksort::blocksort_block_faulty;
use crate::sort::error::{validate_sort_config, Degradation, SortError};
use crate::sort::key::SortKey;
use crate::sort::merge_pass::{merge_pass_block_faulty, MergeChunkJob};
use crate::sort::pipeline::{KernelReport, SortAlgorithm, SortConfig, SortRun};
use crate::verify::{multiset_checksum, verify_sorted_checksum, VerifyFailure};
use cfmerge_gpu_sim::check::{MemCheck, NoCheck};
use cfmerge_gpu_sim::fault::{BlockFaults, FaultInjector, FaultPlan, InjectionRecord, NoFaults};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_gpu_sim::trace::{NullTracer, Tracer};
use cfmerge_json::{FromJson, Json, JsonError, ToJson};
use cfmerge_mergepath::diagonal::merge_path_steps;
use cfmerge_mergepath::partition::partition_merge;
use rayon::prelude::*;

// The batch service moved to `crate::resilience::service` when it grew
// admission control, retry budgets, and circuit breakers; re-exported
// here so existing `recovery::SortService` paths keep working.
pub use crate::resilience::service::{aggregate_counters, JobId, JobOutcome, SortService};

/// Configuration of the robust driver: the underlying sort configuration
/// plus the recovery policy.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The sort configuration (parameters, device, timing model).
    pub base: SortConfig,
    /// Re-executions permitted per block before the driver gives up on
    /// retrying (0 = verify once, never retry).
    pub max_retries: u32,
    /// Backoff charged before retry `r` (1-based): `retry_backoff_s ·
    /// 2^(r−1)` modeled seconds.
    pub retry_backoff_s: f64,
    /// Whether the driver may degrade to the fallback pipeline when
    /// retries are exhausted or the requested configuration cannot
    /// launch. With `false`, those cases are typed errors.
    pub allow_fallback: bool,
    /// Straggler-hedging policy (disabled by default — fault-free runs
    /// stay bit-identical either way, because a launch with no latency
    /// spikes has no stragglers).
    pub hedge: HedgeConfig,
}

impl RobustConfig {
    /// Default policy around a sort configuration: 2 retries, 1 µs base
    /// backoff, fallback permitted, hedging off.
    #[must_use]
    pub fn new(base: SortConfig) -> Self {
        Self {
            base,
            max_retries: 2,
            retry_backoff_s: 1e-6,
            allow_fallback: true,
            hedge: HedgeConfig::default(),
        }
    }
}

/// Scalar recovery counters, designed to fold into run artifacts so CI
/// can assert "N faults injected, N detected, N recovered".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Fault injections that actually fired (all kinds, spikes included).
    pub faults_injected: u64,
    /// Block verification failures observed (each failed attempt counts).
    pub faults_detected: u64,
    /// Distinct block executions that needed at least one retry.
    pub blocks_retried: u64,
    /// Total extra block executions (failed attempts that were re-run).
    pub retries: u64,
    /// Pipeline-level fallbacks taken.
    pub fallbacks: u64,
    /// Jobs that ended in [`SortError::UnrecoverableFault`] (only nonzero
    /// in service-level aggregates — a run that returns `Ok` recovered
    /// everything it detected).
    pub unrecovered: u64,
    /// Hedged duplicate executions launched for straggling blocks.
    pub hedges_launched: u64,
    /// Hedges whose duplicate beat the straggler.
    pub hedges_won: u64,
}

impl RecoveryCounters {
    /// Fold `other` into `self` field by field.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.blocks_retried += other.blocks_retried;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.unrecovered += other.unrecovered;
        self.hedges_launched += other.hedges_launched;
        self.hedges_won += other.hedges_won;
    }
}

impl ToJson for RecoveryCounters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("faults_injected", Json::from(self.faults_injected)),
            ("faults_detected", Json::from(self.faults_detected)),
            ("blocks_retried", Json::from(self.blocks_retried)),
            ("retries", Json::from(self.retries)),
            ("fallbacks", Json::from(self.fallbacks)),
            ("unrecovered", Json::from(self.unrecovered)),
            ("hedges_launched", Json::from(self.hedges_launched)),
            ("hedges_won", Json::from(self.hedges_won)),
        ])
    }
}

impl FromJson for RecoveryCounters {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            faults_injected: v.field("faults_injected")?,
            faults_detected: v.field("faults_detected")?,
            blocks_retried: v.field("blocks_retried")?,
            retries: v.field("retries")?,
            fallbacks: v.field("fallbacks")?,
            unrecovered: v.field("unrecovered")?,
            // The hedge counters postdate the original schema; absent in
            // pre-resilience artifacts.
            hedges_launched: v.field_opt("hedges_launched")?.unwrap_or(0),
            hedges_won: v.field_opt("hedges_won")?.unwrap_or(0),
        })
    }
}

/// One verification failure the driver observed, located to the launch,
/// block, and attempt that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionRecord {
    /// Kernel launch name (`blocksort`, `merge-pass-0`, `output-verify`).
    pub kernel: String,
    /// Block index within the launch.
    pub block: usize,
    /// Execution attempt that failed (0 = first try).
    pub attempt: u32,
    /// What the verifier saw.
    pub failure: VerifyFailure,
}

impl std::fmt::Display for DetectionRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} block {} attempt {}: {}", self.kernel, self.block, self.attempt, self.failure)
    }
}

impl ToJson for DetectionRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", Json::from(self.kernel.as_str())),
            ("block", Json::from(self.block)),
            ("attempt", Json::from(self.attempt)),
            ("failure", Json::from(self.failure.to_string().as_str())),
        ])
    }
}

/// Full forensic record of a robust run: what fired, what was caught,
/// what it cost, and how the driver compromised (if it did).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Scalar counters (artifact-friendly).
    pub counters: RecoveryCounters,
    /// Every fault injection that fired, in launch/block order.
    pub injections: Vec<InjectionRecord>,
    /// Every verification failure observed.
    pub detections: Vec<DetectionRecord>,
    /// Every degradation taken (empty = the requested pipeline ran as
    /// asked).
    pub degradations: Vec<Degradation>,
    /// Modeled seconds of exponential backoff charged before retries.
    pub backoff_seconds: f64,
    /// Modeled seconds spent re-executing failed blocks.
    pub retry_seconds: f64,
    /// Modeled seconds of injected latency spikes (after hedge wins
    /// replaced straggler latencies).
    pub spike_seconds: f64,
    /// What straggler hedging did (zeroed when hedging is disabled or
    /// nothing straggled).
    pub hedges: HedgeCounters,
}

impl RecoveryReport {
    /// `true` when nothing fired, nothing failed verification, and
    /// nothing degraded: the run was indistinguishable from a plain one.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.injections.is_empty() && self.detections.is_empty() && self.degradations.is_empty()
    }
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("counters", self.counters.to_json()),
            ("injections", Json::arr(self.injections.iter().map(ToJson::to_json))),
            ("detections", Json::arr(self.detections.iter().map(ToJson::to_json))),
            ("degradations", Json::arr(self.degradations.iter().map(ToJson::to_json))),
            ("backoff_seconds", Json::from(self.backoff_seconds)),
            ("retry_seconds", Json::from(self.retry_seconds)),
            ("spike_seconds", Json::from(self.spike_seconds)),
            ("hedges", self.hedges.to_json()),
        ])
    }
}

/// A sort that completed under the robust driver: the run itself, the
/// pipeline that actually produced it, and the recovery forensics.
#[derive(Debug, Clone)]
pub struct RobustSortRun<K = u32> {
    /// Output, profile, per-launch reports, modeled seconds
    /// (`simulated_seconds` includes retries, backoff, and spikes).
    pub run: SortRun<K>,
    /// The pipeline that produced the output (differs from the request
    /// after a fallback — and the report says why).
    pub algorithm: SortAlgorithm,
    /// What happened along the way.
    pub report: RecoveryReport,
}

/// Blocks per kernel launch for a sort of `n` keys at `params` — the
/// shape [`FaultPlan::generate`] needs. Launch 0 is the block sort; each
/// of the `log₂(runs)` merge passes launches the same number of blocks.
#[must_use]
pub fn pipeline_shape(n: usize, params: &SortParams) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let runs = n.div_ceil(params.tile()).next_power_of_two();
    vec![runs as u64; 1 + runs.trailing_zeros() as usize]
}

/// The tracer and checker of each block's successful attempt, one inner
/// vector per launch, aligned with [`SortRun::kernels`].
pub(crate) type BlockObservers<Tr, Ck> = Vec<Vec<(Tr, Ck)>>;

/// One block's work in a launch.
#[derive(Debug, Clone, Copy)]
enum BlockJob {
    /// Block-sort the tile starting at this element offset.
    Tile(usize),
    /// Merge one output chunk of a pair of sorted runs.
    Merge(MergeChunkJob),
}

impl BlockJob {
    /// Multiset checksum the block's output must carry: its tile's, or —
    /// by checksum additivity — the sum of its two input ranges'.
    fn expected_checksum<K: SortKey>(self, src: &[K], tile: usize) -> u64 {
        match self {
            BlockJob::Tile(lo) => multiset_checksum(&src[lo..lo + tile]),
            BlockJob::Merge(job) => multiset_checksum(&src[job.a_begin..job.a_end])
                .wrapping_add(multiset_checksum(&src[job.b_begin..job.b_end])),
        }
    }
}

/// One execution of one block.
struct Attempt<Tr, Ck> {
    profile: KernelProfile,
    observers: (Tr, Ck),
    faults: BlockFaults,
    verdict: Result<(), VerifyFailure>,
}

/// Outcome of one block's execute-verify-retry loop.
struct BlockExec<Tr, Ck> {
    /// Profile of the successful (or last) attempt.
    profile: KernelProfile,
    /// Observers of the successful attempt (`None` if every attempt
    /// failed; failed attempts and hedged duplicates drop theirs).
    observers: Option<(Tr, Ck)>,
    /// Merged profiles of every failed attempt that was re-run.
    retry_profile: KernelProfile,
    /// Total executions (1 = verified first try).
    executions: u32,
    /// Latency-spike cycles accumulated across all attempts.
    spike_cycles: u64,
    injections: Vec<InjectionRecord>,
    detections: Vec<DetectionRecord>,
    /// `Some` when the last permitted attempt still failed verification.
    failure: Option<VerifyFailure>,
    /// Hedged duplicate executions launched for this block.
    hedges: u32,
    /// Hedges that beat the straggler (their latency was taken).
    hedge_wins: u32,
    /// Straggler spike cycles avoided by winning hedges.
    hedge_cycles_saved: u64,
    /// Merged profiles of every hedged duplicate (priced as an auxiliary
    /// launch in `settle_kernel`).
    hedge_profile: KernelProfile,
}

impl<Tr, Ck> BlockExec<Tr, Ck> {
    /// Apply one hedged duplicate execution before the launch settles.
    ///
    /// A winning hedge (verified output, fewer spike cycles than the
    /// straggler accumulated) replaces the block's latency contribution;
    /// the output bytes need no replacing, because a verified duplicate
    /// *is* the unique sorted permutation the straggler already produced.
    /// A losing or corrupted hedge is discarded — its injections are
    /// still recorded, but a failed duplicate is not a detection against
    /// the primary result.
    fn apply_hedge(&mut self, hedge: Attempt<Tr, Ck>) {
        let hedge_spikes = hedge.faults.spike_cycles();
        self.hedges += 1;
        self.hedge_profile.merge(&hedge.profile);
        self.injections.extend(hedge.faults.into_records());
        if hedge.verdict.is_ok() && hedge_spikes < self.spike_cycles {
            self.hedge_wins += 1;
            self.hedge_cycles_saved += self.spike_cycles - hedge_spikes;
            self.spike_cycles = hedge_spikes;
        }
    }
}

/// A block that exhausted its retries — the trigger for fallback (or,
/// failing that, [`SortError::UnrecoverableFault`]).
struct BlockFailure {
    kernel: String,
    block: usize,
    attempts: u32,
    failure: VerifyFailure,
}

impl BlockFailure {
    fn into_error(self) -> SortError {
        SortError::UnrecoverableFault {
            kernel: self.kernel,
            block: self.block,
            attempts: self.attempts,
            failure: self.failure,
        }
    }
}

/// Cross-run accumulator (survives a fallback restart), plus the
/// checkpoint policy and the checkpoints captured under it.
#[derive(Default)]
struct RunStats {
    counters: RecoveryCounters,
    injections: Vec<InjectionRecord>,
    detections: Vec<DetectionRecord>,
    degradations: Vec<Degradation>,
    backoff_seconds: f64,
    retry_seconds: f64,
    spike_seconds: f64,
    hedges: HedgeCounters,
    checkpoint: CheckpointPolicy,
    checkpoints: Vec<SortCheckpoint>,
}

impl RunStats {
    /// Record the switch from `from` to the Thrust fallback pipeline.
    fn fall_back(&mut self, from: SortAlgorithm, reason: String) {
        let to = SortAlgorithm::ThrustMergesort;
        self.degradations.push(Degradation::Fallback { from, to, reason });
        self.counters.fallbacks += 1;
    }

    fn into_report(self) -> RecoveryReport {
        RecoveryReport {
            counters: self.counters,
            injections: self.injections,
            detections: self.detections,
            degradations: self.degradations,
            backoff_seconds: self.backoff_seconds,
            retry_seconds: self.retry_seconds,
            spike_seconds: self.spike_seconds,
            hedges: self.hedges,
        }
    }
}

/// Fold one kernel's per-block outcomes into the stats, price the launch
/// (main profile as one launch; retries as an extra launch; hedges as an
/// auxiliary launch; spikes at the device clock; backoff as configured),
/// and surface the first unrecovered block if any.
///
/// Returns the kernel report, the extra modeled seconds beyond the main
/// launch, the first unrecovered block, and the blocks' observers.
#[allow(clippy::type_complexity)]
fn settle_kernel<Tr, Ck>(
    rcfg: &RobustConfig,
    name: &str,
    base_profile: KernelProfile,
    execs: Vec<BlockExec<Tr, Ck>>,
    stats: &mut RunStats,
) -> Result<(KernelReport, f64, Option<BlockFailure>, Vec<(Tr, Ck)>), SortError> {
    let cfg = &rcfg.base;
    let blocks = execs.len() as u64;
    let mut profile = base_profile;
    let mut retry_profile = KernelProfile::new();
    let mut retried_execs = 0u64;
    let mut spike_cycles = 0u64;
    let mut backoff = 0.0f64;
    let mut failure: Option<BlockFailure> = None;
    let mut hedge_profile = KernelProfile::new();
    let mut hedged_execs = 0u64;
    let mut observers = Vec::with_capacity(execs.len());
    for (block, mut ex) in execs.into_iter().enumerate() {
        profile.merge(&ex.profile);
        observers.extend(ex.observers);
        retry_profile.merge(&ex.retry_profile);
        stats.counters.faults_injected += ex.injections.len() as u64;
        stats.counters.faults_detected += ex.detections.len() as u64;
        stats.injections.append(&mut ex.injections);
        stats.detections.append(&mut ex.detections);
        hedge_profile.merge(&ex.hedge_profile);
        hedged_execs += u64::from(ex.hedges);
        stats.counters.hedges_launched += u64::from(ex.hedges);
        stats.counters.hedges_won += u64::from(ex.hedge_wins);
        stats.hedges.launched += u64::from(ex.hedges);
        stats.hedges.won += u64::from(ex.hedge_wins);
        stats.hedges.cycles_saved += ex.hedge_cycles_saved;
        if ex.executions > 1 {
            let retries = u64::from(ex.executions - 1);
            stats.counters.blocks_retried += 1;
            stats.counters.retries += retries;
            retried_execs += retries;
            // Σ_{r=1..retries} backoff · 2^(r−1) = backoff · (2^retries − 1).
            backoff += rcfg.retry_backoff_s * (2f64.powi(retries as i32) - 1.0);
        }
        spike_cycles += ex.spike_cycles;
        if failure.is_none() {
            if let Some(f) = ex.failure {
                failure = Some(BlockFailure {
                    kernel: name.to_string(),
                    block,
                    attempts: ex.executions,
                    failure: f,
                });
            }
        }
    }
    let unlaunchable = |why| SortError::Unlaunchable { device: cfg.device.name.clone(), why };
    let time = cfg
        .timing
        .kernel_time(&cfg.device, &profile.total(), &cfg.launch(blocks))
        .map_err(unlaunchable)?;
    let mut extra = 0.0f64;
    if retried_execs > 0 {
        let rt = cfg
            .timing
            .kernel_time(&cfg.device, &retry_profile.total(), &cfg.launch(retried_execs))
            .map_err(unlaunchable)?;
        extra += rt.seconds;
        stats.retry_seconds += rt.seconds;
    }
    if hedged_execs > 0 {
        // Hedged duplicates are enqueued device-side while the primary
        // launch drains — priced in full minus the host launch overhead.
        let ht = cfg
            .timing
            .auxiliary_launch_time(&cfg.device, &hedge_profile.total(), &cfg.launch(hedged_execs))
            .map_err(unlaunchable)?;
        extra += ht.seconds;
        stats.hedges.hedge_seconds += ht.seconds;
    }
    let spike_s = spike_cycles as f64 / cfg.device.clock_hz;
    extra += spike_s;
    stats.spike_seconds += spike_s;
    extra += backoff;
    stats.backoff_seconds += backoff;
    Ok((KernelReport { name: name.to_string(), blocks, profile, time }, extra, failure, observers))
}

/// Partition one merge pass over sorted runs of `width` into per-block
/// chunks, and price the partition kernel that finds their boundaries
/// (host-side here; on the device a small search kernel: one boundary
/// search per block, 2 uncoalesced global loads per iteration) as the
/// launch's base profile.
fn partition_pass<K: SortKey>(
    src: &[K],
    width: usize,
    tile: usize,
    count_accesses: bool,
) -> (Vec<BlockJob>, KernelProfile) {
    let pair = 2 * width;
    let mut jobs = Vec::with_capacity(src.len() / tile);
    let mut search_cost = KernelProfile::new();
    for pair_lo in (0..src.len()).step_by(pair) {
        let a = &src[pair_lo..pair_lo + width];
        let b = &src[pair_lo + width..pair_lo + pair];
        for c in partition_merge(a, b, tile) {
            jobs.push(BlockJob::Merge(MergeChunkJob {
                a_begin: pair_lo + c.a_begin,
                a_end: pair_lo + c.a_end,
                b_begin: pair_lo + width + c.b_begin,
                b_end: pair_lo + width + c.b_end,
            }));
        }
        if count_accesses {
            let blocks_in_pair = (pair / tile) as u64;
            let steps = u64::from(merge_path_steps(pair / 2, width, width));
            let s = search_cost.phase_mut(PhaseClass::Search);
            s.global_ld_requests += blocks_in_pair * steps * 2;
            s.global_ld_sectors += blocks_in_pair * steps * 2;
            s.alu_ops += blocks_in_pair * steps * 6;
        }
    }
    (jobs, search_cost)
}

/// What one pipeline execution holds fixed: the pipeline, the
/// configuration and recovery policy, the fault plan, and the factories
/// that hand every block attempt a fresh tracer and checker.
struct Driver<'a, F, G> {
    algo: SortAlgorithm,
    /// `base` is the configuration actually run (after any parameter
    /// substitution); the other fields are the retry and hedge policy.
    rcfg: &'a RobustConfig,
    plan: &'a FaultPlan,
    /// Marks the degraded alternate pipeline (sticky faults stop firing).
    fallback: bool,
    make_tracer: &'a F,
    make_checker: &'a G,
}

impl<F, G, Tr, Ck> Driver<'_, F, G>
where
    Tr: Tracer + Send,
    Ck: MemCheck + Send,
    F: Fn() -> Tr + Sync,
    G: Fn() -> Ck + Sync,
{
    /// The one pipeline walk: pad, block sort, then merge passes until a
    /// single run remains, verifying and pricing every launch.
    /// `Ok(Err(_))` is a block that stayed failed after retries (the
    /// fallback trigger); outer `Err` is a configuration-level error (or
    /// a simulated kill, when the checkpoint policy asks for one). With
    /// `resume`, the block sort and completed merge passes are skipped
    /// and execution continues from the checkpoint's verified state (the
    /// caller has already validated it).
    #[allow(clippy::type_complexity)]
    fn run<K: SortKey>(
        &self,
        input: &[K],
        resume: Option<&SortCheckpoint>,
        stats: &mut RunStats,
    ) -> Result<Result<(SortRun<K>, BlockObservers<Tr, Ck>), BlockFailure>, SortError> {
        let cfg = &self.rcfg.base;
        let tile = cfg.params.tile();
        let n = resume.map_or(input.len(), |cp| cp.n);
        if n == 0 {
            let run = SortRun {
                output: Vec::new(),
                profile: KernelProfile::new(),
                simulated_seconds: 0.0,
                kernels: Vec::new(),
                n: 0,
            };
            return Ok(Ok((run, Vec::new())));
        }
        let policy = stats.checkpoint;
        let track = !policy.is_noop();

        // `width` is the length of the sorted runs in `src` (0 before the
        // block sort); `pass` counts completed merge passes.
        let (mut src, input_checksum, padded_checksum, mut width, mut pass, mut seconds) =
            if let Some(cp) = resume {
                let state = cp.state_keys::<K>();
                let unpadded = cp.unpadded_input_checksum::<K>();
                (
                    state,
                    unpadded,
                    cp.input_checksum,
                    cp.width,
                    cp.completed_passes,
                    cp.seconds_so_far,
                )
            } else {
                // Pad to a power-of-two number of tiles.
                let mut src = input.to_vec();
                src.resize(n.div_ceil(tile).next_power_of_two() * tile, K::MAX_SENTINEL);
                let padded = if track { multiset_checksum(&src) } else { 0 };
                (src, multiset_checksum(input), padded, 0, 0, 0.0)
            };
        let n_pad = src.len();
        let mut dst = vec![K::default(); n_pad];
        let mut kernels: Vec<KernelReport> = Vec::new();
        let mut observers: BlockObservers<Tr, Ck> = Vec::new();

        loop {
            let (kernel, name, jobs, base_profile) = if width == 0 {
                let tiles = (0..n_pad).step_by(tile).map(BlockJob::Tile).collect();
                (0, "blocksort".to_string(), tiles, KernelProfile::new())
            } else if width < n_pad {
                let (jobs, search_cost) = partition_pass(&src, width, tile, cfg.count_accesses);
                (1 + pass as u32, format!("merge-pass-{pass}"), jobs, search_cost)
            } else {
                break;
            };
            let (report, extra, failed, blocks) =
                self.launch(kernel, &name, jobs, &src, &mut dst, base_profile, stats)?;
            seconds += report.time.seconds + extra;
            kernels.push(report);
            if let Some(f) = failed {
                return Ok(Err(f));
            }
            observers.push(blocks);
            std::mem::swap(&mut src, &mut dst);
            if width == 0 {
                width = tile;
            } else {
                width *= 2;
                pass += 1;
            }

            if track && (policy.every_pass || policy.kill_after_pass == Some(pass)) {
                let cp = SortCheckpoint::capture(
                    self.algo.label(),
                    (cfg.params.e, cfg.params.u),
                    n,
                    width,
                    pass,
                    seconds,
                    stats.counters,
                    padded_checksum,
                    &src,
                );
                if policy.kill_after_pass == Some(pass) {
                    return Err(SortError::Interrupted {
                        after_pass: pass,
                        checkpoint: Box::new(cp),
                    });
                }
                stats.checkpoints.push(cp);
            }
        }

        src.truncate(n);
        // Defense in depth: the whole output against the whole input.
        // Block verification should make this unreachable; if it ever
        // fires, the run is treated exactly like a failed block
        // (fallback, then typed error) — never returned as a success.
        if let Err(failure) = verify_sorted_checksum(&src, input_checksum) {
            stats.counters.faults_detected += 1;
            stats.detections.push(DetectionRecord {
                kernel: "output-verify".into(),
                block: 0,
                attempt: 0,
                failure,
            });
            return Ok(Err(BlockFailure {
                kernel: "output-verify".into(),
                block: 0,
                attempts: 1,
                failure,
            }));
        }

        let mut profile = KernelProfile::new();
        for k in &kernels {
            profile.merge(&k.profile);
        }
        let run = SortRun { output: src, profile, simulated_seconds: seconds, kernels, n };
        Ok(Ok((run, observers)))
    }

    /// One launch: every block's execute-verify-retry loop into its
    /// `tile`-sized window of `dst`, then straggler hedging, then
    /// [`settle_kernel`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn launch<K: SortKey>(
        &self,
        kernel: u32,
        name: &str,
        jobs: Vec<BlockJob>,
        src: &[K],
        dst: &mut [K],
        base_profile: KernelProfile,
        stats: &mut RunStats,
    ) -> Result<(KernelReport, f64, Option<BlockFailure>, Vec<(Tr, Ck)>), SortError> {
        let tile = self.rcfg.base.params.tile();
        let mut execs: Vec<BlockExec<Tr, Ck>> = jobs
            .par_iter()
            .zip(dst.par_chunks_mut(tile))
            .enumerate()
            .map(|(block, (&job, out))| self.recover_block(kernel, name, block, job, src, out))
            .collect();
        let latencies: Vec<u64> = execs.iter().map(|ex| ex.spike_cycles).collect();
        for block in self.rcfg.hedge.stragglers(&latencies) {
            let ex = &mut execs[block];
            if ex.failure.is_some() {
                continue; // about to trigger fallback; duplicating it is pointless
            }
            let job = jobs[block];
            let mut scratch = vec![K::default(); tile];
            let hedge = self.attempt(kernel, block, ex.executions, job, src, &mut scratch);
            ex.apply_hedge(hedge);
        }
        settle_kernel(self.rcfg, name, base_profile, execs, stats)
    }

    /// Execute-verify loop for one block: up to `1 + max_retries`
    /// attempts, stopping at the first whose output verifies.
    fn recover_block<K: SortKey>(
        &self,
        kernel: u32,
        name: &str,
        block: usize,
        job: BlockJob,
        src: &[K],
        dst: &mut [K],
    ) -> BlockExec<Tr, Ck> {
        let mut out = BlockExec {
            profile: KernelProfile::new(),
            observers: None,
            retry_profile: KernelProfile::new(),
            executions: 0,
            spike_cycles: 0,
            injections: Vec::new(),
            detections: Vec::new(),
            failure: None,
            hedges: 0,
            hedge_wins: 0,
            hedge_cycles_saved: 0,
            hedge_profile: KernelProfile::new(),
        };
        for attempt in 0..=self.rcfg.max_retries {
            let a = self.attempt(kernel, block, attempt, job, src, dst);
            out.executions = attempt + 1;
            out.spike_cycles += a.faults.spike_cycles();
            out.injections.extend(a.faults.into_records());
            match a.verdict {
                Ok(()) => {
                    out.profile = a.profile;
                    out.observers = Some(a.observers);
                    out.failure = None;
                    return out;
                }
                Err(failure) => {
                    out.detections.push(DetectionRecord {
                        kernel: name.to_string(),
                        block,
                        attempt,
                        failure,
                    });
                    out.retry_profile.merge(&a.profile);
                    out.failure = Some(failure);
                }
            }
        }
        out
    }

    /// Run `job` once into `dst` under the plan's injector for this
    /// attempt, with fresh observers, and verify what it wrote.
    fn attempt<K: SortKey>(
        &self,
        kernel: u32,
        block: usize,
        attempt: u32,
        job: BlockJob,
        src: &[K],
        dst: &mut [K],
    ) -> Attempt<Tr, Ck> {
        let faults = self.plan.block_faults(kernel, block as u32, attempt, self.fallback);
        let (tracer, checker) = ((self.make_tracer)(), (self.make_checker)());
        // An unarmed injector changes nothing, but as an active injector
        // it would still route every access through its hooks: run the
        // block fault-free instead.
        let (profile, tracer, checker, faults) = if faults.is_unarmed() {
            let (profile, tracer, checker, NoFaults) =
                self.execute(job, src, dst, tracer, checker, NoFaults);
            (profile, tracer, checker, faults)
        } else {
            self.execute(job, src, dst, tracer, checker, faults)
        };
        let verdict = verify_sorted_checksum(dst, job.expected_checksum(src, dst.len()));
        Attempt { profile, observers: (tracer, checker), faults, verdict }
    }

    /// Run the block's kernel once with the given hooks.
    fn execute<K: SortKey, Fi: FaultInjector>(
        &self,
        job: BlockJob,
        src: &[K],
        dst: &mut [K],
        tracer: Tr,
        checker: Ck,
        injector: Fi,
    ) -> (KernelProfile, Tr, Ck, Fi) {
        let cfg = &self.rcfg.base;
        let (banks, e, u) = (cfg.device.bank_model(), cfg.params.e, cfg.params.u);
        let strategy = self.algo.strategy();
        match job {
            BlockJob::Tile(lo) => blocksort_block_faulty(
                banks,
                u,
                e,
                strategy,
                &src[lo..lo + dst.len()],
                dst,
                lo,
                cfg.count_accesses,
                tracer,
                checker,
                injector,
            ),
            BlockJob::Merge(job) => merge_pass_block_faulty(
                banks,
                u,
                e,
                strategy,
                src,
                job,
                dst,
                cfg.count_accesses,
                tracer,
                checker,
                injector,
            ),
        }
    }
}

/// Sort under fault injection with verified, block-granular recovery.
///
/// Every block's output is verified (sorted + multiset checksum of its
/// input ranges); failed blocks are re-executed up to
/// [`RobustConfig::max_retries`] times with priced retries and backoff;
/// persistent failures degrade to the Thrust pipeline when
/// [`RobustConfig::allow_fallback`] permits. The returned
/// [`RecoveryReport`] records every injection, detection, and
/// degradation. Faults that survive everything come back as
/// [`SortError::UnrecoverableFault`] — a successful return is always a
/// verified sorted permutation of the input.
///
/// Pass [`FaultPlan::none()`] for a production (no-injection) run: the
/// result is bit-identical to [`crate::sort::pipeline::simulate_sort`],
/// which runs this same driver with no retries and no fallback.
pub fn simulate_sort_robust<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
) -> Result<RobustSortRun<K>, SortError> {
    let no_checkpoints = CheckpointPolicy::default();
    let (run, _, _) =
        run_robust(input, algo, config.clone(), plan, no_checkpoints, &|| NullTracer, &|| NoCheck)?;
    Ok(run)
}

/// [`simulate_sort_robust`] with checkpoint capture: returns the run
/// plus the checkpoints taken under `policy`. A
/// [`CheckpointPolicy::kill_after`] policy instead interrupts the run
/// with [`SortError::Interrupted`] carrying the checkpoint — the modeled
/// equivalent of killing the process mid-sort. If the primary pipeline
/// degrades to the fallback, checkpoints restart with the fallback run
/// (the primary's partial state is junk once abandoned).
///
/// # Errors
/// Same contract as [`simulate_sort_robust`], plus
/// [`SortError::Interrupted`] when the policy kills the run.
pub fn simulate_sort_robust_checkpointed<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
    policy: CheckpointPolicy,
) -> Result<(RobustSortRun<K>, Vec<SortCheckpoint>), SortError> {
    let (run, checkpoints, _) =
        run_robust(input, algo, config.clone(), plan, policy, &|| NullTracer, &|| NoCheck)?;
    Ok((run, checkpoints))
}

/// The plain entry points' run (`simulate_sort` and its `try_`,
/// `_traced` and `_checked` variants): the one driver under a fixed
/// policy — no faults, every block verified once, no retry, hedge,
/// fallback or checkpoint. A block failing verification here is a
/// simulator bug; it comes back as [`SortError::UnrecoverableFault`].
pub(crate) fn run_plain<K, Tr, Ck, F, G>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
    make_tracer: &F,
    make_checker: &G,
) -> Result<(SortRun<K>, BlockObservers<Tr, Ck>), SortError>
where
    K: SortKey,
    Tr: Tracer + Send,
    Ck: MemCheck + Send,
    F: Fn() -> Tr + Sync,
    G: Fn() -> Ck + Sync,
{
    let plain = RobustConfig {
        base: config.clone(),
        max_retries: 0,
        retry_backoff_s: 0.0,
        allow_fallback: false,
        hedge: HedgeConfig::default(),
    };
    let no_checkpoints = CheckpointPolicy::default();
    let (robust, _, observers) = run_robust(
        input,
        algo,
        plain,
        &FaultPlan::none(),
        no_checkpoints,
        make_tracer,
        make_checker,
    )?;
    Ok((robust.run, observers))
}

/// The robust driver's front: validate (substituting known-good
/// parameters for an unlaunchable shape when fallback is allowed), run
/// the pipeline, and on a block that stays failed restart it on the
/// Thrust fallback when allowed.
#[allow(clippy::type_complexity)]
fn run_robust<K, Tr, Ck, F, G>(
    input: &[K],
    algo: SortAlgorithm,
    mut rcfg: RobustConfig,
    plan: &FaultPlan,
    checkpoint: CheckpointPolicy,
    make_tracer: &F,
    make_checker: &G,
) -> Result<(RobustSortRun<K>, Vec<SortCheckpoint>, BlockObservers<Tr, Ck>), SortError>
where
    K: SortKey,
    Tr: Tracer + Send,
    Ck: MemCheck + Send,
    F: Fn() -> Tr + Sync,
    G: Fn() -> Ck + Sync,
{
    let mut stats = RunStats { checkpoint, ..RunStats::default() };
    let mut algo_used = algo;

    match validate_sort_config(&rcfg.base) {
        Ok(()) => {}
        Err(SortError::Unlaunchable { device, why }) if rcfg.allow_fallback => {
            let sub = SortParams::known_good_default();
            stats.degradations.push(Degradation::ParamsSubstituted {
                from: (rcfg.base.params.e, rcfg.base.params.u),
                to: (sub.e, sub.u),
            });
            stats.fall_back(
                algo_used,
                format!("requested configuration cannot launch on {device}: {why}"),
            );
            rcfg.base.params = sub;
            algo_used = SortAlgorithm::ThrustMergesort;
            validate_sort_config(&rcfg.base)?;
        }
        Err(e) => return Err(e),
    }

    let driver =
        |algo, fallback| Driver { algo, rcfg: &rcfg, plan, fallback, make_tracer, make_checker };
    let (run, observers) = match driver(algo_used, false).run(input, None, &mut stats)? {
        Ok(done) => done,
        Err(f) if rcfg.allow_fallback => {
            let why = format!(
                "{} block {} failed verification after {} attempts",
                f.kernel, f.block, f.attempts
            );
            stats.fall_back(algo_used, why);
            algo_used = SortAlgorithm::ThrustMergesort;
            stats.checkpoints.clear(); // primary checkpoints are void once abandoned
            driver(algo_used, true)
                .run(input, None, &mut stats)?
                .map_err(BlockFailure::into_error)?
        }
        Err(f) => return Err(f.into_error()),
    };

    let checkpoints = std::mem::take(&mut stats.checkpoints);
    let report = stats.into_report();
    Ok((RobustSortRun { run, algorithm: algo_used, report }, checkpoints, observers))
}

/// Resume a sort from a [`SortCheckpoint`], skipping the block sort and
/// every completed merge pass.
///
/// The checkpoint is validated first — version, structural shape, every
/// run sorted, every block checksum matching
/// ([`SortCheckpoint::validate_as`]) — so work is only skipped when the
/// saved state is provably the verified state the original run produced.
/// The resumed run's `simulated_seconds` includes the checkpoint's
/// `seconds_so_far`, and with the same fault plan the final output is
/// byte-identical to the uninterrupted run; on a fault-free plan the
/// total modeled seconds and recovery counters are byte-identical too.
/// (With live faults exact cost equality is not guaranteed: a
/// corruption that stale scratch data masked in the original run is
/// detected against the resume's fresh scratch buffers and priced as an
/// extra retry, and a fallback restart discards the abandoned
/// pipeline's partial seconds while a resume keeps the checkpoint's
/// committed seconds.) Kernel reports cover only the re-executed
/// remainder. The checkpoint's counters are folded into the returned
/// report.
///
/// If a resumed block exhausts its retries and fallback is allowed, the
/// driver re-sorts the checkpoint state on the Thrust pipeline (the
/// state is a permutation of the padded input, so sorting it yields the
/// same output).
///
/// # Errors
/// [`SortError::CheckpointInvalid`] when validation fails, otherwise the
/// [`simulate_sort_robust`] contract.
pub fn resume_sort_robust<K: SortKey>(
    checkpoint: &SortCheckpoint,
    config: &RobustConfig,
    plan: &FaultPlan,
) -> Result<RobustSortRun<K>, SortError> {
    checkpoint.validate_as::<K>()?;
    let algo = if checkpoint.algorithm == SortAlgorithm::CfMerge.label() {
        SortAlgorithm::CfMerge
    } else if checkpoint.algorithm == SortAlgorithm::ThrustMergesort.label() {
        SortAlgorithm::ThrustMergesort
    } else {
        return Err(SortError::CheckpointInvalid {
            reason: format!("unknown algorithm {:?}", checkpoint.algorithm),
        });
    };
    let cfg = &config.base;
    if (cfg.params.e, cfg.params.u) != (checkpoint.e, checkpoint.u) {
        return Err(SortError::CheckpointInvalid {
            reason: format!(
                "checkpoint captured at (E={}, u={}) cannot resume under (E={}, u={})",
                checkpoint.e, checkpoint.u, cfg.params.e, cfg.params.u
            ),
        });
    }
    validate_sort_config(cfg)?;

    let mut stats = RunStats::default();
    let mut algo_used = algo;
    let driver = |algo, fallback| Driver {
        algo,
        rcfg: config,
        plan,
        fallback,
        make_tracer: &|| NullTracer,
        make_checker: &|| NoCheck,
    };
    let run = match driver(algo, false).run::<K>(&[], Some(checkpoint), &mut stats)? {
        Ok((run, _)) => run,
        Err(f) if config.allow_fallback => {
            let why = format!(
                "resumed {} block {} failed verification after {} attempts",
                f.kernel, f.block, f.attempts
            );
            stats.fall_back(algo_used, why);
            algo_used = SortAlgorithm::ThrustMergesort;
            // Restart from the checkpoint state as input: a permutation
            // of the padded input, so its sort is the same output (the
            // sentinels sort to the tail and are truncated off).
            let keys = checkpoint.state_keys::<K>();
            let (mut run, _) = driver(algo_used, true)
                .run(&keys, None, &mut stats)?
                .map_err(BlockFailure::into_error)?;
            run.output.truncate(checkpoint.n);
            run.n = checkpoint.n;
            run.simulated_seconds += checkpoint.seconds_so_far;
            run
        }
        Err(f) => return Err(f.into_error()),
    };

    let mut report = stats.into_report();
    let mut counters = checkpoint.counters;
    counters.merge(&report.counters);
    report.counters = counters;
    Ok(RobustSortRun { run, algorithm: algo_used, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::sort::blocksort::MergeStrategy;
    use crate::sort::pipeline::simulate_sort;
    use crate::verify::verify_sorted_permutation;
    use cfmerge_gpu_sim::banks::BankModel;
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    use cfmerge_gpu_sim::trace::BlockTracer;

    fn small_rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    fn site(kernel: u32, block: u32, kind: FaultKind, persistence: Persistence) -> FaultSite {
        FaultSite { kernel, block, phase: 1, kind, persistence }
    }

    #[test]
    fn clean_run_matches_plain_pipeline_exactly() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 11 }.generate(4 * 160 + 7);
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let plain = simulate_sort(&input, algo, &rcfg.base);
            let robust =
                simulate_sort_robust(&input, algo, &rcfg, &FaultPlan::none()).expect("clean run");
            // Output, profile, modeled seconds and every launch report
            // (name, grid, profile, time).
            assert_eq!(robust.run, plain, "{algo:?}");
            assert_eq!(robust.algorithm, algo);
            assert!(robust.report.is_clean());
            assert_eq!(robust.report.counters, RecoveryCounters::default());
        }
    }

    #[test]
    fn unarmed_injector_matches_no_faults_exactly() {
        // The driver runs a block whose plan arms no site under
        // `NoFaults`. That is sound only if an unarmed `BlockFaults`
        // changes no output, counter, or trace.
        let (e, u) = (15usize, 64usize);
        let tile = e * u;
        let banks = BankModel::new(32);
        let plan = FaultPlan::from_sites(vec![site(
            9,
            9,
            FaultKind::SharedBitFlip { bit: 1 },
            Persistence::Sticky,
        )]);
        for spec in [InputSpec::UniformRandom { seed: 41 }, InputSpec::WorstCase { w: 32, e, u }] {
            let keys = spec.generate(2 * tile);
            for strategy in [MergeStrategy::DirectSerial, MergeStrategy::Gather] {
                let what = format!("{} {strategy:?}", spec.label());
                let mut runs = vec![0u32; 2 * tile];
                for (t, (s, d)) in keys.chunks(tile).zip(runs.chunks_mut(tile)).enumerate() {
                    let faults = plan.block_faults(0, t as u32, 0, false);
                    assert!(faults.is_unarmed());
                    let mut d_unarmed = vec![0u32; tile];
                    let (p0, t0, NoCheck, NoFaults) = blocksort_block_faulty(
                        banks,
                        u,
                        e,
                        strategy,
                        s,
                        d,
                        t * tile,
                        true,
                        BlockTracer::new(banks),
                        NoCheck,
                        NoFaults,
                    );
                    let (p1, t1, NoCheck, f1) = blocksort_block_faulty(
                        banks,
                        u,
                        e,
                        strategy,
                        s,
                        &mut d_unarmed,
                        t * tile,
                        true,
                        BlockTracer::new(banks),
                        NoCheck,
                        faults,
                    );
                    assert_eq!(d, &d_unarmed[..], "blocksort output, {what}");
                    assert_eq!(p0, p1, "blocksort profile, {what}");
                    assert_eq!(format!("{t0:?}"), format!("{t1:?}"), "blocksort trace, {what}");
                    assert!(!f1.any_fired() && f1.spike_cycles() == 0);
                }
                let (a, b) = runs.split_at(tile);
                for (bi, c) in partition_merge(a, b, tile).into_iter().enumerate() {
                    let job = MergeChunkJob {
                        a_begin: c.a_begin,
                        a_end: c.a_end,
                        b_begin: tile + c.b_begin,
                        b_end: tile + c.b_end,
                    };
                    let faults = plan.block_faults(1, bi as u32, 0, false);
                    assert!(faults.is_unarmed());
                    let (mut d0, mut d1) = (vec![0u32; tile], vec![0u32; tile]);
                    let (p0, t0, NoCheck, NoFaults) = merge_pass_block_faulty(
                        banks,
                        u,
                        e,
                        strategy,
                        &runs,
                        job,
                        &mut d0,
                        true,
                        BlockTracer::new(banks),
                        NoCheck,
                        NoFaults,
                    );
                    let (p1, t1, NoCheck, f1) = merge_pass_block_faulty(
                        banks,
                        u,
                        e,
                        strategy,
                        &runs,
                        job,
                        &mut d1,
                        true,
                        BlockTracer::new(banks),
                        NoCheck,
                        faults,
                    );
                    assert_eq!(d0, d1, "merge output, {what}");
                    assert_eq!(p0, p1, "merge profile, {what}");
                    assert_eq!(format!("{t0:?}"), format!("{t1:?}"), "merge trace, {what}");
                    assert!(!f1.any_fired() && f1.spike_cycles() == 0);
                }
            }
        }
    }

    #[test]
    fn transient_fault_is_detected_and_retried() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 12 }.generate(4 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 0, bit: 4 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("transient fault must recover");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::CfMerge, "no fallback needed");
        assert!(r.report.counters.faults_injected >= 1);
        assert_eq!(r.report.counters.faults_detected, 1);
        assert_eq!(r.report.counters.blocks_retried, 1);
        assert_eq!(r.report.counters.retries, 1);
        assert_eq!(r.report.counters.fallbacks, 0);
        assert!(r.report.backoff_seconds > 0.0);
        assert!(r.report.retry_seconds > 0.0);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        assert!(
            r.run.simulated_seconds > plain.simulated_seconds,
            "recovery must cost modeled time"
        );
    }

    #[test]
    fn merge_pass_fault_recovers_via_checksum_additivity() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 21 }.generate(4 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            1,
            1,
            FaultKind::StuckBank { bank: 3, bit: 7 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::ThrustMergesort, &rcfg, &plan)
            .expect("merge-pass fault must recover");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.report.detections[0].kernel, "merge-pass-0");
        assert_eq!(r.report.counters.retries, 1);
    }

    #[test]
    fn sticky_fault_degrades_to_fallback() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 13 }.generate(2 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            1,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Sticky,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("sticky fault must recover via fallback");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::ThrustMergesort);
        assert_eq!(r.report.counters.fallbacks, 1);
        assert!(matches!(r.report.degradations[0], Degradation::Fallback { .. }));
        // Detected on the first try and on both retries before degrading.
        assert_eq!(r.report.counters.faults_detected, 1 + u64::from(rcfg.max_retries));
    }

    #[test]
    fn sticky_fault_without_fallback_is_typed() {
        let mut rcfg = small_rcfg();
        rcfg.allow_fallback = false;
        let input = InputSpec::UniformRandom { seed: 14 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Sticky,
        )]);
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan) {
            Err(SortError::UnrecoverableFault { kernel, block, attempts, .. }) => {
                assert_eq!(kernel, "blocksort");
                assert_eq!(block, 0);
                assert_eq!(attempts, rcfg.max_retries + 1);
            }
            other => panic!("expected UnrecoverableFault, got {other:?}"),
        }
    }

    #[test]
    fn permanent_fault_is_unrecoverable_even_with_fallback() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 15 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 0, bit: 1 },
            Persistence::Permanent,
        )]);
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan) {
            Err(SortError::UnrecoverableFault { .. }) => {}
            other => panic!("expected UnrecoverableFault, got {other:?}"),
        }
    }

    #[test]
    fn unlaunchable_config_substitutes_params_and_reports() {
        let mut rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(15, 2048)));
        let input = InputSpec::UniformRandom { seed: 16 }.generate(10_000);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("must degrade, not fail");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::ThrustMergesort);
        assert!(matches!(r.report.degradations[0], Degradation::ParamsSubstituted { .. }));
        assert!(matches!(r.report.degradations[1], Degradation::Fallback { .. }));
        rcfg.allow_fallback = false;
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none()) {
            Err(SortError::Unlaunchable { .. }) => {}
            other => panic!("expected Unlaunchable, got {other:?}"),
        }
    }

    #[test]
    fn latency_spike_costs_time_but_needs_no_retry() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 17 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::LatencySpike { cycles: 1_000_000 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        assert!(r.run.output.is_sorted());
        assert_eq!(r.report.counters.faults_detected, 0);
        assert_eq!(r.report.counters.retries, 0);
        assert!(r.report.spike_seconds > 0.0);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        assert!(r.run.simulated_seconds > plain.simulated_seconds);
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        let rcfg = small_rcfg();
        let r = simulate_sort_robust::<u32>(&[], SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("empty");
        assert!(r.run.output.is_empty());
        let r = simulate_sort_robust(&[42u32], SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("single");
        assert_eq!(r.run.output, vec![42]);
    }

    #[test]
    fn pipeline_shape_matches_driver() {
        let p = SortParams::new(5, 32); // tile = 160
        assert_eq!(pipeline_shape(0, &p), Vec::<u64>::new());
        assert_eq!(pipeline_shape(1, &p), vec![1]);
        assert_eq!(pipeline_shape(160, &p), vec![1]);
        assert_eq!(pipeline_shape(161, &p), vec![2, 2]);
        assert_eq!(pipeline_shape(4 * 160, &p), vec![4, 4, 4]);
    }

    #[test]
    fn hedging_cuts_straggler_latency_and_is_priced() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 31 }.generate(8 * 160);
        // One block of the block-sort launch stalls for half a million
        // cycles; the other seven are clean, so it is a clear p95 outlier.
        let plan = FaultPlan::from_sites(vec![site(
            0,
            3,
            FaultKind::LatencySpike { cycles: 500_000 },
            Persistence::Transient,
        )]);
        let hedged =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("hedged run");
        verify_sorted_permutation(&input, &hedged.run.output).expect("output exactly sorted");
        assert_eq!(hedged.report.hedges.launched, 1);
        // The spike is transient: it does not re-fire on the duplicate
        // (attempt 1), so the hedge wins and the spike cost vanishes.
        assert_eq!(hedged.report.hedges.won, 1);
        assert_eq!(hedged.report.hedges.cycles_saved, 500_000);
        assert!(hedged.report.hedges.hedge_seconds > 0.0);
        assert_eq!(hedged.report.counters.hedges_launched, 1);
        assert_eq!(hedged.report.counters.hedges_won, 1);
        assert_eq!(hedged.report.spike_seconds, 0.0);

        let mut unhedged_cfg = small_rcfg();
        unhedged_cfg.hedge = HedgeConfig::default();
        let unhedged = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &unhedged_cfg, &plan)
            .expect("unhedged run");
        assert_eq!(unhedged.run.output, hedged.run.output);
        assert!(
            hedged.run.simulated_seconds < unhedged.run.simulated_seconds,
            "winning hedge must beat eating the spike: {} vs {}",
            hedged.run.simulated_seconds,
            unhedged.run.simulated_seconds
        );
    }

    #[test]
    fn hedging_is_bit_identical_on_fault_free_runs() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 32 }.generate(4 * 160 + 9);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("clean run");
        assert_eq!(r.run.output, plain.output);
        assert_eq!(r.run.simulated_seconds, plain.simulated_seconds);
        assert_eq!(r.report.hedges, HedgeCounters::default());
    }

    #[test]
    fn sticky_spike_hedge_loses_and_costs_time() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 33 }.generate(8 * 160);
        // A sticky spike re-fires on the hedged duplicate too: the hedge
        // loses and the straggler's latency stands.
        let plan = FaultPlan::from_sites(vec![site(
            0,
            5,
            FaultKind::LatencySpike { cycles: 500_000 },
            Persistence::Sticky,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        assert_eq!(r.report.hedges.launched, 1);
        assert_eq!(r.report.hedges.won, 0);
        assert!(r.report.spike_seconds > 0.0, "losing hedge leaves the spike in place");
    }

    #[test]
    fn checkpoints_capture_every_pass() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 34 }.generate(4 * 160 + 17);
        let (run, checkpoints) = simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::every_pass(),
        )
        .expect("checkpointed run");
        // One capture point per launch: blocksort plus every merge pass.
        let launches = pipeline_shape(input.len(), &rcfg.base.params).len();
        assert_eq!(checkpoints.len(), launches);
        for (i, cp) in checkpoints.iter().enumerate() {
            assert_eq!(cp.completed_passes, i);
            cp.validate_as::<u32>().expect("every captured checkpoint validates");
        }
        // Capture must not perturb the run itself.
        let plain = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("plain robust run");
        assert_eq!(run.run.output, plain.run.output);
        assert_eq!(run.run.simulated_seconds, plain.run.simulated_seconds);
    }

    #[test]
    fn kill_and_resume_is_byte_identical_without_redoing_passes() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 35 }.generate(8 * 160 + 3);
        // A transient fault in a *late* merge pass: it must still fire
        // (and be recovered) in the resumed half of the run.
        let plan = FaultPlan::from_sites(vec![site(
            3,
            1,
            FaultKind::StuckBank { bank: 2, bit: 5 },
            Persistence::Transient,
        )]);
        let whole = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("uninterrupted run");

        let killed = simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &plan,
            CheckpointPolicy::kill_after(1),
        );
        let cp = match killed {
            Err(SortError::Interrupted { after_pass: 1, checkpoint }) => *checkpoint,
            other => panic!("expected Interrupted after pass 1, got {other:?}"),
        };
        let resumed = resume_sort_robust::<u32>(&cp, &rcfg, &plan).expect("resume");
        assert_eq!(resumed.run.output, whole.run.output, "byte-identical output");
        assert_eq!(
            resumed.run.simulated_seconds, whole.run.simulated_seconds,
            "modeled seconds match the uninterrupted run"
        );
        assert_eq!(resumed.report.counters, whole.report.counters);
        // Only the remaining passes were executed: no blocksort, no
        // merge-pass-0 (completed_passes = 1 covers both).
        assert_eq!(resumed.run.kernels.first().map(|k| k.name.as_str()), Some("merge-pass-1"));
        assert!(resumed.run.kernels.len() < whole.run.kernels.len());
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 36 }.generate(4 * 160);
        let cp = match simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::kill_after(0),
        ) {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        let mut bad = cp.clone();
        bad.state[7] ^= 0x10;
        assert!(matches!(
            resume_sort_robust::<u32>(&bad, &rcfg, &FaultPlan::none()),
            Err(SortError::CheckpointInvalid { .. })
        ));
        // Wrong launch config for the checkpoint.
        let other_cfg = RobustConfig::new(SortConfig::with_params(SortParams::new(4, 64)));
        assert!(matches!(
            resume_sort_robust::<u32>(&cp, &other_cfg, &FaultPlan::none()),
            Err(SortError::CheckpointInvalid { .. })
        ));
    }

    #[test]
    fn report_serializes() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 19 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::SharedBitFlip { bit: 3 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        let j = r.report.to_json();
        assert!(j.req("counters").is_ok());
        let back: RecoveryCounters =
            RecoveryCounters::from_json(j.req("counters").unwrap()).expect("round trip");
        assert_eq!(back, r.report.counters);
    }
}
