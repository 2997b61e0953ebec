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
//!    (`1 µs · 2^(r−1)` for retry `r`).
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
//! A sort starts fresh (an input and a pipeline) or from a
//! [`SortCheckpoint`]; both enter one driver front, which validates the
//! start, runs the pipeline, and restarts a run whose block stayed failed
//! on the Thrust fallback — for a resume, from the checkpoint's state.
//! [`simulate_sort_robust`], [`simulate_sort_robust_checkpointed`] and
//! [`resume_sort_robust`] are one-line wrappers over it, and so is the
//! runner both service front doors hand a [`SortJob`] to.
//!
//! The plain entry points ([`crate::sort::pipeline::simulate_sort`] and
//! its `try_`, `_traced` and `_checked` variants) are this driver under a
//! fixed policy: an empty [`FaultPlan`], no retries, no fallback, no
//! hedging and no checkpoints. Verification stays on, so a plain block
//! that fails it is a simulator bug and surfaces as a typed error. With
//! an empty plan the robust entry points therefore produce bit-identical
//! output, profile, and modeled seconds to the plain ones. A block whose
//! plan arms a fault site runs under its `BlockFaults` alone; any other
//! block runs under the caller's observer (`Passive` for every entry point
//! but the traced and checked ones), at the plain kernels' speed.
//!
//! Each kernel launch is one `Launch` (see `recovery/memo.rs`): its
//! index and name, each block's job and expected checksum, and a small
//! memo of simulated blocks keyed by their comparison order type. Its one
//! `execute` decides how a block runs. Traced, checked and fault-armed
//! blocks are always simulated, so `simulate_sort_traced(x).run` equals
//! `simulate_sort(x)` bit for bit. A block under `Passive` may not run at
//! all: one whose comparisons all come out as a representative's gets its
//! sorted output written natively and the representative's profile
//! charged, and sampled hits are re-simulated and must match exactly. A
//! `Passive` block the memo cannot replay may run *lean*: its
//! key-oblivious phases go unrecorded and unpriced, and the launch's
//! cached oblivious share is charged instead. A launch no fault site
//! targets hands its replaying representatives and its share to the next
//! launch of its kind in the same session, keyed by the `KernelArgs`
//! every block hands its kernel.
//!
//! Every block's expected checksum is read off stripe checksums of the
//! launch's input (see [`crate::verify`]). The block sort's come from the
//! one hashing pass over the padded input, which also gives the input's
//! checksum for the final whole-output check. A merge pass's are those the
//! previous launch's verification left, as long as every block of that
//! launch verified on its first attempt; after a failed attempt, and for
//! the first launch after a resume, the driver hashes its input anew.
//!
//! See `docs/ROBUSTNESS.md` for the full design.

use crate::params::SortParams;
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::hedge::{HedgeConfig, HedgeCounters};
use crate::resilience::service::{Payload, SortJob};
use crate::sort::blocksort::{blocksort_block_observed, MergeStrategy};
use crate::sort::error::{validate_sort_config, Degradation, SortError};
use crate::sort::key::SortKey;
use crate::sort::merge_pass::{merge_pass_block_observed, MergeChunkJob};
use crate::sort::pipeline::{KernelReport, SortAlgorithm, SortConfig, SortRun};
use crate::verify::{
    stripe_checksums, verify_sorted_checksum, verify_sorted_striped, without_sentinels,
    StripeChecksums, VerifyFailure,
};
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::fault::{BlockFaults, FaultPlan, InjectionRecord};
use cfmerge_gpu_sim::observer::{Observer, Passive};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass, PhaseCounters};
use cfmerge_json::{json_struct, Json, ToJson};
use cfmerge_mergepath::diagonal::merge_path_steps;
use cfmerge_mergepath::partition::partition_merge;
use memo::Launch;
use rayon::prelude::*;
use session::Session;
use std::any::TypeId;
use std::borrow::Cow;

mod memo;
mod session;

// The batch service moved to `crate::resilience::service` when it grew
// admission control, retry budgets, and circuit breakers; re-exported
// here so existing `recovery::SortService` paths keep working.
pub use crate::resilience::service::{aggregate_counters, JobId, JobOutcome, SortService};

/// Base backoff of the robust driver's block retries, in modeled seconds.
const RETRY_BACKOFF_S: f64 = 1e-6;

/// Configuration of the robust driver: the underlying sort configuration
/// plus the recovery policy.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The sort configuration (parameters, device, timing model).
    pub base: SortConfig,
    /// Re-executions permitted per block before the driver gives up on
    /// retrying (0 = verify once, never retry). Retry `r` (1-based) is
    /// charged `1 µs · 2^(r−1)` of modeled backoff.
    pub max_retries: u32,
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
    /// Default policy around a sort configuration: 2 retries, fallback
    /// permitted, hedging off.
    #[must_use]
    pub fn new(base: SortConfig) -> Self {
        Self { base, max_retries: 2, allow_fallback: true, hedge: HedgeConfig::default() }
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

json_struct! {
    RecoveryCounters {
        faults_injected, faults_detected, blocks_retried, retries, fallbacks, unrecovered,
        // The hedge counters postdate the original schema; absent in
        // pre-resilience artifacts.
        hedges_launched = 0,
        hedges_won = 0,
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

json_struct! {
    write RecoveryReport {
        counters, injections, detections, degradations, backoff_seconds, retry_seconds,
        spike_seconds, hedges,
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

/// The observer of each block's successful attempt, one inner vector per
/// launch, aligned with [`SortRun::kernels`] when the plan is empty.
pub(crate) type BlockObservers<O> = Vec<Vec<O>>;

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
    /// by checksum additivity — the sum of its two input ranges', read off
    /// `src`'s stripe checksums `sums`.
    fn expected_checksum<K: SortKey>(self, src: &[K], tile: usize, sums: &StripeChecksums) -> u64 {
        match self {
            BlockJob::Tile(lo) => sums.range(src, lo, lo + tile),
            BlockJob::Merge(job) => sums
                .range(src, job.a_begin, job.a_end)
                .wrapping_add(sums.range(src, job.b_begin, job.b_end)),
        }
    }
}

/// Keys per stripe checksum for blocks of `tile` keys: a divisor of the
/// tile, so no stripe straddles two blocks.
fn stripe_width(tile: usize) -> usize {
    cfmerge_numtheory::gcd(tile as u64, 64) as usize
}

/// One execution of one block.
struct Attempt<O> {
    profile: KernelProfile,
    /// The caller's observer; `None` for an armed block, which runs
    /// under `faults` alone.
    observer: Option<O>,
    faults: BlockFaults,
    verdict: Result<(), VerifyFailure>,
}

/// Outcome of one block's execute-verify-retry loop.
struct BlockExec<O> {
    /// Profile of the successful (or last) attempt.
    profile: KernelProfile,
    /// Observer of the successful attempt (`None` if every attempt
    /// failed; failed attempts and hedged duplicates drop theirs).
    observer: Option<O>,
    /// Summed counters of every failed attempt that was re-run: the
    /// launch prices only their total.
    retry_counters: PhaseCounters,
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
    /// Summed counters of every hedged duplicate (priced as an auxiliary
    /// launch in `settle_kernel`).
    hedge_counters: PhaseCounters,
}

impl<O> BlockExec<O> {
    /// Apply one hedged duplicate execution before the launch settles.
    ///
    /// A winning hedge (verified output, fewer spike cycles than the
    /// straggler accumulated) replaces the block's latency contribution;
    /// the output bytes need no replacing, because a verified duplicate
    /// *is* the unique sorted permutation the straggler already produced.
    /// A losing or corrupted hedge is discarded — its injections are
    /// still recorded, but a failed duplicate is not a detection against
    /// the primary result.
    fn apply_hedge(&mut self, hedge: Attempt<O>) {
        let hedge_spikes = hedge.faults.spike_cycles();
        self.hedges += 1;
        self.hedge_counters.add(&hedge.profile.total());
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

/// Cross-run accumulator (survives a fallback restart): the report being
/// built, plus the checkpoint policy and the checkpoints captured under
/// it.
#[derive(Default)]
struct RunStats {
    report: RecoveryReport,
    checkpoint: CheckpointPolicy,
    checkpoints: Vec<SortCheckpoint>,
}

impl RunStats {
    /// Record the switch from `from` to the Thrust fallback pipeline.
    fn fall_back(&mut self, from: SortAlgorithm, reason: String) {
        let to = SortAlgorithm::ThrustMergesort;
        self.report.degradations.push(Degradation::Fallback { from, to, reason });
        self.report.counters.fallbacks += 1;
    }
}

/// Fold one kernel's per-block outcomes into the report, price the launch
/// (main profile as one launch; retries as an extra launch; hedges as an
/// auxiliary launch; spikes at the device clock; backoff per `RETRY_BACKOFF_S`),
/// and surface the first unrecovered block if any.
///
/// Returns the kernel report, the extra modeled seconds beyond the main
/// launch, the first unrecovered block, and the blocks' observers.
#[allow(clippy::type_complexity)]
fn settle_kernel<O>(
    rcfg: &RobustConfig,
    name: &str,
    base_profile: KernelProfile,
    execs: Vec<BlockExec<O>>,
    report: &mut RecoveryReport,
) -> Result<(KernelReport, f64, Option<BlockFailure>, Vec<O>), SortError> {
    let cfg = &rcfg.base;
    let blocks = execs.len() as u64;
    let mut profile = base_profile;
    let mut retry_counters = PhaseCounters::default();
    let mut retried_execs = 0u64;
    let mut spike_cycles = 0u64;
    let mut backoff = 0.0f64;
    let mut failure: Option<BlockFailure> = None;
    let mut hedge_counters = PhaseCounters::default();
    let mut hedged_execs = 0u64;
    let mut observers = Vec::with_capacity(execs.len());
    for (block, mut ex) in execs.into_iter().enumerate() {
        profile.merge(&ex.profile);
        observers.extend(ex.observer);
        retry_counters.add(&ex.retry_counters);
        report.counters.faults_injected += ex.injections.len() as u64;
        report.counters.faults_detected += ex.detections.len() as u64;
        report.injections.append(&mut ex.injections);
        report.detections.append(&mut ex.detections);
        hedge_counters.add(&ex.hedge_counters);
        hedged_execs += u64::from(ex.hedges);
        report.counters.hedges_launched += u64::from(ex.hedges);
        report.counters.hedges_won += u64::from(ex.hedge_wins);
        report.hedges.launched += u64::from(ex.hedges);
        report.hedges.won += u64::from(ex.hedge_wins);
        report.hedges.cycles_saved += ex.hedge_cycles_saved;
        if ex.executions > 1 {
            let retries = u64::from(ex.executions - 1);
            report.counters.blocks_retried += 1;
            report.counters.retries += retries;
            retried_execs += retries;
            // Σ_{r=1..retries} backoff · 2^(r−1) = backoff · (2^retries − 1).
            backoff += RETRY_BACKOFF_S * (2f64.powi(retries as i32) - 1.0);
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
            .kernel_time(&cfg.device, &retry_counters, &cfg.launch(retried_execs))
            .map_err(unlaunchable)?;
        extra += rt.seconds;
        report.retry_seconds += rt.seconds;
    }
    if hedged_execs > 0 {
        // Hedged duplicates are enqueued device-side while the primary
        // launch drains — priced in full minus the host launch overhead.
        let ht = cfg
            .timing
            .auxiliary_launch_time(&cfg.device, &hedge_counters, &cfg.launch(hedged_execs))
            .map_err(unlaunchable)?;
        extra += ht.seconds;
        report.hedges.hedge_seconds += ht.seconds;
    }
    let spike_s = spike_cycles as f64 / cfg.device.clock_hz;
    extra += spike_s;
    report.spike_seconds += spike_s;
    extra += backoff;
    report.backoff_seconds += backoff;
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

/// What every block of a run hands its kernel besides its own slices.
/// With the key type and the block kind these are all a block's profile
/// depends on beyond its order type, so they key the memo's carried
/// entries (see `recovery/memo.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KernelArgs {
    banks: BankModel,
    u: usize,
    e: usize,
    strategy: MergeStrategy,
    count_accesses: bool,
}

impl KernelArgs {
    /// The arguments of a run of `algo` at `cfg`.
    fn of(cfg: &SortConfig, algo: SortAlgorithm) -> Self {
        KernelArgs {
            banks: cfg.device.bank_model(),
            u: cfg.params.u,
            e: cfg.params.e,
            strategy: algo.strategy(),
            count_accesses: cfg.count_accesses,
        }
    }

    /// Keys per block.
    fn tile(self) -> usize {
        self.e * self.u
    }

    /// Run `job`'s kernel once into `dst` under `observer`.
    fn execute<K: SortKey, P: Observer>(
        self,
        job: BlockJob,
        src: &[K],
        dst: &mut [K],
        observer: P,
    ) -> (KernelProfile, P) {
        let KernelArgs { banks, u, e, strategy, count_accesses } = self;
        match job {
            BlockJob::Tile(lo) => blocksort_block_observed(
                banks,
                u,
                e,
                strategy,
                &src[lo..lo + dst.len()],
                dst,
                lo,
                count_accesses,
                observer,
            ),
            BlockJob::Merge(job) => merge_pass_block_observed(
                banks,
                u,
                e,
                strategy,
                src,
                job,
                dst,
                count_accesses,
                observer,
            ),
        }
    }
}

/// What one pipeline execution holds fixed: the pipeline, the
/// configuration and recovery policy, the fault plan, and the factory
/// that hands every unarmed block attempt a fresh observer.
struct Driver<'a, F> {
    algo: SortAlgorithm,
    /// `base` is the configuration actually run (after any parameter
    /// substitution); the other fields are the retry and hedge policy.
    rcfg: &'a RobustConfig,
    plan: &'a FaultPlan,
    /// Marks the degraded alternate pipeline (sticky faults stop firing).
    fallback: bool,
    make_observer: &'a F,
    /// What every block of the run hands its kernel.
    args: KernelArgs,
}

impl<F, O> Driver<'_, F>
where
    O: Observer + Send,
    F: Fn() -> O + Sync,
{
    /// The one pipeline walk: pad, block sort, then merge passes until a
    /// single run remains, verifying and pricing every launch.
    /// `Ok(Err(_))` is a block that stayed failed after retries (the
    /// fallback trigger); outer `Err` is a configuration-level error (or
    /// a simulated kill, when the checkpoint policy asks for one). With
    /// `resume`, the block sort and completed merge passes are skipped
    /// and execution continues from the checkpoint's verified state (the
    /// caller has already validated it).
    ///
    /// The keys move between two `n_pad`-key buffers, one launch at a
    /// time. One is allocated here and becomes the returned output; the
    /// other is `session`'s spare for `K`, which never leaves the session.
    /// The padded input goes into the output buffer if the run has an even
    /// number of launches left and into the spare if odd, so that the last
    /// launch writes the output buffer. A session thus keeps one spare per
    /// key type, as large as its largest sort: a sort of that size or less
    /// neither allocates nor faults in a second buffer.
    #[allow(clippy::type_complexity)]
    fn run<K: SortKey>(
        &self,
        input: &[K],
        resume: Option<&SortCheckpoint>,
        stats: &mut RunStats,
        session: &mut Session,
    ) -> Result<Result<(SortRun<K>, BlockObservers<O>), BlockFailure>, SortError> {
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
        let (n_pad, mut width, mut pass, mut seconds) = match resume {
            Some(cp) => (cp.n_pad, cp.width, cp.completed_passes, cp.seconds_so_far),
            // A power-of-two number of tiles.
            None => (n.div_ceil(tile).next_power_of_two() * tile, 0, 0, 0.0),
        };
        // The block sort unless it has run, then a merge pass per doubling
        // of the run width up to `n_pad`.
        let launches = (n_pad / width.max(tile)).trailing_zeros() + u32::from(width == 0);
        // Each launch moves the keys to the other buffer, so they end
        // where the input starts iff `launches` is even. Start the input
        // in whichever buffer makes them end in `fresh`, the one the
        // caller gets back, and the spare stays in the session.
        let spare: &mut Vec<K> = session::entry(&mut session.spares, TypeId::of::<K>());
        if spare.capacity() < n_pad {
            // Free the smaller spare before allocating its successor.
            *spare = Vec::new();
            spare.reserve_exact(n_pad);
        }
        let mut fresh;
        let (mut src, mut dst) = if launches % 2 == 0 {
            fresh = Vec::with_capacity(n_pad);
            (&mut fresh, spare)
        } else {
            fresh = vec![K::default(); n_pad];
            (spare, &mut fresh)
        };
        src.clear();
        match resume {
            Some(cp) => src.extend(cp.state.iter().map(|&bits| K::from_fault_bits(bits))),
            None => {
                src.extend_from_slice(input);
                src.resize(n_pad, K::MAX_SENTINEL);
            }
        }
        // Every block writes its whole window of `dst` unless a fault
        // drops a store. Such a fault must meet the zeros of a new buffer,
        // not a stale key that may pass verification.
        if !self.plan.sites.is_empty() {
            dst.clear();
        }
        dst.resize(n_pad, K::default());

        // The stripe checksums of `src`, which each launch reads its
        // blocks' expected checksums off; its verification leaves those of
        // `dst`. Hashing the padded input is the sort's only pass over it
        // besides the copy.
        let stripe = stripe_width(tile);
        let stripes = &mut session.stripes;
        stripes.clear();
        stripes.resize(n_pad / stripe, 0);
        let padded_checksum = stripe_checksums(src, stripe, stripes);
        let input_checksum = without_sentinels::<K>(padded_checksum, n_pad - n);
        let mut kernels: Vec<KernelReport> = Vec::new();
        let mut observers: BlockObservers<O> = Vec::new();

        loop {
            let (kernel, jobs, base_profile) = if width == 0 {
                (0, (0..n_pad).step_by(tile).map(BlockJob::Tile).collect(), KernelProfile::new())
            } else if width < n_pad {
                let (jobs, search_cost) = partition_pass(src, width, tile, cfg.count_accesses);
                (1 + pass as u32, jobs, search_cost)
            } else {
                break;
            };
            // Only a launch whose blocks all run unwatched (no site of the
            // plan targets it) reads and writes its kind's carried entry.
            let carries = O::PASSIVE && !self.plan.sites.iter().any(|site| site.kernel == kernel);
            let carried = carries.then_some(&mut session.carried);
            let launch = Launch::new(kernel, self.args, jobs, n, src, stripes, carried);
            let detected = stats.report.counters.faults_detected;
            let (report, extra, failed, blocks) =
                self.launch(&launch, src, dst, stripes, base_profile, &mut stats.report)?;
            launch.finish(&mut session.carried);
            seconds += report.time.seconds + extra;
            kernels.push(report);
            if let Some(f) = failed {
                return Ok(Err(f));
            }
            observers.push(blocks);
            std::mem::swap(&mut src, &mut dst);
            // A retried block's stripes are its verified retry's, but only
            // a launch where no attempt failed carries them on: after a
            // failed attempt, the next launch's input is hashed anew.
            if stats.report.counters.faults_detected != detected {
                stripe_checksums(src, stripe, stripes);
            }
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
                    stats.report.counters,
                    padded_checksum,
                    src,
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

        let mut output = std::mem::take(src);
        debug_assert!(fresh.capacity() == 0, "the sorted keys end in the fresh buffer");
        output.truncate(n);
        // Defense in depth: the whole output against the whole input.
        // Block verification should make this unreachable; if it ever
        // fires, the run is treated exactly like a failed block
        // (fallback, then typed error) — never returned as a success.
        if let Err(failure) = verify_sorted_checksum(&output, input_checksum) {
            stats.report.counters.faults_detected += 1;
            stats.report.detections.push(DetectionRecord {
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
        let run = SortRun { output, profile, simulated_seconds: seconds, kernels, n };
        Ok(Ok((run, observers)))
    }

    /// One launch: every block's execute-verify-retry loop into its
    /// `tile`-sized window of `dst` (and its stripes of `stripes`), then
    /// straggler hedging, then [`settle_kernel`].
    #[allow(clippy::type_complexity)]
    fn launch<K: SortKey>(
        &self,
        launch: &Launch<K>,
        src: &[K],
        dst: &mut [K],
        stripes: &mut [u64],
        base_profile: KernelProfile,
        report: &mut RecoveryReport,
    ) -> Result<(KernelReport, f64, Option<BlockFailure>, Vec<O>), SortError> {
        let tile = self.rcfg.base.params.tile();
        let mut execs: Vec<BlockExec<O>> = dst
            .par_chunks_mut(tile)
            .zip(stripes.par_chunks_mut(tile / stripe_width(tile)))
            .enumerate()
            .map(|(block, (out, sums))| self.recover_block(launch, block, src, out, sums))
            .collect();
        let latencies: Vec<u64> = execs.iter().map(|ex| ex.spike_cycles).collect();
        for block in self.rcfg.hedge.stragglers(&latencies) {
            let ex = &mut execs[block];
            if ex.failure.is_some() {
                continue; // about to trigger fallback; duplicating it is pointless
            }
            let mut scratch = vec![K::default(); tile];
            // A hedge's scratch output leaves no stripes.
            let hedge = self.attempt(launch, block, ex.executions, src, &mut scratch, None);
            ex.apply_hedge(hedge);
        }
        settle_kernel(self.rcfg, &launch.name, base_profile, execs, report)
    }

    /// Execute-verify loop for one block: up to `1 + max_retries`
    /// attempts, stopping at the first whose output verifies.
    fn recover_block<K: SortKey>(
        &self,
        launch: &Launch<K>,
        block: usize,
        src: &[K],
        dst: &mut [K],
        stripes: &mut [u64],
    ) -> BlockExec<O> {
        let mut out = BlockExec {
            profile: KernelProfile::new(),
            observer: None,
            retry_counters: PhaseCounters::default(),
            executions: 0,
            spike_cycles: 0,
            injections: Vec::new(),
            detections: Vec::new(),
            failure: None,
            hedges: 0,
            hedge_wins: 0,
            hedge_cycles_saved: 0,
            hedge_counters: PhaseCounters::default(),
        };
        for attempt in 0..=self.rcfg.max_retries {
            let a = self.attempt(launch, block, attempt, src, dst, Some(&mut *stripes));
            out.executions = attempt + 1;
            out.spike_cycles += a.faults.spike_cycles();
            out.injections.extend(a.faults.into_records());
            match a.verdict {
                Ok(()) => {
                    out.profile = a.profile;
                    out.observer = a.observer;
                    out.failure = None;
                    return out;
                }
                Err(failure) => {
                    out.detections.push(DetectionRecord {
                        kernel: launch.name.to_string(),
                        block,
                        attempt,
                        failure,
                    });
                    out.retry_counters.add(&a.profile.total());
                    out.failure = Some(failure);
                }
            }
        }
        out
    }

    /// Run the block once into `dst` — under the plan's injector for this
    /// attempt if it arms a site, else under a fresh observer (see
    /// [`Launch::execute`]) — and verify what it wrote, replayed or
    /// simulated, leaving its stripe checksums in `stripes` if given.
    fn attempt<K: SortKey>(
        &self,
        launch: &Launch<K>,
        block: usize,
        attempt: u32,
        src: &[K],
        dst: &mut [K],
        stripes: Option<&mut [u64]>,
    ) -> Attempt<O> {
        let faults = self.plan.block_faults(launch.kernel, block as u32, attempt, self.fallback);
        // An unarmed injector changes nothing, but it would still route
        // every access through its hooks: run the block under the
        // caller's observer instead.
        let (profile, observer, faults) = if faults.is_unarmed() {
            let (profile, observer) = launch.execute(block, src, dst, (self.make_observer)());
            (profile, Some(observer), faults)
        } else {
            let (profile, faults) = launch.execute(block, src, dst, faults);
            (profile, None, faults)
        };
        let expect = launch.expected[block];
        let verdict = match stripes {
            Some(stripes) => verify_sorted_striped(dst, expect, stripe_width(dst.len()), stripes),
            None => verify_sorted_checksum(dst, expect),
        };
        Attempt { profile, observer, faults, verdict }
    }
}

/// Where a sort starts: a fresh input to sort with a pipeline, or a
/// checkpoint to resume.
enum Start<'a, K> {
    Fresh(&'a [K], SortAlgorithm),
    Resume(&'a SortCheckpoint),
}

impl<'a> From<&'a Payload> for Start<'a, u32> {
    fn from(payload: &'a Payload) -> Self {
        match payload {
            Payload::Fresh { input, algo } => Start::Fresh(input, *algo),
            Payload::Resume { checkpoint } => Start::Resume(checkpoint),
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
    simulate_sort_robust_checkpointed(input, algo, config, plan, CheckpointPolicy::default())
        .map(|(run, _)| run)
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
    let start = Start::Fresh(input, algo);
    Session::with_default(|s| run_robust(start, config, plan, policy, &|| Passive, s))
        .map(|(r, c, _)| (r, c))
}

/// Resume a sort from a [`SortCheckpoint`], skipping the block sort and
/// every completed merge pass.
///
/// The checkpoint is validated first — version, structural shape, every
/// run sorted, every block checksum matching
/// ([`SortCheckpoint::validate_as`]) — so work is only skipped when the
/// saved state is provably the verified state the original run produced.
/// The checkpoint's pipeline and `(E, u)` must match `config` exactly: a
/// resume never substitutes parameters. The resumed run's
/// `simulated_seconds` includes the checkpoint's `seconds_so_far`, and
/// with the same fault plan the final output is byte-identical to the
/// uninterrupted run; on a fault-free plan the total modeled seconds and
/// recovery counters are byte-identical too. (With live faults exact cost
/// equality is not guaranteed: a corruption that stale scratch data
/// masked in the original run is detected against the resume's fresh
/// scratch buffers and priced as an extra retry, and a fallback restart
/// discards the abandoned pipeline's partial seconds while a resume keeps
/// the checkpoint's committed seconds.) Kernel reports cover only the
/// re-executed remainder. The report's counters start from the
/// checkpoint's.
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
    let (start, none) = (Start::Resume(checkpoint), CheckpointPolicy::default());
    Session::with_default(|s| run_robust(start, config, plan, none, &|| Passive, s)).map(|r| r.0)
}

/// Run a service job — its fresh input or its checkpoint, under its fault
/// plan — on the robust driver, capturing checkpoints of a fresh sort
/// under `policy`.
pub(crate) fn run_job(
    job: &SortJob,
    config: &RobustConfig,
    policy: CheckpointPolicy,
) -> Result<(RobustSortRun<u32>, Vec<SortCheckpoint>), SortError> {
    let start = Start::from(&job.payload);
    Session::with_default(|s| run_robust(start, config, &job.plan, policy, &|| Passive, s))
        .map(|(r, c, _)| (r, c))
}

/// The plain entry points' run (`simulate_sort` and its `try_`,
/// `_traced` and `_checked` variants): the one driver under a fixed
/// policy — no faults, every block verified once, no retry, hedge,
/// fallback or checkpoint. A block failing verification here is a
/// simulator bug; it comes back as [`SortError::UnrecoverableFault`].
pub(crate) fn run_plain<K, O, F>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
    make_observer: &F,
) -> Result<(SortRun<K>, BlockObservers<O>), SortError>
where
    K: SortKey,
    O: Observer + Send,
    F: Fn() -> O + Sync,
{
    let plain = RobustConfig {
        base: config.clone(),
        max_retries: 0,
        allow_fallback: false,
        hedge: HedgeConfig::default(),
    };
    let (start, no_checkpoints) = (Start::Fresh(input, algo), CheckpointPolicy::default());
    let (robust, _, observers) = Session::with_default(|s| {
        run_robust(start, &plain, &FaultPlan::none(), no_checkpoints, make_observer, s)
    })?;
    Ok((robust.run, observers))
}

/// The pipeline a checkpoint resumes, once the checkpoint validates and
/// was captured at `cfg`'s `(E, u)`.
fn resumed_algorithm<K: SortKey>(
    checkpoint: &SortCheckpoint,
    cfg: &SortConfig,
) -> Result<SortAlgorithm, SortError> {
    checkpoint.validate_as::<K>()?;
    let algo = [SortAlgorithm::CfMerge, SortAlgorithm::ThrustMergesort]
        .into_iter()
        .find(|algo| algo.label() == checkpoint.algorithm)
        .ok_or_else(|| SortError::CheckpointInvalid {
            reason: format!("unknown algorithm {:?}", checkpoint.algorithm),
        })?;
    if (cfg.params.e, cfg.params.u) != (checkpoint.e, checkpoint.u) {
        return Err(SortError::CheckpointInvalid {
            reason: format!(
                "checkpoint captured at (E={}, u={}) cannot resume under (E={}, u={})",
                checkpoint.e, checkpoint.u, cfg.params.e, cfg.params.u
            ),
        });
    }
    Ok(algo)
}

/// The one driver front, for fresh and resumed sorts alike: validate the
/// start (a fresh sort may substitute known-good parameters for an
/// unlaunchable shape when fallback is allowed; a resume must match its
/// checkpoint exactly), run the pipeline, and on a block that stays
/// failed restart on the Thrust fallback when allowed — from the input,
/// or from the checkpoint's state. Every run borrows `session`.
#[allow(clippy::type_complexity)]
fn run_robust<K, O, F>(
    start: Start<'_, K>,
    config: &RobustConfig,
    plan: &FaultPlan,
    checkpoint: CheckpointPolicy,
    make_observer: &F,
    session: &mut Session,
) -> Result<(RobustSortRun<K>, Vec<SortCheckpoint>, BlockObservers<O>), SortError>
where
    K: SortKey,
    O: Observer + Send,
    F: Fn() -> O + Sync,
{
    let mut stats = RunStats { checkpoint, ..RunStats::default() };
    let mut rcfg = Cow::Borrowed(config);
    let (input, resume, mut algo) = match start {
        Start::Fresh(input, algo) => (input, None, algo),
        Start::Resume(cp) => {
            let algo = resumed_algorithm::<K>(cp, &rcfg.base)?;
            // A resume captures no checkpoints, and counts on from its
            // checkpoint's counters.
            stats.checkpoint = CheckpointPolicy::default();
            stats.report.counters = cp.counters;
            (&[][..], Some(cp), algo)
        }
    };

    match validate_sort_config(&rcfg.base) {
        Ok(()) => {}
        Err(SortError::Unlaunchable { device, why }) if rcfg.allow_fallback && resume.is_none() => {
            let sub = SortParams::known_good_default();
            stats.report.degradations.push(Degradation::ParamsSubstituted {
                from: (rcfg.base.params.e, rcfg.base.params.u),
                to: (sub.e, sub.u),
            });
            stats.fall_back(
                algo,
                format!("requested configuration cannot launch on {device}: {why}"),
            );
            rcfg.to_mut().base.params = sub;
            algo = SortAlgorithm::ThrustMergesort;
            validate_sort_config(&rcfg.base)?;
        }
        Err(e) => return Err(e),
    }

    let driver = |algo, fallback| Driver {
        algo,
        rcfg: &rcfg,
        plan,
        fallback,
        make_observer,
        args: KernelArgs::of(&rcfg.base, algo),
    };
    let (run, observers) = match driver(algo, false).run(input, resume, &mut stats, session)? {
        Ok(done) => done,
        Err(f) if rcfg.allow_fallback => {
            let why = format!(
                "{}{} block {} failed verification after {} attempts",
                if resume.is_some() { "resumed " } else { "" },
                f.kernel,
                f.block,
                f.attempts
            );
            stats.fall_back(algo, why);
            algo = SortAlgorithm::ThrustMergesort;
            stats.checkpoints.clear(); // primary checkpoints are void once abandoned

            // A resume restarts from the checkpoint state as input: a
            // permutation of the padded input, so its sort is the same
            // output (the sentinels sort to the tail and are truncated off).
            let state = resume.map(SortCheckpoint::state_keys::<K>);
            let (mut run, observers) = driver(algo, true)
                .run(state.as_deref().unwrap_or(input), None, &mut stats, session)?
                .map_err(BlockFailure::into_error)?;
            if let Some(cp) = resume {
                run.output.truncate(cp.n);
                run.n = cp.n;
                run.simulated_seconds += cp.seconds_so_far;
            }
            (run, observers)
        }
        Err(f) => return Err(f.into_error()),
    };

    let RunStats { report, checkpoints, .. } = stats;
    Ok((RobustSortRun { run, algorithm: algo, report }, checkpoints, observers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::sort::pipeline::{simulate_sort, simulate_sort_traced};
    use crate::verify::{multiset_checksum, verify_sorted_permutation};
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    use cfmerge_gpu_sim::trace::{BlockTracer, GlobalRoundEvent, SharedRoundEvent};
    use cfmerge_json::FromJson;
    use memo::{CarriedEntries, ObliviousShare, Pricing};

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

    /// Forwards every hook to both observers, so one block can be traced
    /// and injected at once.
    struct Both<A, B>(A, B);

    impl<A: Observer, B: Observer> Observer for Both<A, B> {
        const CHECKS: bool = A::CHECKS || B::CHECKS;
        const INJECTS: bool = A::INJECTS || B::INJECTS;

        fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
            self.0.begin_block(w, u, shared_len);
            self.1.begin_block(w, u, shared_len);
        }
        fn phase_begin(&mut self, class: PhaseClass) {
            self.0.phase_begin(class);
            self.1.phase_begin(class);
        }
        fn warp_begin(&mut self, warp: usize) {
            self.0.warp_begin(warp);
            self.1.warp_begin(warp);
        }
        fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
            self.0.shared_access(tid, idx, store) & self.1.shared_access(tid, idx, store)
        }
        fn global_access(&mut self, tid: u32, idx: usize, len: usize, store: bool) -> bool {
            self.0.global_access(tid, idx, len, store) & self.1.global_access(tid, idx, len, store)
        }
        fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.shared_ld_mask(tid, idx) ^ self.1.shared_ld_mask(tid, idx)
        }
        fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.shared_st_mask(tid, idx) ^ self.1.shared_st_mask(tid, idx)
        }
        fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.global_st_mask(tid, idx) ^ self.1.global_st_mask(tid, idx)
        }
        fn drops_store(&mut self, tid: u32) -> bool {
            self.0.drops_store(tid) | self.1.drops_store(tid)
        }
        fn warp_end(&mut self, warp: usize, class: PhaseClass) {
            self.0.warp_end(warp, class);
            self.1.warp_end(warp, class);
        }
        fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
            self.0.shared_round(ev);
            self.1.shared_round(ev);
        }
        fn global_round(&mut self, ev: &GlobalRoundEvent) {
            self.0.global_round(ev);
            self.1.global_round(ev);
        }
        fn alu(&mut self, class: PhaseClass, ops: u64) {
            self.0.alu(class, ops);
            self.1.alu(class, ops);
        }
        fn phase_end(&mut self, class: PhaseClass) {
            self.0.phase_end(class);
            self.1.phase_end(class);
        }
    }

    #[test]
    fn unarmed_injector_matches_no_faults_exactly() {
        // The driver runs a block whose plan arms no site under the
        // caller's observer. That is sound only if an unarmed
        // `BlockFaults` changes no output, counter, or trace.
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
                    let (p0, t0) = blocksort_block_observed(
                        banks,
                        u,
                        e,
                        strategy,
                        s,
                        d,
                        t * tile,
                        true,
                        BlockTracer::new(banks),
                    );
                    let (p1, Both(t1, f1)) = blocksort_block_observed(
                        banks,
                        u,
                        e,
                        strategy,
                        s,
                        &mut d_unarmed,
                        t * tile,
                        true,
                        Both(BlockTracer::new(banks), faults),
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
                    let (p0, t0) = merge_pass_block_observed(
                        banks,
                        u,
                        e,
                        strategy,
                        &runs,
                        job,
                        &mut d0,
                        true,
                        BlockTracer::new(banks),
                    );
                    let (p1, Both(t1, f1)) = merge_pass_block_observed(
                        banks,
                        u,
                        e,
                        strategy,
                        &runs,
                        job,
                        &mut d1,
                        true,
                        Both(BlockTracer::new(banks), faults),
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

    /// A checkpoint of a CF-Merge run of `8 · 160 + 3` keys killed after
    /// merge pass 0, whose block sort retried one transient fault.
    fn checkpoint_after_pass_1(rcfg: &RobustConfig) -> (Vec<u32>, SortCheckpoint) {
        let input = InputSpec::UniformRandom { seed: 38 }.generate(8 * 160 + 3);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            2,
            FaultKind::StuckBank { bank: 2, bit: 5 },
            Persistence::Transient,
        )]);
        match simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            rcfg,
            &plan,
            CheckpointPolicy::kill_after(1),
        ) {
            Err(SortError::Interrupted { after_pass: 1, checkpoint }) => (input, *checkpoint),
            other => panic!("expected Interrupted after pass 1, got {other:?}"),
        }
    }

    #[test]
    fn resumed_block_that_exhausts_its_retries_falls_back_on_the_checkpoint_state() {
        let rcfg = small_rcfg();
        let (input, cp) = checkpoint_after_pass_1(&rcfg);
        assert_eq!(cp.counters.retries, 1, "the checkpoint carries the block sort's retry");
        // Kernel 3 is merge pass 2, the second launch the resume runs.
        let plan = FaultPlan::from_sites(vec![site(
            3,
            1,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Sticky,
        )]);
        let r = resume_sort_robust::<u32>(&cp, &rcfg, &plan).expect("fallback rescues the resume");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::ThrustMergesort);
        assert_eq!(r.run.n, cp.n);
        assert_eq!(r.run.output.len(), cp.n);
        // The fallback re-sorts the checkpoint state from scratch (a sticky
        // site stops firing on the fallback), and the checkpoint's seconds
        // stay committed; the abandoned primary's are dropped.
        let rerun = simulate_sort_robust(
            &cp.state_keys::<u32>(),
            SortAlgorithm::ThrustMergesort,
            &rcfg,
            &FaultPlan::none(),
        )
        .expect("clean Thrust sort of the checkpoint state");
        assert_eq!(r.run.simulated_seconds, rerun.run.simulated_seconds + cp.seconds_so_far);
        assert_eq!(r.run.simulated_seconds, 0.000_175_834_244_366_537_95);
        match &r.report.degradations[..] {
            [Degradation::Fallback { from, to, reason }] => {
                assert_eq!((*from, *to), (SortAlgorithm::CfMerge, SortAlgorithm::ThrustMergesort));
                assert!(reason.starts_with("resumed merge-pass-"), "{reason}");
            }
            other => panic!("expected one fallback, got {other:?}"),
        }
        // The checkpoint's counters merged with the rerun's: one block
        // failed on its first try and both retries, then one fallback.
        let mut expect = cp.counters;
        expect.merge(&RecoveryCounters {
            faults_injected: 3,
            faults_detected: 3,
            blocks_retried: 1,
            retries: 2,
            fallbacks: 1,
            ..RecoveryCounters::default()
        });
        assert_eq!(r.report.counters, expect);
    }

    #[test]
    fn resumed_permanent_fault_is_unrecoverable() {
        let rcfg = small_rcfg();
        let (_, cp) = checkpoint_after_pass_1(&rcfg);
        let plan = FaultPlan::from_sites(vec![site(
            3,
            1,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Permanent,
        )]);
        match resume_sort_robust::<u32>(&cp, &rcfg, &plan) {
            Err(SortError::UnrecoverableFault { kernel, attempts, .. }) => {
                assert!(kernel.starts_with("merge-pass-"), "{kernel}");
                assert_eq!(attempts, rcfg.max_retries + 1);
            }
            other => panic!("expected UnrecoverableFault, got {other:?}"),
        }
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
    fn self_consistent_checkpoint_of_the_wrong_shape_is_rejected() {
        // Sorted runs and matching checksums, but a padded length or run
        // width the driver cannot continue from at E=5, u=32 (tile 160).
        let rcfg = small_rcfg();
        for (n_pad, width) in [(3 * 160, 160), (200, 100)] {
            let mut state = InputSpec::UniformRandom { seed: 37 }.generate(n_pad);
            state.chunks_mut(width).for_each(<[u32]>::sort_unstable);
            let cp = SortCheckpoint::capture::<u32>(
                SortAlgorithm::CfMerge.label(),
                (5, 32),
                n_pad,
                width,
                0,
                0.0,
                RecoveryCounters::default(),
                multiset_checksum(&state),
                &state,
            );
            let shape = format!("n_pad={n_pad} width={width}");
            assert!(
                matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })),
                "{shape}"
            );
            assert!(
                matches!(
                    resume_sort_robust::<u32>(&cp, &rcfg, &FaultPlan::none()),
                    Err(SortError::CheckpointInvalid { .. })
                ),
                "{shape}"
            );
        }
    }

    /// A driver that runs blocks unwatched, so through the memo.
    fn passive_driver<'a>(
        algo: SortAlgorithm,
        rcfg: &'a RobustConfig,
        plan: &'a FaultPlan,
    ) -> Driver<'a, fn() -> Passive> {
        Driver {
            algo,
            rcfg,
            plan,
            fallback: false,
            make_observer: &((|| Passive) as fn() -> Passive),
            args: KernelArgs::of(&rcfg.base, algo),
        }
    }

    /// Launch `kernel` of `jobs` over `src` for a sort of `n` keys, its
    /// stripe checksums hashed anew, starting from its kind's entry in
    /// `carried` if given.
    fn launch_over(
        kernel: u32,
        args: KernelArgs,
        jobs: Vec<BlockJob>,
        n: usize,
        src: &[u32],
        carried: Option<&mut CarriedEntries>,
    ) -> Launch<u32> {
        let stripe = stripe_width(args.tile());
        let mut stripes = vec![0; src.len().div_ceil(stripe)];
        stripe_checksums(src, stripe, &mut stripes);
        Launch::new(kernel, args, jobs, n, src, &mut stripes, carried)
    }

    #[test]
    fn merge_memo_key_keeps_sector_alignment() {
        // Every A key is below every B key, so chunks at any offset share
        // one interleaving (80 from A, then 80 from B); only the sector
        // alignment of `a_begin` tells them apart.
        let args = KernelArgs::of(&small_rcfg().base, SortAlgorithm::CfMerge);
        let src: Vec<u32> = (0..2000).map(|k| if k < 1000 { k } else { 5000 + k }).collect();
        let chunk = |a: usize| {
            BlockJob::Merge(MergeChunkJob { a_begin: a, a_end: a + 80, b_begin: 1000, b_end: 1080 })
        };
        let jobs = [0, 3, 8, 0].map(chunk).to_vec();
        let launch = launch_over(1, args, jobs, 4 * 160, &src, None);
        let (mut dst, mut fresh) = (vec![0u32; 160], vec![0u32; 160]);
        let mut profiles = Vec::new();
        // Block indices 0..3 of a 4-block launch: none is sampled.
        for (block, a) in [0, 3, 8].into_iter().enumerate() {
            let (profile, Passive) = launch.execute(block, &src, &mut dst, Passive);
            let (simulated, Passive) = args.execute(chunk(a), &src, &mut fresh, Passive);
            assert_eq!(dst, fresh, "a_begin {a}");
            assert_eq!(profile, simulated, "a_begin {a}");
            profiles.push(profile);
        }
        let calls = launch.take_simulated();
        let load = |p: &KernelProfile| *p.phase(PhaseClass::LoadTile);
        assert_ne!(load(&profiles[0]), load(&profiles[1]), "misaligned A loads more sectors");
        // a_begin 8 shares a_begin 0's residue: a hit, not a simulation.
        // The miss at a_begin 3 runs lean.
        assert_eq!(calls[..2], [(0, Pricing::Full), (1, Pricing::Lean)]);
        assert!(calls.iter().all(|&(block, _)| block < 2), "{calls:?}");
    }

    /// Two sorted random runs of 1000 keys, `A` then `B`, and a launch
    /// of 64 chunks of `a_len` 80 and `b_len` 80 whose block `b` takes
    /// the chunk at offset `at` into both runs for each `(b, at)` in
    /// `chunks`, and the chunk at 0 otherwise. Every block's output window
    /// holds real keys, so block 63 is the last real one.
    fn chunk_launch(chunks: &[(usize, usize)]) -> (Vec<u32>, KernelArgs, Launch<u32>) {
        let mut runs = InputSpec::UniformRandom { seed: 44 }.generate(2000);
        runs[..1000].sort_unstable();
        runs[1000..].sort_unstable();
        let args = KernelArgs::of(&small_rcfg().base, SortAlgorithm::CfMerge);
        let mut jobs = vec![chunk_at(0); 64];
        for &(block, at) in chunks {
            jobs[block] = chunk_at(at);
        }
        let launch = launch_over(1, args, jobs, 64 * 160, &runs, None);
        (runs, args, launch)
    }

    /// The merge chunk at offset `at` into both runs of `chunk_launch`.
    fn chunk_at(at: usize) -> BlockJob {
        BlockJob::Merge(MergeChunkJob {
            a_begin: at,
            a_end: at + 80,
            b_begin: 1000 + at,
            b_end: 1080 + at,
        })
    }

    #[test]
    fn miss_of_a_known_shape_runs_its_load_unpriced() {
        // Offsets 0, 400 and 800 share a shape (|A| and both sector
        // residues), not an order type; offset 3 has a shape of its own.
        let (runs, args, launch) = chunk_launch(&[(1, 400), (2, 3), (3, 800)]);
        let (mut dst, mut fresh) = (vec![0u32; 160], vec![0u32; 160]);
        for (block, at) in [(0, 0), (1, 400), (2, 3), (3, 800)] {
            let (profile, Passive) = launch.execute(block, &runs, &mut dst, Passive);
            let (simulated, Passive) = args.execute(chunk_at(at), &runs, &mut fresh, Passive);
            assert_eq!((&profile, &dst), (&simulated, &fresh), "offset {at}");
        }
        let calls = launch.take_simulated();
        let first_runs: Vec<_> = [0, 1, 2, 3]
            .iter()
            .map(|&b| *calls.iter().find(|&&(block, _)| block == b).expect("a miss"))
            .collect();
        assert_eq!(
            first_runs,
            [
                (0, Pricing::Full),
                (1, Pricing::LeanShape),
                (2, Pricing::Lean),
                (3, Pricing::LeanShape)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "shape entry invariant violated: merge-pass-0 block 63 charged its \
                               shape phases other counters than its shape's entry at phase load \
                               counter alu_ops")]
    fn doctored_shape_entry_fails_the_next_sampled_block() {
        let (runs, _, mut launch) = chunk_launch(&[(63, 800)]);
        let mut dst = vec![0u32; 160];
        let _ = launch.execute(0, &runs, &mut dst, Passive);
        launch.doctor_shapes();
        // Block 63 shares block 0's shape, and a sampled block prices its
        // load in full. (A debug build would also catch an unsampled miss
        // of the shape charged the doctored entry, by simulating it in
        // full once more.)
        let _ = launch.execute(63, &runs, &mut dst, Passive);
    }

    /// Two copies of one random tile, then a different tile.
    fn three_tiles() -> Vec<u32> {
        let tile = InputSpec::RandomPermutation { seed: 39 }.generate(160);
        let other = InputSpec::RandomPermutation { seed: 41 }.generate(160);
        [tile.clone(), tile, other].concat()
    }

    /// Block-sort the tile of `src` at `lo` unwatched and in full: its
    /// profile and its oblivious share.
    fn simulate_tile(src: &[u32], lo: usize, dst: &mut [u32]) -> (KernelProfile, KernelProfile) {
        let args = KernelArgs::of(&small_rcfg().base, SortAlgorithm::ThrustMergesort);
        let (profile, ObliviousShare { share, .. }) =
            args.execute(BlockJob::Tile(lo), src, dst, ObliviousShare::default());
        (profile, share)
    }

    /// An unwatched Thrust block-sort launch of `blocks` blocks over `src`
    /// whose block `b` sorts the tile at `lo` for each `(b, lo)` in
    /// `tiles`, and the tile at 0 otherwise. Every tile is real, so its
    /// last block is the last real one. It carries its kind's entry in
    /// `carried` if given.
    fn tile_launch(
        src: &[u32],
        blocks: usize,
        tiles: &[(usize, usize)],
        carried: Option<&mut CarriedEntries>,
    ) -> Launch<u32> {
        let args = KernelArgs::of(&small_rcfg().base, SortAlgorithm::ThrustMergesort);
        let mut jobs = vec![BlockJob::Tile(0); blocks];
        for &(block, lo) in tiles {
            jobs[block] = BlockJob::Tile(lo);
        }
        launch_over(0, args, jobs, blocks * 160, src, carried)
    }

    #[test]
    fn lean_miss_is_charged_the_launchs_oblivious_share() {
        let src = three_tiles();
        let mut dst = vec![0u32; 160];
        let launch = tile_launch(&src, 128, &[(2, 320)], None);
        let (first, Passive) = launch.execute(0, &src, &mut dst, Passive);
        let _ = launch.take_simulated();
        let (lean, Passive) = launch.execute(2, &src, &mut dst, Passive);
        let pricings: Vec<Pricing> = launch.take_simulated().into_iter().map(|(_, p)| p).collect();
        assert_eq!(pricings[0], Pricing::Lean);
        let mut full_dst = vec![0u32; 160];
        let (full, share) = simulate_tile(&src, 320, &mut full_dst);
        assert_eq!((&lean, &dst), (&full, &full_dst));
        // The share is the block's oblivious phases: no search or merge.
        assert!(
            share.phase(PhaseClass::Merge).is_zero() && share.phase(PhaseClass::Search).is_zero()
        );
        assert_eq!(share.phase(PhaseClass::StoreTile), first.phase(PhaseClass::StoreTile));
    }

    // A sampled block checks its oblivious share first, so the doctored
    // representative below keeps an honest share to reach the profile
    // check.
    #[test]
    #[should_panic(expected = "blocksort block 63 re-simulated to a profile that differs")]
    fn doctored_representative_fails_its_sampled_resimulation() {
        let src = three_tiles();
        let mut dst = vec![0u32; 160];
        let mut launch = tile_launch(&src, 128, &[(1, 160), (63, 160)], None);
        let _ = launch.execute(0, &src, &mut dst, Passive);
        launch.rep_profile_mut(0).phase_mut(PhaseClass::Sort).alu_ops += 1;
        let doctored = launch.rep_profile_mut(0).clone();
        // An unsampled hit charges the cached profile as it is...
        let _ = launch.take_simulated();
        let (replayed, Passive) = launch.execute(1, &src, &mut dst, Passive);
        assert!(launch.take_simulated().is_empty(), "a hit");
        assert_eq!(replayed, doctored);
        // ...and a sampled one re-simulates and catches the difference.
        let _ = launch.execute(63, &src, &mut dst, Passive);
    }

    #[test]
    #[should_panic(expected = "oblivious share invariant violated: blocksort block 63 reported \
                               an oblivious share that differs from the launch's cached one at \
                               phase sort counter alu_ops")]
    fn doctored_oblivious_share_fails_a_sampled_block() {
        let src = three_tiles();
        let mut dst = vec![0u32; 160];
        let mut launch = tile_launch(&src, 128, &[(63, 160)], None);
        let _ = launch.execute(0, &src, &mut dst, Passive);
        launch.share_mut().phase_mut(PhaseClass::Sort).alu_ops += 1;
        let _ = launch.execute(63, &src, &mut dst, Passive);
    }

    #[test]
    fn tile_periodic_sort_replays_most_blocks() {
        let rcfg = small_rcfg();
        let plan = FaultPlan::none();
        let tile = InputSpec::RandomPermutation { seed: 40 }.generate(160);
        let input = tile.repeat(16);
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let driver = passive_driver(algo, &rcfg, &plan);
            let mut session = Session::default();
            let Ok(Ok((run, _))) = driver.run(&input, None, &mut RunStats::default(), &mut session)
            else {
                panic!("clean run of {algo:?} failed");
            };
            let blocks: u64 = run.kernels.iter().map(|k| k.blocks).sum();
            let simulated = session.carried.take_simulated().len() as u64;
            assert!(simulated < blocks / 2, "{algo:?}: simulated {simulated} of {blocks} blocks");
            assert_eq!(
                run,
                crate::sort::pipeline::simulate_sort_traced(&input, algo, &rcfg.base).run
            );
        }
    }

    /// Sort `input` unwatched in `session`; the run and every block
    /// simulation of its launches.
    fn unwatched_log<K: SortKey>(
        session: &mut Session,
        algo: SortAlgorithm,
        rcfg: &RobustConfig,
        input: &[K],
    ) -> (SortRun<K>, Vec<(usize, Pricing)>) {
        let plan = FaultPlan::none();
        let driver = passive_driver(algo, rcfg, &plan);
        let _ = session.carried.take_simulated();
        let Ok(Ok((run, _))) = driver.run(input, None, &mut RunStats::default(), session) else {
            panic!("clean run of {algo:?} failed");
        };
        (run, session.carried.take_simulated())
    }

    /// Sort `input` unwatched in `session`; the run and the number of
    /// block simulations.
    fn unwatched_sort<K: SortKey>(
        session: &mut Session,
        algo: SortAlgorithm,
        rcfg: &RobustConfig,
        input: &[K],
    ) -> (SortRun<K>, usize) {
        let (run, log) = unwatched_log(session, algo, rcfg, input);
        (run, log.len())
    }

    /// A sort from `start` in `session` under `make_observer`, capturing
    /// no checkpoints.
    fn sort_in<K: SortKey, O: Observer + Send>(
        session: &mut Session,
        start: Start<'_, K>,
        rcfg: &RobustConfig,
        plan: &FaultPlan,
        make_observer: &(impl Fn() -> O + Sync),
    ) -> Result<RobustSortRun<K>, SortError> {
        let no_checkpoints = CheckpointPolicy::default();
        Ok(run_robust(start, rcfg, plan, no_checkpoints, make_observer, session)?.0)
    }

    /// Blocks of a launch of `blocks` that the sampling rule re-simulates,
    /// in a sort of `n` keys in `tile`-key tiles: one in 64 and the last
    /// whose output window holds an input key.
    fn sampled(blocks: u64, n: usize, tile: usize) -> usize {
        let last_real = n.div_ceil(tile) as u64 - 1;
        (0..blocks).filter(|&b| b % 64 == 63 || b == last_real).count()
    }

    #[test]
    fn second_worst_case_sort_simulates_only_sampled_blocks() {
        let rcfg = small_rcfg();
        for tiles in [16, 128] {
            let input = InputSpec::WorstCase { w: 32, e: 5, u: 32 }.generate(tiles * 160);
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let mut session = Session::default();
                let first = unwatched_sort(&mut session, algo, &rcfg, &input);
                let second = unwatched_sort(&mut session, algo, &rcfg, &input);
                let ((run, simulated), (_, first_simulated)) = (second, first);
                let sampled: usize =
                    run.kernels.iter().map(|k| sampled(k.blocks, input.len(), 160)).sum();
                assert_eq!(simulated, sampled, "{algo:?}, {tiles} tiles");
                assert!(first_simulated > sampled, "{algo:?}, {tiles} tiles: {first_simulated}");
                assert_eq!(run, simulate_sort_traced(&input, algo, &rcfg.base).run);
            }
        }
    }

    #[test]
    fn second_ragged_sort_replays_its_padded_tile() {
        // Three worst-case tiles and five keys: the block sort's last
        // tile is padded with sentinels, an order type no other tile
        // shares, so its representative replays nothing in its launch.
        let params = SortParams::e15_u512();
        let rcfg = RobustConfig::new(SortConfig::with_params(params));
        let tile = params.tile();
        let input = InputSpec::worst_case(params).generate(4 * tile)[..3 * tile + 5].to_vec();
        let tile_reps = |session: &Session| {
            let carried = session.carried.of_key::<u32>();
            let tiles = carried.into_iter().find(|(kind, ..)| kind.tiles());
            tiles.expect("a block-sort entry").1
        };
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let mut session = Session::default();
            let _ = unwatched_sort(&mut session, algo, &rcfg, &input);
            let carried = tile_reps(&session);
            assert_eq!(carried.len(), 2, "{algo:?}: the full tiles' and the padded tile's");
            let (run, _) = unwatched_sort(&mut session, algo, &rcfg, &input);
            // Every tile replays, the padded one at the launch's sampled
            // last real block: the second sort makes no new representative.
            assert_eq!(tile_reps(&session), carried, "{algo:?}");
            assert_eq!(run, simulate_sort_traced(&input, algo, &rcfg.base).run);
        }
    }

    #[test]
    fn second_random_sort_runs_every_unsampled_merge_load_unpriced() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 43 }.generate(16 * 160);
        let mut session = Session::default();
        let algo = SortAlgorithm::ThrustMergesort;
        let _ = unwatched_log(&mut session, algo, &rcfg, &input);
        let (run, log) = unwatched_log(&mut session, algo, &rcfg, &input);
        let count = |pricing| log.iter().filter(|&&(_, p)| p == pricing).count();
        let unsampled = |k: &KernelReport| k.blocks as usize - sampled(k.blocks, input.len(), 160);
        // The block sort carries the representative of its first tile,
        // which replays that tile. The merge kind's is the last pass's
        // and replays nothing in the first. Every other unsampled block
        // is a lean miss, and every merge chunk's shape is known from the
        // first sort.
        let merge_unsampled: usize = run.kernels[1..].iter().map(unsampled).sum();
        assert_eq!(count(Pricing::Lean), unsampled(&run.kernels[0]) - 1);
        assert_eq!(count(Pricing::LeanShape), merge_unsampled);
        assert_eq!(run, simulate_sort_traced(&input, algo, &rcfg.base).run);
    }

    #[test]
    fn padding_blocks_replay_after_their_first() {
        // Five random tiles pad to eight: blocks 5, 6 and 7 of every
        // launch sort or merge sentinels alone, and block 4 is the last
        // whose output window holds an input key.
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 45 }.generate(5 * 160);
        let padding = |log: &[(usize, Pricing)]| {
            log.iter().filter(|&&(block, _)| block >= 5 && block % 64 != 63).count()
        };
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let mut session = Session::default();
            let (_, first) = unwatched_log(&mut session, algo, &rcfg, &input);
            assert!(padding(&first) > 0, "{algo:?}: the first sort leaves the uniform entries");
            // The second sort's padding replays from the carried entries,
            // and each launch simulates its last real block in full.
            let (run, second) = unwatched_log(&mut session, algo, &rcfg, &input);
            assert_eq!(padding(&second), 0, "{algo:?}: {second:?}");
            let last_real = second.iter().filter(|&&entry| entry == (4, Pricing::Full)).count();
            assert_eq!(last_real, run.kernels.len(), "{algo:?}: {second:?}");
            assert_eq!(run, simulate_sort_traced(&input, algo, &rcfg.base).run);
        }
    }

    /// A block-sort launch of 64 blocks over 33 random tiles padded to 64:
    /// blocks 33 to 63 sort sentinels alone, and block 63 is sampled. Its
    /// block 33 has run, and left the uniform entry, which is doctored.
    fn doctored_padding_launch() -> (Vec<u32>, Launch<u32>) {
        let mut src = InputSpec::UniformRandom { seed: 46 }.generate(33 * 160);
        src.resize(34 * 160, u32::MAX);
        let args = KernelArgs::of(&small_rcfg().base, SortAlgorithm::ThrustMergesort);
        let jobs = (0..64).map(|b: usize| BlockJob::Tile(b.min(33) * 160)).collect();
        let mut launch = launch_over(0, args, jobs, 33 * 160, &src, None);
        let _ = launch.execute(33, &src, &mut vec![0u32; 160], Passive);
        launch.doctor_uniform();
        (src, launch)
    }

    #[test]
    #[should_panic(expected = "block memo invariant violated: blocksort block 63 re-simulated")]
    fn doctored_uniform_entry_fails_the_next_sampled_block() {
        let (src, launch) = doctored_padding_launch();
        let _ = launch.execute(63, &src, &mut vec![0u32; 160], Passive);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "uniform entry invariant violated: blocksort block 34 was charged")]
    fn doctored_uniform_entry_fails_a_debug_build_at_once() {
        // An unsampled uniform replay is re-simulated in a debug build.
        let (src, launch) = doctored_padding_launch();
        let _ = launch.execute(34, &src, &mut vec![0u32; 160], Passive);
    }

    #[test]
    fn sessions_share_no_carried_entries() {
        let rcfg = small_rcfg();
        let algo = SortAlgorithm::CfMerge;
        let input = InputSpec::WorstCase { w: 32, e: 5, u: 32 }.generate(16 * 160);
        let (mut first, mut second) = (Session::default(), Session::default());
        let (run, alone) = unwatched_sort(&mut first, algo, &rcfg, &input);
        let sampled: usize = run.kernels.iter().map(|k| sampled(k.blocks, input.len(), 160)).sum();
        assert!(alone > sampled, "{alone} of {sampled}");
        // A fresh session on the same thread starts from nothing that
        // `first` carries...
        assert_eq!(unwatched_sort(&mut second, algo, &rcfg, &input).1, alone);
        // ...and `first` still carries its own.
        assert_eq!(unwatched_sort(&mut first, algo, &rcfg, &input).1, sampled);
        // The public entry points share the thread's default session, so
        // a second call carries from the first.
        let public = || {
            assert_eq!(simulate_sort(&input, algo, &rcfg.base), run);
            Session::with_default(|s| s.carried.take_simulated().len())
        };
        let _ = public();
        assert_eq!(public(), sampled);
    }

    #[test]
    fn carried_entries_never_cross_launch_kinds() {
        let thrust = SortAlgorithm::ThrustMergesort;
        let keys = InputSpec::WorstCase { w: 32, e: 5, u: 32 }.generate(8 * 160);
        let wide: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let rcfg = small_rcfg();
        // (5, 64) and (10, 32) both have 320-key tiles, so the same keys
        // give both the same blocks.
        let e5_u64 = RobustConfig::new(SortConfig::with_params(SortParams::new(5, 64)));
        let e10_u32 = RobustConfig::new(SortConfig::with_params(SortParams::new(10, 32)));
        let mut kepler = small_rcfg();
        kepler.base.device = cfmerge_gpu_sim::device::Device::kepler_64bit_like();
        assert_ne!(kepler.base.device.bank_model(), rcfg.base.device.bank_model());
        type Sort<'a> = dyn Fn(&mut Session) -> usize + 'a;
        // The second sort of each pair in a fresh session, alone, after
        // its twin, and after itself. Its twin's blocks share its order
        // types, so only the launch kind keeps the twin's representatives
        // out.
        let pair = |first: &Sort, second: &Sort, what: &str| {
            let alone = second(&mut Session::default());
            let after = |before: &Sort| {
                let mut session = Session::default();
                before(&mut session);
                second(&mut session)
            };
            let (after_twin, after_itself) = (after(first), after(second));
            assert_eq!(after_twin, alone, "{what}");
            assert!(after_itself < alone, "{what}: {after_itself} of {alone}");
        };
        let sort =
            |algo, rcfg: &RobustConfig, s: &mut Session| unwatched_sort(s, algo, rcfg, &keys).1;
        let sort_wide = |s: &mut Session| unwatched_sort(s, thrust, &rcfg, &wide).1;
        pair(&|s| sort(thrust, &rcfg, s), &sort_wide, "u32, u64");
        pair(
            &|s| sort(thrust, &rcfg, s),
            &|s| sort(SortAlgorithm::CfMerge, &rcfg, s),
            "Thrust, CF",
        );
        pair(&|s| sort(thrust, &e5_u64, s), &|s| sort(thrust, &e10_u32, s), "(5, 64), (10, 32)");
        pair(&|s| sort(thrust, &rcfg, s), &|s| sort(thrust, &kepler, s), "bank models");
    }

    #[test]
    #[should_panic(expected = "block memo invariant violated: blocksort block 63 re-simulated")]
    fn doctored_carried_representative_fails_the_next_launch() {
        let src = three_tiles();
        let mut carried = CarriedEntries::default();
        let mut dst = vec![0u32; 160];
        let mut launch = tile_launch(&src, 128, &[(1, 160)], Some(&mut carried));
        let _ = launch.execute(0, &src, &mut dst, Passive);
        launch.rep_profile_mut(0).phase_mut(PhaseClass::Sort).alu_ops += 1;
        let doctored = launch.rep_profile_mut(0).clone();
        let _ = launch.execute(1, &src, &mut dst, Passive);
        launch.finish(&mut carried);
        // The next launch of the kind replays the carried representative
        // at block 0, and its sampled block 63 catches it.
        let launch = tile_launch(&src, 128, &[(63, 160)], Some(&mut carried));
        let (replayed, Passive) = launch.execute(0, &src, &mut dst, Passive);
        assert!(launch.take_simulated().is_empty(), "a hit");
        assert_eq!(replayed, doctored);
        let _ = launch.execute(63, &src, &mut dst, Passive);
    }

    #[test]
    #[should_panic(expected = "oblivious share invariant violated: blocksort block 63 reported \
                               an oblivious share that differs from the launch's cached one")]
    fn doctored_carried_share_fails_the_next_launch() {
        let src = three_tiles();
        let mut carried = CarriedEntries::default();
        let mut dst = vec![0u32; 160];
        let mut launch = tile_launch(&src, 128, &[], Some(&mut carried));
        let _ = launch.execute(0, &src, &mut dst, Passive);
        launch.share_mut().phase_mut(PhaseClass::Sort).alu_ops += 1;
        launch.finish(&mut carried);
        // The next launch's sampled block 63 checks its share against the
        // carried one.
        let launch = tile_launch(&src, 128, &[(63, 320)], Some(&mut carried));
        let _ = launch.execute(63, &src, &mut dst, Passive);
    }

    #[test]
    fn random_inputs_carry_the_share_and_one_representative() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 42 }.generate(8 * 160);
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let mut session = Session::default();
            let _ = unwatched_sort(&mut session, algo, &rcfg, &input);
            let carried = session.carried.of_key::<u32>();
            // One block-sort kind and one merge kind. No representative
            // replays, so each kind keeps the first its last launch made.
            assert_eq!(carried.len(), 2, "{algo:?}");
            for (kind, reps, share, shapes) in carried {
                assert!(reps.len() == 1 && share.is_some(), "{algo:?}: {} reps", reps.len());
                assert_eq!(shapes > 0, !kind.tiles(), "{algo:?}: {shapes} shape entries");
            }
        }
    }

    #[test]
    fn traced_and_fault_armed_launches_leave_carried_entries_alone() {
        let rcfg = small_rcfg();
        let algo = SortAlgorithm::ThrustMergesort;
        let input = InputSpec::WorstCase { w: 32, e: 5, u: 32 }.generate(8 * 160);
        // A latency spike in block 7 of every launch: no corruption, but
        // every launch is armed.
        let spike = FaultKind::LatencySpike { cycles: 5000 };
        let armed = FaultPlan::from_sites(
            (0..4).map(|k| site(k, 7, spike, Persistence::Transient)).collect(),
        );
        let banks = rcfg.base.device.bank_model();
        let (start, none) = (|| Start::Fresh(&input, algo), FaultPlan::none());
        let runs = |s: &mut Session| {
            let traced = sort_in(s, start(), &rcfg, &none, &|| BlockTracer::new(banks));
            let robust = sort_in(s, start(), &rcfg, &armed, &|| Passive);
            (traced.expect("sorts").run, robust.expect("recovers").run)
        };
        let fresh = runs(&mut Session::default());
        // Carry a doctored representative of block 0's order type.
        let mut session = Session::default();
        let mut dst = vec![0u32; 160];
        let mut launch = tile_launch(&input, 8, &[], Some(&mut session.carried));
        let _ = launch.execute(0, &input, &mut dst, Passive);
        launch.rep_profile_mut(0).phase_mut(PhaseClass::Sort).alu_ops += 1;
        let _ = launch.execute(1, &input, &mut dst, Passive);
        launch.finish(&mut session.carried);
        let before = session.carried.of_key::<u32>();
        let runs = runs(&mut session);
        let after = session.carried.of_key::<u32>();
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].1.len(), 1, "the doctored representative is carried");
        assert_eq!(after, before);
        assert_eq!(runs, fresh);
    }

    #[test]
    fn stripe_derived_input_checksum_is_exact() {
        let tile = small_rcfg().base.params.tile();
        let stripe = stripe_width(tile);
        for n in [1, tile - 1, tile + 1, 3 * tile + 5, tile * 8] {
            let input = InputSpec::UniformRandom { seed: n as u64 }.generate(n);
            let n_pad = n.div_ceil(tile).next_power_of_two() * tile;
            let mut src = input.clone();
            src.resize(n_pad, u32::MAX);
            let mut stripes = vec![0; n_pad / stripe];
            let padded = stripe_checksums(&src, stripe, &mut stripes);
            assert_eq!(padded, multiset_checksum(&src), "n = {n}");
            assert_eq!(without_sentinels::<u32>(padded, n_pad - n), multiset_checksum(&input));
        }
    }

    #[test]
    fn buffer_reuse_is_invisible() {
        let rcfg = small_rcfg();
        let cf = SortAlgorithm::CfMerge;
        let large = InputSpec::UniformRandom { seed: 50 }.generate(16 * 160 + 9);
        let wide: Vec<u64> = (InputSpec::UniformRandom { seed: 51 }.generate(5 * 160).into_iter())
            .map(|k| u64::from(k) << 32 | 7)
            .collect();
        let (_, cp) = checkpoint_after_pass_1(&rcfg);
        // Two launches: a clean sort of `small` leaves its block-sorted
        // tiles in the spare, where the next sort's block sort writes. A
        // dropped lane there must meet zeros, as in a fresh session.
        let small = InputSpec::UniformRandom { seed: 52 }.generate(2 * 160);
        let dropout = FaultKind::LaneDropout { lane: 3 };
        let plan = FaultPlan::from_sites(vec![site(0, 1, dropout, Persistence::Sticky)]);
        let none = FaultPlan::none();
        let sort = |s: &mut Session, start, plan| {
            let r = sort_in(s, start, &rcfg, plan, &|| Passive).expect("sorts or falls back");
            format!("{:?}", (r.run, r.algorithm, r.report))
        };
        let calls: [&dyn Fn(&mut Session) -> String; 5] = [
            &|s| sort(s, Start::Fresh(&large, cf), &none),
            &|s| format!("{:?}", sort_in(s, Start::Fresh(&wide, cf), &rcfg, &none, &|| Passive)),
            &|s| sort(s, Start::Resume(&cp), &none),
            &|s| sort(s, Start::Fresh(&small, cf), &none),
            &|s| sort(s, Start::Fresh(&small, cf), &plan),
        ];
        let mut session = Session::default();
        let reused = calls.map(|call| call(&mut session));
        assert!(reused[4].contains("ThrustMergesort"), "the armed sort falls back");
        for (i, (call, reused)) in calls.iter().zip(reused).enumerate() {
            assert!(
                call(&mut Session::default()) == reused,
                "call {i} differs in a reused session"
            );
        }
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
