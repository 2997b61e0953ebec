//! The resilient batch sort service: admission control, circuit
//! breakers, a service-wide retry budget, and checkpoint/resume layered
//! over the robust driver.
//!
//! A job is a [`SortJob`]: a label, a [`Payload`] (fresh input and
//! pipeline, or a checkpoint to resume), a fault plan, a deadline and a
//! checkpoint policy. [`SortService::submit_job`] is the one queueing
//! path (`submit` and `submit_with_faults` build a fresh job for it), and
//! every job, fresh or resumed, runs through one runner on the robust
//! driver. The cluster front door
//! ([`crate::resilience::cluster::ClusterService`]) queues and migrates
//! the same `SortJob`.
//!
//! Everything here is deterministic. [`SortService::drain`] executes the
//! batch *sequentially in submission order* (each job is internally
//! parallel via the robust driver), and the service clock advances by
//! each completed job's modeled seconds — so breaker cooldowns, budget
//! refill, and probe scheduling are pure functions of the job sequence.
//! With the default [`ResilienceConfig`] (everything off) the service
//! behaves exactly like the legacy batch front-end.
//!
//! Every decision is also recorded as metrics
//! ([`SortService::telemetry_snapshot`]), always: an executed job makes
//! about 17 registry operations, ~1 µs of host time on a 2-core AVX-512
//! Xeon against milliseconds of simulated sort, and never feeds back
//! into modeled time.

use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::json_struct;

use crate::params::SortParams;
use crate::recovery::{run_job, RecoveryCounters, RobustConfig, RobustSortRun};
use crate::resilience::admission::{self, AdmissionConfig};
use crate::resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
use crate::resilience::budget::{RetryBudget, RetryBudgetConfig};
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};
use crate::tuning::{RungTier, TuningPolicy, TuningRung, TuningTable};

/// Handle to a job submitted to a [`SortService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The service's resilience policy; the default switches every mechanism
/// off, which reproduces the legacy service bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Queue bound and shed policy.
    pub admission: AdmissionConfig,
    /// Service-wide retry token bucket.
    pub retry_budget: RetryBudgetConfig,
    /// Per-(pipeline, launch-config) circuit breakers.
    pub breaker: BreakerConfig,
}

/// What a job sorts: fresh input, or a checkpoint to resume.
#[derive(Debug)]
pub enum Payload {
    /// Sort `input` on pipeline `algo`.
    Fresh {
        /// The keys to sort.
        input: Vec<u32>,
        /// The pipeline to sort them with.
        algo: SortAlgorithm,
    },
    /// Resume an interrupted sort. The checkpoint's integrity is validated
    /// at execution time; a tampered or mismatched checkpoint fails with
    /// [`SortError::CheckpointInvalid`].
    Resume {
        /// The verified state to continue from.
        checkpoint: Box<SortCheckpoint>,
    },
}

impl Payload {
    /// Key count, for admission sizing.
    pub(crate) fn n(&self) -> usize {
        match self {
            Payload::Fresh { input, .. } => input.len(),
            Payload::Resume { checkpoint } => checkpoint.n,
        }
    }

    /// The checkpoint a resume continues from (`None` for a fresh sort).
    pub(crate) fn checkpoint(&self) -> Option<&SortCheckpoint> {
        match self {
            Payload::Fresh { .. } => None,
            Payload::Resume { checkpoint } => Some(checkpoint),
        }
    }

    /// The pipeline label the job runs under (its breaker and tuning
    /// ladder key).
    fn algo_label(&self) -> &str {
        match self {
            Payload::Fresh { algo, .. } => algo.label(),
            Payload::Resume { checkpoint } => &checkpoint.algorithm,
        }
    }
}

/// One sort request, as both front doors ([`SortService`] and
/// [`ClusterService`](crate::resilience::cluster::ClusterService)) queue,
/// migrate and execute it.
#[derive(Debug)]
pub struct SortJob {
    /// The label its outcome carries.
    pub label: String,
    /// What to sort.
    pub payload: Payload,
    /// Faults to inject while it runs.
    pub plan: FaultPlan,
    /// Deadline in modeled seconds: a job whose modeled completion time
    /// (retries, backoff, and spikes included) exceeds it fails with
    /// [`SortError::DeadlineExceeded`].
    pub deadline_s: Option<f64>,
    /// Checkpoints to capture along a fresh run (and, for a kill policy,
    /// where it dies with [`SortError::Interrupted`] carrying the
    /// checkpoint to resume from). A resume captures none.
    pub checkpoint: CheckpointPolicy,
}

impl SortJob {
    /// A production sort of `input` on `algo`: no faults, no deadline,
    /// no checkpoints.
    #[must_use]
    pub fn fresh(label: &str, input: Vec<u32>, algo: SortAlgorithm) -> Self {
        Self::new(label, Payload::Fresh { input, algo })
    }

    /// A resume of an interrupted sort from `checkpoint`: no faults, no
    /// deadline, no checkpoints.
    #[must_use]
    pub fn resume(label: &str, checkpoint: SortCheckpoint) -> Self {
        Self::new(label, Payload::Resume { checkpoint: Box::new(checkpoint) })
    }

    fn new(label: &str, payload: Payload) -> Self {
        Self {
            label: label.to_string(),
            payload,
            plan: FaultPlan::none(),
            deadline_s: None,
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

struct Job {
    id: JobId,
    job: SortJob,
    cancelled: bool,
    /// Set at admission time when the job was refused or shed; such jobs
    /// never execute, not even partially.
    pre_shed: Option<SortError>,
}

impl Job {
    fn admitted(&self) -> bool {
        self.pre_shed.is_none() && !self.cancelled
    }
}

/// How one service job ended.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's handle.
    pub id: JobId,
    /// The label it was submitted under.
    pub label: String,
    /// The verified run — or the typed reason there isn't one.
    pub result: Result<RobustSortRun<u32>, SortError>,
    /// The job ran on the quarantine config because its breaker was
    /// open.
    pub quarantined: bool,
    /// The job was a half-open breaker probe.
    pub probe: bool,
    /// The job ran on a `degraded`-tier rung of the tuning ladder — a
    /// certified bounded-degree config that is *not* conflict-free.
    /// Always `false` without tuning (the explicit marker the ladder
    /// contract requires).
    pub degraded: bool,
    /// The job was a deterministic canary probe of the tuning policy's
    /// candidate rung.
    pub canary: bool,
    /// The launch parameters the tuning ladder actually ran the job on
    /// (`None` without tuning, for resumes, and for fail-closed
    /// rejections).
    pub tuned: Option<SortParams>,
    /// The per-block retry cap the budget granted this job.
    pub retries_granted: u32,
    /// Checkpoints captured during the run (empty unless the job was
    /// submitted with a non-noop [`CheckpointPolicy`]).
    pub checkpoints: Vec<SortCheckpoint>,
}

impl JobOutcome {
    /// The outcome of a job that never ran: shed, cancelled, or refused
    /// by the tuning ladder.
    fn unrun(id: JobId, label: String, err: SortError) -> Self {
        Self {
            id,
            label,
            result: Err(err),
            quarantined: false,
            probe: false,
            degraded: false,
            canary: false,
            tuned: None,
            retries_granted: 0,
            checkpoints: Vec::new(),
        }
    }

    /// The job's recovery counters; for failed jobs, a zeroed set with
    /// `unrecovered = 1` when the failure was an unrecoverable fault.
    #[must_use]
    pub fn counters(&self) -> RecoveryCounters {
        match &self.result {
            Ok(run) => run.report.counters,
            Err(SortError::UnrecoverableFault { .. }) => {
                RecoveryCounters { unrecovered: 1, ..RecoveryCounters::default() }
            }
            Err(_) => RecoveryCounters::default(),
        }
    }
}

/// Sum the counters of a batch of outcomes (the artifact-level "N
/// injected / N detected / N recovered" statement).
#[must_use]
pub fn aggregate_counters(outcomes: &[JobOutcome]) -> RecoveryCounters {
    let mut total = RecoveryCounters::default();
    for o in outcomes {
        total.merge(&o.counters());
    }
    total
}

/// Lifetime tallies of every resilience decision the service made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs ever submitted (sheds and cancels included).
    pub submitted: u64,
    /// Jobs the queue accepted (some may be evicted later by a
    /// [`ShedPolicy`](admission::ShedPolicy) that sheds queued jobs).
    pub admitted: u64,
    /// Jobs that actually ran the robust driver.
    pub executed: u64,
    /// Executed jobs that returned a verified sorted output in deadline.
    pub verified_ok: u64,
    /// Executed jobs that ended in a typed error.
    pub failed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Incoming jobs refused with [`SortError::Overloaded`].
    pub shed_overload: u64,
    /// Queued jobs evicted by
    /// [`ShedPolicy::RejectLargest`](admission::ShedPolicy::RejectLargest).
    pub shed_largest: u64,
    /// Queued jobs shed by
    /// [`ShedPolicy::DeadlineAware`](admission::ShedPolicy::DeadlineAware).
    pub shed_deadline: u64,
    /// Submissions refused with [`SortError::InvalidDeadline`].
    pub invalid_deadline: u64,
    /// Jobs whose retry cap was reduced by the budget.
    pub budget_denied: u64,
    /// Breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Breaker transitions into `HalfOpen`.
    pub breaker_half_opens: u64,
    /// Breaker transitions into `Closed`.
    pub breaker_closes: u64,
    /// Jobs routed to the quarantine config by an open breaker.
    pub quarantined: u64,
    /// Jobs run as half-open breaker probes.
    pub probes: u64,
    /// Checkpoint-resume jobs executed.
    pub resumed: u64,
    /// Checkpoints captured across all jobs.
    pub checkpoints_taken: u64,
    /// Whole-device crash events observed by the cluster layer.
    pub device_crashes: u64,
    /// Devices that rejoined after a crash-with-restart cooldown.
    pub device_restarts: u64,
    /// Jobs that ended in a typed [`SortError::DeviceLost`].
    pub device_lost: u64,
    /// Checkpoint migrations that moved an interrupted job to a
    /// surviving device.
    pub migrations: u64,
    /// Migrations that could not complete ([`SortError::MigrationFailed`]).
    pub migrations_failed: u64,
    /// Jobs a free device stole from another device's queue.
    pub steals: u64,
    /// Fresh jobs whose launch config was selected from a tuning ladder.
    pub tuned_jobs: u64,
    /// Total rungs stepped down the ladder by open breakers.
    pub ladder_steps: u64,
    /// Jobs refused with [`SortError::Uncertified`]: no ladder for the
    /// pipeline/device, an empty ladder, or a ladder exhausted by open
    /// breakers. Such jobs never execute an uncertified config.
    pub uncertified_rejected: u64,
    /// Jobs routed to the canary candidate rung.
    pub canary_jobs: u64,
    /// Canary candidates rolled back (a failed or degraded canary run,
    /// or a candidate the ladder does not certify).
    pub canary_rollbacks: u64,
    /// Canary candidates promoted to the active rung.
    pub canary_promotions: u64,
}

/// The fold of two [`ServiceCounters`] and their JSON field list, from one
/// list of fields: the required ones, then those that older artifacts
/// lack (read as 0), then those emitted only when nonzero. Key order is
/// list order.
macro_rules! service_counters {
    ([$($required:ident),*], [$($defaulted:ident),*], [$($omitted:ident),*]) => {
        impl ServiceCounters {
            /// Fold `other` into `self` field by field.
            pub fn merge(&mut self, other: &ServiceCounters) {
                $(self.$required += other.$required;)*
                $(self.$defaulted += other.$defaulted;)*
                $(self.$omitted += other.$omitted;)*
            }
        }

        json_struct! {
            ServiceCounters {
                $($required,)*
                $($defaulted = 0,)*
                $($omitted ?= 0,)*
            }
        }
    };
}

service_counters! {
    [
        submitted, admitted, executed, verified_ok, failed, cancelled, shed_overload,
        shed_largest, shed_deadline, invalid_deadline, budget_denied, breaker_opens,
        breaker_half_opens, breaker_closes, quarantined, probes, resumed, checkpoints_taken
    ],
    // Cluster-era fields: absent from older artifacts.
    [device_crashes, device_restarts, device_lost, migrations, migrations_failed, steals],
    // Tuner-era fields are emitted only when nonzero, so every artifact
    // pinned before the tuner existed — and every run with tuning off —
    // stays bit-identical.
    [
        tuned_jobs, ladder_steps, uncertified_rejected, canary_jobs, canary_rollbacks,
        canary_promotions
    ]
}

/// Degradation-aware batch front-end over the robust driver: submit jobs
/// (optionally with fault plans, deadlines, and checkpoint policies),
/// cancel any of them, then [`SortService::drain`] executes the batch
/// deterministically and returns per-job typed outcomes.
pub struct SortService {
    config: RobustConfig,
    resilience: ResilienceConfig,
    jobs: Vec<Job>,
    next_id: u64,
    budget: RetryBudget,
    breakers: Vec<((String, usize, usize), CircuitBreaker)>,
    clock_s: f64,
    counters: ServiceCounters,
    /// Every decision, also as metrics. Always recorded; recording never
    /// feeds back into modeled time.
    telemetry: MetricsRegistry,
    /// Opt-in certified auto-tuning (`None`, the default, reproduces the
    /// legacy service bit for bit).
    tuning: Option<TuningState>,
}

/// Live state of an installed tuning ladder: the verified table, the
/// canary policy, and the per-pipeline active rung.
struct TuningState {
    table: TuningTable,
    policy: TuningPolicy,
    /// Active rung rank per pipeline label, initialized lazily from the
    /// base config's position on the ladder (rung 0 if the base config
    /// is not on it).
    active: Vec<(String, usize)>,
    /// Fresh admitted jobs seen so far — the deterministic canary clock.
    fresh_admitted: u64,
    /// Consecutive successful canary runs of the current candidate.
    canary_successes: u32,
    /// The candidate was promoted or rolled back; no more canaries fire.
    canary_retired: bool,
}

/// One ladder decision for one job.
struct TuningChoice {
    params: SortParams,
    rank: usize,
    degraded: bool,
    canary: bool,
}

impl TuningChoice {
    /// Launch on `rung`, as a canary probe or not.
    fn on(rung: &TuningRung, canary: bool) -> Self {
        Self {
            params: rung.params(),
            rank: rung.rank,
            degraded: rung.tier == RungTier::Degraded,
            canary,
        }
    }
}

impl SortService {
    /// A service running every job under `config`, with every resilience
    /// mechanism off (legacy behavior).
    #[must_use]
    pub fn new(config: RobustConfig) -> Self {
        Self::with_resilience(config, ResilienceConfig::default())
    }

    /// A service under `config` with an explicit resilience policy.
    #[must_use]
    pub fn with_resilience(config: RobustConfig, resilience: ResilienceConfig) -> Self {
        Self {
            config,
            resilience,
            jobs: Vec::new(),
            next_id: 0,
            budget: RetryBudget::new(resilience.retry_budget),
            breakers: Vec::new(),
            clock_s: 0.0,
            counters: ServiceCounters::default(),
            telemetry: MetricsRegistry::new(),
            tuning: None,
        }
    }

    /// Install a tuning ladder and canary policy. From here on fresh
    /// jobs launch on their pipeline's active rung, open breakers step
    /// *down* the ladder instead of jumping to
    /// [`SortParams::known_good_default`], requests the ladder cannot
    /// certify fail closed with [`SortError::Uncertified`], and the
    /// canary policy (if any) deterministically probes its candidate
    /// rung. The table is verified fail-closed: a schema or checksum
    /// mismatch rejects the install and leaves the service untouched.
    pub fn enable_tuning(
        &mut self,
        table: TuningTable,
        policy: TuningPolicy,
    ) -> Result<(), SortError> {
        let table = table.verified_for(&self.config.base.device.name)?;
        self.install_tuning(table, policy);
        Ok(())
    }

    /// Install a table that already passed [`TuningTable::verify`] (the
    /// cluster checks it once at its own front door, then installs it on
    /// every device).
    pub(crate) fn install_tuning(&mut self, table: TuningTable, policy: TuningPolicy) {
        self.tuning = Some(TuningState {
            table,
            policy,
            active: Vec::new(),
            fresh_admitted: 0,
            canary_successes: 0,
            canary_retired: false,
        });
    }

    /// Ladder admission for one fresh job: pick the active rung (or the
    /// canary candidate on its deterministic cadence), or fail closed.
    /// Only called when tuning is installed.
    fn tuning_select(&mut self, algo: &str) -> Result<TuningChoice, SortError> {
        let device = self.config.base.device.name.clone();
        let base = self.config.base.params;
        let state = self.tuning.as_mut().expect("caller checked tuning is installed");
        let Some(ladder) = state.table.ladder_for(&device, algo) else {
            return Err(SortError::Uncertified {
                algo: algo.to_string(),
                device,
                why: "no ladder for this pipeline/device in the tuning table".to_string(),
            });
        };
        if ladder.rungs.is_empty() {
            let why = match ladder.excluded.first() {
                Some(x) => format!(
                    "the ladder has no certified rungs (e.g. E={}, u={} excluded: {})",
                    x.e, x.u, x.reason
                ),
                None => "the ladder has no certified rungs".to_string(),
            };
            return Err(SortError::Uncertified { algo: algo.to_string(), device, why });
        }
        // Lazy active-rank init: start from the base config's rung when
        // the ladder certifies it, else from the ladder's best rung.
        let active_rank = match state.active.iter().find(|(a, _)| a == algo) {
            Some((_, rank)) => *rank,
            None => {
                let rank = ladder.rung_for(base).map_or(0, |rg| rg.rank);
                state.active.push((algo.to_string(), rank));
                rank
            }
        };
        state.fresh_admitted += 1;

        // Deterministic canary: on its cadence, probe the candidate rung
        // instead of the active one. A candidate the ladder does not
        // certify is rejected (a rollback) the first time it would fire.
        if let Some(canary) = state.policy.canary {
            if !state.canary_retired && canary.fires_on(state.fresh_admitted) {
                match ladder.rung_for(canary.candidate) {
                    Some(rung) if rung.rank != active_rank => {
                        return Ok(TuningChoice::on(rung, true));
                    }
                    Some(_) => {
                        // Candidate is already the active rung: nothing
                        // to probe, retire the policy quietly.
                        state.canary_retired = true;
                    }
                    None => {
                        state.canary_retired = true;
                        self.counters.canary_rollbacks += 1;
                    }
                }
            }
        }

        Ok(TuningChoice::on(&ladder.rungs[active_rank], false))
    }

    /// The breaker at `from_rank` is open: walk down the ladder to the
    /// first rung whose own breaker is not open, or fail closed when the
    /// ladder is exhausted. Returns the substitute choice and the number
    /// of rungs stepped.
    fn tuning_step_down(
        &mut self,
        algo: &str,
        from_rank: usize,
    ) -> Result<(TuningChoice, u64), SortError> {
        // Snapshot the open breakers first (disjoint from tuning state).
        let open: Vec<(usize, usize)> = self
            .breakers
            .iter()
            .filter(|((label, _, _), b)| label == algo && b.state() == BreakerState::Open)
            .map(|((_, e, u), _)| (*e, *u))
            .collect();
        let device = self.config.base.device.name.clone();
        let state = self.tuning.as_ref().expect("caller checked tuning is installed");
        let ladder = state
            .table
            .ladder_for(&device, algo)
            .expect("step-down only happens after a successful select");
        for rung in &ladder.rungs[from_rank + 1..] {
            if !open.contains(&(rung.e, rung.u)) {
                return Ok((TuningChoice::on(rung, false), (rung.rank - from_rank) as u64));
            }
        }
        Err(SortError::Uncertified {
            algo: algo.to_string(),
            device,
            why: format!(
                "degradation ladder exhausted below rung {from_rank}: every lower rung's \
                 breaker is open"
            ),
        })
    }

    /// Lifetime resilience tallies.
    #[must_use]
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Frozen view of the telemetry recorded so far: queue depth at
    /// admission, per-job end-to-end latency (modeled seconds), breaker
    /// transitions, retry-budget level, and the per-job recovery
    /// counters.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// The modeled service clock: the sum of every executed job's
    /// simulated seconds so far.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Retry tokens currently in the budget (`None` when unlimited).
    #[must_use]
    pub fn budget_tokens(&self) -> Option<f64> {
        self.budget.tokens()
    }

    /// Snapshot of every breaker the service has instantiated:
    /// `(pipeline label, E, u, state, opens)`.
    #[must_use]
    pub fn breaker_snapshots(&self) -> Vec<(String, usize, usize, BreakerState, u64)> {
        self.breakers
            .iter()
            .map(|((label, e, u), b)| (label.clone(), *e, *u, b.state(), b.opens()))
            .collect()
    }

    /// Submit a production job (no fault injection, no deadline).
    pub fn submit(&mut self, label: &str, input: Vec<u32>, algo: SortAlgorithm) -> JobId {
        self.submit_job(SortJob::fresh(label, input, algo))
    }

    /// Submit a job with a fault plan and an optional deadline in modeled
    /// seconds (see [`SortJob::deadline_s`]).
    pub fn submit_with_faults(
        &mut self,
        label: &str,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> JobId {
        self.submit_job(SortJob { plan, deadline_s, ..SortJob::fresh(label, input, algo) })
    }

    /// Submit a job: a fresh sort or a resume, with its fault plan,
    /// deadline and checkpoint policy. Ids are monotonically increasing
    /// for the lifetime of the service — they are never reused across
    /// batches, so a stale handle from a drained batch can never cancel a
    /// newer job.
    pub fn submit_job(&mut self, job: SortJob) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        // Admission control. Every admitted job in the batch may be
        // evicted, resumes included; a job's batch position is its id
        // order.
        let queued: Vec<(usize, usize, Option<f64>)> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.admitted())
            .map(|(i, j)| (i, j.job.payload.n(), j.job.deadline_s))
            .collect();
        let (pre_shed, evicted) = match admission::admit(
            &self.resilience.admission,
            queued.len(),
            job.payload.n(),
            job.deadline_s,
            &queued,
            &self.config.base,
            &mut self.counters,
        ) {
            Ok(evicted) => {
                let n = evicted.len();
                for (i, err) in evicted {
                    self.jobs[i].pre_shed = Some(err);
                }
                (None, n)
            }
            Err(err) => (Some(err), 0),
        };
        let admitted = pre_shed.is_none();
        self.jobs.push(Job { id, job, cancelled: false, pre_shed });
        self.record_admission(admitted, queued.len() - evicted + usize::from(admitted));
        id
    }

    /// Telemetry hook for one admission event: the submission counter and
    /// the queue depth *after* the decision (the admitted jobs in the
    /// batch), both as a histogram sample (the time series the ROADMAP's
    /// traffic-scale work wants) and as a last-value gauge.
    fn record_admission(&mut self, admitted: bool, depth: usize) {
        let reg = &mut self.telemetry;
        reg.inc("service_jobs_submitted_total", 1);
        if admitted {
            reg.inc("service_jobs_admitted_total", 1);
        }
        reg.observe("service_queue_depth_at_admission", depth as u64);
        reg.set_gauge("service_queue_depth", depth as f64);
    }

    /// Cancel a pending job. Returns `false` if the id is unknown (or the
    /// batch containing it already ran).
    pub fn cancel(&mut self, id: JobId) -> bool {
        match self.jobs.iter_mut().find(|j| j.id == id) {
            Some(job) => {
                job.cancelled = true;
                true
            }
            None => false,
        }
    }

    /// Number of jobs waiting in the current batch (cancelled and shed
    /// included — they still produce an outcome).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Execute every submitted job and drain the batch. Outcomes come
    /// back in submission order; cancelled jobs yield
    /// [`SortError::Cancelled`] and shed jobs their typed shed error,
    /// without running. Deterministic: jobs run sequentially in
    /// submission order and all scheduling is in modeled time.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let jobs = std::mem::take(&mut self.jobs);
        jobs.into_iter().map(|job| self.execute(job)).collect()
    }

    /// Run one job at modeled time `now_s`, outside the batch, and
    /// return its outcome. The caller's own front door already numbered
    /// and admitted the job, so this skips id allocation and admission.
    ///
    /// The service clock first advances to `now_s` (a device that sat
    /// idle still saw its retry budget refill and its breaker cooldowns
    /// tick). It never moves backwards, and the advance is a no-op when
    /// dispatch times coincide with the accumulated clock — which is
    /// exactly why N=1 fault-free cluster runs stay bit-identical to a
    /// batch [`SortService`].
    pub(crate) fn run_now(&mut self, now_s: f64, id: u64, job: SortJob) -> JobOutcome {
        self.clock_s = self.clock_s.max(now_s);
        self.execute(Job { id: JobId(id), job, cancelled: false, pre_shed: None })
    }

    fn breaker_for(&mut self, key: (String, usize, usize)) -> &mut CircuitBreaker {
        if let Some(i) = self.breakers.iter().position(|(k, _)| *k == key) {
            return &mut self.breakers[i].1;
        }
        self.breakers.push((key, CircuitBreaker::new()));
        &mut self.breakers.last_mut().expect("just pushed").1
    }

    /// Count the state a breaker reported entering, if any.
    fn count_breaker_entry(&mut self, entered: Option<BreakerState>) {
        let name = match entered {
            None => return,
            Some(BreakerState::Open) => {
                self.counters.breaker_opens += 1;
                "service_breaker_opens_total"
            }
            Some(BreakerState::HalfOpen) => {
                self.counters.breaker_half_opens += 1;
                "service_breaker_half_opens_total"
            }
            Some(BreakerState::Closed) => {
                self.counters.breaker_closes += 1;
                "service_breaker_closes_total"
            }
        };
        self.telemetry.inc(name, 1);
    }

    /// Count a job the tuning ladder refused with
    /// [`SortError::Uncertified`].
    fn count_uncertified(&mut self) {
        self.counters.uncertified_rejected += 1;
        self.telemetry.inc("service_uncertified_rejected_total", 1);
    }

    fn execute(&mut self, Job { id, job, cancelled, pre_shed }: Job) -> JobOutcome {
        if let Some(err) = pre_shed {
            self.telemetry.inc("service_jobs_shed_total", 1);
            return JobOutcome::unrun(id, job.label, err);
        }
        if cancelled {
            self.counters.cancelled += 1;
            self.telemetry.inc("service_jobs_cancelled_total", 1);
            return JobOutcome::unrun(id, job.label, SortError::Cancelled);
        }

        // Ladder admission (only when tuning is installed): fresh jobs
        // launch on their pipeline's active rung — or the canary
        // candidate on its deterministic cadence — and requests the
        // ladder cannot certify fail closed before touching the
        // breakers or the budget. Resumes stay pinned to their
        // checkpoint's launch config.
        let is_resume = job.payload.checkpoint().is_some();
        let algo = job.payload.algo_label().to_string();
        let mut choice: Option<TuningChoice> = None;
        if self.tuning.is_some() && !is_resume {
            match self.tuning_select(&algo) {
                Ok(c) => choice = Some(c),
                Err(err) => {
                    self.count_uncertified();
                    return JobOutcome::unrun(id, job.label, err);
                }
            }
        }
        self.counters.executed += 1;

        // Breaker routing on the rung (or legacy base config) the job
        // was admitted at. Resumes bypass the breaker entirely: they
        // can neither be quarantined (the checkpoint's shape would not
        // match) nor serve as probes. Canary jobs also bypass it — a
        // probe of the candidate rung must not perturb breaker state.
        let routed_params = choice.as_ref().map_or(self.config.base.params, |c| c.params);
        let is_canary = choice.as_ref().is_some_and(|c| c.canary);
        let key = (algo.clone(), routed_params.e, routed_params.u);
        let route = if self.resilience.breaker.enabled && !is_resume && !is_canary {
            let now = self.clock_s;
            let (route, entered) = self.breaker_for(key.clone()).route(now);
            self.count_breaker_entry(entered);
            route
        } else {
            Route::Normal
        };
        let quarantined = route == Route::Quarantine;
        let probe = route == Route::Probe;
        if quarantined {
            self.counters.quarantined += 1;
        }
        if probe {
            self.counters.probes += 1;
        }

        // An open breaker quarantines the job. A tuned service steps
        // DOWN the ladder to the first rung whose own breaker is not
        // open — failing closed when the ladder is exhausted — while
        // the legacy service substitutes the known-good constant.
        let mut preempt: Option<SortError> = None;
        let mut exec_params = routed_params;
        if quarantined {
            match &choice {
                Some(c) => match self.tuning_step_down(&algo, c.rank) {
                    Ok((sub, steps)) => {
                        self.counters.ladder_steps += steps;
                        exec_params = sub.params;
                        choice = Some(sub);
                    }
                    Err(err) => {
                        self.count_uncertified();
                        preempt = Some(err);
                    }
                },
                None => exec_params = SortParams::known_good_default(),
            }
        }
        let preempted = preempt.is_some();

        // Which breaker the outcome feeds: the executed rung's. A
        // legacy quarantined run feeds nothing (a known-good run says
        // nothing about the poisoned config), but a tuned stepped-down
        // run DOES feed the rung it executed on — that is what lets a
        // persistent fault cascade breakers open down the ladder.
        let feed_key: Option<(String, usize, usize)> =
            if !self.resilience.breaker.enabled || is_resume || is_canary || preempted {
                None
            } else if quarantined {
                choice.as_ref().map(|_| (algo.clone(), exec_params.e, exec_params.u))
            } else {
                Some(key)
            };

        // Budget grant: the effective per-block retry cap for this job.
        // A preempted job executes nothing and draws no tokens.
        self.budget.advance_to(self.clock_s);
        let want = self.config.max_retries;
        let granted = if preempted { 0 } else { self.budget.grant(want) };
        if !preempted && granted < want {
            self.counters.budget_denied += 1;
        }

        let mut cfg = self.config.clone();
        cfg.max_retries = granted;
        cfg.base.params = exec_params;

        let mut checkpoints = Vec::new();
        let result = match preempt {
            Some(err) => Err(err),
            None => {
                self.counters.resumed += u64::from(is_resume);
                run_job(&job, &cfg, job.checkpoint).map(|(run, taken)| {
                    checkpoints = taken;
                    run
                })
            }
        };
        self.counters.checkpoints_taken += checkpoints.len() as u64;

        // Settle the budget and the breaker on the run's real outcome,
        // then advance the modeled clock.
        let elapsed = match &result {
            Ok(run) => {
                self.budget.debit(run.report.counters.retries);
                run.run.simulated_seconds
            }
            Err(_) => 0.0,
        };
        if let Some(fk) = feed_key {
            // Success means the executed config carried the job without
            // pipeline-level degradation; a fallback rescue is a health
            // failure of the config even though the job's output is fine.
            let success = result.as_ref().is_ok_and(|run| run.report.counters.fallbacks == 0);
            let at = self.clock_s + elapsed;
            let bc = self.resilience.breaker;
            let entered = self.breaker_for(fk).on_outcome(success, at, &bc);
            self.count_breaker_entry(entered);
        }
        self.clock_s += elapsed;

        // Deadline enforcement on the exact modeled duration.
        let result = result.and_then(|run| match job.deadline_s {
            Some(d) if run.run.simulated_seconds > d => Err(SortError::DeadlineExceeded {
                deadline_s: d,
                needed_s: run.run.simulated_seconds,
            }),
            _ => Ok(run),
        });
        match &result {
            Ok(_) => self.counters.verified_ok += 1,
            Err(_) => self.counters.failed += 1,
        }

        // Canary settlement: a clean run (verified, no fallback rescue,
        // deadline met) extends the candidate's streak and promotes it
        // to the active rung at the configured length; anything else
        // rolls the candidate back — the previously active rung simply
        // stays active, which is the whole rollback.
        if is_canary {
            self.counters.canary_jobs += 1;
            let success = result.as_ref().is_ok_and(|run| run.report.counters.fallbacks == 0);
            let state = self.tuning.as_mut().expect("canary implies tuning");
            if success {
                state.canary_successes += 1;
                let streak = state.canary_successes;
                if state.policy.canary.is_some_and(|c| streak >= c.promote_after) {
                    let rank = choice.as_ref().expect("canary implies a choice").rank;
                    if let Some(slot) = state.active.iter_mut().find(|(a, _)| *a == algo) {
                        slot.1 = rank;
                    }
                    state.canary_retired = true;
                    self.counters.canary_promotions += 1;
                }
            } else {
                state.canary_retired = true;
                self.counters.canary_rollbacks += 1;
            }
        }

        let tuned = if choice.is_some() && !preempted { Some(exec_params) } else { None };
        let degraded = choice.as_ref().is_some_and(|c| c.degraded) && !preempted;
        if tuned.is_some() {
            self.counters.tuned_jobs += 1;
        }

        // Telemetry settles last, from the same values the outcome is
        // built from — never the other way around.
        let reg = &mut self.telemetry;
        reg.inc("service_jobs_executed_total", 1);
        if quarantined {
            reg.inc("service_quarantined_total", 1);
        }
        if probe {
            reg.inc("service_probes_total", 1);
        }
        if tuned.is_some() {
            reg.inc("service_tuned_jobs_total", 1);
        }
        if degraded {
            reg.inc("service_degraded_jobs_total", 1);
        }
        if is_canary {
            reg.inc("service_canary_jobs_total", 1);
        }
        if !preempted && granted < want {
            reg.inc("service_budget_denied_total", 1);
        }
        match &result {
            Ok(run) => {
                reg.inc("service_jobs_verified_total", 1);
                reg.observe_seconds("service_job_latency_seconds", run.run.simulated_seconds);
                reg.record_recovery("service", &run.report.counters);
            }
            Err(SortError::UnrecoverableFault { .. }) => {
                reg.inc("service_jobs_failed_total", 1);
                reg.inc("service_unrecovered_total", 1);
            }
            Err(_) => reg.inc("service_jobs_failed_total", 1),
        }
        if let Some(tokens) = self.budget.tokens() {
            reg.set_gauge("service_retry_budget_tokens", tokens);
        }
        reg.set_gauge("service_clock_seconds", self.clock_s);

        JobOutcome {
            id,
            label: job.label,
            result,
            quarantined,
            probe,
            degraded,
            canary: is_canary,
            tuned,
            retries_granted: granted,
            checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::params::SortParams;
    use crate::resilience::admission::ShedPolicy;
    use crate::sort::pipeline::SortConfig;
    use crate::telemetry::MetricValue;
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    use cfmerge_json::ToJson;

    fn small_rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    fn site(kernel: u32, block: u32, kind: FaultKind, persistence: Persistence) -> FaultSite {
        FaultSite { kernel, block, phase: 1, kind, persistence }
    }

    #[test]
    fn service_runs_cancels_and_enforces_deadlines() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 18 }.generate(2 * 160);
        let ok_id = svc.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let cancel_id = svc.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        let tight_id = svc.submit_with_faults(
            "tight",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        let faulty_id = svc.submit_with_faults(
            "faulty",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 0, bit: 0 },
                Persistence::Transient,
            )]),
            Some(1.0),
        );
        assert!(svc.cancel(cancel_id));
        assert!(!svc.cancel(JobId(999)));
        assert_eq!(svc.pending(), 4);

        let outcomes = svc.drain();
        assert_eq!(svc.pending(), 0);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].id, ok_id);
        let ok_run = outcomes[0].result.as_ref().expect("ok job");
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(ok_run.run.output, expect);
        assert_eq!(outcomes[1].id, cancel_id);
        assert!(matches!(outcomes[1].result, Err(SortError::Cancelled)));
        assert_eq!(outcomes[2].id, tight_id);
        assert!(matches!(outcomes[2].result, Err(SortError::DeadlineExceeded { .. })));
        assert_eq!(outcomes[3].id, faulty_id);
        let faulty_run = outcomes[3].result.as_ref().expect("faulty job recovers");
        assert_eq!(faulty_run.run.output, expect);

        let total = aggregate_counters(&outcomes);
        assert!(total.faults_injected >= 1);
        assert_eq!(total.faults_detected, 1);
        assert_eq!(total.retries, 1);
        assert_eq!(total.unrecovered, 0);

        let sc = svc.counters();
        assert_eq!(sc.submitted, 4);
        assert_eq!(sc.executed, 3);
        assert_eq!(sc.verified_ok, 2);
        assert_eq!(sc.failed, 1);
        assert_eq!(sc.cancelled, 1);
        assert!(svc.clock_s() > 0.0);
    }

    #[test]
    fn job_ids_never_reset_across_batches() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 40 }.generate(160);
        let a = svc.submit("a", input.clone(), SortAlgorithm::CfMerge);
        svc.drain();
        let b = svc.submit("b", input, SortAlgorithm::CfMerge);
        assert_ne!(a, b, "a drained batch's ids must never be reissued");
        // A stale handle from the drained batch cannot cancel anything.
        assert!(!svc.cancel(a));
        assert!(svc.cancel(b));
    }

    #[test]
    fn invalid_deadlines_are_typed_not_panics() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 41 }.generate(160);
        for bad in [-1.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            svc.submit_with_faults(
                "bad",
                input.clone(),
                SortAlgorithm::CfMerge,
                FaultPlan::none(),
                Some(bad),
            );
        }
        // A zero deadline at t=0 is *valid* — it just cannot be met.
        svc.submit_with_faults(
            "zero",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(0.0),
        );
        let outcomes = svc.drain();
        // JSON keeps the refused deadlines apart, NaN and ±inf included.
        let mut written = Vec::new();
        for o in &outcomes[..4] {
            match &o.result {
                Err(e @ SortError::InvalidDeadline { .. }) => {
                    written.push(e.to_json().req("deadline_s").unwrap().to_string_compact());
                }
                other => panic!("expected InvalidDeadline, got {other:?}"),
            }
        }
        assert_eq!(written, ["-1", r#""NaN""#, r#""-inf""#, r#""inf""#]);
        assert!(matches!(outcomes[4].result, Err(SortError::DeadlineExceeded { .. })));
        assert_eq!(svc.counters().invalid_deadline, 4);
        assert_eq!(svc.counters().executed, 1);
    }

    #[test]
    fn cancelling_a_resume_job_never_executes_it() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 42 }.generate(4 * 160);
        let cp = match crate::recovery::simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::kill_after(0),
        ) {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        let mut svc = SortService::new(rcfg);
        let id = svc.submit_job(SortJob::resume("resume", cp));
        assert!(svc.cancel(id));
        let outcomes = svc.drain();
        assert!(matches!(outcomes[0].result, Err(SortError::Cancelled)));
        assert_eq!(svc.counters().resumed, 0, "cancelled resume must not execute");
        assert_eq!(svc.clock_s(), 0.0);
    }

    #[test]
    fn reject_newest_sheds_the_incoming_job() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::RejectNewest),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 43 }.generate(160);
        svc.submit("a", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("b", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("c", input, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[1].result.is_ok());
        assert!(matches!(outcomes[2].result, Err(SortError::Overloaded { capacity: 2 })));
        assert_eq!(svc.counters().shed_overload, 1);
        assert_eq!(svc.counters().executed, 2);
    }

    #[test]
    fn reject_largest_evicts_the_biggest_queued_job() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::RejectLargest),
                ..ResilienceConfig::default()
            },
        );
        let small = InputSpec::UniformRandom { seed: 44 }.generate(160);
        let big = InputSpec::UniformRandom { seed: 45 }.generate(8 * 160);
        svc.submit("small", small.clone(), SortAlgorithm::CfMerge);
        let big_id = svc.submit("big", big, SortAlgorithm::CfMerge);
        let new_id = svc.submit("newcomer", small.clone(), SortAlgorithm::CfMerge);
        // An incoming job larger than everything queued is refused
        // instead (evicting a smaller job would not make room policy-
        // wise).
        let huge = InputSpec::UniformRandom { seed: 46 }.generate(16 * 160);
        let huge_id = svc.submit("huge", huge, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        let by_id = |id: JobId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(&by_id(big_id).result, Err(SortError::Shed { policy, .. }) if *policy == "reject-largest")
        );
        assert!(by_id(new_id).result.is_ok());
        assert!(matches!(by_id(huge_id).result, Err(SortError::Overloaded { .. })));
        assert_eq!(svc.counters().shed_largest, 1);
        assert_eq!(svc.counters().shed_overload, 1);
    }

    #[test]
    fn deadline_aware_sheds_unreachable_jobs_first() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::DeadlineAware),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 47 }.generate(4 * 160);
        svc.submit("feasible", input.clone(), SortAlgorithm::CfMerge);
        let doomed = svc.submit_with_faults(
            "doomed",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-15),
        );
        let late = svc.submit("latecomer", input, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        let by_id = |id: JobId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(&by_id(doomed).result, Err(SortError::Shed { policy, .. }) if *policy == "deadline-aware")
        );
        assert!(by_id(late).result.is_ok());
        assert_eq!(svc.counters().shed_deadline, 1);
        assert_eq!(svc.counters().executed, 2);
    }

    #[test]
    fn breaker_quarantines_then_probe_closes() {
        // Cooldown shorter than one job's modeled runtime (launch
        // overhead alone is 3µs): the job right after the trip is still
        // inside the cooldown window and quarantines; the one after that
        // probes and closes the breaker.
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                breaker: BreakerConfig { enabled: true, failure_threshold: 1, cooldown_s: 1e-6 },
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 48 }.generate(2 * 160);
        // A sticky fault defeats every retry and forces the Thrust
        // fallback: the output is verified but the requested config
        // failed health-wise.
        let poison = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 1, bit: 3 },
            Persistence::Sticky,
        )]);
        svc.submit_with_faults("trip", input.clone(), SortAlgorithm::CfMerge, poison, None);
        svc.submit("clean-1", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("clean-2", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();

        assert!(outcomes[0].result.is_ok(), "fallback rescues the tripping job");
        assert!(outcomes[1].quarantined, "job inside the cooldown runs quarantined");
        let qrun = outcomes[1].result.as_ref().expect("quarantined job succeeds");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(qrun.run.output, expect);
        // Quarantined runs use the known-good paper config: 320 keys fit
        // one E=17,u=256 tile, so the whole sort is a single blocksort
        // launch (the small 5/32 config would need a merge pass too).
        assert_eq!(qrun.run.kernels.len(), 1);
        assert_eq!(qrun.run.kernels[0].name, "blocksort");

        assert!(outcomes[2].probe, "job after the cooldown probes the real config");
        assert!(outcomes[2].result.is_ok());

        let sc = svc.counters();
        assert_eq!(sc.breaker_opens, 1);
        assert_eq!(sc.quarantined, 1);
        assert_eq!(sc.probes, 1);
        assert_eq!(sc.breaker_half_opens, 1);
        assert_eq!(sc.breaker_closes, 1);
        let snaps = svc.breaker_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].3, BreakerState::Closed);
    }

    /// A tuned service whose four jobs trip rung 0, step down to rung 1,
    /// trip rung 1, and find the ladder exhausted.
    fn exhaust_the_ladder() -> (SortService, Vec<JobOutcome>, Vec<u32>) {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;

        let table = build_tuning_table(&build_certificate_table());
        // Base config E=17,u=256 sits on rung 0 of the rtx cf ladder;
        // rung 1 is E=15,u=512. Cooldown far above any modeled job
        // time, so an opened breaker stays open for the whole batch.
        let mut svc = SortService::with_resilience(
            RobustConfig::new(SortConfig::paper_e17_u256()),
            ResilienceConfig {
                breaker: BreakerConfig { enabled: true, failure_threshold: 1, cooldown_s: 1.0 },
                ..ResilienceConfig::default()
            },
        );
        svc.enable_tuning(table, TuningPolicy::default()).expect("table verifies");

        let input = InputSpec::UniformRandom { seed: 90 }.generate(4500);
        let poison = || {
            FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 1, bit: 3 },
                Persistence::Sticky,
            )])
        };
        svc.submit_with_faults("trip-r0", input.clone(), SortAlgorithm::CfMerge, poison(), None);
        svc.submit("stepped", input.clone(), SortAlgorithm::CfMerge);
        svc.submit_with_faults("trip-r1", input.clone(), SortAlgorithm::CfMerge, poison(), None);
        svc.submit("exhausted", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        (svc, outcomes, input)
    }

    #[test]
    fn tuning_selects_the_best_rung_and_steps_down_open_breakers() {
        let (svc, outcomes, input) = exhaust_the_ladder();

        // Job 1 runs on rung 0; the fallback rescue opens its breaker.
        assert_eq!(outcomes[0].tuned, Some(SortParams::e17_u256()));
        assert!(outcomes[0].result.is_ok() && !outcomes[0].quarantined);
        // Job 2 is quarantined by the open rung-0 breaker and steps DOWN
        // the ladder to rung 1 instead of the hardcoded constant.
        assert!(outcomes[1].quarantined);
        assert_eq!(outcomes[1].tuned, Some(SortParams::e15_u512()));
        assert!(!outcomes[1].degraded, "rung 1 is certified, not degraded");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(outcomes[1].result.as_ref().expect("stepped job verifies").run.output, expect);
        // Job 3 steps down too, and its fallback rescue opens rung 1's
        // breaker — stepped-down runs feed the rung they executed on.
        assert!(outcomes[2].quarantined);
        assert_eq!(outcomes[2].tuned, Some(SortParams::e15_u512()));
        // Job 4 finds every rung's breaker open and fails closed: an
        // uncertified config is never executed.
        assert!(matches!(
            &outcomes[3].result,
            Err(SortError::Uncertified { why, .. }) if why.contains("exhausted")
        ));
        assert_eq!(outcomes[3].tuned, None);

        let sc = svc.counters();
        assert_eq!(sc.tuned_jobs, 3);
        assert_eq!(sc.ladder_steps, 2);
        assert_eq!(sc.uncertified_rejected, 1);
        assert_eq!(sc.quarantined, 3);
        assert_eq!(sc.breaker_opens, 2);
        let open = svc
            .breaker_snapshots()
            .iter()
            .filter(|s| s.3 == BreakerState::Open)
            .map(|s| (s.1, s.2))
            .collect::<Vec<_>>();
        assert_eq!(open, vec![(17, 256), (15, 512)]);
    }

    #[test]
    fn ladder_exhaustion_is_recorded_in_the_telemetry() {
        let (svc, outcomes, _) = exhaust_the_ladder();
        assert!(matches!(outcomes[3].result, Err(SortError::Uncertified { .. })));
        let rejected = svc.telemetry_snapshot().get("service_uncertified_rejected_total").cloned();
        assert_eq!(rejected, Some(MetricValue::Counter(svc.counters().uncertified_rejected)));
    }

    #[test]
    fn canary_rollback_is_deterministic_and_promotion_moves_the_rung() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::{build_tuning_table, CanaryPolicy};

        let run = |poison_third: bool| {
            let table = build_tuning_table(&build_certificate_table());
            let mut svc = SortService::new(RobustConfig::new(SortConfig::paper_e17_u256()));
            svc.enable_tuning(
                table,
                TuningPolicy {
                    canary: Some(CanaryPolicy {
                        candidate: SortParams::e15_u512(),
                        every: 3,
                        promote_after: 2,
                    }),
                },
            )
            .expect("table verifies");
            let input = InputSpec::UniformRandom { seed: 91 }.generate(4500);
            for i in 1..=7 {
                let plan = if poison_third && i == 3 {
                    FaultPlan::from_sites(vec![site(
                        0,
                        0,
                        FaultKind::StuckBank { bank: 1, bit: 3 },
                        Persistence::Sticky,
                    )])
                } else {
                    FaultPlan::none()
                };
                svc.submit_with_faults(
                    &format!("job-{i}"),
                    input.clone(),
                    SortAlgorithm::CfMerge,
                    plan,
                    None,
                );
            }
            let outcomes = svc.drain();
            let trace: Vec<(Option<SortParams>, bool)> =
                outcomes.iter().map(|o| (o.tuned, o.canary)).collect();
            (svc, trace)
        };

        // Rollback: the poisoned canary (job 3, the cadence's first
        // firing) is rescued by the fallback, so the candidate is
        // retired and every later job stays on the active rung — and a
        // replay of the same batch is bit-identical.
        let (svc_a, trace_a) = run(true);
        let (_, trace_b) = run(true);
        assert_eq!(trace_a, trace_b, "canary decisions replay bit-identically");
        assert_eq!(trace_a[2], (Some(SortParams::e15_u512()), true));
        assert!(trace_a.iter().enumerate().all(|(i, t)| i == 2 || !t.1), "one canary fired");
        assert!(trace_a
            .iter()
            .enumerate()
            .all(|(i, t)| i == 2 || t.0 == Some(SortParams::e17_u256())));
        let sc = svc_a.counters();
        assert_eq!((sc.canary_jobs, sc.canary_rollbacks, sc.canary_promotions), (1, 1, 0));

        // Promotion: clean canaries at jobs 3 and 6 reach the streak of
        // two; job 7 then runs the candidate as the new active rung.
        let (svc_c, trace_c) = run(false);
        assert_eq!(trace_c[2], (Some(SortParams::e15_u512()), true));
        assert_eq!(trace_c[5], (Some(SortParams::e15_u512()), true));
        assert_eq!(trace_c[6], (Some(SortParams::e15_u512()), false), "promoted");
        assert_eq!(trace_c[3], (Some(SortParams::e17_u256()), false));
        let sc = svc_c.counters();
        assert_eq!((sc.canary_jobs, sc.canary_rollbacks, sc.canary_promotions), (2, 0, 1));
    }

    #[test]
    fn tuning_fails_closed_on_thrust_and_rejects_corrupt_tables() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;

        let table = build_tuning_table(&build_certificate_table());

        // A tampered checksum can never be installed.
        let mut corrupt = table.clone();
        corrupt.checksum = "fnv1a64:0000000000000000".to_string();
        let mut svc = SortService::new(RobustConfig::new(SortConfig::paper_e17_u256()));
        assert!(matches!(
            svc.enable_tuning(corrupt, TuningPolicy::default()),
            Err(SortError::Uncertified { .. })
        ));

        // Thrust's serial merge has no certified degree bound: its
        // ladder is empty and every job fails closed.
        svc.enable_tuning(table, TuningPolicy::default()).expect("genuine table verifies");
        let input = InputSpec::UniformRandom { seed: 92 }.generate(4500);
        svc.submit("thrust-job", input, SortAlgorithm::ThrustMergesort);
        let outcomes = svc.drain();
        assert!(matches!(
            &outcomes[0].result,
            Err(SortError::Uncertified { algo, .. }) if algo == "thrust"
        ));
        assert_eq!(svc.counters().uncertified_rejected, 1);
        assert_eq!(svc.counters().executed, 0, "rejected before execution");
    }

    #[test]
    fn degraded_rungs_carry_the_explicit_marker() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;
        use cfmerge_gpu_sim::device::Device;

        // On the 64-bit-bank profile every cf rung is degraded tier.
        let table = build_tuning_table(&build_certificate_table());
        let cfg =
            SortConfig { device: Device::kepler_64bit_like(), ..SortConfig::paper_e17_u256() };
        let mut svc = SortService::new(RobustConfig::new(cfg));
        svc.enable_tuning(table, TuningPolicy::default()).expect("table verifies");
        let input = InputSpec::UniformRandom { seed: 93 }.generate(4500);
        svc.submit("degraded-job", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        assert!(outcomes[0].degraded, "degraded-tier rung is explicitly marked");
        assert_eq!(outcomes[0].tuned, Some(SortParams::e17_u256()));
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(outcomes[0].result.as_ref().expect("verified").run.output, expect);
    }

    #[test]
    fn budget_exhaustion_degrades_to_fallback_not_retry_storms() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                retry_budget: RetryBudgetConfig::bounded(1.0),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 49 }.generate(2 * 160);
        let faulty = || {
            FaultPlan::from_sites(vec![site(
                0,
                1,
                FaultKind::StuckBank { bank: 0, bit: 0 },
                Persistence::Transient,
            )])
        };
        svc.submit_with_faults("first", input.clone(), SortAlgorithm::CfMerge, faulty(), None);
        svc.submit_with_faults("second", input.clone(), SortAlgorithm::CfMerge, faulty(), None);
        let outcomes = svc.drain();
        // First job spends the lone token on its retry.
        let r0 = outcomes[0].result.as_ref().expect("first recovers by retry");
        assert_eq!(r0.report.counters.retries, 1);
        assert_eq!(r0.report.counters.fallbacks, 0);
        assert_eq!(outcomes[0].retries_granted, 1);
        // Second job gets zero retries and degrades straight to the
        // fallback — still verified sorted.
        assert_eq!(outcomes[1].retries_granted, 0);
        let r1 = outcomes[1].result.as_ref().expect("second rescued by fallback");
        assert_eq!(r1.report.counters.retries, 0);
        assert_eq!(r1.report.counters.fallbacks, 1);
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(r1.run.output, expect);
        // Both jobs were capped below their full per-job retry cap.
        assert_eq!(svc.counters().budget_denied, 2);
        assert_eq!(svc.budget_tokens(), Some(0.0));
    }

    #[test]
    fn telemetry_is_deterministic() {
        let run_batch = || {
            let mut svc = SortService::with_resilience(
                small_rcfg(),
                ResilienceConfig {
                    retry_budget: RetryBudgetConfig::bounded(4.0),
                    breaker: BreakerConfig {
                        enabled: true,
                        failure_threshold: 1,
                        cooldown_s: 1e-6,
                    },
                    ..ResilienceConfig::default()
                },
            );
            let input = InputSpec::UniformRandom { seed: 77 }.generate(2 * 160);
            let poison = FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 1, bit: 3 },
                Persistence::Sticky,
            )]);
            svc.submit_with_faults("trip", input.clone(), SortAlgorithm::CfMerge, poison, None);
            svc.submit("clean-1", input.clone(), SortAlgorithm::CfMerge);
            svc.submit("clean-2", input, SortAlgorithm::CfMerge);
            let outcomes = svc.drain();
            (svc, outcomes)
        };

        let (a, out_a) = run_batch();
        let (b, out_b) = run_batch();

        // Two identical runs agree on every outcome and modeled second.
        assert_eq!(a.clock_s(), b.clock_s());
        assert_eq!(a.counters(), b.counters());
        for (x, y) in out_a.iter().zip(&out_b) {
            assert_eq!(x.result.is_ok(), y.result.is_ok());
            if let (Ok(rx), Ok(ry)) = (&x.result, &y.result) {
                assert_eq!(rx.run.simulated_seconds, ry.run.simulated_seconds);
                assert_eq!(rx.run.output, ry.run.output);
            }
        }

        // The snapshot is deterministic too (byte for byte) and reports
        // the expected latency distribution.
        let snap = a.telemetry_snapshot();
        let snap2 = b.telemetry_snapshot();
        assert_eq!(
            snap.to_json().to_string_pretty(),
            snap2.to_json().to_string_pretty(),
            "telemetry snapshots must be bit-stable"
        );
        let lat = snap.histogram("service_job_latency_seconds").expect("latency histogram");
        assert_eq!(lat.count, 3, "all three jobs verified");
        assert!(lat.p50 > 0 && lat.p50 <= lat.p99 && lat.p99 <= lat.p999);
        assert!(snap.get("service_breaker_opens_total").is_some());
        assert!(snap.histogram("service_queue_depth_at_admission").is_some());
    }

    #[test]
    fn service_kill_and_resume_round_trip() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 50 }.generate(4 * 160 + 5);
        let mut svc = SortService::new(rcfg.clone());
        svc.submit("whole", input.clone(), SortAlgorithm::CfMerge);
        let whole = svc.drain().remove(0).result.expect("whole run");

        let mut svc2 = SortService::new(rcfg);
        svc2.submit_job(SortJob {
            checkpoint: CheckpointPolicy::kill_after(0),
            ..SortJob::fresh("killed", input, SortAlgorithm::CfMerge)
        });
        let killed = svc2.drain().remove(0);
        let cp = match killed.result {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        svc2.submit_job(SortJob::resume("resumed", cp));
        let resumed = svc2.drain().remove(0).result.expect("resume succeeds");
        assert_eq!(resumed.run.output, whole.run.output);
        assert_eq!(resumed.run.simulated_seconds, whole.run.simulated_seconds);
        assert_eq!(svc2.counters().resumed, 1);
    }
}
