//! The multi-device cluster service: a deterministic discrete-event
//! simulation of N sort devices behind one front door.
//!
//! [`ClusterService`] drives a fleet of [`SortService`]s (one per
//! simulated device, possibly heterogeneous) over modeled time with the
//! [`EventQueue`] as the single ordering authority. Jobs arrive on an
//! open-loop schedule (see
//! [`crate::resilience::loadgen`]), are admitted at the *cluster's* front
//! door by the same admission core the single-device service calls
//! ([`crate::resilience::admission`]), shard to a home device by tenant
//! hash, and are dispatched by `(priority class, per-tenant served
//! seconds, job id)` — idle devices steal from the longest queue. A job is
//! the single-device service's [`SortJob`] plus a tenant, a priority and
//! an arrival time; an arrival time that is negative or not finite is
//! refused with [`SortError::InvalidArrival`] and never enters the queue.
//!
//! Device-level fault domains ([`crate::resilience::faultdomain`]) layer
//! whole-device crashes, crash-with-restart, and degrade windows on top
//! of PR 4's block-granular fault injection. A job interrupted by a
//! crash migrates to a surviving compatible device from its last usable
//! checkpoint (the PR 5 checksum-validated [`SortCheckpoint`] path);
//! migrations are priced in modeled time and tallied in
//! [`ServiceCounters`]. When migration is off or impossible, the job
//! fails with a typed [`SortError::DeviceLost`] /
//! [`SortError::MigrationFailed`] — never silent corruption.
//!
//! The cluster always records its own decisions (admissions, sheds,
//! crashes, migrations, steals, latency) in [`ClusterReport::telemetry`]:
//! ~1 µs of host time per job, never fed back into modeled time.
//!
//! **Parity invariant** (asserted by unit tests and
//! `tests/cluster_determinism.rs`): with device faults off, one device,
//! all arrivals at `t = 0`, and one tenant/priority class, the cluster
//! reproduces [`SortService`] bit for bit — same outcomes, same modeled
//! clock, same counters.
//!
//! **Modeling notes** (honest imperfections, also in
//! `docs/ROBUSTNESS.md`): the crash-interruption decision probes the
//! job against the device's *baseline* profile — a run whose real
//! execution is altered by budget caps or breaker quarantine is charged
//! as if the baseline run happened; a resume's deadline is checked on
//! total execution seconds without the degrade multiplier; and
//! `lost_work_s` counts all device-seconds between dispatch and crash,
//! including progress later salvaged from a checkpoint.

use cfmerge_json::{json_struct, Json, ToJson};

use crate::params::SortParams;
use crate::recovery::{run_job, RobustConfig, RobustSortRun};
use crate::resilience::admission::{self, AdmissionConfig};
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::faultdomain::{DeviceFaultPlan, DeviceTimeline};
use crate::resilience::loadgen::{ClusterRequest, Priority};
use crate::resilience::scheduler::EventQueue;
use crate::resilience::service::{
    Payload, ResilienceConfig, ServiceCounters, SortJob, SortService,
};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};
use crate::tuning::table::fnv1a64;
use crate::tuning::{TuningPolicy, TuningTable};

/// Handle to a job submitted to a [`ClusterService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterJobId(u64);

impl std::fmt::Display for ClusterJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cjob-{}", self.0)
    }
}

/// Migrations permitted per job before it fails with
/// [`SortError::MigrationFailed`] (a crash-looping job must not bounce
/// forever).
const MAX_MIGRATIONS: u32 = 4;
/// Fixed modeled cost of one migration (checkpoint transfer setup).
const MIGRATION_FIXED_S: f64 = 5e-6;
/// Per-key modeled cost of one migration (checkpoint payload).
const MIGRATION_PER_KEY_S: f64 = 1e-9;

/// Checkpoint-migration failover policy. A job migrates at most 4 times,
/// and each migration costs 5 µs plus 1 ns per key of modeled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Whether interrupted jobs migrate at all; off, a whole-device
    /// crash turns the running job into [`SortError::DeviceLost`].
    pub enabled: bool,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl MigrationConfig {
    /// Failover off: crashed devices take their running job with them.
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Full cluster configuration: the device fleet, the cluster-level
/// resilience policy, the failover policy, and the device fault plan.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One robust-driver configuration per device (index = device id).
    pub devices: Vec<RobustConfig>,
    /// Cluster-level admission plus per-device breaker/budget policy.
    pub resilience: ResilienceConfig,
    /// Checkpoint-migration failover policy.
    pub migration: MigrationConfig,
    /// Device-level fault schedule.
    pub faults: DeviceFaultPlan,
}

impl ClusterConfig {
    /// `n` identical devices running `device`, everything else default
    /// (unbounded admission, migration on, no faults).
    #[must_use]
    pub fn homogeneous(n: usize, device: RobustConfig) -> Self {
        Self {
            devices: vec![device; n],
            resilience: ResilienceConfig::default(),
            migration: MigrationConfig::default(),
            faults: DeviceFaultPlan::none(),
        }
    }

    /// A single-device cluster under an explicit resilience policy (the
    /// parity configuration against [`SortService`]).
    #[must_use]
    pub fn single(device: RobustConfig, resilience: ResilienceConfig) -> Self {
        Self { resilience, ..Self::homogeneous(1, device) }
    }
}

/// A submitted job waiting to arrive/dispatch. Its payload starts
/// fresh and becomes a checkpoint resume when a crash migrates it.
#[derive(Debug)]
struct PendingJob {
    id: ClusterJobId,
    tenant: String,
    priority: Priority,
    arrival_s: f64,
    sort: SortJob,
    cancelled: bool,
}

/// One unit of dispatchable work: an admitted job and the migrations it
/// has survived so far.
#[derive(Debug)]
struct WorkItem {
    job: PendingJob,
    migrations: u32,
}

/// One simulated device: its inner service, compiled fault timeline, and
/// local queue.
struct DeviceSlot {
    cfg: RobustConfig,
    svc: SortService,
    timeline: DeviceTimeline,
    queue: Vec<WorkItem>,
    up: bool,
    busy: bool,
}

impl DeviceSlot {
    /// Whether `item` may run on this device. Fresh jobs run anywhere;
    /// a checkpoint is pinned to its `(E, u)` launch configuration.
    fn compatible(&self, item: &WorkItem) -> bool {
        let params = self.cfg.base.params;
        item.job.sort.payload.checkpoint().is_none_or(|cp| (params.e, params.u) == (cp.e, cp.u))
    }
}

/// Everything the event loop reacts to.
enum ClusterEvent {
    /// A submitted job reaches the front door.
    Arrival(Box<PendingJob>),
    /// Device goes down (permanently or until its restart event).
    Crash(usize),
    /// Device rejoins after a crash-with-restart cooldown.
    Restart(usize),
    /// The job occupying the device finishes.
    Completion(usize),
    /// A migrated checkpoint lands in the target device's queue.
    MigrationReady { device: usize, item: Box<WorkItem> },
}

/// How one cluster job ended.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The job's handle.
    pub id: ClusterJobId,
    /// The label it was submitted under.
    pub label: String,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class.
    pub priority: Priority,
    /// Device that produced the final outcome (`None` for jobs that
    /// never dispatched: shed, cancelled, invalid, or stranded).
    pub device: Option<usize>,
    /// Arrival time in modeled seconds.
    pub arrival_s: f64,
    /// Completion time in modeled seconds (equals `arrival_s` for jobs
    /// refused at the front door).
    pub completed_s: f64,
    /// Checkpoint migrations this job survived.
    pub migrations: u32,
    /// The verified run — or the typed reason there isn't one.
    pub result: Result<RobustSortRun<u32>, SortError>,
    /// The job ran on a `degraded`-tier rung of the device's tuning
    /// ladder (always `false` without tuning).
    pub degraded: bool,
    /// The launch parameters the device's tuning ladder ran the job on
    /// (`None` without tuning and for jobs that never executed).
    pub tuned: Option<SortParams>,
}

impl ClusterOutcome {
    /// The outcome of a job that never ran to completion on a device:
    /// refused or shed at the front door, cancelled, stranded, or lost to
    /// a device crash.
    fn unrun(
        job: PendingJob,
        device: Option<usize>,
        completed_s: f64,
        migrations: u32,
        err: SortError,
    ) -> Self {
        Self {
            id: job.id,
            label: job.sort.label,
            tenant: job.tenant,
            priority: job.priority,
            device,
            arrival_s: job.arrival_s,
            completed_s,
            migrations,
            result: Err(err),
            degraded: false,
            tuned: None,
        }
    }

    /// End-to-end modeled latency (queueing + execution).
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }
}

/// Per-tenant modeled-latency SLO summary over verified jobs
/// (nearest-rank percentiles; the reserved tenant name `"all"` is the
/// cluster-wide row).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant name (`"all"` = every tenant).
    pub tenant: String,
    /// Verified jobs in the sample.
    pub verified: u64,
    /// Median end-to-end latency in modeled seconds.
    pub p50_s: f64,
    /// 99th-percentile latency.
    pub p99_s: f64,
    /// 99.9th-percentile latency.
    pub p999_s: f64,
}

json_struct! { write TenantSlo { tenant, verified, p50_s, p99_s, p999_s } }

/// Per-device execution summary (from the device's inner service).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Device index.
    pub device: usize,
    /// Jobs the device's inner service executed.
    pub executed: u64,
    /// Executed jobs that verified in deadline.
    pub verified_ok: u64,
    /// Executed jobs that ended in a typed error.
    pub failed: u64,
    /// The device's inner service clock (includes idle-time syncs).
    pub clock_s: f64,
}

json_struct! { write DeviceSummary { device, executed, verified_ok, failed, clock_s } }

/// Everything one [`ClusterService::run`] produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<ClusterOutcome>,
    /// Cluster-level tallies merged with every device's inner counters
    /// (inner services only execute, so admission is counted once, at
    /// the cluster front door).
    pub counters: ServiceCounters,
    /// Makespan: the latest modeled completion time across all jobs.
    pub clock_s: f64,
    /// Device-seconds in flight at crash instants (progress salvaged by
    /// checkpoints included — see the module docs).
    pub lost_work_s: f64,
    /// Total modeled seconds spent moving checkpoints between devices.
    pub migration_s: f64,
    /// Per-tenant SLO rows plus the cluster-wide `"all"` row.
    pub tenant_slos: Vec<TenantSlo>,
    /// Per-device execution summaries.
    pub per_device: Vec<DeviceSummary>,
    /// Frozen cluster telemetry.
    pub telemetry: MetricsSnapshot,
}

impl ToJson for ClusterReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("devices", Json::from(self.per_device.len())),
            ("clock_s", Json::from(self.clock_s)),
            ("lost_work_s", Json::from(self.lost_work_s)),
            ("migration_s", Json::from(self.migration_s)),
            ("counters", self.counters.to_json()),
            ("tenant_slos", Json::arr(self.tenant_slos.iter().map(TenantSlo::to_json))),
            ("per_device", Json::arr(self.per_device.iter().map(DeviceSummary::to_json))),
            (
                "outcomes",
                Json::arr(self.outcomes.iter().map(|o| {
                    let mut fields = vec![
                        ("id", Json::from(o.id.to_string())),
                        ("label", Json::from(o.label.clone())),
                        ("tenant", Json::from(o.tenant.clone())),
                        ("priority", Json::from(o.priority.label())),
                        ("arrival_s", Json::from(o.arrival_s)),
                        ("completed_s", Json::from(o.completed_s)),
                        ("migrations", Json::from(u64::from(o.migrations))),
                    ];
                    if let Some(d) = o.device {
                        fields.push(("device", Json::from(d)));
                    }
                    match &o.result {
                        Ok(run) => {
                            fields.push(("ok", Json::from(true)));
                            fields.push(("seconds", Json::from(run.run.simulated_seconds)));
                            fields.push(("n", Json::from(run.run.output.len())));
                        }
                        Err(e) => {
                            fields.push(("ok", Json::from(false)));
                            fields.push(("error", e.to_json()));
                        }
                    }
                    Json::obj(fields)
                })),
            ),
        ])
    }
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The multi-device front door: submit jobs (each with a tenant,
/// priority, arrival time, optional fault plan, and optional deadline),
/// then [`ClusterService::run`] simulates the whole cluster and returns
/// a [`ClusterReport`]. Each `run` is a self-contained simulation
/// starting at modeled `t = 0`.
pub struct ClusterService {
    config: ClusterConfig,
    arrivals: Vec<PendingJob>,
    next_id: u64,
    /// A table that passed [`TuningTable::verify`], installed on every
    /// device at each run.
    tuning: Option<(TuningTable, TuningPolicy)>,
}

impl ClusterService {
    /// A cluster under `config`.
    ///
    /// # Panics
    /// Panics if the fleet is empty.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(!config.devices.is_empty(), "a cluster needs at least one device");
        Self { config, arrivals: Vec::new(), next_id: 0, tuning: None }
    }

    /// Install a tuning ladder on every device's inner [`SortService`]
    /// for all subsequent [`ClusterService::run`] calls. The table is
    /// verified fail-closed up front (see
    /// [`SortService::enable_tuning`]); each device then routes through
    /// its *own* ladder (matched by device name), so a heterogeneous
    /// fleet degrades per-profile.
    pub fn enable_tuning(
        &mut self,
        table: TuningTable,
        policy: TuningPolicy,
    ) -> Result<(), SortError> {
        self.tuning = Some((table.verified_for("cluster")?, policy));
        Ok(())
    }

    /// Submit a production job: default tenant, interactive priority,
    /// arrival at `t = 0`, no faults, no deadline.
    pub fn submit(&mut self, label: &str, input: Vec<u32>, algo: SortAlgorithm) -> ClusterJobId {
        self.submit_at("default", Priority::Interactive, 0.0, SortJob::fresh(label, input, algo))
    }

    /// Submit `job` for `tenant` at `priority`, arriving at modeled time
    /// `at_s`. An arrival time that is negative, NaN or infinite never
    /// enters the event queue: the job's outcome is
    /// [`SortError::InvalidArrival`], recorded at `t = 0`.
    pub fn submit_at(
        &mut self,
        tenant: &str,
        priority: Priority,
        at_s: f64,
        job: SortJob,
    ) -> ClusterJobId {
        let id = ClusterJobId(self.next_id);
        self.next_id += 1;
        self.arrivals.push(PendingJob {
            id,
            tenant: tenant.to_string(),
            priority,
            arrival_s: at_s,
            sort: job,
            cancelled: false,
        });
        id
    }

    /// Submit a load-generated request (see
    /// [`crate::resilience::loadgen::LoadGenConfig`]).
    pub fn submit_request(&mut self, req: ClusterRequest) -> ClusterJobId {
        let job = SortJob {
            deadline_s: req.deadline_s,
            ..SortJob::fresh(&req.label, req.input, req.algo)
        };
        self.submit_at(&req.tenant, req.priority, req.at_s, job)
    }

    /// Cancel a job that has not run yet. Returns `false` if the id is
    /// unknown or its batch already ran.
    pub fn cancel(&mut self, id: ClusterJobId) -> bool {
        match self.arrivals.iter_mut().find(|j| j.id == id) {
            Some(job) => {
                job.cancelled = true;
                true
            }
            None => false,
        }
    }

    /// Jobs waiting for the next [`ClusterService::run`].
    #[must_use]
    pub fn pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Simulate the cluster over the submitted batch and return the
    /// report. Deterministic: the same configuration and submissions
    /// always produce a bit-identical report.
    pub fn run(&mut self) -> ClusterReport {
        let slots = self
            .config
            .devices
            .iter()
            .enumerate()
            .map(|(d, cfg)| {
                // The cluster's front door makes every admission
                // decision; each device's service only executes, under
                // its own breakers and budget.
                let mut svc = SortService::with_resilience(cfg.clone(), self.config.resilience);
                if let Some((table, policy)) = &self.tuning {
                    svc.install_tuning(table.clone(), *policy);
                }
                DeviceSlot {
                    cfg: cfg.clone(),
                    svc,
                    timeline: DeviceTimeline::compile(&self.config.faults, d),
                    queue: Vec::new(),
                    up: true,
                    busy: false,
                }
            })
            .collect::<Vec<_>>();

        let mut sim = Sim {
            admission: self.config.resilience.admission,
            migration: self.config.migration,
            slots,
            eq: EventQueue::new(),
            outcomes: Vec::new(),
            served: Vec::new(),
            counters: ServiceCounters::default(),
            in_flight: 0,
            lost_work_s: 0.0,
            migration_s: 0.0,
            telemetry: MetricsRegistry::new(),
        };

        // Fault-domain events first (at equal timestamps a crash beats
        // an arrival: a device crashing at t cannot accept work at t),
        // then arrivals in submission order.
        for d in 0..sim.slots.len() {
            let downtimes = sim.slots[d].timeline.downtimes().to_vec();
            for (start, end) in downtimes {
                sim.eq.push(start, ClusterEvent::Crash(d));
                if let Some(end) = end {
                    sim.eq.push(end, ClusterEvent::Restart(d));
                }
            }
        }
        for job in std::mem::take(&mut self.arrivals) {
            if job.arrival_s.is_finite() && job.arrival_s >= 0.0 {
                sim.eq.push(job.arrival_s, ClusterEvent::Arrival(Box::new(job)));
            } else {
                sim.refuse_arrival(job);
            }
        }
        sim.run()
    }
}

/// The running simulation (split from [`ClusterService`] so the event
/// loop can borrow its pieces independently).
struct Sim {
    admission: AdmissionConfig,
    migration: MigrationConfig,
    slots: Vec<DeviceSlot>,
    eq: EventQueue<ClusterEvent>,
    outcomes: Vec<ClusterOutcome>,
    /// Per-tenant device-seconds served so far (fairness state; a Vec,
    /// not a map, so iteration order is deterministic).
    served: Vec<(String, f64)>,
    counters: ServiceCounters,
    /// Admitted jobs not yet finished (the cluster's queue depth for
    /// admission purposes).
    in_flight: usize,
    lost_work_s: f64,
    migration_s: f64,
    telemetry: MetricsRegistry,
}

impl Sim {
    fn run(mut self) -> ClusterReport {
        let mut now = 0.0f64;
        while let Some(ev) = self.eq.pop() {
            now = ev.at_s;
            self.handle(ev.payload, now);
            // Drain every event at exactly this timestamp before
            // dispatching, so simultaneous arrivals/crashes see one
            // consistent queue state.
            while self.eq.peek_time() == Some(now) {
                let ev = self.eq.pop().expect("peeked");
                self.handle(ev.payload, now);
            }
            self.dispatch_all(now);
        }
        self.fail_stranded(now);
        self.finish()
    }

    fn handle(&mut self, ev: ClusterEvent, now: f64) {
        match ev {
            ClusterEvent::Arrival(job) => self.admit(*job, now),
            ClusterEvent::Crash(d) => {
                self.slots[d].up = false;
                self.slots[d].busy = false;
                self.counters.device_crashes += 1;
                self.telemetry.inc("cluster_device_crashes_total", 1);
            }
            ClusterEvent::Restart(d) => {
                self.slots[d].up = true;
                self.counters.device_restarts += 1;
                self.telemetry.inc("cluster_device_restarts_total", 1);
            }
            ClusterEvent::Completion(d) => self.slots[d].busy = false,
            ClusterEvent::MigrationReady { device, item } => self.slots[device].queue.push(*item),
        }
    }

    /// Cluster-level admission through the admission core both front
    /// doors call: the depth is the cluster-wide in-flight count, and any
    /// queued fresh job on any device may be evicted.
    fn admit(&mut self, job: PendingJob, now: f64) {
        self.telemetry.inc("cluster_jobs_submitted_total", 1);
        let mut queued: Vec<(ClusterJobId, usize, Option<f64>)> = self
            .slots
            .iter()
            .flat_map(|slot| &slot.queue)
            .filter(|item| item.job.sort.payload.checkpoint().is_none())
            .map(|item| (item.job.id, item.job.sort.payload.n(), item.job.sort.deadline_s))
            .collect();
        queued.sort_by_key(|(id, ..)| id.0);
        let decision = admission::admit(
            &self.admission,
            self.in_flight,
            job.sort.payload.n(),
            job.sort.deadline_s,
            &queued,
            &self.slots[0].cfg.base,
            &mut self.counters,
        );
        let evicted = match decision {
            Ok(evicted) => evicted,
            Err(err) => {
                let name = match err {
                    SortError::InvalidDeadline { .. } => "cluster_invalid_deadline_total",
                    _ => "cluster_jobs_shed_total",
                };
                self.telemetry.inc(name, 1);
                self.record_unrun(job, now, err);
                return;
            }
        };
        for (id, err) in evicted {
            let item = self.remove_queued(id);
            self.in_flight -= 1;
            self.telemetry.inc("cluster_jobs_shed_total", 1);
            self.record_unrun(item.job, now, err);
        }
        self.telemetry.inc("cluster_jobs_admitted_total", 1);
        if job.cancelled {
            self.counters.cancelled += 1;
            self.telemetry.inc("cluster_jobs_cancelled_total", 1);
            self.record_unrun(job, now, SortError::Cancelled);
            return;
        }
        self.in_flight += 1;
        self.telemetry.set_gauge("cluster_inflight", self.in_flight as f64);
        let home = (fnv1a64(&job.tenant) % self.slots.len() as u64) as usize;
        self.slots[home].queue.push(WorkItem { job, migrations: 0 });
    }

    /// A job whose arrival time is not a usable modeled time: counted as
    /// submitted and refused at `t = 0`, never queued.
    fn refuse_arrival(&mut self, mut job: PendingJob) {
        let at_s = std::mem::replace(&mut job.arrival_s, 0.0);
        self.counters.submitted += 1;
        self.telemetry.inc("cluster_jobs_submitted_total", 1);
        self.record_unrun(job, 0.0, SortError::InvalidArrival { at_s });
    }

    /// Take the queued item of job `id` out of whichever device queue
    /// holds it.
    fn remove_queued(&mut self, id: ClusterJobId) -> WorkItem {
        for slot in &mut self.slots {
            if let Some(pos) = slot.queue.iter().position(|item| item.job.id == id) {
                return slot.queue.remove(pos);
            }
        }
        unreachable!("admission only evicts queued jobs")
    }

    /// Outcome for a job that never reached a device.
    fn record_unrun(&mut self, job: PendingJob, now: f64, err: SortError) {
        self.outcomes.push(ClusterOutcome::unrun(job, None, now, 0, err));
    }

    /// Keep handing work to free devices until nothing moves: own queue
    /// first, then steal from the longest other queue.
    fn dispatch_all(&mut self, now: f64) {
        loop {
            let mut progressed = false;
            for d in 0..self.slots.len() {
                if !self.slots[d].up || self.slots[d].busy {
                    continue;
                }
                if let Some((item, stolen)) = self.take_item_for(d) {
                    if stolen {
                        self.counters.steals += 1;
                        self.telemetry.inc("cluster_steals_total", 1);
                    }
                    self.dispatch_one(d, item, now);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Best compatible item for device `d`: from its own queue, else
    /// stolen from the longest other queue (ties to the lowest index).
    /// "Best" = lowest `(priority rank, tenant served-seconds, job id)`,
    /// which reduces to strict submission order when every job shares a
    /// tenant and priority — the [`SortService`] parity condition.
    fn take_item_for(&mut self, d: usize) -> Option<(WorkItem, bool)> {
        if let Some(pos) = self.best_pos(d, d) {
            return Some((self.slots[d].queue.remove(pos), false));
        }
        let mut source: Option<(usize, usize, usize)> = None; // (len, src, pos)
        for s in 0..self.slots.len() {
            if s == d {
                continue;
            }
            if let Some(pos) = self.best_pos(s, d) {
                let len = self.slots[s].queue.len();
                if source.is_none_or(|(best_len, ..)| len > best_len) {
                    source = Some((len, s, pos));
                }
            }
        }
        source.map(|(_, s, pos)| (self.slots[s].queue.remove(pos), true))
    }

    /// Position of the best item in `src`'s queue that device `dst` can
    /// run.
    fn best_pos(&self, src: usize, dst: usize) -> Option<usize> {
        let mut best: Option<(usize, (u8, f64, u64))> = None;
        for (pos, item) in self.slots[src].queue.iter().enumerate() {
            if !self.slots[dst].compatible(item) {
                continue;
            }
            let job = &item.job;
            let key = (job.priority.rank(), self.served_s(&job.tenant), job.id.0);
            let better = best.as_ref().is_none_or(|(_, b)| {
                key.0.cmp(&b.0).then(key.1.total_cmp(&b.1)).then(key.2.cmp(&b.2)).is_lt()
            });
            if better {
                best = Some((pos, key));
            }
        }
        best.map(|(pos, _)| pos)
    }

    fn served_s(&self, tenant: &str) -> f64 {
        self.served.iter().find(|(t, _)| t == tenant).map_or(0.0, |(_, s)| *s)
    }

    fn add_served(&mut self, tenant: &str, seconds: f64) {
        match self.served.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, s)) => *s += seconds,
            None => self.served.push((tenant.to_string(), seconds)),
        }
    }

    fn dispatch_one(&mut self, d: usize, item: WorkItem, now: f64) {
        let mult = self.slots[d].timeline.multiplier_at(now);
        if let Some((crash_s, _)) = self.slots[d].timeline.next_crash_after(now) {
            let (elapsed, ckpts) = self.probe(d, &item);
            if now + elapsed * mult > crash_s {
                self.interrupt(d, item, now, crash_s, mult, ckpts);
                return;
            }
        }
        self.execute_on(d, item, now, mult);
    }

    /// Price the item against the device's baseline profile without
    /// touching the inner service (the crash-interruption decision).
    /// Failed probes price as 0 — a typed error "completes" instantly,
    /// before any crash.
    fn probe(&self, d: usize, item: &WorkItem) -> (f64, Vec<SortCheckpoint>) {
        let job = &item.job.sort;
        // A fresh job captures a checkpoint per pass to migrate from (a
        // resume captures none); a resume is priced past its checkpoint.
        match run_job(job, &self.slots[d].cfg, CheckpointPolicy::every_pass()) {
            Ok((run, ckpts)) => {
                let s0 = job.payload.checkpoint().map_or(0.0, |cp| cp.seconds_so_far);
                ((run.run.simulated_seconds - s0).max(0.0), ckpts)
            }
            Err(_) => (0.0, Vec::new()),
        }
    }

    /// The device will crash mid-run: account the lost work, then either
    /// migrate the job (from its best pre-crash checkpoint) or fail it
    /// with a typed device-scoped error.
    fn interrupt(
        &mut self,
        d: usize,
        item: WorkItem,
        now: f64,
        crash_s: f64,
        mult: f64,
        ckpts: Vec<SortCheckpoint>,
    ) {
        self.lost_work_s += crash_s - now;
        self.telemetry.observe_seconds("cluster_lost_work_seconds", crash_s - now);
        // Checkpoints the run captured before the crash are real work
        // the cluster performed, even though the probe ran them.
        let usable = ckpts
            .into_iter()
            .filter(|c| now + c.seconds_so_far * mult <= crash_s)
            .collect::<Vec<_>>();
        self.counters.checkpoints_taken += usable.len() as u64;
        // The device stays occupied until its crash event clears it.
        self.slots[d].busy = true;

        if !self.migration.enabled {
            self.counters.device_lost += 1;
            self.finish_failed(
                item,
                d,
                crash_s,
                SortError::DeviceLost {
                    device: d,
                    reason: format!("whole-device crash at {crash_s:.3e}s with migration disabled"),
                },
            );
            return;
        }
        if item.migrations >= MAX_MIGRATIONS {
            self.counters.migrations_failed += 1;
            self.finish_failed(
                item,
                d,
                crash_s,
                SortError::MigrationFailed {
                    from_device: d,
                    reason: format!("migration cap {MAX_MIGRATIONS} exhausted"),
                },
            );
            return;
        }
        // A resume re-migrates its own checkpoint; a fresh job upgrades
        // to a resume if any checkpoint completed before the crash.
        let mut next = item;
        if let (None, Some(cp)) =
            (next.job.sort.payload.checkpoint(), usable.into_iter().next_back())
        {
            next.job.sort.payload = Payload::Resume { checkpoint: Box::new(cp) };
        }
        let n = next.job.sort.payload.n();
        let cost = MIGRATION_FIXED_S + MIGRATION_PER_KEY_S * n as f64;
        let ready = crash_s + cost;
        // Target: the compatible device that is up soonest after the
        // checkpoint lands; ties to the shortest queue, then the lowest
        // index. The crashed device itself is eligible if it restarts.
        let mut target: Option<(f64, usize, usize)> = None;
        for (t, slot) in self.slots.iter().enumerate() {
            if !slot.compatible(&next) {
                continue;
            }
            let Some(up_t) = slot.timeline.up_at_or_after(ready) else { continue };
            let key = (up_t, slot.queue.len(), t);
            let better = target.is_none_or(|b| {
                key.0.total_cmp(&b.0).then(key.1.cmp(&b.1)).then(key.2.cmp(&b.2)).is_lt()
            });
            if better {
                target = Some(key);
            }
        }
        match target {
            Some((_, _, t)) => {
                next.migrations += 1;
                self.counters.migrations += 1;
                self.migration_s += cost;
                self.telemetry.inc("cluster_migrations_total", 1);
                self.telemetry.observe_seconds("cluster_migration_seconds", cost);
                self.eq
                    .push(ready, ClusterEvent::MigrationReady { device: t, item: Box::new(next) });
            }
            None => {
                self.counters.migrations_failed += 1;
                self.finish_failed(
                    next,
                    d,
                    crash_s,
                    SortError::MigrationFailed {
                        from_device: d,
                        reason: "no surviving compatible device".to_string(),
                    },
                );
            }
        }
    }

    /// Outcome for a job killed by the fault domain (typed, counted,
    /// removed from flight).
    fn finish_failed(&mut self, item: WorkItem, d: usize, at_s: f64, err: SortError) {
        self.telemetry.inc("cluster_jobs_failed_total", 1);
        self.in_flight -= 1;
        self.telemetry.set_gauge("cluster_inflight", self.in_flight as f64);
        self.outcomes.push(ClusterOutcome::unrun(item.job, Some(d), at_s, item.migrations, err));
    }

    /// Run the item on device `d`'s inner service and record its
    /// outcome. The device is occupied for the job's *device* seconds
    /// (total minus the checkpointed prefix) scaled by any degrade
    /// multiplier.
    fn execute_on(&mut self, d: usize, item: WorkItem, now: f64, mult: f64) {
        let WorkItem { job: PendingJob { id, tenant, priority, arrival_s, sort, .. }, migrations } =
            item;
        let s0 = sort.payload.checkpoint().map_or(0.0, |cp| cp.seconds_so_far);
        let outcome = self.slots[d].svc.run_now(now, id.0, sort);
        // The inner clock advanced by the job's execution seconds (a
        // deadline miss still advances by the time it burned); the
        // device itself is only occupied for the un-checkpointed suffix.
        let elapsed_exec = match &outcome.result {
            Ok(run) => run.run.simulated_seconds,
            Err(SortError::DeadlineExceeded { needed_s, .. }) => *needed_s,
            Err(_) => 0.0,
        };
        let eff = (elapsed_exec - s0).max(0.0) * mult;
        let completed_s = now + eff;
        self.add_served(&tenant, eff);
        self.in_flight -= 1;
        let reg = &mut self.telemetry;
        reg.inc("cluster_jobs_executed_total", 1);
        match &outcome.result {
            Ok(_) => {
                reg.inc("cluster_jobs_verified_total", 1);
                reg.observe_seconds("cluster_job_latency_seconds", completed_s - arrival_s);
                let name = format!("cluster_tenant_{}_latency_seconds", tenant.replace('-', "_"));
                reg.observe_seconds(&name, completed_s - arrival_s);
            }
            Err(_) => reg.inc("cluster_jobs_failed_total", 1),
        }
        reg.set_gauge("cluster_inflight", self.in_flight as f64);
        self.outcomes.push(ClusterOutcome {
            id,
            label: outcome.label,
            tenant,
            priority,
            device: Some(d),
            arrival_s,
            completed_s,
            migrations,
            result: outcome.result,
            degraded: outcome.degraded,
            tuned: outcome.tuned,
        });
        if eff > 0.0 {
            self.slots[d].busy = true;
            self.eq.push(completed_s, ClusterEvent::Completion(d));
        }
    }

    /// The event queue is dry but work is still queued: every surviving
    /// device is either permanently down or incompatible. Fail each
    /// stranded item with a typed device-scoped error, in id order.
    fn fail_stranded(&mut self, now: f64) {
        let mut stranded: Vec<(usize, WorkItem)> = Vec::new();
        for (d, slot) in self.slots.iter_mut().enumerate() {
            for item in slot.queue.drain(..) {
                stranded.push((d, item));
            }
        }
        stranded.sort_by_key(|(_, item)| item.job.id.0);
        for (d, item) in stranded {
            self.counters.device_lost += 1;
            self.finish_failed(
                item,
                d,
                now,
                SortError::DeviceLost {
                    device: d,
                    reason: "queued on a dead device with no surviving compatible device"
                        .to_string(),
                },
            );
        }
    }

    fn finish(mut self) -> ClusterReport {
        self.outcomes.sort_by_key(|o| o.id.0);
        let clock_s = self.outcomes.iter().map(|o| o.completed_s).fold(0.0, f64::max);
        let mut counters = self.counters;
        let mut per_device = Vec::new();
        for (d, slot) in self.slots.iter().enumerate() {
            let inner = slot.svc.counters();
            per_device.push(DeviceSummary {
                device: d,
                executed: inner.executed,
                verified_ok: inner.verified_ok,
                failed: inner.failed,
                clock_s: slot.svc.clock_s(),
            });
            counters.merge(inner);
        }
        let tenant_slos = Self::compute_slos(&self.outcomes);
        self.telemetry.set_gauge("cluster_clock_seconds", clock_s);
        ClusterReport {
            telemetry: self.telemetry.snapshot(),
            outcomes: self.outcomes,
            counters,
            clock_s,
            lost_work_s: self.lost_work_s,
            migration_s: self.migration_s,
            tenant_slos,
            per_device,
        }
    }

    /// Per-tenant (sorted by name) plus cluster-wide latency SLOs over
    /// verified outcomes, computed from the outcomes directly.
    fn compute_slos(outcomes: &[ClusterOutcome]) -> Vec<TenantSlo> {
        let slo = |tenant: &str, mut lats: Vec<f64>| {
            lats.sort_by(|a, b| a.total_cmp(b));
            TenantSlo {
                tenant: tenant.to_string(),
                verified: lats.len() as u64,
                p50_s: percentile(&lats, 0.50),
                p99_s: percentile(&lats, 0.99),
                p999_s: percentile(&lats, 0.999),
            }
        };
        let mut tenants: Vec<&str> = outcomes.iter().map(|o| o.tenant.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut rows = Vec::with_capacity(tenants.len() + 1);
        for t in tenants {
            let lats = outcomes
                .iter()
                .filter(|o| o.tenant == t && o.result.is_ok())
                .map(ClusterOutcome::latency_s)
                .collect();
            rows.push(slo(t, lats));
        }
        let all =
            outcomes.iter().filter(|o| o.result.is_ok()).map(ClusterOutcome::latency_s).collect();
        rows.push(slo("all", all));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::params::SortParams;
    use crate::recovery::simulate_sort_robust;
    use crate::resilience::admission::{AdmissionConfig, ShedPolicy};
    use crate::resilience::faultdomain::{DeviceFaultEvent, DeviceFaultKind};
    use crate::sort::pipeline::SortConfig;
    use cfmerge_gpu_sim::fault::FaultPlan;

    fn rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    /// Where the default tenant homes in an `n`-device fleet.
    fn home_of(n: usize) -> usize {
        (fnv1a64("default") % n as u64) as usize
    }

    #[test]
    fn n1_fault_free_cluster_matches_sort_service() {
        // (a) bounded RejectLargest admission, exactly the single-device
        // service's scenario; (b) unbounded with a deadline miss, a
        // cancel, and an invalid deadline.
        let small = InputSpec::UniformRandom { seed: 44 }.generate(160);
        let big = InputSpec::UniformRandom { seed: 45 }.generate(8 * 160);
        let huge = InputSpec::UniformRandom { seed: 46 }.generate(16 * 160);
        let resilience = ResilienceConfig {
            admission: AdmissionConfig::bounded(2, ShedPolicy::RejectLargest),
            ..ResilienceConfig::default()
        };

        let mut svc = SortService::with_resilience(rcfg(), resilience);
        svc.submit("small", small.clone(), SortAlgorithm::CfMerge);
        svc.submit("big", big.clone(), SortAlgorithm::CfMerge);
        svc.submit("newcomer", small.clone(), SortAlgorithm::CfMerge);
        svc.submit("huge", huge.clone(), SortAlgorithm::CfMerge);
        let svc_out = svc.drain();

        let mut cluster = ClusterService::new(ClusterConfig::single(rcfg(), resilience));
        cluster.submit("small", small.clone(), SortAlgorithm::CfMerge);
        cluster.submit("big", big, SortAlgorithm::CfMerge);
        cluster.submit("newcomer", small, SortAlgorithm::CfMerge);
        cluster.submit("huge", huge, SortAlgorithm::CfMerge);
        let report = cluster.run();

        assert_eq!(report.outcomes.len(), svc_out.len());
        for (c, s) in report.outcomes.iter().zip(&svc_out) {
            match (&c.result, &s.result) {
                (Ok(cr), Ok(sr)) => {
                    assert_eq!(cr.run.output, sr.run.output);
                    assert_eq!(cr.run.simulated_seconds, sr.run.simulated_seconds);
                }
                (Err(ce), Err(se)) => assert_eq!(ce.to_string(), se.to_string()),
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
        assert_eq!(report.clock_s, svc.clock_s());
        assert_eq!(report.per_device[0].clock_s, svc.clock_s());
        assert_eq!(report.counters, *svc.counters());

        // (b) deadlines, cancels, invalid deadlines — unbounded.
        let input = InputSpec::UniformRandom { seed: 18 }.generate(2 * 160);
        let mut svc = SortService::new(rcfg());
        svc.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let cancel = svc.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        svc.submit_with_faults(
            "tight",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        svc.submit_with_faults(
            "bad",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(-1.0),
        );
        svc.cancel(cancel);
        let svc_out = svc.drain();

        let mut cluster =
            ClusterService::new(ClusterConfig::single(rcfg(), ResilienceConfig::default()));
        cluster.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let ccancel = cluster.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        let job = |label, deadline_s| SortJob {
            deadline_s: Some(deadline_s),
            ..SortJob::fresh(label, input.clone(), SortAlgorithm::CfMerge)
        };
        cluster.submit_at("default", Priority::Interactive, 0.0, job("tight", 1e-12));
        cluster.submit_at("default", Priority::Interactive, 0.0, job("bad", -1.0));
        assert!(cluster.cancel(ccancel));
        let report = cluster.run();

        for (c, s) in report.outcomes.iter().zip(&svc_out) {
            match (&c.result, &s.result) {
                (Ok(cr), Ok(sr)) => assert_eq!(cr.run.simulated_seconds, sr.run.simulated_seconds),
                (Err(ce), Err(se)) => assert_eq!(ce.to_string(), se.to_string()),
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
        assert_eq!(report.clock_s, svc.clock_s());
        assert_eq!(report.counters, *svc.counters());
    }

    /// Refused arrival times, and how the report's JSON writes each.
    const BAD_AT_S: [f64; 4] = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY];
    const BAD_AT_S_JSON: [&str; 4] = [r#""NaN""#, "-1", r#""inf""#, r#""-inf""#];

    #[test]
    fn bad_arrival_times_are_typed_and_never_queued() {
        let batch = |bad: bool| {
            let mut cluster = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
            for (i, at_s) in [0.0, 1e-5, 2e-5, 3e-5].into_iter().enumerate() {
                let input = InputSpec::UniformRandom { seed: 60 + i as u64 }.generate(2 * 160);
                let job = SortJob::fresh(&format!("ok-{i}"), input, SortAlgorithm::CfMerge);
                cluster.submit_at(&format!("tenant-{i}"), Priority::Interactive, at_s, job);
                if bad {
                    let at_s = BAD_AT_S[i];
                    let job =
                        SortJob::fresh(&format!("bad-{i}"), vec![3, 1, 2], SortAlgorithm::CfMerge);
                    cluster.submit_at("tenant-0", Priority::Batch, at_s, job);
                }
            }
            cluster.run()
        };
        let (clean, mixed) = (batch(false), batch(true));
        let (ok, bad): (Vec<_>, Vec<_>) =
            mixed.outcomes.iter().partition(|o| o.label.starts_with("ok-"));
        assert_eq!(ok.len(), clean.outcomes.len());
        for (m, c) in ok.iter().zip(&clean.outcomes) {
            assert_eq!((&m.label, m.device, m.arrival_s), (&c.label, c.device, c.arrival_s));
            assert_eq!(m.completed_s, c.completed_s, "{}", m.label);
            let (mr, cr) = (m.result.as_ref().expect("verified"), c.result.as_ref().unwrap());
            assert_eq!(
                (&mr.run.output, mr.run.simulated_seconds),
                (&cr.run.output, cr.run.simulated_seconds)
            );
        }
        for (o, want) in bad.iter().zip(BAD_AT_S) {
            match o.result {
                Err(SortError::InvalidArrival { at_s }) => {
                    assert!(at_s == want || (at_s.is_nan() && want.is_nan()), "{at_s}");
                }
                ref other => panic!("expected InvalidArrival, got {other:?}"),
            }
            assert_eq!((o.device, o.arrival_s, o.completed_s), (None, 0.0, 0.0));
        }
        assert_eq!(mixed.tenant_slos, clean.tenant_slos);
        assert_eq!(mixed.clock_s, clean.clock_s);
        assert_eq!(mixed.counters.submitted, clean.counters.submitted + 4);
        assert_eq!(mixed.counters.executed, clean.counters.executed);
        let slos = Json::arr(mixed.tenant_slos.iter().map(ToJson::to_json)).to_string_compact();
        assert!(!slos.contains("null"), "{slos}");
        // The report tells NaN, +inf and -inf apart; finite times stay numbers.
        let report = mixed.to_json();
        let outcomes = report.req("outcomes").unwrap().as_arr().unwrap();
        let errors: Vec<String> = outcomes
            .iter()
            .filter_map(|o| o.get("error"))
            .map(|e| e.req("at_s").unwrap().to_string_compact())
            .collect();
        assert_eq!(errors, BAD_AT_S_JSON);
        assert!(!report.to_string_compact().contains("null"));
    }

    #[test]
    fn crash_migrates_checkpoint_to_surviving_device() {
        let input = InputSpec::UniformRandom { seed: 91 }.generate(8 * 160 + 3);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let total = solo.run.simulated_seconds;
        let home = home_of(2);

        let mut cfg = ClusterConfig::homogeneous(2, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.7 * total,
            device: home,
            kind: DeviceFaultKind::Crash,
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("victim", input.clone(), SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        let run = o.result.as_ref().expect("job survives via checkpoint migration");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.run.output, expect, "migrated job must produce uncorrupted output");
        assert_eq!(o.device, Some(1 - home));
        assert_eq!(o.migrations, 1);
        assert_eq!(report.counters.device_crashes, 1);
        assert_eq!(report.counters.migrations, 1);
        assert_eq!(
            report.counters.resumed, 1,
            "migration resumes the checkpoint, not a cold restart"
        );
        assert!(report.counters.checkpoints_taken >= 1);
        assert!(report.lost_work_s > 0.0);
        assert!(report.migration_s > 0.0);
        assert!(o.completed_s > 0.7 * total);
    }

    #[test]
    fn crash_without_migration_is_typed_device_lost() {
        let input = InputSpec::UniformRandom { seed: 92 }.generate(8 * 160);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let home = home_of(2);

        let mut cfg = ClusterConfig::homogeneous(2, rcfg());
        cfg.migration = MigrationConfig::disabled();
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.5 * solo.run.simulated_seconds,
            device: home,
            kind: DeviceFaultKind::Crash,
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("doomed", input, SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        assert!(
            matches!(&o.result, Err(SortError::DeviceLost { device, .. }) if *device == home),
            "expected DeviceLost, got {:?}",
            o.result
        );
        assert_eq!(report.counters.device_lost, 1);
        assert_eq!(report.counters.migrations, 0);
        assert_eq!(report.counters.verified_ok, 0);
    }

    #[test]
    fn idle_devices_steal_queued_work() {
        let mut cluster = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
        for i in 0..6 {
            let input = InputSpec::UniformRandom { seed: 100 + i }.generate(2 * 160);
            cluster.submit(&format!("job-{i}"), input, SortAlgorithm::CfMerge);
        }
        let report = cluster.run();
        assert_eq!(report.counters.verified_ok, 6);
        assert!(
            report.counters.steals >= 1,
            "one tenant homes to one device; the other must steal"
        );
        assert!(report.per_device.iter().all(|d| d.executed >= 1), "{:?}", report.per_device);
        // Two devices working in parallel beat one device's serial sum.
        let serial: f64 = report
            .outcomes
            .iter()
            .map(|o| o.result.as_ref().expect("ok").run.simulated_seconds)
            .sum();
        assert!(report.clock_s < serial);
    }

    #[test]
    fn crash_with_restart_migrates_back_onto_the_same_device() {
        let input = InputSpec::UniformRandom { seed: 93 }.generate(8 * 160 + 1);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let total = solo.run.simulated_seconds;

        let mut cfg = ClusterConfig::homogeneous(1, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.5 * total,
            device: 0,
            kind: DeviceFaultKind::CrashWithRestart { cooldown_s: total },
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("phoenix", input.clone(), SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        let run = o.result.as_ref().expect("job survives the restart");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.run.output, expect);
        assert_eq!(o.device, Some(0));
        assert_eq!(report.counters.device_crashes, 1);
        assert_eq!(report.counters.device_restarts, 1);
        assert_eq!(report.counters.migrations, 1);
        assert!(o.completed_s >= 1.5 * total, "completion waits for the restart");
    }

    #[test]
    fn degraded_devices_stretch_completion_time() {
        let input = InputSpec::UniformRandom { seed: 94 }.generate(4 * 160);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let mut cfg = ClusterConfig::homogeneous(1, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.0,
            device: 0,
            kind: DeviceFaultKind::Degrade { multiplier: 3.0, duration_s: 1.0 },
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("slow", input, SortAlgorithm::CfMerge);
        let report = cluster.run();
        let o = &report.outcomes[0];
        assert!(o.result.is_ok());
        let expected = 3.0 * solo.run.simulated_seconds;
        assert!(
            (o.completed_s - expected).abs() < 1e-12,
            "degrade multiplier must scale device time: {} vs {expected}",
            o.completed_s
        );
    }

    #[test]
    fn reports_are_bit_stable_across_runs() {
        let build = || {
            let mut cfg = ClusterConfig::homogeneous(2, rcfg());
            cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
                at_s: 1e-5,
                device: 0,
                kind: DeviceFaultKind::CrashWithRestart { cooldown_s: 2e-5 },
            }]);
            let mut cluster = ClusterService::new(cfg);
            let stream = crate::resilience::loadgen::LoadGenConfig::steady(7, 12, 5e4);
            for req in stream.generate() {
                cluster.submit_request(req);
            }
            cluster.run()
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "cluster reports must be bit-stable"
        );
        assert_eq!(a.counters, b.counters);
        assert_eq!(
            a.telemetry.to_json().to_string_pretty(),
            b.telemetry.to_json().to_string_pretty()
        );
    }

    #[test]
    fn heterogeneous_fleet_tunes_per_device_profile() {
        use crate::cert::build_certificate_table;
        use crate::tuning::{build_tuning_table, RungTier, TuningPolicy};
        use cfmerge_gpu_sim::device::Device;

        // Device 0 is the rtx profile (certified cf ladder), device 1
        // the 64-bit-bank profile (every cf rung degraded tier): each
        // device must route through its *own* ladder.
        let table = build_tuning_table(&build_certificate_table());
        let rtx = RobustConfig::new(SortConfig::paper_e17_u256());
        let kepler = RobustConfig::new(SortConfig {
            device: Device::kepler_64bit_like(),
            ..SortConfig::paper_e17_u256()
        });
        let mut cfg = ClusterConfig::homogeneous(2, rtx.clone());
        cfg.devices = vec![rtx.clone(), kepler.clone()];
        let mut cluster = ClusterService::new(cfg);
        cluster.enable_tuning(table.clone(), TuningPolicy::default()).expect("table verifies");

        let input = InputSpec::UniformRandom { seed: 95 }.generate(4500);
        for i in 0..4 {
            cluster.submit(&format!("job-{i}"), input.clone(), SortAlgorithm::CfMerge);
        }
        cluster.submit("thrust-job", input, SortAlgorithm::ThrustMergesort);
        let report = cluster.run();

        let device_of = |d: usize| if d == 0 { &rtx } else { &kepler };
        for o in &report.outcomes {
            if o.label == "thrust-job" {
                // No certified thrust rung exists on any profile.
                assert!(matches!(&o.result, Err(SortError::Uncertified { .. })));
                assert_eq!(o.tuned, None);
                continue;
            }
            assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
            let d = o.device.expect("executed jobs name their device");
            let dev_name = &device_of(d).base.device.name;
            let ladder = table.ladder_for(dev_name, "cf-merge").expect("cf ladder");
            let params = o.tuned.expect("tuned jobs record their params");
            let rung = ladder.rung_for(params).expect("executed config is on the ladder");
            assert_eq!(o.degraded, rung.tier == RungTier::Degraded);
        }
        // Both tiers were actually exercised: work landed on each device.
        assert!(report.outcomes.iter().any(|o| o.degraded));
        assert!(report.outcomes.iter().any(|o| o.tuned.is_some() && !o.degraded));
        assert_eq!(report.counters.uncertified_rejected, 1);
        assert_eq!(report.counters.tuned_jobs, 4);
    }
}
