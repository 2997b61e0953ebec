//! The multi-device cluster service: a deterministic discrete-event
//! simulation of N sort devices behind one front door.
//!
//! [`ClusterService`] drives a fleet of [`SortService`]s (one per
//! simulated device, possibly heterogeneous) over modeled time with the
//! [`EventQueue`] as the single ordering authority. Jobs arrive on an
//! open-loop schedule (see
//! [`crate::resilience::loadgen`]), are admitted through the *cluster's*
//! admission policy (the same typed shed decisions as the single-device
//! service, replicated one level up), shard to a home device by tenant
//! hash, and are dispatched by `(priority class, per-tenant served
//! seconds, job id)` — idle devices steal from the longest queue.
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

use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::{Json, ToJson};

use crate::params::SortParams;
use crate::recovery::{
    resume_sort_robust, simulate_sort_robust_checkpointed, RobustConfig, RobustSortRun,
};
use crate::resilience::admission::{estimate_sort_seconds, ShedPolicy};
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::faultdomain::{DeviceFaultPlan, DeviceTimeline};
use crate::resilience::loadgen::{ClusterRequest, Priority};
use crate::resilience::scheduler::EventQueue;
use crate::resilience::service::{ResilienceConfig, ServiceCounters, SortService};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};
use crate::tuning::{TuningPolicy, TuningTable};

/// Handle to a job submitted to a [`ClusterService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterJobId(u64);

impl std::fmt::Display for ClusterJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cjob-{}", self.0)
    }
}

/// Checkpoint-migration failover policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Whether interrupted jobs migrate at all; off, a whole-device
    /// crash turns the running job into [`SortError::DeviceLost`].
    pub enabled: bool,
    /// Migrations permitted per job before it fails with
    /// [`SortError::MigrationFailed`] (a crash-looping job must not
    /// bounce forever).
    pub max_migrations: u32,
    /// Fixed modeled cost of one migration (checkpoint transfer setup).
    pub fixed_s: f64,
    /// Per-key modeled cost of one migration (checkpoint payload).
    pub per_key_s: f64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self { enabled: true, max_migrations: 4, fixed_s: 5e-6, per_key_s: 1e-9 }
    }
}

impl MigrationConfig {
    /// Failover off: crashed devices take their running job with them.
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
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

/// A submitted job waiting to arrive/dispatch.
#[derive(Debug)]
struct PendingJob {
    id: ClusterJobId,
    label: String,
    tenant: String,
    priority: Priority,
    arrival_s: f64,
    input: Vec<u32>,
    algo: SortAlgorithm,
    plan: FaultPlan,
    deadline_s: Option<f64>,
    cancelled: bool,
}

/// One unit of dispatchable work: a fresh job, or a checkpoint resume
/// produced by migration.
#[derive(Debug)]
enum WorkItem {
    Fresh { job: PendingJob, migrations: u32 },
    Resume { job: PendingJob, checkpoint: Box<SortCheckpoint>, migrations: u32 },
}

impl WorkItem {
    fn job(&self) -> &PendingJob {
        match self {
            WorkItem::Fresh { job, .. } | WorkItem::Resume { job, .. } => job,
        }
    }

    fn migrations(&self) -> u32 {
        match self {
            WorkItem::Fresh { migrations, .. } | WorkItem::Resume { migrations, .. } => *migrations,
        }
    }

    /// Key count, for migration pricing and admission bookkeeping.
    fn n(&self) -> usize {
        match self {
            WorkItem::Fresh { job, .. } => job.input.len(),
            WorkItem::Resume { checkpoint, .. } => checkpoint.n,
        }
    }
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
        match item {
            WorkItem::Fresh { .. } => true,
            WorkItem::Resume { checkpoint, .. } => {
                self.cfg.base.params.e == checkpoint.e && self.cfg.base.params.u == checkpoint.u
            }
        }
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
    /// The job ran on the quarantine config because its breaker was open.
    pub quarantined: bool,
    /// The job was a half-open breaker probe.
    pub probe: bool,
    /// The job ran on a `degraded`-tier rung of the device's tuning
    /// ladder (always `false` without tuning).
    pub degraded: bool,
    /// The job was a deterministic canary probe of the tuning policy's
    /// candidate rung.
    pub canary: bool,
    /// The launch parameters the device's tuning ladder ran the job on
    /// (`None` without tuning and for jobs that never executed).
    pub tuned: Option<SortParams>,
    /// The per-block retry cap the budget granted this job.
    pub retries_granted: u32,
}

impl ClusterOutcome {
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

impl ToJson for TenantSlo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::from(self.tenant.clone())),
            ("verified", Json::from(self.verified)),
            ("p50_s", Json::from(self.p50_s)),
            ("p99_s", Json::from(self.p99_s)),
            ("p999_s", Json::from(self.p999_s)),
        ])
    }
}

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

impl ToJson for DeviceSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("device", Json::from(self.device)),
            ("executed", Json::from(self.executed)),
            ("verified_ok", Json::from(self.verified_ok)),
            ("failed", Json::from(self.failed)),
            ("clock_s", Json::from(self.clock_s)),
        ])
    }
}

/// Everything one [`ClusterService::run`] produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<ClusterOutcome>,
    /// Cluster-level tallies merged with every device's inner counters
    /// (inner `submitted`/`admitted` are zeroed first — the cluster
    /// front door already counted those jobs once).
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
    /// Frozen cluster telemetry (`None` unless
    /// [`ClusterService::enable_telemetry`] was called).
    pub telemetry: Option<MetricsSnapshot>,
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

/// FNV-1a, for the deterministic tenant → home-device shard.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
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
    telemetry: bool,
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
        Self { config, arrivals: Vec::new(), next_id: 0, telemetry: false, tuning: None }
    }

    /// Switch cluster telemetry on (the zero-cost-observer pattern:
    /// purely observational, never feeds back into modeled time).
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
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
        if let Err(why) = table.verify() {
            return Err(SortError::Uncertified {
                algo: "*".to_string(),
                device: "cluster".to_string(),
                why,
            });
        }
        self.tuning = Some((table, policy));
        Ok(())
    }

    /// Submit a production job: default tenant, interactive priority,
    /// arrival at `t = 0`, no faults, no deadline.
    pub fn submit(&mut self, label: &str, input: Vec<u32>, algo: SortAlgorithm) -> ClusterJobId {
        self.submit_at(
            label,
            "default",
            Priority::Interactive,
            0.0,
            input,
            algo,
            FaultPlan::none(),
            None,
        )
    }

    /// Submit a fully specified job.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_at(
        &mut self,
        label: &str,
        tenant: &str,
        priority: Priority,
        at_s: f64,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> ClusterJobId {
        debug_assert!(at_s.is_finite() && at_s >= 0.0, "arrivals must be at finite modeled times");
        let id = ClusterJobId(self.next_id);
        self.next_id += 1;
        self.arrivals.push(PendingJob {
            id,
            label: label.to_string(),
            tenant: tenant.to_string(),
            priority,
            arrival_s: at_s,
            input,
            algo,
            plan,
            deadline_s,
            cancelled: false,
        });
        id
    }

    /// Submit a load-generated request (see
    /// [`crate::resilience::loadgen::LoadGenConfig`]).
    pub fn submit_request(&mut self, req: ClusterRequest) -> ClusterJobId {
        self.submit_at(
            &req.label,
            &req.tenant,
            req.priority,
            req.at_s,
            req.input,
            req.algo,
            FaultPlan::none(),
            req.deadline_s,
        )
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
                // Device-local admission is unbounded: the cluster's
                // front door already made every shed decision. Breaker
                // and budget stay per-device.
                let inner = ResilienceConfig {
                    admission: crate::resilience::admission::AdmissionConfig::default(),
                    ..self.config.resilience
                };
                let mut svc = SortService::with_resilience(cfg.clone(), inner);
                if let Some((table, policy)) = &self.tuning {
                    svc.enable_tuning(table.clone(), *policy)
                        .expect("table was verified at ClusterService::enable_tuning");
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
            resilience: self.config.resilience,
            migration: self.config.migration,
            slots,
            eq: EventQueue::new(),
            outcomes: Vec::new(),
            served: Vec::new(),
            counters: ServiceCounters::default(),
            in_flight: 0,
            lost_work_s: 0.0,
            migration_s: 0.0,
            telemetry: if self.telemetry { Some(MetricsRegistry::new()) } else { None },
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
            sim.eq.push(job.arrival_s, ClusterEvent::Arrival(Box::new(job)));
        }
        sim.run()
    }
}

/// The running simulation (split from [`ClusterService`] so the event
/// loop can borrow its pieces independently).
struct Sim {
    resilience: ResilienceConfig,
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
    telemetry: Option<MetricsRegistry>,
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
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_device_crashes_total", 1);
                }
            }
            ClusterEvent::Restart(d) => {
                self.slots[d].up = true;
                self.counters.device_restarts += 1;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_device_restarts_total", 1);
                }
            }
            ClusterEvent::Completion(d) => self.slots[d].busy = false,
            ClusterEvent::MigrationReady { device, item } => self.slots[device].queue.push(*item),
        }
    }

    /// Cluster-level admission: replicates [`SortService`]'s decisions
    /// (including the exact typed reasons) against the cluster-wide
    /// in-flight count.
    fn admit(&mut self, job: PendingJob, now: f64) {
        self.counters.submitted += 1;
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_submitted_total", 1);
        }
        if let Some(d) = job.deadline_s {
            if !d.is_finite() || d < 0.0 {
                self.counters.invalid_deadline += 1;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_invalid_deadline_total", 1);
                }
                self.record_unrun(job, now, SortError::InvalidDeadline { deadline_s: d });
                return;
            }
        }
        let job = match self.resilience.admission.capacity {
            Some(capacity) if self.in_flight >= capacity => {
                match self.apply_shed(job, capacity, now) {
                    Some(job) => job,
                    None => return,
                }
            }
            _ => job,
        };
        self.counters.admitted += 1;
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_admitted_total", 1);
        }
        if job.cancelled {
            self.counters.cancelled += 1;
            if let Some(reg) = &mut self.telemetry {
                reg.inc("cluster_jobs_cancelled_total", 1);
            }
            self.record_unrun(job, now, SortError::Cancelled);
            return;
        }
        self.in_flight += 1;
        if let Some(reg) = &mut self.telemetry {
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        let home = (fnv1a(&job.tenant) % self.slots.len() as u64) as usize;
        self.slots[home].queue.push(WorkItem::Fresh { job, migrations: 0 });
    }

    /// The cluster is at capacity: decide who pays. Returns the incoming
    /// job if it was admitted.
    fn apply_shed(
        &mut self,
        incoming: PendingJob,
        capacity: usize,
        now: f64,
    ) -> Option<PendingJob> {
        match self.resilience.admission.policy {
            ShedPolicy::RejectNewest => {
                self.counters.shed_overload += 1;
                self.record_shed(incoming, now, SortError::Overloaded { capacity });
                None
            }
            ShedPolicy::RejectLargest => {
                // Largest queued-not-running fresh job, ties to the
                // newest — the same victim the single-device service
                // picks, since its queue order is id order.
                let mut victim: Option<(usize, u64, usize, usize)> = None;
                for (d, slot) in self.slots.iter().enumerate() {
                    for (pos, item) in slot.queue.iter().enumerate() {
                        if let WorkItem::Fresh { job, .. } = item {
                            if job.input.len() >= incoming.input.len() {
                                let key = (job.input.len(), job.id.0);
                                if victim.is_none_or(|(n, id, ..)| key > (n, id)) {
                                    victim = Some((key.0, key.1, d, pos));
                                }
                            }
                        }
                    }
                }
                match victim {
                    Some((n, _, d, pos)) => {
                        self.counters.shed_largest += 1;
                        self.in_flight -= 1;
                        let evicted = self.slots[d].queue.remove(pos);
                        let WorkItem::Fresh { job, .. } = evicted else { unreachable!() };
                        let err = SortError::Shed {
                            policy: ShedPolicy::RejectLargest.label(),
                            reason: format!(
                                "evicted ({n} keys) for a newer {}-key job with the queue at \
                                 capacity {capacity}",
                                incoming.input.len()
                            ),
                        };
                        self.record_shed(job, now, err);
                        Some(incoming)
                    }
                    None => {
                        self.counters.shed_overload += 1;
                        self.record_shed(incoming, now, SortError::Overloaded { capacity });
                        None
                    }
                }
            }
            ShedPolicy::DeadlineAware => {
                let base = self.slots[0].cfg.base.clone();
                let mut doomed: Vec<PendingJob> = Vec::new();
                for slot in &mut self.slots {
                    let mut i = 0;
                    while i < slot.queue.len() {
                        let unreachable = match &slot.queue[i] {
                            WorkItem::Fresh { job, .. } => job
                                .deadline_s
                                .is_some_and(|d| estimate_sort_seconds(job.input.len(), &base) > d),
                            WorkItem::Resume { .. } => false,
                        };
                        if unreachable {
                            if let WorkItem::Fresh { job, .. } = slot.queue.remove(i) {
                                doomed.push(job);
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
                if doomed.is_empty() {
                    self.counters.shed_overload += 1;
                    self.record_shed(incoming, now, SortError::Overloaded { capacity });
                    return None;
                }
                doomed.sort_by_key(|j| j.id.0);
                for job in doomed {
                    self.counters.shed_deadline += 1;
                    self.in_flight -= 1;
                    let d = job.deadline_s.expect("shed for its deadline");
                    let floor = estimate_sort_seconds(job.input.len(), &base);
                    let err = SortError::Shed {
                        policy: ShedPolicy::DeadlineAware.label(),
                        reason: format!(
                            "deadline {d:.3e}s unreachable: optimistic lower bound is {floor:.3e}s"
                        ),
                    };
                    self.record_shed(job, now, err);
                }
                Some(incoming)
            }
        }
    }

    fn record_shed(&mut self, job: PendingJob, now: f64, err: SortError) {
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_shed_total", 1);
        }
        self.record_unrun(job, now, err);
    }

    /// Outcome for a job that never reached a device.
    fn record_unrun(&mut self, job: PendingJob, now: f64, err: SortError) {
        self.outcomes.push(ClusterOutcome {
            id: job.id,
            label: job.label,
            tenant: job.tenant,
            priority: job.priority,
            device: None,
            arrival_s: job.arrival_s,
            completed_s: now,
            migrations: 0,
            result: Err(err),
            quarantined: false,
            probe: false,
            degraded: false,
            canary: false,
            tuned: None,
            retries_granted: 0,
        });
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
                        if let Some(reg) = &mut self.telemetry {
                            reg.inc("cluster_steals_total", 1);
                        }
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
            let job = item.job();
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
        match item {
            WorkItem::Fresh { job, .. } => match simulate_sort_robust_checkpointed::<u32>(
                &job.input,
                job.algo,
                &self.slots[d].cfg,
                &job.plan,
                CheckpointPolicy::every_pass(),
            ) {
                Ok((run, ckpts)) => (run.run.simulated_seconds, ckpts),
                Err(_) => (0.0, Vec::new()),
            },
            WorkItem::Resume { job, checkpoint, .. } => {
                match resume_sort_robust::<u32>(checkpoint, &self.slots[d].cfg, &job.plan) {
                    Ok(run) => (
                        (run.run.simulated_seconds - checkpoint.seconds_so_far).max(0.0),
                        Vec::new(),
                    ),
                    Err(_) => (0.0, Vec::new()),
                }
            }
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
        if let Some(reg) = &mut self.telemetry {
            reg.observe_seconds("cluster_lost_work_seconds", crash_s - now);
        }
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
            if let Some(reg) = &mut self.telemetry {
                reg.inc("cluster_jobs_failed_total", 1);
            }
            let migrations = item.migrations();
            let job = match item {
                WorkItem::Fresh { job, .. } | WorkItem::Resume { job, .. } => job,
            };
            self.finish_failed(
                job,
                d,
                crash_s,
                migrations,
                SortError::DeviceLost {
                    device: d,
                    reason: format!("whole-device crash at {crash_s:.3e}s with migration disabled"),
                },
            );
            return;
        }
        let migrations = item.migrations() + 1;
        if migrations > self.migration.max_migrations {
            self.counters.migrations_failed += 1;
            if let Some(reg) = &mut self.telemetry {
                reg.inc("cluster_jobs_failed_total", 1);
            }
            let done = item.migrations();
            let job = match item {
                WorkItem::Fresh { job, .. } | WorkItem::Resume { job, .. } => job,
            };
            self.finish_failed(
                job,
                d,
                crash_s,
                done,
                SortError::MigrationFailed {
                    from_device: d,
                    reason: format!("migration cap {} exhausted", self.migration.max_migrations),
                },
            );
            return;
        }
        // A resume re-migrates its own checkpoint; a fresh job upgrades
        // to a resume if any checkpoint completed before the crash.
        let next = match item {
            WorkItem::Resume { job, checkpoint, .. } => {
                WorkItem::Resume { job, checkpoint, migrations }
            }
            WorkItem::Fresh { job, .. } => match usable.into_iter().next_back() {
                Some(cp) => WorkItem::Resume { job, checkpoint: Box::new(cp), migrations },
                None => WorkItem::Fresh { job, migrations },
            },
        };
        let cost = self.migration.fixed_s + self.migration.per_key_s * next.n() as f64;
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
                self.counters.migrations += 1;
                self.migration_s += cost;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_migrations_total", 1);
                    reg.observe_seconds("cluster_migration_seconds", cost);
                }
                self.eq
                    .push(ready, ClusterEvent::MigrationReady { device: t, item: Box::new(next) });
            }
            None => {
                self.counters.migrations_failed += 1;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_jobs_failed_total", 1);
                }
                let done = next.migrations() - 1;
                let job = match next {
                    WorkItem::Fresh { job, .. } | WorkItem::Resume { job, .. } => job,
                };
                self.finish_failed(
                    job,
                    d,
                    crash_s,
                    done,
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
    fn finish_failed(
        &mut self,
        job: PendingJob,
        d: usize,
        at_s: f64,
        migrations: u32,
        err: SortError,
    ) {
        self.in_flight -= 1;
        if let Some(reg) = &mut self.telemetry {
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        self.outcomes.push(ClusterOutcome {
            id: job.id,
            label: job.label,
            tenant: job.tenant,
            priority: job.priority,
            device: Some(d),
            arrival_s: job.arrival_s,
            completed_s: at_s,
            migrations,
            result: Err(err),
            quarantined: false,
            probe: false,
            degraded: false,
            canary: false,
            tuned: None,
            retries_granted: 0,
        });
    }

    /// Run the item on device `d`'s inner service and record its
    /// outcome. The device is occupied for the job's *device* seconds
    /// (total minus the checkpointed prefix) scaled by any degrade
    /// multiplier.
    fn execute_on(&mut self, d: usize, item: WorkItem, now: f64, mult: f64) {
        let slot = &mut self.slots[d];
        // An idle device still saw modeled time pass: budget refill and
        // breaker cooldowns are functions of the cluster clock.
        slot.svc.sync_clock(now);
        let (job, migrations, s0, outcome) = match item {
            WorkItem::Fresh { mut job, migrations } => {
                let input = std::mem::take(&mut job.input);
                slot.svc.submit_with_faults(
                    &job.label,
                    input,
                    job.algo,
                    job.plan.clone(),
                    job.deadline_s,
                );
                let o = slot.svc.drain().pop().expect("one job submitted");
                (job, migrations, 0.0, o)
            }
            WorkItem::Resume { job, checkpoint, migrations } => {
                let s0 = checkpoint.seconds_so_far;
                slot.svc.submit_resume(&job.label, *checkpoint, job.plan.clone(), job.deadline_s);
                let o = slot.svc.drain().pop().expect("one job submitted");
                (job, migrations, s0, o)
            }
        };
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
        self.add_served(&job.tenant, eff);
        self.in_flight -= 1;
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_executed_total", 1);
            match &outcome.result {
                Ok(_) => {
                    reg.inc("cluster_jobs_verified_total", 1);
                    reg.observe_seconds("cluster_job_latency_seconds", completed_s - job.arrival_s);
                    let name =
                        format!("cluster_tenant_{}_latency_seconds", job.tenant.replace('-', "_"));
                    reg.observe_seconds(&name, completed_s - job.arrival_s);
                }
                Err(_) => reg.inc("cluster_jobs_failed_total", 1),
            }
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        self.outcomes.push(ClusterOutcome {
            id: job.id,
            label: job.label,
            tenant: job.tenant,
            priority: job.priority,
            device: Some(d),
            arrival_s: job.arrival_s,
            completed_s,
            migrations,
            result: outcome.result,
            quarantined: outcome.quarantined,
            probe: outcome.probe,
            degraded: outcome.degraded,
            canary: outcome.canary,
            tuned: outcome.tuned,
            retries_granted: outcome.retries_granted,
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
        stranded.sort_by_key(|(_, item)| item.job().id.0);
        for (d, item) in stranded {
            self.counters.device_lost += 1;
            if let Some(reg) = &mut self.telemetry {
                reg.inc("cluster_jobs_failed_total", 1);
            }
            let migrations = item.migrations();
            let job = match item {
                WorkItem::Fresh { job, .. } | WorkItem::Resume { job, .. } => job,
            };
            self.finish_failed(
                job,
                d,
                now,
                migrations,
                SortError::DeviceLost {
                    device: d,
                    reason: "queued on a dead device with no surviving compatible device"
                        .to_string(),
                },
            );
            // finish_failed already counted the flight; device_lost was
            // counted above.
        }
    }

    fn finish(mut self) -> ClusterReport {
        self.outcomes.sort_by_key(|o| o.id.0);
        let clock_s = self.outcomes.iter().map(|o| o.completed_s).fold(0.0, f64::max);
        let mut counters = self.counters;
        let mut per_device = Vec::new();
        for (d, slot) in self.slots.iter().enumerate() {
            let mut inner = *slot.svc.counters();
            per_device.push(DeviceSummary {
                device: d,
                executed: inner.executed,
                verified_ok: inner.verified_ok,
                failed: inner.failed,
                clock_s: slot.svc.clock_s(),
            });
            // The cluster front door already counted every submission
            // and admission once.
            inner.submitted = 0;
            inner.admitted = 0;
            counters.merge(&inner);
        }
        let tenant_slos = Self::compute_slos(&self.outcomes);
        if let Some(reg) = &mut self.telemetry {
            reg.set_gauge("cluster_clock_seconds", clock_s);
        }
        ClusterReport {
            telemetry: self.telemetry.as_ref().map(MetricsRegistry::snapshot),
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
    /// verified outcomes. Computed from the outcomes directly — the SLO
    /// rows exist whether or not telemetry was enabled.
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
    use crate::resilience::admission::AdmissionConfig;
    use crate::resilience::faultdomain::{DeviceFaultEvent, DeviceFaultKind};
    use crate::sort::pipeline::SortConfig;

    fn rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    /// Where the default tenant homes in an `n`-device fleet.
    fn home_of(n: usize) -> usize {
        (fnv1a("default") % n as u64) as usize
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
        cluster.submit_at(
            "tight",
            "default",
            Priority::Interactive,
            0.0,
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        cluster.submit_at(
            "bad",
            "default",
            Priority::Interactive,
            0.0,
            input,
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(-1.0),
        );
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
            cluster.enable_telemetry();
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
        let ta = a.telemetry.expect("telemetry on").to_json().to_string_pretty();
        let tb = b.telemetry.expect("telemetry on").to_json().to_string_pretty();
        assert_eq!(ta, tb);
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
