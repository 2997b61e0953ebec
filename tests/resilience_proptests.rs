//! Property tests for the service-level resilience stack.
//!
//! Three families:
//!
//! 1. **Budget & shedding** — for any job mix under a bounded retry
//!    budget and a bounded queue, the token count never goes negative
//!    and shed jobs never execute (not even partially: they contribute
//!    zero recovery counters and zero modeled time).
//! 2. **Breaker legality** — for any outcome sequence, a breaker's
//!    transition log is a path in the legal state machine
//!    `closed→open→half-open→{closed, open}`.
//! 3. **Checkpoint/resume** — for any kill point, resuming from the
//!    checkpoint reproduces the uninterrupted run's output byte for
//!    byte; on a fault-free plan the modeled cost and counters are
//!    byte-identical too.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{
    pipeline_shape, resume_sort_robust, simulate_sort_robust, simulate_sort_robust_checkpointed,
    RobustConfig, SortService,
};
use cfmerge::core::resilience::{
    AdmissionConfig, BreakerConfig, BreakerState, CheckpointPolicy, CircuitBreaker,
    ResilienceConfig, RetryBudgetConfig, ShedPolicy,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig, SortError};
use cfmerge::gpu_sim::fault::{FaultPlan, FaultSpec};
use proptest::prelude::*;

fn params() -> SortParams {
    SortParams::new(5, 32) // tile = 160: small enough for many proptest cases
}

fn rcfg() -> RobustConfig {
    RobustConfig::new(SortConfig::with_params(params()))
}

/// What a breaker call that began with `logged` log entries must report:
/// the `to` of the one entry it added, or `None` when it added none.
fn reported_entry(b: &CircuitBreaker, logged: usize) -> Option<BreakerState> {
    match b.transitions()[logged..] {
        [] => None,
        [t] => Some(t.to),
        ref more => panic!("one breaker call logged {} transitions", more.len()),
    }
}

fn shed_policy_strategy() -> impl Strategy<Value = ShedPolicy> {
    (0u8..3).prop_map(|i| match i {
        0 => ShedPolicy::RejectNewest,
        1 => ShedPolicy::RejectLargest,
        _ => ShedPolicy::DeadlineAware,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Family 1: budget tokens never go negative, and shed jobs are
    /// never partially executed.
    #[test]
    fn prop_budget_never_negative_and_sheds_never_execute(
        seed in any::<u64>(),
        capacity in 0.0f64..6.0,
        queue_cap in 1usize..4,
        policy in shed_policy_strategy(),
        sizes in proptest::collection::vec(1usize..4, 1..8),
        faulty in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let p = params();
        let mut svc = SortService::with_resilience(
            rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(queue_cap, policy),
                retry_budget: RetryBudgetConfig::bounded(capacity),
                ..ResilienceConfig::default()
            },
        );
        let spec = FaultSpec {
            sites: 2,
            max_phase: 6,
            sticky_permille: 300,
            permanent_permille: 0,
            spikes: true,
        };
        for (i, tiles) in sizes.iter().enumerate() {
            let n = tiles * p.tile() + i;
            let job_seed = seed ^ ((i as u64) << 16);
            let input = InputSpec::UniformRandom { seed: job_seed }.generate(n);
            let plan = if faulty[i] {
                FaultPlan::generate(job_seed, &pipeline_shape(n, &p), &spec)
            } else {
                FaultPlan::none()
            };
            // A deadline on every other job gives DeadlineAware victims.
            let deadline = if i % 2 == 1 { Some(1e-12) } else { None };
            svc.submit_with_faults(
                &format!("prop/job-{i}"),
                input,
                SortAlgorithm::CfMerge,
                plan,
                deadline,
            );
            // Tokens must be non-negative at every intermediate point.
            if let Some(t) = svc.budget_tokens() {
                prop_assert!(t >= 0.0, "budget underflow after submit: {t}");
            }
        }
        let outcomes = svc.drain();
        if let Some(t) = svc.budget_tokens() {
            prop_assert!(t >= 0.0, "budget underflow after drain: {t}");
        }
        let mut executed = 0u64;
        for o in &outcomes {
            match &o.result {
                Ok(_) | Err(SortError::DeadlineExceeded { .. }) => executed += 1,
                Err(SortError::Shed { .. } | SortError::Overloaded { .. }) => {
                    // Shed jobs never execute — not even partially.
                    let c = o.counters();
                    prop_assert_eq!(c.faults_injected, 0, "shed job injected faults");
                    prop_assert_eq!(c.retries, 0, "shed job retried blocks");
                    prop_assert_eq!(o.retries_granted, 0, "shed job was granted retries");
                    prop_assert!(o.checkpoints.is_empty(), "shed job took checkpoints");
                }
                Err(e) => prop_assert!(false, "untyped outcome: {e}"),
            }
        }
        prop_assert_eq!(svc.counters().executed, executed);
    }

    /// Family 2: for any outcome/time sequence, the breaker's transition
    /// log is a path in the legal state machine, and every `route` and
    /// `on_outcome` reports exactly the transition it logged: the `to` of
    /// the new entry, or `None` when the log did not grow.
    #[test]
    fn prop_breaker_transitions_are_legal(
        threshold in 1u32..4,
        cooldown in 1e-6f64..1e-2,
        steps in proptest::collection::vec((any::<bool>(), 0.0f64..1e-2), 1..64),
    ) {
        let cfg = BreakerConfig { enabled: true, failure_threshold: threshold, cooldown_s: cooldown };
        let mut b = CircuitBreaker::new();
        let mut now = 0.0f64;
        for (success, dt) in steps {
            let logged = b.transitions().len();
            let (route, entered) = b.route(now);
            prop_assert_eq!(entered, reported_entry(&b, logged), "route misreported");
            // Quarantined runs are not fed back; normal and probe runs are.
            if route != cfmerge::core::resilience::Route::Quarantine {
                let logged = b.transitions().len();
                let entered = b.on_outcome(success, now, &cfg);
                prop_assert_eq!(entered, reported_entry(&b, logged), "on_outcome misreported");
            }
            now += dt;
        }
        let mut state = BreakerState::Closed;
        for t in b.transitions() {
            prop_assert_eq!(t.from, state, "transition log is not contiguous");
            let legal = matches!(
                (t.from, t.to),
                (BreakerState::Closed, BreakerState::Open)
                    | (BreakerState::Open, BreakerState::HalfOpen)
                    | (BreakerState::HalfOpen, BreakerState::Closed)
                    | (BreakerState::HalfOpen, BreakerState::Open)
            );
            prop_assert!(legal, "illegal transition {:?} -> {:?}", t.from, t.to);
            state = t.to;
        }
        prop_assert_eq!(state, b.state());
    }
}

proptest! {
    // The resume family runs three full pipelines per case; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Family 3: checkpoint → resume reproduces the uninterrupted run's
    /// output byte for byte for any kill point and any recoverable
    /// fault plan; on a fault-free plan the modeled cost and counters
    /// are byte-identical too. (With live faults, exact cost equality
    /// is not guaranteed: a corruption that stale scratch data masked
    /// in the original run is detected against the resume's fresh
    /// scratch buffers and priced as an extra retry, and a fallback
    /// restart discards the abandoned pipeline's partial seconds while
    /// a resume keeps the checkpoint's committed seconds.)
    #[test]
    fn prop_checkpoint_resume_is_byte_identical(
        seed in any::<u64>(),
        tiles in 2usize..9,
        extra in 0usize..160,
        kill_after in 0usize..4,
        inject in any::<bool>(),
    ) {
        let p = params();
        let n = tiles * p.tile() + extra;
        let shape = pipeline_shape(n, &p);
        // Kill points past the last pass never interrupt; clamp into range.
        let kill_after = kill_after.min(shape.len() - 1);
        let spec = FaultSpec {
            sites: 2,
            max_phase: 6,
            sticky_permille: 200,
            permanent_permille: 0,
            spikes: true,
        };
        let plan = if inject {
            FaultPlan::generate(seed, &shape, &spec)
        } else {
            FaultPlan::none()
        };
        let input = InputSpec::UniformRandom { seed }.generate(n);
        let cfg = rcfg();

        let whole = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &cfg, &plan)
            .expect("recoverable plan");
        let killed = simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &cfg,
            &plan,
            CheckpointPolicy::kill_after(kill_after),
        );
        let cp = match killed {
            Err(SortError::Interrupted { after_pass, checkpoint }) => {
                prop_assert_eq!(after_pass, kill_after);
                *checkpoint
            }
            other => panic!("expected Interrupted after pass {kill_after}, got {other:?}"),
        };
        let resumed = resume_sort_robust::<u32>(&cp, &cfg, &plan).expect("resume");
        // The output is byte-identical regardless of the fault plan.
        prop_assert_eq!(&resumed.run.output, &whole.run.output, "outputs diverged");
        prop_assert_eq!(resumed.report.counters.unrecovered, 0);
        if !inject {
            // Fault-free resumes are byte-identical in the timing domain
            // too, and never re-execute a verified pass.
            prop_assert_eq!(
                resumed.run.simulated_seconds,
                whole.run.simulated_seconds,
                "modeled seconds diverged"
            );
            prop_assert_eq!(resumed.report.counters, whole.report.counters);
            prop_assert!(
                resumed.run.kernels.len() < whole.run.kernels.len(),
                "resume re-executed verified passes"
            );
        } else {
            // With live faults the resume can only do MORE recovery work
            // than the checkpoint recorded, never less.
            let cp_c = cp.counters;
            let r = resumed.report.counters;
            prop_assert!(r.faults_injected >= cp_c.faults_injected);
            prop_assert!(r.retries >= cp_c.retries);
        }
    }
}
