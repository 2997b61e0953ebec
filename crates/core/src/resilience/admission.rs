//! Admission control: a bounded work queue with typed load shedding.
//!
//! This module is the one admission core both front doors call:
//! [`SortService`](crate::resilience::SortService) and
//! [`ClusterService`](crate::resilience::ClusterService) hand every
//! submission to the same decision, which is the only code that
//! validates a deadline, checks capacity, picks shed victims and builds
//! the typed refusals. The callers differ only in the data they pass
//! (what counts as queue depth, which queued jobs may be evicted, and
//! which config prices a deadline) and in how they apply an eviction.
//!
//! A queue has an optional capacity; when a submission finds it full,
//! the configured [`ShedPolicy`] decides who pays:
//!
//! * [`ShedPolicy::RejectNewest`] — the incoming job is refused with
//!   [`SortError::Overloaded`].
//! * [`ShedPolicy::RejectLargest`] — the largest queued job (by key
//!   count; ties to the newest) is evicted with a typed
//!   [`SortError::Shed`] if it is at least as large as the incoming job;
//!   otherwise the incoming job is refused.
//! * [`ShedPolicy::DeadlineAware`] — queued jobs whose deadlines cannot
//!   be met given the queue's modeled cost ahead of them (estimated by
//!   [`estimate_sort_seconds`]) are shed first; if nothing is
//!   unreachable, the incoming job is refused.
//!
//! Shed jobs never execute — not even partially — which
//! `tests/resilience_proptests.rs` asserts.

use crate::recovery::pipeline_shape;
use crate::resilience::service::ServiceCounters;
use crate::sort::pipeline::SortConfig;
use crate::sort::SortError;

/// Who gets shed when the queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the incoming job (classic bounded queue).
    #[default]
    RejectNewest,
    /// Evict the largest queued job in favor of the incoming one.
    RejectLargest,
    /// Shed queued jobs that cannot meet their deadline anyway.
    DeadlineAware,
}

impl ShedPolicy {
    /// Stable label for artifacts and typed errors.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::RejectLargest => "reject-largest",
            ShedPolicy::DeadlineAware => "deadline-aware",
        }
    }
}

/// Queue bound and shed policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum admitted (pending, non-shed, non-cancelled) jobs; `None`
    /// (the default) is the legacy unbounded queue.
    pub capacity: Option<usize>,
    /// Policy when a submission finds the queue full.
    pub policy: ShedPolicy,
}

impl AdmissionConfig {
    /// A bounded queue of `capacity` jobs under `policy`.
    #[must_use]
    pub fn bounded(capacity: usize, policy: ShedPolicy) -> Self {
        Self { capacity: Some(capacity), policy }
    }
}

/// Cheap deterministic estimate of a sort's modeled seconds: per launch,
/// the fixed launch overhead plus one read and one write of the padded
/// buffer at the device's full-occupancy effective bandwidth. Used only
/// for deadline-aware admission (the real run is priced exactly by the
/// timing model); it deliberately ignores conflicts, retries, and
/// occupancy, so it is a *lower* bound — a job it calls unreachable
/// truly is.
#[must_use]
pub fn estimate_sort_seconds(n: usize, cfg: &SortConfig) -> f64 {
    let shape = pipeline_shape(n, &cfg.params);
    if shape.is_empty() {
        return 0.0;
    }
    let n_pad = shape[0] as usize * cfg.params.tile();
    let bytes_per_pass = (n_pad * 2 * std::mem::size_of::<u32>()) as f64;
    let bw = cfg.device.mem_bandwidth * cfg.timing.bw_efficiency_full;
    shape.len() as f64 * (cfg.timing.launch_overhead_s + bytes_per_pass / bw)
}

/// The admission decision for one incoming job of `n` keys.
///
/// * `depth` — jobs that count against the capacity right now;
/// * `queued` — the jobs a full queue may evict, as `(id, keys,
///   deadline)` in id order;
/// * `pricing` — the config [`estimate_sort_seconds`] prices deadlines
///   with.
///
/// Returns the incoming job's typed refusal, or the evicted jobs with
/// their typed errors (empty: admitted with nothing evicted). Tallies
/// `submitted`, `admitted`, `invalid_deadline`, `shed_overload`,
/// `shed_largest` and `shed_deadline` into `counters`.
pub(crate) fn admit<I: Copy>(
    config: &AdmissionConfig,
    depth: usize,
    n: usize,
    deadline_s: Option<f64>,
    queued: &[(I, usize, Option<f64>)],
    pricing: &SortConfig,
    counters: &mut ServiceCounters,
) -> Result<Vec<(I, SortError)>, SortError> {
    counters.submitted += 1;
    // Deadline sanity comes first: a NaN or negative deadline is a
    // caller bug, not load.
    if let Some(d) = deadline_s.filter(|d| !d.is_finite() || *d < 0.0) {
        counters.invalid_deadline += 1;
        return Err(SortError::InvalidDeadline { deadline_s: d });
    }
    let evicted = match config.capacity {
        Some(capacity) if depth >= capacity => {
            shed(config.policy, capacity, n, queued, pricing, counters)?
        }
        _ => Vec::new(),
    };
    counters.admitted += 1;
    Ok(evicted)
}

/// The queue is full: pick the victims `policy` names, or refuse the
/// incoming job when it names none.
fn shed<I: Copy>(
    policy: ShedPolicy,
    capacity: usize,
    n: usize,
    queued: &[(I, usize, Option<f64>)],
    pricing: &SortConfig,
    counters: &mut ServiceCounters,
) -> Result<Vec<(I, SortError)>, SortError> {
    let victims: Vec<(I, SortError)> = match policy {
        ShedPolicy::RejectNewest => Vec::new(),
        // The largest queued job at least as large as the incoming one;
        // ties to the newest.
        ShedPolicy::RejectLargest => queued
            .iter()
            .enumerate()
            .filter(|(_, &(_, k, _))| k >= n)
            .max_by_key(|&(i, &(_, k, _))| (k, i))
            .map(|(_, &(id, k, _))| {
                let reason = format!(
                    "evicted ({k} keys) for a newer {n}-key job with the queue at capacity \
                     {capacity}"
                );
                (id, SortError::Shed { policy: policy.label(), reason })
            })
            .into_iter()
            .collect(),
        // Queued jobs that provably cannot meet their own deadline: the
        // optimistic lower-bound estimate already exceeds it, so running
        // them would only burn modeled time ahead of feasible work.
        ShedPolicy::DeadlineAware => queued
            .iter()
            .filter_map(|&(id, k, deadline)| {
                let d = deadline?;
                let floor = estimate_sort_seconds(k, pricing);
                (floor > d).then(|| {
                    let reason = format!(
                        "deadline {d:.3e}s unreachable: optimistic lower bound is {floor:.3e}s"
                    );
                    (id, SortError::Shed { policy: policy.label(), reason })
                })
            })
            .collect(),
    };
    if victims.is_empty() {
        counters.shed_overload += 1;
        return Err(SortError::Overloaded { capacity });
    }
    match policy {
        ShedPolicy::RejectLargest => counters.shed_largest += victims.len() as u64,
        _ => counters.shed_deadline += victims.len() as u64,
    }
    Ok(victims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SortParams;

    #[test]
    fn estimate_is_monotone_and_cheap_lower_bound() {
        let cfg = SortConfig::with_params(SortParams::new(5, 32));
        assert_eq!(estimate_sort_seconds(0, &cfg), 0.0);
        let small = estimate_sort_seconds(160, &cfg);
        let big = estimate_sort_seconds(16 * 160, &cfg);
        assert!(small > 0.0);
        assert!(big > small);
        // Lower bound vs the exact pipeline price.
        let input = crate::inputs::InputSpec::UniformRandom { seed: 1 }.generate(4 * 160);
        let run = crate::sort::pipeline::simulate_sort(
            &input,
            crate::sort::pipeline::SortAlgorithm::CfMerge,
            &cfg,
        );
        assert!(estimate_sort_seconds(input.len(), &cfg) <= run.simulated_seconds);
    }

    #[test]
    fn admit_decides_every_policy_case() {
        struct Case {
            name: &'static str,
            config: AdmissionConfig,
            depth: usize,
            n: usize,
            deadline_s: Option<f64>,
            queued: Vec<(u64, usize, Option<f64>)>,
            /// Evicted `(id, error string)`, or the incoming job's refusal.
            want: Result<Vec<(u64, String)>, String>,
            delta: ServiceCounters,
        }
        let cfg = SortConfig::with_params(SortParams::new(5, 32));
        // The lower bound for 640 keys at E=5, u=32 is 9.062e-6 s, far
        // above a femtosecond deadline.
        let unreachable = |d: f64| {
            format!(
                "job shed by deadline-aware policy: deadline {d:.3e}s unreachable: optimistic \
                 lower bound is 9.062e-6s"
            )
        };
        let full = |policy| AdmissionConfig::bounded(2, policy);
        let overloaded = || Err("service overloaded: queue at capacity 2".to_string());
        let counts = |submitted, admitted| ServiceCounters {
            submitted,
            admitted,
            ..ServiceCounters::default()
        };
        let cases = vec![
            Case {
                name: "under capacity admits",
                config: full(ShedPolicy::RejectNewest),
                depth: 1,
                n: 160,
                deadline_s: None,
                queued: vec![(0, 160, None)],
                want: Ok(vec![]),
                delta: counts(1, 1),
            },
            Case {
                name: "invalid deadline is refused before capacity",
                config: AdmissionConfig::default(),
                depth: 0,
                n: 160,
                deadline_s: Some(-1.0),
                queued: vec![],
                want: Err("invalid deadline: -1 modeled seconds".to_string()),
                delta: ServiceCounters { invalid_deadline: 1, ..counts(1, 0) },
            },
            Case {
                name: "reject-newest refuses the incoming job",
                config: full(ShedPolicy::RejectNewest),
                depth: 2,
                n: 160,
                deadline_s: None,
                queued: vec![(0, 160, None), (1, 160, None)],
                want: overloaded(),
                delta: ServiceCounters { shed_overload: 1, ..counts(1, 0) },
            },
            Case {
                name: "reject-largest breaks a size tie toward the newest",
                config: full(ShedPolicy::RejectLargest),
                depth: 2,
                n: 160,
                deadline_s: None,
                queued: vec![(4, 320, None), (7, 320, None)],
                want: Ok(vec![(
                    7,
                    "job shed by reject-largest policy: evicted (320 keys) for a newer 160-key \
                     job with the queue at capacity 2"
                        .to_string(),
                )]),
                delta: ServiceCounters { shed_largest: 1, ..counts(1, 1) },
            },
            Case {
                name: "reject-largest refuses a job larger than everything queued",
                config: full(ShedPolicy::RejectLargest),
                depth: 2,
                n: 320,
                deadline_s: None,
                queued: vec![(0, 160, None), (1, 160, None)],
                want: overloaded(),
                delta: ServiceCounters { shed_overload: 1, ..counts(1, 0) },
            },
            Case {
                name: "deadline-aware sheds every unreachable job in id order",
                config: full(ShedPolicy::DeadlineAware),
                depth: 3,
                n: 160,
                deadline_s: None,
                queued: vec![(0, 640, Some(1e-15)), (1, 640, None), (2, 640, Some(2e-15))],
                want: Ok(vec![(0, unreachable(1e-15)), (2, unreachable(2e-15))]),
                delta: ServiceCounters { shed_deadline: 2, ..counts(1, 1) },
            },
            Case {
                name: "deadline-aware refuses when every deadline is reachable",
                config: full(ShedPolicy::DeadlineAware),
                depth: 2,
                n: 160,
                deadline_s: Some(1e-15),
                queued: vec![(0, 640, Some(1.0)), (1, 640, None)],
                want: overloaded(),
                delta: ServiceCounters { shed_overload: 1, ..counts(1, 0) },
            },
        ];
        for case in cases {
            let mut counters = ServiceCounters::default();
            let got = admit(
                &case.config,
                case.depth,
                case.n,
                case.deadline_s,
                &case.queued,
                &cfg,
                &mut counters,
            )
            .map(|evicted| evicted.into_iter().map(|(id, e)| (id, e.to_string())).collect())
            .map_err(|e| e.to_string());
            assert_eq!(got, case.want, "{}", case.name);
            assert_eq!(counters, case.delta, "{}", case.name);
        }
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ShedPolicy::RejectNewest.label(), "reject-newest");
        assert_eq!(ShedPolicy::RejectLargest.label(), "reject-largest");
        assert_eq!(ShedPolicy::DeadlineAware.label(), "deadline-aware");
    }
}
