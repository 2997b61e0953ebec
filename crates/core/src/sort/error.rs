//! Typed error and degradation taxonomy for the sort pipelines.
//!
//! A caller that can react to failure uses
//! [`try_simulate_sort`](crate::sort::pipeline::try_simulate_sort) and the
//! recovery driver ([`crate::recovery`]), which return [`SortError`]
//! instead of panicking; [`validate_sort_config`] is the one
//! configuration check behind every entry point. [`Degradation`]
//! describes the non-fatal compromises the recovery driver makes (and
//! always reports — never silently).

use crate::sort::pipeline::{SortAlgorithm, SortConfig};
use crate::verify::VerifyFailure;
use cfmerge_gpu_sim::banks::MAX_BANKS;
use cfmerge_json::{Json, ToJson};

/// Why a sort could not produce a verified result.
#[derive(Debug, Clone, PartialEq)]
pub enum SortError {
    /// The `(E, u)` configuration violates the model's standing
    /// assumptions (`u` not a positive multiple of `w`, `E > w`, `u` not
    /// a power of two).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The configuration's resource footprint cannot launch on the
    /// device (occupancy calculator verdict).
    Unlaunchable {
        /// Device name.
        device: String,
        /// The occupancy calculator's reason.
        why: &'static str,
    },
    /// A block kept failing verification after every permitted retry —
    /// and, if fallback was allowed, failed on the fallback pipeline too
    /// (a permanent hardware fault in the model).
    UnrecoverableFault {
        /// Kernel launch name (`blocksort`, `merge-pass-0`, …).
        kernel: String,
        /// Block index within the launch.
        block: usize,
        /// Executions attempted for this block (first try + retries).
        attempts: u32,
        /// The verification failure observed on the last attempt.
        failure: VerifyFailure,
    },
    /// The job finished but its modeled time (including retries and
    /// backoff) exceeded the caller's deadline.
    DeadlineExceeded {
        /// Deadline in modeled seconds.
        deadline_s: f64,
        /// Modeled seconds actually needed.
        needed_s: f64,
    },
    /// The job was cancelled before it ran.
    Cancelled,
    /// Admission control rejected the job outright: the service's bounded
    /// queue was full and the shed policy chose not to evict anything.
    Overloaded {
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// Admission control shed this job to protect the rest of the queue
    /// (evicted as the largest, or deadline-unreachable given the queue's
    /// modeled cost). Shed jobs never execute — not even partially.
    Shed {
        /// The shed policy that fired (`reject-largest`,
        /// `deadline-aware`).
        policy: &'static str,
        /// Why this particular job was chosen.
        reason: String,
    },
    /// The submitted deadline is not a usable modeled time (negative,
    /// NaN, or infinite) — rejected at submission instead of underflowing
    /// deadline arithmetic at t = 0.
    InvalidDeadline {
        /// The deadline as submitted.
        deadline_s: f64,
    },
    /// The run was interrupted after a completed merge pass (the modeled
    /// kill in a chaos kill-and-resume scenario). The checkpoint carries
    /// everything needed to resume without redoing verified passes.
    Interrupted {
        /// Merge passes completed before the interrupt (0 = interrupted
        /// right after the block sort).
        after_pass: usize,
        /// Verified state to hand to `resume_sort_robust`.
        checkpoint: Box<crate::resilience::checkpoint::SortCheckpoint>,
    },
    /// A checkpoint failed validation on resume (version skew, shape
    /// mismatch, corrupted state, or checksum mismatch).
    CheckpointInvalid {
        /// Human-readable reason.
        reason: String,
    },
    /// The whole simulated device holding the job was lost and the
    /// cluster had no failover path (migration disabled, or every device
    /// permanently down). Distinct from [`SortError::Interrupted`]: no
    /// usable continuation exists.
    DeviceLost {
        /// Index of the lost device in the cluster.
        device: usize,
        /// What was lost with it.
        reason: String,
    },
    /// Checkpoint migration off a lost device was attempted but could
    /// not complete (no surviving compatible device, or the per-job
    /// migration cap was exhausted).
    MigrationFailed {
        /// Device the job was running on when it was interrupted.
        from_device: usize,
        /// Why no migration target worked.
        reason: String,
    },
    /// The tuning ladder had no certified launch configuration for the
    /// request, so the service failed closed rather than run an
    /// uncertified config (no ladder for the pipeline/device, an empty
    /// ladder, a corrupt table, or every rung's breaker open).
    Uncertified {
        /// Pipeline label the job asked for.
        algo: String,
        /// Device the service runs on.
        device: String,
        /// Why the ladder had nothing certified to offer.
        why: String,
    },
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SortError::Unlaunchable { device, why } => {
                write!(f, "configuration cannot launch on {device}: {why}")
            }
            SortError::UnrecoverableFault { kernel, block, attempts, failure } => write!(
                f,
                "unrecoverable fault: {kernel} block {block} failed verification on all \
                 {attempts} attempts (last: {failure})"
            ),
            SortError::DeadlineExceeded { deadline_s, needed_s } => {
                write!(f, "deadline exceeded: needed {needed_s:.6}s > deadline {deadline_s:.6}s")
            }
            SortError::Cancelled => write!(f, "job cancelled"),
            SortError::Overloaded { capacity } => {
                write!(f, "service overloaded: queue at capacity {capacity}")
            }
            SortError::Shed { policy, reason } => {
                write!(f, "job shed by {policy} policy: {reason}")
            }
            SortError::InvalidDeadline { deadline_s } => {
                write!(f, "invalid deadline: {deadline_s} modeled seconds")
            }
            SortError::Interrupted { after_pass, .. } => {
                write!(f, "run interrupted after merge pass {after_pass}; checkpoint available")
            }
            SortError::CheckpointInvalid { reason } => {
                write!(f, "checkpoint failed validation: {reason}")
            }
            SortError::DeviceLost { device, reason } => {
                write!(f, "device {device} lost: {reason}")
            }
            SortError::MigrationFailed { from_device, reason } => {
                write!(f, "migration off device {from_device} failed: {reason}")
            }
            SortError::Uncertified { algo, device, why } => {
                write!(f, "no certified launch config for {algo} on {device}: {why}")
            }
        }
    }
}

impl std::error::Error for SortError {}

impl ToJson for SortError {
    fn to_json(&self) -> Json {
        match self {
            SortError::InvalidConfig { reason } => Json::obj([
                ("kind", Json::from("invalid-config")),
                ("reason", Json::from(reason.as_str())),
            ]),
            SortError::Unlaunchable { device, why } => Json::obj([
                ("kind", Json::from("unlaunchable")),
                ("device", Json::from(device.as_str())),
                ("why", Json::from(*why)),
            ]),
            SortError::UnrecoverableFault { kernel, block, attempts, failure } => Json::obj([
                ("kind", Json::from("unrecoverable-fault")),
                ("kernel", Json::from(kernel.as_str())),
                ("block", Json::from(*block)),
                ("attempts", Json::from(*attempts)),
                ("failure", Json::from(failure.to_string().as_str())),
            ]),
            SortError::DeadlineExceeded { deadline_s, needed_s } => Json::obj([
                ("kind", Json::from("deadline-exceeded")),
                ("deadline_s", Json::from(*deadline_s)),
                ("needed_s", Json::from(*needed_s)),
            ]),
            SortError::Cancelled => Json::obj([("kind", Json::from("cancelled"))]),
            SortError::Overloaded { capacity } => {
                Json::obj([("kind", Json::from("overloaded")), ("capacity", Json::from(*capacity))])
            }
            SortError::Shed { policy, reason } => Json::obj([
                ("kind", Json::from("shed")),
                ("policy", Json::from(*policy)),
                ("reason", Json::from(reason.as_str())),
            ]),
            SortError::InvalidDeadline { deadline_s } => Json::obj([
                ("kind", Json::from("invalid-deadline")),
                ("deadline_s", Json::from(*deadline_s)),
            ]),
            SortError::Interrupted { after_pass, checkpoint } => Json::obj([
                ("kind", Json::from("interrupted")),
                ("after_pass", Json::from(*after_pass)),
                ("checkpoint", checkpoint.to_json()),
            ]),
            SortError::CheckpointInvalid { reason } => Json::obj([
                ("kind", Json::from("checkpoint-invalid")),
                ("reason", Json::from(reason.as_str())),
            ]),
            SortError::DeviceLost { device, reason } => Json::obj([
                ("kind", Json::from("device-lost")),
                ("device", Json::from(*device)),
                ("reason", Json::from(reason.as_str())),
            ]),
            SortError::MigrationFailed { from_device, reason } => Json::obj([
                ("kind", Json::from("migration-failed")),
                ("from_device", Json::from(*from_device)),
                ("reason", Json::from(reason.as_str())),
            ]),
            SortError::Uncertified { algo, device, why } => Json::obj([
                ("kind", Json::from("uncertified")),
                ("algo", Json::from(algo.as_str())),
                ("device", Json::from(device.as_str())),
                ("why", Json::from(why.as_str())),
            ]),
        }
    }
}

/// A non-fatal compromise the recovery driver made to complete a job.
/// Degradations are always reported alongside the result — never applied
/// silently.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// The requested pipeline was abandoned for the fallback pipeline.
    Fallback {
        /// Pipeline the caller asked for.
        from: SortAlgorithm,
        /// Pipeline that produced the result.
        to: SortAlgorithm,
        /// Why the driver degraded.
        reason: String,
    },
    /// The requested `(E, u)` could not launch; the fallback ran with
    /// substitute parameters.
    ParamsSubstituted {
        /// Requested `(E, u)`.
        from: (usize, usize),
        /// Parameters actually used.
        to: (usize, usize),
    },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::Fallback { from, to, reason } => {
                write!(f, "fell back from {} to {}: {reason}", from.label(), to.label())
            }
            Degradation::ParamsSubstituted { from, to } => write!(
                f,
                "substituted parameters (E={}, u={}) for requested (E={}, u={})",
                to.0, to.1, from.0, from.1
            ),
        }
    }
}

impl ToJson for Degradation {
    fn to_json(&self) -> Json {
        match self {
            Degradation::Fallback { from, to, reason } => Json::obj([
                ("kind", Json::from("fallback")),
                ("from", Json::from(from.label())),
                ("to", Json::from(to.label())),
                ("reason", Json::from(reason.as_str())),
            ]),
            Degradation::ParamsSubstituted { from, to } => Json::obj([
                ("kind", Json::from("params-substituted")),
                ("from_e", Json::from(from.0)),
                ("from_u", Json::from(from.1)),
                ("to_e", Json::from(to.0)),
                ("to_u", Json::from(to.1)),
            ]),
        }
    }
}

/// The one configuration check of every sort and merge entry point: the
/// model's standing `(E, u, w)` assumptions, the simulator's warp-width
/// limit, and device launchability. The `try_*` entry points return its
/// error; `simulate_sort`/`simulate_merge` panic with it.
pub fn validate_sort_config(config: &SortConfig) -> Result<(), SortError> {
    let w = config.device.warp_width as usize;
    let (e, u) = (config.params.e, config.params.u);
    if w > MAX_BANKS {
        return Err(SortError::InvalidConfig {
            reason: format!("warp width w={w} exceeds the simulator's {MAX_BANKS}-lane limit"),
        });
    }
    if w == 0 || !u.is_multiple_of(w) {
        return Err(SortError::InvalidConfig {
            reason: format!("u={u} must be a positive multiple of w={w}"),
        });
    }
    if e == 0 || e > w {
        return Err(SortError::InvalidConfig {
            reason: format!("E={e} must satisfy 1 ≤ E ≤ w={w}"),
        });
    }
    if !u.is_power_of_two() {
        return Err(SortError::InvalidConfig {
            reason: format!("blocksort pairing requires a power-of-two u (got {u})"),
        });
    }
    if let Err(why) =
        cfmerge_gpu_sim::occupancy::occupancy(&config.device, &config.launch(1).resources)
    {
        return Err(SortError::Unlaunchable { device: config.device.name.clone(), why });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SortParams;

    #[test]
    fn valid_presets_pass() {
        assert_eq!(validate_sort_config(&SortConfig::paper_e15_u512()), Ok(()));
        assert_eq!(validate_sort_config(&SortConfig::paper_e17_u256()), Ok(()));
    }

    #[test]
    fn bad_shapes_are_typed() {
        // u not a multiple of w = 32.
        let c = SortConfig::with_params(SortParams::new(5, 48));
        assert!(matches!(validate_sort_config(&c), Err(SortError::InvalidConfig { .. })));
        // E > w.
        let c = SortConfig::with_params(SortParams::new(33, 64));
        assert!(matches!(validate_sort_config(&c), Err(SortError::InvalidConfig { .. })));
        // u not a power of two.
        let c = SortConfig::with_params(SortParams::new(5, 96));
        assert!(matches!(validate_sort_config(&c), Err(SortError::InvalidConfig { .. })));
    }

    #[test]
    fn oversized_block_is_unlaunchable() {
        // 2048 threads per block exceeds the device's 1024-thread limit.
        let c = SortConfig::with_params(SortParams::new(15, 2048));
        match validate_sort_config(&c) {
            Err(SortError::Unlaunchable { device, .. }) => {
                assert!(!device.is_empty());
            }
            other => panic!("expected Unlaunchable, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_and_serialize() {
        let e = SortError::DeadlineExceeded { deadline_s: 0.001, needed_s: 0.002 };
        assert!(e.to_string().contains("deadline"));
        assert!(e.to_json().req("kind").is_ok());
        let d = Degradation::Fallback {
            from: SortAlgorithm::CfMerge,
            to: SortAlgorithm::ThrustMergesort,
            reason: "repeated block failure".into(),
        };
        assert!(d.to_string().contains("cf-merge"));
        assert!(d.to_json().req("kind").is_ok());
    }
}
