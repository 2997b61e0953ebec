//! Device-level fault domains for the cluster layer.
//!
//! The block-level `BlockFaults` injector corrupts *blocks inside a
//! kernel launch*; this module models the next blast radius up: a whole
//! simulated device crashing (permanently or with a restart after a
//! cooldown) or running degraded (a latency multiplier on everything it
//! executes). Plans are
//! seeded and deterministic, like [`cfmerge_gpu_sim::fault::FaultPlan`]:
//! the same seed and spec always produce the same events, so a chaos
//! scenario is reproducible down to the bit.
//!
//! Semantics (all in modeled seconds):
//!
//! * **Crash** at `t`: the device stops executing at `t` and never comes
//!   back. The job running at `t` is interrupted (the cluster migrates it
//!   from its last checkpoint, see `docs/ROBUSTNESS.md`); queued jobs
//!   wait to be stolen by surviving devices.
//! * **Crash with restart**: as crash, but the device rejoins at
//!   `t + cooldown_s` with its service state (breaker, budget) intact —
//!   the model's equivalent of a driver reset, not a reprovision.
//! * **Degrade** over `[t, t + duration_s)`: jobs *dispatched* inside the
//!   window take `multiplier ×` their modeled execution time. The
//!   multiplier is sampled at dispatch, so a job that starts inside the
//!   window stays slow for its whole run — deterministic, and honest
//!   about thermal-throttle behavior at this resolution.
//!
//! Crash events that land while the device is already down are ignored
//! when the plan is compiled into a [`DeviceTimeline`].

use cfmerge_gpu_sim::fault::splitmix64;
use cfmerge_json::{Json, ToJson};

/// What happens to the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFaultKind {
    /// Permanent whole-device loss.
    Crash,
    /// Device loss followed by a rejoin after `cooldown_s` modeled
    /// seconds.
    CrashWithRestart {
        /// Downtime before the device rejoins.
        cooldown_s: f64,
    },
    /// Latency multiplier on every job dispatched in the window.
    Degrade {
        /// Execution-time multiplier (≥ 1 to slow down).
        multiplier: f64,
        /// Window length in modeled seconds.
        duration_s: f64,
    },
}

impl DeviceFaultKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DeviceFaultKind::Crash => "crash",
            DeviceFaultKind::CrashWithRestart { .. } => "crash-restart",
            DeviceFaultKind::Degrade { .. } => "degrade",
        }
    }
}

/// One device-level fault at a modeled timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFaultEvent {
    /// When the fault strikes (modeled seconds).
    pub at_s: f64,
    /// Index of the device in the cluster.
    pub device: usize,
    /// What happens.
    pub kind: DeviceFaultKind,
}

/// A deterministic schedule of device-level faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceFaultPlan {
    events: Vec<DeviceFaultEvent>,
}

/// Shape of a generated [`DeviceFaultPlan`] (the analogue of
/// `FaultSpec` one level up).
#[derive(Debug, Clone, Copy)]
pub struct DeviceFaultSpec {
    /// Events to generate.
    pub events: usize,
    /// Of 1000 events, how many are crashes (the rest degrade).
    pub crash_permille: u32,
    /// Of 1000 crashes, how many restart after a cooldown.
    pub restart_permille: u32,
    /// Cooldown for restarting crashes.
    pub restart_cooldown_s: f64,
    /// Multiplier for degrade windows.
    pub degrade_multiplier: f64,
    /// Length of degrade windows.
    pub degrade_duration_s: f64,
}

impl Default for DeviceFaultSpec {
    /// A balanced mix on the microsecond job scale: three events, half
    /// crashes (half of those restarting), half 4× degrade windows.
    fn default() -> Self {
        Self {
            events: 3,
            crash_permille: 500,
            restart_permille: 500,
            restart_cooldown_s: 5e-5,
            degrade_multiplier: 4.0,
            degrade_duration_s: 5e-5,
        }
    }
}

impl DeviceFaultPlan {
    /// No device-level faults (the default; fault-free cluster runs are
    /// bit-identical to the single-device service).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from explicit events, stably sorted by time (simultaneous
    /// events keep their given order).
    #[must_use]
    pub fn from_events(mut events: Vec<DeviceFaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Self { events }
    }

    /// Deterministically generate a plan for a `devices`-wide cluster
    /// over the modeled horizon `[0, horizon_s)`. Same seed, same plan.
    #[must_use]
    pub fn generate(seed: u64, devices: usize, horizon_s: f64, spec: &DeviceFaultSpec) -> Self {
        let mut state = seed ^ 0xD0DE_ADDE;
        let mut events = Vec::with_capacity(spec.events);
        if devices == 0 {
            return Self::default();
        }
        for _ in 0..spec.events {
            let device = (splitmix64(&mut state) % devices as u64) as usize;
            // Time as a dyadic fraction of the horizon: exact in f64, so
            // the plan is reproducible across platforms.
            let frac = (splitmix64(&mut state) % (1 << 20)) as f64 / (1u64 << 20) as f64;
            let at_s = frac * horizon_s;
            let kind = if splitmix64(&mut state) % 1000 < u64::from(spec.crash_permille) {
                if splitmix64(&mut state) % 1000 < u64::from(spec.restart_permille) {
                    DeviceFaultKind::CrashWithRestart { cooldown_s: spec.restart_cooldown_s }
                } else {
                    DeviceFaultKind::Crash
                }
            } else {
                DeviceFaultKind::Degrade {
                    multiplier: spec.degrade_multiplier,
                    duration_s: spec.degrade_duration_s,
                }
            };
            events.push(DeviceFaultEvent { at_s, device, kind });
        }
        Self::from_events(events)
    }

    /// The events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[DeviceFaultEvent] {
        &self.events
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl ToJson for DeviceFaultPlan {
    fn to_json(&self) -> Json {
        Json::arr(self.events.iter().map(|e| {
            let mut fields = vec![
                ("at_s", Json::from(e.at_s)),
                ("device", Json::from(e.device)),
                ("kind", Json::from(e.kind.label())),
            ];
            match e.kind {
                DeviceFaultKind::CrashWithRestart { cooldown_s } => {
                    fields.push(("cooldown_s", Json::from(cooldown_s)));
                }
                DeviceFaultKind::Degrade { multiplier, duration_s } => {
                    fields.push(("multiplier", Json::from(multiplier)));
                    fields.push(("duration_s", Json::from(duration_s)));
                }
                DeviceFaultKind::Crash => {}
            }
            Json::obj(fields)
        }))
    }
}

/// One device's compiled fault schedule: normalized downtime intervals
/// (crashes while already down are dropped) plus degrade windows. The
/// whole timeline is static — the cluster never needs to cancel events,
/// because every future crash is known at dispatch time.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    /// Downtime intervals `(start, end)`, non-overlapping, sorted;
    /// `end = None` means the device never comes back.
    downtimes: Vec<(f64, Option<f64>)>,
    /// Degrade windows `(start, end, multiplier)`.
    degrades: Vec<(f64, f64, f64)>,
}

impl DeviceTimeline {
    /// Compile the plan's events for one device.
    #[must_use]
    pub fn compile(plan: &DeviceFaultPlan, device: usize) -> Self {
        let mut downtimes: Vec<(f64, Option<f64>)> = Vec::new();
        let mut degrades = Vec::new();
        for e in plan.events() {
            if e.device != device {
                continue;
            }
            match e.kind {
                DeviceFaultKind::Degrade { multiplier, duration_s } => {
                    degrades.push((e.at_s, e.at_s + duration_s, multiplier));
                }
                DeviceFaultKind::Crash | DeviceFaultKind::CrashWithRestart { .. } => {
                    // Ignore a crash that lands while the device is
                    // already down (events are time-sorted, so only the
                    // last interval can still cover `at_s`).
                    if let Some((_, end)) = downtimes.last() {
                        match end {
                            None => continue,
                            Some(end) if e.at_s < *end => continue,
                            Some(_) => {}
                        }
                    }
                    let end = match e.kind {
                        DeviceFaultKind::CrashWithRestart { cooldown_s } => {
                            Some(e.at_s + cooldown_s)
                        }
                        _ => None,
                    };
                    downtimes.push((e.at_s, end));
                }
            }
        }
        Self { downtimes, degrades }
    }

    /// Downtime intervals `(crash_s, restart_s)` for this device.
    #[must_use]
    pub fn downtimes(&self) -> &[(f64, Option<f64>)] {
        &self.downtimes
    }

    /// The next crash strictly after `t` (the device is assumed up at
    /// `t`); returns `(crash_s, restart_s)`.
    #[must_use]
    pub fn next_crash_after(&self, t: f64) -> Option<(f64, Option<f64>)> {
        self.downtimes.iter().find(|(start, _)| *start > t).copied()
    }

    /// Whether the device is down at `t` (crash times are inclusive,
    /// restart times exclusive: a device crashing at `t` cannot accept a
    /// dispatch at `t`).
    #[must_use]
    pub fn is_down(&self, t: f64) -> bool {
        self.downtimes.iter().any(|(start, end)| *start <= t && end.is_none_or(|e| t < e))
    }

    /// Earliest time ≥ `t` at which the device is up, or `None` if it
    /// is down for good by then.
    #[must_use]
    pub fn up_at_or_after(&self, t: f64) -> Option<f64> {
        let mut at = t;
        for (start, end) in &self.downtimes {
            if *start <= at {
                match end {
                    None => return None,
                    Some(e) if at < *e => at = *e,
                    Some(_) => {}
                }
            }
        }
        Some(at)
    }

    /// Latency multiplier for a job dispatched at `t` (product of all
    /// active degrade windows; 1.0 when healthy).
    #[must_use]
    pub fn multiplier_at(&self, t: f64) -> f64 {
        let mut m = 1.0;
        for (start, end, mult) in &self.degrades {
            if *start <= t && t < *end {
                m *= mult;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(at_s: f64, device: usize) -> DeviceFaultEvent {
        DeviceFaultEvent { at_s, device, kind: DeviceFaultKind::Crash }
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = DeviceFaultSpec {
            events: 16,
            crash_permille: 600,
            restart_permille: 500,
            restart_cooldown_s: 1e-5,
            degrade_multiplier: 3.0,
            degrade_duration_s: 2e-5,
        };
        let a = DeviceFaultPlan::generate(42, 4, 1e-3, &spec);
        let b = DeviceFaultPlan::generate(42, 4, 1e-3, &spec);
        assert_eq!(a, b);
        assert_ne!(a, DeviceFaultPlan::generate(43, 4, 1e-3, &spec));
        assert!(a.events().windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn timeline_normalizes_downtimes() {
        let plan = DeviceFaultPlan::from_events(vec![
            DeviceFaultEvent {
                at_s: 1.0,
                device: 0,
                kind: DeviceFaultKind::CrashWithRestart { cooldown_s: 2.0 },
            },
            crash(2.0, 0), // inside the first downtime: dropped
            crash(5.0, 0), // permanent
            crash(9.0, 0), // after permanent loss: dropped
            crash(0.5, 1), // other device
        ]);
        let tl = DeviceTimeline::compile(&plan, 0);
        assert_eq!(tl.downtimes(), &[(1.0, Some(3.0)), (5.0, None)]);
        assert!(!tl.is_down(0.5));
        assert!(tl.is_down(1.0), "crash time is inclusive");
        assert!(tl.is_down(2.5));
        assert!(!tl.is_down(3.0), "restart time is exclusive");
        assert!(tl.is_down(7.0));
        assert_eq!(tl.next_crash_after(0.0), Some((1.0, Some(3.0))));
        assert_eq!(tl.next_crash_after(3.0), Some((5.0, None)));
        assert_eq!(tl.next_crash_after(5.0), None);
        assert_eq!(tl.up_at_or_after(1.5), Some(3.0));
        assert_eq!(tl.up_at_or_after(6.0), None);
        assert_eq!(tl.up_at_or_after(0.0), Some(0.0));
    }

    #[test]
    fn degrade_windows_multiply() {
        let plan = DeviceFaultPlan::from_events(vec![
            DeviceFaultEvent {
                at_s: 1.0,
                device: 0,
                kind: DeviceFaultKind::Degrade { multiplier: 2.0, duration_s: 4.0 },
            },
            DeviceFaultEvent {
                at_s: 3.0,
                device: 0,
                kind: DeviceFaultKind::Degrade { multiplier: 3.0, duration_s: 1.0 },
            },
        ]);
        let tl = DeviceTimeline::compile(&plan, 0);
        assert_eq!(tl.multiplier_at(0.5), 1.0);
        assert_eq!(tl.multiplier_at(2.0), 2.0);
        assert_eq!(tl.multiplier_at(3.5), 6.0);
        assert_eq!(tl.multiplier_at(4.5), 2.0);
        assert_eq!(tl.multiplier_at(5.0), 1.0);
    }
}
