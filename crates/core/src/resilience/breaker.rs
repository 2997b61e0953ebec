//! Per-(pipeline, launch-config) circuit breakers (Nygard's *Release
//! It!* pattern), driven by the recovery-counter stream and scheduled in
//! modeled time.
//!
//! A breaker watches the outcomes of jobs routed at its launch config.
//! `failure_threshold` consecutive failures (an unrecoverable fault, or
//! a run rescued only by the Thrust fallback) open it; while open, jobs
//! are quarantined onto the known-good config
//! ([`SortParams::known_good_default`](crate::params::SortParams::known_good_default))
//! instead of the poisoned one — or, when a tuning ladder is installed
//! ([`crate::tuning`]), onto the next certified rung below the tripped
//! one. After `cooldown_s` modeled seconds the breaker
//! half-opens and the next job probes the original config: success
//! closes the breaker, failure re-opens it for another cooldown. All
//! transitions are logged with their modeled timestamps, and the legal
//! transition set is exactly
//! `closed→open→half-open→{closed, open}` — property-tested in
//! `tests/resilience_proptests.rs`.

use cfmerge_json::{Json, ToJson};

/// Breaker policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Master switch; `false` (the default) routes everything normally.
    pub enabled: bool,
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// Modeled seconds the breaker stays open before half-opening for a
    /// probe.
    pub cooldown_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { enabled: false, failure_threshold: 3, cooldown_s: 5e-3 }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: jobs route to their requested config.
    Closed,
    /// Tripped: jobs are quarantined onto the known-good config until
    /// the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next job probes the requested config.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for artifacts.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One logged state change, stamped with the modeled service clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Modeled service time of the change.
    pub at_s: f64,
}

impl ToJson for BreakerTransition {
    fn to_json(&self) -> Json {
        Json::obj([
            ("from", Json::from(self.from.label())),
            ("to", Json::from(self.to.label())),
            ("at_s", Json::from(self.at_s)),
        ])
    }
}

/// Where the breaker routes the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Requested config, outcome feeds the breaker.
    Normal,
    /// Substituted known-good config, outcome does *not* feed the
    /// breaker (a quarantined run says nothing about the poisoned
    /// config).
    Quarantine,
    /// Requested config as a half-open probe; the outcome decides
    /// closed vs re-open.
    Probe,
}

/// One breaker instance (the service keeps one per (pipeline, E, u)).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until_s: f64,
    transitions: Vec<BreakerTransition>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_s: 0.0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every transition so far, in order, with modeled timestamps.
    #[must_use]
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Times the breaker has opened (first trips and probe failures).
    #[must_use]
    pub fn opens(&self) -> u64 {
        self.transitions.iter().filter(|t| t.to == BreakerState::Open).count() as u64
    }

    /// Log and enter `to`; returns it, for the callers to report.
    fn transition(&mut self, to: BreakerState, at_s: f64) -> Option<BreakerState> {
        self.transitions.push(BreakerTransition { from: self.state, to, at_s });
        self.state = to;
        Some(to)
    }

    /// Route the next job at modeled time `now_s`, and report the state
    /// the breaker entered on the way (`None` when it stayed put). May
    /// move an open breaker to half-open when the cooldown has elapsed.
    pub fn route(&mut self, now_s: f64) -> (Route, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed => (Route::Normal, None),
            BreakerState::Open if now_s >= self.open_until_s => {
                (Route::Probe, self.transition(BreakerState::HalfOpen, now_s))
            }
            BreakerState::Open => (Route::Quarantine, None),
            BreakerState::HalfOpen => (Route::Probe, None),
        }
    }

    /// Feed the outcome of a `Normal` or `Probe` run that finished at
    /// modeled time `now_s`, and report the state the breaker entered
    /// (`None` when it stayed put). Quarantined runs must not be fed.
    pub fn on_outcome(
        &mut self,
        success: bool,
        now_s: f64,
        config: &BreakerConfig,
    ) -> Option<BreakerState> {
        match self.state {
            BreakerState::Closed if success => {
                self.consecutive_failures = 0;
                None
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures < config.failure_threshold {
                    return None;
                }
                self.open_until_s = now_s + config.cooldown_s;
                self.transition(BreakerState::Open, now_s)
            }
            BreakerState::HalfOpen if success => {
                self.consecutive_failures = 0;
                self.transition(BreakerState::Closed, now_s)
            }
            BreakerState::HalfOpen => {
                self.consecutive_failures = config.failure_threshold;
                self.open_until_s = now_s + config.cooldown_s;
                self.transition(BreakerState::Open, now_s)
            }
            // An open breaker receives no outcomes (everything routed
            // while open was quarantined); tolerate the call.
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig { enabled: true, failure_threshold: 2, cooldown_s: 1.0 }
    }

    #[test]
    fn trips_after_threshold_then_quarantines() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        assert_eq!(b.route(0.0), (Route::Normal, None));
        assert_eq!(b.on_outcome(false, 0.1, &c), None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.route(0.1), (Route::Normal, None));
        assert_eq!(b.on_outcome(false, 0.2, &c), Some(BreakerState::Open));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.route(0.3), (Route::Quarantine, None), "cooldown not elapsed");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        b.on_outcome(false, 0.0, &c);
        b.on_outcome(true, 0.1, &c);
        b.on_outcome(false, 0.2, &c);
        assert_eq!(b.state(), BreakerState::Closed, "streak broken by success");
    }

    #[test]
    fn probe_after_cooldown_closes_or_reopens() {
        let c = cfg();
        let mut b = CircuitBreaker::new();
        b.on_outcome(false, 0.0, &c);
        b.on_outcome(false, 0.0, &c); // open until 1.0
        assert_eq!(b.route(1.0), (Route::Probe, Some(BreakerState::HalfOpen)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe fails: re-open until 2.1.
        assert_eq!(b.on_outcome(false, 1.1, &c), Some(BreakerState::Open));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.route(2.0), (Route::Quarantine, None));
        assert_eq!(b.route(2.2), (Route::Probe, Some(BreakerState::HalfOpen)));
        assert_eq!(b.route(2.2), (Route::Probe, None), "already half-open");
        assert_eq!(b.on_outcome(true, 2.3, &c), Some(BreakerState::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 2);
        // The transition log is exactly the legal chain.
        let log: Vec<(BreakerState, BreakerState)> =
            b.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            log,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }
}
