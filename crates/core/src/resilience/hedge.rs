//! Straggler hedging policy and counters (Dean & Barroso's hedged
//! requests, adapted to modeled GPU launches).
//!
//! After a launch's blocks complete, the robust driver compares each
//! block's injected latency-spike cycles against a percentile threshold
//! over *that launch's* completed blocks. Blocks above the threshold get
//! a priced duplicate execution (an auxiliary launch — no host overhead,
//! see `TimingModel::auxiliary_launch_time`), and the block's latency
//! contribution becomes the faster of the two attempts. Fault-free runs
//! have zero spike cycles everywhere, so no hedge ever launches and the
//! run stays bit-identical to the unhedged driver.

use cfmerge_json::json_struct;

/// A block is a straggler when its spike cycles exceed this percentile
/// of the launch's per-block spike cycles (exclusive — a launch whose
/// blocks are all equally slow has no stragglers).
const STRAGGLER_PERCENTILE: usize = 95;
/// Stragglers below this absolute spike size are ignored; keeps the
/// policy from hedging noise.
const MIN_SPIKE_CYCLES: u64 = 1_000;

/// When the robust driver hedges a straggling block: one whose spike
/// cycles exceed the launch's 95th percentile and 1000 cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HedgeConfig {
    /// Master switch; `false` (the default) disables all hedging
    /// bookkeeping.
    pub enabled: bool,
}

impl HedgeConfig {
    /// Hedging switched on.
    #[must_use]
    pub fn on() -> Self {
        Self { enabled: true }
    }

    /// Indices of the blocks to hedge, given each block's accumulated
    /// spike cycles. Deterministic: a pure function of the latency
    /// vector.
    #[must_use]
    pub fn stragglers(&self, spike_cycles: &[u64]) -> Vec<usize> {
        if !self.enabled || spike_cycles.is_empty() {
            return Vec::new();
        }
        let mut sorted = spike_cycles.to_vec();
        sorted.sort_unstable();
        let idx = (STRAGGLER_PERCENTILE * (sorted.len() - 1)) / 100;
        let threshold = sorted[idx];
        spike_cycles
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > threshold && c >= MIN_SPIKE_CYCLES)
            .map(|(i, _)| i)
            .collect()
    }
}

/// What hedging did in one run (folds into the `RecoveryReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HedgeCounters {
    /// Hedged duplicates launched.
    pub launched: u64,
    /// Hedges whose duplicate finished faster than the straggler (the
    /// duplicate's result was taken).
    pub won: u64,
    /// Straggler spike cycles avoided by winning hedges.
    pub cycles_saved: u64,
    /// Modeled seconds spent executing hedged duplicates.
    pub hedge_seconds: f64,
}

impl HedgeCounters {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &HedgeCounters) {
        self.launched += other.launched;
        self.won += other.won;
        self.cycles_saved += other.cycles_saved;
        self.hedge_seconds += other.hedge_seconds;
    }
}

json_struct! { HedgeCounters { launched, won, cycles_saved, hedge_seconds } }

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::{FromJson, ToJson};

    #[test]
    fn disabled_policy_never_hedges() {
        let cfg = HedgeConfig::default();
        assert!(cfg.stragglers(&[0, 0, 1_000_000]).is_empty());
    }

    #[test]
    fn fault_free_launch_has_no_stragglers() {
        let cfg = HedgeConfig::on();
        assert!(cfg.stragglers(&[0, 0, 0, 0]).is_empty());
        assert!(cfg.stragglers(&[]).is_empty());
    }

    #[test]
    fn outlier_above_percentile_and_floor_is_hedged() {
        let cfg = HedgeConfig::on();
        // One outlier among 21 blocks: the p95 threshold is the 20th
        // smallest value (index 95·20/100 = 19), a quiet block.
        let mut lat = vec![0u64; 20];
        lat.push(500_000);
        assert_eq!(cfg.stragglers(&lat), vec![20]);
        // Two outliers: the threshold lands on the smaller one, and
        // only the larger is above it.
        lat[0] = 400_000;
        assert_eq!(cfg.stragglers(&lat), vec![20]);
        // Below the absolute floor: ignored even though it's the p100.
        let mut small = vec![0u64; 20];
        small.push(MIN_SPIKE_CYCLES - 1);
        assert!(cfg.stragglers(&small).is_empty());
    }

    #[test]
    fn uniformly_slow_launch_is_not_hedged() {
        // Every block equally slow: threshold equals every value, and the
        // comparison is exclusive — hedging a uniformly slow launch would
        // just double the work.
        let cfg = HedgeConfig::on();
        assert!(cfg.stragglers(&[50_000, 50_000, 50_000]).is_empty());
    }

    #[test]
    fn counters_merge_and_roundtrip() {
        let mut a = HedgeCounters { launched: 2, won: 1, cycles_saved: 10, hedge_seconds: 1e-6 };
        let b = HedgeCounters { launched: 1, won: 1, cycles_saved: 5, hedge_seconds: 2e-6 };
        a.merge(&b);
        assert_eq!(a.launched, 3);
        assert_eq!(a.won, 2);
        assert_eq!(a.cycles_saved, 15);
        let back = HedgeCounters::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
    }
}
