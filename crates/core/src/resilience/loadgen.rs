//! Open-loop load generation for the cluster service.
//!
//! Seeded, deterministic arrival processes over modeled time: the same
//! [`LoadGenConfig`] always yields the same job stream (arrival times,
//! tenants, priorities, input data), so a traffic scenario can be
//! pinned in CI. Arrival jitter uses only rational arithmetic (no
//! transcendental functions), keeping the stream bit-identical across
//! platforms; the diurnal curve is a triangle wave for the same reason.
//!
//! The flood shape generates Theorem-8 worst-case inputs
//! ([`InputSpec::worst_case`]) — the paper's own adversarial workload
//! turned into an overload scenario.

use cfmerge_gpu_sim::fault::splitmix64;

use crate::inputs::InputSpec;
use crate::params::SortParams;
use crate::sort::pipeline::SortAlgorithm;

/// Priority class of a cluster job. Dispatch picks strictly by class
/// first ([`Priority::rank`]), then per-tenant fairness inside a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work.
    #[default]
    Interactive,
    /// Throughput-oriented background work.
    Batch,
    /// Runs only when nothing else wants the device.
    BestEffort,
}

impl Priority {
    /// Dispatch rank: lower runs first.
    #[must_use]
    pub fn rank(&self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        }
    }
}

/// Shape of the arrival process (rates are modeled-time Hz — jobs here
/// run in microseconds, so realistic rates are 1e4–1e6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficShape {
    /// Constant rate with deterministic per-gap jitter.
    Steady {
        /// Mean arrival rate.
        rate_hz: f64,
    },
    /// Rate swings between `base_hz` and `peak_hz` on a triangle wave of
    /// the given period.
    Diurnal {
        /// Off-peak arrival rate.
        base_hz: f64,
        /// Peak arrival rate.
        peak_hz: f64,
        /// Full wave period in modeled seconds.
        period_s: f64,
    },
    /// Steady background plus simultaneous bursts every `burst_every_s`.
    Bursty {
        /// Background arrival rate.
        base_hz: f64,
        /// Burst spacing in modeled seconds.
        burst_every_s: f64,
        /// Jobs per burst (all arrive at the same instant).
        burst_size: usize,
    },
    /// A flood of Theorem-8 worst-case inputs at a fixed rate.
    WorstCaseFlood {
        /// Arrival rate of the flood.
        rate_hz: f64,
    },
}

impl TrafficShape {
    /// Short label for scenario names and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TrafficShape::Steady { .. } => "steady",
            TrafficShape::Diurnal { .. } => "diurnal",
            TrafficShape::Bursty { .. } => "bursty",
            TrafficShape::WorstCaseFlood { .. } => "flood",
        }
    }
}

/// One generated job, ready to submit to the cluster.
#[derive(Debug, Clone)]
pub struct ClusterRequest {
    /// Arrival time in modeled seconds.
    pub at_s: f64,
    /// Submission label.
    pub label: String,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class.
    pub priority: Priority,
    /// Keys to sort.
    pub input: Vec<u32>,
    /// Pipeline to run.
    pub algo: SortAlgorithm,
    /// Optional deadline on the job's modeled execution time.
    pub deadline_s: Option<f64>,
}

/// Deterministic load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Arrival process.
    pub shape: TrafficShape,
    /// Total jobs to generate.
    pub jobs: usize,
    /// Tenants to draw from (round-robin seeded assignment).
    pub tenants: Vec<String>,
    /// Stream seed: same seed, same stream.
    pub seed: u64,
    /// Sort parameters (sets the tile size and the worst-case shape).
    pub params: SortParams,
    /// Minimum job size in tiles.
    pub min_tiles: usize,
    /// Maximum job size in tiles (inclusive).
    pub max_tiles: usize,
    /// Deadline applied to every [`Priority::Interactive`] job.
    pub interactive_deadline_s: Option<f64>,
}

impl LoadGenConfig {
    /// A small default stream: steady traffic, two tenants, 2–3-tile
    /// jobs.
    #[must_use]
    pub fn steady(seed: u64, jobs: usize, rate_hz: f64) -> Self {
        Self {
            shape: TrafficShape::Steady { rate_hz },
            jobs,
            tenants: vec!["tenant-a".into(), "tenant-b".into()],
            seed,
            params: SortParams::new(5, 32),
            min_tiles: 2,
            max_tiles: 3,
            interactive_deadline_s: None,
        }
    }

    /// Generate the job stream, sorted by arrival time (stable: jobs in
    /// the same burst keep generation order).
    #[must_use]
    pub fn generate(&self) -> Vec<ClusterRequest> {
        let mut state = self.seed ^ 0x10AD_6E4E;
        let mut requests = Vec::with_capacity(self.jobs);
        let mut t = 0.0f64;
        let mut burst_k = 0u64; // next burst index for Bursty
        for i in 0..self.jobs {
            let at_s = match self.shape {
                TrafficShape::Steady { rate_hz } => {
                    t += jittered_gap(&mut state, rate_hz);
                    t
                }
                TrafficShape::Diurnal { base_hz, peak_hz, period_s } => {
                    // Triangle wave: 0 at phase 0 and 1, 1 at phase 0.5.
                    let phase = (t / period_s).fract();
                    let tri = 1.0 - (2.0 * phase - 1.0).abs();
                    let rate = base_hz + (peak_hz - base_hz) * tri;
                    t += jittered_gap(&mut state, rate);
                    t
                }
                TrafficShape::Bursty { base_hz, burst_every_s, burst_size } => {
                    // Fill each burst completely before resuming the
                    // steady background between bursts.
                    let in_burst = i % (burst_size + 4) < burst_size;
                    if in_burst {
                        let burst_t = (burst_k as f64) * burst_every_s;
                        if i % (burst_size + 4) == burst_size - 1 {
                            burst_k += 1;
                        }
                        t = t.max(burst_t);
                        burst_t
                    } else {
                        t += jittered_gap(&mut state, base_hz);
                        t
                    }
                }
                TrafficShape::WorstCaseFlood { rate_hz } => {
                    t += 1.0 / rate_hz;
                    t
                }
            };

            let tenant = self.tenants
                [(splitmix64(&mut state) % self.tenants.len().max(1) as u64) as usize]
                .clone();
            let priority = match splitmix64(&mut state) % 10 {
                0..=4 => Priority::Interactive,
                5..=7 => Priority::Batch,
                _ => Priority::BestEffort,
            };
            let tile = self.params.tile();
            let tiles = self.min_tiles
                + (splitmix64(&mut state) % (self.max_tiles - self.min_tiles + 1) as u64) as usize;
            let tail = (splitmix64(&mut state) % 8) as usize;
            // The Theorem-8 builder needs n = tile · 2^k exactly: round
            // the tile count down to a power of two and drop the tail.
            let n = match self.shape {
                TrafficShape::WorstCaseFlood { .. } => {
                    tile << (usize::BITS - 1 - tiles.leading_zeros())
                }
                _ => tiles * tile + tail,
            };
            let input_seed = splitmix64(&mut state);
            let spec = match self.shape {
                TrafficShape::WorstCaseFlood { .. } => InputSpec::worst_case(self.params),
                _ => match splitmix64(&mut state) % 4 {
                    0 => InputSpec::UniformRandom { seed: input_seed },
                    1 => InputSpec::FewDistinct { seed: input_seed, distinct: 7 },
                    2 => InputSpec::NearlySorted { seed: input_seed, swaps: 9 },
                    _ => InputSpec::RandomPermutation { seed: input_seed },
                },
            };
            let deadline_s = match priority {
                Priority::Interactive => self.interactive_deadline_s,
                _ => None,
            };
            requests.push(ClusterRequest {
                at_s,
                label: format!("{}/{}/job-{i}", self.shape.label(), tenant),
                tenant,
                priority,
                input: spec.generate(n),
                algo: SortAlgorithm::CfMerge,
                deadline_s,
            });
        }
        requests.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        requests
    }
}

/// A deterministic arrival gap around `1 / rate`: uniform jitter in
/// `[0.5, 1.5) / rate` from a dyadic fraction (exact in f64).
fn jittered_gap(state: &mut u64, rate_hz: f64) -> f64 {
    let u = (splitmix64(state) % (1 << 20)) as f64 / (1u64 << 20) as f64;
    (0.5 + u) / rate_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_time_sorted() {
        for shape in [
            TrafficShape::Steady { rate_hz: 5e4 },
            TrafficShape::Diurnal { base_hz: 2e4, peak_hz: 1e5, period_s: 1e-3 },
            TrafficShape::Bursty { base_hz: 2e4, burst_every_s: 2e-4, burst_size: 4 },
            TrafficShape::WorstCaseFlood { rate_hz: 1e5 },
        ] {
            let cfg = LoadGenConfig { shape, ..LoadGenConfig::steady(7, 24, 5e4) };
            let a = cfg.generate();
            let b = cfg.generate();
            assert_eq!(a.len(), 24);
            assert!(a.iter().zip(&b).all(|(x, y)| {
                x.at_s == y.at_s
                    && x.input == y.input
                    && x.tenant == y.tenant
                    && x.priority == y.priority
            }));
            assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s), "{shape:?} not sorted");
            assert!(a.iter().all(|r| r.at_s.is_finite() && r.at_s >= 0.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = LoadGenConfig::steady(1, 16, 5e4).generate();
        let b = LoadGenConfig::steady(2, 16, 5e4).generate();
        assert!(a.iter().zip(&b).any(|(x, y)| x.at_s != y.at_s || x.input != y.input));
    }

    #[test]
    fn flood_generates_worst_case_inputs() {
        let cfg = LoadGenConfig {
            shape: TrafficShape::WorstCaseFlood { rate_hz: 1e5 },
            ..LoadGenConfig::steady(3, 4, 1e5)
        };
        let reqs = cfg.generate();
        // Worst-case inputs are a deterministic function of (params, n):
        // two same-size flood jobs carry identical adversarial inputs.
        let by_n: Vec<_> = reqs.iter().map(|r| (r.input.len(), &r.input)).collect();
        for (n, input) in &by_n {
            let expect = InputSpec::worst_case(cfg.params).generate(*n);
            assert_eq!(**input, expect);
        }
    }

    #[test]
    fn bursts_arrive_simultaneously() {
        let cfg = LoadGenConfig {
            shape: TrafficShape::Bursty { base_hz: 1e4, burst_every_s: 3e-4, burst_size: 5 },
            ..LoadGenConfig::steady(11, 27, 1e4)
        };
        let reqs = cfg.generate();
        // The first burst lands at t = 0: at least `burst_size` jobs
        // share that timestamp exactly.
        let at_zero = reqs.iter().filter(|r| r.at_s == 0.0).count();
        assert!(at_zero >= 5, "expected a simultaneous burst at t=0, got {at_zero}");
    }
}
