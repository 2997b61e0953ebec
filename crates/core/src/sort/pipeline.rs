//! The plain sort entry points — block sort, then `log₂(n/uE)` merge
//! passes, with per-launch profiling and modeled timing — plus the
//! configuration, run and report types every sort shares.
//!
//! [`simulate_sort`] and its `try_`, `_traced` and `_checked` variants
//! all run the one pipeline driver in [`crate::recovery`] under a fixed
//! policy: no fault plan, no retries, no fallback, no hedging, no
//! checkpoints. Every block's output is still verified; a block that
//! fails verification is a simulator bug and surfaces as
//! [`SortError::UnrecoverableFault`]. The driver pads inputs of any size
//! to a power-of-two number of tiles with `K::MAX_SENTINEL` keys (the
//! paper's sweep sizes `n = 2^i·E` are already tile-aligned for its `u`;
//! padding keeps the driver total). Blocks are independent; the vendored
//! rayon shim runs each pass's blocks in order on the calling thread, and
//! the driver merges the per-block profiles.

use super::blocksort::MergeStrategy;
use super::error::SortError;
use super::key::SortKey;
use crate::params::SortParams;
use crate::recovery::run_plain;
use cfmerge_gpu_sim::check::{Finding, Sanitizer};
use cfmerge_gpu_sim::device::Device;
use cfmerge_gpu_sim::observer::Passive;
use cfmerge_gpu_sim::occupancy::{mergesort_regs_estimate, BlockResources};
use cfmerge_gpu_sim::profiler::KernelProfile;
use cfmerge_gpu_sim::timing::{LaunchConfig, TimeBreakdown, TimingModel};
use cfmerge_gpu_sim::trace::{BlockTracer, KernelTrace, SortTrace};
use cfmerge_json::json_struct;

/// Which pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgorithm {
    /// The Thrust-style baseline (serial merge in shared memory).
    ThrustMergesort,
    /// CF-Merge (permuted layout + dual subsequence gather).
    CfMerge,
}

impl SortAlgorithm {
    /// How this pipeline's kernels move keys from shared memory to
    /// registers.
    pub(crate) fn strategy(self) -> MergeStrategy {
        match self {
            SortAlgorithm::ThrustMergesort => MergeStrategy::DirectSerial,
            SortAlgorithm::CfMerge => MergeStrategy::Gather,
        }
    }

    /// Label for report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SortAlgorithm::ThrustMergesort => "thrust",
            SortAlgorithm::CfMerge => "cf-merge",
        }
    }
}

/// Full configuration of a simulated sort.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Software parameters `(E, u)`.
    pub params: SortParams,
    /// Simulated device.
    pub device: Device,
    /// Timing-model constants.
    pub timing: TimingModel,
    /// Record every shared/global access (exact conflict counts). Turn
    /// off for correctness-only runs at very large `n`.
    pub count_accesses: bool,
}

impl SortConfig {
    /// The paper's preferred parameters on the RTX 2080 Ti model.
    #[must_use]
    pub fn paper_e15_u512() -> Self {
        Self {
            params: SortParams::e15_u512(),
            device: Device::rtx2080ti(),
            timing: TimingModel::rtx2080ti_like(),
            count_accesses: true,
        }
    }

    /// Thrust's shipped parameters on the RTX 2080 Ti model.
    #[must_use]
    pub fn paper_e17_u256() -> Self {
        Self {
            params: SortParams::e17_u256(),
            device: Device::rtx2080ti(),
            timing: TimingModel::rtx2080ti_like(),
            count_accesses: true,
        }
    }

    /// Same device/timing, different `(E, u)`.
    #[must_use]
    pub fn with_params(params: SortParams) -> Self {
        Self {
            params,
            device: Device::rtx2080ti(),
            timing: TimingModel::rtx2080ti_like(),
            count_accesses: true,
        }
    }

    pub(crate) fn launch(&self, blocks: u64) -> LaunchConfig {
        LaunchConfig {
            blocks,
            resources: BlockResources {
                threads: self.params.u as u32,
                shared_bytes: self.params.shared_bytes(),
                regs_per_thread: mergesort_regs_estimate(self.params.e as u32),
            },
        }
    }
}

/// One priced kernel launch of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name (`blocksort`, `merge-pass-0`, …).
    pub name: String,
    /// Grid size.
    pub blocks: u64,
    /// Aggregated per-phase counters for the launch.
    pub profile: KernelProfile,
    /// Modeled time breakdown.
    pub time: TimeBreakdown,
}

/// Result of a simulated sort.
#[derive(Debug, Clone, PartialEq)]
pub struct SortRun<K = u32> {
    /// The sorted keys (length = input length).
    pub output: Vec<K>,
    /// Aggregated profile over all launches.
    pub profile: KernelProfile,
    /// Total modeled runtime in seconds.
    pub simulated_seconds: f64,
    /// Per-launch detail.
    pub kernels: Vec<KernelReport>,
    /// Input size.
    pub n: usize,
}

impl<K> SortRun<K> {
    /// Throughput in elements/µs — the y-axis of Figures 5 and 6. An
    /// empty run launches nothing and takes 0 modeled seconds; its
    /// throughput is `0.0`.
    ///
    /// # Panics
    /// Panics if a non-empty run's modeled runtime is non-positive —
    /// impossible for a real run (every launch pays fixed overhead), so a
    /// failure here means the run was constructed by hand with a bogus
    /// duration.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        crate::metrics::elements_per_us(self.n, self.simulated_seconds)
            .expect("a simulated run always has positive modeled runtime")
    }

    /// Mean bank conflicts per merge/gather round — the Karsin et al.
    /// statistic.
    #[must_use]
    pub fn conflicts_per_merge_round(&self) -> f64 {
        self.profile.merge_degree_hist.mean_conflicts_per_round()
    }
}

/// A sort run together with its recorded execution trace.
#[derive(Debug, Clone)]
pub struct TracedSortRun<K = u32> {
    /// The run itself: output, profile, modeled timing.
    pub run: SortRun<K>,
    /// The structured trace: per-kernel, per-block timelines with
    /// conflict rounds (export with [`SortTrace::perfetto_json`]).
    pub trace: SortTrace,
}

/// Sort `input` on the simulated GPU with the chosen pipeline. Any
/// [`SortKey`] type sorts; the input slice fixes it (`u64` keys back the
/// stable sort-by-key API in [`super::pairs`]).
///
/// # Panics
/// Panics with the [`SortError`] that [`try_simulate_sort`] would
/// return: an invalid or unlaunchable configuration (see
/// [`validate_sort_config`](super::error::validate_sort_config)), or a
/// block failing verification (a simulator bug).
#[must_use]
pub fn simulate_sort<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> SortRun<K> {
    or_panic(try_simulate_sort(input, algo, config))
}

/// Non-panicking variant of [`simulate_sort`]: the configuration checks
/// and the per-block verification come back as a typed [`SortError`]
/// instead of a panic.
pub fn try_simulate_sort<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> Result<SortRun<K>, SortError> {
    Ok(run_plain(input, algo, config, &|| Passive)?.0)
}

/// The panicking entry points' contract: panic with the typed error.
fn or_panic<T>(result: Result<T, SortError>) -> T {
    result.unwrap_or_else(|err| panic!("{err}"))
}

/// [`simulate_sort`] with full structured tracing: every thread block of
/// every launch records its phase timeline and conflicted rounds into a
/// [`SortTrace`] (see `cfmerge_gpu_sim::trace`).
///
/// # Panics
/// Same conditions as [`simulate_sort`].
#[must_use]
pub fn simulate_sort_traced<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> TracedSortRun<K> {
    let banks = config.device.bank_model();
    let (run, observers) =
        or_panic(run_plain(input, algo, config, &move || BlockTracer::new(banks)));
    let kernels = run
        .kernels
        .iter()
        .zip(observers)
        .map(|(k, blocks)| KernelTrace {
            name: k.name.clone(),
            grid_blocks: k.blocks,
            seconds: k.time.seconds,
            blocks,
        })
        .collect();
    let trace = SortTrace {
        label: format!("{}/E={},u={}/n={}", algo.label(), config.params.e, config.params.u, run.n),
        num_banks: config.device.warp_width,
        kernels,
    };
    TracedSortRun { run, trace }
}

/// One sanitizer finding, located to the launch and block that raised it.
#[derive(Debug, Clone)]
pub struct KernelFinding {
    /// Kernel launch name (`blocksort`, `merge-pass-0`, …).
    pub kernel: String,
    /// Block index within the launch.
    pub block: usize,
    /// The finding itself (hazard kind, phase, lane, address).
    pub finding: Finding,
}

impl std::fmt::Display for KernelFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} block {}: {}", self.kernel, self.block, self.finding)
    }
}

/// A sort run executed under the [`Sanitizer`]: the run itself plus every
/// hazard finding raised by any block of any launch.
#[derive(Debug, Clone)]
pub struct CheckedSortRun<K = u32> {
    /// The run: output, profile, modeled timing (identical to an
    /// unchecked run unless a finding suppressed a faulty access).
    pub run: SortRun<K>,
    /// All findings, in launch order then block order.
    pub findings: Vec<KernelFinding>,
    /// Findings dropped beyond the per-block cap (see
    /// [`Sanitizer`]); nonzero means `findings` is a truncated view.
    pub dropped: u64,
}

impl<K> CheckedSortRun<K> {
    /// `true` when no block raised any hazard finding.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.dropped == 0
    }

    /// Multi-line forensic report of all findings (empty string if clean).
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        if self.dropped > 0 {
            let _ =
                writeln!(out, "... and {} further findings dropped (per-block cap)", self.dropped);
        }
        out
    }
}

/// [`simulate_sort`] executed under the dynamic [`Sanitizer`]: every
/// shared/global access of every block is checked for data races,
/// out-of-bounds, uninitialized reads, and lock-step divergence. The
/// shipping pipelines are expected to come back clean; see
/// `docs/ANALYSIS.md`.
///
/// # Panics
/// Same conditions as [`simulate_sort`].
#[must_use]
pub fn simulate_sort_checked<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
) -> CheckedSortRun<K> {
    let (run, observers) = or_panic(run_plain(input, algo, config, &Sanitizer::new));
    let mut findings = Vec::new();
    let mut dropped = 0u64;
    for (kernel, blocks) in run.kernels.iter().zip(observers) {
        for (block, ck) in blocks.into_iter().enumerate() {
            dropped += ck.dropped;
            findings.extend(ck.into_findings().into_iter().map(|finding| KernelFinding {
                kernel: kernel.name.clone(),
                block,
                finding,
            }));
        }
    }
    CheckedSortRun { run, findings, dropped }
}

json_struct! { KernelReport { name, blocks, profile, time } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use cfmerge_gpu_sim::profiler::PhaseClass;

    fn cfg(e: usize, u: usize) -> SortConfig {
        SortConfig::with_params(SortParams::new(e, u))
    }

    #[test]
    fn sorts_correctly_all_shapes_and_algorithms() {
        for spec in [
            InputSpec::UniformRandom { seed: 1 },
            InputSpec::Sorted,
            InputSpec::Reversed,
            InputSpec::FewDistinct { seed: 2, distinct: 5 },
            InputSpec::NearlySorted { seed: 3, swaps: 50 },
        ] {
            for n in [1usize, 100, 7680, 7681, 30720, 100_000] {
                let input = spec.generate(n);
                for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                    let c = cfg(15, 512);
                    let run = simulate_sort(&input, algo, &c);
                    let mut expect = input.clone();
                    expect.sort_unstable();
                    assert_eq!(run.output, expect, "{} n={n} {:?}", spec.label(), algo);
                    assert_eq!(run.n, n);
                }
            }
        }
    }

    #[test]
    fn cf_merge_has_zero_merge_conflicts_end_to_end() {
        // Coprime E (the variant the paper implements): zero conflicts in
        // the gather across the whole sort, block sort included.
        for (e, u) in [(15usize, 512usize), (17, 256)] {
            let input = InputSpec::UniformRandom { seed: 9 }.generate(4 * e * u);
            let run = simulate_sort(&input, SortAlgorithm::CfMerge, &cfg(e, u));
            assert_eq!(run.profile.merge_bank_conflicts(), 0, "E={e} u={u}");
            assert!(run.output.is_sorted());
        }
    }

    #[test]
    fn cf_merge_noncoprime_global_passes_are_conflict_free() {
        // For d > 1 the full ρ layout applies to the global merge passes
        // (the block sort's small pairs use the reversal-only layout and
        // may conflict — see DESIGN.md). The per-kernel reports let us
        // check exactly that.
        let (e, u) = (16usize, 256usize);
        let input = InputSpec::UniformRandom { seed: 10 }.generate(4 * e * u);
        let run = simulate_sort(&input, SortAlgorithm::CfMerge, &cfg(e, u));
        assert!(run.output.is_sorted());
        for k in run.kernels.iter().filter(|k| k.name.starts_with("merge-pass")) {
            assert_eq!(
                k.profile.merge_bank_conflicts(),
                0,
                "{}: global-pass gather must be conflict-free even at E=16",
                k.name
            );
        }
    }

    #[test]
    fn thrust_random_has_small_conflicts_per_round() {
        // Karsin et al.: 2–3 conflicts per merge step on random inputs.
        let c = cfg(15, 512);
        let input = InputSpec::UniformRandom { seed: 4 }.generate(8 * 7680);
        let run = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &c);
        let cpr = run.conflicts_per_merge_round();
        assert!(cpr > 0.5 && cpr < 6.0, "conflicts/round = {cpr}");
    }

    #[test]
    fn worst_case_inflates_thrust_but_not_cf() {
        let c = cfg(15, 512);
        let n = 8 * 7680;
        let worst = InputSpec::WorstCase { w: 32, e: 15, u: 512 }.generate(n);
        let random = InputSpec::UniformRandom { seed: 5 }.generate(n);

        let t_worst = simulate_sort(&worst, SortAlgorithm::ThrustMergesort, &c);
        let t_rand = simulate_sort(&random, SortAlgorithm::ThrustMergesort, &c);
        let cf_worst = simulate_sort(&worst, SortAlgorithm::CfMerge, &c);

        assert!(t_worst.output.is_sorted());
        let wc = t_worst.profile.phase(PhaseClass::Merge).bank_conflicts();
        let rc = t_rand.profile.phase(PhaseClass::Merge).bank_conflicts();
        assert!(wc > 2 * rc.max(1), "worst-case Merge conflicts {wc} vs random {rc}");
        assert_eq!(cf_worst.profile.merge_bank_conflicts(), 0);
        assert!(
            t_worst.simulated_seconds > t_rand.simulated_seconds,
            "worst case must be slower for the baseline"
        );
        assert!(
            cf_worst.simulated_seconds < t_worst.simulated_seconds,
            "CF must beat the baseline on worst-case inputs"
        );
    }

    #[test]
    fn kernel_reports_cover_all_passes() {
        let c = cfg(15, 512);
        let input = InputSpec::UniformRandom { seed: 6 }.generate(8 * 7680);
        let run = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &c);
        // 8 tiles → blocksort + 3 merge passes.
        assert_eq!(run.kernels.len(), 4);
        assert_eq!(run.kernels[0].name, "blocksort");
        assert_eq!(run.kernels[3].name, "merge-pass-2");
        assert!(run.simulated_seconds > 0.0);
        assert!(run.throughput() > 0.0);
    }

    #[test]
    fn traced_and_checked_runs_match_the_plain_run() {
        // Observers watch the one driver; they never change what it
        // computes.
        let (e, u) = (15usize, 64usize);
        let c = cfg(e, u);
        for spec in [InputSpec::UniformRandom { seed: 12 }, InputSpec::WorstCase { w: 32, e, u }] {
            let input = spec.generate(4 * e * u);
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let plain = simulate_sort(&input, algo, &c);
                let traced = simulate_sort_traced(&input, algo, &c);
                let checked = simulate_sort_checked(&input, algo, &c);
                assert_eq!(traced.run, plain, "{algo:?} {}", spec.label());
                assert_eq!(checked.run, plain, "{algo:?} {}", spec.label());
                assert!(checked.is_clean(), "{}", checked.report());
                let blocks: Vec<usize> =
                    traced.trace.kernels.iter().map(|k| k.blocks.len()).collect();
                let expect: Vec<usize> = plain.kernels.iter().map(|k| k.blocks as usize).collect();
                assert_eq!(blocks, expect, "one tracer per block of every launch");
            }
        }
    }

    #[test]
    fn empty_input() {
        let run = simulate_sort::<u32>(&[], SortAlgorithm::CfMerge, &cfg(15, 512));
        assert!(run.output.is_empty());
        assert_eq!(run.simulated_seconds, 0.0);
    }

    #[test]
    fn counting_off_matches_output() {
        let input = InputSpec::UniformRandom { seed: 7 }.generate(2 * 7680);
        let mut c = cfg(15, 512);
        let with = simulate_sort(&input, SortAlgorithm::CfMerge, &c);
        c.count_accesses = false;
        let without = simulate_sort(&input, SortAlgorithm::CfMerge, &c);
        assert_eq!(with.output, without.output);
        assert_eq!(without.profile.total().shared_requests(), 0);
    }
}
