//! # cfmerge-gpu-sim — warp-synchronous GPU shared-memory simulator
//!
//! A deterministic simulator of the GPU memory features that matter to
//! *Eliminating Bank Conflicts in GPU Mergesort* (Berney & Sitchinava,
//! SPAA 2025):
//!
//! * [`banks`] — the `w`-bank shared-memory model with **exact** conflict
//!   accounting (the Distributed Memory Machine of Section 2; broadcast
//!   handled per footnote 4).
//! * [`block`] — a lock-step thread-block engine: kernels are sequences of
//!   barrier-delimited phases; every lane's accesses are traced, aligned
//!   into warp rounds, and costed. A built-in race detector panics on
//!   missing barriers.
//! * [`observer`] — the one hook a block is watched through: tracing,
//!   hazard checking and fault injection are all [`Observer`]s, and the
//!   zero-sized default [`Passive`] compiles away.
//! * [`global`] — 32-byte-sector coalescing for global memory.
//! * [`occupancy`](mod@occupancy) — the theoretical occupancy calculator behind the
//!   paper's `E=15,u=512` (100%) vs `E=17,u=256` (75%) discussion.
//! * [`timing`] — a documented, once-calibrated cost model turning
//!   profiled counts into simulated runtimes.
//! * [`profiler`] — `nvprof`-style per-phase counters
//!   (`shared_ld_transactions`, bank conflicts, sectors, …).
//! * [`device`] — device presets (RTX 2080 Ti-like; tiny teaching devices
//!   for the paper's `w = 12`/`w = 9`/`w = 6` figures).
//! * [`stats`] — conflict-degree histograms.
//! * [`trace`] — structured tracing: the [`trace::BlockTracer`] observer,
//!   a Chrome-trace-event/Perfetto exporter, and conflict forensics (see
//!   docs/OBSERVABILITY.md).
//! * [`check`] — kernel analysis: a dynamic hazard sanitizer (races, OOB,
//!   uninitialized reads, lock-step divergence) as a checking observer,
//!   plus a symbolic affine-address prover that certifies schedules
//!   conflict-free for *all* inputs via the paper's Corollaries 17/18
//!   (see docs/ANALYSIS.md).
//! * [`fault`] — deterministic fault injection as an injecting observer:
//!   seeded [`fault::FaultPlan`]s of bit-flips, stuck banks, lane
//!   drop-outs, and latency spikes, with every firing recorded for
//!   forensics (see docs/ROBUSTNESS.md).
//!
//! The simulator is *exact* for conflict counts (they are a deterministic
//! function of the addresses issued per lock-step round) and *modeled* for
//! runtimes (see `timing` docs and DESIGN.md §5).
//!
//! ## Example: measuring a strided access pattern
//!
//! ```
//! use cfmerge_gpu_sim::banks::BankModel;
//!
//! // The paper's Figure 1: w = 12 banks.
//! let banks = BankModel::new(12);
//! assert_eq!(banks.strided_cost(0, 5).conflicts, 0); // coprime stride
//! assert_eq!(banks.strided_cost(0, 6).conflicts, 5); // gcd(6,12)=6 → 6-way
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banks;
pub mod block;
pub mod check;
pub mod device;
pub mod fault;
pub mod global;
pub mod observer;
pub mod occupancy;
pub mod profiler;
pub mod stats;
pub mod timing;
pub mod trace;

pub use banks::{BankModel, RoundCost};
pub use block::{BlockSim, LaneCtx};
pub use check::{BankShape, Sanitizer};
pub use device::Device;
pub use fault::{
    BlockFaults, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultWord, InjectionRecord,
    Persistence,
};
pub use observer::{Observer, Passive};
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use profiler::{KernelProfile, PhaseClass, PhaseCounters};
pub use timing::{LaunchConfig, TimeBreakdown, TimingModel};
pub use trace::{BlockTracer, ConflictForensics, KernelTrace, SortTrace};
