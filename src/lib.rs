//! # cfmerge — Bank-Conflict-Free GPU Mergesort (SPAA 2025 reproduction)
//!
//! Façade crate re-exporting the full reproduction of Berney & Sitchinava,
//! *Eliminating Bank Conflicts in GPU Mergesort* (SPAA 2025):
//!
//! * [`numtheory`] — GCDs, modular inverses, complete residue systems
//!   (Appendix A).
//! * [`gpu_sim`] — warp-synchronous shared-memory simulator with exact
//!   bank-conflict accounting (the DMM model of Section 2).
//! * [`mergepath`] — merge path partitioning, serial merges, sorting
//!   networks, CPU baselines.
//! * [`core`] — the paper's contributions: the load-balanced dual
//!   subsequence gather (Section 3), CF-Merge and the Thrust-style baseline
//!   mergesort pipelines (Section 5), and the generalized worst-case input
//!   construction (Section 4).
//! * [`algos`] — companion GPU algorithms on the same simulator:
//!   conflict-free scans, bitonic sort, radix sort (context baselines).
//!
//! ## Quickstart
//!
//! ```
//! use cfmerge::prelude::*;
//!
//! // Sort on the simulated GPU with both pipelines and compare conflicts.
//! let config = SortConfig::paper_e15_u512();
//! let input = InputSpec::UniformRandom { seed: 42 }.generate(1 << 12);
//!
//! let thrust = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &config);
//! let cf = simulate_sort(&input, SortAlgorithm::CfMerge, &config);
//!
//! assert!(thrust.output.windows(2).all(|p| p[0] <= p[1]));
//! assert_eq!(thrust.output, cf.output);
//! // CF-Merge never touches two distinct words in one bank in one round:
//! assert_eq!(cf.profile.merge_bank_conflicts(), 0);
//! ```

#![forbid(unsafe_code)]

pub use cfmerge_algos as algos;
pub use cfmerge_core as core;
pub use cfmerge_gpu_sim as gpu_sim;
pub use cfmerge_mergepath as mergepath;
pub use cfmerge_numtheory as numtheory;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use cfmerge_core::gather::{dual_scan_block, CfLayout, ThreadSplit};
    pub use cfmerge_core::inputs::InputSpec;
    pub use cfmerge_core::recovery::{
        resume_sort_robust, simulate_sort_robust, simulate_sort_robust_checkpointed,
        RecoveryCounters, RecoveryReport, RobustConfig, RobustSortRun, SortService,
    };
    pub use cfmerge_core::resilience::{
        AdmissionConfig, BreakerConfig, CheckpointPolicy, HedgeConfig, ResilienceConfig,
        RetryBudgetConfig, ServiceCounters, ShedPolicy, SortCheckpoint, SortJob,
    };
    pub use cfmerge_core::sort::{
        simulate_sort, simulate_sort_traced, sort_pairs_stable, try_simulate_sort, Degradation,
        SortAlgorithm, SortConfig, SortError, SortKey, SortRun, TracedSortRun,
    };
    pub use cfmerge_core::worst_case::WorstCaseBuilder;
    pub use cfmerge_gpu_sim::device::Device;
    pub use cfmerge_gpu_sim::fault::{FaultPlan, FaultSpec};
    pub use cfmerge_gpu_sim::observer::Observer;
    pub use cfmerge_gpu_sim::profiler::KernelProfile;
    pub use cfmerge_gpu_sim::timing::TimingModel;
    pub use cfmerge_gpu_sim::trace::{ConflictForensics, SortTrace};
}
