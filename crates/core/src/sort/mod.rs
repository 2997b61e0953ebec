//! The two mergesort pipelines, end to end on the simulator.
//!
//! Both pipelines share the classical Thrust/moderngpu structure:
//!
//! 1. **Block sort** ([`blocksort`]): each block loads a tile of `u·E`
//!    keys, every thread sorts `E` keys in registers with an odd-even
//!    transposition network, then `log₂ u` rounds of intra-block
//!    merge-path merges produce a sorted tile.
//! 2. **Global merge passes** ([`merge_pass`]): `log₂(n / uE)` passes;
//!    each pass pairs sorted runs, partitions every pair into `u·E`-output
//!    chunks by merge path in global memory, and each block merges its
//!    chunk through shared memory.
//!
//! The pipelines differ *only* in how a thread moves its `(Aᵢ, Bᵢ)` out
//! of shared memory (see [`kernels`]): the baseline's data-dependent
//! serial merge versus CF-Merge's dual subsequence gather + register
//! network. [`pipeline::simulate_sort`] drives either, returning the
//! sorted output, exact per-phase profile, and modeled runtime.

pub mod blocksort;
pub mod error;
pub mod kernels;
pub mod key;
pub mod merge_pass;
pub mod pairs;
pub mod pipeline;

pub use error::{validate_sort_config, Degradation, SortError};
pub use key::{simulate_sort_f32, SortKey};
pub use pairs::{sort_pairs_stable, PairSortRun};
pub use pipeline::{
    simulate_sort, simulate_sort_checked, simulate_sort_traced, try_simulate_sort, CheckedSortRun,
    KernelFinding, KernelReport, SortAlgorithm, SortConfig, SortRun, TracedSortRun,
};
