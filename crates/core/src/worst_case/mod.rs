//! Worst-case input construction (Section 4), generalized to arbitrary
//! `d = gcd(w, E)`.
//!
//! The Thrust baseline's per-thread serial merge scans `Aᵢ` and `Bᵢ`
//! sequentially in shared memory. A careful input permutation can force
//! many threads of a warp into sequential scans whose start addresses are
//! congruent modulo `w` — every scan step then hits the same bank and the
//! warp serializes. Section 4 constructs such inputs for *any* `w` and
//! `1 < E ≤ w` (the prior work \[8\] required `w` a power of two, coprime
//! `E`, and `w/2 < E < w`):
//!
//! * [`tuples`] builds the per-warp consumption-tuple sequence `T` — one
//!   `(aᵢ, bᵢ)` per thread, most of them full scans `(E, 0)`/`(0, E)`,
//!   spaced by the sequence `S` so that scan starts align in the bottom
//!   `E` banks.
//! * [`theorem8`] gives the closed-form conflict count those tuples
//!   produce.
//! * [`builder`] realizes the tuples as actual sortable inputs: a single
//!   merge pair for unit experiments, and — by *unmerging* the merge
//!   tree level by level — a full input permutation that attacks
//!   **every** merge pass of the sort.

pub mod builder;
pub mod theorem8;
pub mod tuples;

pub use builder::{lockstep_baseline_conflicts, WorstCaseBuilder};
pub use theorem8::{predicted_subproblem_conflicts, predicted_warp_conflicts};
pub use tuples::{sequence_s, sequence_t, warp_tuples, Tuple};
