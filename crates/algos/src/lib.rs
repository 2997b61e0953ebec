//! # cfmerge-algos — companion GPU algorithms on the simulator
//!
//! The paper situates CF-Merge among a family of shared-memory-heavy GPU
//! algorithms whose bank-conflict behaviour has been studied before
//! (scans \[18\], tridiagonal solvers, permutations, …) and positions
//! mergesort as the fastest *comparison-based* GPU sort. This crate
//! provides the context those claims live in, implemented on the same
//! simulator with the same exact conflict accounting:
//!
//! * [`scan`] — block-level prefix sums: Hillis–Steele, and Blelloch's
//!   work-efficient tree scan with and without the classic
//!   conflict-avoiding padding (Dotsenko et al.'s problem, GPU Gems 3's
//!   fix). The unpadded tree scan is the textbook bank-conflict
//!   disaster; the padded one is conflict-free — both measured, not
//!   asserted.
//! * [`bitonic`] — a full bitonic mergesort pipeline (the classic
//!   data-oblivious comparison sort): conflict-free by construction in
//!   shared memory but `Θ(n log² n)` work, so mergesort overtakes it —
//!   the crossover the benches show.
//! * [`radix`] — an LSD radix sort (4 bits/pass) built on the scans:
//!   the non-comparison sort that outruns any mergesort on 32-bit keys,
//!   which is *why* the paper's claim is scoped to comparison-based
//!   sorting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
pub mod radix;
pub mod scan;
