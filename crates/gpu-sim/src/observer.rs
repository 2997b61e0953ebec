//! The one hook a [`BlockSim`](crate::BlockSim) is watched through.
//!
//! Conflict tracing ([`BlockTracer`](crate::BlockTracer)), the hazard
//! sanitizer ([`Sanitizer`](crate::Sanitizer)) and fault injection
//! ([`BlockFaults`](crate::BlockFaults)) are all [`Observer`]s. Every hook
//! has an inlined empty default, so an implementor overrides only what it
//! watches, and the default [`Passive`] observer — a zero-sized type —
//! compiles every hook away: an unobserved block runs exactly the
//! engine's own code.
//!
//! ## Hook order
//!
//! [`begin_block`](Observer::begin_block) runs once, when the block is
//! built. Each [`BlockSim::phase`](crate::BlockSim::phase) then calls
//! [`phase_begin`](Observer::phase_begin); for each warp in turn
//! [`warp_begin`](Observer::warp_begin), the warp's access hooks in lane
//! order, [`warp_end`](Observer::warp_end), and the warp's costed
//! [`shared_round`](Observer::shared_round) and
//! [`global_round`](Observer::global_round) events (when the block counts
//! accesses); then [`alu`](Observer::alu) if the phase charged ALU work,
//! and [`phase_end`](Observer::phase_end). An
//! [`alu_phase`](crate::BlockSim::alu_phase) calls `phase_begin`, `alu`
//! and `phase_end`, with no warp hooks. An
//! [`oblivious_phase`](crate::BlockSim::oblivious_phase) runs like a
//! `phase` and then, unless the observer is [`LEAN`](Observer::LEAN),
//! calls [`oblivious_share`](Observer::oblivious_share) with the phase's
//! counters.

use crate::profiler::{PhaseClass, PhaseCounters};
use crate::trace::{GlobalRoundEvent, SharedRoundEvent};

/// Hooks the block engine calls while executing a kernel.
///
/// Two consts gate the per-access hooks, so an observer that does not
/// use them costs nothing on the engine's hottest path:
///
/// * with [`CHECKS`](Self::CHECKS), every shared and global access is
///   routed through [`shared_access`](Self::shared_access) /
///   [`global_access`](Self::global_access) *instead of* the engine's
///   panicking race asserts: the observer owns hazard detection and
///   decides whether the access proceeds, so a hazardous kernel runs to
///   completion instead of aborting the process;
/// * with [`INJECTS`](Self::INJECTS), loads and stores take the XOR masks
///   of the corruption hooks and a store may be dropped. The traffic is
///   recorded and costed either way: on real hardware a faulted store
///   still occupies its transaction.
///
/// A third const, [`PASSIVE`](Self::PASSIVE), is read by drivers, not by
/// the engine: it says that nothing watches the block, so the block need
/// not run at all if its profile is already known. A fourth,
/// [`LEAN`](Self::LEAN), lets a driver that already knows a block's
/// oblivious phases skip recording and pricing them.
pub trait Observer {
    /// Route accesses through the checking hooks instead of the engine's
    /// race asserts.
    const CHECKS: bool = false;

    /// Consult the corruption hooks on every access.
    const INJECTS: bool = false;

    /// The observer watches nothing and changes nothing, so a block's
    /// execution is a pure function of its input: a driver may replay a
    /// block whose comparisons all come out as an earlier block's instead
    /// of simulating it. Only [`Passive`] sets it.
    const PASSIVE: bool = false;

    /// Run every [`oblivious_phase`](crate::BlockSim::oblivious_phase)
    /// with recording and pricing off: it moves its data and keeps the
    /// race detector on, but charges nothing, so the block's profile
    /// lacks exactly the counters a full run reports through
    /// [`oblivious_share`](Self::oblivious_share). Set only by a driver
    /// that adds those counters back from a fully simulated block.
    const LEAN: bool = false;

    /// A block simulation starts: `w` lanes per warp, `u` threads, and a
    /// shared-memory extent of `shared_len` words.
    #[inline]
    fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
        let _ = (w, u, shared_len);
    }

    /// A barrier-delimited phase opens.
    #[inline]
    fn phase_begin(&mut self, class: PhaseClass) {
        let _ = class;
    }

    /// Warp `warp` starts executing the current phase.
    #[inline]
    fn warp_begin(&mut self, warp: usize) {
        let _ = warp;
    }

    /// Lane `tid` touches shared word `idx` (`store` distinguishes write
    /// from read). Return `false` to suppress the access (e.g. it is out
    /// of bounds); suppressed loads yield `T::default()`. Called only
    /// with [`CHECKS`](Self::CHECKS).
    #[inline]
    fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
        let _ = (tid, idx, store);
        true
    }

    /// Lane `tid` touches global word `idx` of an array of `len` words
    /// (`usize::MAX` when the engine records traffic without the array).
    /// Return `false` to suppress the access. Called only with
    /// [`CHECKS`](Self::CHECKS).
    #[inline]
    fn global_access(&mut self, tid: u32, idx: usize, len: usize, store: bool) -> bool {
        let _ = (tid, idx, len, store);
        true
    }

    /// XOR mask applied to the value lane `tid` loads from shared `idx`
    /// (0 = pristine). Called only with [`INJECTS`](Self::INJECTS).
    #[inline]
    fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to shared `idx`.
    /// Called only with [`INJECTS`](Self::INJECTS).
    #[inline]
    fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to global `idx`.
    /// Called only with [`INJECTS`](Self::INJECTS).
    #[inline]
    fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// Whether lane `tid`'s stores are currently dropped (lane drop-out):
    /// the access is still issued and costed, the data never commits.
    /// Called only with [`INJECTS`](Self::INJECTS).
    #[inline]
    fn drops_store(&mut self, tid: u32) -> bool {
        let _ = tid;
        false
    }

    /// Warp `warp` finished the current phase (divergence checkpoint).
    #[inline]
    fn warp_end(&mut self, warp: usize, class: PhaseClass) {
        let _ = (warp, class);
    }

    /// One warp shared-memory round was issued and costed.
    #[inline]
    fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
        let _ = ev;
    }

    /// One warp global-memory round was issued and coalesced.
    #[inline]
    fn global_round(&mut self, ev: &GlobalRoundEvent) {
        let _ = ev;
    }

    /// `ops` scalar ALU operations were charged to the phase (summed over
    /// all lanes of the block).
    #[inline]
    fn alu(&mut self, class: PhaseClass, ops: u64) {
        let _ = (class, ops);
    }

    /// The phase's closing barrier.
    #[inline]
    fn phase_end(&mut self, class: PhaseClass) {
        let _ = class;
    }

    /// A fully run oblivious phase of class `class` charged `counters`
    /// (its share of the block's profile). Not called when
    /// [`LEAN`](Self::LEAN).
    #[inline]
    fn oblivious_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        let _ = (class, counters);
    }
}

/// The observer that watches nothing: a zero-sized type whose hooks
/// compile away, leaving the engine's panicking race asserts in force.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passive;

impl Observer for Passive {
    const PASSIVE: bool = true;
}
