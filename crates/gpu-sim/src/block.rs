//! Warp-synchronous thread-block execution engine.
//!
//! A kernel is expressed as a sequence of barrier-delimited **phases**; in
//! each phase every thread of the block runs the same per-lane closure.
//! Each lane's shared- and global-memory accesses are recorded as an
//! ordered trace, and traces are aligned *by access index* across the `w`
//! lanes of each warp: the `r`-th shared access of every lane forms the
//! warp's round `r`, exactly the lock-step model of the paper (Section 1,
//! footnote 2: conflict-free warps have no reason to diverge). Rounds are
//! priced by [`BankModel::round_cost`] and accumulated into a
//! [`KernelProfile`].
//!
//! ## Fidelity notes
//!
//! * Lanes of a warp execute *sequentially* inside the simulator but are
//!   costed as if lock-step. This is exact provided no lane reads a shared
//!   word written by a different lane **in the same phase** — which on a
//!   real GPU would equally require a `__syncthreads()`. The engine
//!   enforces this with a per-phase write-epoch race detector and panics
//!   on violation, so an un-barriered kernel cannot silently produce
//!   results the hardware would not.
//! * Every kernel in this repository issues the same number of accesses on
//!   every lane of a warp within a phase (serial merge: `E` loads; gather:
//!   `E` loads; searches: a fixed iteration count), so index alignment is
//!   not an approximation for them. Lanes that issue fewer accesses are
//!   treated as predicated off for the trailing rounds.

use crate::banks::{BankModel, MAX_BANKS};
use crate::fault::FaultWord;
use crate::global::sectors_touched;
use crate::observer::{Observer, Passive};
use crate::profiler::{KernelProfile, PhaseClass};
use crate::trace::{GlobalRoundEvent, SharedRoundEvent};

/// A set of lanes of one warp, bit `l` standing for lane `l`; a warp has
/// at most [`MAX_BANKS`] = 64 lanes.
type LaneMask = u64;

/// The mask of all `w` lanes of a warp.
fn all_lanes(w: usize) -> LaneMask {
    LaneMask::MAX >> (LaneMask::BITS as usize - w)
}

/// One warp's accesses in the current phase — shared word addresses
/// (`A = u32`) or global element indices (`A = u64`) — stored
/// round-major: lane `l`'s `r`-th access sits at `slots[r * w + l]`, so
/// each lock-step round is one contiguous row of `w` slots, and
/// `stores[r]` marks the lanes whose round-`r` access is a store.
///
/// A slot at or past its lane's length is stale (left by an earlier warp)
/// and the lane counts as predicated off for that round. Clearing resets
/// only the lengths and the used store masks, so the buffers grow to the
/// block's longest warp trace once and are then reused by every warp and
/// phase without allocating.
///
/// While a lane runs, its round count lives in its [`LaneCtx`] cursor;
/// [`BlockSim::phase`] writes it to `lens` once the lane is done.
struct WarpRounds<A> {
    slots: Vec<A>,
    /// Per round, the lanes that stored; zero beyond the current warp's
    /// rounds. Its length is the number of rows `slots` holds.
    stores: Vec<LaneMask>,
    /// Accesses recorded by each lane of the current warp.
    lens: Vec<usize>,
}

impl<A: Copy + Default> WarpRounds<A> {
    fn new(w: usize) -> Self {
        Self { slots: Vec::new(), stores: Vec::new(), lens: vec![0; w] }
    }

    fn clear(&mut self) {
        let (_, rounds) = self.len_range();
        self.stores[..rounds].fill(0);
        self.lens.fill(0);
    }

    /// Record `lane`'s access number `*cursor` and advance the cursor.
    #[inline]
    fn push(&mut self, lane: usize, cursor: &mut usize, acc: A, store: bool) {
        let (w, r) = (self.lens.len(), *cursor);
        if r == self.stores.len() {
            self.add_round();
        }
        self.slots[r * w + lane] = acc;
        if store {
            self.stores[r] |= 1 << lane;
        }
        *cursor = r + 1;
    }

    /// Make room for one more round: taken only while the buffers grow
    /// to the block's longest warp trace.
    #[cold]
    #[inline(never)]
    fn add_round(&mut self) {
        self.stores.push(0);
        self.slots.resize(self.stores.len() * self.lens.len(), A::default());
    }

    /// The shortest and the longest lane's access counts. Rounds below
    /// the first have every lane active; the second is the number of
    /// rounds the warp issued.
    fn len_range(&self) -> (usize, usize) {
        self.lens.iter().fold((usize::MAX, 0), |(lo, hi), &n| (lo.min(n), hi.max(n)))
    }

    /// The lanes still issuing in round `r`.
    fn active(&self, r: usize) -> LaneMask {
        self.lens.iter().enumerate().filter(|&(_, &n)| n > r).fold(0, |m, (l, _)| m | 1 << l)
    }

    /// Round `r`'s accesses by the lanes in `mask`, in lane order: the
    /// row itself when `mask` is the whole warp, else copied into `buf`.
    fn select<'a>(&'a self, r: usize, mask: LaneMask, buf: &'a mut [A; MAX_BANKS]) -> &'a [A] {
        let w = self.lens.len();
        let row = &self.slots[r * w..(r + 1) * w];
        if mask == all_lanes(w) {
            return row;
        }
        let mut n = 0;
        let mut rest = mask;
        while rest != 0 {
            buf[n] = row[rest.trailing_zeros() as usize];
            n += 1;
            rest &= rest - 1;
        }
        &buf[..n]
    }

    /// Call `f(r, loads, stores)` for each round the warp issued, with
    /// the round's load and store addresses in lane order.
    fn for_each_round(&self, mut f: impl FnMut(usize, &[A], &[A])) {
        let (full_rounds, rounds) = self.len_range();
        let all = all_lanes(self.lens.len());
        let (mut ld_buf, mut st_buf) = ([A::default(); MAX_BANKS], [A::default(); MAX_BANKS]);
        for r in 0..rounds {
            let active = if r < full_rounds { all } else { self.active(r) };
            let st_mask = self.stores[r];
            let loads = self.select(r, active & !st_mask, &mut ld_buf);
            let stores = self.select(r, st_mask, &mut st_buf);
            f(r, loads, stores);
        }
    }
}

/// Simulated thread block: `u` threads over a shared-memory array of `T`.
///
/// The second type parameter is the [`Observer`] watching execution
/// (tracing, hazard checking or fault injection); the default
/// [`Passive`] compiles its hooks away entirely, leaving the built-in
/// panic-on-race asserts in force.
pub struct BlockSim<T: Copy, O: Observer = Passive> {
    banks: BankModel,
    /// Threads per block (`u` in the paper; must be a multiple of `w`).
    u: usize,
    shared: Vec<T>,
    /// Per shared word, the race detector's tag of its last writer:
    /// [`write_tag`] of the phase epoch and the writing thread.
    write_tags: Vec<u64>,
    epoch: u32,
    /// Accumulated counters for this block.
    pub profile: KernelProfile,
    counting: bool,
    observer: O,
    // The current warp's accesses, reused by every warp of every phase.
    shared_rounds: WarpRounds<u32>,
    global_rounds: WarpRounds<u64>,
}

impl<T: FaultWord + Default> BlockSim<T> {
    /// New unobserved block: `u` threads, shared memory of `shared_len`
    /// words, warp width / bank count from `banks`.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn new(banks: BankModel, u: usize, shared_len: usize) -> Self {
        Self::with_observer(banks, u, shared_len, Passive)
    }
}

impl<T: FaultWord + Default, O: Observer> BlockSim<T, O> {
    /// New block watched by `observer` (see [`crate::observer`]).
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn with_observer(banks: BankModel, u: usize, shared_len: usize, mut observer: O) -> Self {
        let w = banks.num_banks as usize;
        assert!(w <= MAX_BANKS, "BlockSim supports at most {MAX_BANKS} lanes per warp, got {w}");
        assert!(u > 0 && u.is_multiple_of(w), "u={u} must be a positive multiple of w={w}");
        observer.begin_block(w, u, shared_len);
        Self {
            banks,
            u,
            shared: vec![T::default(); shared_len],
            write_tags: vec![write_tag(0, u32::MAX); shared_len],
            epoch: 0,
            profile: KernelProfile::new(),
            counting: true,
            observer,
            shared_rounds: WarpRounds::new(w),
            global_rounds: WarpRounds::new(w),
        }
    }

    /// The observer watching this block.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consume the block, returning its accumulated profile and its
    /// observer — what a kernel hands back to its launcher.
    #[must_use]
    pub fn finish(self) -> (KernelProfile, O) {
        (self.profile, self.observer)
    }

    /// Warp width `w`.
    #[must_use]
    pub fn warp_width(&self) -> usize {
        self.banks.num_banks as usize
    }

    /// Threads per block `u`.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.u
    }

    /// Number of warps `u / w`.
    #[must_use]
    pub fn warps(&self) -> usize {
        self.u / self.warp_width()
    }

    /// Shared-memory size in words.
    #[must_use]
    pub fn shared_len(&self) -> usize {
        self.shared.len()
    }

    /// Read-only view of shared memory (host-side inspection in tests).
    #[must_use]
    pub fn shared(&self) -> &[T] {
        &self.shared
    }

    /// Disable access accounting (correctness-only fast path for very
    /// large inputs). The race detector stays on.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    /// Run one barrier-delimited phase. `body(tid, lane)` is invoked once
    /// per thread; all its shared/global accesses are recorded and costed
    /// under `class`.
    pub fn phase<F>(&mut self, class: PhaseClass, mut body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        self.epoch = self.epoch.wrapping_add(1);
        self.observer.phase_begin(class);
        let w = self.warp_width();
        let warps = self.warps();
        let mut alu_total = 0u64;

        for warp in 0..warps {
            self.observer.warp_begin(warp);
            self.shared_rounds.clear();
            self.global_rounds.clear();
            for lane in 0..w {
                let tid = warp * w + lane;
                let mut ctx = LaneCtx {
                    shared: &mut self.shared,
                    write_tags: &mut self.write_tags,
                    tag: write_tag(self.epoch, tid as u32),
                    tid: tid as u32,
                    lane,
                    counting: self.counting,
                    shared_rounds: &mut self.shared_rounds,
                    shared_cursor: 0,
                    global_rounds: &mut self.global_rounds,
                    global_cursor: 0,
                    alu: 0,
                    observer: &mut self.observer,
                };
                body(tid, &mut ctx);
                let (shared_len, global_len, alu) = (ctx.shared_cursor, ctx.global_cursor, ctx.alu);
                self.shared_rounds.lens[lane] = shared_len;
                self.global_rounds.lens[lane] = global_len;
                alu_total += alu;
            }
            self.observer.warp_end(warp, class);
            if self.counting {
                self.account_warp(class, warp);
            }
        }
        self.profile.phase_mut(class).alu_ops += alu_total;
        if alu_total > 0 {
            self.observer.alu(class, alu_total);
        }
        self.observer.phase_end(class);
    }

    /// Convenience: run a phase with no memory side effects, charging only
    /// `alu` operations per thread (e.g. register-space sorting networks).
    pub fn alu_phase(&mut self, class: PhaseClass, ops_per_thread: u64) {
        let ops = ops_per_thread * self.u as u64;
        self.profile.phase_mut(class).alu_ops += ops;
        self.observer.phase_begin(class);
        self.observer.alu(class, ops);
        self.observer.phase_end(class);
    }

    /// Cost the current warp's recorded rounds into the profile. A round
    /// whose loads (or stores) come from every lane is costed in place;
    /// a mixed or partial round is split into stack buffers of at most
    /// `w ≤ MAX_BANKS` lanes, so accounting allocates nothing.
    fn account_warp(&mut self, class: PhaseClass, warp: usize) {
        let (banks, observer, profile) = (&self.banks, &mut self.observer, &mut self.profile);
        let merging = matches!(class, PhaseClass::Merge | PhaseClass::Gather);
        self.shared_rounds.for_each_round(|round, loads, stores| {
            let ld_cost = banks.round_cost(loads);
            let st_cost = banks.round_cost(stores);
            observer.shared_round(&SharedRoundEvent {
                class,
                warp,
                round,
                loads,
                stores,
                ld_cost,
                st_cost,
            });
            if merging && ld_cost.active_lanes > 0 {
                profile.merge_degree_hist.record(ld_cost.transactions);
            }
            let c = profile.phase_mut(class);
            if ld_cost.active_lanes > 0 {
                c.shared_ld_requests += 1;
                c.shared_ld_transactions += u64::from(ld_cost.transactions);
            }
            if st_cost.active_lanes > 0 {
                c.shared_st_requests += 1;
                c.shared_st_transactions += u64::from(st_cost.transactions);
            }
        });
        self.global_rounds.for_each_round(|round, loads, stores| {
            let ld_sectors = sectors_touched(loads);
            let st_sectors = sectors_touched(stores);
            let c = profile.phase_mut(class);
            if !loads.is_empty() {
                c.global_ld_requests += 1;
                c.global_ld_sectors += ld_sectors;
            }
            if !stores.is_empty() {
                c.global_st_requests += 1;
                c.global_st_sectors += st_sectors;
            }
            observer.global_round(&GlobalRoundEvent {
                class,
                warp,
                round,
                ld_lanes: loads.len() as u32,
                st_lanes: stores.len() as u32,
                ld_sectors,
                st_sectors,
            });
        });
    }
}

/// Per-lane handle passed to phase bodies: the only way kernel code can
/// touch memory, so every access is recorded.
///
/// With a [`CHECKS`](Observer::CHECKS) observer attached, every access is
/// routed through it, which may suppress it (out-of-bounds accesses
/// become findings instead of panics; suppressed loads yield
/// `T::default()`), and the built-in panicking race asserts stand down in
/// favor of the observer's own race detection. With an
/// [`INJECTS`](Observer::INJECTS) observer, loads and stores may be
/// corrupted (XOR masks) or dropped (lane drop-outs).
pub struct LaneCtx<'a, T: Copy, O: Observer = Passive> {
    shared: &'a mut [T],
    write_tags: &'a mut [u64],
    /// This lane's [`write_tag`] in the current phase.
    tag: u64,
    tid: u32,
    /// Lane index within the warp.
    lane: usize,
    counting: bool,
    shared_rounds: &'a mut WarpRounds<u32>,
    /// Shared accesses this lane has recorded in the phase so far.
    shared_cursor: usize,
    global_rounds: &'a mut WarpRounds<u64>,
    /// Global accesses this lane has recorded in the phase so far.
    global_cursor: usize,
    alu: u64,
    observer: &'a mut O,
}

/// The race detector's tag for a shared-memory write: the phase epoch in
/// the high half and the writing thread in the low half, so that one
/// load tells whether a word was written in this phase, and by whom.
#[inline]
fn write_tag(epoch: u32, tid: u32) -> u64 {
    u64::from(epoch) << 32 | u64::from(tid)
}

impl<T: Copy, O: Observer> LaneCtx<'_, T, O> {
    /// Whether this lane may touch shared word `idx`: no *other* thread
    /// wrote it in the current phase. Returns the last writer's tag.
    #[inline(always)]
    fn may_touch(&self, idx: usize) -> (bool, u64) {
        let t = self.write_tags[idx];
        (t == self.tag || t >> 32 != self.tag >> 32, t)
    }
}

/// `v` with the bits of `mask` flipped.
#[inline]
fn flip<T: FaultWord>(v: T, mask: u64) -> T {
    if mask == 0 {
        v
    } else {
        T::from_fault_bits(v.to_fault_bits() ^ mask)
    }
}

impl<T: FaultWord + Default, O: Observer> LaneCtx<'_, T, O> {
    /// This thread's id within the block.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// Shared-memory load.
    ///
    /// # Panics
    /// Without a checking observer, panics if the word was written by a
    /// *different* lane in the same phase (a missing-barrier race the
    /// hardware would not tolerate either), or on out-of-bounds access.
    /// With one, hazards are recorded as findings instead.
    #[inline(always)]
    #[must_use]
    pub fn ld(&mut self, idx: usize) -> T {
        if O::CHECKS {
            if !self.observer.shared_access(self.tid, idx, false) {
                return T::default();
            }
        } else {
            let (ok, t) = self.may_touch(idx);
            assert!(
                ok,
                "race: lane {} loads shared[{idx}] written by lane {} in the same phase \
                 (missing barrier)",
                self.tid, t as u32,
            );
        }
        if self.counting {
            self.shared_rounds.push(self.lane, &mut self.shared_cursor, idx as u32, false);
        }
        if O::INJECTS {
            let mask = self.observer.shared_ld_mask(self.tid, idx);
            return flip(self.shared[idx], mask);
        }
        self.shared[idx]
    }

    /// Shared-memory store.
    ///
    /// # Panics
    /// Without a checking observer, panics if another lane already wrote
    /// this word in the same phase.
    #[inline(always)]
    pub fn st(&mut self, idx: usize, v: T) {
        if O::CHECKS {
            if !self.observer.shared_access(self.tid, idx, true) {
                return;
            }
        } else {
            let (ok, t) = self.may_touch(idx);
            assert!(
                ok,
                "race: lanes {} and {} both store shared[{idx}] in the same phase \
                 (missing barrier)",
                t as u32, self.tid,
            );
            self.write_tags[idx] = self.tag;
        }
        if self.counting {
            self.shared_rounds.push(self.lane, &mut self.shared_cursor, idx as u32, true);
        }
        if O::INJECTS {
            if self.observer.drops_store(self.tid) {
                return; // lane drop-out: traffic costed, data never commits
            }
            let mask = self.observer.shared_st_mask(self.tid, idx);
            self.shared[idx] = flip(v, mask);
            return;
        }
        self.shared[idx] = v;
    }

    /// Global-memory load from a caller-provided array. The element index
    /// `idx` is recorded for coalescing accounting.
    #[inline(always)]
    #[must_use]
    pub fn ld_global(&mut self, data: &[T], idx: usize) -> T {
        if O::CHECKS && !self.observer.global_access(self.tid, idx, data.len(), false) {
            return T::default();
        }
        if self.counting {
            self.global_rounds.push(self.lane, &mut self.global_cursor, idx as u64, false);
        }
        data[idx]
    }

    /// Global-memory store into a caller-provided array.
    #[inline(always)]
    pub fn st_global(&mut self, data: &mut [T], idx: usize, v: T) {
        if O::CHECKS && !self.observer.global_access(self.tid, idx, data.len(), true) {
            return;
        }
        if self.counting {
            self.global_rounds.push(self.lane, &mut self.global_cursor, idx as u64, true);
        }
        if O::INJECTS {
            if self.observer.drops_store(self.tid) {
                return;
            }
            let mask = self.observer.global_st_mask(self.tid, idx);
            data[idx] = flip(v, mask);
            return;
        }
        data[idx] = v;
    }

    /// Record the traffic of a global store at `idx` without writing —
    /// for kernels that commit their output outside the engine (e.g.
    /// scatter kernels whose output buffer cannot be mutably shared
    /// across concurrently simulated blocks). No bounds are known here,
    /// so a checking observer only counts the access.
    pub fn mark_global_st(&mut self, idx: usize) {
        if O::CHECKS {
            let _ = self.observer.global_access(self.tid, idx, usize::MAX, true);
        }
        if self.counting {
            self.global_rounds.push(self.lane, &mut self.global_cursor, idx as u64, true);
        }
    }

    /// Charge `n` scalar ALU operations to this lane.
    pub fn alu(&mut self, n: u64) {
        self.alu += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(u: usize, w: u32, len: usize) -> BlockSim<u32> {
        BlockSim::new(BankModel::new(w), u, len)
    }

    #[test]
    fn unit_stride_store_then_load_is_conflict_free() {
        let mut b = block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..4 {
                lane.st(r * 8 + tid, (r * 8 + tid) as u32);
            }
        });
        b.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4 {
                let v = lane.ld(r * 8 + tid);
                assert_eq!(v, (r * 8 + tid) as u32);
            }
        });
        let p = b.profile.total();
        assert_eq!(p.shared_st_requests, 4);
        assert_eq!(p.shared_st_transactions, 4);
        assert_eq!(p.shared_ld_requests, 4);
        assert_eq!(p.shared_ld_transactions, 4);
        assert_eq!(b.profile.total_bank_conflicts(), 0);
    }

    #[test]
    fn same_bank_column_scan_serializes() {
        // All 8 lanes scan the same 8-element column (stride w) — the
        // worst case: every round is an 8-way conflict.
        let mut b = block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            lane.st(tid, tid as u32); // seed something readable
        });
        b.phase(PhaseClass::Merge, |_tid, lane| {
            for r in 0..8usize {
                let _ = lane.ld(r * 8); // all lanes read word r*8 → same bank 0...
            }
        });
        // Careful: all lanes read the SAME word each round → broadcast,
        // zero conflicts. Use distinct words in one bank instead:
        let mut b2 = block(8, 8, 64);
        b2.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4usize {
                let _ = lane.ld(((tid + r) % 8) * 8); // distinct words, all bank 0
            }
        });
        assert_eq!(b.profile.merge_bank_conflicts(), 0);
        let m = b2.profile.phase(PhaseClass::Merge);
        assert_eq!(m.shared_ld_requests, 4);
        assert_eq!(m.shared_ld_transactions, 32);
        assert_eq!(b2.profile.merge_bank_conflicts(), 28);
    }

    #[test]
    fn multi_warp_blocks_account_per_warp() {
        // 2 warps of 4; each warp does one conflict-free round.
        let mut b = block(8, 4, 32);
        b.phase(PhaseClass::Gather, |tid, lane| {
            let _ = lane.ld(tid % 4); // lanes of each warp read words 0..3
        });
        let g = b.profile.phase(PhaseClass::Gather);
        assert_eq!(g.shared_ld_requests, 2); // one request per warp
        assert_eq!(g.shared_ld_transactions, 2);
    }

    #[test]
    fn cross_warp_same_phase_rw_is_allowed_only_with_barrier() {
        // Writes in phase 1, reads in phase 2: fine even across warps.
        let mut b = block(8, 4, 32);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, tid as u32 * 10));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let v = lane.ld((tid + 4) % 8);
            assert_eq!(v, (((tid + 4) % 8) * 10) as u32);
        });
    }

    #[test]
    #[should_panic(expected = "missing barrier")]
    fn same_phase_race_detected() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(tid, 1);
            if tid == 3 {
                let _ = lane.ld(0); // written by lane 0 this phase
            }
        });
    }

    #[test]
    #[should_panic(expected = "missing barrier")]
    fn same_phase_write_write_race_detected() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32);
        });
    }

    #[test]
    fn same_lane_rmw_in_phase_is_fine() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(tid, 7);
            let v = lane.ld(tid);
            lane.st(tid, v + 1);
        });
        assert_eq!(b.shared()[0], 8);
    }

    #[test]
    fn global_coalescing_counted() {
        let data: Vec<u32> = (0..256).collect();
        let mut out = vec![0u32; 256];
        let mut b = block(32, 32, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            // Unit stride: 32 lanes × 2 rounds → 2 requests, 4 sectors each.
            for r in 0..2 {
                let v = lane.ld_global(&data, r * 32 + tid);
                lane.st_global(&mut out, r * 32 + tid, v + 1);
            }
        });
        let c = b.profile.phase(PhaseClass::LoadTile);
        assert_eq!(c.global_ld_requests, 2);
        assert_eq!(c.global_ld_sectors, 8);
        assert_eq!(c.global_st_requests, 2);
        assert_eq!(c.global_st_sectors, 8);
        assert_eq!(out[33], 34);
    }

    #[test]
    fn predicated_lanes_shorter_traces() {
        // Odd lanes issue 1 load, even lanes 2: round 1 has 4 lanes.
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Search, |tid, lane| {
            let _ = lane.ld(tid);
            if tid % 2 == 0 {
                let _ = lane.ld(8 + tid);
            }
        });
        let c = b.profile.phase(PhaseClass::Search);
        assert_eq!(c.shared_ld_requests, 2);
        assert_eq!(c.shared_ld_transactions, 2);
    }

    #[test]
    fn counting_off_still_moves_data() {
        let mut b = block(8, 8, 32);
        b.set_counting(false);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 42));
        b.phase(PhaseClass::Merge, |tid, lane| {
            assert_eq!(lane.ld(tid), 42);
        });
        assert_eq!(b.profile.total().shared_requests(), 0);
    }

    #[test]
    fn later_warps_ignore_earlier_warps_longer_traces() {
        // Warp 0 issues three rounds of 4-way conflicts (and one global
        // round per lane); warp 1 issues one conflict-free round and no
        // global traffic. Warp 0's leftover slots must not leak into
        // warp 1's accounting.
        let mut b = block(8, 4, 64);
        let data = [0u32; 8];
        b.phase(PhaseClass::Merge, |tid, lane| {
            if tid < 4 {
                let _ = lane.ld_global(&data, tid);
                for r in 0..3 {
                    let _ = lane.ld(tid * 4 + r);
                }
            } else {
                let _ = lane.ld(tid);
            }
        });
        let m = b.profile.phase(PhaseClass::Merge);
        assert_eq!(m.shared_ld_requests, 3 + 1);
        assert_eq!(m.shared_ld_transactions, 3 * 4 + 1);
        assert_eq!(m.global_ld_requests, 1);
        assert_eq!(m.global_ld_sectors, 1);
        assert_eq!(b.profile.merge_degree_hist.buckets(), &[0, 1, 0, 0, 3]);
    }

    #[test]
    fn alu_phase_charges_ops() {
        let mut b = block(8, 8, 16);
        b.alu_phase(PhaseClass::RegisterOps, 10);
        assert_eq!(b.profile.phase(PhaseClass::RegisterOps).alu_ops, 80);
    }

    #[test]
    #[should_panic(expected = "multiple of w")]
    fn non_multiple_block_rejected() {
        let _ = block(10, 8, 16);
    }

    fn checked_block(u: usize, w: u32, len: usize) -> BlockSim<u32, Sanitizer> {
        BlockSim::with_observer(BankModel::new(w), u, len, Sanitizer::new())
    }

    use crate::check::{Hazard, Sanitizer};

    #[test]
    fn sanitizer_records_race_instead_of_panicking() {
        let mut b = checked_block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32); // all lanes store word 5
        });
        let (_, ck) = b.finish();
        assert!(!ck.is_clean());
        assert!(
            ck.findings().iter().any(|f| matches!(f.hazard, Hazard::WriteWriteRace { .. })),
            "{}",
            ck.report()
        );
    }

    #[test]
    fn sanitizer_suppresses_oob_and_keeps_running() {
        let mut b = checked_block(8, 8, 16);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 7));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let v = lane.ld(if tid == 3 { 999 } else { tid });
            if tid == 3 {
                assert_eq!(v, 0, "suppressed OOB load yields the default value");
            }
        });
        let (_, ck) = b.finish();
        let oob: Vec<_> = ck
            .findings()
            .iter()
            .filter(|f| matches!(f.hazard, Hazard::SharedOutOfBounds { .. }))
            .collect();
        assert_eq!(oob.len(), 1);
        assert_eq!(oob[0].addr, Some(999));
    }

    #[test]
    fn sanitizer_clean_on_well_formed_kernel() {
        let mut b = checked_block(8, 8, 32);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..4 {
                lane.st(r * 8 + tid, tid as u32);
            }
        });
        b.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4 {
                let _ = lane.ld(r * 8 + (tid + 1) % 8);
            }
        });
        assert!(b.observer().is_clean(), "{}", b.observer().report());
    }

    /// Logs every hook call; checks and injects so the access hooks run.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Observer for Recorder {
        const CHECKS: bool = true;
        const INJECTS: bool = true;

        fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
            self.0.push(format!("begin_block {w} {u} {shared_len}"));
        }
        fn phase_begin(&mut self, class: PhaseClass) {
            self.0.push(format!("phase_begin {class:?}"));
        }
        fn warp_begin(&mut self, warp: usize) {
            self.0.push(format!("warp_begin {warp}"));
        }
        fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
            self.0.push(format!("shared_access {tid} {idx} {store}"));
            true
        }
        fn global_access(&mut self, tid: u32, idx: usize, _len: usize, store: bool) -> bool {
            self.0.push(format!("global_access {tid} {idx} {store}"));
            true
        }
        fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.push(format!("shared_ld_mask {tid} {idx}"));
            0
        }
        fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.push(format!("shared_st_mask {tid} {idx}"));
            0
        }
        fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
            self.0.push(format!("global_st_mask {tid} {idx}"));
            0
        }
        fn drops_store(&mut self, tid: u32) -> bool {
            self.0.push(format!("drops_store {tid}"));
            false
        }
        fn warp_end(&mut self, warp: usize, class: PhaseClass) {
            self.0.push(format!("warp_end {warp} {class:?}"));
        }
        fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
            self.0.push(format!("shared_round {} {}", ev.warp, ev.round));
        }
        fn global_round(&mut self, ev: &GlobalRoundEvent) {
            self.0.push(format!("global_round {} {}", ev.warp, ev.round));
        }
        fn alu(&mut self, class: PhaseClass, ops: u64) {
            self.0.push(format!("alu {class:?} {ops}"));
        }
        fn phase_end(&mut self, class: PhaseClass) {
            self.0.push(format!("phase_end {class:?}"));
        }
    }

    #[test]
    fn observer_hooks_run_in_engine_order() {
        let (w, u) = (4usize, 8usize);
        let data: Vec<u32> = (0..8).collect();
        let mut out = vec![0u32; 8];
        let mut b =
            BlockSim::<u32, _>::with_observer(BankModel::new(4), u, 16, Recorder::default());
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            let v = lane.ld_global(&data, tid);
            lane.st(tid, v);
            let _ = lane.ld(tid);
            lane.st_global(&mut out, tid, v);
            lane.alu(1);
        });
        b.alu_phase(PhaseClass::RegisterOps, 2);
        let (_, Recorder(got)) = b.finish();

        let mut want = vec!["begin_block 4 8 16".to_string(), "phase_begin LoadTile".into()];
        for warp in 0..u / w {
            want.push(format!("warp_begin {warp}"));
            for tid in warp * w..(warp + 1) * w {
                want.extend([
                    format!("global_access {tid} {tid} false"),
                    format!("shared_access {tid} {tid} true"),
                    format!("drops_store {tid}"),
                    format!("shared_st_mask {tid} {tid}"),
                    format!("shared_access {tid} {tid} false"),
                    format!("shared_ld_mask {tid} {tid}"),
                    format!("global_access {tid} {tid} true"),
                    format!("drops_store {tid}"),
                    format!("global_st_mask {tid} {tid}"),
                ]);
            }
            want.push(format!("warp_end {warp} LoadTile"));
            // Round 0 stores then round 1 loads in shared memory; round
            // 0 loads then round 1 stores in global memory.
            for kind in ["shared_round", "global_round"] {
                want.extend((0..2).map(|round| format!("{kind} {warp} {round}")));
            }
        }
        want.extend(["alu LoadTile 8", "phase_end LoadTile"].map(String::from));
        want.extend(
            ["phase_begin RegisterOps", "alu RegisterOps 16", "phase_end RegisterOps"]
                .map(String::from),
        );
        assert_eq!(got, want);
        assert_eq!(out, data);
    }
}
