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
use crate::check::{MemCheck, NoCheck};
use crate::fault::{FaultInjector, FaultWord, NoFaults};
use crate::global::sectors_touched;
use crate::profiler::{KernelProfile, PhaseClass};
use crate::trace::{GlobalRoundEvent, NullTracer, SharedRoundEvent, Tracer};

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

    #[inline]
    fn push(&mut self, lane: usize, acc: A, store: bool) {
        let w = self.lens.len();
        let r = self.lens[lane];
        if r == self.stores.len() {
            self.add_round();
        }
        self.slots[r * w + lane] = acc;
        if store {
            self.stores[r] |= 1 << lane;
        }
        self.lens[lane] = r + 1;
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
/// The second type parameter is the [`Tracer`] observing execution; the
/// default [`NullTracer`] compiles its hooks away entirely, so untraced
/// blocks are identical to the pre-tracing engine. The third is the
/// [`MemCheck`] hazard checker (see [`crate::check`]); the default
/// [`NoCheck`] likewise vanishes at compile time, leaving the built-in
/// panic-on-race asserts in force. The fourth is the [`FaultInjector`]
/// corrupting execution (see [`crate::fault`]); the default [`NoFaults`]
/// also compiles away, so an un-injected block is bit-identical to the
/// pre-fault engine.
pub struct BlockSim<
    T: Copy,
    Tr: Tracer = NullTracer,
    Ck: MemCheck = NoCheck,
    Fi: FaultInjector = NoFaults,
> {
    banks: BankModel,
    /// Threads per block (`u` in the paper; must be a multiple of `w`).
    u: usize,
    shared: Vec<T>,
    write_epoch: Vec<u32>,
    write_lane: Vec<u32>,
    epoch: u32,
    /// Accumulated counters for this block.
    pub profile: KernelProfile,
    counting: bool,
    tracer: Tr,
    checker: Ck,
    injector: Fi,
    /// XOR-corruption applier: identity unless built via [`Self::with_faults`],
    /// which keeps `T: Copy + Default` users free of any bits-conversion
    /// bound while letting faulted blocks flip bits in any [`FaultWord`].
    flip: fn(T, u64) -> T,
    // The current warp's accesses, reused by every warp of every phase.
    shared_rounds: WarpRounds<u32>,
    global_rounds: WarpRounds<u64>,
}

impl<T: Copy + Default> BlockSim<T> {
    /// New untraced block: `u` threads, shared memory of `shared_len`
    /// words, warp width / bank count from `banks`.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn new(banks: BankModel, u: usize, shared_len: usize) -> Self {
        Self::with_tracer(banks, u, shared_len, NullTracer)
    }
}

impl<T: Copy + Default, Tr: Tracer> BlockSim<T, Tr> {
    /// New block observed by `tracer` (see [`crate::trace`]).
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn with_tracer(banks: BankModel, u: usize, shared_len: usize, tracer: Tr) -> Self {
        Self::with_checker(banks, u, shared_len, tracer, NoCheck)
    }
}

impl<T: Copy + Default, Tr: Tracer, Ck: MemCheck> BlockSim<T, Tr, Ck> {
    /// New block observed by `tracer` and audited by `checker` (see
    /// [`crate::check`]). An *active* checker replaces the engine's
    /// panicking race asserts: hazards become recorded findings and the
    /// kernel runs to completion.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn with_checker(
        banks: BankModel,
        u: usize,
        shared_len: usize,
        tracer: Tr,
        checker: Ck,
    ) -> Self {
        Self::with_hooks(banks, u, shared_len, tracer, checker, NoFaults, |v, _| v)
    }
}

impl<T: Copy + Default + FaultWord, Tr: Tracer, Ck: MemCheck, Fi: FaultInjector>
    BlockSim<T, Tr, Ck, Fi>
{
    /// New block corrupted by `injector` (see [`crate::fault`]), observed
    /// by `tracer` and audited by `checker`. Requires `T: FaultWord` so
    /// the injector's XOR masks can be applied to stored/loaded values —
    /// the only constructor with that bound.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width, or if
    /// the warp is wider than [`MAX_BANKS`] lanes.
    #[must_use]
    pub fn with_faults(
        banks: BankModel,
        u: usize,
        shared_len: usize,
        tracer: Tr,
        checker: Ck,
        injector: Fi,
    ) -> Self {
        Self::with_hooks(banks, u, shared_len, tracer, checker, injector, |v, m| {
            if m == 0 {
                v
            } else {
                T::from_fault_bits(v.to_fault_bits() ^ m)
            }
        })
    }
}

impl<T: Copy + Default, Tr: Tracer, Ck: MemCheck, Fi: FaultInjector> BlockSim<T, Tr, Ck, Fi> {
    fn with_hooks(
        banks: BankModel,
        u: usize,
        shared_len: usize,
        tracer: Tr,
        mut checker: Ck,
        mut injector: Fi,
        flip: fn(T, u64) -> T,
    ) -> Self {
        let w = banks.num_banks as usize;
        assert!(w <= MAX_BANKS, "BlockSim supports at most {MAX_BANKS} lanes per warp, got {w}");
        assert!(u > 0 && u.is_multiple_of(w), "u={u} must be a positive multiple of w={w}");
        checker.begin_block(w, u, shared_len);
        injector.begin_block(w, u, shared_len);
        Self {
            banks,
            u,
            shared: vec![T::default(); shared_len],
            write_epoch: vec![0; shared_len],
            write_lane: vec![u32::MAX; shared_len],
            epoch: 0,
            profile: KernelProfile::new(),
            counting: true,
            tracer,
            checker,
            injector,
            flip,
            shared_rounds: WarpRounds::new(w),
            global_rounds: WarpRounds::new(w),
        }
    }
}

impl<T: Copy, Tr: Tracer, Ck: MemCheck, Fi: FaultInjector> BlockSim<T, Tr, Ck, Fi> {
    /// The tracer observing this block.
    #[must_use]
    pub fn tracer(&self) -> &Tr {
        &self.tracer
    }

    /// Consume the block and return its tracer (for recorders).
    #[must_use]
    pub fn into_tracer(self) -> Tr {
        self.tracer
    }

    /// The checker auditing this block.
    #[must_use]
    pub fn checker(&self) -> &Ck {
        &self.checker
    }

    /// Consume the block and return its checker (for its findings).
    #[must_use]
    pub fn into_checker(self) -> Ck {
        self.checker
    }

    /// The fault injector corrupting this block.
    #[must_use]
    pub fn injector(&self) -> &Fi {
        &self.injector
    }

    /// Consume the block and return its injector (for forensic records).
    #[must_use]
    pub fn into_injector(self) -> Fi {
        self.injector
    }

    /// Consume the block, returning its accumulated profile and its three
    /// observers — what a kernel hands back to its launcher.
    #[must_use]
    pub fn finish(self) -> (KernelProfile, Tr, Ck, Fi) {
        (self.profile, self.tracer, self.checker, self.injector)
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
        F: FnMut(usize, &mut LaneCtx<'_, T, Ck, Fi>),
    {
        self.epoch = self.epoch.wrapping_add(1);
        self.tracer.phase_begin(class);
        self.checker.phase_begin(class);
        if Fi::ACTIVE {
            self.injector.phase_begin(class);
        }
        let w = self.warp_width();
        let warps = self.warps();
        let mut alu_total = 0u64;

        for warp in 0..warps {
            self.checker.warp_begin(warp);
            self.shared_rounds.clear();
            self.global_rounds.clear();
            for lane in 0..w {
                let tid = warp * w + lane;
                let mut alu = 0u64;
                {
                    let mut ctx = LaneCtx {
                        shared: &mut self.shared,
                        write_epoch: &mut self.write_epoch,
                        write_lane: &mut self.write_lane,
                        epoch: self.epoch,
                        tid: tid as u32,
                        lane,
                        counting: self.counting,
                        shared_rounds: &mut self.shared_rounds,
                        global_rounds: &mut self.global_rounds,
                        alu: &mut alu,
                        checker: &mut self.checker,
                        injector: &mut self.injector,
                        flip: self.flip,
                    };
                    body(tid, &mut ctx);
                }
                alu_total += alu;
            }
            self.checker.warp_end(warp, class);
            if self.counting {
                self.account_warp(class, warp);
            }
        }
        self.profile.phase_mut(class).alu_ops += alu_total;
        if alu_total > 0 {
            self.tracer.alu(class, alu_total);
        }
        self.tracer.phase_end(class);
        self.checker.phase_end(class);
        if Fi::ACTIVE {
            self.injector.phase_end();
        }
    }

    /// Convenience: run a phase with no memory side effects, charging only
    /// `alu` operations per thread (e.g. register-space sorting networks).
    pub fn alu_phase(&mut self, class: PhaseClass, ops_per_thread: u64) {
        let ops = ops_per_thread * self.u as u64;
        self.profile.phase_mut(class).alu_ops += ops;
        self.tracer.phase_begin(class);
        self.checker.phase_begin(class);
        if Fi::ACTIVE {
            self.injector.phase_begin(class);
        }
        self.tracer.alu(class, ops);
        self.tracer.phase_end(class);
        self.checker.phase_end(class);
        if Fi::ACTIVE {
            self.injector.phase_end();
        }
    }

    /// Cost the current warp's recorded rounds into the profile. A round
    /// whose loads (or stores) come from every lane is costed in place;
    /// a mixed or partial round is split into stack buffers of at most
    /// `w ≤ MAX_BANKS` lanes, so accounting allocates nothing.
    fn account_warp(&mut self, class: PhaseClass, warp: usize) {
        let (banks, tracer, profile) = (&self.banks, &mut self.tracer, &mut self.profile);
        let merging = matches!(class, PhaseClass::Merge | PhaseClass::Gather);
        self.shared_rounds.for_each_round(|round, loads, stores| {
            let ld_cost = banks.round_cost(loads);
            let st_cost = banks.round_cost(stores);
            tracer.shared_round(&SharedRoundEvent {
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
            tracer.global_round(&GlobalRoundEvent {
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
/// With an *active* [`MemCheck`] attached, every access is routed through
/// the checker, which may suppress it (out-of-bounds accesses become
/// findings instead of panics; suppressed loads yield `T::default()`),
/// and the built-in panicking race asserts stand down in favor of the
/// checker's shadow-memory race detection.
///
/// With an *active* [`FaultInjector`] attached, loads and stores may be
/// corrupted (XOR masks) or dropped (lane drop-outs); the traffic is
/// recorded and costed either way — on real hardware a faulted store
/// still occupies its transaction.
pub struct LaneCtx<'a, T: Copy, Ck: MemCheck = NoCheck, Fi: FaultInjector = NoFaults> {
    shared: &'a mut [T],
    write_epoch: &'a mut [u32],
    write_lane: &'a mut [u32],
    epoch: u32,
    tid: u32,
    /// Lane index within the warp.
    lane: usize,
    counting: bool,
    shared_rounds: &'a mut WarpRounds<u32>,
    global_rounds: &'a mut WarpRounds<u64>,
    alu: &'a mut u64,
    checker: &'a mut Ck,
    injector: &'a mut Fi,
    flip: fn(T, u64) -> T,
}

impl<T: Copy + Default, Ck: MemCheck, Fi: FaultInjector> LaneCtx<'_, T, Ck, Fi> {
    /// This thread's id within the block.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// Shared-memory load.
    ///
    /// # Panics
    /// Without an active checker, panics if the word was written by a
    /// *different* lane in the same phase (a missing-barrier race the
    /// hardware would not tolerate either), or on out-of-bounds access.
    /// With one, hazards are recorded as findings instead.
    #[inline(always)]
    #[must_use]
    pub fn ld(&mut self, idx: usize) -> T {
        if Ck::ACTIVE {
            if !self.checker.shared_access(self.tid, idx, false) {
                return T::default();
            }
        } else {
            assert!(
                self.write_epoch[idx] != self.epoch || self.write_lane[idx] == self.tid,
                "race: lane {} loads shared[{idx}] written by lane {} in the same phase \
                 (missing barrier)",
                self.tid,
                self.write_lane[idx],
            );
        }
        if self.counting {
            self.shared_rounds.push(self.lane, idx as u32, false);
        }
        if Fi::ACTIVE {
            let mask = self.injector.shared_ld_mask(self.tid, idx);
            return (self.flip)(self.shared[idx], mask);
        }
        self.shared[idx]
    }

    /// Shared-memory store.
    ///
    /// # Panics
    /// Without an active checker, panics if another lane already wrote
    /// this word in the same phase.
    #[inline(always)]
    pub fn st(&mut self, idx: usize, v: T) {
        if Ck::ACTIVE {
            if !self.checker.shared_access(self.tid, idx, true) {
                return;
            }
        } else {
            assert!(
                self.write_epoch[idx] != self.epoch || self.write_lane[idx] == self.tid,
                "race: lanes {} and {} both store shared[{idx}] in the same phase \
                 (missing barrier)",
                self.write_lane[idx],
                self.tid,
            );
            self.write_epoch[idx] = self.epoch;
            self.write_lane[idx] = self.tid;
        }
        if self.counting {
            self.shared_rounds.push(self.lane, idx as u32, true);
        }
        if Fi::ACTIVE {
            if self.injector.drops_store(self.tid) {
                return; // lane drop-out: traffic costed, data never commits
            }
            let mask = self.injector.shared_st_mask(self.tid, idx);
            self.shared[idx] = (self.flip)(v, mask);
            return;
        }
        self.shared[idx] = v;
    }

    /// Global-memory load from a caller-provided array. The element index
    /// `idx` is recorded for coalescing accounting.
    #[inline(always)]
    #[must_use]
    pub fn ld_global(&mut self, data: &[T], idx: usize) -> T {
        if Ck::ACTIVE && !self.checker.global_access(self.tid, idx, data.len(), false) {
            return T::default();
        }
        if self.counting {
            self.global_rounds.push(self.lane, idx as u64, false);
        }
        data[idx]
    }

    /// Global-memory store into a caller-provided array.
    #[inline(always)]
    pub fn st_global(&mut self, data: &mut [T], idx: usize, v: T) {
        if Ck::ACTIVE && !self.checker.global_access(self.tid, idx, data.len(), true) {
            return;
        }
        if self.counting {
            self.global_rounds.push(self.lane, idx as u64, true);
        }
        if Fi::ACTIVE {
            if self.injector.drops_store(self.tid) {
                return;
            }
            let mask = self.injector.global_st_mask(self.tid, idx);
            data[idx] = (self.flip)(v, mask);
            return;
        }
        data[idx] = v;
    }

    /// Record the *traffic* of a global load at `idx` without moving
    /// data — for kernels that stage their reads/writes outside the
    /// engine (e.g. scatter kernels whose output buffer cannot be
    /// mutably shared across concurrently simulated blocks). No bounds
    /// are known here, so a checker only counts the access.
    pub fn mark_global_ld(&mut self, idx: usize) {
        if Ck::ACTIVE {
            let _ = self.checker.global_access(self.tid, idx, usize::MAX, false);
        }
        if self.counting {
            self.global_rounds.push(self.lane, idx as u64, false);
        }
    }

    /// Record the traffic of a global store at `idx` without writing.
    pub fn mark_global_st(&mut self, idx: usize) {
        if Ck::ACTIVE {
            let _ = self.checker.global_access(self.tid, idx, usize::MAX, true);
        }
        if self.counting {
            self.global_rounds.push(self.lane, idx as u64, true);
        }
    }

    /// Whether this lane's stores are currently dropped by the fault
    /// injector. Kernels that commit their output *outside* the engine
    /// (the [`Self::mark_global_st`] pattern) must consult this
    /// themselves — `st`/`st_global` handle it automatically.
    pub fn store_dropped(&mut self) -> bool {
        Fi::ACTIVE && self.injector.drops_store(self.tid)
    }

    /// Apply the injector's global-store corruption to `v` destined for
    /// element `idx` — the data-path companion to
    /// [`Self::mark_global_st`] for kernels staging writes outside the
    /// engine. Identity when no injector is attached.
    #[must_use]
    pub fn corrupt_global_st(&mut self, idx: usize, v: T) -> T {
        if Fi::ACTIVE {
            let mask = self.injector.global_st_mask(self.tid, idx);
            (self.flip)(v, mask)
        } else {
            v
        }
    }

    /// Charge `n` scalar ALU operations to this lane.
    pub fn alu(&mut self, n: u64) {
        *self.alu += n;
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

    fn checked_block(u: usize, w: u32, len: usize) -> BlockSim<u32, NullTracer, Sanitizer> {
        BlockSim::with_checker(BankModel::new(w), u, len, NullTracer, Sanitizer::new())
    }

    use crate::check::{Hazard, Sanitizer};

    #[test]
    fn sanitizer_records_race_instead_of_panicking() {
        let mut b = checked_block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32); // all lanes store word 5
        });
        let ck = b.into_checker();
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
        let ck = b.into_checker();
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
        assert!(b.checker().is_clean(), "{}", b.checker().report());
    }
}
