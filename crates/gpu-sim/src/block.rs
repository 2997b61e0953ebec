//! Warp-synchronous thread-block execution engine.
//!
//! A kernel is expressed as a sequence of barrier-delimited **phases**; in
//! each phase every thread of the block runs the same per-lane closure.
//! Each lane's shared- and global-memory accesses are recorded as an
//! ordered trace, and traces are aligned *by access index* across the `w`
//! lanes of each warp: the `r`-th shared access of every lane forms the
//! warp's round `r`, exactly the lock-step model of the paper (Section 1,
//! footnote 2: conflict-free warps have no reason to diverge). Shared
//! rounds are priced by the block's [`RowStamps`] table, which gives
//! [`BankModel::round_cost`]'s number without its per-bank lane table,
//! and accumulated into a [`KernelProfile`].
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
//!
//! ## Oblivious phases
//!
//! A phase whose every shared and global address depends only on the
//! thread id and block constants — never on a key — costs the same in
//! every block of a launch. A kernel runs such a phase through
//! [`BlockSim::oblivious_phase`]. Under an ordinary observer it runs
//! exactly as [`BlockSim::phase`] and also reports its counters, ALU
//! included, through [`Observer::oblivious_share`]. Under a
//! [`LEAN`](Observer::LEAN) observer it runs the same closure with
//! recording and pricing off and the race detector on, and charges
//! nothing. So a lean block's profile plus a full block's oblivious share
//! is the full profile, counter for counter.
//!
//! A *shape* phase's addresses may also depend on the block's shape:
//! constants its launcher hands this block alone, such as a merge chunk's
//! `|A|` and the alignment of its slices, but still never a key. It
//! costs the same in every block of a launch with the same shape. A
//! kernel runs such a phase through [`BlockSim::shape_phase`], which
//! works as `oblivious_phase` does, under
//! [`LEAN_SHAPE`](Observer::LEAN_SHAPE) and with
//! [`Observer::shape_share`].

use crate::banks::{BankModel, RowStamps, MAX_BANKS};
use crate::fault::FaultWord;
use crate::global::sectors_touched;
use crate::observer::{Observer, Passive};
use crate::profiler::{KernelProfile, PhaseClass, PhaseCounters};
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

    /// Record `lane`'s access number `r` and return the lane's next
    /// access number. The cursor goes in and out by value, so a lane's
    /// context never lends out the address of one of its fields.
    #[inline(always)]
    fn push(&mut self, lane: usize, r: usize, acc: A, store: bool) -> usize {
        let w = self.lens.len();
        if r == self.stores.len() {
            self.add_round();
        }
        self.slots[r * w + lane] = acc;
        if store {
            self.stores[r] |= 1 << lane;
        }
        r + 1
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
    /// Prices every shared round; one stamp per shared-memory row.
    row_stamps: RowStamps,
    /// Threads per block (`u` in the paper; must be a multiple of `w`).
    u: usize,
    shared: Vec<T>,
    /// Per shared word, the race detector's tag of its last writer: the
    /// writing phase's `epoch_base` plus the writing thread's id.
    write_tags: Vec<u32>,
    /// The current phase's epoch times `u`: its threads' tags are
    /// `epoch_base..epoch_base + u`. Epoch 0, whose tags a fresh or
    /// cleared table holds, is never a phase's.
    epoch_base: u32,
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
        assert!(u <= MAX_THREADS, "BlockSim supports at most {MAX_THREADS} threads, got {u}");
        observer.begin_block(w, u, shared_len);
        Self {
            banks,
            row_stamps: RowStamps::new(&banks, shared_len),
            u,
            shared: vec![T::default(); shared_len],
            write_tags: vec![0; shared_len],
            epoch_base: 0,
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

    /// Start the next phase's epoch. When its tags would pass
    /// `u32::MAX`, every tag is cleared to epoch 0 and the count restarts
    /// at epoch 1, so an old tag can never pass for one of the new
    /// phase's.
    fn next_epoch(&mut self) {
        let u = self.u as u32;
        self.epoch_base = match self.epoch_base.checked_add(u) {
            Some(base) if base.checked_add(u - 1).is_some() => base,
            _ => {
                self.write_tags.fill(0);
                u
            }
        };
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
    pub fn phase<F>(&mut self, class: PhaseClass, body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        self.run_phase(class, true, body);
    }

    /// Run one barrier-delimited phase whose every shared and global
    /// address depends only on `tid` and block constants (see the module
    /// docs). A [`LEAN`](Observer::LEAN) observer's block runs `body`
    /// unrecorded and unpriced; any other block runs it as
    /// [`phase`](Self::phase) does and reports the phase's counters
    /// through [`Observer::oblivious_share`].
    ///
    /// # Panics
    /// Panics if `class` is `Search`, `Merge` or `Gather`: those phases
    /// read keys to choose addresses, and the merge-degree histogram of
    /// the latter two is not part of an oblivious share.
    pub fn oblivious_phase<F>(&mut self, class: PhaseClass, body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        self.run_shared(class, O::LEAN, O::oblivious_share, body);
    }

    /// Run one barrier-delimited phase whose every shared and global
    /// address depends only on `tid`, block constants and the block's
    /// shape (see the module docs). A
    /// [`LEAN_SHAPE`](Observer::LEAN_SHAPE) observer's block runs `body`
    /// unrecorded and unpriced; any other block runs it as
    /// [`phase`](Self::phase) does and reports the phase's counters
    /// through [`Observer::shape_share`].
    ///
    /// # Panics
    /// Panics if `class` is `Search`, `Merge` or `Gather`, as
    /// [`oblivious_phase`](Self::oblivious_phase) does.
    pub fn shape_phase<F>(&mut self, class: PhaseClass, body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        self.run_shared(class, O::LEAN_SHAPE, O::shape_share, body);
    }

    /// Run a phase whose counters other blocks share: unpriced if
    /// `lean`, else priced and reported through `report`.
    #[inline(always)]
    fn run_shared<F>(
        &mut self,
        class: PhaseClass,
        lean: bool,
        report: fn(&mut O, PhaseClass, &PhaseCounters),
        body: F,
    ) where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        assert!(
            !matches!(class, PhaseClass::Search | PhaseClass::Merge | PhaseClass::Gather),
            "a {} phase is never oblivious",
            class.label()
        );
        if lean {
            self.run_phase(class, false, body);
            return;
        }
        let before = std::mem::take(self.profile.phase_mut(class));
        self.run_phase(class, true, body);
        let share = *self.profile.phase(class);
        report(&mut self.observer, class, &share);
        self.profile.phase_mut(class).add(&before);
    }

    /// Run one phase; with `priced` off, record no access and charge no
    /// ALU work. Inlined into each caller so `phase` compiles to the one
    /// loop it was before `oblivious_phase` shared it: as an outlined
    /// call, fully simulated merge-pass blocks ran ~20% slower.
    #[inline(always)]
    fn run_phase<F>(&mut self, class: PhaseClass, priced: bool, mut body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, O>),
    {
        self.next_epoch();
        // Until some thread stores, no word carries this phase's tag, so
        // loads skip the race check.
        let mut stored = false;
        self.observer.phase_begin(class);
        let w = self.warp_width();
        let warps = self.warps();
        let counting = self.counting && priced;
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
                    epoch_base: self.epoch_base,
                    threads: self.u as u32,
                    stored,
                    tid: tid as u32,
                    lane,
                    counting,
                    shared_rounds: &mut self.shared_rounds,
                    shared_cursor: 0,
                    global_rounds: &mut self.global_rounds,
                    global_cursor: 0,
                    alu: 0,
                    observer: &mut self.observer,
                };
                body(tid, &mut ctx);
                let (shared_len, global_len, alu) = (ctx.shared_cursor, ctx.global_cursor, ctx.alu);
                stored = ctx.stored;
                self.shared_rounds.lens[lane] = shared_len;
                self.global_rounds.lens[lane] = global_len;
                alu_total += alu;
            }
            self.observer.warp_end(warp, class);
            if counting {
                self.account_warp(class, warp);
            }
        }
        if priced {
            self.profile.phase_mut(class).alu_ops += alu_total;
            if alu_total > 0 {
                self.observer.alu(class, alu_total);
            }
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
        let (banks, stamps) = (&self.banks, &mut self.row_stamps);
        let (observer, profile) = (&mut self.observer, &mut self.profile);
        let merging = matches!(class, PhaseClass::Merge | PhaseClass::Gather);
        self.shared_rounds.for_each_round(|round, loads, stores| {
            let ld_cost = stamps.price(banks, loads);
            let st_cost = stamps.price(banks, stores);
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
    write_tags: &'a mut [u32],
    /// The current phase's first tag; this lane's is `epoch_base + tid`.
    epoch_base: u32,
    /// Threads per block `u`: the number of tags a phase owns.
    threads: u32,
    /// Whether some thread, this one included, has stored to shared
    /// memory in the current phase.
    stored: bool,
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

/// Most threads a block may have: a phase owns `u` consecutive race
/// tags, and the `u32` tag space holds at least two phases' worth.
const MAX_THREADS: usize = 1 << 24;

impl<T: Copy, O: Observer> LaneCtx<'_, T, O> {
    /// This lane's race tag in the current phase.
    #[inline(always)]
    fn tag(&self) -> u32 {
        self.epoch_base + self.tid
    }

    /// Whether this lane may touch shared word `idx`: no *other* thread
    /// wrote it in the current phase. A word one of the phase's threads
    /// wrote carries a tag in `epoch_base..epoch_base + u`; the second
    /// value is that thread's id.
    #[inline(always)]
    fn may_touch(&self, idx: usize) -> (bool, u32) {
        let writer = self.write_tags[idx].wrapping_sub(self.epoch_base);
        (writer == self.tid || writer >= self.threads, writer)
    }
}

/// The built-in race check's panic for a load by lane `tid` of shared
/// word `idx`, last written by lane `writer` in the same phase. Cold and
/// by value, so the check's hot path formats nothing and takes no
/// address of a [`LaneCtx`] field.
#[cold]
#[inline(never)]
fn load_race(tid: u32, idx: usize, writer: u32) -> ! {
    panic!(
        "race: lane {tid} loads shared[{idx}] written by lane {writer} in the same phase \
         (missing barrier)"
    )
}

/// The built-in race check's panic for a store by lane `tid` to shared
/// word `idx`, already written by lane `writer` in the same phase.
#[cold]
#[inline(never)]
fn store_race(writer: u32, tid: u32, idx: usize) -> ! {
    panic!(
        "race: lanes {writer} and {tid} both store shared[{idx}] in the same phase \
         (missing barrier)"
    )
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
    #[inline(always)]
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
        } else if self.stored {
            let (ok, writer) = self.may_touch(idx);
            if !ok {
                load_race(self.tid, idx, writer);
            }
        }
        if self.counting {
            self.shared_cursor =
                self.shared_rounds.push(self.lane, self.shared_cursor, idx as u32, false);
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
            let (ok, writer) = self.may_touch(idx);
            if !ok {
                store_race(writer, self.tid, idx);
            }
            self.write_tags[idx] = self.tag();
            self.stored = true;
        }
        if self.counting {
            self.shared_cursor =
                self.shared_rounds.push(self.lane, self.shared_cursor, idx as u32, true);
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
            self.global_cursor =
                self.global_rounds.push(self.lane, self.global_cursor, idx as u64, false);
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
            self.global_cursor =
                self.global_rounds.push(self.lane, self.global_cursor, idx as u64, true);
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
            self.global_cursor =
                self.global_rounds.push(self.lane, self.global_cursor, idx as u64, true);
        }
    }

    /// Charge `n` scalar ALU operations to this lane.
    #[inline(always)]
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
    #[should_panic(
        expected = "race: lanes 0 and 1 both store shared[5] in the same phase (missing barrier)"
    )]
    fn same_phase_write_write_race_detected() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32);
        });
    }

    #[test]
    #[should_panic(expected = "race: lane 5 loads shared[0] written by lane 0 in the same phase")]
    fn store_in_one_warp_races_a_later_warps_load() {
        // Warp 0 stores before warp 1 runs; warp 1's lanes have stored
        // nothing themselves, so only the phase-wide flag arms the check.
        let mut b = block(8, 4, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            if tid == 0 {
                lane.st(0, 1);
            }
            if tid == 5 {
                let _ = lane.ld(0);
            }
        });
    }

    /// Run one phase of `b` in the last epoch before its race tags wrap,
    /// each lane storing its own word; the next phase wraps.
    fn last_epoch_before_the_wrap(b: &mut BlockSim<u32>) {
        let u = b.u as u32;
        let last = (u32::MAX - (u - 1)) / u * u;
        b.epoch_base = last - u;
        b.phase(PhaseClass::Other, |tid, lane| lane.st(tid, tid as u32));
        assert_eq!(b.epoch_base, last);
        assert!(last.checked_add(2 * u - 1).is_none(), "no room for another epoch");
    }

    #[test]
    fn race_tags_clear_when_the_epoch_wraps() {
        let mut b = block(8, 8, 32);
        last_epoch_before_the_wrap(&mut b);
        // Word 20 carries lane 0's tag of epoch 1, as if left from the
        // tag count's previous cycle. The first phase after the wrap is
        // epoch 1 again: had the wrap not cleared the table, lane 3's load
        // of word 20 after lane 0's store would look like a race.
        b.write_tags[20] = 8;
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(8 + tid, 1);
            let _ = lane.ld(20);
            assert_eq!(lane.ld((tid + 1) % 8), ((tid + 1) % 8) as u32);
        });
        assert_eq!(b.epoch_base, 8, "the wrap restarts at epoch 1");
        assert_eq!(b.write_tags[20], 0, "the wrap cleared the table");
        assert_eq!(b.write_tags[8..16], (8..16).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(
        expected = "race: lane 3 loads shared[0] written by lane 0 in the same phase (missing barrier)"
    )]
    fn same_phase_race_right_after_the_epoch_wrap_is_detected() {
        let mut b = block(8, 8, 32);
        last_epoch_before_the_wrap(&mut b);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(8 + tid, 1);
            if tid == 0 {
                lane.st(0, 1);
            }
            if tid == 3 {
                let _ = lane.ld(0);
            }
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

    /// Collects the oblivious shares a full block reports.
    #[derive(Default)]
    struct Shares(KernelProfile);

    impl Observer for Shares {
        fn oblivious_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
            self.0.phase_mut(class).add(counters);
        }
    }

    /// Runs oblivious phases lean.
    struct Lean;

    impl Observer for Lean {
        const LEAN: bool = true;
    }

    /// A transpose through shared memory: an oblivious load and store
    /// around one key-dependent phase, all under `class`.
    fn transpose<O: Observer>(observer: O, data: &[u32], out: &mut [u32]) -> (KernelProfile, O) {
        let mut b = BlockSim::with_observer(BankModel::new(4), 8, 32, observer);
        b.oblivious_phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..4 {
                let v = lane.ld_global(data, r * 8 + tid);
                lane.st(tid * 4 + r, v);
                lane.alu(1);
            }
        });
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            // Key-dependent: each thread reads the word its first key names.
            let v = lane.ld(tid * 4);
            let _ = lane.ld(v as usize % 32);
        });
        b.oblivious_phase(PhaseClass::StoreTile, |tid, lane| {
            for r in 0..4 {
                let v = lane.ld(r * 8 + tid);
                lane.st_global(out, r * 8 + tid, v);
            }
        });
        b.finish()
    }

    #[test]
    fn lean_oblivious_phases_move_the_same_data_and_charge_nothing() {
        let data: Vec<u32> = (0..32).map(|i| (i * 7 + 3) % 32).collect();
        let (mut full_out, mut lean_out) = (vec![0u32; 32], vec![0u32; 32]);
        let (full, Shares(share)) = transpose(Shares::default(), &data, &mut full_out);
        let (lean, Lean) = transpose(Lean, &data, &mut lean_out);
        assert_eq!(lean_out, full_out);
        let want: Vec<u32> = (0..32).map(|s| data[s % 4 * 8 + s / 4]).collect();
        assert_eq!(full_out, want);
        // The store share is the whole StoreTile phase; the load share
        // excludes the key-dependent phase's loads under the same class.
        assert_eq!(share.phase(PhaseClass::StoreTile), full.phase(PhaseClass::StoreTile));
        assert_eq!(share.phase(PhaseClass::LoadTile).alu_ops, 32);
        assert_eq!(share.phase(PhaseClass::LoadTile).shared_ld_requests, 0);
        assert_eq!(lean.phase(PhaseClass::LoadTile).shared_ld_requests, 4);
        assert!(lean.phase(PhaseClass::StoreTile).is_zero());
        let mut rebuilt = lean;
        rebuilt.merge(&share);
        assert_eq!(rebuilt, full);
    }

    #[test]
    #[should_panic(expected = "missing barrier")]
    fn lean_oblivious_phases_keep_the_race_detector() {
        let mut b = BlockSim::<u32, _>::with_observer(BankModel::new(8), 8, 32, Lean);
        b.oblivious_phase(PhaseClass::StoreTile, |tid, lane| lane.st(0, tid as u32));
    }

    #[test]
    #[should_panic(expected = "a gather phase is never oblivious")]
    fn key_dependent_classes_are_never_oblivious() {
        block(8, 8, 32).oblivious_phase(PhaseClass::Gather, |_, _| {});
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
