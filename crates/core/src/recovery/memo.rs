//! One kernel launch, and its exact block memoisation.
//!
//! A [`Launch`] holds everything the blocks of one kernel launch share:
//! its index and name, each block's job and expected checksum, its
//! launch kind, and its memo (representatives, oblivious share and shape
//! entries). Its one [`execute`](Launch::execute) decides how a block runs. A watched
//! block (traced, checked or fault-armed) is simulated under its
//! observer. An unwatched one is replayed, simulated lean or simulated in
//! full, and a sampled one is checked against what the memo holds.
//!
//! Both kernels are comparison-based: every shared and global address a
//! block issues, and so its whole [`KernelProfile`], is fixed by the
//! outcomes of its key comparisons plus the global sector alignment of
//! the slices it loads. Two blocks of one launch whose comparisons all
//! come out alike — whose *order types* are equal — therefore have equal
//! profiles, and the second need not be simulated: its sorted output is
//! written natively and the first block's profile is charged.
//!
//! * **Tile**: the order type is the tile's weak order. The block sort
//!   loads and stores tile-relative indices (its `global_base` is
//!   unused), so no alignment term is needed.
//! * **Merge chunk**: the order type is `|A|`, the weak order of `A`
//!   then `B` — for sorted runs, their interleaving in the merged output
//!   with its equal pairs — and `a_begin` and `b_begin` modulo
//!   [`SECTOR_WORDS`]: the load reads absolute indices, and the sectors a
//!   warp round touches shift with their residues.
//!
//! A representative keeps its input keys and profile. A block matches it
//! when it has the same shape (kind, `|A|`, residues) and walking it in
//! the representative's sorted order gives `==` exactly where the
//! representative's did and `<` everywhere else. The representative's
//! argsort is computed the first time a block of its shape also has its
//! adjacent input keys compare as the representative's do; until then
//! that cheaper check stands in front of the walk. Each check fails
//! fast, so a miss costs a few comparisons per representative, and a
//! launch where every block misses sorts nothing. The walk is the
//! block's sorted output, so a hit has written `dst` by the time it is
//! known. Writing it as the output relies on equal keys being
//! interchangeable, which holds for every [`SortKey`] (primitive
//! integers, whose `Ord` equality is identity).
//!
//! A launch keeps at most [`MAX_REPS`] representatives, first come, first
//! kept. Hits at sampled block indices (see [`Launch::execute`]) are
//! re-simulated and must reproduce the cached profile exactly; a mismatch
//! is an invariant violation and panics.
//!
//! ## Carried entries
//!
//! A block's profile depends on its order type and on what its launch
//! hands every block alike: whether it is a tile or a merge chunk, the
//! key type, and the [`KernelArgs`] (`(E, u)`, strategy, bank model,
//! `count_accesses`). Together those are the launch's [`LaunchKind`].
//! The driver's [`Session`](super::session::Session) keeps one carried
//! entry per kind beside its stripe and spare key buffers, and hands a
//! launch that carries the session's [`CarriedEntries`]. The launch
//! starts from its kind's entry: its representatives fill the first
//! slots, so first come, first kept starts from them, and its oblivious
//! share and shape entries are the launch's from the start.
//! [`Launch::finish`] leaves the launch's own entry: the representatives
//! that replayed at least one of its blocks, shared by [`Arc`] and never
//! cloned, then, while a slot is free, the first one the launch recorded
//! that replayed nothing, its oblivious share and its shape entries. Any
//! other representative that replays nothing in a launch is dropped with
//! it. The one kept is a ragged input's sentinel-padded last tile, which
//! no other tile of its sort replays but the tile of a repeated sort
//! does; on a random input it is one tile of keys that replays nothing.
//! The sampling rule does not change: sampled blocks check carried
//! profiles, a carried share and carried shape entries exactly as they
//! check the launch's own. The driver lets a launch carry only if its
//! every block runs unwatched, so traced, checked and fault-armed
//! launches neither read nor write an entry. A session's entries live as
//! long as the session: at most one per kind it has launched, each of at
//! most [`MAX_REPS`] blocks' keys and [`MAX_SHAPES`] shape entries.
//!
//! ## Lean misses
//!
//! A block the memo cannot replay is simulated, but not all of it needs
//! pricing. The kernels run the phases whose addresses never depend on a
//! key as oblivious phases (see `BlockSim::oblivious_phase`), and their
//! counters, the block's *oblivious share*, are equal in every block of a
//! launch kind. The launch keeps the share it carried in, or else that of
//! its first fully simulated block. Every later miss the sampling rule
//! does not pick runs under a [`Lean`] observer: its oblivious phases
//! move data and keep the race detector on but record and charge nothing,
//! and the cached share is added to its profile.
//!
//! The merge pass's tile load is a shape phase (`BlockSim::shape_phase`):
//! its counters are fixed by the chunk's [`Shape`], `|A|` and the sector
//! residues of `a_begin` and `b_begin`, and equal in every block of the
//! kind with that shape. The launch keeps one *shape entry* per shape it
//! has seen, first come, first kept up to [`MAX_SHAPES`]: the load's
//! counters as `u32`s under their class, 40 bytes, not a whole
//! [`KernelProfile`]. A lean miss whose shape has an entry also runs its
//! load unrecorded and unpriced and is charged the entry. A lean miss of
//! a new shape prices its load as before and leaves the entry, so a sort
//! that meets each shape once costs what it did without entries. A
//! random input replays no block, so in a repeated sort of one almost
//! every merge chunk runs this way.
//!
//! Every sampled block, hit or miss, runs in full under [`ObliviousShare`]
//! and panics unless its share equals the cached one and its load's
//! counters equal its shape's entry. Debug builds also re-simulate every
//! lean block in full and panic unless the two profiles agree.

use super::session::entry;
use super::{stripe_width, BlockJob, KernelArgs};
use crate::sort::key::SortKey;
use crate::verify::StripeChecksums;
use cfmerge_gpu_sim::global::SECTOR_WORDS;
use cfmerge_gpu_sim::observer::Observer;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass, PhaseCounters};
use cfmerge_json::ToJson;
use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{self, AtomicBool};
use std::sync::{Arc, OnceLock, RwLock};

/// Representatives one launch keeps.
const MAX_REPS: usize = 4;

/// Every hit at a block index `≡ SAMPLE_EVERY − 1 (mod SAMPLE_EVERY)` is
/// re-simulated.
const SAMPLE_EVERY: usize = 64;

/// Shape entries one launch kind keeps.
const MAX_SHAPES: usize = 4096;

/// The observer of a fully simulated unwatched block: passive, but
/// collecting the block's oblivious share and its shape phases' counters.
#[derive(Default)]
pub(crate) struct ObliviousShare {
    pub(crate) share: KernelProfile,
    shape: ShapeCounters,
}

impl Observer for ObliviousShare {
    fn oblivious_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        self.share.phase_mut(class).add(counters);
    }

    fn shape_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        self.shape.add(class, counters);
    }
}

/// The observer of a lean block: its shape phases run unpriced too if
/// `SHAPE`, and are priced and collected if not.
#[derive(Default)]
struct Lean<const SHAPE: bool>(ShapeCounters);

impl<const SHAPE: bool> Observer for Lean<SHAPE> {
    const LEAN: bool = true;
    const LEAN_SHAPE: bool = SHAPE;

    fn shape_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        self.0.add(class, counters);
    }
}

/// The counters of a block's shape phases, which share one class.
#[derive(Default)]
struct ShapeCounters(Option<(PhaseClass, PhaseCounters)>);

impl ShapeCounters {
    fn add(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        match &mut self.0 {
            None => self.0 = Some((class, *counters)),
            Some((c, sum)) => {
                assert_eq!(*c, class, "a block's shape phases share one class");
                sum.add(counters);
            }
        }
    }
}

/// A shape entry: the counters a block of the shape charged in its shape
/// phases, under their class, each as a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeLoad {
    class: PhaseClass,
    counters: [u32; 9],
}

impl ShapeLoad {
    /// The entry for `counters`; `None` if a block has no shape phase or a
    /// counter does not fit in a `u32`.
    fn of(counters: ShapeCounters) -> Option<Self> {
        let (class, c) = counters.0?;
        let PhaseCounters {
            shared_ld_requests,
            shared_ld_transactions,
            shared_st_requests,
            shared_st_transactions,
            global_ld_requests,
            global_ld_sectors,
            global_st_requests,
            global_st_sectors,
            alu_ops,
        } = c;
        let wide = [
            shared_ld_requests,
            shared_ld_transactions,
            shared_st_requests,
            shared_st_transactions,
            global_ld_requests,
            global_ld_sectors,
            global_st_requests,
            global_st_sectors,
            alu_ops,
        ];
        let mut counters = [0; 9];
        for (narrow, wide) in counters.iter_mut().zip(wide) {
            *narrow = u32::try_from(wide).ok()?;
        }
        Some(ShapeLoad { class, counters })
    }

    /// Charge the entry to `profile`.
    fn charge(&self, profile: &mut KernelProfile) {
        let [a, b, c, d, e, f, g, h, i] = self.counters.map(u64::from);
        profile.phase_mut(self.class).add(&PhaseCounters {
            shared_ld_requests: a,
            shared_ld_transactions: b,
            shared_st_requests: c,
            shared_st_transactions: d,
            global_ld_requests: e,
            global_ld_sectors: f,
            global_st_requests: g,
            global_st_sectors: h,
            alu_ops: i,
        });
    }
}

/// Everything a block's profile depends on besides its order type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaunchKind {
    /// Tiles of the block sort, or merge chunks.
    tiles: bool,
    key: TypeId,
    args: KernelArgs,
}

/// What a launch leaves the next launch of its kind.
#[derive(Default)]
struct Carried<K> {
    /// The representatives that replayed at least one block.
    reps: [Option<Arc<Rep<K>>>; MAX_REPS],
    share: Option<KernelProfile>,
    shapes: HashMap<Shape, ShapeLoad>,
}

/// Each launch kind's carried entry: a `Carried<K>` for the kind's key
/// type `K`.
#[derive(Default)]
pub(crate) struct CarriedEntries {
    kinds: Vec<(LaunchKind, Box<dyn Any>)>,
    /// Every block simulation of the launches finished since the last
    /// [`take_simulated`](Self::take_simulated).
    #[cfg(test)]
    simulated: Vec<(usize, Pricing)>,
}

/// One kernel launch: what its blocks share, and its memo.
pub(crate) struct Launch<K> {
    /// Launch index in the fault plan's numbering: 0 is the block sort,
    /// `1 + p` merge pass `p`.
    pub(crate) kernel: u32,
    pub(crate) name: String,
    args: KernelArgs,
    /// Each block's job.
    jobs: Vec<BlockJob>,
    /// Each block's expected output checksum.
    pub(crate) expected: Vec<u64>,
    /// The kind whose carried entry the launch starts from and leaves;
    /// `None` for a launch that neither reads nor writes one.
    kind: Option<LaunchKind>,
    reps: [OnceLock<Slot<K>>; MAX_REPS],
    /// How many of `reps`' first slots hold carried representatives.
    carried_reps: usize,
    /// The carried oblivious share, or else that of the launch's first
    /// fully simulated block.
    share: OnceLock<KernelProfile>,
    /// The carried shape entries and those of the launch's simulated
    /// blocks, first come, first kept up to [`MAX_SHAPES`].
    shapes: RwLock<HashMap<Shape, ShapeLoad>>,
    /// Every block simulation of the launch, in order.
    #[cfg(test)]
    simulated: std::sync::Mutex<Vec<(usize, Pricing)>>,
}

/// A representative in one launch.
struct Slot<K> {
    rep: Arc<Rep<K>>,
    /// Whether it replayed a block of this launch.
    replayed: AtomicBool,
}

/// What a block must share with a representative before its keys are
/// compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Tile,
    Merge { a_len: u32, a_phase: u8, b_phase: u8 },
}

/// A simulated block.
struct Rep<K> {
    shape: Shape,
    /// The block's input: its tile, or its chunk's `A` then `B`.
    keys: Vec<K>,
    /// The weak order of `keys`, computed when a block first gets past
    /// the shape and adjacent-pair checks.
    order: OnceLock<WeakOrder>,
    profile: KernelProfile,
}

/// A weak order on input positions.
struct WeakOrder {
    /// Positions in sorted order.
    perm: Vec<u32>,
    /// `ties[i]`: sorted positions `i` and `i + 1` hold equal keys.
    ties: Vec<bool>,
}

impl<K: SortKey> Launch<K> {
    /// Launch `kernel` of `jobs` over `src`. Each block's expected
    /// checksum is read off `stripes`, the stripe checksums of `src`,
    /// which this turns into their prefix sums. A launch given `carried`
    /// starts from its kind's entry there, and [`finish`](Self::finish)
    /// leaves it.
    pub(crate) fn new(
        kernel: u32,
        args: KernelArgs,
        jobs: Vec<BlockJob>,
        src: &[K],
        stripes: &mut [u64],
        carried: Option<&mut CarriedEntries>,
    ) -> Self {
        let tile = args.tile();
        let sums = StripeChecksums::from_stripes(stripe_width(tile), stripes);
        let expected = jobs.iter().map(|j| j.expected_checksum(src, tile, &sums)).collect();
        let kind = LaunchKind { tiles: kernel == 0, key: TypeId::of::<K>(), args };
        let (kind, Carried { reps, share, shapes }) = match carried {
            Some(c) => (Some(kind), std::mem::take(entry(&mut c.kinds, kind))),
            None => (None, Carried::default()),
        };
        let carried_reps = reps.iter().flatten().count();
        let slot = |rep| Slot { rep, replayed: AtomicBool::new(false) };
        let reps = reps.map(|rep| rep.map(slot).map_or_else(OnceLock::new, OnceLock::from));
        let name = kernel.checked_sub(1).map_or("blocksort".into(), |p| format!("merge-pass-{p}"));
        let share = share.map_or_else(OnceLock::new, OnceLock::from);
        Self {
            kernel,
            name,
            args,
            jobs,
            expected,
            kind,
            reps,
            carried_reps,
            share,
            shapes: RwLock::new(shapes),
            #[cfg(test)]
            simulated: Default::default(),
        }
    }

    /// End the launch: leave its kind's entry in `carried`, if it has a
    /// kind.
    pub(crate) fn finish(self, carried: &mut CarriedEntries) {
        #[cfg(test)]
        carried.simulated.extend(self.simulated.into_inner().expect("no block panicked"));
        let Some(kind) = self.kind else {
            return;
        };
        let slots = self.reps.map(OnceLock::into_inner);
        let replayed = |slot: &&Slot<K>| slot.replayed.load(atomic::Ordering::Relaxed);
        let recorded = slots[self.carried_reps..].iter().flatten().filter(|s| !replayed(s));
        let mut kept = (slots.iter().flatten().filter(replayed).chain(recorded.take(1)))
            .map(|slot| Arc::clone(&slot.rep));
        let reps = std::array::from_fn(|_| kept.next());
        let share = self.share.into_inner();
        let shapes = self.shapes.into_inner().expect("no block panicked");
        *entry(&mut carried.kinds, kind) = Carried { reps, share, shapes };
    }

    /// Run block `block` of the launch into `dst` under `observer`. A
    /// watched block (any observer but `Passive`) is simulated. An
    /// unwatched one is replayed if a representative shares its order
    /// type, else simulated and kept as a representative while there is
    /// room. A hit at a sampled index (one block in [`SAMPLE_EVERY`], and
    /// the launch's last) is simulated too, and panics unless it
    /// reproduces the cached profile. An unsampled miss runs lean once the
    /// launch's oblivious share is known (see the module docs).
    pub(crate) fn execute<O: Observer>(
        &self,
        block: usize,
        src: &[K],
        dst: &mut [K],
        observer: O,
    ) -> (KernelProfile, O) {
        let job = self.jobs[block];
        if !O::PASSIVE {
            return self.args.execute(job, src, dst, observer);
        }
        let sampled = block % SAMPLE_EVERY == SAMPLE_EVERY - 1 || block + 1 == self.jobs.len();
        let cached = self.replay(job, src, dst);
        if let Some(cached) = cached.filter(|_| !sampled) {
            return (cached.clone(), observer);
        }
        let profile = match self.share.get() {
            Some(share) if cached.is_none() && !sampled => self.lean(block, src, dst, share),
            _ => self.full(block, src, dst),
        };
        match cached {
            Some(cached) if *cached != profile => panic!(
                "block memo invariant violated: {} block {block} re-simulated to a profile \
                 that differs from its order type's cached one at {}",
                self.name,
                first_difference(cached, &profile)
            ),
            Some(_) => {}
            None => self.record(job, src, &profile),
        }
        (profile, observer)
    }

    /// Simulate the block in full; the launch's first such block sets its
    /// oblivious share, and every later one must report the same share
    /// and, if its shape has an entry, the entry's counters.
    fn full(&self, block: usize, src: &[K], dst: &mut [K]) -> KernelProfile {
        let (profile, ObliviousShare { share, shape }) =
            self.simulate(block, src, dst, ObliviousShare::default());
        let cached = self.share.get_or_init(|| share.clone());
        if *cached != share {
            panic!(
                "oblivious share invariant violated: {} block {block} reported an oblivious \
                 share that differs from the launch's cached one at {}",
                self.name,
                first_difference(cached, &share)
            );
        }
        self.check_shape(block, shape);
        profile
    }

    /// Simulate the block lean and charge it the launch's oblivious share.
    /// If its shape has an entry, its shape phases run unpriced too and it
    /// is charged the entry; else they are priced and leave the entry.
    fn lean(&self, block: usize, src: &[K], dst: &mut [K], share: &KernelProfile) -> KernelProfile {
        let shape = shape_of(self.jobs[block]);
        let load = self.shapes.read().expect("no block panicked").get(&shape).copied();
        let mut profile = match load {
            Some(load) => {
                let (mut profile, _) = self.simulate(block, src, dst, Lean::<true>::default());
                load.charge(&mut profile);
                profile
            }
            None => {
                let (profile, Lean(counters)) =
                    self.simulate(block, src, dst, Lean::<false>::default());
                self.check_shape(block, counters);
                profile
            }
        };
        profile.merge(share);
        if cfg!(debug_assertions) {
            let mut full_dst = vec![K::default(); dst.len()];
            let (full, _) = self.simulate(block, src, &mut full_dst, ObliviousShare::default());
            assert!(full_dst == dst, "lean {} block {block} wrote other output", self.name);
            assert!(
                full == profile,
                "lean block invariant violated: {} block {block} plus the oblivious share \
                 differs from its full simulation at {}",
                self.name,
                first_difference(&profile, &full)
            );
        }
        profile
    }

    /// Check what a block's shape phases charged against its shape's
    /// entry, or leave it as the entry while the launch has room.
    fn check_shape(&self, block: usize, counters: ShapeCounters) {
        let Some(load) = ShapeLoad::of(counters) else {
            return;
        };
        let shape = shape_of(self.jobs[block]);
        let cached = self.shapes.read().expect("no block panicked").get(&shape).copied();
        match cached {
            Some(cached) if cached != load => {
                let (mut want, mut got) = (KernelProfile::new(), KernelProfile::new());
                cached.charge(&mut want);
                load.charge(&mut got);
                panic!(
                    "shape entry invariant violated: {} block {block} charged its shape phases \
                     other counters than its shape's entry at {}",
                    self.name,
                    first_difference(&want, &got)
                );
            }
            Some(_) => {}
            None => {
                let mut shapes = self.shapes.write().expect("no block panicked");
                if shapes.len() < MAX_SHAPES {
                    // A concurrent block may have left it: first come,
                    // first kept.
                    shapes.entry(shape).or_insert(load);
                }
            }
        }
    }

    /// Simulate the unwatched block under `observer`, [`ObliviousShare`]
    /// or [`Lean`].
    fn simulate<P: Observer>(
        &self,
        block: usize,
        src: &[K],
        dst: &mut [K],
        observer: P,
    ) -> (KernelProfile, P) {
        #[cfg(test)]
        self.simulated.lock().expect("no block panicked").push((block, Pricing::of::<P>()));
        self.args.execute(self.jobs[block], src, dst, observer)
    }

    /// The profile of a representative `job` shares an order type with,
    /// having written `job`'s sorted output to `dst`; `None` on a miss
    /// (`dst` then holds partial junk the simulation overwrites).
    fn replay(&self, job: BlockJob, src: &[K], dst: &mut [K]) -> Option<&KernelProfile> {
        let (shape, a, b) = block_input(job, src, self.args.tile());
        let slot =
            self.reps.iter().map_while(OnceLock::get).find(|s| s.rep.replays(shape, a, b, dst))?;
        slot.replayed.store(true, atomic::Ordering::Relaxed);
        Some(&slot.rep.profile)
    }

    /// Keep a simulated block as a representative while there is room.
    fn record(&self, job: BlockJob, src: &[K], profile: &KernelProfile) {
        if let Some(slot) = self.reps.iter().find(|slot| slot.get().is_none()) {
            let (shape, a, b) = block_input(job, src, self.args.tile());
            let keys = [a, b].concat();
            let rep = Rep { shape, keys, order: OnceLock::new(), profile: profile.clone() };
            // A concurrent block may have taken the slot: first come,
            // first kept.
            let _ = slot.set(Slot { rep: Arc::new(rep), replayed: AtomicBool::new(false) });
        }
    }
}

/// A block's shape.
fn shape_of(job: BlockJob) -> Shape {
    match job {
        BlockJob::Tile(_) => Shape::Tile,
        BlockJob::Merge(m) => {
            let phase = |at: usize| (at % SECTOR_WORDS as usize) as u8;
            let a_len = u32::try_from(m.a_len()).expect("a chunk is at most a tile");
            Shape::Merge { a_len, a_phase: phase(m.a_begin), b_phase: phase(m.b_begin) }
        }
    }
}

/// A block's shape and its input as one or two slices.
fn block_input<K>(job: BlockJob, src: &[K], tile: usize) -> (Shape, &[K], &[K]) {
    let shape = shape_of(job);
    match job {
        BlockJob::Tile(lo) => (shape, &src[lo..lo + tile], &[]),
        BlockJob::Merge(m) => (shape, &src[m.a_begin..m.a_end], &src[m.b_begin..m.b_end]),
    }
}

impl<K: SortKey> Rep<K> {
    /// Whether the block with input `a` then `b` has this order type;
    /// writes its sorted output to `dst` on the way.
    fn replays(&self, shape: Shape, a: &[K], b: &[K], dst: &mut [K]) -> bool {
        let key = |i: usize| if i < a.len() { a[i] } else { b[i - a.len()] };
        let adjacent_alike = || {
            let rep = self.keys.windows(2).map(|p| p[0].cmp(&p[1]));
            (1..self.keys.len()).map(|i| key(i - 1).cmp(&key(i))).eq(rep)
        };
        if shape != self.shape || a.len() + b.len() != self.keys.len() {
            return false;
        }
        // The adjacent-pair check only guards the argsort: once that
        // exists, the walk fails just as fast on its own.
        let order = match self.order.get() {
            Some(order) => order,
            None if adjacent_alike() => self.order.get_or_init(|| WeakOrder::of(&self.keys)),
            None => return false,
        };
        walk(order.perm.iter().map(|&i| key(i as usize)), &order.ties, dst)
    }
}

impl WeakOrder {
    fn of<K: Ord>(keys: &[K]) -> WeakOrder {
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| &keys[i as usize]);
        let ties = perm.windows(2).map(|p| keys[p[0] as usize] == keys[p[1] as usize]).collect();
        WeakOrder { perm, ties }
    }
}

/// Copy `seq` into `dst` while checking that each adjacent pair compares
/// `==` where `ties` says so and `<` everywhere else; stops at the first
/// pair that does not.
fn walk<K: Ord + Copy>(mut seq: impl Iterator<Item = K>, ties: &[bool], dst: &mut [K]) -> bool {
    let Some((first, rest)) = dst.split_first_mut() else {
        return true;
    };
    let Some(mut prev) = seq.next() else {
        return false;
    };
    *first = prev;
    for ((slot, next), &tie) in rest.iter_mut().zip(seq).zip(ties) {
        let want = if tie { Ordering::Equal } else { Ordering::Less };
        if prev.cmp(&next) != want {
            return false;
        }
        *slot = next;
        prev = next;
    }
    true
}

/// The first phase and counter at which two profiles differ.
fn first_difference(cached: &KernelProfile, simulated: &KernelProfile) -> String {
    for class in PhaseClass::all() {
        let (c, s) = (cached.phase(class).to_json(), simulated.phase(class).to_json());
        let pairs = c.as_obj().unwrap_or_default().iter().zip(s.as_obj().unwrap_or_default());
        for ((counter, cv), (_, sv)) in pairs {
            if cv != sv {
                return format!(
                    "phase {} counter {counter} (cached {cv}, simulated {sv})",
                    class.label()
                );
            }
        }
    }
    "the merge degree histogram".to_string()
}

/// How a block was simulated, as a test build logs it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pricing {
    /// Every phase recorded and priced.
    Full,
    /// The oblivious phases unrecorded and unpriced.
    Lean,
    /// The oblivious and the shape phases unrecorded and unpriced.
    LeanShape,
}

#[cfg(test)]
impl Pricing {
    fn of<P: Observer>() -> Self {
        match (P::LEAN, P::LEAN_SHAPE) {
            (_, true) => Pricing::LeanShape,
            (true, false) => Pricing::Lean,
            (false, false) => Pricing::Full,
        }
    }
}

#[cfg(test)]
impl CarriedEntries {
    /// Every block simulation of the launches finished since the last
    /// call, in order: the block's index in its launch and how it was
    /// priced (a debug build simulates each lean block twice).
    pub(crate) fn take_simulated(&mut self) -> Vec<(usize, Pricing)> {
        std::mem::take(&mut self.simulated)
    }

    /// The entries for key type `K`: each kind, the addresses of its
    /// representatives, its share, and its number of shape entries.
    pub(crate) fn of_key<K: SortKey>(
        &self,
    ) -> Vec<(LaunchKind, Vec<usize>, Option<KernelProfile>, usize)> {
        let carried = (self.kinds.iter())
            .filter_map(|(kind, c)| Some((kind, c.downcast_ref::<Carried<K>>()?)));
        carried
            .map(|(kind, c)| {
                let reps = c.reps.iter().flatten().map(|rep| Arc::as_ptr(rep) as usize).collect();
                (*kind, reps, c.share.clone(), c.shapes.len())
            })
            .collect()
    }
}

#[cfg(test)]
impl LaunchKind {
    /// Whether the kind's blocks are tiles of the block sort.
    pub(crate) fn tiles(&self) -> bool {
        self.tiles
    }
}

/// Hooks that doctor what a launch has cached.
#[cfg(test)]
impl<K> Launch<K> {
    /// The profile of the representative in `slot`, which no other launch
    /// shares yet.
    pub(crate) fn rep_profile_mut(&mut self, slot: usize) -> &mut KernelProfile {
        let slot = self.reps[slot].get_mut().expect("a representative in the slot");
        &mut Arc::get_mut(&mut slot.rep).expect("held by this launch alone").profile
    }

    /// The launch's cached oblivious share.
    pub(crate) fn share_mut(&mut self) -> &mut KernelProfile {
        self.share.get_mut().expect("a cached share")
    }

    /// Add one to the ALU count of every shape entry of the launch.
    pub(crate) fn doctor_shapes(&mut self) {
        for load in self.shapes.get_mut().expect("no block panicked").values_mut() {
            load.counters[8] += 1;
        }
    }

    /// Every block simulation of the launch since the last call.
    pub(crate) fn take_simulated(&self) -> Vec<(usize, Pricing)> {
        std::mem::take(&mut self.simulated.lock().expect("no block panicked"))
    }
}
