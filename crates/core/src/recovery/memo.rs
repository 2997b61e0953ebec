//! One kernel launch, and its exact block memoisation.
//!
//! A [`Launch`] holds everything the blocks of one kernel launch share:
//! its index and name, each block's job and expected checksum, its
//! launch kind, and its memo (representatives and oblivious share). Its
//! one [`execute`](Launch::execute) decides how a block runs. A watched
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
//! share is the launch's from the start. [`Launch::finish`] leaves the
//! launch's own entry: the representatives that replayed at least one of
//! its blocks, shared by [`Arc`] and never cloned, and its oblivious
//! share. A representative that replays nothing in a launch is dropped
//! with it. The sampling rule does not change: sampled blocks check
//! carried profiles and a carried share exactly as they check the
//! launch's own. The driver lets a launch carry only if its every block
//! runs unwatched, so traced, checked and fault-armed launches neither
//! read nor write an entry. A session's entries live as long as the
//! session: at most one per kind it has launched, each of at most
//! [`MAX_REPS`] blocks' keys.
//!
//! ## Lean misses
//!
//! A block the memo cannot replay is simulated, but not all of it needs
//! pricing. The kernels run the phases whose addresses never depend on a
//! key as oblivious phases (see `BlockSim::oblivious_phase`), and their
//! counters, the block's *oblivious share*, are equal in every block of a
//! launch kind. The launch keeps the share it carried in, or else that of
//! its first fully simulated block. Every later miss the sampling rule
//! does not pick runs under the [`Lean`] observer: its oblivious phases
//! move data and keep the race detector on but record and charge nothing,
//! and the cached share is added to its profile. Every sampled block, hit
//! or miss, runs in full under [`ObliviousShare`] and panics unless its
//! share equals the cached one. Debug builds also re-simulate every lean
//! block in full and panic unless the two profiles agree.

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
use std::sync::atomic::{self, AtomicBool};
use std::sync::{Arc, OnceLock};

/// Representatives one launch keeps.
const MAX_REPS: usize = 4;

/// Every hit at a block index `≡ SAMPLE_EVERY − 1 (mod SAMPLE_EVERY)` is
/// re-simulated.
const SAMPLE_EVERY: usize = 64;

/// The observer of a fully simulated unwatched block: passive, but
/// collecting the block's oblivious share.
#[derive(Default)]
pub(crate) struct ObliviousShare(pub(crate) KernelProfile);

impl Observer for ObliviousShare {
    fn oblivious_share(&mut self, class: PhaseClass, counters: &PhaseCounters) {
        self.0.phase_mut(class).add(counters);
    }
}

/// The observer of a lean block.
struct Lean;

impl Observer for Lean {
    const LEAN: bool = true;
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
    /// The carried oblivious share, or else that of the launch's first
    /// fully simulated block.
    share: OnceLock<KernelProfile>,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Tile,
    Merge { a_len: usize, a_phase: usize, b_phase: usize },
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
        let (kind, Carried { reps, share }) = match carried {
            Some(c) => (Some(kind), std::mem::take(entry(&mut c.kinds, kind))),
            None => (None, Carried::default()),
        };
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
            share,
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
        let mut replayed = (self.reps.into_iter().filter_map(OnceLock::into_inner))
            .filter_map(|slot| slot.replayed.into_inner().then_some(slot.rep));
        let reps = std::array::from_fn(|_| replayed.next());
        let share = self.share.into_inner();
        *entry(&mut carried.kinds, kind) = Carried { reps, share };
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
    /// oblivious share, and every later one must report the same share.
    fn full(&self, block: usize, src: &[K], dst: &mut [K]) -> KernelProfile {
        let (profile, ObliviousShare(share)) =
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
        profile
    }

    /// Simulate the block lean and charge it the launch's oblivious share.
    fn lean(&self, block: usize, src: &[K], dst: &mut [K], share: &KernelProfile) -> KernelProfile {
        let (mut profile, Lean) = self.simulate(block, src, dst, Lean);
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

/// A block's shape and its input as one or two slices.
fn block_input<K>(job: BlockJob, src: &[K], tile: usize) -> (Shape, &[K], &[K]) {
    match job {
        BlockJob::Tile(lo) => (Shape::Tile, &src[lo..lo + tile], &[]),
        BlockJob::Merge(m) => {
            let sector = SECTOR_WORDS as usize;
            let shape = Shape::Merge {
                a_len: m.a_len(),
                a_phase: m.a_begin % sector,
                b_phase: m.b_begin % sector,
            };
            (shape, &src[m.a_begin..m.a_end], &src[m.b_begin..m.b_end])
        }
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
}

#[cfg(test)]
impl Pricing {
    fn of<P: Observer>() -> Self {
        if P::LEAN {
            Pricing::Lean
        } else {
            Pricing::Full
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
    /// representatives, and its share.
    pub(crate) fn of_key<K: SortKey>(
        &self,
    ) -> Vec<(LaunchKind, Vec<usize>, Option<KernelProfile>)> {
        let carried = (self.kinds.iter())
            .filter_map(|(kind, c)| Some((kind, c.downcast_ref::<Carried<K>>()?)));
        carried
            .map(|(kind, c)| {
                let reps = c.reps.iter().flatten().map(|rep| Arc::as_ptr(rep) as usize).collect();
                (*kind, reps, c.share.clone())
            })
            .collect()
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

    /// Every block simulation of the launch since the last call.
    pub(crate) fn take_simulated(&self) -> Vec<(usize, Pricing)> {
        std::mem::take(&mut self.simulated.lock().expect("no block panicked"))
    }
}
