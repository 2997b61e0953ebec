//! Fault injection: seeded, deterministic hardware-fault models woven
//! into the block engine behind a zero-cost hook.
//!
//! Production GPUs flip bits, run with marginal banks, lose lanes, and
//! miss latency targets; the paper's guarantees (and the prover's
//! certificates) only cover the fault-free happy path. This module lets a
//! pipeline *rehearse* those failures deterministically:
//!
//! * [`FaultInjector`] — observation-and-corruption hooks threaded
//!   through [`BlockSim`](crate::BlockSim)/[`LaneCtx`](crate::LaneCtx)
//!   exactly like [`Tracer`](crate::Tracer) and
//!   [`MemCheck`](crate::check::MemCheck). The default [`NoFaults`] is a
//!   zero-sized type whose inlined empty hooks monomorphize away, so an
//!   un-injected simulation compiles to exactly the code it ran before
//!   this module existed.
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of
//!   [`FaultSite`]s: each names a (kernel launch, block, phase)
//!   coordinate, a [`FaultKind`], and a [`Persistence`] class. The same
//!   seed always produces the same plan, so every chaos run is exactly
//!   reproducible.
//! * [`BlockFaults`] — the active per-block injector a plan hands to one
//!   simulated block execution. Every fault that actually fires is logged
//!   as an [`InjectionRecord`] for forensics; a fault that never reaches
//!   its coordinate simply does not fire.
//!
//! ## Fault model
//!
//! | kind | effect | typical persistence |
//! |------|--------|---------------------|
//! | [`FaultKind::SharedBitFlip`] | first shared-memory *store* of the armed phase writes `value ^ (1 << bit)` | transient |
//! | [`FaultKind::GlobalBitFlip`] | first global-memory *store* of the armed phase writes `value ^ (1 << bit)` | transient |
//! | [`FaultKind::StuckBank`] | from the armed phase on, every shared *load* from the bank returns `value ^ (1 << bit)` | sticky/permanent |
//! | [`FaultKind::LaneDropout`] | from the armed phase on, the lane's shared and global stores never commit | sticky/permanent |
//! | [`FaultKind::LatencySpike`] | charges extra pipe cycles to the block (no data corruption) | transient |
//!
//! Corruption is expressed as XOR masks over the key's bit pattern (the
//! standard single-event-upset model); [`FaultWord`] supplies the
//! bits↔value conversion for the key types the simulator sorts. Masks are
//! truncated to the key width.

use crate::profiler::PhaseClass;
use cfmerge_json::{Json, ToJson};

/// Keys whose bit pattern fault injection may corrupt.
///
/// Implemented for the integer key types the simulator sorts; the XOR
/// mask is applied over the `u64` image and truncated to the key width.
pub trait FaultWord: Copy {
    /// The key's bit pattern, zero-extended to 64 bits.
    fn to_fault_bits(self) -> u64;
    /// Rebuild a key from (possibly corrupted) bits, truncating to width.
    fn from_fault_bits(bits: u64) -> Self;
}

macro_rules! impl_fault_word {
    ($($t:ty),*) => {$(
        impl FaultWord for $t {
            #[inline]
            fn to_fault_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_fault_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_fault_word!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Corruption-and-delay hooks the block engine consults while executing.
///
/// All hooks default to no-ops and `ACTIVE = false`, so the default
/// [`NoFaults`] vanishes at compile time. An active injector is asked for
/// an XOR mask on every shared/global access (0 = pristine) and whether a
/// lane's stores commit at all.
pub trait FaultInjector {
    /// Whether the engine should consult this injector at all.
    const ACTIVE: bool = false;

    /// A block simulation starts: `w` lanes per warp, `u` threads, shared
    /// extent of `shared_len` words.
    #[inline]
    fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
        let _ = (w, u, shared_len);
    }

    /// A barrier-delimited phase opens.
    #[inline]
    fn phase_begin(&mut self, class: PhaseClass) {
        let _ = class;
    }

    /// The phase's closing barrier.
    #[inline]
    fn phase_end(&mut self) {}

    /// XOR mask applied to the value lane `tid` loads from shared `idx`.
    #[inline]
    fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to shared `idx`.
    #[inline]
    fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to global `idx`.
    #[inline]
    fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// Whether lane `tid`'s stores are currently dropped (lane drop-out).
    /// The access is still issued and costed — the data never commits.
    #[inline]
    fn drops_store(&mut self, tid: u32) -> bool {
        let _ = tid;
        false
    }

    /// Extra pipe cycles injected so far (latency spikes); drained by the
    /// launcher into the timing model after the block completes.
    #[inline]
    fn spike_cycles(&self) -> u64 {
        0
    }
}

/// The do-nothing injector: a zero-sized type whose hooks compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// What a fault does when it fires. See the module table for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip `bit` of the first shared-memory store of the armed phase.
    SharedBitFlip {
        /// Bit index (0–63; truncated to the key width).
        bit: u8,
    },
    /// Flip `bit` of the first global-memory store of the armed phase.
    GlobalBitFlip {
        /// Bit index (0–63; truncated to the key width).
        bit: u8,
    },
    /// From the armed phase on, every shared load whose word lives in
    /// `bank` returns its value with `bit` inverted.
    StuckBank {
        /// Afflicted bank (taken modulo the device's bank count).
        bank: u32,
        /// Bit index forced to read inverted.
        bit: u8,
    },
    /// From the armed phase on, `lane`'s shared and global stores never
    /// commit (the lane keeps executing and its traffic is still costed).
    LaneDropout {
        /// Block-wide thread id (taken modulo `u`).
        lane: u32,
    },
    /// Charge `cycles` extra pipe cycles to the block when the armed
    /// phase opens. Pure delay — no data corruption.
    LatencySpike {
        /// Extra cycles.
        cycles: u64,
    },
}

impl FaultKind {
    /// Short kind label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SharedBitFlip { .. } => "shared-bit-flip",
            FaultKind::GlobalBitFlip { .. } => "global-bit-flip",
            FaultKind::StuckBank { .. } => "stuck-bank",
            FaultKind::LaneDropout { .. } => "lane-dropout",
            FaultKind::LatencySpike { .. } => "latency-spike",
        }
    }

    /// Whether this kind can corrupt data (latency spikes cannot).
    #[must_use]
    pub fn corrupts(&self) -> bool {
        !matches!(self, FaultKind::LatencySpike { .. })
    }
}

/// How long a fault afflicts its coordinate across re-executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Persistence {
    /// Single-event upset: fires on the block's *first* execution only;
    /// a retry runs clean. Recoverable by re-execution.
    Transient,
    /// Pipeline-bound marginal fault: fires on every retry of the primary
    /// pipeline, but clears when the driver falls back to the alternate
    /// pipeline (models a layout/config-sensitive failure). Recoverable
    /// by degradation.
    Sticky,
    /// Hard hardware fault: fires on every execution, fallback included.
    /// Not recoverable — the driver must surface a typed error.
    Permanent,
}

impl Persistence {
    /// Label for reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Persistence::Transient => "transient",
            Persistence::Sticky => "sticky",
            Persistence::Permanent => "permanent",
        }
    }

    /// Whether a site with this persistence fires on execution `attempt`
    /// (0 = first try) of the given pipeline (`fallback` = the degraded
    /// alternate pipeline).
    #[must_use]
    pub fn fires(self, attempt: u32, fallback: bool) -> bool {
        match self {
            Persistence::Transient => attempt == 0 && !fallback,
            Persistence::Sticky => !fallback,
            Persistence::Permanent => true,
        }
    }
}

/// One scheduled fault: where, what, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Kernel launch index within the pipeline (0 = block sort,
    /// 1 = first merge pass, …).
    pub kernel: u32,
    /// Block index within the launch.
    pub block: u32,
    /// 1-based barrier-delimited phase at which the fault arms.
    pub phase: u32,
    /// The fault itself.
    pub kind: FaultKind,
    /// Lifetime across re-executions.
    pub persistence: Persistence,
}

/// SplitMix64 — the plan generator's deterministic stream (no external
/// RNG dependency; the same constants as `rand`'s seed expansion).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Knobs for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Number of fault sites to schedule.
    pub sites: u32,
    /// Greatest 1-based phase index a site may arm at. Merge-pass kernels
    /// run 6 phases and block sorts more, so ≤ 6 guarantees every site is
    /// reachable; larger values leave late sites dormant in short kernels.
    pub max_phase: u32,
    /// Permille of sites drawn as sticky (pipeline-bound) faults.
    pub sticky_permille: u32,
    /// Permille of sites drawn as permanent (unrecoverable) faults.
    pub permanent_permille: u32,
    /// Include latency spikes in the kind mix.
    pub spikes: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self { sites: 3, max_phase: 6, sticky_permille: 0, permanent_permille: 0, spikes: true }
    }
}

/// A deterministic, seeded schedule of fault sites for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The scheduled sites.
    pub sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// The empty plan: injects nothing anywhere.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Hand-build a plan from explicit sites (tests, regression pins).
    #[must_use]
    pub fn from_sites(sites: Vec<FaultSite>) -> Self {
        Self { seed: 0, sites }
    }

    /// Generate a plan for a pipeline whose launch `k` has
    /// `blocks_per_kernel[k]` blocks. Same seed + shape + spec ⇒ same
    /// plan, bit for bit.
    #[must_use]
    pub fn generate(seed: u64, blocks_per_kernel: &[u64], spec: &FaultSpec) -> Self {
        let mut state = seed ^ 0xC4A5_9D1E_0F00_D5EE;
        let mut sites = Vec::with_capacity(spec.sites as usize);
        if blocks_per_kernel.is_empty() {
            return Self { seed, sites };
        }
        for _ in 0..spec.sites {
            let kernel = (splitmix64(&mut state) % blocks_per_kernel.len() as u64) as u32;
            let blocks = blocks_per_kernel[kernel as usize].max(1);
            let block = (splitmix64(&mut state) % blocks) as u32;
            let phase = 1 + (splitmix64(&mut state) % u64::from(spec.max_phase.max(1))) as u32;
            let kinds = if spec.spikes { 5 } else { 4 };
            let kind = match splitmix64(&mut state) % kinds {
                0 => FaultKind::SharedBitFlip { bit: (splitmix64(&mut state) % 31) as u8 },
                1 => FaultKind::GlobalBitFlip { bit: (splitmix64(&mut state) % 31) as u8 },
                2 => FaultKind::StuckBank {
                    bank: (splitmix64(&mut state) % 32) as u32,
                    bit: (splitmix64(&mut state) % 31) as u8,
                },
                3 => FaultKind::LaneDropout { lane: (splitmix64(&mut state) % 1024) as u32 },
                _ => FaultKind::LatencySpike { cycles: 1000 + splitmix64(&mut state) % 100_000 },
            };
            let roll = (splitmix64(&mut state) % 1000) as u32;
            let persistence = if roll < spec.permanent_permille {
                Persistence::Permanent
            } else if roll < spec.permanent_permille + spec.sticky_permille {
                Persistence::Sticky
            } else {
                Persistence::Transient
            };
            sites.push(FaultSite { kernel, block, phase, kind, persistence });
        }
        Self { seed, sites }
    }

    /// Whether any site could outlive the retry loop (sticky or
    /// permanent).
    #[must_use]
    pub fn has_persistent(&self) -> bool {
        self.sites.iter().any(|s| s.persistence != Persistence::Transient)
    }

    /// Whether any site survives even pipeline fallback.
    #[must_use]
    pub fn has_permanent(&self) -> bool {
        self.sites.iter().any(|s| s.persistence == Persistence::Permanent)
    }

    /// Build the active injector for one execution of block `block` of
    /// launch `kernel`: `attempt` 0 is the first try, retries count up;
    /// `fallback` marks the degraded alternate pipeline. Sites whose
    /// [`Persistence`] says they do not fire on this execution are
    /// omitted, so a plan with only transient faults yields clean
    /// retries.
    #[must_use]
    pub fn block_faults(
        &self,
        kernel: u32,
        block: u32,
        attempt: u32,
        fallback: bool,
    ) -> BlockFaults {
        let armed: Vec<ArmedFault> = self
            .sites
            .iter()
            .filter(|s| {
                s.kernel == kernel && s.block == block && s.persistence.fires(attempt, fallback)
            })
            .map(|s| ArmedFault { site: *s, fired: false, done: false })
            .collect();
        BlockFaults {
            kernel,
            block,
            attempt,
            armed,
            w: 0,
            u: 0,
            phase_seq: 0,
            current_class: None,
            spike_cycles: 0,
            records: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    site: FaultSite,
    /// Fired at least once (for the forensic record).
    fired: bool,
    /// One-shot faults that already consumed their single firing.
    done: bool,
}

/// One fault that actually fired, with full forensic context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Kernel launch index.
    pub kernel: u32,
    /// Block index within the launch.
    pub block: u32,
    /// Execution attempt (0 = first try).
    pub attempt: u32,
    /// 1-based phase at which the fault first fired.
    pub phase_seq: u32,
    /// Phase class at that point.
    pub class: PhaseClass,
    /// The fault.
    pub kind: FaultKind,
    /// Lifetime class of the site.
    pub persistence: Persistence,
}

impl std::fmt::Display for InjectionRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] kernel {} block {} attempt {} phase #{} ({}): {:?}",
            self.persistence.label(),
            self.kernel,
            self.block,
            self.attempt,
            self.phase_seq,
            self.class.label(),
            self.kind,
        )
    }
}

impl ToJson for InjectionRecord {
    fn to_json(&self) -> Json {
        let (label, a, b) = match self.kind {
            FaultKind::SharedBitFlip { bit } | FaultKind::GlobalBitFlip { bit } => {
                (self.kind.label(), u64::from(bit), 0)
            }
            FaultKind::StuckBank { bank, bit } => {
                (self.kind.label(), u64::from(bank), u64::from(bit))
            }
            FaultKind::LaneDropout { lane } => (self.kind.label(), u64::from(lane), 0),
            FaultKind::LatencySpike { cycles } => (self.kind.label(), cycles, 0),
        };
        Json::obj([
            ("kernel", Json::from(self.kernel)),
            ("block", Json::from(self.block)),
            ("attempt", Json::from(self.attempt)),
            ("phase_seq", Json::from(self.phase_seq)),
            ("class", Json::from(self.class.label())),
            ("kind", Json::from(label)),
            ("arg0", Json::from(a)),
            ("arg1", Json::from(b)),
            ("persistence", Json::from(self.persistence.label())),
        ])
    }
}

/// The active per-block injector built by [`FaultPlan::block_faults`].
///
/// Tracks the block's phase count, arms sites whose phase coordinate has
/// been reached, applies their corruption, and records every firing.
#[derive(Debug, Clone)]
pub struct BlockFaults {
    kernel: u32,
    block: u32,
    attempt: u32,
    armed: Vec<ArmedFault>,
    w: usize,
    u: usize,
    phase_seq: u32,
    current_class: Option<PhaseClass>,
    spike_cycles: u64,
    records: Vec<InjectionRecord>,
    // One-shot store-flip bookkeeping lives inside `ArmedFault::done`.
}

impl BlockFaults {
    /// Faults that actually fired during this execution.
    #[must_use]
    pub fn records(&self) -> &[InjectionRecord] {
        &self.records
    }

    /// Consume the injector, returning its forensic records.
    #[must_use]
    pub fn into_records(self) -> Vec<InjectionRecord> {
        self.records
    }

    /// Whether no site is armed for this execution. Such an injector
    /// changes no value and no counter, so a launcher may run the block
    /// with [`NoFaults`] instead and skip the per-access injector hooks.
    #[must_use]
    pub fn is_unarmed(&self) -> bool {
        self.armed.is_empty()
    }

    /// Whether any armed site fired.
    #[must_use]
    pub fn any_fired(&self) -> bool {
        !self.records.is_empty()
    }

    fn class_now(&self) -> PhaseClass {
        self.current_class.unwrap_or(PhaseClass::Other)
    }

    fn record(&mut self, i: usize) {
        let class = self.class_now();
        let (phase_seq, kernel, block, attempt) =
            (self.phase_seq, self.kernel, self.block, self.attempt);
        let f = &mut self.armed[i];
        if !f.fired {
            f.fired = true;
            self.records.push(InjectionRecord {
                kernel,
                block,
                attempt,
                phase_seq,
                class,
                kind: f.site.kind,
                persistence: f.site.persistence,
            });
        }
    }
}

impl FaultInjector for BlockFaults {
    const ACTIVE: bool = true;

    fn begin_block(&mut self, w: usize, u: usize, _shared_len: usize) {
        self.w = w;
        self.u = u;
    }

    fn phase_begin(&mut self, class: PhaseClass) {
        self.phase_seq += 1;
        self.current_class = Some(class);
        // Latency spikes charge when their phase opens.
        for i in 0..self.armed.len() {
            let f = self.armed[i];
            if f.done || self.phase_seq != f.site.phase {
                continue;
            }
            if let FaultKind::LatencySpike { cycles } = f.site.kind {
                self.spike_cycles += cycles;
                self.armed[i].done = true;
                self.record(i);
            }
        }
    }

    fn phase_end(&mut self) {
        self.current_class = None;
    }

    fn shared_ld_mask(&mut self, _tid: u32, idx: usize) -> u64 {
        let mut mask = 0u64;
        for i in 0..self.armed.len() {
            let f = self.armed[i];
            if f.done || self.phase_seq < f.site.phase {
                continue;
            }
            if let FaultKind::StuckBank { bank, bit } = f.site.kind {
                if self.w > 0 && idx % self.w == (bank as usize) % self.w {
                    mask ^= 1u64 << bit;
                    self.record(i);
                }
            }
        }
        mask
    }

    fn shared_st_mask(&mut self, _tid: u32, _idx: usize) -> u64 {
        let mut mask = 0u64;
        for i in 0..self.armed.len() {
            let f = self.armed[i];
            if f.done || self.phase_seq < f.site.phase {
                continue;
            }
            if let FaultKind::SharedBitFlip { bit } = f.site.kind {
                mask ^= 1u64 << bit;
                self.armed[i].done = true;
                self.record(i);
            }
        }
        mask
    }

    fn global_st_mask(&mut self, _tid: u32, _idx: usize) -> u64 {
        let mut mask = 0u64;
        for i in 0..self.armed.len() {
            let f = self.armed[i];
            if f.done || self.phase_seq < f.site.phase {
                continue;
            }
            if let FaultKind::GlobalBitFlip { bit } = f.site.kind {
                mask ^= 1u64 << bit;
                self.armed[i].done = true;
                self.record(i);
            }
        }
        mask
    }

    fn drops_store(&mut self, tid: u32) -> bool {
        let mut drops = false;
        for i in 0..self.armed.len() {
            let f = self.armed[i];
            if f.done || self.phase_seq < f.site.phase {
                continue;
            }
            if let FaultKind::LaneDropout { lane } = f.site.kind {
                if self.u > 0 && tid as usize == (lane as usize) % self.u {
                    drops = true;
                    self.record(i);
                }
            }
        }
        drops
    }

    fn spike_cycles(&self) -> u64 {
        self.spike_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let shape = [8u64, 4, 2, 1];
        let spec = FaultSpec { sites: 10, ..FaultSpec::default() };
        let a = FaultPlan::generate(42, &shape, &spec);
        let b = FaultPlan::generate(42, &shape, &spec);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &shape, &spec);
        assert_ne!(a, c, "different seeds must give different plans");
        assert_eq!(a.sites.len(), 10);
        for s in &a.sites {
            assert!((s.kernel as usize) < shape.len());
            assert!(u64::from(s.block) < shape[s.kernel as usize]);
            assert!(s.phase >= 1 && s.phase <= 6);
        }
    }

    #[test]
    fn persistence_controls_refiring() {
        assert!(Persistence::Transient.fires(0, false));
        assert!(!Persistence::Transient.fires(1, false));
        assert!(!Persistence::Transient.fires(0, true));
        assert!(Persistence::Sticky.fires(3, false));
        assert!(!Persistence::Sticky.fires(0, true));
        assert!(Persistence::Permanent.fires(5, true));
    }

    #[test]
    fn block_faults_filters_by_coordinate() {
        let plan = FaultPlan::from_sites(vec![
            FaultSite {
                kernel: 0,
                block: 1,
                phase: 1,
                kind: FaultKind::SharedBitFlip { bit: 3 },
                persistence: Persistence::Transient,
            },
            FaultSite {
                kernel: 1,
                block: 0,
                phase: 2,
                kind: FaultKind::LatencySpike { cycles: 100 },
                persistence: Persistence::Transient,
            },
        ]);
        assert_eq!(plan.block_faults(0, 1, 0, false).armed.len(), 1);
        assert_eq!(plan.block_faults(0, 0, 0, false).armed.len(), 0);
        // Transient faults do not re-arm on retry.
        assert_eq!(plan.block_faults(0, 1, 1, false).armed.len(), 0);
    }

    #[test]
    fn bit_flip_fires_once_and_is_recorded() {
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kernel: 0,
            block: 0,
            phase: 1,
            kind: FaultKind::SharedBitFlip { bit: 5 },
            persistence: Persistence::Transient,
        }]);
        let mut inj = plan.block_faults(0, 0, 0, false);
        inj.begin_block(8, 8, 64);
        inj.phase_begin(PhaseClass::LoadTile);
        assert_eq!(inj.shared_st_mask(0, 0), 1 << 5);
        assert_eq!(inj.shared_st_mask(1, 1), 0, "one-shot flip must not refire");
        inj.phase_end();
        let recs = inj.into_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].phase_seq, 1);
        assert_eq!(recs[0].class, PhaseClass::LoadTile);
    }

    #[test]
    fn stuck_bank_afflicts_only_its_bank_from_armed_phase() {
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kernel: 0,
            block: 0,
            phase: 2,
            kind: FaultKind::StuckBank { bank: 3, bit: 0 },
            persistence: Persistence::Permanent,
        }]);
        let mut inj = plan.block_faults(0, 0, 0, false);
        inj.begin_block(8, 8, 64);
        inj.phase_begin(PhaseClass::LoadTile);
        assert_eq!(inj.shared_ld_mask(0, 3), 0, "not armed before its phase");
        inj.phase_end();
        inj.phase_begin(PhaseClass::Merge);
        assert_eq!(inj.shared_ld_mask(0, 3), 1);
        assert_eq!(inj.shared_ld_mask(0, 11), 1, "same bank, next row");
        assert_eq!(inj.shared_ld_mask(0, 4), 0, "other banks untouched");
        assert_eq!(inj.records().len(), 1, "persistent faults log one record");
    }

    #[test]
    fn latency_spikes_accumulate_cycles_without_masks() {
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kernel: 0,
            block: 0,
            phase: 1,
            kind: FaultKind::LatencySpike { cycles: 777 },
            persistence: Persistence::Transient,
        }]);
        let mut inj = plan.block_faults(0, 0, 0, false);
        inj.begin_block(8, 8, 64);
        inj.phase_begin(PhaseClass::LoadTile);
        assert_eq!(inj.spike_cycles(), 777);
        assert_eq!(inj.shared_st_mask(0, 0), 0);
        assert!(!FaultKind::LatencySpike { cycles: 1 }.corrupts());
    }

    #[test]
    fn fault_word_roundtrips_and_truncates() {
        assert_eq!(u32::from_fault_bits(u32::MAX.to_fault_bits() ^ (1 << 40)), u32::MAX);
        assert_eq!(u16::from_fault_bits(7u16.to_fault_bits() ^ 0b10), 5);
        assert_eq!(i64::from_fault_bits((-3i64).to_fault_bits()), -3);
    }
}
