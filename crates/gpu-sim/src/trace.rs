//! Structured tracing of simulated kernels: span/event records, a
//! Chrome-trace-event/Perfetto exporter, and conflict forensics.
//!
//! The paper validates its claim with aggregate `nvprof` counters; this
//! module answers the next question a performance engineer asks: *where
//! inside the run* do the conflicts happen? [`BlockTracer`] is an
//! [`Observer`] of [`BlockSim`](crate::block): it records every
//! barrier-delimited phase and every costed warp-level access round on a
//! transaction-weighted tick clock, and [`SortTrace::perfetto_json`]
//! renders the result as Chrome trace-event JSON that loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Tracing is strictly opt-in: the default [`Passive`](crate::Passive)
//! observer is a zero-sized type whose inlined empty hooks monomorphize
//! to nothing, so untraced simulations pay no cost.
//!
//! ## The tick clock
//!
//! Ticks are *logical* time: each shared-memory round advances the block's
//! clock by its transaction count (so conflict replays visibly stretch the
//! timeline), each global round by its sector count, and ALU work by one
//! tick per warp-wide operation. The exporter scales each kernel's ticks
//! so that its slowest block spans the kernel's *modeled* runtime, giving
//! a timeline whose proportions match the timing model. Warps of a block
//! are serialized in simulation order (the simulator executes them
//! sequentially); per-warp attribution survives in the event arguments.

use crate::banks::{BankModel, RoundCost};
use crate::observer::Observer;
use crate::profiler::PhaseClass;
use cfmerge_json::Json;

/// One warp's lock-step shared-memory round, after bank costing.
#[derive(Debug, Clone, Copy)]
pub struct SharedRoundEvent<'a> {
    /// Phase the round belongs to.
    pub class: PhaseClass,
    /// Warp index within the block.
    pub warp: usize,
    /// Round index within this warp's phase.
    pub round: usize,
    /// Word addresses issued by the active lanes' loads.
    pub loads: &'a [u32],
    /// Word addresses issued by the active lanes' stores.
    pub stores: &'a [u32],
    /// Bank cost of the load part.
    pub ld_cost: RoundCost,
    /// Bank cost of the store part.
    pub st_cost: RoundCost,
}

/// One warp's global-memory round, after coalescing.
#[derive(Debug, Clone, Copy)]
pub struct GlobalRoundEvent {
    /// Phase the round belongs to.
    pub class: PhaseClass,
    /// Warp index within the block.
    pub warp: usize,
    /// Round index within this warp's phase.
    pub round: usize,
    /// Active lanes loading.
    pub ld_lanes: u32,
    /// Active lanes storing.
    pub st_lanes: u32,
    /// 32-byte sectors the loads touched.
    pub ld_sectors: u64,
    /// 32-byte sectors the stores touched.
    pub st_sectors: u64,
}

/// A phase span on a block's tick timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase class.
    pub class: PhaseClass,
    /// Tick at the opening barrier.
    pub start_tick: u64,
    /// Tick at the closing barrier.
    pub end_tick: u64,
}

/// Whether a conflicting round was a load or a store round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Shared-memory loads.
    Load,
    /// Shared-memory stores.
    Store,
}

impl AccessKind {
    /// Label used in reports and trace args.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        }
    }
}

/// One recorded bank-conflicted round: the offending address multiset and
/// where on the timeline it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictRound {
    /// Phase class of the round.
    pub class: PhaseClass,
    /// Warp index within the block.
    pub warp: u32,
    /// Round index within the warp's phase.
    pub round: u32,
    /// Block tick at which the round issued.
    pub tick: u64,
    /// Load or store round.
    pub kind: AccessKind,
    /// Transactions the round split into (`degree − 1` conflicts).
    pub degree: u32,
    /// The word addresses issued, one per active lane.
    pub addrs: Vec<u32>,
    /// Bank of each address (`addr mod w`), parallel to `addrs`.
    pub banks: Vec<u32>,
}

/// Default cap on conflict rounds retained per block (the worst rounds by
/// degree are kept; aggregate statistics remain exact).
pub const DEFAULT_CONFLICT_CAP: usize = 256;

/// An [`Observer`] that records one block's timeline: phase spans on a tick
/// clock, conflicted rounds with their address/bank multisets, per-bank
/// transaction heat, and per-phase degree histograms.
#[derive(Debug, Clone)]
pub struct BlockTracer {
    banks: BankModel,
    clock: u64,
    open_phase: Option<(PhaseClass, u64)>,
    /// Completed phase spans, in execution order.
    pub spans: Vec<PhaseSpan>,
    /// Conflicted rounds (capped at `cap`; the worst by degree survive).
    pub conflicts: Vec<ConflictRound>,
    cap: usize,
    /// Conflicted rounds dropped once `cap` was reached.
    pub dropped_conflicts: u64,
    /// `heat[class][bank]`: shared transactions served by each bank.
    pub bank_heat: Vec<Vec<u64>>,
    /// `degree_rounds[class][degree]`: shared rounds whose transaction
    /// count was `degree` (index 0 unused).
    pub degree_rounds: Vec<Vec<u64>>,
}

impl BlockTracer {
    /// New recorder for a block under `banks`, with the default conflict
    /// cap.
    #[must_use]
    pub fn new(banks: BankModel) -> Self {
        Self::with_cap(banks, DEFAULT_CONFLICT_CAP)
    }

    /// New recorder retaining at most `cap` conflicted rounds.
    #[must_use]
    pub fn with_cap(banks: BankModel, cap: usize) -> Self {
        let w = banks.num_banks as usize;
        Self {
            banks,
            clock: 0,
            open_phase: None,
            spans: Vec::new(),
            conflicts: Vec::new(),
            cap,
            dropped_conflicts: 0,
            bank_heat: vec![vec![0; w]; PhaseClass::COUNT],
            degree_rounds: vec![vec![0; w + 2]; PhaseClass::COUNT],
        }
    }

    /// Final tick of the block's clock.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.clock
    }

    /// Total conflicted rounds observed (recorded + dropped).
    #[must_use]
    pub fn conflict_rounds(&self) -> u64 {
        self.conflicts.len() as u64 + self.dropped_conflicts
    }

    fn record_side(&mut self, ev: &SharedRoundEvent<'_>, kind: AccessKind) {
        let (addrs, cost) = match kind {
            AccessKind::Load => (ev.loads, ev.ld_cost),
            AccessKind::Store => (ev.stores, ev.st_cost),
        };
        if cost.active_lanes == 0 {
            return;
        }
        let ci = ev.class.index();
        self.degree_rounds[ci]
            [(cost.transactions as usize).min(self.banks.num_banks as usize + 1)] += 1;
        for &a in addrs {
            self.bank_heat[ci][self.banks.bank_of(a) as usize] += 1;
        }
        if cost.conflicts == 0 {
            return;
        }
        let round = ConflictRound {
            class: ev.class,
            warp: ev.warp as u32,
            round: ev.round as u32,
            tick: self.clock,
            kind,
            degree: cost.transactions,
            addrs: addrs.to_vec(),
            banks: addrs.iter().map(|&a| self.banks.bank_of(a)).collect(),
        };
        if self.conflicts.len() < self.cap {
            self.conflicts.push(round);
        } else {
            self.dropped_conflicts += 1;
            // Evict the mildest retained round if this one is worse.
            if let Some((i, _)) = self
                .conflicts
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.degree)
                .filter(|(_, c)| c.degree < round.degree)
            {
                self.conflicts[i] = round;
            }
        }
    }
}

impl Observer for BlockTracer {
    fn phase_begin(&mut self, class: PhaseClass) {
        debug_assert!(self.open_phase.is_none(), "phases cannot nest");
        self.open_phase = Some((class, self.clock));
    }

    fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
        self.record_side(ev, AccessKind::Load);
        self.record_side(ev, AccessKind::Store);
        self.clock += u64::from(ev.ld_cost.transactions) + u64::from(ev.st_cost.transactions);
    }

    fn global_round(&mut self, ev: &GlobalRoundEvent) {
        self.clock += ev.ld_sectors + ev.st_sectors;
    }

    fn alu(&mut self, _class: PhaseClass, ops: u64) {
        // One tick per warp-wide operation.
        self.clock += ops.div_ceil(u64::from(self.banks.num_banks));
    }

    fn phase_end(&mut self, class: PhaseClass) {
        let (open_class, start) = self.open_phase.take().expect("phase_end without phase_begin");
        debug_assert_eq!(open_class, class);
        // Give empty phases one visible tick so the span renders.
        if self.clock == start {
            self.clock += 1;
        }
        self.spans.push(PhaseSpan { class, start_tick: start, end_tick: self.clock });
    }
}

/// The recorded timeline of one kernel launch: one [`BlockTracer`] per
/// simulated thread block, plus the launch's modeled runtime.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// Kernel name (`blocksort`, `merge-pass-0`, …).
    pub name: String,
    /// Grid size of the launch.
    pub grid_blocks: u64,
    /// Modeled runtime of the launch in seconds (scales the tick clock).
    pub seconds: f64,
    /// Per-block recordings, indexed by block id.
    pub blocks: Vec<BlockTracer>,
}

impl KernelTrace {
    /// Slowest block's tick count (the launch's tick span).
    #[must_use]
    pub fn max_ticks(&self) -> u64 {
        self.blocks.iter().map(BlockTracer::ticks).max().unwrap_or(0)
    }

    /// Total conflicted rounds across all blocks.
    #[must_use]
    pub fn conflict_rounds(&self) -> u64 {
        self.blocks.iter().map(BlockTracer::conflict_rounds).sum()
    }
}

/// A full traced run: an ordered sequence of kernel launches.
#[derive(Debug, Clone)]
pub struct SortTrace {
    /// Run label, e.g. `cf-merge/worst-case/E=15,u=512/n=61440`.
    pub label: String,
    /// Bank count `w` of the traced device.
    pub num_banks: u32,
    /// Kernel launches, in issue order.
    pub kernels: Vec<KernelTrace>,
}

impl SortTrace {
    /// Total conflicted rounds across the run.
    #[must_use]
    pub fn conflict_rounds(&self) -> u64 {
        self.kernels.iter().map(KernelTrace::conflict_rounds).sum()
    }

    /// Export as a Chrome trace-event document (the JSON object format:
    /// `{"displayTimeUnit": …, "traceEvents": [...]}`) loadable in
    /// `chrome://tracing` and <https://ui.perfetto.dev>.
    ///
    /// One process per kernel launch (`pid` = launch index), one thread
    /// per simulated block (`tid` = block id). Phases are `"X"` complete
    /// events; conflicted rounds are `"i"` instant events carrying the
    /// warp, round, degree, and bank/address multiset in `args`.
    /// Timestamps are microseconds of *modeled* GPU time.
    #[must_use]
    pub fn perfetto_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let mut t0 = 0.0f64;
        for (ki, k) in self.kernels.iter().enumerate() {
            let pid = ki as u64;
            let dur_us = k.seconds * 1e6;
            let scale = dur_us / k.max_ticks().max(1) as f64;
            events.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid)),
                (
                    "args",
                    Json::obj([(
                        "name",
                        Json::from(format!("{} [{} blocks]", k.name, k.grid_blocks)),
                    )]),
                ),
            ]));
            for (bi, block) in k.blocks.iter().enumerate() {
                let tid = bi as u64;
                events.push(Json::obj([
                    ("name", Json::from("thread_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(pid)),
                    ("tid", Json::from(tid)),
                    ("args", Json::obj([("name", Json::from(format!("block {bi}")))])),
                ]));
                for span in &block.spans {
                    events.push(Json::obj([
                        ("name", Json::from(span.class.label())),
                        ("cat", Json::from("phase")),
                        ("ph", Json::from("X")),
                        ("ts", Json::from(t0 + span.start_tick as f64 * scale)),
                        ("dur", Json::from((span.end_tick - span.start_tick) as f64 * scale)),
                        ("pid", Json::from(pid)),
                        ("tid", Json::from(tid)),
                    ]));
                }
                for c in &block.conflicts {
                    events.push(Json::obj([
                        ("name", Json::from(format!("bank conflict x{}", c.degree))),
                        ("cat", Json::from("conflict")),
                        ("ph", Json::from("i")),
                        ("s", Json::from("t")),
                        ("ts", Json::from(t0 + c.tick as f64 * scale)),
                        ("pid", Json::from(pid)),
                        ("tid", Json::from(tid)),
                        (
                            "args",
                            Json::obj([
                                ("phase", Json::from(c.class.label())),
                                ("warp", Json::from(c.warp)),
                                ("round", Json::from(c.round)),
                                ("access", Json::from(c.kind.label())),
                                ("degree", Json::from(c.degree)),
                                ("banks", c.banks.to_json()),
                                ("addrs", c.addrs.to_json()),
                            ]),
                        ),
                    ]));
                }
            }
            t0 += dur_us;
        }
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", Json::obj([("label", Json::from(self.label.as_str()))])),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// [`Self::perfetto_json`] serialized pretty, ready to write to disk.
    #[must_use]
    pub fn to_perfetto_string(&self) -> String {
        self.perfetto_json().to_string_pretty()
    }

    /// Conflicted rounds dropped by per-block caps across the whole run
    /// (aggregate counters stay exact; only address detail was lost).
    #[must_use]
    pub fn dropped_conflicts(&self) -> u64 {
        self.kernels.iter().flat_map(|k| k.blocks.iter().map(|b| b.dropped_conflicts)).sum()
    }

    /// Export as folded stacks (`frame;frame;frame weight` lines), the
    /// input format of `flamegraph.pl`, inferno, and speedscope. Each line
    /// is `label;kernel;phase <ns>`: phase ticks summed over all blocks of
    /// a launch, scaled so the launch's slowest block spans its modeled
    /// runtime — so frame widths are proportional to modeled GPU time,
    /// and a conflict-stretched merge phase is visibly wider. Kernels
    /// appear in issue order, phases in [`PhaseClass`] order; weights are
    /// integer nanoseconds of modeled time, so the output is bit-stable.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for k in &self.kernels {
            let scale = k.seconds * 1e9 / k.max_ticks().max(1) as f64;
            let mut per_class = [0u64; PhaseClass::COUNT];
            for b in &k.blocks {
                for span in &b.spans {
                    per_class[span.class.index()] += span.end_tick - span.start_tick;
                }
            }
            for class in PhaseClass::all() {
                let ticks = per_class[class.index()];
                if ticks == 0 {
                    continue;
                }
                let ns = ((ticks as f64 * scale).round() as u64).max(1);
                out.push_str(&format!("{};{};{} {ns}\n", self.label, k.name, class.label()));
            }
        }
        out
    }

    /// Aggregate conflict forensics across the run.
    #[must_use]
    pub fn forensics(&self) -> ConflictForensics {
        ConflictForensics::from_trace(self)
    }
}

use cfmerge_json::ToJson;

/// Where the conflicts are: the worst rounds, which banks are hot, and the
/// per-phase degree distribution — the debugging view for layout work.
#[derive(Debug, Clone)]
pub struct ConflictForensics {
    /// Bank count `w`.
    pub num_banks: u32,
    /// Worst retained conflicted rounds, sorted by degree descending, as
    /// `(kernel name, block id, round)`.
    pub worst: Vec<(String, usize, ConflictRound)>,
    /// `heat[class][bank]` summed over all blocks and kernels.
    pub bank_heat: Vec<Vec<u64>>,
    /// `degree_rounds[class][degree]` summed over all blocks and kernels.
    pub degree_rounds: Vec<Vec<u64>>,
    /// Conflicted rounds dropped by per-block caps (aggregates above are
    /// unaffected; only address detail was lost).
    pub dropped: u64,
}

impl ConflictForensics {
    /// Aggregate a run's trace.
    #[must_use]
    pub fn from_trace(trace: &SortTrace) -> Self {
        let w = trace.num_banks as usize;
        let mut worst = Vec::new();
        let mut bank_heat = vec![vec![0u64; w]; PhaseClass::COUNT];
        let mut degree_rounds = vec![vec![0u64; w + 2]; PhaseClass::COUNT];
        let mut dropped = 0;
        for k in &trace.kernels {
            for (bi, b) in k.blocks.iter().enumerate() {
                dropped += b.dropped_conflicts;
                for (acc, src) in bank_heat.iter_mut().zip(&b.bank_heat) {
                    for (a, s) in acc.iter_mut().zip(src) {
                        *a += s;
                    }
                }
                for (acc, src) in degree_rounds.iter_mut().zip(&b.degree_rounds) {
                    for (a, s) in acc.iter_mut().zip(src) {
                        *a += s;
                    }
                }
                for c in &b.conflicts {
                    worst.push((k.name.clone(), bi, c.clone()));
                }
            }
        }
        worst.sort_by(|a, b| b.2.degree.cmp(&a.2.degree).then(a.2.tick.cmp(&b.2.tick)));
        Self { num_banks: trace.num_banks, worst, bank_heat, degree_rounds, dropped }
    }

    /// Human-readable report: top-`k` worst rounds, per-phase degree
    /// histogram, and per-bank heat for the phases that conflicted.
    #[must_use]
    pub fn report(&self, top_k: usize) -> String {
        let mut out = String::new();
        out.push_str("=== conflict forensics ===\n\n");
        if self.worst.is_empty() {
            out.push_str("no bank-conflicted rounds recorded.\n");
        } else {
            out.push_str(&format!(
                "top {} conflicted rounds (by degree):\n",
                top_k.min(self.worst.len())
            ));
            for (kernel, block, c) in self.worst.iter().take(top_k) {
                out.push_str(&format!(
                    "  x{:<3} {:8} {} block {} warp {} round {} ({}): banks {:?}\n",
                    c.degree,
                    c.class.label(),
                    kernel,
                    block,
                    c.warp,
                    c.round,
                    c.kind.label(),
                    c.banks,
                ));
            }
        }
        out.push_str("\nper-phase round degree histogram (degree: rounds):\n");
        for class in PhaseClass::all() {
            let row = &self.degree_rounds[class.index()];
            if row.iter().all(|&r| r == 0) {
                continue;
            }
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, &r)| r > 0)
                .map(|(d, &r)| format!("{d}:{r}"))
                .collect();
            out.push_str(&format!("  {:8} {}\n", class.label(), cells.join("  ")));
        }
        out.push_str("\nper-bank shared accesses (conflicted phases only):\n");
        for class in PhaseClass::all() {
            let conflicted: u64 = self.degree_rounds[class.index()].iter().skip(2).sum();
            if conflicted == 0 {
                continue;
            }
            out.push_str(&format!("  {:8} {:?}\n", class.label(), self.bank_heat[class.index()],));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "\n({} conflicted rounds beyond the per-block cap lost address detail)\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSim;

    fn traced_block(u: usize, w: u32, len: usize) -> BlockSim<u32, BlockTracer> {
        BlockSim::with_observer(BankModel::new(w), u, len, BlockTracer::new(BankModel::new(w)))
    }

    #[test]
    fn passive_observer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<crate::Passive>(), 0);
    }

    #[test]
    fn spans_cover_phases_in_order() {
        let mut b = traced_block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, tid as u32));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid);
        });
        let (_, tr) = b.finish();
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].class, PhaseClass::LoadTile);
        assert_eq!(tr.spans[1].class, PhaseClass::Merge);
        assert!(tr.spans[0].start_tick < tr.spans[0].end_tick);
        assert_eq!(tr.spans[0].end_tick, tr.spans[1].start_tick);
        assert_eq!(tr.spans[1].end_tick, tr.ticks());
        assert!(tr.conflicts.is_empty());
    }

    #[test]
    fn conflicted_round_records_bank_multiset() {
        let mut b = traced_block(8, 8, 64);
        // All 8 lanes read distinct words of bank 0 → one 8-way round.
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid * 8);
        });
        let (_, tr) = b.finish();
        assert_eq!(tr.conflicts.len(), 1);
        let c = &tr.conflicts[0];
        assert_eq!(c.degree, 8);
        assert_eq!(c.kind, AccessKind::Load);
        assert_eq!(c.class, PhaseClass::Merge);
        assert_eq!(c.banks, vec![0u32; 8]);
        assert_eq!(c.addrs.len(), 8);
        // The conflicted round stretched the clock by its 8 transactions.
        assert_eq!(tr.ticks(), 8);
    }

    #[test]
    fn conflict_cap_keeps_worst_rounds() {
        let banks = BankModel::new(8);
        let mut b =
            BlockSim::<u32, _>::with_observer(banks, 8, 128, BlockTracer::with_cap(banks, 2));
        // Three conflicted rounds of degrees 2, 8, 4.
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(if tid < 2 { tid * 8 } else { 64 + tid }); // degree 2
            let _ = lane.ld(tid * 8); // degree 8
            let _ = lane.ld((tid % 4) * 8 + tid / 4); // degree 4
        });
        let (_, tr) = b.finish();
        assert_eq!(tr.conflicts.len(), 2);
        assert_eq!(tr.dropped_conflicts, 1);
        let mut degrees: Vec<u32> = tr.conflicts.iter().map(|c| c.degree).collect();
        degrees.sort_unstable();
        assert_eq!(degrees, vec![4, 8]);
        assert_eq!(tr.conflict_rounds(), 3);
    }

    #[test]
    fn degree_histogram_and_heat_aggregate() {
        let mut b = traced_block(8, 8, 64);
        b.phase(PhaseClass::Gather, |tid, lane| {
            let _ = lane.ld(tid); // conflict-free: degree 1
            let _ = lane.ld(tid * 8); // 8-way
        });
        let (_, tr) = b.finish();
        let g = &tr.degree_rounds[PhaseClass::Gather.index()];
        assert_eq!(g[1], 1);
        assert_eq!(g[8], 1);
        // Heat: round 1 touches banks 0..8 once each; round 2 bank 0 ×8.
        let heat = &tr.bank_heat[PhaseClass::Gather.index()];
        assert_eq!(heat[0], 1 + 8);
        assert_eq!(heat[1], 1);
    }

    #[test]
    fn perfetto_export_is_wellformed() {
        let mut b = traced_block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 1));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid * 8);
        });
        let trace = SortTrace {
            label: "test".into(),
            num_banks: 8,
            kernels: vec![KernelTrace {
                name: "k0".into(),
                grid_blocks: 1,
                seconds: 1e-6,
                blocks: vec![b.finish().1],
            }],
        };
        let doc = trace.perfetto_json();
        let events = doc.req("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 1 thread_name + 2 phase spans + 1 conflict.
        assert_eq!(events.len(), 5);
        for ev in events {
            let ph = ev.req("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "M" | "X" | "i"), "unexpected ph {ph}");
            if ph != "M" {
                assert!(ev.req("ts").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
        // Round-trips through the parser.
        let text = trace.to_perfetto_string();
        assert!(Json::parse(&text).is_ok());
        assert_eq!(trace.conflict_rounds(), 1);
    }

    #[test]
    fn folded_stacks_weight_phases_by_modeled_time() {
        let mut b = traced_block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 1));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid * 8); // 8-way conflict: 8 ticks
        });
        let trace = SortTrace {
            label: "demo".into(),
            num_banks: 8,
            kernels: vec![KernelTrace {
                name: "k0".into(),
                grid_blocks: 1,
                seconds: 9e-9, // 9 ticks total → scale = 1 ns/tick
                blocks: vec![b.finish().1],
            }],
        };
        let folded = trace.folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["demo;k0;load 1", "demo;k0;merge 8"]);
        assert_eq!(trace.dropped_conflicts(), 0);
        // Regenerating is byte-stable.
        assert_eq!(folded, trace.folded_stacks());
    }

    #[test]
    fn forensics_report_names_the_worst_round() {
        let mut b = traced_block(8, 8, 64);
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid * 8);
        });
        let trace = SortTrace {
            label: "t".into(),
            num_banks: 8,
            kernels: vec![KernelTrace {
                name: "k0".into(),
                grid_blocks: 1,
                seconds: 1e-6,
                blocks: vec![b.finish().1],
            }],
        };
        let f = trace.forensics();
        assert_eq!(f.worst.len(), 1);
        assert_eq!(f.worst[0].2.degree, 8);
        let report = f.report(5);
        assert!(report.contains("x8"));
        assert!(report.contains("merge"));
        let clean = SortTrace { label: "c".into(), num_banks: 8, kernels: vec![] };
        assert!(clean.forensics().report(5).contains("no bank-conflicted rounds"));
    }
}
