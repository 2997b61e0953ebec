//! Dynamic hazard sanitizer: shadow memory + lock-step auditing for one
//! simulated block.

use crate::observer::Observer;
use crate::profiler::PhaseClass;
use std::fmt;

/// Lane sentinel meaning "no lane recorded".
const NONE: u32 = u32::MAX;

/// Findings retained before further ones are only counted, not stored.
const FINDING_CAP: usize = 256;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// Two lanes stored the same shared word inside one phase.
    WriteWriteRace {
        /// The earlier writer.
        other: u32,
    },
    /// One lane read and another wrote the same shared word inside one
    /// phase (either order — both need a barrier).
    ReadWriteRace {
        /// The conflicting lane.
        other: u32,
    },
    /// Shared access past the tile (`idx >= shared_len`).
    SharedOutOfBounds {
        /// Shared extent in words.
        len: usize,
        /// Write (`true`) or read.
        store: bool,
    },
    /// Global access past the array.
    GlobalOutOfBounds {
        /// Array length in words.
        len: usize,
        /// Write (`true`) or read.
        store: bool,
    },
    /// Shared word read before any store initialized it.
    UninitializedRead,
    /// Lanes of one warp issued unequal access counts inside a phase —
    /// they cannot have executed the phase in lock-step.
    Divergence {
        /// `"shared"` or `"global"`.
        space: &'static str,
        /// Smallest per-lane access count in the warp.
        min: u32,
        /// Largest per-lane access count in the warp.
        max: u32,
        /// A lane issuing `min` accesses.
        min_lane: u32,
        /// A lane issuing `max` accesses.
        max_lane: u32,
    },
}

impl Hazard {
    /// Short kind label for summaries.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Hazard::WriteWriteRace { .. } => "write-write race",
            Hazard::ReadWriteRace { .. } => "read-write race",
            Hazard::SharedOutOfBounds { .. } => "shared out-of-bounds",
            Hazard::GlobalOutOfBounds { .. } => "global out-of-bounds",
            Hazard::UninitializedRead => "uninitialized read",
            Hazard::Divergence { .. } => "lock-step divergence",
        }
    }
}

/// One sanitizer finding with full forensic context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The hazard class.
    pub hazard: Hazard,
    /// Phase class in which it occurred.
    pub class: PhaseClass,
    /// Running phase number within the block (1-based).
    pub phase_seq: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Offending lane (block-wide thread id).
    pub tid: u32,
    /// Word address involved, if address-shaped.
    pub addr: Option<usize>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] phase #{} ({}) warp {}: ",
            self.hazard.label(),
            self.phase_seq,
            self.class.label(),
            self.warp
        )?;
        match &self.hazard {
            Hazard::WriteWriteRace { other } => write!(
                f,
                "lanes {} and {} both store shared[{}] in the same phase (missing barrier)",
                other,
                self.tid,
                self.addr.unwrap_or(0)
            ),
            Hazard::ReadWriteRace { other } => write!(
                f,
                "lane {} reads and lane {} writes shared[{}] in the same phase (missing barrier)",
                self.tid,
                other,
                self.addr.unwrap_or(0)
            ),
            Hazard::SharedOutOfBounds { len, store } => write!(
                f,
                "lane {} {} shared[{}] but the tile holds {} words",
                self.tid,
                if *store { "stores" } else { "loads" },
                self.addr.unwrap_or(0),
                len
            ),
            Hazard::GlobalOutOfBounds { len, store } => write!(
                f,
                "lane {} {} global[{}] but the array holds {} words",
                self.tid,
                if *store { "stores" } else { "loads" },
                self.addr.unwrap_or(0),
                len
            ),
            Hazard::UninitializedRead => write!(
                f,
                "lane {} loads shared[{}] before any store initialized it",
                self.tid,
                self.addr.unwrap_or(0)
            ),
            Hazard::Divergence { space, min, max, min_lane, max_lane } => write!(
                f,
                "{space} access counts diverge: lane {min_lane} issued {min}, \
                 lane {max_lane} issued {max} — the warp cannot run in lock-step"
            ),
        }
    }
}

/// The dynamic sanitizer: a checking [`Observer`] holding per-word
/// shadow state (last writer, up to two distinct readers, init bit — all
/// epoch-stamped so a barrier clears them in O(1)) and per-lane access
/// counters for lock-step auditing.
///
/// By default, [`PhaseClass::Search`] is exempt from the divergence check:
/// the merge-path binary search is *predicated* — each lane runs
/// `⌈log₂(diag+1)⌉`-ish probe iterations, so unequal counts are part of
/// the algorithm's contract there, unlike the data-movement phases the
/// paper requires to be oblivious. Use [`Sanitizer::set_divergence_exempt`]
/// to tighten or loosen the policy.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    w: usize,
    shared_len: usize,
    epoch: u32,
    phase_seq: u32,
    class: PhaseClass,
    warp: u32,
    write_epoch: Vec<u32>,
    write_tid: Vec<u32>,
    read_epoch: Vec<u32>,
    reader1: Vec<u32>,
    reader2: Vec<u32>,
    init: Vec<bool>,
    shared_counts: Vec<u32>,
    global_counts: Vec<u32>,
    divergence_exempt: [bool; PhaseClass::COUNT],
    findings: Vec<Finding>,
    /// Findings beyond the internal cap, counted but not stored.
    pub dropped: u64,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Sanitizer {
    /// A fresh sanitizer; shadow state is sized by
    /// [`Observer::begin_block`] when a `BlockSim` adopts it.
    #[must_use]
    pub fn new() -> Self {
        let mut divergence_exempt = [false; PhaseClass::COUNT];
        divergence_exempt[PhaseClass::Search.index()] = true;
        Self {
            w: 1,
            shared_len: 0,
            epoch: 0,
            phase_seq: 0,
            class: PhaseClass::Other,
            warp: 0,
            write_epoch: Vec::new(),
            write_tid: Vec::new(),
            read_epoch: Vec::new(),
            reader1: Vec::new(),
            reader2: Vec::new(),
            init: Vec::new(),
            shared_counts: Vec::new(),
            global_counts: Vec::new(),
            divergence_exempt,
            findings: Vec::new(),
            dropped: 0,
        }
    }

    /// Include (`false`) or exempt (`true`) a phase class from the
    /// lock-step divergence check.
    pub fn set_divergence_exempt(&mut self, class: PhaseClass, exempt: bool) {
        self.divergence_exempt[class.index()] = exempt;
    }

    /// All findings recorded so far (capped; see [`Sanitizer::dropped`]).
    #[must_use]
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Consume the sanitizer, yielding its recorded findings.
    #[must_use]
    pub fn into_findings(self) -> Vec<Finding> {
        self.findings
    }

    /// `true` when no hazard was observed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.dropped == 0
    }

    /// Total findings, including ones dropped past the cap.
    #[must_use]
    pub fn total_findings(&self) -> u64 {
        self.findings.len() as u64 + self.dropped
    }

    /// Multi-line forensic report, or a clean bill of health.
    #[must_use]
    pub fn report(&self) -> String {
        if self.is_clean() {
            return "sanitizer: no hazards detected".into();
        }
        let mut out = format!("sanitizer: {} finding(s)\n", self.total_findings());
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        if self.dropped > 0 {
            out.push_str(&format!("  … {} further finding(s) dropped\n", self.dropped));
        }
        out
    }

    fn push(&mut self, hazard: Hazard, tid: u32, addr: Option<usize>) {
        if self.findings.len() >= FINDING_CAP {
            self.dropped += 1;
            return;
        }
        self.findings.push(Finding {
            hazard,
            class: self.class,
            phase_seq: self.phase_seq,
            warp: self.warp,
            tid,
            addr,
        });
    }

    fn audit_lockstep(&mut self, warp: usize, class: PhaseClass) {
        if self.divergence_exempt[class.index()] {
            return;
        }
        for (space, counts) in
            [("shared", self.shared_counts.clone()), ("global", self.global_counts.clone())]
        {
            let Some((&min, &max)) = counts.iter().min().zip(counts.iter().max()) else {
                continue;
            };
            if min == max {
                continue;
            }
            let min_lane = counts.iter().position(|&c| c == min).unwrap_or(0);
            let max_lane = counts.iter().position(|&c| c == max).unwrap_or(0);
            let base = warp * self.w;
            self.push(
                Hazard::Divergence {
                    space,
                    min,
                    max,
                    min_lane: (base + min_lane) as u32,
                    max_lane: (base + max_lane) as u32,
                },
                (base + max_lane) as u32,
                None,
            );
        }
    }
}

impl Observer for Sanitizer {
    const CHECKS: bool = true;

    fn begin_block(&mut self, w: usize, _u: usize, shared_len: usize) {
        self.w = w;
        self.shared_len = shared_len;
        self.write_epoch = vec![0; shared_len];
        self.write_tid = vec![NONE; shared_len];
        self.read_epoch = vec![0; shared_len];
        self.reader1 = vec![NONE; shared_len];
        self.reader2 = vec![NONE; shared_len];
        self.init = vec![false; shared_len];
        self.shared_counts = vec![0; w];
        self.global_counts = vec![0; w];
    }

    fn phase_begin(&mut self, class: PhaseClass) {
        self.epoch += 1;
        self.phase_seq += 1;
        self.class = class;
    }

    fn warp_begin(&mut self, warp: usize) {
        self.warp = warp as u32;
        self.shared_counts.fill(0);
        self.global_counts.fill(0);
    }

    fn warp_end(&mut self, warp: usize, class: PhaseClass) {
        self.audit_lockstep(warp, class);
    }

    fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
        if idx >= self.shared_len {
            self.push(Hazard::SharedOutOfBounds { len: self.shared_len, store }, tid, Some(idx));
            return false;
        }
        let lane = tid as usize % self.w;
        self.shared_counts[lane] += 1;
        if store {
            if self.write_epoch[idx] == self.epoch && self.write_tid[idx] != tid {
                self.push(Hazard::WriteWriteRace { other: self.write_tid[idx] }, tid, Some(idx));
            }
            if self.read_epoch[idx] == self.epoch {
                // Two distinct reader slots suffice: if ≥ 2 lanes read the
                // word this phase, at least one of them is not the writer.
                let other = [self.reader1[idx], self.reader2[idx]]
                    .into_iter()
                    .find(|&r| r != NONE && r != tid);
                if let Some(reader) = other {
                    self.push(Hazard::ReadWriteRace { other: tid }, reader, Some(idx));
                }
            }
            self.write_epoch[idx] = self.epoch;
            self.write_tid[idx] = tid;
            self.init[idx] = true;
        } else {
            if !self.init[idx] {
                self.push(Hazard::UninitializedRead, tid, Some(idx));
                // Report each uninitialized word once, not per reader.
                self.init[idx] = true;
            }
            if self.write_epoch[idx] == self.epoch && self.write_tid[idx] != tid {
                self.push(Hazard::ReadWriteRace { other: self.write_tid[idx] }, tid, Some(idx));
            }
            if self.read_epoch[idx] != self.epoch {
                self.read_epoch[idx] = self.epoch;
                self.reader1[idx] = tid;
                self.reader2[idx] = NONE;
            } else if self.reader1[idx] != tid && self.reader2[idx] == NONE {
                self.reader2[idx] = tid;
            }
        }
        true
    }

    fn global_access(&mut self, tid: u32, idx: usize, len: usize, store: bool) -> bool {
        if len != usize::MAX && idx >= len {
            self.push(Hazard::GlobalOutOfBounds { len, store }, tid, Some(idx));
            return false;
        }
        let lane = tid as usize % self.w;
        self.global_counts[lane] += 1;
        true
    }
}
