//! Address-expression IR for shared-memory schedules.
//!
//! Each kernel phase's shared accesses are described as a [`Pattern`]: a
//! symbolic statement of which word every lane touches in every round,
//! with the lane index and round (step) number as free variables. The
//! prover ([`super::prove`]) certifies properties for *all* values of the
//! free variables; [`Pattern::sample_rounds`] concretizes a finite sample
//! for cross-validation against [`BankModel::round_cost`]
//! (`crate::BankModel`).

use cfmerge_numtheory::gcd;

/// An affine address expression `base + lane·tid + step·round`, the IR of
/// the strided schedules (tile load/store, register pulls/writebacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineForm {
    /// Constant offset.
    pub base: i64,
    /// Coefficient of the block-wide thread id.
    pub lane: i64,
    /// Coefficient of the round (step) index.
    pub step: i64,
}

impl AffineForm {
    /// Evaluate at a concrete `(tid, round)`.
    #[must_use]
    pub fn addr(&self, tid: usize, round: usize) -> i64 {
        self.base + self.lane * tid as i64 + self.step * round as i64
    }
}

/// The paper's permutation ρ (layout.rs `CfLayout::rho`), replicated here
/// so the prover's concretizations are self-contained. `partition` is
/// `w·E/d`; logical index `c` maps to a slot rotated by `⌊c/partition⌋
/// mod d` within its partition.
#[must_use]
pub fn rho(c: usize, partition: usize, d: usize) -> usize {
    if d == 1 {
        return c;
    }
    let ell = c / partition;
    let within = c % partition;
    ell * partition + (within + ell % d) % partition
}

/// The blocksort CF writeback reflection (`cf_rank_slot`): within each
/// pair of runs of length `run_w`, ranks in the first run store forward,
/// ranks in the second run store mirrored, so the subsequent gather sees
/// an ascending A run and a descending B run in place.
#[must_use]
pub fn reflected_slot(rank: usize, run_w: usize) -> usize {
    let pair = 2 * run_w;
    let p = rank / pair;
    let rel = rank % pair;
    if rel < run_w {
        rank
    } else {
        p * pair + (pair - 1 - (rel - run_w))
    }
}

/// A phase's shared-memory address schedule, as the prover sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `base + lane·tid + step·round` for `rounds` rounds.
    Affine {
        /// The expression.
        form: AffineForm,
        /// Number of rounds each warp issues.
        rounds: usize,
    },
    /// The CF-Merge gather load schedule: round `j` of a warp reads all
    /// elements of residue class `j (mod E)` owned by the warp's pair
    /// window, through the permutation ρ. Which lane reads which element
    /// depends on the input, but the *set* of words per round does not.
    GatherCf {
        /// Elements per thread `E`.
        e: usize,
    },
    /// The blocksort gather load schedule over a reversal-only layout
    /// (ρ = identity): round `j` reads logical words `{q·E + j}` over the
    /// warp's `w` consecutive `q` values.
    GatherReversal {
        /// Elements per thread `E`.
        e: usize,
    },
    /// The blocksort CF writeback: lane `tid` stores rank
    /// `tid·E + round` through `reflected_slot` with run width `run_w`.
    /// A static, input-independent schedule.
    Reflected {
        /// Elements per thread `E`.
        e: usize,
        /// Run width of the reflection.
        run_w: usize,
        /// Warps per block (`u/w`).
        warps: usize,
    },
    /// The merge-pass CF tile load's *store* side: round `r`, lane `tid`
    /// stores word `ρ(π(r·u + tid))` where π routes indices below the
    /// data-dependent A/B boundary `a_len` ascending and the rest
    /// descending from the top.
    PermutedLoad {
        /// Elements per thread `E`.
        e: usize,
    },
    /// Addresses depend on key values in a way no schedule-level argument
    /// can bound (e.g. the serial merge's comparison-driven loads).
    DataDependent(&'static str),
}

impl Pattern {
    /// One-line description for reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Pattern::Affine { form, rounds } => format!(
                "affine {} + {}·tid + {}·round ({rounds} rounds)",
                form.base, form.lane, form.step
            ),
            Pattern::GatherCf { e } => format!("CF gather via ρ (E = {e})"),
            Pattern::GatherReversal { e } => format!("reversal-only gather (E = {e})"),
            Pattern::Reflected { e, run_w, .. } => {
                format!("reflected writeback (E = {e}, run_w = {run_w})")
            }
            Pattern::PermutedLoad { e } => format!("permuting tile store via ρ∘π (E = {e})"),
            Pattern::DataDependent(why) => format!("data-dependent: {why}"),
        }
    }

    /// Concretize a finite sample of per-warp rounds (each a vector of
    /// word addresses, one per lane) for cross-validation against
    /// `BankModel::round_cost`. Data-dependent parameters (the
    /// [`Pattern::PermutedLoad`] boundary) are swept over a sample set;
    /// [`Pattern::DataDependent`] yields no rounds.
    #[must_use]
    pub fn sample_rounds(&self, w: usize, warps: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        match *self {
            Pattern::Affine { form, rounds } => {
                for v in 0..warps {
                    for t in 0..rounds {
                        out.push(
                            (0..w)
                                .map(|k| {
                                    let a = form.addr(v * w + k, t);
                                    assert!(a >= 0, "affine sample went negative");
                                    a as u32
                                })
                                .collect(),
                        );
                    }
                }
            }
            Pattern::GatherCf { e } => {
                let d = gcd(w as u64, e as u64) as usize;
                let partition = w * e / d;
                for v in 0..warps {
                    for j in 0..e {
                        out.push(
                            (v * w..(v + 1) * w)
                                .map(|q| rho(q * e + j, partition, d) as u32)
                                .collect(),
                        );
                    }
                }
            }
            Pattern::GatherReversal { e } => {
                for v in 0..warps {
                    for j in 0..e {
                        out.push((v * w..(v + 1) * w).map(|q| (q * e + j) as u32).collect());
                    }
                }
            }
            Pattern::Reflected { e, run_w, warps: _ } => {
                for v in 0..warps {
                    for m in 0..e {
                        out.push(
                            (0..w)
                                .map(|k| reflected_slot((v * w + k) * e + m, run_w) as u32)
                                .collect(),
                        );
                    }
                }
            }
            Pattern::PermutedLoad { e } => {
                // Boundary sweep: the store slot of flat index s is s for
                // s < a_len (ascending A) and total−1−(s−a_len) for the
                // rest (descending B); ρ is the identity in the certified
                // d = 1 case. Sample several boundaries including the
                // degenerate ones.
                let u = warps * w;
                let total = u * e;
                let boundaries = [0, 1, e, total / 3, total / 2, total - e, total - 1, total];
                for a_len in boundaries {
                    for r in 0..e {
                        for v in 0..warps {
                            out.push(
                                (0..w)
                                    .map(|k| {
                                        let s = r * u + v * w + k;
                                        if s < a_len {
                                            s as u32
                                        } else {
                                            (total - 1 - (s - a_len)) as u32
                                        }
                                    })
                                    .collect(),
                            );
                        }
                    }
                }
            }
            Pattern::DataDependent(_) => {}
        }
        out
    }

    /// A **complete** enumeration of per-warp rounds for exhaustive
    /// certification on an arbitrary bank shape, covering every free
    /// variable the symbolic rules would otherwise eliminate:
    ///
    /// * [`Pattern::Affine`] — every (warp, round) of the schedule at both
    ///   base parities. Bank structure under a `width`-word row depends on
    ///   the address modulo `width·w` only through `base mod width` (the
    ///   quotient shifts all lanes' rows equally), so the two parities
    ///   cover every base/round/warp offset for `width ≤ 2`.
    /// * [`Pattern::GatherCf`] / [`Pattern::GatherReversal`] — every round
    ///   at every window alignment `q₀ ∈ [0, 2w)`. The address map is
    ///   periodic (`addr(q + w) = addr(q) + w·E`, and ρ satisfies
    ///   `ρ(c + d·partition) = ρ(c) + w·E`), and a shift by `2w·E` moves
    ///   all rows of a ≤ 2-word bank row equally, so `2w` consecutive
    ///   alignments cover every window a data-dependent merge-path split
    ///   can produce.
    /// * [`Pattern::Reflected`] — every (warp, round); the schedule is
    ///   static, so this is simply the whole kernel phase.
    /// * [`Pattern::PermutedLoad`] — every boundary `a_len ∈ [0, u·E·warps]`
    ///   contributes its crossing round, plus the two all-ascending /
    ///   all-descending extremes contribute every round; non-crossing
    ///   rounds of intermediate boundaries duplicate one of those two
    ///   shapes, so nothing is missed.
    /// * [`Pattern::DataDependent`] — no rounds (nothing is enumerable).
    ///
    /// The result is a superset of [`Pattern::sample_rounds`]'s
    /// concretizations in cost structure: a worst-case transaction count
    /// over these rounds bounds every round the real kernel can issue.
    #[must_use]
    pub fn exhaustive_rounds(&self, w: usize, warps: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        match *self {
            Pattern::Affine { form, rounds } => {
                for parity in 0..2i64 {
                    for v in 0..warps {
                        for t in 0..rounds {
                            out.push(
                                (0..w)
                                    .map(|k| {
                                        let a = form.addr(v * w + k, t) + parity;
                                        assert!(a >= 0, "affine enumeration went negative");
                                        a as u32
                                    })
                                    .collect(),
                            );
                        }
                    }
                }
            }
            Pattern::GatherCf { e } => {
                let d = gcd(w as u64, e as u64) as usize;
                let partition = w * e / d;
                for q0 in 0..2 * w {
                    for j in 0..e {
                        out.push(
                            (q0..q0 + w).map(|q| rho(q * e + j, partition, d) as u32).collect(),
                        );
                    }
                }
            }
            Pattern::GatherReversal { e } => {
                for q0 in 0..2 * w {
                    for j in 0..e {
                        out.push((q0..q0 + w).map(|q| (q * e + j) as u32).collect());
                    }
                }
            }
            Pattern::Reflected { .. } => {
                out = self.sample_rounds(w, warps);
            }
            Pattern::PermutedLoad { e } => {
                let u = warps * w;
                let total = u * e;
                let round = |a_len: usize, s0: usize| -> Vec<u32> {
                    (0..w)
                        .map(|k| {
                            let s = s0 + k;
                            if s < a_len {
                                s as u32
                            } else {
                                (total - 1 - (s - a_len)) as u32
                            }
                        })
                        .collect()
                };
                // The two pure extremes: every round all-ascending and
                // all-descending.
                for r in 0..e {
                    for v in 0..warps {
                        let s0 = r * u + v * w;
                        out.push(round(total, s0));
                        out.push(round(0, s0));
                    }
                }
                // Every interior boundary's crossing round (the only round
                // that differs from the extremes).
                for a_len in 1..total {
                    let s0 = (a_len - 1) / w * w;
                    debug_assert!(s0 < a_len && a_len < s0 + w || a_len == s0 + w);
                    if a_len < s0 + w {
                        out.push(round(a_len, s0));
                    }
                }
            }
            Pattern::DataDependent(_) => {}
        }
        out
    }

    /// The exact set of shared words the schedule can touch, sorted and
    /// deduplicated, or `None` when the addresses are data-dependent
    /// (bounded only by the tile). The strided/permuted schedules all
    /// cover their ranges exactly, which is what the static lint pass
    /// checks capacity, overlap, and initialization against.
    #[must_use]
    pub fn footprint_words(&self, w: usize, warps: usize) -> Option<Vec<u32>> {
        match *self {
            Pattern::Affine { form, rounds } => {
                let mut words: Vec<u32> = (0..warps * w)
                    .flat_map(|tid| {
                        (0..rounds).map(move |t| {
                            let a = form.addr(tid, t);
                            assert!(a >= 0, "affine footprint went negative");
                            a as u32
                        })
                    })
                    .collect();
                words.sort_unstable();
                words.dedup();
                Some(words)
            }
            // ρ, the reversal layout, the reflection, and the boundary
            // permutation are all bijections on the tile.
            Pattern::GatherCf { e }
            | Pattern::GatherReversal { e }
            | Pattern::Reflected { e, .. }
            | Pattern::PermutedLoad { e } => Some((0..(warps * w * e) as u32).collect()),
            Pattern::DataDependent(_) => None,
        }
    }
}
