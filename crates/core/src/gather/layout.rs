//! The CF-Merge shared-memory layout `ρ(A ∪ π(B))`.
//!
//! Logical index space (what the algorithms reason about): the `A` list
//! occupies logical indices `[0, |A|)` in order; the `B` list is reversed
//! by `π`, so `B`'s element at B-offset `y` has logical index
//! `total − 1 − y`. Physical placement applies the circular shift `ρ`:
//! the region is cut into partitions of `wE/d` words and partition `ℓ` is
//! rotated forward by `ℓ mod d` positions (Sections 3.2–3.3). For coprime
//! `w` and `E` (`d = 1`), `ρ` is the identity and the layout is just
//! "A forward, B backward".
//!
//! The governing invariant (proved via Corollary 3, checked exhaustively
//! in tests): **the logical index `c` is read in gather round
//! `c mod E`**, and the physical addresses of `{c : c ≡ j (mod E)}`
//! within any aligned `wE` window hit all `w` banks exactly once.

use cfmerge_numtheory::gcd;

/// Index maps for one block's (or warp's) permuted tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfLayout {
    /// Warp width / bank count `w`.
    pub w: usize,
    /// Elements per thread `E`.
    pub e: usize,
    /// `d = gcd(w, E)`.
    pub d: usize,
    /// Partition size `wE/d` for the circular shift `ρ`.
    pub partition: usize,
    /// Total words in the tile (`u·E` for a block, `w·E` for one warp).
    pub total: usize,
    /// Number of elements currently in the `A` list (`|A|`); `B` holds
    /// `total − a_total`.
    pub a_total: usize,
}

impl CfLayout {
    /// Layout for a tile of `total` words split as `a_total` from `A` and
    /// the rest from `B`.
    ///
    /// ```
    /// use cfmerge_core::gather::CfLayout;
    /// // One warp's tile at the paper's parameters (d = 1 → ρ = id).
    /// let l = CfLayout::new(32, 15, 32 * 15, 200);
    /// assert_eq!(l.a_slot(0), 0);          // A stays in order
    /// assert_eq!(l.b_slot(0), 32 * 15 - 1); // B is reversed (π)
    /// // Every logical index is read in round (index mod E):
    /// assert_eq!(l.round_of_logical(47), 47 % 15);
    /// ```
    ///
    /// # Panics
    /// Panics unless `total` is a positive multiple of `wE/d` (a whole
    /// number of ρ-partitions — always true for complete blocks, where
    /// `total = uE` and `w | u`) and `a_total ≤ total`.
    #[must_use]
    pub fn new(w: usize, e: usize, total: usize, a_total: usize) -> Self {
        assert!(w > 0 && e > 0, "w and E must be positive");
        let d = gcd(w as u64, e as u64) as usize;
        let partition = w * e / d;
        assert!(
            total > 0 && total.is_multiple_of(partition),
            "tile of {total} words is not a whole number of ρ-partitions ({partition})"
        );
        assert!(a_total <= total, "|A| = {a_total} exceeds tile size {total}");
        Self { w, e, d, partition, total, a_total }
    }

    /// A reversal-only layout: `π` applied, `ρ` forced to the identity
    /// regardless of `gcd(w, E)`.
    ///
    /// Used by the CF block-sort's small intra-tile merge pairs, whose
    /// size need not be a multiple of `wE/d`. For coprime `E` this *is*
    /// the CF layout; for non-coprime `E` it omits the circular shift
    /// (the artifact the paper evaluates only implements the coprime
    /// variant — see DESIGN.md).
    #[must_use]
    pub fn reversal_only(w: usize, e: usize, total: usize, a_total: usize) -> Self {
        assert!(w > 0 && e > 0 && total > 0);
        assert!(a_total <= total, "|A| = {a_total} exceeds tile size {total}");
        Self { w, e, d: 1, partition: total, total, a_total }
    }

    /// Number of elements in the `B` list.
    #[inline]
    #[must_use]
    pub fn b_total(&self) -> usize {
        self.total - self.a_total
    }

    /// π: logical index of the `A` element at A-offset `x`.
    #[inline]
    #[must_use]
    pub fn a_logical(&self, x: usize) -> usize {
        debug_assert!(x < self.a_total, "A offset {x} out of range {}", self.a_total);
        x
    }

    /// π: logical index of the `B` element at B-offset `y` (reversed).
    #[inline]
    #[must_use]
    pub fn b_logical(&self, y: usize) -> usize {
        debug_assert!(y < self.b_total(), "B offset {y} out of range {}", self.b_total());
        self.total - 1 - y
    }

    /// ρ: physical shared-memory slot of logical index `c`.
    #[inline]
    #[must_use]
    pub fn rho(&self, c: usize) -> usize {
        debug_assert!(c < self.total);
        if self.d == 1 {
            return c; // identity for coprime w, E
        }
        let ell = c / self.partition;
        let within = c % self.partition;
        ell * self.partition + (within + ell % self.d) % self.partition
    }

    /// ρ⁻¹: logical index stored at physical slot `s`.
    #[must_use]
    pub fn rho_inv(&self, s: usize) -> usize {
        debug_assert!(s < self.total);
        if self.d == 1 {
            return s;
        }
        let ell = s / self.partition;
        let within = s % self.partition;
        let shift = ell % self.d;
        ell * self.partition + (within + self.partition - shift) % self.partition
    }

    /// Physical slot of the `A` element at A-offset `x` — the composition
    /// `ρ(π_A(x))`.
    #[inline]
    #[must_use]
    pub fn a_slot(&self, x: usize) -> usize {
        self.rho(self.a_logical(x))
    }

    /// Physical slot of the `B` element at B-offset `y` — `ρ(π_B(y))`.
    #[inline]
    #[must_use]
    pub fn b_slot(&self, y: usize) -> usize {
        self.rho(self.b_logical(y))
    }

    /// The gather round in which logical index `c` is read:
    /// `c mod E` (the invariant of Sections 3.1–3.2).
    #[must_use]
    pub fn round_of_logical(&self, c: usize) -> usize {
        c % self.e
    }

    /// The natural (unpermuted) layout used by the Thrust baseline:
    /// `A` at `[0, |A|)`, `B` at `[|A|, total)`.
    #[must_use]
    pub fn natural_a_slot(&self, x: usize) -> usize {
        debug_assert!(x < self.a_total);
        x
    }

    /// Natural slot of the `B` element at B-offset `y` (baseline layout).
    #[must_use]
    pub fn natural_b_slot(&self, y: usize) -> usize {
        debug_assert!(y < self.b_total());
        self.a_total + y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts_under_test() -> Vec<CfLayout> {
        let mut v = Vec::new();
        // (w, E) pairs covering d = 1 and d > 1, incl. the paper's figure
        // parameters (12,5), (9,6), (6,4) and headline (32,15), (32,17),
        // (32,16).
        for &(w, e) in &[
            (12usize, 5usize),
            (9, 6),
            (6, 4),
            (32, 15),
            (32, 17),
            (32, 16),
            (32, 32),
            (8, 6),
            (10, 4),
        ] {
            let d = gcd(w as u64, e as u64) as usize;
            let part = w * e / d;
            for mult in [1usize, 2, 3] {
                let total = part * mult * d; // a few whole-partition sizes
                for a_total in [0, total / 3, total / 2, total] {
                    v.push(CfLayout::new(w, e, total, a_total));
                }
            }
        }
        v
    }

    #[test]
    fn rho_is_a_bijection_and_inverse_matches() {
        for l in layouts_under_test() {
            let mut seen = vec![false; l.total];
            for c in 0..l.total {
                let s = l.rho(c);
                assert!(s < l.total);
                assert!(!seen[s], "rho collision at {s} (w={} E={})", l.w, l.e);
                seen[s] = true;
                assert_eq!(l.rho_inv(s), c);
            }
        }
    }

    #[test]
    fn rho_shifts_within_partitions_only() {
        for l in layouts_under_test() {
            for c in 0..l.total {
                assert_eq!(l.rho(c) / l.partition, c / l.partition);
            }
        }
    }

    #[test]
    fn coprime_rho_is_identity() {
        let l = CfLayout::new(32, 15, 32 * 15, 100);
        for c in 0..l.total {
            assert_eq!(l.rho(c), c);
            assert_eq!(l.rho_inv(c), c);
        }
    }

    #[test]
    fn a_and_b_slots_partition_the_tile() {
        for l in layouts_under_test() {
            let mut seen = vec![false; l.total];
            for x in 0..l.a_total {
                let s = l.a_slot(x);
                assert!(!seen[s]);
                seen[s] = true;
            }
            for y in 0..l.b_total() {
                let s = l.b_slot(y);
                assert!(!seen[s], "A/B slot collision (w={} E={})", l.w, l.e);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn b_is_reversed() {
        let l = CfLayout::new(32, 15, 480, 200);
        // Consecutive B offsets land on consecutive descending slots
        // (d = 1 so ρ = id).
        for y in 0..l.b_total() - 1 {
            assert_eq!(l.b_slot(y), l.b_slot(y + 1) + 1);
        }
        assert_eq!(l.b_slot(0), 479);
    }

    #[test]
    fn round_sets_are_complete_residue_systems_per_warp_window() {
        // The invariant powering conflict-freedom: within any aligned wE
        // window of logical indices, the physical slots of
        // {c : c ≡ j (mod E)} hit every bank exactly once.
        for l in layouts_under_test() {
            if l.total % (l.w * l.e) != 0 {
                continue;
            }
            for window in 0..l.total / (l.w * l.e) {
                let base = window * l.w * l.e;
                for j in 0..l.e {
                    let mut banks = vec![false; l.w];
                    let mut count = 0;
                    for c in base..base + l.w * l.e {
                        if c % l.e == j {
                            let bank = l.rho(c) % l.w;
                            assert!(
                                !banks[bank],
                                "bank {bank} hit twice in round {j} (w={} E={} window={window})",
                                l.w, l.e
                            );
                            banks[bank] = true;
                            count += 1;
                        }
                    }
                    assert_eq!(count, l.w);
                }
            }
        }
    }

    #[test]
    fn figure3_parameters_partition_sizes() {
        // w = 9, E = 6, d = 3: partitions of wE/d = 18 elements shifted by
        // 0, 1, 2. (The paper's Figure 3 caption says 16 for its 54-word
        // example split across three partitions of 18 — the figure shows
        // the shift boundaries; our math follows the definitions.)
        let l = CfLayout::new(9, 6, 54, 30);
        assert_eq!(l.d, 3);
        assert_eq!(l.partition, 18);
        // Partition 0 unshifted, partition 1 shifted by 1, partition 2 by 2.
        assert_eq!(l.rho(0), 0);
        assert_eq!(l.rho(18), 18 + 1);
        assert_eq!(l.rho(35), 18);
        assert_eq!(l.rho(36), 36 + 2);
    }

    #[test]
    #[should_panic(expected = "whole number of ρ-partitions")]
    fn ragged_tile_rejected() {
        let _ = CfLayout::new(9, 6, 55, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds tile size")]
    fn oversized_a_rejected() {
        let _ = CfLayout::new(9, 6, 54, 55);
    }
}
