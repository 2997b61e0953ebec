//! Per-thread gather schedule (Algorithm 1).
//!
//! Thread `i` of a block owns the merge-path pair `(Aᵢ, Bᵢ)` with
//! block-local offsets `aᵢ`, `bᵢ = iE − aᵢ` and sizes
//! `|Aᵢ| + |Bᵢ| = E`. The gather performs `E` rounds; with
//! `k = aᵢ mod E`, round `j` reads
//!
//! * the `(j − k mod E)`-th element of `Aᵢ` if that is within `|Aᵢ|`
//!   (ascending scan), or
//! * the `(k − j − 1 mod E)`-th element of `Bᵢ` otherwise (descending
//!   scan),
//!
//! exactly Algorithm 1 of the paper. Equivalently: the element with
//! block-local *logical* index `c` is read in round `c mod E`.
//!
//! The register array after the gather holds, at position `j`, the element
//! read in round `j`; scanning positions from `k` cyclically yields `Aᵢ`
//! ascending followed by `Bᵢ` descending — a rotated bitonic sequence.

use super::layout::CfLayout;

/// One thread's merge-path split, block-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSplit {
    /// Offset of `Aᵢ` in the block's `A` list (the paper's `aᵢ`).
    pub a_begin: usize,
    /// `|Aᵢ|`; the thread's `Bᵢ` has size `E − a_len`.
    pub a_len: usize,
}

/// What a gather round reads: which list, the element's offset within the
/// thread's subsequence, and the physical shared-memory slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterSlot {
    /// Round reads `Aᵢ[m]` from physical slot `slot`.
    A {
        /// Offset within `Aᵢ`.
        m: usize,
        /// Physical shared-memory address.
        slot: usize,
    },
    /// Round reads `Bᵢ[m]` from physical slot `slot`.
    B {
        /// Offset within `Bᵢ`.
        m: usize,
        /// Physical shared-memory address.
        slot: usize,
    },
}

impl RegisterSlot {
    /// The physical shared-memory address this round touches.
    #[must_use]
    pub fn slot(&self) -> usize {
        match *self {
            RegisterSlot::A { slot, .. } | RegisterSlot::B { slot, .. } => slot,
        }
    }
}

/// The complete `E`-round schedule of one thread.
#[derive(Debug, Clone, Copy)]
pub struct GatherSchedule {
    layout: CfLayout,
    tid: usize,
    split: ThreadSplit,
    k: usize,
}

impl GatherSchedule {
    /// Schedule for thread `tid` with the given split under `layout`.
    ///
    /// # Panics
    /// Panics if the split is inconsistent with the layout (out-of-range
    /// offsets or `a_len > E`).
    #[must_use]
    pub fn new(layout: CfLayout, tid: usize, split: ThreadSplit) -> Self {
        let e = layout.e;
        assert!(split.a_len <= e, "|A_i| = {} exceeds E = {e}", split.a_len);
        assert!(
            split.a_begin + split.a_len <= layout.a_total,
            "A_i = [{}, {}) outside |A| = {}",
            split.a_begin,
            split.a_begin + split.a_len,
            layout.a_total
        );
        let b_begin = tid * e - split.a_begin;
        let b_len = e - split.a_len;
        assert!(
            b_begin + b_len <= layout.b_total(),
            "B_i = [{b_begin}, {}) outside |B| = {} (tid={tid})",
            b_begin + b_len,
            layout.b_total()
        );
        Self { layout, tid, split, k: split.a_begin % e }
    }

    /// The thread's `bᵢ` (offset of `Bᵢ` in the block's `B` list).
    #[must_use]
    pub fn b_begin(&self) -> usize {
        self.tid * self.layout.e - self.split.a_begin
    }

    /// `|Bᵢ|`.
    #[must_use]
    pub fn b_len(&self) -> usize {
        self.layout.e - self.split.a_len
    }

    /// The rotation `k = aᵢ mod E`: scanning register positions
    /// `k, k+1, …` cyclically yields `Aᵢ` ascending then `Bᵢ` descending.
    #[must_use]
    pub fn rotation(&self) -> usize {
        self.k
    }

    /// What this thread reads in round `j` (Algorithm 1 lines 5–8).
    ///
    /// # Panics
    /// Panics if `j ≥ E`.
    #[must_use]
    pub fn round(&self, j: usize) -> RegisterSlot {
        let e = self.layout.e;
        assert!(j < e, "round {j} out of range (E = {e})");
        let m = (j + e - self.k) % e;
        if m < self.split.a_len {
            let x = self.split.a_begin + m;
            RegisterSlot::A { m, slot: self.layout.a_slot(x) }
        } else {
            let m_b = (self.k + e - j - 1) % e;
            debug_assert!(m_b < self.b_len());
            let y = self.b_begin() + m_b;
            RegisterSlot::B { m: m_b, slot: self.layout.b_slot(y) }
        }
    }

    /// The `E` rounds in round order as `(m, slot)`: round `j` reads
    /// `Aᵢ[m]` if `m < |Aᵢ|` and `Bᵢ[E − 1 − m]` otherwise, from physical
    /// `slot`, where `m = (j − k) mod E`. The same reads as
    /// [`round`](Self::round), but `m` is stepped instead of recomputed,
    /// so a round costs no division. Storing round `j`'s element in
    /// register `m` undoes the rotation: `Aᵢ` ascending, then `Bᵢ`
    /// descending.
    pub fn walk(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let e = self.layout.e;
        let (a_begin, a_len) = (self.split.a_begin, self.split.a_len);
        let b_last = self.b_begin() + e - 1;
        let mut m = (e - self.k) % e;
        (0..e).map(move |_| {
            let slot = if m < a_len {
                self.layout.a_slot(a_begin + m)
            } else {
                self.layout.b_slot(b_last - m)
            };
            let here = m;
            m = if m + 1 == e { 0 } else { m + 1 };
            (here, slot)
        })
    }

    /// All `E` rounds in order.
    #[must_use]
    pub fn rounds(&self) -> Vec<RegisterSlot> {
        (0..self.layout.e).map(|j| self.round(j)).collect()
    }

    /// Given the register array `items` (indexed by round), the register
    /// position holding `Aᵢ[m]`.
    #[must_use]
    pub fn a_register(&self, m: usize) -> usize {
        debug_assert!(m < self.split.a_len);
        (self.k + m) % self.layout.e
    }

    /// Register position holding `Bᵢ[m]`.
    #[must_use]
    pub fn b_register(&self, m: usize) -> usize {
        debug_assert!(m < self.b_len());
        (self.k + self.layout.e - 1 - m) % self.layout.e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Random merge-path-shaped splits for `t` threads: non-decreasing
    /// aᵢ with aᵢ₊₁ − aᵢ ≤ E and a final total of `a_total`.
    fn random_splits(
        rng: &mut rand::rngs::SmallRng,
        t: usize,
        e: usize,
    ) -> (Vec<ThreadSplit>, usize) {
        let mut splits = Vec::with_capacity(t);
        let mut a = 0usize;
        for _ in 0..t {
            let len = rng.gen_range(0..=e);
            splits.push(ThreadSplit { a_begin: a, a_len: len });
            a += len;
        }
        (splits, a)
    }

    #[test]
    fn every_round_reads_exactly_one_element_and_covers_the_pair() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for &(w, e, warps) in
            &[(12usize, 5usize, 1usize), (9, 6, 1), (6, 4, 3), (32, 15, 2), (32, 16, 2)]
        {
            let u = w * warps;
            let (splits, a_total) = random_splits(&mut rng, u, e);
            let layout = CfLayout::new(w, e, u * e, a_total);
            for (tid, &split) in splits.iter().enumerate() {
                let s = GatherSchedule::new(layout, tid, split);
                let mut a_seen = vec![false; split.a_len];
                let mut b_seen = vec![false; s.b_len()];
                for j in 0..e {
                    match s.round(j) {
                        RegisterSlot::A { m, .. } => {
                            assert!(!a_seen[m]);
                            a_seen[m] = true;
                        }
                        RegisterSlot::B { m, .. } => {
                            assert!(!b_seen[m]);
                            b_seen[m] = true;
                        }
                    }
                }
                assert!(a_seen.iter().all(|&x| x) && b_seen.iter().all(|&x| x));
            }
        }
    }

    #[test]
    fn walk_reads_what_round_reads() {
        // Every thread of small blocks, coprime and not, both layouts.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(43);
        for &(w, e, warps) in &[(12usize, 5usize, 1usize), (9, 6, 2), (8, 8, 2), (32, 15, 2)] {
            let u = w * warps;
            for _ in 0..10 {
                let (splits, a_total) = random_splits(&mut rng, u, e);
                for layout in [
                    CfLayout::new(w, e, u * e, a_total),
                    CfLayout::reversal_only(w, e, u * e, a_total),
                ] {
                    for (tid, &split) in splits.iter().enumerate() {
                        let s = GatherSchedule::new(layout, tid, split);
                        for (j, (m, slot)) in s.walk().enumerate() {
                            assert_eq!(slot, s.round(j).slot(), "w={w} E={e} tid={tid} j={j}");
                            match s.round(j) {
                                RegisterSlot::A { m: x, .. } => assert_eq!(m, x),
                                RegisterSlot::B { m: y, .. } => assert_eq!(m, e - 1 - y),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_ascending_b_descending_rotation() {
        // Scanning register positions k, k+1, … cyclically must give A
        // ascending then B descending (the bitonic shape).
        let layout = CfLayout::new(12, 5, 60, 23);
        let split = ThreadSplit { a_begin: 7, a_len: 3 };
        let s = GatherSchedule::new(layout, 2, split); // tid 2: b_begin = 3
        let k = s.rotation();
        assert_eq!(k, 7 % 5);
        // Positions k..k+3: A[0], A[1], A[2].
        for m in 0..3 {
            assert_eq!(s.a_register(m), (k + m) % 5);
        }
        // Positions k+3, k+4: B[1], B[0] (descending).
        assert_eq!(s.b_register(1), (k + 3) % 5);
        assert_eq!(s.b_register(0), (k + 4) % 5);
    }

    #[test]
    fn rounds_are_conflict_free_across_each_warp() {
        // THE theorem of Section 3: in every round, the w threads of a
        // warp touch w distinct banks. Randomized over many (w, E, u) and
        // many merge-path splits, coprime and non-coprime.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB00C);
        let cases: &[(usize, usize, usize)] = &[
            (12, 5, 1),
            (12, 5, 3),
            (9, 6, 1),
            (9, 6, 2),
            (6, 4, 3),
            (12, 9, 2),
            (8, 6, 2),
            (32, 15, 1),
            (32, 15, 4),
            (32, 17, 2),
            (32, 16, 2),
            (32, 24, 2),
            (32, 32, 1),
            (10, 4, 2),
            (15, 10, 2),
        ];
        for &(w, e, warps) in cases {
            let u = w * warps;
            for trial in 0..40 {
                let (splits, a_total) = random_splits(&mut rng, u, e);
                let layout = CfLayout::new(w, e, u * e, a_total);
                let schedules: Vec<GatherSchedule> = splits
                    .iter()
                    .enumerate()
                    .map(|(tid, &sp)| GatherSchedule::new(layout, tid, sp))
                    .collect();
                for v in 0..warps {
                    for j in 0..e {
                        let mut banks = vec![false; w];
                        for lane in 0..w {
                            let slot = schedules[v * w + lane].round(j).slot();
                            let bank = slot % w;
                            assert!(
                                !banks[bank],
                                "bank conflict: w={w} E={e} warps={warps} trial={trial} \
                                 warp={v} round={j} bank={bank}"
                            );
                            banks[bank] = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slots_within_rounds_are_globally_disjoint() {
        // Across the whole block, each round reads each physical slot at
        // most once (threads never share an element).
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let (w, e, warps) = (9usize, 6usize, 2usize);
        let u = w * warps;
        let (splits, a_total) = random_splits(&mut rng, u, e);
        let layout = CfLayout::new(w, e, u * e, a_total);
        let mut touched = vec![false; u * e];
        for (tid, &sp) in splits.iter().enumerate() {
            for j in 0..e {
                let slot = GatherSchedule::new(layout, tid, sp).round(j).slot();
                assert!(!touched[slot]);
                touched[slot] = true;
            }
        }
        assert!(touched.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "exceeds E")]
    fn oversized_split_rejected() {
        let layout = CfLayout::new(12, 5, 60, 30);
        let _ = GatherSchedule::new(layout, 0, ThreadSplit { a_begin: 0, a_len: 6 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn round_out_of_range_panics() {
        let layout = CfLayout::new(12, 5, 60, 30);
        let s = GatherSchedule::new(layout, 0, ThreadSplit { a_begin: 0, a_len: 5 });
        let _ = s.round(5);
    }
}
