//! Shared-memory bank model and exact conflict accounting.
//!
//! On NVIDIA GPUs shared memory is divided into `w` banks; the word at
//! address `j` lives in bank `j mod w` (Section 2 of the paper). When the
//! `w` threads of a warp issue one lock-step access, the hardware splits it
//! into one *transaction* per distinct word per bank, replaying the
//! instruction until every bank's words are served. The access therefore
//! costs `max_b (# distinct words in bank b)` transactions; any count above
//! one is a **bank conflict**. Accesses by multiple lanes to the *same*
//! word are broadcast and cost nothing extra (footnote 4).
//!
//! Bank *word width* is a device property, not a constant: Kepler-class
//! parts (and the model analyzed by Afshani & Sitchinava, *Sorting and
//! Permuting without Bank Conflicts on GPUs*) serve **64-bit banks**, where
//! two adjacent 32-bit words share one bank row. [`BankModel`] carries the
//! width as `bank_word_u32s` (1 = classic 4-byte banks, 2 = 8-byte banks):
//! word `j` lives in bank `⌊j / bank_word_u32s⌋ mod w`, and two lanes
//! touching *different* 32-bit words inside the same fused row are served
//! by one transaction — so conflict structure changes qualitatively with
//! the width, which is exactly what the certification lattice quantifies.
//!
//! [`BankModel::round_cost`] implements this exactly and statelessly: it
//! is the reference that the prover, the worst-case builder and the
//! renderers call. The engine prices its rounds with [`RowStamps`]
//! instead, a per-block table that gives the same [`RoundCost`]. Both
//! start with the same bank-mask pass, which prices a round whose lanes
//! sit in distinct banks at one transaction. Where `round_cost` then
//! builds a per-bank lane table and searches it, `RowStamps` finishes a
//! conflicting round in one branch-free pass over the lanes.

use cfmerge_json::json_struct;

/// Static description of a shared-memory bank layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankModel {
    /// Number of banks `w` (32 on all modern NVIDIA GPUs; the paper's
    /// figures use 12, 9, and 6 for legibility).
    pub num_banks: u32,
    /// Bank row width in 32-bit words: 1 for classic 4-byte banks (the
    /// paper's testbed), 2 for Kepler-style 8-byte banks where adjacent
    /// word addresses fuse into one row.
    pub bank_word_u32s: u32,
}

json_struct! {
    BankModel {
        num_banks,
        // The width is emitted only when non-default so artifacts written
        // before the field existed stay bit-identical.
        bank_word_u32s ?= 1,
    }
}

/// Cost of one warp-wide lock-step shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundCost {
    /// Number of transactions the access splits into
    /// (`max_b` distinct-words-in-bank-`b`; 0 if no lane was active).
    pub transactions: u32,
    /// Extra transactions beyond the first, `max(0, transactions - 1)`:
    /// the per-access figure nvprof counts as bank conflicts.
    pub conflicts: u32,
    /// Number of lanes that participated.
    pub active_lanes: u32,
}

impl BankModel {
    /// A model with `w` classic 4-byte banks.
    ///
    /// # Panics
    /// Panics if `num_banks == 0`.
    #[must_use]
    pub fn new(num_banks: u32) -> Self {
        Self::with_word(num_banks, 1)
    }

    /// A model with `w` banks of `bank_word_u32s` 32-bit words each
    /// (1 = 4-byte banks, 2 = Kepler-style 8-byte banks).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    #[must_use]
    pub fn with_word(num_banks: u32, bank_word_u32s: u32) -> Self {
        assert!(num_banks > 0, "a shared memory must have at least one bank");
        assert!(bank_word_u32s > 0, "a bank row must hold at least one word");
        Self { num_banks, bank_word_u32s }
    }

    /// The standard NVIDIA configuration: 32 banks of 4-byte words.
    #[must_use]
    pub fn nvidia() -> Self {
        Self::new(32)
    }

    /// The fused row a word address belongs to (`⌊addr / width⌋`): the
    /// unit of distinctness for conflict accounting. Two word addresses in
    /// the same row are served together.
    #[inline]
    #[must_use]
    pub fn row_of(&self, addr: u32) -> u32 {
        addr / self.bank_word_u32s
    }

    /// Bank holding word address `addr` (`⌊addr / width⌋ mod w`; with the
    /// default 4-byte banks this is the paper's `addr mod w`).
    #[inline]
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        self.row_of(addr) % self.num_banks
    }

    /// Exact cost of one lock-step access by up to `w` lanes.
    ///
    /// `addrs` holds the word addresses issued this round, one entry per
    /// *active* lane (inactive/predicated-off lanes are simply omitted).
    /// Duplicated addresses are broadcast (counted once); distinct
    /// addresses mapping to the same bank serialize — unless they share a
    /// fused bank row (64-bit-bank mode), in which case one transaction
    /// serves both halves.
    ///
    /// The implementation is the hot inner loop of the whole simulator
    /// and allocates nothing. One pass collects the set of banks hit; a
    /// round whose lanes sit in distinct banks costs one transaction
    /// with no further work. Otherwise a second pass collects a lane
    /// mask per bank, and only banks holding several lanes are searched
    /// for distinct rows. When both the bank count and the row width are
    /// powers of two (every shipped device), an address is located by a
    /// shift and a mask instead of a division and a modulo.
    ///
    /// # Panics
    /// Panics if the model or the round exceeds [`MAX_BANKS`].
    #[must_use]
    pub fn round_cost(&self, addrs: &[u32]) -> RoundCost {
        if addrs.is_empty() {
            return RoundCost::default();
        }
        let (w, width) = (self.num_banks, self.bank_word_u32s);
        debug_assert!(
            addrs.len() <= w as usize,
            "a warp round cannot issue more lanes ({}) than banks/warp width ({w})",
            addrs.len()
        );
        assert!(w as usize <= MAX_BANKS, "BankModel supports at most {MAX_BANKS} banks, got {w}");
        assert!(addrs.len() <= MAX_BANKS, "a round has at most {MAX_BANKS} lanes");
        if w.is_power_of_two() && width.is_power_of_two() {
            let (shift, mask) = (width.trailing_zeros(), w - 1);
            count_distinct_rows(addrs, |addr| addr >> shift, |row| row & mask)
        } else {
            count_distinct_rows(addrs, |addr| addr / width, |row| row % w)
        }
    }

    /// Cost of a *strided* access: lane `k` touches `base + k*stride`
    /// (the pattern of the paper's Figure 1). Convenience for tests and
    /// the figure harness.
    #[must_use]
    pub fn strided_cost(&self, base: u32, stride: u32) -> RoundCost {
        let addrs: Vec<u32> = (0..self.num_banks).map(|k| base + k * stride).collect();
        self.round_cost(&addrs)
    }
}

/// Upper bound on supported bank counts (NVIDIA uses 32; 64 covers any
/// hypothetical double-width configuration and all paper figure examples).
pub const MAX_BANKS: usize = 64;

/// [`BankModel::round_cost`]'s count over a non-empty round of at most
/// [`MAX_BANKS`] addresses, given how to find an address's row and a
/// row's bank. Inlined into each caller so that each locator is compiled
/// into its own loop.
#[inline(always)]
fn count_distinct_rows(
    addrs: &[u32],
    row_of: impl Fn(u32) -> u32,
    bank_of: impl Fn(u32) -> u32,
) -> RoundCost {
    let active_lanes = addrs.len() as u32;
    // Lanes in pairwise distinct banks, which is every round of a
    // conflict-free phase, cost one transaction: the first pass only
    // collects the banks hit.
    let banks_hit = addrs.iter().fold(0u64, |hit, &addr| hit | 1 << bank_of(row_of(addr)));
    let mut transactions = 1;
    if banks_hit.count_ones() == active_lanes {
        return RoundCost { transactions, conflicts: 0, active_lanes };
    }
    // Two lanes share a bank: a second pass builds lanes_in[b], the lanes
    // (bit l = lane l) whose address is in bank b.
    let mut lanes_in = [0u64; MAX_BANKS];
    for (lane, &addr) in addrs.iter().enumerate() {
        lanes_in[bank_of(row_of(addr)) as usize] |= 1 << lane;
    }
    // A bank costs one transaction per distinct row among its
    // lanes (lanes sharing a row are served by one broadcast). With the
    // default 4-byte banks a row IS the word address, so the accounting
    // is unchanged from the paper. Only a bank with more lanes than the
    // cost so far can raise it.
    let mut rows = [0u32; MAX_BANKS];
    let mut banks = banks_hit;
    while banks != 0 {
        let lanes = lanes_in[banks.trailing_zeros() as usize];
        banks &= banks - 1;
        if lanes.count_ones() <= transactions {
            continue;
        }
        let mut distinct = 0;
        let mut rest = lanes;
        while rest != 0 {
            let row = row_of(addrs[rest.trailing_zeros() as usize]);
            rest &= rest - 1;
            if !rows[..distinct].contains(&row) {
                rows[distinct] = row;
                distinct += 1;
            }
        }
        transactions = transactions.max(distinct as u32);
    }
    RoundCost { transactions, conflicts: transactions - 1, active_lanes }
}

/// Pricing of shared warp rounds with one `u32` stamp per shared-memory
/// row of a block.
///
/// A first pass ORs each lane's bank bit, as
/// [`BankModel::round_cost`]'s does: a round whose lanes sit in pairwise
/// distinct banks (every round of a conflict-free phase, such as every
/// CF-Merge gather round) costs one transaction and stamps nothing.
///
/// Any other round takes a fresh stamp. Each lane stamps its row and adds
/// one to its bank's count if the row did not carry the stamp yet; lanes
/// on a stamped row are broadcast. The round costs the largest count.
/// This loop has no key-dependent branch, and it replaces
/// `round_cost`'s second pass over a per-bank lane table, which a
/// conflicting round (most rounds of a random input's searches and
/// merges) would otherwise take.
///
/// Stamp 0 marks a row no round has touched. When the round stamp wraps
/// past `u32::MAX`, the table is cleared, so an old stamp can never pass
/// for the current one. A round priced by the first pass alone leaves
/// the table and the stamp as they were; the next stamped round still
/// takes a stamp no row carries.
#[derive(Debug)]
pub struct RowStamps {
    /// Per row, the stamp of the last stamped round that touched it.
    stamps: Vec<u32>,
    /// The last stamped round's stamp.
    stamp: u32,
}

impl RowStamps {
    /// A table for a shared memory of `words` 32-bit words laid out by
    /// `model`.
    #[must_use]
    pub fn new(model: &BankModel, words: usize) -> Self {
        Self { stamps: vec![0; words.div_ceil(model.bank_word_u32s as usize)], stamp: 0 }
    }

    /// Exactly [`BankModel::round_cost`]`(addrs)` under `model`.
    ///
    /// # Panics
    /// Panics if the model or the round exceeds [`MAX_BANKS`], or if an
    /// address of a round with a shared bank lies beyond the memory the
    /// table was made for.
    #[must_use]
    pub fn price(&mut self, model: &BankModel, addrs: &[u32]) -> RoundCost {
        if addrs.is_empty() {
            return RoundCost::default();
        }
        let (w, width) = (model.num_banks, model.bank_word_u32s);
        assert!(w as usize <= MAX_BANKS, "BankModel supports at most {MAX_BANKS} banks, got {w}");
        assert!(addrs.len() <= MAX_BANKS, "a round has at most {MAX_BANKS} lanes");
        let cost = if w.is_power_of_two() && width.is_power_of_two() {
            let (shift, mask) = (width.trailing_zeros(), w - 1);
            self.count(addrs, |addr| addr >> shift, |row| row & mask)
        } else {
            self.count(addrs, |addr| addr / width, |row| row % w)
        };
        debug_assert_eq!(cost, model.round_cost(addrs), "row-stamp pricing of {addrs:?}");
        cost
    }

    /// The count of [`price`](Self::price). Inlined into each caller so
    /// that each locator is compiled into its own loops.
    #[inline(always)]
    fn count(
        &mut self,
        addrs: &[u32],
        row_of: impl Fn(u32) -> u32,
        bank_of: impl Fn(u32) -> u32,
    ) -> RoundCost {
        let active_lanes = addrs.len() as u32;
        let banks_hit = addrs.iter().fold(0u64, |hit, &addr| hit | 1 << bank_of(row_of(addr)));
        if banks_hit.count_ones() == active_lanes {
            return RoundCost { transactions: 1, conflicts: 0, active_lanes };
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
        let (stamps, stamp) = (&mut self.stamps[..], self.stamp);
        // A bank holds at most MAX_BANKS = 64 distinct rows of a round.
        // A bank is below w <= MAX_BANKS, so masking its index only drops
        // a bounds check.
        let mut rows_in = [0u8; MAX_BANKS];
        let mut transactions = 0;
        for &addr in addrs {
            let row = row_of(addr);
            let seen = &mut stamps[row as usize];
            let fresh = u8::from(*seen != stamp);
            *seen = stamp;
            let rows = &mut rows_in[bank_of(row) as usize & (MAX_BANKS - 1)];
            *rows += fresh;
            transactions = transactions.max(*rows);
        }
        let transactions = u32::from(transactions);
        RoundCost { transactions, conflicts: transactions - 1, active_lanes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::{FromJson, ToJson};

    #[test]
    fn empty_round_is_free() {
        let m = BankModel::nvidia();
        let c = m.round_cost(&[]);
        assert_eq!(c.transactions, 0);
        assert_eq!(c.conflicts, 0);
        assert_eq!(c.active_lanes, 0);
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let m = BankModel::nvidia();
        let addrs: Vec<u32> = (100..132).collect();
        let c = m.round_cost(&addrs);
        assert_eq!(c.transactions, 1);
        assert_eq!(c.conflicts, 0);
    }

    #[test]
    fn figure1_coprime_vs_noncoprime_stride() {
        // Figure 1: w = 12. Stride 5 (coprime) → 1 transaction; stride 6
        // (gcd 6) → 6 distinct words per used bank → 6 transactions.
        let m = BankModel::new(12);
        assert_eq!(m.strided_cost(0, 5).conflicts, 0);
        assert_eq!(m.strided_cost(0, 6).transactions, 6);
        assert_eq!(m.strided_cost(0, 6).conflicts, 5);
        // Worst case: stride w → all 12 words in bank 0.
        assert_eq!(m.strided_cost(0, 12).transactions, 12);
    }

    #[test]
    fn stride_cost_equals_gcd() {
        // Classical result: w lanes at stride s produce gcd(s, w)
        // transactions (each used bank receives gcd distinct words).
        for w in 1u32..=33 {
            let m = BankModel::new(w);
            for s in 1u32..=64 {
                let g = cfmerge_numtheory::gcd(u64::from(s), u64::from(w)) as u32;
                assert_eq!(m.strided_cost(7, s).transactions, g, "w={w} s={s}");
            }
        }
    }

    #[test]
    fn broadcast_is_free() {
        let m = BankModel::nvidia();
        // All 32 lanes read the same word: one transaction, no conflict.
        let addrs = [17u32; 32];
        let c = m.round_cost(&addrs);
        assert_eq!(c.transactions, 1);
        assert_eq!(c.conflicts, 0);
        // Two groups broadcasting two words in *different* banks: still 1.
        let mut addrs = [5u32; 32];
        addrs[16..].fill(6);
        assert_eq!(m.round_cost(&addrs).transactions, 1);
        // Two distinct words in the SAME bank: 2 transactions even with
        // broadcast within each group.
        let mut addrs = [5u32; 32];
        addrs[16..].fill(5 + 32);
        let c = m.round_cost(&addrs);
        assert_eq!(c.transactions, 2);
        assert_eq!(c.conflicts, 1);
    }

    #[test]
    fn partial_warp() {
        let m = BankModel::nvidia();
        let c = m.round_cost(&[0, 32, 64]);
        assert_eq!(c.transactions, 3);
        assert_eq!(c.active_lanes, 3);
    }

    #[test]
    fn mixed_pattern_matches_naive_count() {
        // Cross-check the fast implementation against a naive set-based
        // computation on many patterns.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0FFEE);
        for w in [4u32, 12, 32] {
            let m = BankModel::new(w);
            for _ in 0..500 {
                let lanes = rng.gen_range(1..=w as usize);
                let addrs: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..4 * w)).collect();
                let naive = {
                    let mut per_bank: Vec<std::collections::BTreeSet<u32>> =
                        vec![Default::default(); w as usize];
                    for &a in &addrs {
                        per_bank[(a % w) as usize].insert(a);
                    }
                    per_bank.iter().map(|s| s.len() as u32).max().unwrap_or(0)
                };
                assert_eq!(m.round_cost(&addrs).transactions, naive, "w={w} {addrs:?}");
            }
        }
    }

    #[test]
    fn row_stamps_clear_when_the_stamp_wraps() {
        // Start two stamps before u32::MAX and price conflicting and
        // broadcast rounds across the wrap. The first round after the
        // wrap hits one bank's rows: the even lanes' rows carry a stale
        // stamp 1, the odd lanes' rows were never touched (stamp 0). A
        // wrap that did not clear the table would price that round under
        // stamp 0 or 1 and hide half of its rows.
        for model in [BankModel::new(32), BankModel::new(12), BankModel::with_word(32, 2)] {
            let w = model.num_banks;
            let mut table = RowStamps::new(&model, 4096);
            let same_bank: Vec<u32> = (0..w).map(|i| i * w * model.bank_word_u32s).collect();
            for &addr in same_bank.iter().step_by(2) {
                table.stamps[model.row_of(addr) as usize] = 1;
            }
            table.stamp = u32::MAX - 2;
            let rounds: [&[u32]; 6] =
                [&[9; 32], &[1, 65, 129, 1], &same_bank, &same_bank, &[5; 12], &[0, 64, 0, 128]];
            for (i, round) in rounds.iter().enumerate() {
                let round = &round[..round.len().min(w as usize)];
                assert_eq!(
                    table.price(&model, round),
                    model.round_cost(round),
                    "{model:?} round {i}"
                );
            }
            assert_eq!(table.stamp, 4, "{model:?}: the wrap restarts at stamp 1");
        }
    }

    #[test]
    fn row_stamps_price_alternating_fast_and_stamped_rounds_exactly() {
        // One table prices, on the same rows, rounds in distinct banks
        // (priced by the bank mask alone, nothing stamped) between rounds
        // that share banks or broadcast (stamped). A stamped round after
        // a run of unstamped ones must still see only its own rows.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(24);
        for model in [
            BankModel::new(12),
            BankModel::new(32),
            BankModel::new(64),
            BankModel::with_word(32, 2),
        ] {
            let (w, width, rows) = (model.num_banks, model.bank_word_u32s, 4);
            let mut table = RowStamps::new(&model, (rows * w * width) as usize);
            let word = |rng: &mut rand::rngs::SmallRng, bank: u32| {
                (rng.gen_range(0..rows) * w + bank) * width + rng.gen_range(0..width)
            };
            for i in 0..600 {
                let lanes = rng.gen_range(1..=w);
                let round: Vec<u32> = match i % 4 {
                    // Distinct banks: a rotation of the banks.
                    0 | 2 => {
                        let first = rng.gen_range(0..w);
                        (0..lanes).map(|l| word(&mut rng, (first + l) % w)).collect()
                    }
                    // Shared banks: every lane in one of three banks.
                    1 => (0..lanes)
                        .map(|_| {
                            let bank = rng.gen_range(0..3);
                            word(&mut rng, bank)
                        })
                        .collect(),
                    // Broadcast: a few words, each read by several lanes.
                    _ => {
                        let words: Vec<u32> = (0..3)
                            .map(|_| {
                                let bank = rng.gen_range(0..w);
                                word(&mut rng, bank)
                            })
                            .collect();
                        (0..lanes).map(|_| words[rng.gen_range(0..3usize)]).collect()
                    }
                };
                let want = model.round_cost(&round);
                assert_eq!(table.price(&model, &round), want, "{model:?} round {i}: {round:?}");
                if i % 2 == 0 {
                    assert_eq!(want.transactions, 1, "{model:?} round {i} is conflict-free");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankModel::new(0);
    }

    #[test]
    fn fused_rows_merge_adjacent_words() {
        // 64-bit banks: words 2k and 2k+1 share a row, so a warp reading
        // both halves of 16 rows costs one transaction.
        let m = BankModel::with_word(32, 2);
        let addrs: Vec<u32> = (0..32).collect();
        assert_eq!(m.round_cost(&addrs).transactions, 1);
        // Two words one row apart in the same bank (64 words apart)
        // serialize exactly as in the classic model.
        let c = m.round_cost(&[0, 64]);
        assert_eq!(c.transactions, 2);
        // …but the same pair under 4-byte banks also serializes, while
        // the fused pair {0, 1} does not.
        assert_eq!(m.round_cost(&[0, 1]).transactions, 1);
        assert_eq!(BankModel::new(32).round_cost(&[0, 1]).transactions, 1);
    }

    #[test]
    fn fused_stride_costs() {
        // Even stride 2a on 64-bit banks degenerates to row stride a:
        // exactly gcd(a, w) transactions. Odd strides visit each residue
        // mod 2w once, so every bank holds ≤ 2 distinct rows.
        for w in [8u32, 16, 32] {
            let m = BankModel::with_word(w, 2);
            for a in 1..=w {
                let even = m.strided_cost(0, 2 * a);
                assert_eq!(
                    even.transactions,
                    cfmerge_numtheory::gcd(u64::from(a), u64::from(w)) as u32,
                    "w={w} stride={}",
                    2 * a
                );
            }
            for s in (1..2 * w).step_by(2) {
                for base in [0, 1] {
                    let c = m.strided_cost(base, s);
                    assert!(c.transactions <= 2, "w={w} s={s} base={base}: {}", c.transactions);
                }
            }
        }
        // The qualitative change the Afshani–Sitchinava analysis predicts:
        // stride 15 is conflict-free on 4-byte banks but not on 8-byte.
        assert_eq!(BankModel::new(32).strided_cost(0, 15).transactions, 1);
        assert_eq!(BankModel::with_word(32, 2).strided_cost(0, 15).transactions, 2);
    }

    #[test]
    fn bank_model_json_roundtrip_defaults_width() {
        // Default width is omitted from JSON (pre-existing artifacts stay
        // bit-identical) and parsed back as 1.
        let classic = BankModel::new(32);
        assert!(!classic.to_json().to_string_pretty().contains("bank_word_u32s"));
        assert_eq!(BankModel::from_json(&classic.to_json()).unwrap(), classic);
        let fused = BankModel::with_word(32, 2);
        let back = BankModel::from_json(&fused.to_json()).unwrap();
        assert_eq!(back, fused);
        assert_eq!(back.bank_word_u32s, 2);
    }
}
