//! Property tests for the simulator's accounting invariants.

use cfmerge_gpu_sim::banks::{BankModel, RowStamps};
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::global::{efficiency, sectors_touched, SECTOR_WORDS};
use cfmerge_gpu_sim::profiler::PhaseClass;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// round_cost equals the brute-force definition: max over banks of
    /// the number of distinct rows in that bank. Widths above 1 fuse
    /// adjacent words into one row; power-of-two and other bank counts
    /// and widths take different locators.
    #[test]
    fn prop_round_cost_matches_definition(
        w in 1u32..=64,
        width in 1u32..=4,
        addrs in proptest::collection::vec(0u32..512, 0..64),
    ) {
        let addrs: Vec<u32> = addrs.into_iter().take(w as usize).collect();
        let m = BankModel::with_word(w, width);
        let cost = m.round_cost(&addrs);
        let mut per_bank: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); w as usize];
        for &a in &addrs {
            per_bank[((a / width) % w) as usize].insert(a / width);
        }
        let expect = per_bank.iter().map(|s| s.len() as u32).max().unwrap_or(0);
        prop_assert_eq!(cost.transactions, expect);
        prop_assert_eq!(cost.conflicts, expect.saturating_sub(1));
        prop_assert_eq!(cost.active_lanes as usize, addrs.len());
    }

    /// Transactions are invariant under lane permutation and under adding
    /// a duplicate of an existing address (broadcast).
    #[test]
    fn prop_round_cost_permutation_and_broadcast_invariance(
        mut addrs in proptest::collection::vec(0u32..256, 1..32),
    ) {
        let m = BankModel::nvidia();
        let base = m.round_cost(&addrs).transactions;
        addrs.reverse();
        prop_assert_eq!(m.round_cost(&addrs).transactions, base);
        let dup = addrs[0];
        let mut with_dup = addrs.clone();
        with_dup.push(dup);
        prop_assert_eq!(m.round_cost(&with_dup).transactions, base);
    }

    /// Strided access cost is gcd(stride, w) — the classical fact behind
    /// Thrust's coprime heuristic.
    #[test]
    fn prop_stride_cost_is_gcd(w in 1u32..=64, base in 0u32..128, stride in 1u32..=128) {
        let m = BankModel::new(w);
        let g = cfmerge_numtheory::gcd(u64::from(stride), u64::from(w)) as u32;
        prop_assert_eq!(m.strided_cost(base, stride).transactions, g);
    }

    /// Sector accounting is exactly the number of distinct `i / 8`, over
    /// every warp size, on random, descending, repeated and clustered
    /// lanes; efficiency stays in (0, 1].
    #[test]
    fn prop_sectors_are_distinct_sector_count(
        idx in proptest::collection::vec(0u64..(1 << 24), 1..=64),
        shape in 0u8..4,
    ) {
        let idx: Vec<u64> = match shape {
            0 => idx,
            1 => {
                let mut desc = idx;
                desc.sort_unstable_by(|a, b| b.cmp(a));
                desc
            }
            // Every lane repeats one of the first few indices.
            2 => (0..idx.len()).map(|l| idx[l % 3.min(idx.len())]).collect(),
            // Lanes scattered within a few sectors of the first index.
            _ => idx.iter().map(|&i| idx[0] + i % 40).collect(),
        };
        let naive: BTreeSet<u64> = idx.iter().map(|&i| i / SECTOR_WORDS).collect();
        prop_assert_eq!(sectors_touched(&idx), naive.len() as u64);
        let e = efficiency(&idx);
        prop_assert!(e > 0.0 && e <= 1.0 + 1e-12);
    }

    /// One row-stamp table prices a run of rounds exactly as the
    /// stateless round_cost does, whatever rounds came before.
    #[test]
    fn prop_row_stamps_match_round_cost(
        w in 1u32..=64,
        width in 1u32..=4,
        rounds in proptest::collection::vec(proptest::collection::vec(0u32..512, 0..64), 1..8),
    ) {
        let m = BankModel::with_word(w, width);
        let mut table = RowStamps::new(&m, 512);
        for round in &rounds {
            let round = &round[..round.len().min(w as usize)];
            prop_assert_eq!(table.price(&m, round), m.round_cost(round));
        }
    }

    /// The engine's ledger: a phase of per-lane unit-stride stores then
    /// loads always produces transactions == requests (no conflicts), and
    /// data round-trips.
    #[test]
    fn prop_unit_stride_phases_clean(warps in 1usize..=4, rounds in 1usize..=8) {
        let w = 32usize;
        let u = w * warps;
        let mut block = BlockSim::<u32>::new(BankModel::nvidia(), u, u * rounds);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..rounds {
                lane.st(r * u + tid, (r * u + tid) as u32);
            }
        });
        block.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..rounds {
                let v = lane.ld(r * u + tid);
                assert_eq!(v, (r * u + tid) as u32);
            }
        });
        let t = block.profile.total();
        prop_assert_eq!(t.shared_st_transactions, t.shared_st_requests);
        prop_assert_eq!(t.shared_ld_transactions, t.shared_ld_requests);
        prop_assert_eq!(t.shared_ld_requests as usize, rounds * warps);
    }
}
