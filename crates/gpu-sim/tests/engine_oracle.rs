//! Differential test of the engine's accounting against a deliberately
//! naive replay written straight from the definitions: a warp's `r`-th
//! shared access of every lane forms round `r`, split into its loads and
//! its stores, and costs, per bank, the number of distinct rows its lanes
//! touch (a set of rows per bank), maximised over banks; global rounds
//! are aligned the same way and cost one sector per distinct 32-byte
//! sector. The reference allocates freely and divides everywhere, so it
//! shares no code path with the engine.

use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::global::SECTOR_WORDS;
use cfmerge_gpu_sim::profiler::{PhaseClass, PhaseCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Reference round cost: transactions of one lock-step access.
fn naive_transactions(model: BankModel, addrs: &[u32]) -> u32 {
    let mut rows_per_bank: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &addr in addrs {
        let row = addr / model.bank_word_u32s;
        rows_per_bank.entry(row % model.num_banks).or_default().insert(row);
    }
    rows_per_bank.values().map(|rows| rows.len() as u32).max().unwrap_or(0)
}

fn naive_sectors(indices: &[u64]) -> u64 {
    indices.iter().map(|&i| i / SECTOR_WORDS).collect::<BTreeSet<_>>().len() as u64
}

/// One access of a generated kernel.
#[derive(Debug, Clone, Copy)]
enum Access {
    SharedLd(usize),
    SharedSt(usize),
    GlobalLd(usize),
    GlobalSt(usize),
}

/// The counters a phase should produce, replayed from its per-thread
/// plans. Returns the counters and the degrees of the phase's load rounds.
fn naive_phase(model: BankModel, plans: &[Vec<Access>]) -> (PhaseCounters, Vec<u32>) {
    let w = model.num_banks as usize;
    let mut c = PhaseCounters::default();
    let mut load_degrees = Vec::new();
    for warp in plans.chunks(w) {
        let shared: Vec<Vec<(bool, u32)>> = warp
            .iter()
            .map(|plan| {
                plan.iter()
                    .filter_map(|a| match *a {
                        Access::SharedLd(i) => Some((false, i as u32)),
                        Access::SharedSt(i) => Some((true, i as u32)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let global: Vec<Vec<(bool, u64)>> = warp
            .iter()
            .map(|plan| {
                plan.iter()
                    .filter_map(|a| match *a {
                        Access::GlobalLd(i) => Some((false, i as u64)),
                        Access::GlobalSt(i) => Some((true, i as u64)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for r in 0..shared.iter().map(Vec::len).max().unwrap_or(0) {
            let round: Vec<(bool, u32)> = shared.iter().filter_map(|t| t.get(r).copied()).collect();
            let loads: Vec<u32> = round.iter().filter(|a| !a.0).map(|a| a.1).collect();
            let stores: Vec<u32> = round.iter().filter(|a| a.0).map(|a| a.1).collect();
            if !loads.is_empty() {
                let t = naive_transactions(model, &loads);
                c.shared_ld_requests += 1;
                c.shared_ld_transactions += u64::from(t);
                load_degrees.push(t);
            }
            if !stores.is_empty() {
                c.shared_st_requests += 1;
                c.shared_st_transactions += u64::from(naive_transactions(model, &stores));
            }
        }
        for r in 0..global.iter().map(Vec::len).max().unwrap_or(0) {
            let round: Vec<(bool, u64)> = global.iter().filter_map(|t| t.get(r).copied()).collect();
            let loads: Vec<u64> = round.iter().filter(|a| !a.0).map(|a| a.1).collect();
            let stores: Vec<u64> = round.iter().filter(|a| a.0).map(|a| a.1).collect();
            if !loads.is_empty() {
                c.global_ld_requests += 1;
                c.global_ld_sectors += naive_sectors(&loads);
            }
            if !stores.is_empty() {
                c.global_st_requests += 1;
                c.global_st_sectors += naive_sectors(&stores);
            }
        }
    }
    (c, load_degrees)
}

/// Random per-thread plans for one race-free phase. Loads read the
/// read-only region `[0, read_len)`; stores write words of
/// `[read_len, shared_len)`, each owned by one random thread, so no
/// thread touches a word another thread stores in the same phase. Lanes
/// issue different numbers of accesses and mix loads with stores, so
/// rounds come out partial, mixed and conflicting.
fn random_plans(
    rng: &mut SmallRng,
    u: usize,
    read_len: usize,
    shared_len: usize,
) -> Vec<Vec<Access>> {
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); u];
    for word in read_len..shared_len {
        owned[rng.gen_range(0..u)].push(word);
    }
    let max_len = rng.gen_range(0..=8);
    (0..u)
        .map(|tid| {
            let len = if rng.gen_bool(0.7) { max_len } else { rng.gen_range(0..=max_len) };
            (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0..=4 => Access::SharedLd(rng.gen_range(0..read_len)),
                    5..=6 if !owned[tid].is_empty() => {
                        Access::SharedSt(owned[tid][rng.gen_range(0..owned[tid].len())])
                    }
                    5..=7 => Access::GlobalLd(rng.gen_range(0..4 * u)),
                    _ => Access::GlobalSt(rng.gen_range(0..4 * u)),
                })
                .collect()
        })
        .collect()
}

#[test]
fn block_accounting_matches_naive_replay() {
    let mut rng = SmallRng::seed_from_u64(0xB10C_0AC1);
    let classes = [PhaseClass::Merge, PhaseClass::Gather, PhaseClass::Search, PhaseClass::Other];
    for case in 0..120 {
        // 6 and 9 are figure widths of the paper and take the division
        // path; 64 is MAX_BANKS.
        let widths = [4u32, 6, 8, 9, 12, 32, 64];
        let model = BankModel::with_word(
            widths[rng.gen_range(0..widths.len())],
            if rng.gen_bool(0.25) { 2 } else { 1 },
        );
        let w = model.num_banks as usize;
        let u = w * rng.gen_range(1usize..=3);
        let (read_len, shared_len) = (3 * u, 7 * u);
        let global_in: Vec<u32> = (0..4 * u as u32).collect();
        let mut global_out = vec![0u32; 4 * u];
        let mut block = BlockSim::<u32>::new(model, u, shared_len);
        let mut expect = vec![PhaseCounters::default(); PhaseClass::COUNT];
        let mut expect_degrees: Vec<u64> = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let class = classes[rng.gen_range(0..classes.len())];
            let plans = random_plans(&mut rng, u, read_len, shared_len);
            block.phase(class, |tid, lane| {
                for access in &plans[tid] {
                    match *access {
                        Access::SharedLd(i) => {
                            let _ = lane.ld(i);
                        }
                        Access::SharedSt(i) => lane.st(i, tid as u32),
                        Access::GlobalLd(i) => {
                            let _ = lane.ld_global(&global_in, i);
                        }
                        Access::GlobalSt(i) => lane.st_global(&mut global_out, i, tid as u32),
                    }
                }
            });
            let (c, degrees) = naive_phase(model, &plans);
            let e = &mut expect[class.index()];
            e.shared_ld_requests += c.shared_ld_requests;
            e.shared_ld_transactions += c.shared_ld_transactions;
            e.shared_st_requests += c.shared_st_requests;
            e.shared_st_transactions += c.shared_st_transactions;
            e.global_ld_requests += c.global_ld_requests;
            e.global_ld_sectors += c.global_ld_sectors;
            e.global_st_requests += c.global_st_requests;
            e.global_st_sectors += c.global_st_sectors;
            if matches!(class, PhaseClass::Merge | PhaseClass::Gather) {
                for d in degrees {
                    let d = d as usize;
                    if expect_degrees.len() <= d {
                        expect_degrees.resize(d + 1, 0);
                    }
                    expect_degrees[d] += 1;
                }
            }
        }
        for class in PhaseClass::all() {
            assert_eq!(
                *block.profile.phase(class),
                expect[class.index()],
                "case {case}: {class:?} with {model:?}, u={u}"
            );
        }
        assert_eq!(block.profile.merge_degree_hist.buckets(), &expect_degrees[..], "case {case}");
    }
}

/// The extremes of a 64-lane round: 64 distinct rows of one bank cost 64
/// transactions, the most one bank's row count can reach; every lane on
/// one word costs one.
#[test]
fn widest_rounds_cost_their_exact_extremes() {
    let model = BankModel::new(64);
    let spread: Vec<u32> = (0..64).map(|lane| lane * 64).collect();
    let broadcast = vec![4032u32; 64];
    for (round, expect) in [(spread, 64u32), (broadcast, 1)] {
        assert_eq!(naive_transactions(model, &round), expect);
        let mut block = BlockSim::<u32>::new(model, 64, 64 * 64);
        block.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(round[tid] as usize);
        });
        let merge = block.profile.phase(PhaseClass::Merge);
        assert_eq!(merge.shared_ld_requests, 1);
        assert_eq!(merge.shared_ld_transactions, u64::from(expect));
        let mut degrees = vec![0u64; expect as usize + 1];
        degrees[expect as usize] = 1;
        assert_eq!(block.profile.merge_degree_hist.buckets(), &degrees[..]);
    }
}
