//! Simulator-engine micro-benches: the conflict-cost inner loop, phase
//! dispatch overhead, and global coalescing accounting.

use cfmerge_gpu_sim::banks::{BankModel, RowStamps};
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::global::sectors_touched;
use cfmerge_gpu_sim::profiler::PhaseClass;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};

/// One warp round per pattern: the five of `host_bench`'s
/// `banks.round_cost_ns.*` probes, then the division path of a bank
/// count that is not a power of two.
fn round_patterns() -> Vec<(&'static str, BankModel, Vec<u32>)> {
    let nvidia = BankModel::nvidia();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    vec![
        ("unit_stride", nvidia, (0..32).collect()),
        ("broadcast", nvidia, vec![7; 32]),
        ("random", nvidia, (0..32).map(|_| rng.gen_range(0..4096)).collect()),
        ("same_bank", nvidia, (0..32).map(|i| i * 32).collect()),
        ("row64", BankModel::with_word(32, 2), (0..32).collect()),
        ("w12_stride6", BankModel::new(12), (0..12).map(|i| i * 6).collect()),
    ]
}

/// The stateless reference that the prover and the renderers call.
fn bench_round_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/round_cost");
    for (label, banks, addrs) in round_patterns() {
        g.throughput(Throughput::Elements(addrs.len() as u64));
        g.bench_function(label, |b| b.iter(|| black_box(banks.round_cost(&addrs).transactions)));
    }
    g.finish();
}

/// The engine's pricing: one row-stamp table over 4096 shared words,
/// reused by every round as a block reuses it.
fn bench_round_pricing(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/round_pricing");
    for (label, banks, addrs) in round_patterns() {
        let mut table = RowStamps::new(&banks, 4096);
        g.throughput(Throughput::Elements(addrs.len() as u64));
        g.bench_function(label, |b| b.iter(|| black_box(table.price(&banks, &addrs).transactions)));
    }
    g.finish();
}

fn bench_phase_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/phase");
    let rounds = 16usize;
    g.throughput(Throughput::Elements((512 * rounds) as u64));
    g.bench_function("512_threads_16_rounds", |b| {
        b.iter(|| {
            let mut block = BlockSim::<u32>::new(BankModel::nvidia(), 512, 512 * rounds);
            block.phase(PhaseClass::Other, |tid, lane| {
                for r in 0..rounds {
                    lane.st(r * 512 + tid, tid as u32);
                }
            });
            black_box(block.profile.total().shared_st_transactions)
        })
    });
    // Serial-merge-like loads on one reused block: stride-16 conflicts,
    // lanes of unequal length, so accounting dominates.
    let mut block = BlockSim::<u32>::new(BankModel::nvidia(), 512, 512 * rounds);
    g.bench_function("512_threads_conflicted_loads", |b| {
        b.iter(|| {
            block.phase(PhaseClass::Merge, |tid, lane| {
                for r in 0..rounds - tid % 2 {
                    let _ = lane.ld((tid * 16 + r) % (512 * rounds));
                }
            });
            black_box(block.profile.total().shared_ld_transactions)
        })
    });
    g.finish();
}

fn bench_sectors(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/sectors");
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
    let coalesced: Vec<u64> = (0..32).collect();
    let scattered: Vec<u64> = (0..32).map(|_| rng.gen_range(0..1 << 20)).collect();
    g.bench_function("coalesced", |b| b.iter(|| black_box(sectors_touched(&coalesced))));
    g.bench_function("scattered", |b| b.iter(|| black_box(sectors_touched(&scattered))));
    g.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows: one shared core runs the whole suite.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_round_cost, bench_round_pricing, bench_phase_dispatch, bench_sectors
}
criterion_main!(benches);
