//! Simulator-engine micro-benches: the conflict-cost inner loop, phase
//! dispatch overhead, global coalescing accounting, and whole blocks of
//! the two kernels on random keys, and the shared rounds of those blocks
//! priced in the order they were issued.

use cfmerge_core::sort::blocksort::{blocksort_block, blocksort_block_observed, MergeStrategy};
use cfmerge_core::sort::merge_pass::{merge_pass_block, merge_pass_block_observed, MergeChunkJob};
use cfmerge_gpu_sim::banks::{BankModel, RowStamps};
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::global::sectors_touched;
use cfmerge_gpu_sim::observer::Observer;
use cfmerge_gpu_sim::profiler::PhaseClass;
use cfmerge_gpu_sim::trace::SharedRoundEvent;
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

/// Sorted uniform-random keys.
fn sorted_random(rng: &mut rand::rngs::SmallRng, n: usize) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
    keys.sort_unstable();
    keys
}

/// Thrust's shipped E=17, u=256: the first chunk of merging two sorted
/// random runs of one tile each.
const THRUST: (usize, usize) = (17, 256);

/// CF-Merge's shipped E=15, u=512: one random tile through the block sort.
const CF: (usize, usize) = (15, 512);

/// The input of the Thrust merge-pass block and of the CF block-sort
/// block, both drawn from one seeded stream.
fn random_blocks() -> ((Vec<u32>, MergeChunkJob), Vec<u32>) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let tile = THRUST.0 * THRUST.1;
    let (a, b) = (sorted_random(&mut rng, tile), sorted_random(&mut rng, tile));
    let a_len = cfmerge_mergepath::diagonal::merge_path(&a, &b, tile);
    let job = MergeChunkJob { a_begin: 0, a_end: a_len, b_begin: tile, b_end: 2 * tile - a_len };
    let merge = ([a, b].concat(), job);
    let tile = (0..CF.0 * CF.1).map(|_| rng.gen()).collect();
    (merge, tile)
}

/// One fully simulated block of each kernel on random keys, the blocks
/// the launch memo cannot replay: every search, serial-merge and gather
/// access goes through a lane context.
fn bench_lane_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/lane_kernels");
    let nvidia = BankModel::nvidia();
    let ((src, job), tile) = random_blocks();

    let (e, u) = THRUST;
    let mut dst = vec![0u32; e * u];
    g.throughput(Throughput::Elements((e * u) as u64));
    g.bench_function("merge_pass_thrust_e17_u256", |bch| {
        bch.iter(|| {
            let strategy = MergeStrategy::DirectSerial;
            let p = merge_pass_block(nvidia, u, e, strategy, &src, job, &mut dst, true);
            black_box(p.total().shared_ld_transactions)
        })
    });

    let (e, u) = CF;
    let mut dst = vec![0u32; e * u];
    g.throughput(Throughput::Elements((e * u) as u64));
    g.bench_function("blocksort_cf_e15_u512", |bch| {
        bch.iter(|| {
            let strategy = MergeStrategy::Gather;
            let p = blocksort_block(nvidia, u, e, strategy, &tile, &mut dst, 0, true);
            black_box(p.total().shared_ld_transactions)
        })
    });
    g.finish();
}

/// Every shared round of a block, its loads and its stores apart, in
/// the order the block issued them.
#[derive(Default)]
struct RoundRecorder {
    addrs: Vec<u32>,
    rounds: Vec<std::ops::Range<usize>>,
}

impl Observer for RoundRecorder {
    fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
        for part in [ev.loads, ev.stores].into_iter().filter(|part| !part.is_empty()) {
            let start = self.addrs.len();
            self.addrs.extend_from_slice(part);
            self.rounds.push(start..self.addrs.len());
        }
    }
}

/// The recorded rounds of `lane_kernels`' two blocks priced in issue
/// order, by the engine's row-stamp table and by the stateless
/// `round_cost`. Unlike the one-round groups above, the branch predictor
/// cannot learn a sequence of real rounds.
fn bench_round_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/round_replay");
    let nvidia = BankModel::nvidia();
    let ((src, job), tile) = random_blocks();
    let (e, u) = THRUST;
    let mut dst = vec![0u32; e * u];
    let strategy = MergeStrategy::DirectSerial;
    let observer = RoundRecorder::default();
    let (_, thrust) =
        merge_pass_block_observed(nvidia, u, e, strategy, &src, job, &mut dst, true, observer);
    let (e, u) = CF;
    let mut dst = vec![0u32; e * u];
    let observer = RoundRecorder::default();
    let (_, cf) = blocksort_block_observed(
        nvidia,
        u,
        e,
        MergeStrategy::Gather,
        &tile,
        &mut dst,
        0,
        true,
        observer,
    );
    for (label, rec) in [("merge_pass_thrust_e17_u256", thrust), ("blocksort_cf_e15_u512", cf)] {
        let rounds: Vec<&[u32]> = rec.rounds.iter().map(|r| &rec.addrs[r.clone()]).collect();
        let words = rec.addrs.iter().max().map_or(0, |&a| a as usize + 1);
        let mut table = RowStamps::new(&nvidia, words);
        g.throughput(Throughput::Elements(rounds.len() as u64));
        g.bench_function(format!("{label}/row_stamps"), |b| {
            b.iter(|| rounds.iter().map(|r| table.price(&nvidia, r).transactions).sum::<u32>())
        });
        g.bench_function(format!("{label}/round_cost"), |b| {
            b.iter(|| rounds.iter().map(|r| nvidia.round_cost(r).transactions).sum::<u32>())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows: one shared core runs the whole suite.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_round_cost, bench_phase_dispatch, bench_sectors, bench_lane_kernels,
        bench_round_replay
}
criterion_main!(benches);
