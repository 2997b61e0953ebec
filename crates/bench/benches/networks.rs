//! Register-merge ablation (DESIGN.md §4.4): odd-even transposition (the
//! paper's choice) vs Batcher's odd-even mergesort vs the bitonic merger
//! vs a branchy scalar sort, at the paper's register-array sizes; and one
//! block's register sort, the network run for all threads in lock-step
//! against `oets_sort` run thread by thread.

use cfmerge_mergepath::networks::{batcher_sort, bitonic_merge, oets_sort, oets_sort_lanes};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};

fn inputs(e: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..count).map(|_| (0..e).map(|_| rng.gen()).collect()).collect()
}

/// A rotated bitonic array (ascending A then descending B, rotated) — the
/// exact shape the gather leaves in registers.
fn rotated_bitonic(e: usize, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let split = rng.gen_range(0..=e);
    let mut a: Vec<u32> = (0..split).map(|_| rng.gen()).collect();
    let mut b: Vec<u32> = (0..e - split).map(|_| rng.gen()).collect();
    a.sort_unstable();
    b.sort_unstable();
    b.reverse();
    a.extend(b);
    let rot = rng.gen_range(0..e.max(1));
    a.rotate_left(rot);
    a
}

fn bench_register_merge(c: &mut Criterion) {
    for e in [15usize, 17, 16, 32] {
        let mut g = c.benchmark_group(format!("networks/e{e}"));
        g.throughput(Throughput::Elements(e as u64));
        let data = inputs(e, 256, e as u64);
        g.bench_function("oets", |bch| {
            let mut i = 0;
            bch.iter(|| {
                let mut v = data[i % data.len()].clone();
                i += 1;
                oets_sort(&mut v);
                black_box(v[0])
            })
        });
        g.bench_function("batcher", |bch| {
            let mut i = 0;
            bch.iter(|| {
                let mut v = data[i % data.len()].clone();
                i += 1;
                batcher_sort(&mut v);
                black_box(v[0])
            })
        });
        if e.is_power_of_two() {
            g.bench_function("bitonic_merge_rotated", |bch| {
                let mut i = 0u64;
                bch.iter(|| {
                    let mut v = rotated_bitonic(e, i);
                    i += 1;
                    bitonic_merge(&mut v);
                    black_box(v[0])
                })
            });
        }
        g.bench_function("std_sort_unstable", |bch| {
            let mut i = 0;
            bch.iter(|| {
                let mut v = data[i % data.len()].clone();
                i += 1;
                v.sort_unstable();
                black_box(v[0])
            })
        });
        g.finish();
    }
}

/// One tile of random keys sorted per thread, at the paper's two
/// parameter sets: [`oets_sort_lanes`] on the register-major file the
/// kernels keep (thread `t`'s register `m` at `m·u + t`), and
/// [`oets_sort`] on each thread's `E` contiguous registers in turn. Both
/// first refill the file from the same keys.
fn bench_block_register_sort(c: &mut Criterion) {
    for (e, u) in [(15usize, 512usize), (17, 256)] {
        let mut g = c.benchmark_group(format!("networks/block_e{e}_u{u}"));
        g.throughput(Throughput::Elements((e * u) as u64));
        let keys = inputs(e * u, 1, (e * u) as u64).remove(0);
        let mut regs = keys.clone();
        g.bench_function("lanes", |bch| {
            bch.iter(|| {
                regs.copy_from_slice(&keys);
                oets_sort_lanes(&mut regs, u);
                black_box(regs[0])
            })
        });
        g.bench_function("per_thread", |bch| {
            bch.iter(|| {
                regs.copy_from_slice(&keys);
                regs.chunks_exact_mut(e).for_each(|t| _ = oets_sort(t));
                black_box(regs[0])
            })
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    // Short measurement windows: one shared core runs the whole suite.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_register_merge, bench_block_register_sort
}
criterion_main!(benches);
