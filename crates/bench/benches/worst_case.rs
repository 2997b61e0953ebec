//! Benches for the worst-case input machinery: tuple construction, side
//! assignment, and the lock-step conflict measurement. (The full-input
//! builder is timed by `host_bench`'s `inputs.worst_case_ns_per_key`.)

use cfmerge_core::worst_case::{lockstep_baseline_conflicts, sequence_t, tuples::WcParams};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_tuples(c: &mut Criterion) {
    let mut g = c.benchmark_group("worst_case/tuples");
    for &(w, e) in &[(32usize, 15usize), (32, 17), (32, 16)] {
        g.bench_function(format!("w{w}_e{e}"), |b| {
            let p = WcParams::new(w, e);
            b.iter(|| black_box(sequence_t(&p).len()))
        });
    }
    g.finish();
}

fn bench_lockstep_measurement(c: &mut Criterion) {
    let mut g = c.benchmark_group("worst_case/lockstep_measure");
    for &(w, e) in &[(32usize, 15usize), (32, 17)] {
        g.bench_function(format!("w{w}_e{e}_4warps"), |b| {
            b.iter(|| black_box(lockstep_baseline_conflicts(w, e, 4)))
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
    targets = bench_tuples, bench_lockstep_measurement
}
criterion_main!(benches);
