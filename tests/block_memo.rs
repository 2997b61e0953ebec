//! Block memoisation must be invisible: a sort that replays blocks from
//! their order type's representative produces exactly the run a sort
//! that simulates every block does.
//!
//! No switch is needed to turn the memo off. It applies only under the
//! passive observer, and the traced entry point watches every block with
//! a `BlockTracer`, so `simulate_sort_traced(x).run` is the memo-off
//! reference for `simulate_sort(x)` and the robust entry points. The
//! reference proves it simulated: its trace holds one block recording per
//! grid block of every launch, and the shared requests those recordings
//! saw add up to the launch's profile, which a replayed block (whose
//! tracer sees nothing) would break.
//!
//! The same reference pins lean misses: an unwatched block the memo
//! cannot replay runs its key-oblivious phases unpriced and is charged
//! the launch's cached oblivious share, while a traced block prices
//! every phase.
//!
//! And it pins carried entries: each launch hands its replaying
//! representatives, its oblivious share and its uniform entries (the
//! profiles of its all-equal blocks, one per shape) to the next launch of
//! its kind on the same thread, within a sort and from sort to sort.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{
    resume_sort_robust, simulate_sort_robust, simulate_sort_robust_checkpointed, RobustConfig,
};
use cfmerge::core::resilience::checkpoint::CheckpointPolicy;
use cfmerge::core::sort::{
    simulate_sort, simulate_sort_traced, SortAlgorithm, SortConfig, SortError, SortKey, SortRun,
};
use cfmerge::gpu_sim::fault::FaultPlan;
use cfmerge::gpu_sim::profiler::PhaseClass;

const ALGOS: [SortAlgorithm; 2] = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];

/// Small launch shapes: (E, u).
const SHAPES: [(usize, usize); 2] = [(5, 32), (7, 64)];

/// Every input shape, `n` keys at the given launch shape (a ragged `n`
/// takes the first `n` keys of the padded length's input, since the
/// worst-case construction needs a power-of-two number of tiles).
fn inputs(e: usize, u: usize, n: usize) -> Vec<(String, Vec<u32>)> {
    let tile = e * u;
    let padded = n.div_ceil(tile).next_power_of_two() * tile;
    let mut pattern = InputSpec::RandomPermutation { seed: 5 }.generate(tile);
    pattern.iter_mut().for_each(|x| *x *= 3);
    let periodic = (0..n).map(|i| pattern[i % tile]).collect();
    let specs = [
        InputSpec::UniformRandom { seed: 1 },
        InputSpec::FewDistinct { seed: 2, distinct: 4 },
        InputSpec::Sorted,
        InputSpec::Reversed,
        InputSpec::WorstCase { w: 32, e, u },
    ];
    let mut all: Vec<(String, Vec<u32>)> =
        specs.iter().map(|s| (s.label(), s.generate(padded)[..n].to_vec())).collect();
    all.push(("all-equal".into(), vec![7; n]));
    all.push(("tile-periodic".into(), periodic));
    all
}

/// Widen to 64 bits without changing any comparison.
fn widen(keys: &[u32]) -> Vec<u64> {
    keys.iter().map(|&k| (u64::from(k) << 32) | 0x5555).collect()
}

fn assert_same_run<K: SortKey + std::fmt::Debug>(got: &SortRun<K>, want: &SortRun<K>, what: &str) {
    assert_eq!(got.output, want.output, "output, {what}");
    assert_eq!(got.profile, want.profile, "profile, {what}");
    assert_eq!(
        got.simulated_seconds.to_bits(),
        want.simulated_seconds.to_bits(),
        "simulated seconds, {what}"
    );
    assert_eq!(got.kernels, want.kernels, "kernels, {what}");
    assert_eq!(got.n, want.n, "n, {what}");
}

/// The memo-off reference: the traced sort of `keys`, after checking that
/// its tracers watched every block of every launch.
fn traced_reference<K: SortKey>(
    keys: &[K],
    algo: SortAlgorithm,
    cfg: &SortConfig,
    what: &str,
) -> SortRun<K> {
    let traced = simulate_sort_traced(keys, algo, cfg);
    let (run, trace) = (traced.run, traced.trace);
    assert_eq!(trace.kernels.len(), run.kernels.len(), "traced launches, {what}");
    for (kernel, report) in trace.kernels.iter().zip(&run.kernels) {
        let name = &report.name;
        assert_eq!(kernel.blocks.len() as u64, report.blocks, "{name} block traces, {what}");
        for class in PhaseClass::all() {
            let recorded: u64 =
                kernel.blocks.iter().flat_map(|b| &b.degree_rounds[class.index()]).sum();
            let c = report.profile.phase(class);
            assert_eq!(
                recorded,
                c.shared_ld_requests + c.shared_st_requests,
                "{name} {class:?} shared requests the tracers saw, {what}"
            );
        }
    }
    run
}

/// The plain, robust and resumed sorts of `keys` against the traced one.
fn check<K: SortKey + std::fmt::Debug>(
    keys: &[K],
    algo: SortAlgorithm,
    rcfg: &RobustConfig,
    what: &str,
) {
    let cfg = &rcfg.base;
    let reference = traced_reference(keys, algo, cfg, what);
    assert_same_run(&simulate_sort(keys, algo, cfg), &reference, &format!("plain, {what}"));
    let robust = simulate_sort_robust(keys, algo, rcfg, &FaultPlan::none()).expect("clean run");
    assert!(robust.report.is_clean(), "{what}");
    assert_same_run(&robust.run, &reference, &format!("robust, {what}"));

    // Kill after the first merge pass, then resume: the resumed run
    // re-executes only the remaining launches.
    let killed = simulate_sort_robust_checkpointed(
        keys,
        algo,
        rcfg,
        &FaultPlan::none(),
        CheckpointPolicy::kill_after(1),
    );
    let cp = match killed {
        Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
        other => panic!("expected Interrupted after pass 1, {what}: {other:?}"),
    };
    let resumed = resume_sort_robust::<K>(&cp, rcfg, &FaultPlan::none()).expect("resume");
    let what = format!("resumed, {what}");
    assert_eq!(resumed.run.output, reference.output, "output, {what}");
    assert_eq!(
        resumed.run.simulated_seconds.to_bits(),
        reference.simulated_seconds.to_bits(),
        "simulated seconds, {what}"
    );
    assert_eq!(resumed.run.kernels[..], reference.kernels[2..], "kernels, {what}");
}

#[test]
fn memoised_sorts_equal_fully_simulated_sorts() {
    for (e, u) in SHAPES {
        let tile = e * u;
        let rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(e, u)));
        // 8 tiles, and a ragged length that pads to 8 tiles.
        for n in [8 * tile, 5 * tile + 7] {
            for (label, keys) in inputs(e, u, n) {
                for algo in ALGOS {
                    let what = format!("{algo:?} E={e} u={u} n={n} {label}");
                    check(&keys, algo, &rcfg, &format!("u32 {what}"));
                    check(&widen(&keys), algo, &rcfg, &format!("u64 {what}"));
                }
            }
        }
    }
}

/// Inputs whose blocks are mostly all-equal, which replay from their
/// shape's uniform entry: one key repeated, the sentinel itself repeated
/// (real keys equal to the padding), one real key in the last real tile
/// of sixteen, and two distinct keys. Each in both key widths.
#[test]
fn uniform_blocks_equal_fully_simulated_sorts() {
    for (e, u) in SHAPES {
        let tile = e * u;
        let rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(e, u)));
        // Five tiles and seven keys pad to eight tiles.
        let ragged = 5 * tile + 7;
        let one_key = 8 * tile + 1;
        let few = InputSpec::FewDistinct { seed: 6, distinct: 2 }.generate(16 * tile);
        let mostly_padding = InputSpec::UniformRandom { seed: 7 }.generate(one_key);
        let cases = [
            ("all 7", vec![7; ragged], vec![7; ragged]),
            ("all sentinel", vec![u32::MAX; ragged], vec![u64::MAX; ragged]),
            ("k·tile + 1", mostly_padding.clone(), widen(&mostly_padding)),
            ("2 distinct", few.clone(), widen(&few)),
        ];
        for (label, narrow, wide) in cases {
            for algo in ALGOS {
                let what = format!("{algo:?} E={e} u={u} {label}");
                check(&narrow, algo, &rcfg, &format!("u32 {what}"));
                check(&wide, algo, &rcfg, &format!("u64 {what}"));
            }
        }
    }
}

/// Launch shapes for lean misses: (E, u), including an `E` that is not
/// coprime with the 32-lane warp.
const LEAN_SHAPES: [(usize, usize); 3] = [(5, 32), (7, 64), (16, 64)];

#[test]
fn lean_misses_equal_fully_priced_blocks() {
    for (e, u) in LEAN_SHAPES {
        let cfg = SortConfig::with_params(SortParams::new(e, u));
        // 8 tiles: every launch has 8 blocks, of which the first and the
        // last run in full and the six between, if misses, run lean.
        let n = 8 * e * u;
        let specs = [
            InputSpec::UniformRandom { seed: 3 },
            InputSpec::FewDistinct { seed: 4, distinct: 5 },
            InputSpec::NearlySorted { seed: 5, swaps: n / 50 },
        ];
        for spec in specs {
            let keys = spec.generate(n);
            for algo in ALGOS {
                let what = format!("{algo:?} E={e} u={u} {}", spec.label());
                let u32_what = format!("u32 {what}");
                let reference = traced_reference(&keys, algo, &cfg, &u32_what);
                assert_same_run(&simulate_sort(&keys, algo, &cfg), &reference, &u32_what);
                let wide = widen(&keys);
                let u64_what = format!("u64 {what}");
                let reference = traced_reference(&wide, algo, &cfg, &u64_what);
                assert_same_run(&simulate_sort(&wide, algo, &cfg), &reference, &u64_what);
            }
        }
    }
}

/// Sorts of growing and shrinking sizes on one thread, worst-case and
/// random inputs and both key widths interleaved: every launch starts from
/// what the last launch of its kind carried.
#[test]
fn carried_memos_equal_fully_simulated_sorts() {
    for (e, u) in SHAPES {
        let cfg = SortConfig::with_params(SortParams::new(e, u));
        // 64 tiles give a launch a sampled block 63 before its last.
        let sizes: &[usize] = if e * u == 160 { &[1, 2, 8, 64, 4, 1] } else { &[1, 2, 8, 4, 1] };
        let specs = [InputSpec::WorstCase { w: 32, e, u }, InputSpec::UniformRandom { seed: 9 }];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for &tiles in sizes {
                    for spec in &specs {
                        let keys = spec.generate(tiles * e * u);
                        for algo in ALGOS {
                            let what =
                                format!("{algo:?} E={e} u={u} {tiles} tiles {}", spec.label());
                            let u32_what = format!("u32 {what}");
                            let traced = traced_reference(&keys, algo, &cfg, &u32_what);
                            let plain = simulate_sort(&keys, algo, &cfg);
                            assert_same_run(&plain, &traced, &u32_what);
                            let wide = widen(&keys);
                            let u64_what = format!("u64 {what}");
                            let traced = traced_reference(&wide, algo, &cfg, &u64_what);
                            let plain = simulate_sort(&wide, algo, &cfg);
                            assert_same_run(&plain, &traced, &u64_what);
                        }
                    }
                }
            });
        });
    }
}
