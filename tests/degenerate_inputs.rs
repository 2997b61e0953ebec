//! Regression tests for degenerate inputs and configurations: empty and
//! single-element arrays, sizes that are not a multiple of the tile
//! `u·E`, all-equal keys, and invalid/unlaunchable configurations routed
//! through the typed (`try_*`) entry points.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{simulate_sort_robust, RobustConfig};
use cfmerge::core::sort::{
    simulate_sort, try_simulate_sort, validate_sort_config, SortAlgorithm, SortConfig, SortError,
};
use cfmerge::gpu_sim::device::Device;
use cfmerge::gpu_sim::fault::FaultPlan;

fn cfg() -> SortConfig {
    SortConfig::with_params(SortParams::new(5, 32)) // tile = 160
}

const ALGOS: [SortAlgorithm; 2] = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];

#[test]
fn empty_input_sorts_to_empty() {
    for algo in ALGOS {
        let run = simulate_sort::<u32>(&[], algo, &cfg());
        assert!(run.output.is_empty());
        assert_eq!(run.n, 0);
        assert_eq!(run.simulated_seconds, 0.0);
        assert_eq!(run.throughput(), 0.0);
        assert!(run.kernels.is_empty());
    }
}

#[test]
fn single_element_is_identity() {
    for algo in ALGOS {
        let run = simulate_sort(&[99u32], algo, &cfg());
        assert_eq!(run.output, vec![99]);
        assert_eq!(run.n, 1);
    }
}

#[test]
fn non_tile_multiple_sizes_pad_and_truncate_correctly() {
    // Around every tile boundary of tile = 160: one short, exact, one over.
    for n in [2usize, 159, 160, 161, 319, 320, 321, 479, 641] {
        let input = InputSpec::UniformRandom { seed: n as u64 }.generate(n);
        let mut expect = input.clone();
        expect.sort_unstable();
        for algo in ALGOS {
            let run = simulate_sort(&input, algo, &cfg());
            assert_eq!(run.output, expect, "{algo:?} n={n}");
            assert_eq!(run.output.len(), n, "padding must be truncated away");
        }
    }
}

#[test]
fn all_equal_keys_survive_every_path() {
    let input = vec![7u32; 3 * 160 + 5];
    for algo in ALGOS {
        let run = simulate_sort(&input, algo, &cfg());
        assert_eq!(run.output, input, "{algo:?}");
        // Robust driver too: equal keys are where comparator-order bugs
        // and checksum blind spots would hide.
        let r = simulate_sort_robust(&input, algo, &RobustConfig::new(cfg()), &FaultPlan::none())
            .expect("all-equal keys must sort");
        assert_eq!(r.run.output, input, "{algo:?} robust");
        assert!(r.report.is_clean());
    }
}

#[test]
fn sentinel_keys_in_the_input_are_preserved() {
    // u32::MAX doubles as the padding sentinel; real MAX keys must not be
    // truncated with the pad.
    let mut input = InputSpec::UniformRandom { seed: 3 }.generate(200);
    input.extend([u32::MAX; 7]);
    let mut expect = input.clone();
    expect.sort_unstable();
    for algo in ALGOS {
        let run = simulate_sort(&input, algo, &cfg());
        assert_eq!(run.output, expect, "{algo:?}");
    }
}

#[test]
fn typed_errors_for_bad_configurations() {
    let input = InputSpec::UniformRandom { seed: 4 }.generate(100);
    // u not a multiple of w.
    let bad = SortConfig::with_params(SortParams::new(5, 48));
    assert!(matches!(
        try_simulate_sort(&input, SortAlgorithm::CfMerge, &bad),
        Err(SortError::InvalidConfig { .. })
    ));
    // u not a power of two (blocksort pairing).
    let bad = SortConfig::with_params(SortParams::new(5, 96));
    assert!(matches!(
        try_simulate_sort(&input, SortAlgorithm::CfMerge, &bad),
        Err(SortError::InvalidConfig { .. })
    ));
    // Thread count beyond the device limit.
    let bad = SortConfig::with_params(SortParams::new(15, 2048));
    assert!(matches!(
        try_simulate_sort(&input, SortAlgorithm::CfMerge, &bad),
        Err(SortError::Unlaunchable { .. })
    ));
    assert!(matches!(validate_sort_config(&bad), Err(SortError::Unlaunchable { .. })));
    // And a good config passes through to a real run.
    let run = try_simulate_sort(&input, SortAlgorithm::CfMerge, &cfg()).expect("valid config");
    assert!(run.output.is_sorted());
}

#[test]
fn warps_wider_than_the_simulator_are_a_typed_error() {
    // The block engine holds at most 64 lanes per warp; a wider device
    // must be rejected up front, not panic inside the first block.
    let wide =
        SortConfig { device: Device::toy(128), ..SortConfig::with_params(SortParams::new(5, 128)) };
    let input = InputSpec::UniformRandom { seed: 5 }.generate(1000);
    for algo in ALGOS {
        assert!(matches!(
            try_simulate_sort(&input, algo, &wide),
            Err(SortError::InvalidConfig { .. })
        ));
        assert!(matches!(
            simulate_sort_robust(
                &input,
                algo,
                &RobustConfig::new(wide.clone()),
                &FaultPlan::none()
            ),
            Err(SortError::InvalidConfig { .. })
        ));
    }
}

#[test]
fn robust_driver_handles_degenerate_sizes_under_injection() {
    // A fault plan aimed at block 0 of every kernel; sizes small enough
    // that some launches have a single block.
    use cfmerge::gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    let plan = FaultPlan::from_sites(vec![
        FaultSite {
            kernel: 0,
            block: 0,
            phase: 1,
            kind: FaultKind::StuckBank { bank: 0, bit: 5 },
            persistence: Persistence::Transient,
        },
        FaultSite {
            kernel: 1,
            block: 0,
            phase: 2,
            kind: FaultKind::LaneDropout { lane: 3 },
            persistence: Persistence::Transient,
        },
    ]);
    let rcfg = RobustConfig::new(cfg());
    for n in [1usize, 2, 159, 161, 320] {
        let input = InputSpec::UniformRandom { seed: 5 + n as u64 }.generate(n);
        let mut expect = input.clone();
        expect.sort_unstable();
        for algo in ALGOS {
            let r = simulate_sort_robust(&input, algo, &rcfg, &plan)
                .expect("transient faults must recover");
            assert_eq!(r.run.output, expect, "{algo:?} n={n}");
        }
    }
}
