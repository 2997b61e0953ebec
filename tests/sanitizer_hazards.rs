//! Hazard-injection suite for the dynamic kernel sanitizer: seeded racy,
//! divergent, out-of-bounds, and uninitialized-read kernels MUST be
//! flagged with the right hazard kind and forensics, while the shipping
//! pipelines MUST come back clean on worst-case and random inputs.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort_checked, SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::check::{Finding, Hazard, Sanitizer};
use cfmerge::gpu_sim::{BankModel, BlockSim, NullTracer, PhaseClass};

fn block(u: usize, w: u32, len: usize) -> BlockSim<u32, NullTracer, Sanitizer> {
    BlockSim::with_checker(BankModel::new(w), u, len, NullTracer, Sanitizer::new())
}

fn findings(b: BlockSim<u32, NullTracer, Sanitizer>) -> Vec<Finding> {
    let (_, _, ck, _) = b.finish();
    ck.into_findings()
}

#[test]
fn write_write_race_is_flagged_with_forensics() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::Sort, |tid, lane| {
        lane.st(5, tid as u32); // every lane stores the same word
    });
    let found = findings(b);
    let races: Vec<_> =
        found.iter().filter(|f| matches!(f.hazard, Hazard::WriteWriteRace { .. })).collect();
    assert!(!races.is_empty(), "seeded write-write race must be flagged");
    for f in races {
        assert_eq!(f.addr, Some(5));
        assert_eq!(f.class, PhaseClass::Sort);
        assert_eq!(f.warp, 0);
    }
}

#[test]
fn write_then_read_race_is_flagged() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::Merge, |tid, lane| {
        if tid == 0 {
            lane.st(3, 99);
        } else {
            let _ = lane.ld(3); // no barrier between the store and these
        }
    });
    let found = findings(b);
    assert!(
        found.iter().any(|f| matches!(f.hazard, Hazard::ReadWriteRace { .. }) && f.addr == Some(3)),
        "seeded write→read race must be flagged: {found:?}"
    );
}

#[test]
fn read_then_write_race_is_flagged() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..4 {
            lane.st(r * 8 + tid, 1); // initialize the tile
        }
    });
    b.phase(PhaseClass::Merge, |tid, lane| {
        if tid < 7 {
            let _ = lane.ld(3);
        } else {
            lane.st(3, 42); // overwrites a word lanes 0..6 just read
        }
    });
    let found = findings(b);
    assert!(
        found.iter().any(|f| matches!(f.hazard, Hazard::ReadWriteRace { .. }) && f.addr == Some(3)),
        "seeded read→write race must be flagged: {found:?}"
    );
}

#[test]
fn shared_oob_is_flagged_and_suppressed() {
    let mut b = block(8, 8, 16);
    let mut got = [0u32; 8];
    b.phase(PhaseClass::Other, |tid, lane| {
        got[tid] = lane.ld(999); // far past the 16-word tile
    });
    // The faulty load is suppressed (yields the default), not a crash.
    assert!(got.iter().all(|&v| v == 0));
    let found = findings(b);
    let oob: Vec<_> = found
        .iter()
        .filter(|f| matches!(f.hazard, Hazard::SharedOutOfBounds { len: 16, store: false }))
        .collect();
    assert_eq!(oob.len(), 8, "every lane's OOB load flagged once: {found:?}");
    assert!(oob.iter().all(|f| f.addr == Some(999)));
}

#[test]
fn shared_oob_store_is_flagged() {
    let mut b = block(8, 8, 16);
    b.phase(PhaseClass::Other, |tid, lane| {
        if tid == 2 {
            lane.st(16, 7); // one past the end
        } else {
            lane.st(tid, 7);
        }
    });
    let found = findings(b);
    assert!(found.iter().any(|f| matches!(
        f.hazard,
        Hazard::SharedOutOfBounds { len: 16, store: true }
    ) && f.tid == 2
        && f.addr == Some(16)));
}

#[test]
fn global_oob_is_flagged_and_suppressed() {
    let src = vec![1u32; 10];
    let mut b = block(8, 8, 16);
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        let v = lane.ld_global(&src, tid + 8); // lanes 2.. run off the end
        lane.st(tid, v);
    });
    let found = findings(b);
    let oob: Vec<_> = found
        .iter()
        .filter(|f| matches!(f.hazard, Hazard::GlobalOutOfBounds { len: 10, store: false }))
        .collect();
    assert_eq!(oob.len(), 6, "lanes 2..8 read global[10..16]: {found:?}");
}

#[test]
fn uninitialized_read_is_flagged_once_per_word() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::Sort, |tid, lane| {
        if tid == 0 {
            let _ = lane.ld(30); // never stored by anyone
            let _ = lane.ld(30); // second read of the same word: no repeat
        } else {
            lane.st(tid, 5);
        }
    });
    let found = findings(b);
    let uninit: Vec<_> = found.iter().filter(|f| f.hazard == Hazard::UninitializedRead).collect();
    assert_eq!(uninit.len(), 1, "{found:?}");
    assert_eq!(uninit[0].addr, Some(30));
    assert_eq!(uninit[0].tid, 0);
}

#[test]
fn divergence_is_flagged_outside_search() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..4 {
            lane.st(r * 8 + tid, 1);
        }
    });
    b.phase(PhaseClass::Merge, |tid, lane| {
        let _ = lane.ld(tid);
        if tid == 0 {
            let _ = lane.ld(8 + tid); // lane 0 issues one extra load
        }
    });
    let found = findings(b);
    assert!(
        found.iter().any(|f| matches!(
            f.hazard,
            Hazard::Divergence { space: "shared", min: 1, max: 2, .. }
        ) && f.class == PhaseClass::Merge),
        "unequal per-lane access counts in a data-movement phase must be flagged: {found:?}"
    );
}

#[test]
fn search_divergence_is_exempt_by_default() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..4 {
            lane.st(r * 8 + tid, 1);
        }
    });
    // Merge-path-style predicated probing: trip count varies per lane.
    b.phase(PhaseClass::Search, |tid, lane| {
        for probe in 0..=tid {
            let _ = lane.ld(probe);
        }
    });
    let found = findings(b);
    assert!(found.is_empty(), "Search is divergence-exempt by default: {found:?}");
}

#[test]
fn search_exemption_can_be_revoked() {
    let mut ck = Sanitizer::new();
    ck.set_divergence_exempt(PhaseClass::Search, false);
    let mut b = BlockSim::<u32, NullTracer, Sanitizer>::with_checker(
        BankModel::new(8),
        8,
        32,
        NullTracer,
        ck,
    );
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..4 {
            lane.st(r * 8 + tid, 1);
        }
    });
    b.phase(PhaseClass::Search, |tid, lane| {
        for probe in 0..=tid {
            let _ = lane.ld(probe);
        }
    });
    let found = findings(b);
    assert!(
        found
            .iter()
            .any(|f| matches!(f.hazard, Hazard::Divergence { .. }) && f.class == PhaseClass::Search),
        "with the exemption revoked the same kernel must be flagged"
    );
}

#[test]
fn well_formed_kernel_is_clean() {
    let mut b = block(8, 8, 32);
    b.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..4 {
            lane.st(r * 8 + tid, (r * 8 + tid) as u32);
        }
    });
    b.phase(PhaseClass::StoreTile, |tid, lane| {
        for r in 0..4 {
            let _ = lane.ld(r * 8 + tid);
        }
    });
    assert!(findings(b).is_empty());
}

/// The shipping pipelines must be hazard-free on the adversarial inputs
/// that maximize their bank conflicts — conflicts cost time but are not
/// hazards — and on random/degenerate inputs, for both parameter regimes.
#[test]
fn shipping_pipelines_are_hazard_free() {
    let w = 32usize;
    for (e, u) in [(15usize, 64usize), (16, 64), (17, 64)] {
        let config = SortConfig::with_params(SortParams::new(e, u));
        let n = 4 * e * u;
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            for spec in [
                InputSpec::WorstCase { w, e, u },
                InputSpec::UniformRandom { seed: 42 },
                InputSpec::FewDistinct { seed: 1, distinct: 2 },
            ] {
                let input = spec.generate(n);
                let checked = simulate_sort_checked(&input, algo, &config);
                assert!(
                    checked.is_clean(),
                    "{} E={e} u={u} {}:\n{}",
                    algo.label(),
                    spec.label(),
                    checked.report()
                );
                let mut expect = input;
                expect.sort_unstable();
                assert_eq!(checked.run.output, expect, "{} E={e} u={u}", algo.label());
            }
        }
    }
}
