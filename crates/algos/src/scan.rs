//! Block-level prefix sums in shared memory — the classic bank-conflict
//! case study (Dotsenko et al., cited as \[18\] by the paper).
//!
//! Three variants over one tile of `u` elements (one per thread):
//!
//! * [`HillisSteele`](ScanKind::HillisSteele) — `log u` rounds of `x[i] += x[i - 2^k]`: accesses
//!   are unit-offset per lane, so it is naturally conflict-free, but it
//!   does `Θ(u log u)` work.
//! * [`Blelloch`](ScanKind::Blelloch) — the work-efficient up-sweep/down-sweep tree: only
//!   `Θ(u)` adds, but the tree strides are powers of two — the textbook
//!   worst case for `w = 32` banks (up to 16-way conflicts near the
//!   root).
//! * [`BlellochPadded`](ScanKind::BlellochPadded) — the classic fix: skew every index by
//!   `idx / w` padding words so tree strides land in distinct banks.
//!
//! The simulator measures all three; tests pin the expected conflict
//! structure (zero / heavy / zero).

use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};

/// Which scan implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Naive `Θ(u log u)` scan, conflict-free.
    HillisSteele,
    /// Work-efficient tree scan, unpadded (conflict-heavy).
    Blelloch,
    /// Work-efficient tree scan with bank-skew padding (conflict-free).
    BlellochPadded,
}

impl ScanKind {
    /// Label for report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScanKind::HillisSteele => "hillis-steele",
            ScanKind::Blelloch => "blelloch",
            ScanKind::BlellochPadded => "blelloch+pad",
        }
    }
}

/// Padding skew: one extra word per `w` (the GPU Gems 3
/// `CONFLICT_FREE_OFFSET`).
fn pad(idx: usize, w: usize) -> usize {
    idx + idx / w
}

/// Exclusive prefix sum of one `u`-element tile (wrapping arithmetic).
/// Returns `(result, profile)`.
///
/// # Panics
/// Panics unless `u` is a power-of-two multiple of the warp width.
#[must_use]
pub fn block_exclusive_scan(
    banks: BankModel,
    input: &[u32],
    kind: ScanKind,
) -> (Vec<u32>, KernelProfile) {
    let w = banks.num_banks as usize;
    let u = input.len();
    assert!(
        u.is_power_of_two() && u.is_multiple_of(w),
        "tile of {u} must be a power-of-two multiple of w={w}"
    );
    let padded_len = match kind {
        ScanKind::BlellochPadded => pad(u - 1, w) + 1,
        _ => u,
    };
    let mut block = BlockSim::<u32>::new(banks, u, padded_len);
    let at = |idx: usize| match kind {
        ScanKind::BlellochPadded => pad(idx, w),
        _ => idx,
    };

    // Load (one element per thread, unit stride modulo padding skew).
    block.phase(PhaseClass::LoadTile, |tid, lane| {
        let v = lane.ld_global(input, tid);
        lane.st(at(tid), v);
    });

    match kind {
        ScanKind::HillisSteele => {
            // Inclusive scan by doubling, then shift to exclusive.
            let mut offset = 1usize;
            while offset < u {
                // Read phase: every thread reads its left neighbour.
                let mut partial = vec![0u32; u];
                block.phase(PhaseClass::Other, |tid, lane| {
                    if tid >= offset {
                        partial[tid] = lane.ld(tid - offset);
                    }
                });
                // Write phase (barrier-separated, as on hardware).
                block.phase(PhaseClass::Other, |tid, lane| {
                    if tid >= offset {
                        let cur = lane.ld(tid);
                        lane.st(tid, cur.wrapping_add(partial[tid]));
                        lane.alu(1);
                    }
                });
                offset *= 2;
            }
            // Inclusive → exclusive shift.
            let mut vals = vec![0u32; u];
            block.phase(PhaseClass::Other, |tid, lane| {
                vals[tid] = if tid == 0 { 0 } else { lane.ld(tid - 1) };
            });
            block.phase(PhaseClass::StoreTile, |tid, lane| {
                lane.st(tid, vals[tid]);
            });
        }
        ScanKind::Blelloch | ScanKind::BlellochPadded => {
            // Up-sweep: one thread per active pair.
            let mut stride = 1usize;
            while stride < u {
                let active = u / (2 * stride);
                block.phase(PhaseClass::Other, |tid, lane| {
                    if tid < active {
                        let i = at(stride * (2 * tid + 1) - 1);
                        let j = at(stride * (2 * tid + 2) - 1);
                        let a = lane.ld(i);
                        let b = lane.ld(j);
                        lane.st(j, a.wrapping_add(b));
                        lane.alu(1);
                    }
                });
                stride *= 2;
            }
            // Clear the root.
            block.phase(PhaseClass::Other, |tid, lane| {
                if tid == 0 {
                    lane.st(at(u - 1), 0);
                }
            });
            // Down-sweep.
            let mut stride = u / 2;
            while stride >= 1 {
                let active = u / (2 * stride);
                block.phase(PhaseClass::Other, |tid, lane| {
                    if tid < active {
                        let i = at(stride * (2 * tid + 1) - 1);
                        let j = at(stride * (2 * tid + 2) - 1);
                        let t = lane.ld(i);
                        let x = lane.ld(j);
                        lane.st(i, x);
                        lane.st(j, x.wrapping_add(t));
                        lane.alu(1);
                    }
                });
                stride /= 2;
            }
        }
    }

    // Read the results back.
    let mut out = vec![0u32; u];
    block.phase(PhaseClass::StoreTile, |tid, lane| {
        out[tid] = lane.ld(at(tid));
    });
    (out, block.profile)
}

/// Reference exclusive scan (wrapping).
#[must_use]
pub fn exclusive_scan_reference(input: &[u32]) -> Vec<u32> {
    let mut acc = 0u32;
    input
        .iter()
        .map(|&x| {
            let out = acc;
            acc = acc.wrapping_add(x);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn run(kind: ScanKind, u: usize, seed: u64) -> (Vec<u32>, Vec<u32>, KernelProfile) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let input: Vec<u32> = (0..u).map(|_| rng.gen_range(0..1000)).collect();
        let (out, profile) = block_exclusive_scan(BankModel::nvidia(), &input, kind);
        let expect = exclusive_scan_reference(&input);
        (out, expect, profile)
    }

    #[test]
    fn all_variants_compute_the_scan() {
        for kind in [ScanKind::HillisSteele, ScanKind::Blelloch, ScanKind::BlellochPadded] {
            for u in [32usize, 128, 512, 1024] {
                let (out, expect, _) = run(kind, u, 42);
                assert_eq!(out, expect, "{} u={u}", kind.label());
            }
        }
    }

    #[test]
    fn wrapping_sums_are_fine() {
        let input = vec![u32::MAX; 64];
        let (out, p) = block_exclusive_scan(BankModel::nvidia(), &input, ScanKind::Blelloch);
        assert_eq!(out, exclusive_scan_reference(&input));
        assert!(p.total().shared_requests() > 0);
    }

    #[test]
    fn conflict_structure_matches_the_textbook() {
        let u = 512usize;
        let (_, _, hs) = run(ScanKind::HillisSteele, u, 7);
        let (_, _, bl) = run(ScanKind::Blelloch, u, 7);
        let (_, _, pd) = run(ScanKind::BlellochPadded, u, 7);
        // Hillis-Steele: unit-offset lanes → conflict-free.
        assert_eq!(hs.total_bank_conflicts(), 0, "hillis-steele must be conflict-free");
        // Unpadded tree scan: heavy conflicts from power-of-two strides.
        assert!(
            bl.total_bank_conflicts() > 100,
            "unpadded Blelloch should conflict heavily, got {}",
            bl.total_bank_conflicts()
        );
        // Padded: zero.
        assert_eq!(pd.total_bank_conflicts(), 0, "padding must remove all conflicts");
        // And work efficiency: Blelloch issues fewer adds than
        // Hillis-Steele.
        assert!(bl.total().alu_ops < hs.total().alu_ops);
        // Same number of tree accesses padded vs not.
        assert_eq!(bl.total().shared_requests(), pd.total().shared_requests());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn ragged_tile_rejected() {
        let _ = block_exclusive_scan(BankModel::nvidia(), &[1u32; 100], ScanKind::Blelloch);
    }
}
