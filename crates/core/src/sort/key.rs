//! The key trait the pipelines are generic over.
//!
//! The paper evaluates 4-byte integer keys; the pipelines here are
//! generic over any [`SortKey`] so the library also supports 8-byte keys
//! and the packed `(key, index)` representation behind the stable
//! sort-by-key API ([`crate::sort::pairs`]).
//!
//! Bank accounting note: the simulator maps one element to one bank slot.
//! For 4-byte keys that is exactly NVIDIA's layout; for 8-byte keys it
//! models the 64-bit bank mode (8-byte banks) of CC ≥ 3.x-era shared
//! memory rather than a two-slot split — the conflict *structure* of the
//! algorithms is identical in either convention.

/// Keys the simulated pipelines can sort.
///
/// The [`FaultWord`](cfmerge_gpu_sim::fault::FaultWord) supertrait gives
/// the fault injector a bit pattern to corrupt; it costs nothing on
/// fault-free runs.
///
/// # Equality contract
///
/// Equality is bit identity: `a == b` exactly when
/// `a.to_fault_bits() == b.to_fault_bits()`. Two things rely on it. The
/// multiset checksum of [`crate::verify`] hashes bit patterns, so equal
/// keys must hash alike. CF-Merge's register merge emits the sorted
/// permutation in any order of equal keys, which is only the network's
/// output if equal keys are indistinguishable.
pub trait SortKey:
    Copy + Ord + Default + Send + Sync + cfmerge_gpu_sim::fault::FaultWord + 'static
{
    /// Padding sentinel, must compare ≥ every valid key (tiles are padded
    /// with it and the pad is truncated away after sorting).
    const MAX_SENTINEL: Self;
}

impl SortKey for u32 {
    const MAX_SENTINEL: Self = u32::MAX;
}

impl SortKey for u64 {
    const MAX_SENTINEL: Self = u64::MAX;
}

impl SortKey for u16 {
    const MAX_SENTINEL: Self = u16::MAX;
}

impl SortKey for i32 {
    const MAX_SENTINEL: Self = i32::MAX;
}

impl SortKey for i64 {
    const MAX_SENTINEL: Self = i64::MAX;
}

/// Order-preserving bijection `f32 → u32`: the classic GPU trick for
/// sorting floats on integer pipelines. The induced order equals
/// [`f32::total_cmp`] (IEEE totalOrder): `-NaN < -∞ < … < -0 < +0 < … <
/// +∞ < +NaN`.
#[must_use]
pub fn f32_to_ordered_u32(x: f32) -> u32 {
    let bits = x.to_bits();
    // Negative floats: flip all bits (reverses their order). Positive:
    // set the sign bit (moves them above all negatives).
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`f32_to_ordered_u32`].
#[must_use]
pub fn ordered_u32_to_f32(u: u32) -> f32 {
    let bits = if u & 0x8000_0000 != 0 { u & 0x7FFF_FFFF } else { !u };
    f32::from_bits(bits)
}

/// Sort `f32` keys on the simulated GPU (totalOrder semantics; NaNs sort
/// to the ends like [`f32::total_cmp`]). Convenience wrapper over the
/// integer pipeline via the order-preserving transform.
#[must_use]
pub fn simulate_sort_f32(
    input: &[f32],
    algo: super::pipeline::SortAlgorithm,
    config: &super::pipeline::SortConfig,
) -> super::pipeline::SortRun<f32> {
    let ints: Vec<u32> = input.iter().map(|&x| f32_to_ordered_u32(x)).collect();
    let run = super::pipeline::simulate_sort(&ints, algo, config);
    super::pipeline::SortRun {
        output: run.output.iter().map(|&u| ordered_u32_to_f32(u)).collect(),
        profile: run.profile,
        simulated_seconds: run.simulated_seconds,
        kernels: run.kernels,
        n: run.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentinel_dominates<K: SortKey>(samples: &[K]) {
        for &s in samples {
            assert!(s <= K::MAX_SENTINEL);
        }
    }

    #[test]
    fn sentinels_dominate() {
        sentinel_dominates::<u32>(&[0, 1, u32::MAX]);
        sentinel_dominates::<u64>(&[0, u64::MAX]);
        sentinel_dominates::<u16>(&[0, u16::MAX]);
        sentinel_dominates::<i32>(&[i32::MIN, -1, 0, i32::MAX]);
        sentinel_dominates::<i64>(&[i64::MIN, 0, i64::MAX]);
    }

    /// `a == b` ⇔ equal fault bits, over every pair of `samples`.
    fn equality_is_bit_identity<K: SortKey + std::fmt::Debug>(samples: &[K]) {
        for &a in samples {
            for &b in samples {
                assert_eq!(a == b, a.to_fault_bits() == b.to_fault_bits(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn every_key_type_keeps_the_equality_contract() {
        equality_is_bit_identity::<u16>(&[0, 1, 0x7FFF, 0x8000, u16::MAX - 1, u16::MAX]);
        equality_is_bit_identity::<u32>(&[0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX]);
        equality_is_bit_identity::<u64>(&[0, 1, u64::from(u32::MAX), 1 << 63, u64::MAX]);
        equality_is_bit_identity::<i32>(&[i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX]);
        equality_is_bit_identity::<i64>(&[
            i64::MIN,
            i64::MIN + 1,
            i64::from(i32::MIN),
            -1,
            0,
            1,
            i64::from(u32::MAX),
            i64::MAX,
        ]);
    }

    fn interesting_floats() -> Vec<f32> {
        vec![
            f32::NEG_INFINITY,
            f32::MIN,
            -1.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.5,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ]
    }

    #[test]
    fn float_transform_roundtrips() {
        for x in interesting_floats() {
            let back = ordered_u32_to_f32(f32_to_ordered_u32(x));
            assert_eq!(x.to_bits(), back.to_bits(), "{x}");
        }
    }

    #[test]
    fn float_transform_matches_total_cmp() {
        let vals = interesting_floats();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    f32_to_ordered_u32(a).cmp(&f32_to_ordered_u32(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn simulated_float_sort_matches_total_order() {
        use crate::params::SortParams;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xF10A7);
        let cfg = super::super::pipeline::SortConfig::with_params(SortParams::new(5, 32));
        let mut input: Vec<f32> = (0..2000).map(|_| f32::from_bits(rng.gen::<u32>())).collect();
        input.push(f32::NAN);
        input.push(-0.0);
        input.push(0.0);
        let run = simulate_sort_f32(&input, super::super::pipeline::SortAlgorithm::CfMerge, &cfg);
        let mut expect = input.clone();
        expect.sort_by(f32::total_cmp);
        assert_eq!(run.output.len(), expect.len());
        for (a, b) in run.output.iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
