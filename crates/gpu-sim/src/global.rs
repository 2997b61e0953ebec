//! Global-memory coalescing model.
//!
//! Global memory is served in 32-byte *sectors*. A warp-wide access is
//! coalesced into one transaction per distinct sector touched by its lanes;
//! `w = 32` lanes reading 32 consecutive 4-byte words touch 4 sectors
//! (128 B), the optimum. Strided or scattered access inflates the sector
//! count up to one per lane.
//!
//! The mergesort kernels only ever touch global memory with unit-stride
//! warp accesses (that is precisely why Thrust stages tiles through shared
//! memory), so this model mostly certifies that our kernels keep that
//! property — and prices the total traffic for the timing model.

use crate::banks::MAX_BANKS;

/// Bytes per DRAM sector.
pub const SECTOR_BYTES: u64 = 32;

/// Words (4-byte elements) per sector.
pub const SECTOR_WORDS: u64 = SECTOR_BYTES / 4;

/// Number of distinct 32-byte sectors touched by one warp-wide access to
/// the given element indices (4-byte elements).
///
/// Indices are element offsets into a single global array; the array is
/// assumed sector-aligned (allocation granularity on real devices is far
/// coarser than 32 B).
#[must_use]
pub fn sectors_touched(indices: &[u64]) -> u64 {
    if indices.len() > MAX_BANKS {
        // Longer than a warp round: only caller-built inputs get here.
        let mut sectors: Vec<u64> = indices.iter().map(|&i| i / SECTOR_WORDS).collect();
        sectors.sort_unstable();
        sectors.dedup();
        return sectors.len() as u64;
    }
    // One pass: a lane in the previous lane's sector (most lanes of a
    // coalesced access) costs one comparison; any other lane is looked
    // up among the distinct sectors seen so far. A sector is at most
    // u64::MAX / 8, so the first lane never matches the sentinel.
    let mut seen = [0u64; MAX_BANKS];
    let (mut distinct, mut prev) = (0, u64::MAX);
    for &i in indices {
        let sector = i / SECTOR_WORDS;
        if sector != prev {
            prev = sector;
            if !seen[..distinct].contains(&sector) {
                seen[distinct] = sector;
                distinct += 1;
            }
        }
    }
    distinct as u64
}

/// Coalescing efficiency of an access: useful bytes / fetched bytes. A
/// word several lanes read is useful once, so a broadcast is as wasteful
/// as a single lane and the ratio never exceeds 1.
#[must_use]
pub fn efficiency(indices: &[u64]) -> f64 {
    if indices.is_empty() {
        return 1.0;
    }
    let mut words = indices.to_vec();
    words.sort_unstable();
    words.dedup();
    let useful = words.len() as f64 * 4.0;
    let fetched = sectors_touched(indices) as f64 * SECTOR_BYTES as f64;
    useful / fetched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_full_warp() {
        let idx: Vec<u64> = (64..96).collect();
        assert_eq!(sectors_touched(&idx), 4);
        assert!((efficiency(&idx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unaligned_unit_stride_costs_one_extra_sector() {
        let idx: Vec<u64> = (3..35).collect();
        assert_eq!(sectors_touched(&idx), 5);
    }

    #[test]
    fn strided_access_wastes_sectors() {
        // Stride 8 elements = one lane per sector.
        let idx: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(sectors_touched(&idx), 32);
        assert!((efficiency(&idx) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn unordered_and_long_inputs_count_distinct_sectors() {
        // Descending lanes are counted like ascending ones; more indices
        // than a warp has lanes are copied and sorted.
        let idx: Vec<u64> = (0..32).rev().map(|i| i * 3).collect();
        assert_eq!(sectors_touched(&idx), 12);
        let long: Vec<u64> = (0..100).map(|i| (i * 37) % 800).collect();
        let distinct: std::collections::BTreeSet<u64> = long.iter().map(|i| i / 8).collect();
        assert_eq!(sectors_touched(&long), distinct.len() as u64);
    }

    #[test]
    fn broadcast_is_one_sector() {
        assert_eq!(sectors_touched(&[100; 32]), 1);
        assert!((efficiency(&[100; 32]) - 0.125).abs() < 1e-12);
        assert_eq!(sectors_touched(&[]), 0);
    }
}
