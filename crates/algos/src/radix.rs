//! LSD radix sort on the simulator — the non-comparison baseline.
//!
//! The paper calls merge-path mergesort "the fastest comparison-based
//! sorting implementation on GPUs"; the qualifier exists because radix
//! sort wins on 32-bit keys. This implementation follows the classic
//! GPU structure (Merrill & Grimshaw lineage, simplified): per pass of
//! `RADIX_BITS` bits — block histograms in shared memory, a global
//! digit scan, then a stable scatter. The simulator's accounting makes
//! its two textbook costs visible:
//!
//! * the histogram reduction's strided shared reads (bank conflicts);
//! * the scatter's poorly coalesced global writes (sector blow-up) —
//!   the fundamental tax radix pays per pass, measured exactly by the
//!   32-byte-sector model.

use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::device::Device;
use cfmerge_gpu_sim::occupancy::BlockResources;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_gpu_sim::timing::{LaunchConfig, TimingModel};
use rayon::prelude::*;

/// Bits sorted per pass.
pub const RADIX_BITS: u32 = 4;
/// Digit alphabet size.
pub const RADIX: usize = 1 << RADIX_BITS;
/// Keys handled per thread in the histogram/scatter kernels.
pub const ELEMS_PER_THREAD: usize = 4;

/// Result of a simulated radix sort.
#[derive(Debug, Clone)]
pub struct RadixRun {
    /// Sorted output.
    pub output: Vec<u32>,
    /// Aggregate profile over all passes.
    pub profile: KernelProfile,
    /// Modeled runtime in seconds.
    pub simulated_seconds: f64,
    /// Kernel launches (2 per pass + the digit scan).
    pub launches: u64,
    /// Input size.
    pub n: usize,
}

impl RadixRun {
    /// Elements per microsecond.
    ///
    /// # Panics
    /// Panics if the modeled runtime is non-positive, which no simulated
    /// run can produce (launch overhead is always charged).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        cfmerge_core::metrics::elements_per_us(self.n, self.simulated_seconds)
            .expect("a simulated run always has positive modeled runtime")
    }
}

fn digit(key: u32, pass: u32) -> usize {
    ((key >> (pass * RADIX_BITS)) & (RADIX as u32 - 1)) as usize
}

/// Scatter strategy for the write phase of each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterKind {
    /// Write each key straight to its global slot (poorly coalesced —
    /// the sector blow-up the landscape bench shows).
    Direct,
    /// Merrill-style: bin keys into digit order in *shared* memory
    /// first, then write digit-contiguous runs to global (coalesced up
    /// to one broken sector per digit run per block).
    Binned,
}

/// Sort 32-bit keys with `32 / RADIX_BITS` LSD passes. `u` threads per
/// block, `ELEMS_PER_THREAD` keys per thread.
///
/// # Panics
/// Panics unless `u` is a power-of-two multiple of the warp width.
#[must_use]
pub fn radix_sort(
    input: &[u32],
    u: usize,
    device: &Device,
    timing: &TimingModel,
    count_accesses: bool,
) -> RadixRun {
    radix_sort_with(input, u, device, timing, count_accesses, ScatterKind::Direct)
}

/// [`radix_sort`] with an explicit [`ScatterKind`].
///
/// # Panics
/// Same conditions as [`radix_sort`].
#[must_use]
pub fn radix_sort_with(
    input: &[u32],
    u: usize,
    device: &Device,
    timing: &TimingModel,
    count_accesses: bool,
    scatter: ScatterKind,
) -> RadixRun {
    let w = device.warp_width as usize;
    assert!(
        u.is_power_of_two() && u.is_multiple_of(w),
        "u={u} must be a power-of-two multiple of w={w}"
    );
    let banks = device.bank_model();
    let n = input.len();
    if n == 0 {
        return RadixRun {
            output: Vec::new(),
            profile: KernelProfile::new(),
            simulated_seconds: 0.0,
            launches: 0,
            n: 0,
        };
    }
    let tile = u * ELEMS_PER_THREAD;
    let blocks = n.div_ceil(tile);
    let launch = LaunchConfig {
        blocks: blocks as u64,
        resources: BlockResources {
            threads: u as u32,
            shared_bytes: ((tile + RADIX * u) * 4) as u32,
            regs_per_thread: 32,
        },
    };

    let mut src = input.to_vec();
    let mut dst = vec![0u32; n];
    let mut total = KernelProfile::new();
    let mut seconds = 0.0;
    let mut launches = 0u64;
    let passes = 32 / RADIX_BITS;

    for pass in 0..passes {
        // ---- kernel 1: block histograms ----
        let results: Vec<(KernelProfile, [u32; RADIX])> = (0..blocks)
            .into_par_iter()
            .map(|b| histogram_block(banks, u, &src, b, pass, count_accesses))
            .collect();
        let mut hist_profile = KernelProfile::new();
        let mut block_hists: Vec<[u32; RADIX]> = Vec::with_capacity(blocks);
        for (p, h) in results {
            hist_profile.merge(&p);
            block_hists.push(h);
        }
        let t = timing
            .kernel_time(device, &hist_profile.total(), &launch)
            .expect("radix launch fits the device");
        seconds += t.seconds;
        total.merge(&hist_profile);
        launches += 1;

        // ---- the digit scan (tiny kernel; digit-major over blocks so
        // the scatter is globally stable) ----
        let mut offsets = vec![[0u32; RADIX]; blocks];
        {
            let mut acc = 0u32;
            let mut scan_profile = KernelProfile::new();
            let c = scan_profile.phase_mut(PhaseClass::Other);
            c.alu_ops += (blocks * RADIX) as u64;
            c.global_ld_sectors += (blocks * RADIX / 8).max(1) as u64;
            c.global_st_sectors += (blocks * RADIX / 8).max(1) as u64;
            for d in 0..RADIX {
                for b in 0..blocks {
                    offsets[b][d] = acc;
                    acc += block_hists[b][d];
                }
            }
            let t = timing
                .kernel_time(device, &scan_profile.total(), &launch)
                .expect("radix launch fits the device");
            seconds += t.seconds;
            total.merge(&scan_profile);
            launches += 1;
        }

        // ---- kernel 2: stable scatter ----
        let results: Vec<(KernelProfile, Vec<(usize, u32)>)> = (0..blocks)
            .into_par_iter()
            .map(|b| match scatter {
                ScatterKind::Direct => {
                    scatter_block(banks, u, &src, b, pass, &offsets[b], count_accesses)
                }
                ScatterKind::Binned => {
                    scatter_block_binned(banks, u, &src, b, pass, &offsets[b], count_accesses)
                }
            })
            .collect();
        let mut scatter_profile = KernelProfile::new();
        for (p, writes) in results {
            scatter_profile.merge(&p);
            for (idx, v) in writes {
                dst[idx] = v;
            }
        }
        let t = timing
            .kernel_time(device, &scatter_profile.total(), &launch)
            .expect("radix launch fits the device");
        seconds += t.seconds;
        total.merge(&scatter_profile);
        launches += 1;

        std::mem::swap(&mut src, &mut dst);
    }

    RadixRun { output: src, profile: total, simulated_seconds: seconds, launches, n }
}

/// One block's histogram: coalesced tile load into shared, per-thread
/// register tallies, per-digit column write, strided reduction.
fn histogram_block(
    banks: BankModel,
    u: usize,
    src: &[u32],
    b: usize,
    pass: u32,
    count: bool,
) -> (KernelProfile, [u32; RADIX]) {
    let tile = u * ELEMS_PER_THREAD;
    let base = b * tile;
    let end = src.len().min(base + tile);
    let mut block = BlockSim::<u32>::new(banks, u, tile + RADIX * u);
    block.set_counting(count);

    // Coalesced load.
    block.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let g = base + r * u + tid;
            if g < end {
                let v = lane.ld_global(src, g);
                lane.st(r * u + tid, v);
            }
        }
    });
    // Per-thread tallies → per-thread digit columns in shared
    // (layout [d·u + t]: unit-stride per digit row — conflict-free).
    block.phase(PhaseClass::Other, |tid, lane| {
        let mut counts = [0u32; RADIX];
        for r in 0..ELEMS_PER_THREAD {
            let s = r * u + tid;
            if base + r * u + tid < end {
                let v = lane.ld(s);
                counts[digit(v, pass)] += 1;
                lane.alu(3);
            }
        }
        for (d, &c) in counts.iter().enumerate() {
            lane.st(tile + d * u + tid, c);
        }
    });
    // Reduction: RADIX active threads each sum a row of u counts —
    // row-major reads at stride u are same-bank (the measured conflict
    // cost of this layout).
    let mut hist = [0u32; RADIX];
    block.phase(PhaseClass::Other, |tid, lane| {
        if tid < RADIX {
            let mut sum = 0u32;
            for t in 0..u {
                sum += lane.ld(tile + tid * u + t);
                lane.alu(1);
            }
            hist[tid] = sum;
        }
    });
    (block.profile, hist)
}

/// One block's stable scatter: recompute digits, take this block's
/// per-digit base offsets, write each key to its global slot (scattered
/// stores — the sector accounting captures the poor coalescing).
fn scatter_block(
    banks: BankModel,
    u: usize,
    src: &[u32],
    b: usize,
    pass: u32,
    offsets: &[u32; RADIX],
    count: bool,
) -> (KernelProfile, Vec<(usize, u32)>) {
    let tile = u * ELEMS_PER_THREAD;
    let base = b * tile;
    let end = src.len().min(base + tile);
    let mut block = BlockSim::<u32>::new(banks, u, tile);
    block.set_counting(count);

    block.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let g = base + r * u + tid;
            if g < end {
                let v = lane.ld_global(src, g);
                lane.st(r * u + tid, v);
            }
        }
    });

    // Local ranks must be stable in *shared-memory order* (LSD passes
    // compose only under stability). Threads own blocked element ranges
    // [tid·ELEMS, (tid+1)·ELEMS), so the simulator's in-order lane
    // execution makes the running counters a stable block-wide rank —
    // real kernels compute the same ranks with warp scans (charged as
    // ALU). The blocked shared reads are strided by ELEMS_PER_THREAD
    // (4-way conflicts at w = 32 — counted; one of radix's minor costs).
    let mut running = *offsets;
    let mut writes: Vec<(usize, u32)> = Vec::with_capacity(end - base);
    block.phase(PhaseClass::StoreTile, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let s = tid * ELEMS_PER_THREAD + r;
            let g = base + s;
            if g < end {
                let v = lane.ld(s);
                let d = digit(v, pass);
                let dest = running[d] as usize;
                running[d] += 1;
                lane.alu(6);
                lane.mark_global_st(dest);
                writes.push((dest, v));
            }
        }
    });
    (block.profile, writes)
}

/// Merrill-style scatter: bin the tile into digit order inside shared
/// memory (a data-dependent shared scatter — conflicts counted, cheap),
/// then write digit-contiguous runs to global memory coalesced.
fn scatter_block_binned(
    banks: BankModel,
    u: usize,
    src: &[u32],
    b: usize,
    pass: u32,
    offsets: &[u32; RADIX],
    count: bool,
) -> (KernelProfile, Vec<(usize, u32)>) {
    let tile = u * ELEMS_PER_THREAD;
    let base = b * tile;
    let end = src.len().min(base + tile);
    let valid = end - base;
    // Two shared regions: the raw tile and the binned tile.
    let mut block = BlockSim::<u32>::new(banks, u, 2 * tile);
    block.set_counting(count);

    block.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let g = base + r * u + tid;
            if g < end {
                let v = lane.ld_global(src, g);
                lane.st(r * u + tid, v);
            }
        }
    });

    // Block-local digit starts (exclusive scan of the block's histogram;
    // real kernels recompute it with warp scans — charged as ALU inside
    // the binning phase below).
    let mut local_start = [0u32; RADIX];
    {
        let mut counts = [0u32; RADIX];
        for &v in &src[base..end] {
            counts[digit(v, pass)] += 1;
        }
        let mut acc = 0u32;
        for d in 0..RADIX {
            local_start[d] = acc;
            acc += counts[d];
        }
    }

    // Bin into shared digit order: stable rank via in-order lane
    // execution over blocked element ranges (same discipline as the
    // direct scatter), writes into the second shared region — a
    // data-dependent scatter whose conflicts the engine counts.
    let mut running = local_start;
    block.phase(PhaseClass::Other, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let s = tid * ELEMS_PER_THREAD + r;
            if base + s < end {
                let v = lane.ld(s);
                let d = digit(v, pass);
                let rank = running[d] as usize;
                running[d] += 1;
                lane.alu(8); // digit extract + warp-scan rank
                lane.st(tile + rank, v);
            }
        }
    });

    // Coalesced drain: shared is now digit-ordered, so slot `s` holds
    // the `(s − local_start[d])`-th key of its digit and goes to
    // `offsets[d] + (s − local_start[d])` — consecutive slots map to
    // consecutive global destinations within each digit run.
    let mut writes: Vec<(usize, u32)> = Vec::with_capacity(valid);
    block.phase(PhaseClass::StoreTile, |tid, lane| {
        for r in 0..ELEMS_PER_THREAD {
            let s = r * u + tid;
            if s < valid {
                let v = lane.ld(tile + s);
                let d = digit(v, pass);
                let dest = offsets[d] as usize + (s - local_start[d] as usize);
                lane.alu(4);
                lane.mark_global_st(dest);
                writes.push((dest, v));
            }
        }
    });
    (block.profile, writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_gpu_sim::timing::TimingModel;
    use rand::{Rng, SeedableRng};

    fn sort(n: usize, seed: u64) -> RadixRun {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let input: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let run =
            radix_sort(&input, 128, &Device::rtx2080ti(), &TimingModel::rtx2080ti_like(), true);
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.output, expect, "n={n}");
        run
    }

    #[test]
    fn sorts_many_sizes() {
        for n in [0usize, 1, 7, 512, 1000, 4096, 20_000] {
            let _ = sort(n, n as u64 + 1);
        }
    }

    #[test]
    fn stability_orders_equal_keys_by_position() {
        // Radix must be stable pass to pass; sort (key | index-in-low-
        // bits-masked-out) pairs conceptually by checking sortedness of
        // a few-distinct distribution with embedded sequence numbers in
        // untouched low bits... simpler: keys with only high bits set,
        // low bits = original position.
        let n = 5000usize;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let input: Vec<u32> =
            (0..n).map(|i| (rng.gen_range(0..4u32) << 16) | (i as u32 & 0xFFFF)).collect();
        let run =
            radix_sort(&input, 128, &Device::rtx2080ti(), &TimingModel::rtx2080ti_like(), false);
        // Full numeric sortedness implies the low bits (positions) are
        // ascending within each high-bit class — but radix sorts those
        // bits too; instead verify against a stable std sort by the full
        // key, which equals the radix result iff radix is a correct sort.
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.output, expect);
    }

    #[test]
    fn binned_scatter_sorts_and_coalesces() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(314);
        let n = 32_768usize;
        let input: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let dev = Device::rtx2080ti();
        let tm = TimingModel::rtx2080ti_like();
        let direct = radix_sort_with(&input, 128, &dev, &tm, true, ScatterKind::Direct);
        let binned = radix_sort_with(&input, 128, &dev, &tm, true, ScatterKind::Binned);
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(direct.output, expect);
        assert_eq!(binned.output, expect);
        // The whole point: binning slashes the store sectors…
        assert!(
            binned.profile.total().global_st_sectors * 2 < direct.profile.total().global_st_sectors,
            "binned {} vs direct {}",
            binned.profile.total().global_st_sectors,
            direct.profile.total().global_st_sectors
        );
        // …and is faster end to end in the model.
        assert!(binned.simulated_seconds < direct.simulated_seconds);
    }

    #[test]
    fn binned_scatter_ragged_sizes() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(315);
        for n in [1usize, 100, 511, 513, 5000] {
            let input: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let run = radix_sort_with(
                &input,
                128,
                &Device::rtx2080ti(),
                &TimingModel::rtx2080ti_like(),
                false,
                ScatterKind::Binned,
            );
            let mut expect = input;
            expect.sort_unstable();
            assert_eq!(run.output, expect, "n={n}");
        }
    }

    #[test]
    fn fixed_pass_count_and_conflicts_present() {
        let run = sort(32_768, 5);
        assert_eq!(run.launches, u64::from(32 / RADIX_BITS) * 3);
        // The strided histogram reduction must show conflicts.
        assert!(run.profile.total_bank_conflicts() > 0);
        // Scatter coalescing is poor: global store sectors well above
        // the coalesced minimum (n/8 per pass).
        let passes = u64::from(32 / RADIX_BITS);
        let min_sectors = passes * (32_768 / 8);
        assert!(run.profile.total().global_st_sectors > 2 * min_sectors);
    }
}
