//! A full bitonic mergesort pipeline on the simulator — the classic
//! data-oblivious comparison sort, as a second baseline beside the
//! merge-path mergesorts.
//!
//! Batcher's bitonic network sorts `n = 2^k` keys in `Θ(log² n)` stages
//! of `n/2` compare-exchanges. On a GPU, substages whose partner stride
//! fits inside a block's chunk run in shared memory (many substages per
//! tile load); wider strides touch global memory directly. Interesting
//! conflict fact the simulator measures: the *shared* substages of a
//! bitonic sort are **not** conflict-free — at stride `j < w` the lane
//! addresses advance by 2 within a warp (`gcd = 2`-way conflicts), one
//! of the reasons tuned GPU bitonic sorts still lose to merge-path
//! mergesort beyond small `n` despite their beautiful regularity (the
//! asymptotic `log n` extra factor being the other).

use cfmerge_core::sort::key::SortKey;
use cfmerge_gpu_sim::banks::BankModel;
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::device::Device;
use cfmerge_gpu_sim::occupancy::BlockResources;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_gpu_sim::timing::{LaunchConfig, TimingModel};
use rayon::prelude::*;

/// Result of a simulated bitonic sort.
#[derive(Debug, Clone)]
pub struct BitonicRun<K = u32> {
    /// Sorted output (input length).
    pub output: Vec<K>,
    /// Aggregate profile.
    pub profile: KernelProfile,
    /// Modeled runtime in seconds.
    pub simulated_seconds: f64,
    /// Number of kernel launches (global substages + shared-stage
    /// kernels).
    pub launches: u64,
    /// Input size.
    pub n: usize,
}

impl<K> BitonicRun<K> {
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

/// Direction of the bitonic compare-exchange at global index `i` in the
/// stage of width `k`: ascending iff bit `k` of `i` is clear.
fn ascending(i: usize, k: usize) -> bool {
    i & k == 0
}

/// Sort on the simulated GPU with a bitonic network. `u` threads per
/// block, each block owning a chunk of `2u` keys for the shared-memory
/// substages.
///
/// # Panics
/// Panics unless `u` is a power-of-two multiple of the device warp width.
#[must_use]
pub fn bitonic_sort<K: SortKey>(
    input: &[K],
    u: usize,
    device: &Device,
    timing: &TimingModel,
    count_accesses: bool,
) -> BitonicRun<K> {
    let w = device.warp_width as usize;
    assert!(
        u.is_power_of_two() && u.is_multiple_of(w),
        "u={u} must be a power-of-two multiple of w={w}"
    );
    let banks = device.bank_model();
    let n = input.len();
    if n == 0 {
        return BitonicRun {
            output: Vec::new(),
            profile: KernelProfile::new(),
            simulated_seconds: 0.0,
            launches: 0,
            n: 0,
        };
    }
    let chunk = 2 * u;
    let n_pad = n.next_power_of_two().max(chunk);
    let mut data = input.to_vec();
    data.resize(n_pad, K::MAX_SENTINEL);

    let launch = LaunchConfig {
        blocks: (n_pad / chunk) as u64,
        resources: BlockResources {
            threads: u as u32,
            shared_bytes: (chunk * 4) as u32,
            regs_per_thread: 24,
        },
    };
    let mut total_profile = KernelProfile::new();
    let mut seconds = 0.0;
    let mut launches = 0u64;

    let mut k = 2usize;
    while k <= n_pad {
        let mut j = k / 2;
        // Global substages (stride ≥ chunk): one kernel each.
        while j >= chunk {
            let profile = global_substage(banks, u, &mut data, j, k, count_accesses);
            let t = timing
                .kernel_time(device, &profile.total(), &launch)
                .expect("bitonic launch fits the device");
            seconds += t.seconds;
            total_profile.merge(&profile);
            launches += 1;
            j /= 2;
        }
        // Remaining substages of this stage run in shared, one kernel.
        if j >= 1 {
            let profile = shared_substages(banks, u, &mut data, j, k, count_accesses);
            let t = timing
                .kernel_time(device, &profile.total(), &launch)
                .expect("bitonic launch fits the device");
            seconds += t.seconds;
            total_profile.merge(&profile);
            launches += 1;
        }
        k *= 2;
    }

    data.truncate(n);
    BitonicRun { output: data, profile: total_profile, simulated_seconds: seconds, launches, n }
}

/// One global-memory substage: every thread performs one
/// compare-exchange at stride `j ≥ chunk`.
fn global_substage<K: SortKey>(
    banks: BankModel,
    u: usize,
    data: &mut [K],
    j: usize,
    k: usize,
    count: bool,
) -> KernelProfile {
    let n = data.len();
    let pairs = n / 2;
    // Partition the pairs across blocks; blocks are independent because
    // each element belongs to exactly one pair at stride j.
    let blocks = pairs.div_ceil(u);
    let snapshot: &[K] = data;
    let mut profile = KernelProfile::new();
    // Collect the swaps block by block (the input is shared immutably
    // inside the block simulation; swaps applied after, like a scatter
    // kernel writing its own outputs).
    let results: Vec<(KernelProfile, Vec<(usize, K)>)> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let mut block = BlockSim::<K>::new(banks, u, 1);
            block.set_counting(count);
            let mut writes: Vec<(usize, K)> = Vec::with_capacity(2 * u);
            block.phase(PhaseClass::Other, |tid, lane| {
                let p = b * u + tid;
                if p >= pairs {
                    return;
                }
                // Expand pair index to the lower element of the pair.
                let i = ((p & !(j - 1)) << 1) | (p & (j - 1));
                let partner = i | j;
                let a = lane.ld_global(snapshot, i);
                let c = lane.ld_global(snapshot, partner);
                lane.alu(4);
                let (lo, hi) = if a <= c { (a, c) } else { (c, a) };
                let (x, y) = if ascending(i, k) { (lo, hi) } else { (hi, lo) };
                lane.mark_global_st(i);
                lane.mark_global_st(partner);
                writes.push((i, x));
                writes.push((partner, y));
            });
            (block.profile, writes)
        })
        .collect();
    let mut all_writes = Vec::with_capacity(n);
    for (p, wlist) in results {
        profile.merge(&p);
        all_writes.extend(wlist);
    }
    for (idx, v) in all_writes {
        data[idx] = v;
    }
    profile
}

/// All substages with stride `≤ j_start < chunk` of stage `k`, executed
/// per block in shared memory.
fn shared_substages<K: SortKey>(
    banks: BankModel,
    u: usize,
    data: &mut [K],
    j_start: usize,
    k: usize,
    count: bool,
) -> KernelProfile {
    let chunk = 2 * u;
    let profiles: Vec<KernelProfile> = data
        .par_chunks_mut(chunk)
        .enumerate()
        .map(|(blk, tile)| {
            let base = blk * chunk;
            let mut block = BlockSim::<K>::new(banks, u, chunk);
            block.set_counting(count);
            block.phase(PhaseClass::LoadTile, |tid, lane| {
                for r in 0..2 {
                    let s = r * u + tid;
                    let v = lane.ld_global(tile, s);
                    lane.st(s, v);
                }
            });
            let mut j = j_start;
            while j >= 1 {
                block.phase(PhaseClass::Other, |tid, lane| {
                    let i = ((tid & !(j - 1)) << 1) | (tid & (j - 1));
                    let partner = i | j;
                    let a = lane.ld(i);
                    let c = lane.ld(partner);
                    lane.alu(4);
                    let (lo, hi) = if a <= c { (a, c) } else { (c, a) };
                    let (x, y) = if ascending(base + i, k) { (lo, hi) } else { (hi, lo) };
                    lane.st(i, x);
                    lane.st(partner, y);
                });
                j /= 2;
            }
            block.phase(PhaseClass::StoreTile, |tid, lane| {
                for r in 0..2 {
                    let s = r * u + tid;
                    let v = lane.ld(s);
                    lane.st_global(tile, s, v);
                }
            });
            block.profile
        })
        .collect();
    let mut profile = KernelProfile::new();
    for p in &profiles {
        profile.merge(p);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_gpu_sim::timing::TimingModel;
    use rand::{Rng, SeedableRng};

    fn sort(n: usize, seed: u64) -> BitonicRun<u32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let input: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let run =
            bitonic_sort(&input, 128, &Device::rtx2080ti(), &TimingModel::rtx2080ti_like(), true);
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.output, expect, "n={n}");
        run
    }

    #[test]
    fn sorts_many_sizes() {
        for n in [0usize, 1, 2, 255, 256, 1000, 4096, 10_000] {
            let _ = sort(n, n as u64);
        }
    }

    #[test]
    fn shared_substages_do_conflict_modestly() {
        // The small-stride substages collide 2-way; verify conflicts are
        // present but bounded (≤ 2× requests would mean 2-way everywhere).
        let run = sort(16384, 9);
        let t = run.profile.total();
        assert!(t.bank_conflicts() > 0, "bitonic shared substages should conflict");
        assert!(
            t.shared_ld_transactions <= 2 * t.shared_ld_requests,
            "conflicts should be at most 2-way on average"
        );
    }

    #[test]
    fn work_grows_superlinearly() {
        // Θ(n log² n): ALU per element should grow with n.
        let small = sort(1 << 12, 1);
        let big = sort(1 << 15, 1);
        let per_small = small.profile.total().alu_ops as f64 / (1 << 12) as f64;
        let per_big = big.profile.total().alu_ops as f64 / (1 << 15) as f64;
        assert!(per_big > per_small * 1.3, "{per_small} vs {per_big}");
    }

    #[test]
    fn descending_regions_handled() {
        // Deterministic adversarial shape: organ pipe.
        let mut input: Vec<u32> = (0..2048u32).collect();
        let mirror: Vec<u32> = (0..2048u32).rev().collect();
        input.extend(mirror);
        let run =
            bitonic_sort(&input, 64, &Device::rtx2080ti(), &TimingModel::rtx2080ti_like(), false);
        assert!(run.output.is_sorted());
    }
}
