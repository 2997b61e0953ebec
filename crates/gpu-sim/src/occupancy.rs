//! Theoretical occupancy calculator.
//!
//! Occupancy — the ratio of resident warps to the SM's maximum (the
//! paper's footnote 6) — is determined by whichever per-SM resource runs
//! out first: threads, warp slots, block slots, shared memory, or
//! registers. The paper attributes the performance gap between its two
//! software parameter sets to exactly this: `E = 15, u = 512` achieves
//! 100% theoretical occupancy on the RTX 2080 Ti while Thrust's default
//! `E = 17, u = 256` does not (its 17 KiB shared-memory tile limits an SM
//! to 3 blocks = 24 of 32 warps = 75%).

use crate::device::Device;
use cfmerge_json::{json_struct, FromJson, Json, JsonError, ToJson};

/// Which resource limits residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// `max_threads_per_sm / u`.
    Threads,
    /// `max_warps_per_sm / (u/w)`.
    Warps,
    /// `max_blocks_per_sm`.
    Blocks,
    /// Shared memory per SM / per-block tile.
    SharedMemory,
    /// Register file / per-block register demand.
    Registers,
}

impl Limiter {
    /// Short label used in reports and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Limiter::Threads => "threads",
            Limiter::Warps => "warps",
            Limiter::Blocks => "blocks",
            Limiter::SharedMemory => "shared-memory",
            Limiter::Registers => "registers",
        }
    }

    /// Inverse of [`Limiter::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Limiter> {
        [
            Limiter::Threads,
            Limiter::Warps,
            Limiter::Blocks,
            Limiter::SharedMemory,
            Limiter::Registers,
        ]
        .into_iter()
        .find(|l| l.label() == label)
    }
}

impl ToJson for Limiter {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl FromJson for Limiter {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let label = v.as_str().ok_or_else(|| JsonError::new("expected limiter label string"))?;
        Limiter::from_label(label)
            .ok_or_else(|| JsonError::new(format!("unknown limiter {label:?}")))
    }
}

/// Result of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub warps_per_sm: u32,
    /// `warps_per_sm / max_warps_per_sm` in `[0, 1]`.
    pub fraction: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

json_struct! { Occupancy { blocks_per_sm, warps_per_sm, fraction, limiter } }

/// Per-block resource demand of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResources {
    /// Threads per block (`u`).
    pub threads: u32,
    /// Shared memory bytes per block.
    pub shared_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

json_struct! { BlockResources { threads, shared_bytes, regs_per_thread } }

/// Compute theoretical occupancy of `res` on `dev`.
///
/// # Errors
/// Returns the reason a single block of `res` cannot launch on `dev` at
/// all — `res.threads` zero or not a multiple of the warp width, or a
/// single device limit exceeded. Parameter sweeps legitimately include
/// such configurations and should report, not crash, so library code
/// never aborts here.
pub fn occupancy(dev: &Device, res: &BlockResources) -> Result<Occupancy, &'static str> {
    try_occupancy(dev, res)
}

/// Historical name for [`occupancy`] (from when the latter panicked on
/// non-launchable configurations; both now return `Result`).
///
/// # Errors
/// Same conditions as [`occupancy`].
pub fn try_occupancy(dev: &Device, res: &BlockResources) -> Result<Occupancy, &'static str> {
    let w = dev.warp_width;
    if res.threads == 0 || !res.threads.is_multiple_of(w) {
        return Err("u must be a multiple of w");
    }
    if res.threads > dev.max_threads_per_sm {
        return Err("block larger than an SM allows");
    }
    if res.shared_bytes > dev.shared_per_sm {
        return Err("tile exceeds shared memory");
    }
    if res.regs_per_thread > dev.max_regs_per_thread {
        return Err("register demand too high");
    }

    let warps_per_block = res.threads / w;
    let mut candidates = [
        (dev.max_threads_per_sm / res.threads, Limiter::Threads),
        (dev.max_warps_per_sm / warps_per_block, Limiter::Warps),
        (dev.max_blocks_per_sm, Limiter::Blocks),
        (
            dev.shared_per_sm.checked_div(res.shared_bytes).unwrap_or(u32::MAX),
            Limiter::SharedMemory,
        ),
        (
            dev.regfile_per_sm.checked_div(res.regs_per_thread * res.threads).unwrap_or(u32::MAX),
            Limiter::Registers,
        ),
    ];
    // Stable min: first limiter wins ties, so "Threads" is reported in the
    // common fully-occupied case.
    candidates.sort_by_key(|&(b, _)| b);
    let (blocks, limiter) = candidates[0];
    let warps = blocks * warps_per_block;
    Ok(Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        fraction: f64::from(warps) / f64::from(dev.max_warps_per_sm),
        limiter,
    })
}

/// Rough register-demand estimate for the mergesort kernels: `E` keys held
/// in registers plus bookkeeping (indices, bounds, pointers). Matches the
/// ballpark of `nvcc -Xptxas -v` output for the paper's artifact.
#[must_use]
pub fn mergesort_regs_estimate(elements_per_thread: u32) -> u32 {
    (elements_per_thread + 24).min(255)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_bytes(u: u32, e: u32) -> u32 {
        u * e * 4
    }

    #[test]
    fn paper_parameters_e15_u512_full_occupancy() {
        let dev = Device::rtx2080ti();
        let occ = occupancy(
            &dev,
            &BlockResources {
                threads: 512,
                shared_bytes: tile_bytes(512, 15),
                regs_per_thread: mergesort_regs_estimate(15),
            },
        )
        .expect("paper config launches");
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 32);
        assert!((occ.fraction - 1.0).abs() < 1e-12, "paper: E=15,u=512 is 100%");
    }

    #[test]
    fn paper_parameters_e17_u256_partial_occupancy() {
        let dev = Device::rtx2080ti();
        let occ = occupancy(
            &dev,
            &BlockResources {
                threads: 256,
                shared_bytes: tile_bytes(256, 17),
                regs_per_thread: mergesort_regs_estimate(17),
            },
        )
        .expect("paper config launches");
        // 17 KiB tiles: only 3 blocks fit in 64 KiB → 24/32 warps.
        assert_eq!(occ.blocks_per_sm, 3);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
        assert!((occ.fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn block_slots_limit_small_blocks() {
        let dev = Device::rtx2080ti();
        let occ =
            occupancy(&dev, &BlockResources { threads: 32, shared_bytes: 0, regs_per_thread: 16 })
                .expect("launchable");
        assert_eq!(occ.blocks_per_sm, 16);
        assert_eq!(occ.limiter, Limiter::Blocks);
        assert!((occ.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn register_pressure_limits() {
        let dev = Device::rtx2080ti();
        let occ = occupancy(
            &dev,
            &BlockResources { threads: 256, shared_bytes: 1024, regs_per_thread: 128 },
        )
        .expect("launchable");
        // 128 regs × 256 threads = 32768 per block → 2 blocks.
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::Registers);
    }

    #[test]
    fn odd_block_size_rejected() {
        let dev = Device::rtx2080ti();
        let got =
            occupancy(&dev, &BlockResources { threads: 48, shared_bytes: 0, regs_per_thread: 32 });
        assert_eq!(got, Err("u must be a multiple of w"));
    }

    #[test]
    fn try_occupancy_reports_unlaunchable_configs() {
        let dev = Device::rtx2080ti();
        // u = 1024, E = 17: 69632 B tile does not fit in 64 KiB shared.
        let res = BlockResources {
            threads: 1024,
            shared_bytes: tile_bytes(1024, 17),
            regs_per_thread: mergesort_regs_estimate(17),
        };
        assert_eq!(try_occupancy(&dev, &res), Err("tile exceeds shared memory"));
        // And a launchable one matches the panicking entry point.
        let res = BlockResources { threads: 512, shared_bytes: 1024, regs_per_thread: 32 };
        assert_eq!(try_occupancy(&dev, &res), occupancy(&dev, &res));
        assert!(occupancy(&dev, &res).is_ok());
    }

    #[test]
    fn oversized_tile_rejected() {
        let dev = Device::rtx2080ti();
        let got = occupancy(
            &dev,
            &BlockResources { threads: 512, shared_bytes: 128 * 1024, regs_per_thread: 32 },
        );
        assert_eq!(got, Err("tile exceeds shared memory"));
    }
}
