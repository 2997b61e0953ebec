//! Device descriptors: the static resources of a simulated GPU.
//!
//! The default preset mirrors the paper's testbed, an NVIDIA RTX 2080 Ti
//! (Turing, compute capability 7.5): 68 SMs, 32-lane warps, 32 shared
//! banks, 64 KiB of shared memory per SM in the configuration the paper
//! uses, a 64K-register file per SM, and ~616 GB/s of DRAM bandwidth.

use crate::banks::BankModel;
use cfmerge_json::json_struct;

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak DRAM bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Warp width = shared-memory bank count (`w`).
    pub warp_width: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM in bytes (as configured; Turing allows
    /// 32 KiB L1 + 64 KiB shared, the split the paper uses).
    pub shared_per_sm: u32,
    /// Shared-memory bank row width in 32-bit words: 1 on Turing/Ampere
    /// (4-byte banks), 2 on Kepler-class parts configured for 8-byte
    /// banks (`cudaSharedMemBankSizeEightByte`).
    pub bank_word_u32s: u32,
    /// 32-bit registers per SM.
    pub regfile_per_sm: u32,
    /// Maximum registers per thread.
    pub max_regs_per_thread: u32,
}

impl Device {
    /// The paper's testbed: NVIDIA GeForce RTX 2080 Ti (Turing, CC 7.5),
    /// shared memory carve-out configured to 64 KiB per SM.
    #[must_use]
    pub fn rtx2080ti() -> Self {
        Self {
            name: "NVIDIA GeForce RTX 2080 Ti (simulated)".into(),
            sm_count: 68,
            clock_hz: 1.545e9,
            mem_bandwidth: 616e9,
            warp_width: 32,
            max_threads_per_sm: 1024,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 16,
            shared_per_sm: 64 * 1024,
            regfile_per_sm: 64 * 1024,
            max_regs_per_thread: 255,
            bank_word_u32s: 1,
        }
    }

    /// An A100-class data-center part (Ampere, CC 8.0): more SMs, HBM
    /// bandwidth, and a larger shared-memory carve-out. Used to show the
    /// reproduction's conclusions are not an artifact of one device's
    /// resource ratios.
    #[must_use]
    pub fn a100_like() -> Self {
        Self {
            name: "NVIDIA A100-class (simulated)".into(),
            sm_count: 108,
            clock_hz: 1.41e9,
            mem_bandwidth: 1555e9,
            warp_width: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            shared_per_sm: 164 * 1024,
            regfile_per_sm: 64 * 1024,
            max_regs_per_thread: 255,
            bank_word_u32s: 1,
        }
    }

    /// A Kepler-class part in its 8-byte shared-memory bank mode
    /// (`cudaSharedMemBankSizeEightByte`): the configuration Afshani &
    /// Sitchinava analyze, where adjacent 32-bit words fuse into one
    /// 64-bit bank row and the conflict structure of every kernel changes
    /// qualitatively. Resources are K80/GK210-like (generous shared
    /// carve-out) so the paper's launch configs remain occupiable and the
    /// certification lattice exercises the width axis, not a resource
    /// limit.
    #[must_use]
    pub fn kepler_64bit_like() -> Self {
        Self {
            name: "NVIDIA Kepler-class, 64-bit banks (simulated)".into(),
            sm_count: 13,
            clock_hz: 0.875e9,
            mem_bandwidth: 240e9,
            warp_width: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            shared_per_sm: 112 * 1024,
            regfile_per_sm: 128 * 1024,
            max_regs_per_thread: 255,
            bank_word_u32s: 2,
        }
    }

    /// A tiny teaching device matching the paper's small figure examples
    /// (`w = 12`): useful in unit tests where 32-lane warps would obscure
    /// the arithmetic.
    #[must_use]
    pub fn toy(warp_width: u32) -> Self {
        Self {
            name: format!("toy-{warp_width}"),
            sm_count: 2,
            clock_hz: 1e9,
            mem_bandwidth: 100e9,
            warp_width,
            max_threads_per_sm: 16 * warp_width,
            max_warps_per_sm: 16,
            max_blocks_per_sm: 8,
            shared_per_sm: 64 * 1024,
            regfile_per_sm: 64 * 1024,
            max_regs_per_thread: 255,
            bank_word_u32s: 1,
        }
    }

    /// Bank model implied by this device (bank count and row width).
    #[must_use]
    pub fn bank_model(&self) -> BankModel {
        BankModel::with_word(self.warp_width, self.bank_word_u32s)
    }
}

json_struct! {
    Device {
        name, sm_count, clock_hz, mem_bandwidth, warp_width, max_threads_per_sm, max_warps_per_sm,
        max_blocks_per_sm, shared_per_sm, regfile_per_sm, max_regs_per_thread,
        // Emitted only in 64-bit-bank mode so every artifact written
        // before the field existed stays bit-identical.
        bank_word_u32s ?= 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::{FromJson, ToJson};

    #[test]
    fn preset_matches_paper_testbed() {
        let d = Device::rtx2080ti();
        assert_eq!(d.warp_width, 32);
        assert_eq!(d.sm_count, 68);
        assert_eq!(d.shared_per_sm, 65536);
        assert_eq!(d.bank_model().num_banks, 32);
    }

    #[test]
    fn toy_device_scales_with_warp() {
        let d = Device::toy(12);
        assert_eq!(d.warp_width, 12);
        assert_eq!(d.max_threads_per_sm % d.warp_width, 0);
    }

    #[test]
    fn kepler_64bit_mode_fuses_banks() {
        let d = Device::kepler_64bit_like();
        assert_eq!(d.bank_word_u32s, 2);
        let m = d.bank_model();
        assert_eq!(m.num_banks, 32);
        assert_eq!(m.bank_word_u32s, 2);
        // Words 0 and 1 share a 64-bit row; words 0 and 64 conflict.
        assert_eq!(m.bank_of(0), m.bank_of(1));
        assert_eq!(m.round_cost(&[0, 64]).transactions, 2);
    }

    #[test]
    fn device_json_omits_default_bank_word() {
        let turing = Device::rtx2080ti();
        assert!(!turing.to_json().to_string_pretty().contains("bank_word_u32s"));
        assert_eq!(Device::from_json(&turing.to_json()).unwrap(), turing);
        let kepler = Device::kepler_64bit_like();
        let back = Device::from_json(&kepler.to_json()).unwrap();
        assert_eq!(back, kepler);
        assert_eq!(back.bank_word_u32s, 2);
    }

    #[test]
    fn a100_class_resources() {
        let d = Device::a100_like();
        assert_eq!(d.warp_width, 32);
        assert!(d.mem_bandwidth > Device::rtx2080ti().mem_bandwidth * 2.0);
        assert_eq!(d.max_warps_per_sm, 64);
        // On Ampere the paper's E=15,u=512 tile is no longer the
        // occupancy sweet spot (register file becomes the limiter first):
        // demonstrated in the cross-device test in crates/core.
        assert!(d.shared_per_sm > 128 * 1024);
    }
}
