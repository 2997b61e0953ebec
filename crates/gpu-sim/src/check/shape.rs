//! Device shape for certification: the axes of the (E, u, w, bank-width)
//! lattice the prover quantifies over.
//!
//! The point prover of the original `check` module certified schedules on
//! one implicit device — `w` 4-byte banks. [`BankShape`] makes the device
//! explicit: bank count **and** bank row width (Kepler-class 8-byte banks
//! fuse adjacent 32-bit words into one row; Afshani & Sitchinava analyze
//! exactly how conflict structure changes with this width). Every prover
//! strategy is parameterized over a shape, and shapes outside the
//! supported lattice fail **closed**: the verdict is a refusal, never an
//! optimistic `ConflictFree`.

use crate::banks::{BankModel, MAX_BANKS};
use cfmerge_json::json_struct;

/// The shared-memory shape a certificate is proved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankShape {
    /// Number of banks `w`.
    pub banks: usize,
    /// Bank row width in 32-bit words (1 = 4-byte banks, 2 = 8-byte).
    pub word_u32s: u32,
}

impl BankShape {
    /// Classic 4-byte banks — the shape the paper's proofs address.
    #[must_use]
    pub fn word32(banks: usize) -> Self {
        Self { banks, word_u32s: 1 }
    }

    /// Kepler-style 8-byte banks.
    #[must_use]
    pub fn word64(banks: usize) -> Self {
        Self { banks, word_u32s: 2 }
    }

    /// The shape of a [`Device`](crate::Device).
    #[must_use]
    pub fn of_device(device: &crate::Device) -> Self {
        Self { banks: device.warp_width as usize, word_u32s: device.bank_word_u32s }
    }

    /// The cost model this shape induces.
    ///
    /// # Panics
    /// Panics on a degenerate shape (`banks == 0` or `word_u32s == 0`).
    #[must_use]
    pub fn bank_model(&self) -> BankModel {
        BankModel::with_word(self.banks as u32, self.word_u32s)
    }

    /// Whether this shape is inside the lattice the prover's strategies
    /// cover: a positive bank count within [`MAX_BANKS`] and a 32- or
    /// 64-bit row. Anything else gets a fail-closed refusal.
    #[must_use]
    pub fn supported(&self) -> bool {
        self.banks > 0 && self.banks <= MAX_BANKS && (self.word_u32s == 1 || self.word_u32s == 2)
    }

    /// Short label for certificates and reports (`w=32/b32`, `w=32/b64`).
    #[must_use]
    pub fn label(&self) -> String {
        format!("w={}/b{}", self.banks, 32 * self.word_u32s)
    }
}

json_struct! { BankShape { banks, word_u32s } }

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_json::{FromJson, ToJson};

    #[test]
    fn shape_labels_and_support() {
        assert_eq!(BankShape::word32(32).label(), "w=32/b32");
        assert_eq!(BankShape::word64(32).label(), "w=32/b64");
        assert!(BankShape::word32(32).supported());
        assert!(BankShape::word64(16).supported());
        assert!(!BankShape::word32(0).supported());
        assert!(!BankShape { banks: 32, word_u32s: 4 }.supported());
        assert!(!BankShape::word32(MAX_BANKS + 1).supported());
    }

    #[test]
    fn shape_of_device_tracks_bank_word() {
        let t = BankShape::of_device(&crate::Device::rtx2080ti());
        assert_eq!(t, BankShape::word32(32));
        let k = BankShape::of_device(&crate::Device::kepler_64bit_like());
        assert_eq!(k, BankShape::word64(32));
        assert_eq!(k.bank_model().bank_word_u32s, 2);
    }

    #[test]
    fn shape_json_roundtrip() {
        for s in [BankShape::word32(32), BankShape::word64(12)] {
            assert_eq!(BankShape::from_json(&s.to_json()).unwrap(), s);
        }
    }
}
