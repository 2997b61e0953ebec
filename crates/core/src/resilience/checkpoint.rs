//! Versioned checkpoint/resume for multi-pass sorts.
//!
//! A [`SortCheckpoint`] captures the state of a robust sort after a
//! completed, *verified* merge pass: the padded working buffer, the pass
//! index, per-run multiset checksums (see [`crate::verify`]), and the
//! modeled seconds spent so far. `resume_sort_robust`
//! (see [`crate::recovery`]) validates the checkpoint — structural
//! shape, per-run sortedness, and every block checksum — before skipping
//! any work, so a corrupted checkpoint is a typed
//! [`SortError::CheckpointInvalid`], never silent corruption.
//!
//! Serialization is `cfmerge-json`. Because the JSON layer stores
//! numbers as `f64` (exact only up to 2⁵³), all 64-bit checksums and key
//! bit patterns are serialized as `0x`-prefixed hex strings.

use crate::sort::error::SortError;
use crate::sort::key::SortKey;
use crate::verify::{multiset_checksum, without_sentinels};
use cfmerge_json::{FromJson, Json, JsonError, ToJson};

use crate::recovery::RecoveryCounters;

/// Current checkpoint schema version. Bump on any incompatible change;
/// [`SortCheckpoint::validate_as`] rejects other versions.
pub const CHECKPOINT_VERSION: u64 = 1;

/// When (and whether) the robust driver captures checkpoints, and
/// whether it simulates a kill for chaos testing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture a checkpoint after the block sort and after every
    /// completed merge pass.
    pub every_pass: bool,
    /// Simulate a kill: interrupt the run (with
    /// [`SortError::Interrupted`] carrying a checkpoint) once this many
    /// merge passes have completed. `Some(0)` interrupts right after the
    /// block sort. `None` never interrupts.
    pub kill_after_pass: Option<usize>,
}

impl CheckpointPolicy {
    /// Capture after every pass, never kill.
    #[must_use]
    pub fn every_pass() -> Self {
        Self { every_pass: true, kill_after_pass: None }
    }

    /// Simulate a kill after `pass` completed merge passes (0 = right
    /// after the block sort).
    #[must_use]
    pub fn kill_after(pass: usize) -> Self {
        Self { every_pass: false, kill_after_pass: Some(pass) }
    }

    /// `true` when the policy neither captures nor kills — the driver
    /// skips all checkpoint bookkeeping (the zero-cost default).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        !self.every_pass && self.kill_after_pass.is_none()
    }
}

/// Verified mid-sort state: everything `resume_sort_robust` needs to
/// finish the sort without re-executing completed passes.
///
/// Key bit patterns (not typed keys) are stored so the checkpoint type
/// stays non-generic; [`SortCheckpoint::state_keys`] rebuilds typed keys
/// via [`FaultWord::from_fault_bits`](cfmerge_gpu_sim::fault::FaultWord::from_fault_bits).
#[derive(Debug, Clone, PartialEq)]
pub struct SortCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Label of the pipeline that was running (`SortAlgorithm::label`).
    pub algorithm: String,
    /// Elements per thread of the run.
    pub e: usize,
    /// Threads per block of the run.
    pub u: usize,
    /// Unpadded input length.
    pub n: usize,
    /// Padded working-buffer length (`runs · tile`).
    pub n_pad: usize,
    /// Sorted-run width of `state` (tile after the block sort, doubling
    /// each merge pass).
    pub width: usize,
    /// Merge passes completed (0 = only the block sort has run).
    pub completed_passes: usize,
    /// Modeled seconds spent producing this state (retries, backoff, and
    /// spikes included).
    pub seconds_so_far: f64,
    /// Recovery counters accumulated up to the capture point.
    pub counters: RecoveryCounters,
    /// Multiset checksum of the padded input (sentinels included) — the
    /// whole-run invariant every pass must preserve.
    pub input_checksum: u64,
    /// Per-run multiset checksums of `state` (`n_pad / width` runs).
    pub block_checksums: Vec<u64>,
    /// Key bit patterns of the working buffer, length `n_pad`.
    pub state: Vec<u64>,
}

impl SortCheckpoint {
    /// Capture the working buffer after a verified pass.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn capture<K: SortKey>(
        algorithm: &str,
        (e, u): (usize, usize),
        n: usize,
        width: usize,
        completed_passes: usize,
        seconds_so_far: f64,
        counters: RecoveryCounters,
        input_checksum: u64,
        state: &[K],
    ) -> Self {
        let block_checksums = state.chunks(width).map(multiset_checksum).collect::<Vec<u64>>();
        Self {
            version: CHECKPOINT_VERSION,
            algorithm: algorithm.to_string(),
            e,
            u,
            n,
            n_pad: state.len(),
            width,
            completed_passes,
            seconds_so_far,
            counters,
            input_checksum,
            block_checksums,
            state: state.iter().map(|k| k.to_fault_bits()).collect(),
        }
    }

    /// Rebuild the typed working buffer.
    #[must_use]
    pub fn state_keys<K: SortKey>(&self) -> Vec<K> {
        self.state.iter().map(|&bits| K::from_fault_bits(bits)).collect()
    }

    /// The multiset checksum of the *unpadded* input, derived from the
    /// padded checksum by additivity (`padded = input + pad·mix(sentinel)`).
    #[must_use]
    pub fn unpadded_input_checksum<K: SortKey>(&self) -> u64 {
        without_sentinels::<K>(self.input_checksum, self.n_pad - self.n)
    }

    /// Validate the checkpoint for resuming as key type `K`: version,
    /// structural shape (including a padded length and run width the
    /// driver can continue from at the checkpoint's `E·u` tile), every run
    /// sorted under `K`'s order, every block checksum matching, and the
    /// whole state matching `input_checksum`.
    ///
    /// # Errors
    /// [`SortError::CheckpointInvalid`] naming the first violated
    /// invariant.
    pub fn validate_as<K: SortKey>(&self) -> Result<(), SortError> {
        let bad = |reason: String| Err(SortError::CheckpointInvalid { reason });
        if self.version != CHECKPOINT_VERSION {
            return bad(format!(
                "version {} (this build reads {CHECKPOINT_VERSION})",
                self.version
            ));
        }
        if self.state.len() != self.n_pad {
            return bad(format!("state has {} keys, n_pad says {}", self.state.len(), self.n_pad));
        }
        if self.n > self.n_pad || self.n == 0 {
            return bad(format!("n={} out of range for n_pad={}", self.n, self.n_pad));
        }
        // The driver pads to a power-of-two number of tiles and doubles
        // the run width from one tile each pass; any other shape cannot
        // be continued. Checked arithmetic: the fields may be hostile.
        let Some(tile) = self.e.checked_mul(self.u).filter(|&t| t > 0) else {
            return bad(format!("tile E·u = {}·{} is zero or overflows", self.e, self.u));
        };
        let padded =
            self.n.div_ceil(tile).checked_next_power_of_two().and_then(|r| r.checked_mul(tile));
        if padded != Some(self.n_pad) {
            return bad(format!(
                "n_pad {} is not n={} padded to a power-of-two number of {tile}-key tiles",
                self.n_pad, self.n
            ));
        }
        let width = u32::try_from(self.completed_passes)
            .ok()
            .and_then(|p| 1usize.checked_shl(p))
            .and_then(|runs| runs.checked_mul(tile));
        if width != Some(self.width) || self.width > self.n_pad {
            return bad(format!(
                "width {} is not the {tile}-key tile after {} passes within n_pad {}",
                self.width, self.completed_passes, self.n_pad
            ));
        }
        if self.block_checksums.len() != self.n_pad / self.width {
            return bad(format!(
                "{} block checksums for {} runs",
                self.block_checksums.len(),
                self.n_pad / self.width
            ));
        }
        let keys = self.state_keys::<K>();
        let mut whole = 0u64;
        for (run, (chunk, &expect)) in
            keys.chunks(self.width).zip(&self.block_checksums).enumerate()
        {
            if let Some(i) = (1..chunk.len()).find(|&i| chunk[i - 1] > chunk[i]) {
                return bad(format!("run {run} not sorted (inversion at offset {})", i - 1));
            }
            let got = multiset_checksum(chunk);
            if got != expect {
                return bad(format!(
                    "run {run} checksum mismatch (expect {expect:#018x}, got {got:#018x})"
                ));
            }
            whole = whole.wrapping_add(got);
        }
        if whole != self.input_checksum {
            return bad(format!(
                "state checksum {whole:#018x} does not match input checksum {:#018x}",
                self.input_checksum
            ));
        }
        Ok(())
    }
}

fn hex(v: u64) -> Json {
    Json::from(format!("{v:#018x}"))
}

fn from_hex(v: &Json) -> Result<u64, JsonError> {
    let s = v.as_str().ok_or_else(|| JsonError::new("expected hex string"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| JsonError::new(format!("hex string missing 0x prefix: {s:?}")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|e| JsonError::new(format!("bad hex string {s:?}: {e}")))
}

impl ToJson for SortCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(self.version)),
            ("algorithm", Json::from(self.algorithm.as_str())),
            ("e", Json::from(self.e)),
            ("u", Json::from(self.u)),
            ("n", Json::from(self.n)),
            ("n_pad", Json::from(self.n_pad)),
            ("width", Json::from(self.width)),
            ("completed_passes", Json::from(self.completed_passes)),
            ("seconds_so_far", Json::from(self.seconds_so_far)),
            ("counters", self.counters.to_json()),
            ("input_checksum", hex(self.input_checksum)),
            ("block_checksums", Json::arr(self.block_checksums.iter().map(|&c| hex(c)))),
            ("state", Json::arr(self.state.iter().map(|&k| hex(k)))),
        ])
    }
}

impl FromJson for SortCheckpoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let hex_list = |key: &str| -> Result<Vec<u64>, JsonError> {
            v.req(key)?
                .as_arr()
                .ok_or_else(|| JsonError::new(format!("{key} must be an array")))?
                .iter()
                .map(from_hex)
                .collect()
        };
        Ok(Self {
            version: v.field("version")?,
            algorithm: v.field("algorithm")?,
            e: v.field("e")?,
            u: v.field("u")?,
            n: v.field("n")?,
            n_pad: v.field("n_pad")?,
            width: v.field("width")?,
            completed_passes: v.field("completed_passes")?,
            seconds_so_far: v.field("seconds_so_far")?,
            counters: v.field("counters")?,
            input_checksum: from_hex(v.req("input_checksum")?)?,
            block_checksums: hex_list("block_checksums")?,
            state: hex_list("state")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortCheckpoint {
        let state: Vec<u32> = vec![1, 3, 5, 7, 2, 4, 6, 8];
        let input_checksum = multiset_checksum(&state);
        SortCheckpoint::capture::<u32>(
            "cf-merge",
            (1, 4),
            7,
            4,
            0,
            1.5e-5,
            RecoveryCounters::default(),
            input_checksum,
            &state,
        )
    }

    #[test]
    fn capture_validate_roundtrip() {
        let cp = sample();
        assert_eq!(cp.version, CHECKPOINT_VERSION);
        assert_eq!(cp.block_checksums.len(), 2);
        cp.validate_as::<u32>().expect("fresh capture must validate");
        let back = SortCheckpoint::from_json(&cp.to_json()).expect("round trip");
        assert_eq!(back, cp);
        back.validate_as::<u32>().expect("deserialized copy must validate");
    }

    #[test]
    fn corruption_is_detected() {
        let mut cp = sample();
        cp.state[2] ^= 1 << 9;
        assert!(matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })));

        let mut cp = sample();
        cp.state.swap(0, 1); // breaks run sortedness, preserves checksums? no: order only
        assert!(matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })));

        let mut cp = sample();
        cp.version = 99;
        assert!(cp.validate_as::<u32>().is_err());

        let mut cp = sample();
        cp.block_checksums[1] = cp.block_checksums[1].wrapping_add(1);
        assert!(cp.validate_as::<u32>().is_err());
    }

    #[test]
    fn hostile_shape_fields_are_rejected_without_overflow() {
        let mut cp = sample();
        cp.e = usize::MAX;
        cp.u = 2;
        assert!(matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })));

        let mut cp = sample();
        cp.completed_passes = 200;
        assert!(matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })));

        let mut cp = sample();
        cp.completed_passes = 63;
        assert!(matches!(cp.validate_as::<u32>(), Err(SortError::CheckpointInvalid { .. })));
    }

    #[test]
    fn hex_fields_preserve_full_64_bits() {
        // A value above 2^53 — would silently lose precision as an f64
        // JSON number, hence the hex-string representation.
        let big = 0xDEAD_BEEF_CAFE_F00Du64;
        assert_eq!(from_hex(&hex(big)).unwrap(), big);
        assert!(from_hex(&Json::from("deadbeef")).is_err());
        assert!(from_hex(&Json::from(1.0)).is_err());
    }

    #[test]
    fn unpadded_checksum_subtracts_sentinels() {
        let real: Vec<u32> = vec![9, 1, 5];
        let mut padded = real.clone();
        padded.resize(4, u32::MAX);
        let cp = SortCheckpoint::capture::<u32>(
            "thrust",
            (1, 4),
            3,
            4,
            0,
            0.0,
            RecoveryCounters::default(),
            multiset_checksum(&padded),
            &padded,
        );
        assert_eq!(cp.unpadded_input_checksum::<u32>(), multiset_checksum(&real));
    }
}
