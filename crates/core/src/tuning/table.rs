//! The versioned, checksummed tuning-table artifact and its ladders.

use cfmerge_json::{json_struct, FromJson, Json, JsonError, ToJson};

use crate::params::SortParams;
use crate::sort::SortError;

/// Version of the `results/tuning.json` schema. Bump on any change to
/// the record layout — the service fails closed on a mismatch.
pub const TUNING_SCHEMA_VERSION: u32 = 1;

/// Which certification tier a rung sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungTier {
    /// Every certifiable shared-memory phase is conflict-free up to the
    /// paper's writeback bound (worst certified degree ≤ 2).
    Certified,
    /// Every phase carries a *certified finite* degree bound, but some
    /// bound exceeds the conflict-free tier; jobs routed here come back
    /// with an explicit `degraded` marker.
    Degraded,
}

impl RungTier {
    /// Stable label used in artifacts.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RungTier::Certified => "certified",
            RungTier::Degraded => "degraded",
        }
    }
}

impl ToJson for RungTier {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl FromJson for RungTier {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        [RungTier::Certified, RungTier::Degraded]
            .into_iter()
            .find(|tier| v.as_str() == Some(tier.label()))
            .ok_or_else(|| JsonError::new(format!("unknown rung tier {v}")))
    }
}

/// One rung of a degradation ladder: a launch configuration the
/// certificates allow, ranked by modeled cost within its tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningRung {
    /// Position on the ladder (0 = best; ties impossible, ranks dense).
    pub rank: usize,
    /// Elements per thread.
    pub e: usize,
    /// Threads per block.
    pub u: usize,
    /// Certification tier.
    pub tier: RungTier,
    /// The worst certified conflict degree across the config's
    /// certifiable phases (1 = fully conflict-free, 2 = the paper's
    /// writeback bound).
    pub worst_degree: u32,
    /// Theoretical occupancy fraction on the ladder's device.
    pub occupancy: f64,
    /// Deterministic modeled cost of a [`TUNING_REF_N`]-key sort at this
    /// rung (see [`modeled_cost_s`]); the ladder's sort key.
    ///
    /// [`TUNING_REF_N`]: crate::tuning::TUNING_REF_N
    /// [`modeled_cost_s`]: crate::tuning::modeled_cost_s
    pub modeled_cost_s: f64,
}

impl TuningRung {
    /// The rung's launch parameters.
    #[must_use]
    pub fn params(&self) -> SortParams {
        SortParams::new(self.e, self.u)
    }
}

json_struct! { TuningRung { rank, e, u, tier, worst_degree, occupancy, modeled_cost_s } }

/// A configuration the tuner refused to put on the ladder, and why —
/// the fail-closed side of the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcludedConfig {
    /// Elements per thread.
    pub e: usize,
    /// Threads per block.
    pub u: usize,
    /// Human-readable exclusion reason (uncertifiable phase, certificate
    /// failure, or unlaunchable resources).
    pub reason: String,
}

json_struct! { ExcludedConfig { e, u, reason } }

/// The per-(device profile, pipeline) degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningLadder {
    /// Short profile name (`rtx2080ti`, `a100_like`, …).
    pub profile: String,
    /// The device's marketing name — services match on this, so a
    /// ladder can never be applied to a different device by accident.
    pub device: String,
    /// Pipeline label (`cf-merge`, `thrust`).
    pub algo: String,
    /// Eligible rungs, best first: the certified tier ordered by modeled
    /// cost, then the degraded tier ordered by modeled cost.
    pub rungs: Vec<TuningRung>,
    /// Configurations that must never run, with reasons.
    pub excluded: Vec<ExcludedConfig>,
}

impl TuningLadder {
    /// The rung whose launch parameters are exactly `params`.
    #[must_use]
    pub fn rung_for(&self, params: SortParams) -> Option<&TuningRung> {
        self.rungs.iter().find(|r| r.e == params.e && r.u == params.u)
    }

    /// Count of rungs in `tier`.
    #[must_use]
    pub fn tier_count(&self, tier: RungTier) -> usize {
        self.rungs.iter().filter(|r| r.tier == tier).count()
    }
}

json_struct! { TuningLadder { profile, device, algo, rungs, excluded } }

/// One pinned validation scenario replayed by the `tune` bin against a
/// freshly built table (ladder step-down under a tripped breaker;
/// canary rollback). The event log is deterministic, so the pinned
/// artifact gates it bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationScenario {
    /// Scenario name.
    pub name: String,
    /// Whether every assertion held.
    pub pass: bool,
    /// Deterministic job-by-job event log.
    pub events: Vec<String>,
}

json_struct! { ValidationScenario { name, pass, events } }

/// The versioned, checksummed tuning artifact (`results/tuning.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTable {
    /// [`TUNING_SCHEMA_VERSION`] at build time.
    pub schema: u32,
    /// The certificate-table schema the ladders were derived from.
    pub cert_schema: u32,
    /// FNV-1a 64 over the canonical JSON of `ladders`; services refuse
    /// a table whose checksum does not match its contents.
    pub checksum: String,
    /// One ladder per (device profile, pipeline).
    pub ladders: Vec<TuningLadder>,
    /// Pinned validation scenarios recorded by the `tune` bin (not
    /// covered by the checksum — they are evidence about the ladders,
    /// not part of them).
    pub validation: Vec<ValidationScenario>,
}

/// FNV-1a 64-bit over a string: the table checksum and the cluster's
/// tenant → home-device shard (offline, dependency-free).
pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl TuningTable {
    /// The checksum `ladders` should carry: FNV-1a 64 of their canonical
    /// pretty-printed JSON, rendered as `fnv1a64:<16 hex digits>`.
    #[must_use]
    pub fn compute_checksum(ladders: &[TuningLadder]) -> String {
        let canonical = Json::arr(ladders.iter().map(ToJson::to_json)).to_string_pretty();
        format!("fnv1a64:{:016x}", fnv1a64(&canonical))
    }

    /// Fail-closed integrity check: schema versions must match this
    /// build and the checksum must match the ladders.
    ///
    /// # Errors
    /// A human-readable reason the table must not be used.
    pub fn verify(&self) -> Result<(), String> {
        if self.schema != TUNING_SCHEMA_VERSION {
            return Err(format!(
                "tuning table schema v{} does not match this build's v{TUNING_SCHEMA_VERSION}",
                self.schema
            ));
        }
        let want = Self::compute_checksum(&self.ladders);
        if self.checksum != want {
            return Err(format!(
                "tuning table checksum mismatch: header says {}, ladders hash to {want}",
                self.checksum
            ));
        }
        Ok(())
    }

    /// [`TuningTable::verify`] as the services' one fail-closed install
    /// check: a table that fails it is refused with
    /// [`SortError::Uncertified`] for every pipeline (`algo` `"*"`),
    /// reported against `device`.
    pub(crate) fn verified_for(self, device: &str) -> Result<Self, SortError> {
        match self.verify() {
            Ok(()) => Ok(self),
            Err(why) => Err(SortError::Uncertified {
                algo: "*".to_string(),
                device: device.to_string(),
                why,
            }),
        }
    }

    /// The ladder for a device (by marketing name) and pipeline label.
    #[must_use]
    pub fn ladder_for(&self, device_name: &str, algo: &str) -> Option<&TuningLadder> {
        self.ladders.iter().find(|l| l.device == device_name && l.algo == algo)
    }
}

json_struct! {
    TuningTable {
        schema, cert_schema, checksum, ladders,
        // Omitted when empty so a service-built table round-trips to the
        // same bytes whether or not it was ever validated.
        validation ?= Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> TuningTable {
        let ladders = vec![TuningLadder {
            profile: "rtx2080ti".into(),
            device: "dev".into(),
            algo: "cf-merge".into(),
            rungs: vec![
                TuningRung {
                    rank: 0,
                    e: 15,
                    u: 512,
                    tier: RungTier::Certified,
                    worst_degree: 2,
                    occupancy: 1.0,
                    modeled_cost_s: 1e-3,
                },
                TuningRung {
                    rank: 1,
                    e: 16,
                    u: 256,
                    tier: RungTier::Degraded,
                    worst_degree: 16,
                    occupancy: 0.75,
                    modeled_cost_s: 2e-3,
                },
            ],
            excluded: vec![ExcludedConfig { e: 3, u: 96, reason: "uncertifiable".into() }],
        }];
        let checksum = TuningTable::compute_checksum(&ladders);
        TuningTable {
            schema: TUNING_SCHEMA_VERSION,
            cert_schema: 1,
            checksum,
            ladders,
            validation: Vec::new(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let t = small_table();
        let back = TuningTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_json().to_string_pretty(), t.to_json().to_string_pretty());
    }

    #[test]
    fn verify_accepts_good_and_rejects_tampered() {
        let t = small_table();
        assert!(t.verify().is_ok());

        let mut bad_schema = t.clone();
        bad_schema.schema += 1;
        assert!(bad_schema.verify().unwrap_err().contains("schema"));

        let mut tampered = t.clone();
        tampered.ladders[0].rungs[0].worst_degree = 1;
        assert!(tampered.verify().unwrap_err().contains("checksum"));
    }

    #[test]
    fn validation_block_is_outside_the_checksum_and_omitted_when_empty() {
        let mut t = small_table();
        assert!(!t.to_json().to_string_pretty().contains("validation"));
        t.validation.push(ValidationScenario {
            name: "x".into(),
            pass: true,
            events: vec!["e".into()],
        });
        assert!(t.verify().is_ok(), "validation must not invalidate the checksum");
        let back = TuningTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn out_of_range_schema_fails_to_load() {
        // 2^32 + 1 truncates to schema 1, which `verify` would accept: the
        // checksum covers only the ladders.
        let mut json = small_table().to_json();
        let Json::Obj(pairs) = &mut json else { unreachable!() };
        pairs[0] = ("schema".into(), Json::Num(4_294_967_297.0));
        let e = TuningTable::from_json(&json).unwrap_err();
        assert_eq!(e.message, r#"in key "schema": 4294967297 is out of range for u32"#);
    }

    #[test]
    fn unknown_rung_tier_fails_to_load() {
        let e = RungTier::from_json(&Json::from("gold")).unwrap_err();
        assert_eq!(e.message, r#"unknown rung tier "gold""#);
    }

    #[test]
    fn ladder_lookup_by_params_and_tier_counts() {
        let t = small_table();
        let l = t.ladder_for("dev", "cf-merge").unwrap();
        assert_eq!(l.rung_for(SortParams::e15_u512()).unwrap().rank, 0);
        assert!(l.rung_for(SortParams::e17_u256()).is_none());
        assert_eq!(l.tier_count(RungTier::Certified), 1);
        assert_eq!(l.tier_count(RungTier::Degraded), 1);
        assert!(t.ladder_for("other", "cf-merge").is_none());
    }
}
