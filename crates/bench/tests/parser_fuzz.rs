//! Seeded mutation fuzzing of every document the system reads back in.
//!
//! A checkpoint captured from a small sort, the pinned tuning table, the
//! pinned certificate table and two pinned run artifacts are mutated (bytes deleted, inserted or
//! flipped, JSON tokens spliced in, the text truncated) and each mutant is
//! fed through `Json::parse` and the type's `from_json`, and a checkpoint
//! through `validate_as` as well. Every call must return `Ok` or `Err`:
//! a panic on a malformed file is a bug. The seeds are fixed, so a failure
//! names a mutant (its index under its document's seed) that reproduces.

use cfmerge_bench::artifact::RunArtifact;
use cfmerge_core::cert::CertificateTable;
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::{simulate_sort_robust_checkpointed, RobustConfig};
use cfmerge_core::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use cfmerge_core::sort::{SortAlgorithm, SortConfig, SortError};
use cfmerge_core::tuning::TuningTable;
use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::{FromJson, Json, ToJson};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::AssertUnwindSafe;

/// Mutants per document.
const MUTANTS: usize = 1000;

/// Tokens spliced in whole: the values a `from_json` must range-check.
const TOKENS: [&str; 16] = [
    "-1",
    "0",
    "1e400",
    "-1e400",
    "1e308",
    "0.5",
    "18446744073709551616",
    "9007199254740993",
    "null",
    "true",
    "\"\"",
    "\"0x\"",
    "\"0xffffffffffffffffff\"",
    "[]",
    "{}",
    "\"\\u",
];

/// Apply one to three seeded edits to `doc`.
fn mutate(doc: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..5) {
            0 => {
                let end = (at + rng.gen_range(1..=16usize)).min(out.len());
                out.drain(at..end);
            }
            1 => {
                let syntax = b"{}[]\",:-.0123456789eE\\ ";
                let byte = if rng.gen_bool(0.5) {
                    syntax[rng.gen_range(0..syntax.len())]
                } else {
                    rng.gen()
                };
                out.insert(at, byte);
            }
            2 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())].bytes();
                out.splice(at..at, token);
            }
            3 => out.truncate(at),
            _ => {
                if let Some(byte) = out.get_mut(at) {
                    *byte ^= 1u8 << rng.gen_range(0..8u32);
                }
            }
        }
    }
    out
}

/// Feed `MUTANTS` mutants of `doc` to `Json::parse` and then `read`,
/// returning how many parsed and how many `read` accepted.
fn fuzz(what: &str, doc: &str, seed: u64, read: impl Fn(&Json) -> bool) -> (usize, usize) {
    let parsed = Json::parse(doc).unwrap_or_else(|e| panic!("{what}: the seed document: {e}"));
    assert!(read(&parsed), "{what}: the unmutated document must be accepted");
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut parses, mut accepted) = (0, 0);
    for i in 0..MUTANTS {
        let mutant = mutate(doc.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&mutant);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Json::parse(&text).ok().map(|json| read(&json))
        }));
        match outcome {
            Ok(Some(ok)) => {
                parses += 1;
                accepted += usize::from(ok);
            }
            Ok(None) => {}
            Err(_) => panic!("{what}: mutant {i} of seed {seed} panicked"),
        }
    }
    (parses, accepted)
}

fn pinned(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A checkpoint of a ragged four-tile sort, taken after its first merge
/// pass.
fn checkpoint() -> SortCheckpoint {
    let rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)));
    let keys = InputSpec::UniformRandom { seed: 3 }.generate(3 * 160 + 7);
    match simulate_sort_robust_checkpointed(
        &keys,
        SortAlgorithm::CfMerge,
        &rcfg,
        &FaultPlan::none(),
        CheckpointPolicy::kill_after(1),
    ) {
        Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
        other => panic!("expected an interrupted sort, got {other:?}"),
    }
}

#[test]
fn mutated_checkpoints_are_rejected_without_panicking() {
    let doc = checkpoint().to_json().to_string_pretty();
    let (parses, accepted) = fuzz("checkpoint", &doc, 1, |json| {
        SortCheckpoint::from_json(json).is_ok_and(|cp| cp.validate_as::<u32>().is_ok())
    });
    assert!(parses > 0 && accepted < parses, "{parses} parsed, {accepted} accepted");
}

#[test]
fn mutated_tuning_tables_are_rejected_without_panicking() {
    let (parses, accepted) = fuzz("tuning.json", &pinned("tuning.json"), 2, |json| {
        TuningTable::from_json(json).is_ok_and(|table| table.verify().is_ok())
    });
    assert!(parses > 0 && accepted < parses, "{parses} parsed, {accepted} accepted");
}

#[test]
fn mutated_certificate_tables_are_rejected_without_panicking() {
    let (parses, accepted) = fuzz("certificates.json", &pinned("certificates.json"), 5, |json| {
        CertificateTable::from_json(json).is_ok_and(|table| {
            // What the gate reads off a table it loaded.
            let _ = (table.failures(), table.verdict_counts(), table.strategy_counts());
            true
        })
    });
    assert!(parses > 0 && accepted < parses, "{parses} parsed, {accepted} accepted");
}

#[test]
fn mutated_run_artifacts_are_rejected_without_panicking() {
    // fig5.json carries throughput series; resilience.json carries
    // robust runs with kernel profiles, recovery reports and telemetry.
    for (seed, name) in [(3, "fig5.json"), (4, "resilience.json")] {
        let (parses, _) =
            fuzz(name, &pinned(name), seed, |json| RunArtifact::from_json(json).is_ok());
        assert!(parses > 0, "{name}: no mutant parsed");
    }
}
