//! Pinned modeled-output fingerprints. A host-only change must leave
//! every modeled number bit-identical; the fingerprint of a workload's
//! first rep (FNV-1a-64 over each op's modeled output) is pinned for
//! seeds 1 and 2 in `fingerprints.json`, and a mismatch fails every op of
//! the workload. `host_bench --bless` rewrites the file after an
//! intended model change.

use crate::workload::{setup, Fnv, Scale, Workload};
use cfmerge_json::Json;

const PINNED: &str = include_str!("fingerprints.json");

/// Seeds whose fingerprints are pinned.
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// Where `--bless` writes, relative to the repository root.
pub const PINNED_PATH: &str = "crates/bench/src/bin/host_bench/fingerprints.json";

/// The pinned full-scale fingerprint of `workload` at `seed`, if any.
pub fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    let doc = Json::parse(PINNED).expect("fingerprints.json is valid JSON");
    let hex = doc.get("fingerprints")?.get(workload.name())?.get(&seed.to_string())?.as_str()?;
    Some(u64::from_str_radix(hex, 16).expect("pinned fingerprints are hex"))
}

pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Fingerprint of one rep's op fingerprints, in op order.
pub fn combine(ops: &[u64]) -> u64 {
    let mut h = Fnv::default();
    ops.iter().for_each(|&x| h.u64(x));
    h.0
}

/// Recompute every workload's first-rep fingerprint at the pinned seeds
/// and write the file. Fails if any op of those reps fails its checks.
pub fn bless() -> Result<(), String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut seeds = Vec::new();
        for seed in PINNED_SEEDS {
            let p = setup(w, Scale::Full, seed);
            let mut rep = p.new_rep();
            let mut ops = Vec::new();
            for i in 0..p.ops_per_rep() {
                let r = p.run_op(&mut rep, i);
                if let Some(why) = r.failure {
                    return Err(format!("{} seed {seed} op {i}: {why}", w.name()));
                }
                ops.push(r.fingerprint);
            }
            let fp = combine(&ops);
            println!("{:<18} seed {seed}: {}", w.name(), hex(fp));
            seeds.push((seed.to_string(), Json::from(hex(fp))));
        }
        workloads.push((w.name(), Json::obj(seeds)));
    }
    let doc = Json::obj([
        ("schema", Json::from(1u64)),
        ("scale", Json::from("full")),
        ("fingerprints", Json::obj(workloads)),
    ]);
    std::fs::write(PINNED_PATH, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {PINNED_PATH} (run from the repository root): {e}"))
}
