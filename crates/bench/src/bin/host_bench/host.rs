//! The host descriptor stamped into every result file, and peak-RSS
//! bookkeeping. Everything here is read-only best effort: a missing
//! source yields `"unknown"`, never an error.

use cfmerge_json::Json;
use std::fs;

/// Threads the benchmark runs on: the vendored rayon shim is sequential,
/// so every `par_*` call in the simulator runs on the calling thread.
pub const THREADS_USED: usize = 1;

pub fn descriptor(seed: u64, seconds: f64, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu_model())),
        ("caches", Json::obj(cache_sizes().into_iter().map(|(k, v)| (k, Json::from(v))))),
        ("threads_used", Json::from(THREADS_USED)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(if smoke { "smoke" } else { "full" })),
        ("git_head", Json::from(git_head())),
        ("build_profile", Json::from(if cfg!(debug_assertions) { "debug" } else { "release" })),
    ])
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Data and unified cache sizes of CPU 0, keyed `L1d`, `L2`, `L3`.
fn cache_sizes() -> Vec<(String, String)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |idx: usize, f: &str| {
        fs::read_to_string(format!("{base}/index{idx}/{f}")).ok().map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for idx in 0..8 {
        let (Some(level), Some(kind), Some(size)) =
            (read(idx, "level"), read(idx, "type"), read(idx, "size"))
        else {
            continue;
        };
        match kind.as_str() {
            "Data" => out.push((format!("L{level}d"), size)),
            "Unified" => out.push((format!("L{level}"), size)),
            _ => {}
        }
    }
    out
}

/// The commit checked out in the current directory, read from `.git`
/// directly (no subprocess). `"unknown"` outside a git checkout.
fn git_head() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, r)| *r == reference).map(|(sha, _)| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The unit scaled host times are expressed in: what the full-size
/// reference sort takes on an unloaded core of a 2-vCPU Intel Xeon host.
const REFERENCE_NOMINAL_S: f64 = 1.0e-3;

/// Keys the full-size reference sorts: 256 KiB, about 1 ms of work, short
/// enough to run between every two timed intervals.
pub const REFERENCE_KEYS: usize = 1 << 16;

/// A fixed computation timed between every two timed intervals (set-ups
/// and ops): `std`'s unstable sort of seeded keys, code this repository
/// does not own, so a change to the simulator cannot move it. On a shared
/// host the core's speed changes within seconds, by up to half when
/// another tenant loads it, and the reference's time tracks that. Each
/// interval is scaled by [`scale`] of the samples just before and just
/// after it, which measures it in units of the speed the host had while
/// it ran.
pub struct SpeedReference {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    times: Vec<f64>,
}

impl SpeedReference {
    /// A reference sorting `len` keys ([`REFERENCE_KEYS`] except in smoke
    /// runs, whose scaled numbers mean nothing).
    pub fn new(len: usize) -> Self {
        let keys = cfmerge_core::inputs::InputSpec::UniformRandom { seed: 0x5EED }.generate(len);
        Self { scratch: keys.clone(), keys, times: Vec::new() }
    }

    /// Time the reference once and return its seconds.
    pub fn sample(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.keys);
        let t = std::time::Instant::now();
        self.scratch.sort_unstable();
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&self.scratch);
        self.times.push(s);
        s
    }

    /// A summary of the samples taken.
    pub fn finish(self) -> ReferenceTimes {
        ReferenceTimes { median_s: crate::stats::median(&self.times), samples: self.times.len() }
    }
}

/// Factor turning the host time of an interval into a scaled one, from
/// the reference samples taken just before and just after it.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_NOMINAL_S / (before_s + after_s)
}

/// What a finished [`SpeedReference`] measured.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceTimes {
    pub median_s: f64,
    pub samples: usize,
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
