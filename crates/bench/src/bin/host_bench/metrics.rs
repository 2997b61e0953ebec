//! The benchmark's metric catalogue. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; a test keeps
//! the two in step.

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A modeled (simulated-time) quantity: a host-only change must leave
    /// it bit-identical, so `--compare` flags any change at all.
    pub exact: bool,
    /// Absolute change below which `--compare` never reports "worse".
    pub floor: f64,
}

const fn timing(name: &'static str, unit: &'static str, higher_is_better: bool) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better, bound: 0.2, exact: false, floor: 0.0 }
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { bound: 0.25, floor: 0.02, ..timing("setup_s", "s", false) },
    timing("keys_per_host_s", "keys/s", true),
    timing("ns_per_key_p50", "ns/key", false),
    timing("ns_per_key_tail", "ns/key", false),
    timing("smem_requests_per_host_s", "req/s", true),
    EndToEnd { bound: 0.1, ..timing("peak_rss_mib", "MiB", false) },
    EndToEnd { bound: 0.1, exact: true, ..timing("modeled_elems_per_us", "keys/us", true) },
];

/// A per-layer metric from the traced run: `(name, unit, higher is
/// better)`. Per-layer metrics carry no regression bound.
pub type PerLayer = (&'static str, &'static str, bool);

pub const PER_LAYER: [PerLayer; 43] = [
    ("banks.round_cost_ns.unit_stride", "ns", false),
    ("banks.round_cost_ns.broadcast", "ns", false),
    ("banks.round_cost_ns.random", "ns", false),
    ("banks.round_cost_ns.same_bank", "ns", false),
    ("banks.round_cost_ns.row64", "ns", false),
    ("block.phase_us.st_512x16", "us", false),
    ("block.new_us.e15_u512", "us", false),
    ("block.smem_requests_per_key", "req/key", false),
    ("block.bank_conflicts_per_key", "conflicts/key", false),
    ("blocksort.us_per_block.serial.worst", "us", false),
    ("blocksort.us_per_block.serial.random", "us", false),
    ("blocksort.us_per_block.gather.worst", "us", false),
    ("blocksort.us_per_block.gather.random", "us", false),
    ("merge_pass.us_per_block.serial.worst", "us", false),
    ("merge_pass.us_per_block.serial.random", "us", false),
    ("merge_pass.us_per_block.gather.worst", "us", false),
    ("merge_pass.us_per_block.gather.random", "us", false),
    ("partition.ns_per_key", "ns/key", false),
    ("pipeline.self_ns_per_key.thrust", "ns/key", false),
    ("pipeline.self_ns_per_key.cf", "ns/key", false),
    ("pipeline.launches_per_op", "launches", false),
    ("recovery.overhead_ratio.thrust", "ratio", false),
    ("recovery.overhead_ratio.cf", "ratio", false),
    ("recovery.retries_per_job", "retries/job", false),
    ("recovery.faults_detected", "faults", true),
    ("verify.checksum_ns_per_key", "ns/key", false),
    ("verify.permutation_ns_per_key", "ns/key", false),
    ("checkpoint.overhead_ratio", "ratio", false),
    ("checkpoint.capture_ns_per_key", "ns/key", false),
    ("checkpoint.validate_ns_per_key", "ns/key", false),
    ("service.self_us_per_job", "us", false),
    ("service.admitted_ratio", "fraction", true),
    ("service.verified_ratio", "fraction", true),
    ("service.breaker_trips", "trips", false),
    ("cluster.self_us_per_job", "us", false),
    ("cluster.migrations", "migrations", true),
    ("cluster.verified_ratio", "fraction", true),
    ("cluster.modeled_p50_s", "s", false),
    ("cluster.modeled_p99_s", "s", false),
    ("cluster.lost_work_s", "s", false),
    ("inputs.worst_case_ns_per_key", "ns/key", false),
    ("inputs.uniform_ns_per_key", "ns/key", false),
    ("trace_overhead_ratio", "ratio", false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}
