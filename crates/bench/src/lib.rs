//! # cfmerge-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the
//! index), built on three shared pieces:
//!
//! * [`sweep`] — throughput sweeps over `n = 2^i·E` for
//!   (algorithm × input × parameter set), the data behind Figures 5–6.
//! * [`render`] — ASCII renderings of the paper's access-pattern figures
//!   (1, 2, 3, 4, 7, 8), generated from the actual index math rather than
//!   drawn by hand.
//! * [`report`] — table formatting re-exports.
//! * [`artifact`] — machine-readable [`artifact::RunArtifact`] JSON every
//!   binary writes next to its text output, plus the diff/summary helpers
//!   behind the `bench_diff` binary.
//! * [`gate`] — the exact-match perf-regression gate behind
//!   `bench_diff --gate` (pinned artifact vs fresh regeneration).
//! * [`telemetry_report`] — the deterministic telemetry-showcase run
//!   behind the `metrics_report` binary and its golden test.
//! * [`trajectory`] — the host-time trajectory check behind
//!   `bench_diff --host` (`BENCH_host.json` against the benchmark's
//!   bounds).
//!
//! Binaries: `fig5`, `fig6`, `figures` (1/2/3/4/7/8), `theorem8`,
//! `random_conflicts`, `noncoprime_penalty`, `occupancy_table`,
//! `speedup_summary`, `ablation`, `sort_landscape`, `scan_table`,
//! `calibrate`, plus the observability set `bench_diff` (artifact →
//! speedup table, perf gate), `trace_fig5` (Perfetto trace dump), and
//! `metrics_report` (metrics JSON + Prometheus + flamegraph export).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod gate;
pub mod render;
pub mod sweep;
pub mod telemetry_report;
pub mod trajectory;

/// Table-formatting helpers (re-exported from the core crate so binaries
/// have one import).
pub mod report {
    pub use cfmerge_core::metrics::{format_table, speedup_summary, SpeedupSummary};
}
