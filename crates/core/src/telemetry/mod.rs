//! Deterministic telemetry over *modeled* time.
//!
//! The paper's evaluation leans on profiler counters; this module is the
//! repo's first-class metrics layer on top of them: a
//! [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//! [`LogHistogram`]s, frozen into bit-stable [`MetricsSnapshot`]s that
//! embed in run artifacts, export as Prometheus text exposition, and
//! back the `bench_diff --gate` regression gate (see `docs/TELEMETRY.md`
//! for the metric catalog).
//!
//! Three properties define the design:
//!
//! * **Modeled time only.** Histograms record integer nanoseconds of
//!   simulated time; nothing here reads a wall clock, so snapshots are
//!   reproducible by construction.
//! * **Bit-stable.** Bucket boundaries are fixed integer functions of
//!   the value, snapshots sort metrics by name, and every number
//!   round-trips JSON exactly — two runs with the same seed/config
//!   serialize byte-identically on any platform.
//! * **Per job, not per access.** Nothing records inside the simulated
//!   kernels: simulator metrics derive from the always-on
//!   [`KernelProfile`] after the run, and the resilience services record
//!   a fixed handful of operations per job (about 1 µs of host time
//!   against milliseconds of simulated sort). So the services record
//!   always, with no opt-in switch, and recording never feeds back into
//!   modeled time — it changes no output, kernel sequence, or modeled
//!   second.
//!
//! [`KernelProfile`]: cfmerge_gpu_sim::profiler::KernelProfile

pub mod histogram;
pub mod registry;
pub mod snapshot;

pub use histogram::LogHistogram;
pub use registry::MetricsRegistry;
pub use snapshot::{HistogramSnapshot, MetricSnapshot, MetricValue, MetricsSnapshot};
