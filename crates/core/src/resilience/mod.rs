//! Service-level resilience for the sort service: admission control and
//! load shedding, per-config circuit breakers, a service-wide retry
//! budget, straggler hedging, checkpoint/resume — and, one level up, the
//! multi-device cluster service with deterministic event scheduling,
//! device fault domains, and checkpoint-migration failover.
//!
//! Every mechanism is deterministic and priced in the modeled timing
//! domain — there is no wall-clock anywhere. With everything at its
//! default (off), the service and the robust driver behave bit for bit
//! like they did before this module existed; `docs/ROBUSTNESS.md` has
//! the policy matrix and the cluster architecture.

pub mod admission;
pub mod breaker;
pub mod budget;
pub mod checkpoint;
pub mod cluster;
pub mod faultdomain;
pub mod hedge;
pub mod loadgen;
pub mod scheduler;
pub mod service;

pub use admission::{estimate_sort_seconds, AdmissionConfig, ShedPolicy};
pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, Route};
pub use budget::{RetryBudget, RetryBudgetConfig};
pub use checkpoint::{CheckpointPolicy, SortCheckpoint, CHECKPOINT_VERSION};
pub use cluster::{
    ClusterConfig, ClusterJobId, ClusterOutcome, ClusterReport, ClusterService, DeviceSummary,
    MigrationConfig, TenantSlo,
};
pub use faultdomain::{
    DeviceFaultEvent, DeviceFaultKind, DeviceFaultPlan, DeviceFaultSpec, DeviceTimeline,
};
pub use hedge::{HedgeConfig, HedgeCounters};
pub use loadgen::{ClusterRequest, LoadGenConfig, Priority, TrafficShape};
pub use scheduler::{Event, EventQueue};
pub use service::{
    aggregate_counters, JobId, JobOutcome, Payload, ResilienceConfig, ServiceCounters, SortJob,
    SortService,
};
