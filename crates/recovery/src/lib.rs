//! Checkpoint/restart recovery engine with bubble-placed snapshots and
//! elastic degraded-mode goodput.
//!
//! Long multi-modal training jobs fail; what matters is how much of the
//! wall clock remains *useful* training. This crate closes that loop on top
//! of the Optimus scheduling stack:
//!
//! 1. **Checkpoint cost model + bubble placement** ([`checkpoint`]) —
//!    snapshot bytes per rank come from the planner's memory estimate, the
//!    write cost from the cluster's storage link, and the shard writes are
//!    scheduled into the schedule's *proven-idle* bubbles using the same
//!    OPT005 claim machinery the encoder inserts are verified with. What
//!    does not fit spills onto the critical path; a fixed-interval
//!    critical-path policy is the baseline.
//! 2. **Failure lifecycle** ([`failure`], [`lifecycle`]) — deterministic
//!    multi-failure traces (seeded, or derived from
//!    [`optimus_faults::FaultModel`] scenarios) drive one integer-ns
//!    lifecycle walk: detection, restart, checkpoint restore, rollback,
//!    replay. It jumps between events, so the ledger alone costs
//!    `O(failures · log steps)`; the per-step timeline is recorded only on
//!    request.
//! 3. **Elastic degraded modes** ([`elastic`]) — on a permanent device
//!    loss, shrink-DP and drop-a-pipeline-replica configurations are priced
//!    by re-running the Optimus planner on the shrunken cluster, and the
//!    minimum-expected-downtime option wins over naive waiting.
//! 4. **Goodput** ([`goodput`]) — useful work over wall time, a lost-work
//!    breakdown that sums exactly to the wall clock, and recovery-time
//!    percentiles; reports render bit-exactly for golden tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod elastic;
pub mod error;
pub mod failure;
pub mod goodput;
pub mod lifecycle;

pub use checkpoint::{
    plan_checkpoints, snapshot_bytes, storage_time_ns, CheckpointConfig, CheckpointPlan,
    PlacementPolicy,
};
pub use elastic::{
    choose_option, plan_elastic, reshard_time_ns, DegradedMode, DegradedPlan, ElasticDecision,
    ElasticOption,
};
pub use error::RecoveryError;
pub use failure::{
    ClassedFailure, ClassedTrace, ComponentSpec, Failure, FailureKind, FailureTrace,
    FailureTraceConfig, Hazard,
};
pub use goodput::{goodput_ratio, GoodputReport};
pub use lifecycle::{
    lifecycle_ledger, simulate_lifecycle, timeline_text, LedgerPlan, LostWork, RecoveryOutcome,
    RecoveryParams, Segment, SegmentKind,
};
