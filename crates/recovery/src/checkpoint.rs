//! Checkpoint cost model and bubble-placed snapshot scheduling.
//!
//! A durable checkpoint writes each rank's model states + sharded optimizer
//! states over the cluster's storage link. The write is chunked and — under
//! the [`PlacementPolicy::Bubble`] policy — scheduled into the schedule's
//! *proven-idle* compute bubbles (the same OPT005 claim machinery the
//! encoder inserts are checked against), so most of the write cost hides
//! behind work the step is doing anyway. Whatever does not fit the bubble
//! capacity across one checkpoint interval spills onto the critical path as
//! a per-interval stall. The [`PlacementPolicy::CriticalPath`] baseline
//! spills the entire write.

use optimus_cluster::ClusterTopology;
use optimus_core::OptimusRun;
use optimus_fill::BubbleArbiter;
use optimus_lint::{Analyzer, CheckpointSpec, InsertClaim, InsertSet, LintReport, Severity};
use optimus_modeling::MemoryEstimate;

pub use optimus_fill::storage_time_ns;

use crate::error::RecoveryError;
use crate::lifecycle::LedgerPlan;

/// Where checkpoint shard writes are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Chunk the write into the schedule's proven-idle compute bubbles;
    /// only the remainder spills onto the critical path.
    Bubble,
    /// Fixed-interval baseline: the whole write stalls the step (what a
    /// synchronous `torch.save`-style checkpoint does).
    CriticalPath,
}

impl PlacementPolicy {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::Bubble => "bubble",
            PlacementPolicy::CriticalPath => "critical-path",
        }
    }
}

/// Checkpointing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Steps between durable checkpoints (`> 0`).
    pub interval_steps: u32,
    /// Shard-write placement policy.
    pub policy: PlacementPolicy,
}

impl CheckpointConfig {
    /// Bubble-placed checkpoints every `interval_steps`.
    pub fn bubble(interval_steps: u32) -> CheckpointConfig {
        CheckpointConfig {
            interval_steps,
            policy: PlacementPolicy::Bubble,
        }
    }

    /// Critical-path baseline every `interval_steps`.
    pub fn critical_path(interval_steps: u32) -> CheckpointConfig {
        CheckpointConfig {
            interval_steps,
            policy: PlacementPolicy::CriticalPath,
        }
    }
}

/// A priced, placed checkpoint schedule for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPlan {
    /// Placement policy the plan was built under.
    pub policy: PlacementPolicy,
    /// Steps between durable checkpoints.
    pub interval_steps: u32,
    /// Simulated devices (pipeline stages) in the schedule.
    pub num_ranks: u32,
    /// Snapshot bytes per rank (model states + sharded optimizer states).
    pub bytes_per_rank: u64,
    /// Full shard write (or restore read) time over the storage link, ns.
    pub write_ns: i64,
    /// Fault-free step latency of the underlying schedule, ns.
    pub step_ns: i64,
    /// Critical-path stall per checkpoint interval after bubble hiding, ns.
    pub spill_ns: i64,
    /// Per-device free bubble capacity per step (after existing encoder
    /// claims), ns.
    pub bubble_capacity_ns: Vec<i64>,
    /// The checkpoint shard-write claims (empty for the critical-path
    /// policy), expressed in the OPT005 claim model.
    pub claims: Vec<InsertClaim>,
    /// The combined insert set: the schedule's own encoder claims plus the
    /// checkpoint claims, against the profile's proven-idle intervals.
    pub insert_set: InsertSet,
}

/// Snapshot bytes per rank: resident model states + sharded optimizer
/// states. Activations are recomputed after restore and are not persisted.
pub fn snapshot_bytes(memory: &MemoryEstimate) -> u64 {
    memory.model_states + memory.optimizer
}

/// Prices and places a checkpoint schedule for one Optimus run.
///
/// Shard writes are placed through the shared [`BubbleArbiter`] — the same
/// arbitration path bubble-fill jobs use — so the free capacity a device
/// offers per step is its proven-idle compute bubbles minus every span the
/// schedule already claims there for relocated encoder work, on *any* lane,
/// because a shard write occupies the device's copy/compute engine outright.
pub fn plan_checkpoints(
    run: &OptimusRun,
    llm_plan: optimus_parallel::ParallelPlan,
    topo: &ClusterTopology,
    cfg: &CheckpointConfig,
) -> Result<CheckpointPlan, RecoveryError> {
    if cfg.interval_steps == 0 {
        return Err(RecoveryError::Invalid(
            "checkpoint interval must be >= 1 step".into(),
        ));
    }
    let step_ns = run.outcome.latency;
    if step_ns <= 0 {
        return Err(RecoveryError::Invalid(format!(
            "non-positive step latency {step_ns}"
        )));
    }
    let mut arb = BubbleArbiter::new(run, llm_plan, &[]).map_err(|e| match e {
        optimus_fill::FillError::Plan(msg) => RecoveryError::Plan(msg),
        other => RecoveryError::Plan(other.to_string()),
    })?;

    let bytes = snapshot_bytes(&run.memory);
    let write_ns = storage_time_ns(bytes, &topo.storage);
    let num_ranks = run.profile.devices.len() as u32;
    let caps: Vec<i64> = arb.initial_capacities().to_vec();

    let k = cfg.interval_steps as i64;
    let (spill_ns, claims) = match cfg.policy {
        PlacementPolicy::CriticalPath => (write_ns, Vec::new()),
        PlacementPolicy::Bubble => {
            // Spread the write across the interval's K steps; the slowest
            // device decides the spill.
            let spill = caps
                .iter()
                .map(|&cap| (write_ns - k * cap).max(0))
                .max()
                .unwrap_or(write_ns);
            let per_step_goal = (write_ns + k - 1) / k;
            let mut claims = Vec::new();
            for d in 0..num_ranks {
                for span in arb.take(d, per_step_goal.min(caps[d as usize])) {
                    // A shard write occupies the device outright, so claim
                    // the span on every colocation lane: overlap with any
                    // lane's encoder insert must trip OPT005.
                    for lane in 0..arb.lanes().max(1) {
                        claims.push(InsertClaim {
                            device: d,
                            lane,
                            comm: false,
                            start: span.start,
                            end: span.end,
                            label: format!("ckpt shard dev{d} chunk{}", span.chunk),
                            chain: None,
                        });
                    }
                }
            }
            (spill, claims)
        }
    };

    let mut insert_set = arb.base().clone();
    insert_set.claims.extend(claims.iter().cloned());

    Ok(CheckpointPlan {
        policy: cfg.policy,
        interval_steps: cfg.interval_steps,
        num_ranks,
        bytes_per_rank: bytes,
        write_ns,
        step_ns,
        spill_ns,
        bubble_capacity_ns: caps,
        claims,
        insert_set,
    })
}

impl CheckpointPlan {
    /// Wall time of one fault-free checkpoint interval: `K` steps plus the
    /// spill stall.
    pub fn interval_wall_ns(&self) -> i64 {
        self.interval_steps as i64 * self.step_ns + self.spill_ns
    }

    /// Fault-free wall time for `horizon_steps` steps under this plan.
    pub fn fault_free_wall_ns(&self, horizon_steps: u32) -> i64 {
        LedgerPlan::of(self).fault_free_wall_ns(horizon_steps)
    }

    /// Fraction of the shard write hidden inside bubbles on the worst
    /// device (`1.0` = fully hidden, `0.0` = fully on the critical path).
    pub fn hidden_fraction(&self) -> f64 {
        if self.write_ns == 0 {
            return 1.0;
        }
        (self.write_ns - self.spill_ns) as f64 / self.write_ns as f64
    }

    /// The OPT007 checkpoint-coverage spec for a `horizon_steps` horizon:
    /// durable instants at every interval boundary over the fault-free
    /// timeline, with the interval wall as the tolerated gap.
    pub fn lint_spec(&self, horizon_steps: u32) -> CheckpointSpec {
        let wall = self.fault_free_wall_ns(horizon_steps);
        let mut spec = CheckpointSpec::new(
            format!(
                "{} checkpoints /{} steps",
                self.policy.label(),
                self.interval_steps
            ),
            self.interval_wall_ns(),
            (0, wall),
        );
        for j in 1..=(horizon_steps / self.interval_steps) {
            spec = spec.durable_at(
                j as i64 * self.interval_wall_ns(),
                format!("step {}", j * self.interval_steps),
            );
        }
        spec
    }

    /// Statically validates the placement: the combined encoder + checkpoint
    /// claims must pass OPT005 (containment + per-lane exclusivity) and the
    /// horizon must pass OPT007 coverage. Returns the full report (which may
    /// still carry warnings); error-severity diagnostics fail.
    pub fn verify(&self, horizon_steps: u32) -> Result<LintReport, RecoveryError> {
        let report = Analyzer::new()
            .inserts(self.insert_set.clone())
            .checkpoints(self.lint_spec(horizon_steps))
            .analyze();
        let errors: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| format!("{}: {}", d.code.code(), d.message))
            .collect();
        if errors.is_empty() {
            Ok(report)
        } else {
            Err(RecoveryError::Lint(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::LinkProfile;

    #[test]
    fn storage_time_is_reexported_from_fill() {
        // The cost model itself (and its unit tests) lives in
        // `optimus-fill`; this pins the re-export.
        let link = LinkProfile {
            bandwidth: 1e9,
            latency: 1e-3,
        };
        assert_eq!(storage_time_ns(1_000_000_000, &link), 1_001_000_000);
    }
}
