//! Failure-lifecycle simulation over a checkpointed training run.
//!
//! The lifecycle walks an `N`-step training horizon on an integer-ns wall
//! clock. Fault-free steps cost the schedule's step latency; every
//! `interval_steps` completed steps a checkpoint becomes durable (paying the
//! plan's spill, if any). A transient failure triggers detection → restart
//! (process respawn + checkpoint restore over the storage link + the
//! trace's restart delay) → rollback to the last durable step → replay of
//! the lost microbatch steps. A permanent device loss either waits for the
//! repair or — when the elastic planner supplied a [`DegradedPlan`] — pays
//! a reshard, runs degraded until the repair lands, and reshards back.
//!
//! Every wall-clock advance is a [`Segment`], so the timeline is gapless:
//! `wall == useful + lost.total()` holds exactly, and lowering the segments
//! to a task graph and simulating it reproduces the
//! analytic wall bit-for-bit ([`engine_check`]).

use optimus_cluster::DurNs;
use optimus_sim::{simulate, Stream, TaskGraph, TaskKind};
use optimus_trace::TraceAnnotation;

use crate::checkpoint::CheckpointPlan;
use crate::elastic::DegradedPlan;
use crate::error::RecoveryError;
use crate::failure::{FailureKind, FailureTrace};

/// What a wall-clock segment was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A fault-free training step (useful work).
    Step,
    /// Re-execution of a step lost to a rollback (including the truncated
    /// partial step at the failure instant).
    Replay,
    /// Checkpoint spill: the shard-write remainder stalling the step.
    Ckpt,
    /// Failure detection latency.
    Detect,
    /// Restart: process respawn + checkpoint restore + restart delay.
    Restart,
    /// Idling until a permanent failure's repair lands (no degraded plan).
    Wait,
    /// Re-sharding model/optimizer state onto the surviving ranks (or back).
    Reshard,
    /// A step run under the degraded configuration (the slowdown relative
    /// to the full configuration is lost time; the rest is useful).
    Degraded,
}

impl SegmentKind {
    /// Stable label (also the lowered task label).
    pub fn label(&self) -> &'static str {
        match self {
            SegmentKind::Step => "step",
            SegmentKind::Replay => "replay",
            SegmentKind::Ckpt => "ckpt",
            SegmentKind::Detect => "detect",
            SegmentKind::Restart => "restart",
            SegmentKind::Wait => "wait",
            SegmentKind::Reshard => "reshard",
            SegmentKind::Degraded => "degraded",
        }
    }
}

/// One contiguous span of the recovery timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// What the span was spent on.
    pub kind: SegmentKind,
    /// Span start (wall ns).
    pub start: i64,
    /// Span end (wall ns).
    pub end: i64,
    /// Human-readable note (step index, failure device, ...).
    pub note: String,
}

/// Where the wall time that was not useful forward progress went, ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LostWork {
    /// Failure detection latency.
    pub detection_ns: i64,
    /// Restart/restore/reshard costs.
    pub restart_ns: i64,
    /// Replayed (re-executed) work, including truncated partial steps.
    pub replay_ns: i64,
    /// Checkpoint spill stalls.
    pub spill_ns: i64,
    /// Idle waiting for repairs.
    pub wait_ns: i64,
    /// Degraded-mode slowdown (degraded step cost minus full step cost).
    pub degraded_ns: i64,
}

impl LostWork {
    /// Total lost wall time.
    pub fn total(&self) -> i64 {
        self.detection_ns
            + self.restart_ns
            + self.replay_ns
            + self.spill_ns
            + self.wait_ns
            + self.degraded_ns
    }
}

/// Recovery-behavior parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryParams {
    /// Failure detection latency (heartbeat/watchdog).
    pub detection: DurNs,
    /// Process respawn + framework re-init overhead, on top of the
    /// checkpoint restore read.
    pub restart_overhead: DurNs,
    /// Elastic degraded-mode plan for permanent losses; `None` means
    /// wait-for-restart.
    pub degraded: Option<DegradedPlan>,
}

impl RecoveryParams {
    /// Millisecond-scale defaults: 2 ms detection, 5 ms restart overhead,
    /// wait-for-restart on device loss.
    pub fn defaults() -> RecoveryParams {
        RecoveryParams {
            detection: DurNs::from_millis(2),
            restart_overhead: DurNs::from_millis(5),
            degraded: None,
        }
    }
}

/// The simulated lifecycle of one checkpointed horizon under a failure
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Steps in the horizon.
    pub horizon_steps: u32,
    /// Full-configuration step latency, ns.
    pub step_ns: i64,
    /// Total wall time, ns.
    pub wall_ns: i64,
    /// Lost-time breakdown; `wall_ns == horizon_steps · step_ns +
    /// lost.total()` exactly.
    pub lost: LostWork,
    /// Failures that fired inside the horizon.
    pub failures_seen: u32,
    /// Per-failure recovery time (failure instant → replay caught up), ns.
    pub recoveries_ns: Vec<i64>,
    /// The gapless timeline.
    pub segments: Vec<Segment>,
    /// Recovery-lifecycle trace events (for the chrome recovery track).
    pub events: Vec<TraceAnnotation>,
}

fn event(label: &str, device: u32, at_ns: i64, detail: String) -> TraceAnnotation {
    TraceAnnotation {
        label: label.to_string(),
        device,
        at_us: at_ns as f64 / 1e3,
        detail,
    }
}

/// Runs the failure lifecycle for `horizon_steps` training steps.
pub fn simulate_lifecycle(
    plan: &CheckpointPlan,
    trace: &FailureTrace,
    params: &RecoveryParams,
    horizon_steps: u32,
) -> Result<RecoveryOutcome, RecoveryError> {
    if horizon_steps == 0 {
        return Err(RecoveryError::Invalid("empty training horizon".into()));
    }
    if let Some(d) = &params.degraded {
        if d.effective_step_ns <= 0 || d.reshard_ns < 0 {
            return Err(RecoveryError::Invalid(format!(
                "degraded plan has non-positive step ({}) or negative reshard ({})",
                d.effective_step_ns, d.reshard_ns
            )));
        }
    }
    let n = horizon_steps;
    let k = plan.interval_steps;
    let step = plan.step_ns;
    let read_ns = plan.write_ns; // restore read: same bytes, same link
    let det = params.detection.0 as i64;
    let overhead = params.restart_overhead.0 as i64;

    let mut wall: i64 = 0;
    let mut progress: u32 = 0; // completed steps (monotone within a replay era)
    let mut committed: u32 = 0; // last durable step
    let mut replay_target: u32 = 0;
    let mut open_failure_at: Option<i64> = None;
    let mut degraded_until: Option<i64> = None;

    let mut lost = LostWork::default();
    let mut segments: Vec<Segment> = Vec::new();
    let mut events: Vec<TraceAnnotation> = Vec::new();
    let mut recoveries: Vec<i64> = Vec::new();
    let mut failures_seen = 0u32;
    let mut fi = 0usize;
    let fails = trace.failures();

    let push_seg =
        |segments: &mut Vec<Segment>, kind: SegmentKind, start: i64, len: i64, note: String| {
            if len > 0 {
                segments.push(Segment {
                    kind,
                    start,
                    end: start + len,
                    note,
                });
            }
        };

    while progress < n {
        // Leave degraded mode at a step boundary once the repair landed.
        if let (Some(t), Some(d)) = (degraded_until, params.degraded.as_ref()) {
            if wall >= t {
                push_seg(
                    &mut segments,
                    SegmentKind::Reshard,
                    wall,
                    d.reshard_ns,
                    "reshard back to full configuration".into(),
                );
                lost.restart_ns += d.reshard_ns;
                wall += d.reshard_ns;
                events.push(event(
                    "degraded_exit",
                    0,
                    wall,
                    format!("repair landed; left {} mode", d.mode.label()),
                ));
                degraded_until = None;
            }
        }
        let in_degraded = degraded_until.is_some();
        let cost = match (&params.degraded, in_degraded) {
            (Some(d), true) => d.effective_step_ns,
            _ => step,
        };

        // A failure fires inside this step?
        if fi < fails.len() && (fails[fi].at.0 as i64) < wall + cost {
            let f = fails[fi];
            fi += 1;
            failures_seen += 1;
            let fat = (f.at.0 as i64).max(wall);
            let partial = fat - wall;
            push_seg(
                &mut segments,
                SegmentKind::Replay,
                wall,
                partial,
                format!("step {} truncated by failure on dev {}", progress, f.device),
            );
            lost.replay_ns += partial;
            wall = fat;
            if open_failure_at.is_none() {
                open_failure_at = Some(fat);
            }
            push_seg(
                &mut segments,
                SegmentKind::Detect,
                wall,
                det,
                format!("detecting loss of dev {}", f.device),
            );
            lost.detection_ns += det;
            wall += det;
            events.push(event(
                "detection",
                f.device,
                wall,
                format!("fail-stop on dev {} detected", f.device),
            ));
            let mut restart_cost = overhead + read_ns;
            match f.kind {
                FailureKind::Transient { restart } => {
                    restart_cost += restart.0 as i64;
                }
                FailureKind::Permanent { repair } => {
                    let repair_at = fat + repair.0 as i64;
                    match (&params.degraded, degraded_until) {
                        (None, _) => {
                            // Wait-for-restart: idle until the replacement.
                            let waited = (repair_at - wall).max(0);
                            push_seg(
                                &mut segments,
                                SegmentKind::Wait,
                                wall,
                                waited,
                                format!("waiting for repair of dev {}", f.device),
                            );
                            lost.wait_ns += waited;
                            wall += waited;
                        }
                        (Some(d), None) => {
                            degraded_until = Some(repair_at.max(wall));
                            events.push(event(
                                "degraded_enter",
                                f.device,
                                wall,
                                format!(
                                    "entering {} mode until repair (+{} ns)",
                                    d.mode.label(),
                                    repair.0
                                ),
                            ));
                            push_seg(
                                &mut segments,
                                SegmentKind::Reshard,
                                wall,
                                d.reshard_ns,
                                format!("reshard onto survivors of dev {} loss", f.device),
                            );
                            lost.restart_ns += d.reshard_ns;
                            wall += d.reshard_ns;
                        }
                        (Some(_), Some(t)) => {
                            // A second loss while already degraded: extend
                            // the repair horizon; state is rebuilt by the
                            // restart below.
                            degraded_until = Some(t.max(repair_at));
                        }
                    }
                }
            }
            push_seg(
                &mut segments,
                SegmentKind::Restart,
                wall,
                restart_cost,
                format!(
                    "respawn + restore {} B/rank from storage",
                    plan.bytes_per_rank
                ),
            );
            lost.restart_ns += restart_cost;
            wall += restart_cost;
            replay_target = replay_target.max(progress);
            progress = committed;
            events.push(event(
                "rollback",
                f.device,
                wall,
                format!("rolled back to durable step {committed}"),
            ));
            if replay_target <= progress {
                // Nothing to replay: the failure hit right on a checkpoint.
                events.push(event(
                    "replay_done",
                    f.device,
                    wall,
                    "0 steps replayed".into(),
                ));
                if let Some(at) = open_failure_at.take() {
                    recoveries.push(wall - at);
                }
            }
            continue;
        }

        // Run one step.
        let replaying = progress < replay_target;
        let kind = if replaying {
            SegmentKind::Replay
        } else if in_degraded {
            SegmentKind::Degraded
        } else {
            SegmentKind::Step
        };
        push_seg(&mut segments, kind, wall, cost, format!("step {progress}"));
        wall += cost;
        progress += 1;
        if replaying {
            lost.replay_ns += cost;
            if progress == replay_target {
                events.push(event(
                    "replay_done",
                    0,
                    wall,
                    format!("caught up to step {replay_target}"),
                ));
                if let Some(at) = open_failure_at.take() {
                    recoveries.push(wall - at);
                }
            }
        } else if in_degraded {
            lost.degraded_ns += (cost - step).max(0);
        }

        // Durable checkpoint at the interval boundary.
        if progress.is_multiple_of(k) && progress > committed {
            push_seg(
                &mut segments,
                SegmentKind::Ckpt,
                wall,
                plan.spill_ns,
                format!("checkpoint spill at step {progress}"),
            );
            lost.spill_ns += plan.spill_ns;
            wall += plan.spill_ns;
            committed = progress;
            events.push(event(
                "checkpoint_durable",
                0,
                wall,
                format!("step {progress} durable ({} B/rank)", plan.bytes_per_rank),
            ));
        }
    }

    debug_assert_eq!(wall, n as i64 * step + lost.total());
    Ok(RecoveryOutcome {
        horizon_steps: n,
        step_ns: step,
        wall_ns: wall,
        lost,
        failures_seen,
        recoveries_ns: recoveries,
        segments,
        events,
    })
}

/// Lowers a recovery timeline to a task graph: one compute task per rank per
/// segment, with a cross-rank barrier between consecutive segments (every
/// lifecycle phase is a global event for a synchronous training job).
pub fn lower_timeline(outcome: &RecoveryOutcome, num_ranks: u32) -> TaskGraph {
    let ranks = num_ranks.max(1);
    let mut g = TaskGraph::new(ranks);
    let mut prev: Vec<optimus_sim::TaskId> = Vec::new();
    for seg in &outcome.segments {
        let dur = DurNs((seg.end - seg.start) as u64);
        let mut cur = Vec::with_capacity(ranks as usize);
        for r in 0..ranks {
            cur.push(g.push(
                seg.kind.label(),
                r,
                Stream::Compute,
                dur,
                TaskKind::Generic,
                prev.clone(),
            ));
        }
        prev = cur;
    }
    g
}

/// Cross-checks the analytic timeline against the simulator:
/// lowers the segments to a barrier task graph, simulates it, and requires
/// the engine's makespan to equal the analytic wall exactly.
pub fn engine_check(outcome: &RecoveryOutcome, num_ranks: u32) -> Result<(), RecoveryError> {
    let g = lower_timeline(outcome, num_ranks);
    let result = simulate(&g).map_err(|e| RecoveryError::Sim(e.to_string()))?;
    let makespan = result.makespan().0 as i64;
    if makespan != outcome.wall_ns {
        return Err(RecoveryError::Sim(format!(
            "engine makespan {makespan} ns disagrees with analytic wall {} ns",
            outcome.wall_ns
        )));
    }
    Ok(())
}

/// Renders the timeline as a fixed-width text table (integer ns only, so
/// the output is bit-exact across platforms — the golden-file format).
pub fn timeline_text(outcome: &RecoveryOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "recovery timeline: {} steps @ {} ns/step\n",
        outcome.horizon_steps, outcome.step_ns
    ));
    out.push_str(&format!(
        "{:>14} {:>14}  {:<9} note\n",
        "start (ns)", "end (ns)", "kind"
    ));
    for seg in &outcome.segments {
        out.push_str(&format!(
            "{:>14} {:>14}  {:<9} {}\n",
            seg.start,
            seg.end,
            seg.kind.label(),
            seg.note
        ));
    }
    out.push_str(&format!(
        "wall {} ns | useful {} ns | lost: detect {} restart {} replay {} spill {} wait {} degraded {}\n",
        outcome.wall_ns,
        outcome.horizon_steps as i64 * outcome.step_ns,
        outcome.lost.detection_ns,
        outcome.lost.restart_ns,
        outcome.lost.replay_ns,
        outcome.lost.spill_ns,
        outcome.lost.wait_ns,
        outcome.lost.degraded_ns,
    ));
    out
}
