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
//! One walk implements this state machine, in jumps: between two events
//! (the next failure, the replay catch-up, the degraded-mode repair
//! landing, the end of the horizon) every step costs the same and
//! checkpoints fire at fixed multiples of the interval, so the wall after
//! `j` more steps is `wall + j·cost + ckpts(j)·spill`. That function is
//! piecewise linear, one spill per period of `k` steps after the first
//! boundary, so how many steps fit before the next event has a closed form
//! (`max_steps_within`), and the whole stretch is booked in O(1). The
//! ledger alone ([`lifecycle_ledger`]) therefore costs `O(failures)`, which
//! is what month-long fleet horizons need. [`simulate_lifecycle`] runs the
//! same walk and also records the gapless [`Segment`] timeline and the
//! recovery trace events, expanding each stretch step by step.
//!
//! Either way `wall == useful + lost.total()` holds exactly
//! ([`RecoveryOutcome::audit`]).

use optimus_cluster::DurNs;
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
    /// wait-for-restart. Its step may not be shorter than the full step.
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

/// The four numbers of a checkpoint plan the lifecycle consumes. Everything
/// else on [`CheckpointPlan`] (claims, insert sets, byte counts) prices or
/// verifies the placement; the ledger only needs the step cost, the restore
/// read, and the per-interval spill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerPlan {
    /// Steps between durable checkpoints (`> 0`).
    pub interval_steps: u32,
    /// Fault-free step latency, ns (`> 0`).
    pub step_ns: i64,
    /// Full shard write — and restore read — time, ns (`>= 0`).
    pub write_ns: i64,
    /// Critical-path stall per checkpoint interval, ns (`>= 0`; zero when
    /// the write is fully bubble-hidden).
    pub spill_ns: i64,
}

impl LedgerPlan {
    /// Extracts the ledger view of a priced checkpoint plan.
    pub fn of(plan: &CheckpointPlan) -> LedgerPlan {
        LedgerPlan {
            interval_steps: plan.interval_steps,
            step_ns: plan.step_ns,
            write_ns: plan.write_ns,
            spill_ns: plan.spill_ns,
        }
    }

    /// Rejects degenerate plans.
    pub fn validate(&self) -> Result<(), RecoveryError> {
        let invalid = |msg: String| Err(RecoveryError::Invalid(msg));
        if self.interval_steps == 0 {
            return invalid("checkpoint interval must be >= 1 step".into());
        }
        if self.step_ns <= 0 {
            return invalid(format!("non-positive step latency {}", self.step_ns));
        }
        if self.write_ns < 0 || self.spill_ns < 0 {
            return invalid(format!(
                "negative write ({}) or spill ({})",
                self.write_ns, self.spill_ns
            ));
        }
        if self.spill_ns > self.write_ns {
            return invalid(format!(
                "spill {} exceeds the full write {}",
                self.spill_ns, self.write_ns
            ));
        }
        Ok(())
    }

    /// Fault-free wall time for `horizon_steps` steps.
    pub fn fault_free_wall_ns(&self, horizon_steps: u32) -> i64 {
        horizon_steps as i64 * self.step_ns
            + (horizon_steps / self.interval_steps) as i64 * self.spill_ns
    }
}

/// The simulated lifecycle of one checkpointed horizon under a failure
/// trace: the exact ledger, plus the timeline when one was recorded.
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
    /// Per-failure recovery time (failure instant → replay caught up), ns,
    /// in event order.
    pub recoveries_ns: Vec<i64>,
    /// The gapless timeline (empty from [`lifecycle_ledger`]).
    pub segments: Vec<Segment>,
    /// Recovery-lifecycle trace events for the chrome recovery track (empty
    /// from [`lifecycle_ledger`]).
    pub events: Vec<TraceAnnotation>,
}

impl RecoveryOutcome {
    /// Useful work: `horizon_steps · step_ns`.
    pub fn useful_ns(&self) -> i64 {
        self.horizon_steps as i64 * self.step_ns
    }

    /// Checks the exactness invariant `wall == useful + lost.total()`. A
    /// violation is a ledger bug, so Monte Carlo audits every replica.
    pub fn audit(&self) -> Result<(), RecoveryError> {
        let expect = self.useful_ns() + self.lost.total();
        if self.wall_ns != expect {
            return Err(RecoveryError::Audit(format!(
                "wall {} ns != useful {} + lost {} = {} ns",
                self.wall_ns,
                self.useful_ns(),
                self.lost.total(),
                expect
            )));
        }
        Ok(())
    }
}

/// The timeline a walk records on request.
struct Timeline {
    /// Snapshot bytes per rank, for the restore and durability notes.
    bytes_per_rank: u64,
    segments: Vec<Segment>,
    events: Vec<TraceAnnotation>,
}

impl Timeline {
    /// Appends a segment; empty spans leave no segment.
    fn seg(&mut self, kind: SegmentKind, start: i64, len: i64, note: String) {
        if len > 0 {
            self.segments.push(Segment {
                kind,
                start,
                end: start + len,
                note,
            });
        }
    }

    fn event(&mut self, label: &str, device: u32, at_ns: i64, detail: String) {
        self.events.push(TraceAnnotation {
            label: label.to_string(),
            device,
            at_us: at_ns as f64 / 1e3,
            detail,
        });
    }
}

/// Runs the failure lifecycle for `horizon_steps` training steps and
/// records its timeline: every segment, one per step, and the recovery
/// trace events.
pub fn simulate_lifecycle(
    plan: &CheckpointPlan,
    trace: &FailureTrace,
    params: &RecoveryParams,
    horizon_steps: u32,
) -> Result<RecoveryOutcome, RecoveryError> {
    let timeline = Timeline {
        bytes_per_rank: plan.bytes_per_rank,
        segments: Vec::new(),
        events: Vec::new(),
    };
    walk(
        &LedgerPlan::of(plan),
        trace,
        params,
        horizon_steps,
        Some(timeline),
    )
}

/// Runs the failure lifecycle for `horizon_steps` training steps in
/// `O(failures)`: the ledger of [`simulate_lifecycle`], with
/// no segments or events.
pub fn lifecycle_ledger(
    plan: &LedgerPlan,
    trace: &FailureTrace,
    params: &RecoveryParams,
    horizon_steps: u32,
) -> Result<RecoveryOutcome, RecoveryError> {
    walk(plan, trace, params, horizon_steps, None)
}

/// The lifecycle state machine, advanced in jumps between events.
fn walk(
    plan: &LedgerPlan,
    trace: &FailureTrace,
    params: &RecoveryParams,
    horizon_steps: u32,
    mut rec: Option<Timeline>,
) -> Result<RecoveryOutcome, RecoveryError> {
    plan.validate()?;
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
        // A degraded step shorter than the full one would book negative
        // degraded excess, which the ledger cannot balance.
        if d.effective_step_ns < plan.step_ns {
            return Err(RecoveryError::Invalid(format!(
                "degraded step {} ns is faster than the full step {} ns",
                d.effective_step_ns, plan.step_ns
            )));
        }
    }
    let n = horizon_steps;
    let k = plan.interval_steps;
    let step = plan.step_ns;
    let spill = plan.spill_ns;
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
    let mut recoveries: Vec<i64> = Vec::new();
    let mut failures_seen = 0u32;
    let mut fi = 0usize;
    let fails = trace.failures();

    // Checkpoints paid while stepping `j` times from progress `p0`. At
    // every loop top `committed == (p0 / k) · k` (a checkpoint commits at
    // each crossed multiple of `k`, and rollback lands exactly on one), so
    // the boundaries crossed are the multiples of `k` in `(p0, p0 + j]`.
    let ckpts = |p0: u32, j: u64| -> i64 {
        ((u64::from(p0) + j) / u64::from(k) - u64::from(p0) / u64::from(k)) as i64
    };

    while progress < n {
        // Leave degraded mode at a step boundary once the repair landed.
        if let (Some(t), Some(d)) = (degraded_until, params.degraded.as_ref()) {
            if wall >= t {
                if let Some(tl) = rec.as_mut() {
                    let note = "reshard back to full configuration".into();
                    tl.seg(SegmentKind::Reshard, wall, d.reshard_ns, note);
                    let detail = format!("repair landed; left {} mode", d.mode.label());
                    tl.event("degraded_exit", 0, wall + d.reshard_ns, detail);
                }
                lost.restart_ns += d.reshard_ns;
                wall += d.reshard_ns;
                degraded_until = None;
            }
        }
        let in_degraded = degraded_until.is_some();
        let cost = match (&params.degraded, in_degraded) {
            (Some(d), true) => d.effective_step_ns,
            _ => step,
        };

        // A failure fires inside the very next step: truncate it, detect,
        // wait or reshard, restart, and roll back to the last durable step.
        if fi < fails.len() && (fails[fi].at.0 as i64) < wall + cost {
            let f = fails[fi];
            fi += 1;
            failures_seen += 1;
            let fat = (f.at.0 as i64).max(wall);
            let partial = fat - wall; // the truncated step is replayed work
            open_failure_at.get_or_insert(fat);
            let detected = fat + det;
            let mut restart_cost = overhead + read_ns;
            let (mut waited, mut entered) = (0, None);
            match f.kind {
                FailureKind::Transient { restart } => restart_cost += restart.0 as i64,
                FailureKind::Permanent { repair } => {
                    let repair_at = fat + repair.0 as i64;
                    match (&params.degraded, degraded_until) {
                        // Wait-for-restart: idle until the replacement.
                        (None, _) => waited = (repair_at - detected).max(0),
                        (Some(d), None) => {
                            degraded_until = Some(repair_at.max(detected));
                            entered = Some((d, repair));
                        }
                        // A second loss while already degraded: extend the
                        // repair horizon; state is rebuilt by the restart.
                        (Some(_), Some(t)) => degraded_until = Some(t.max(repair_at)),
                    }
                }
            }
            let reshard = entered.map_or(0, |(d, _)| d.reshard_ns);
            let restart_at = detected + waited + reshard;
            lost.replay_ns += partial;
            lost.detection_ns += det;
            lost.wait_ns += waited;
            lost.restart_ns += reshard + restart_cost;
            replay_target = replay_target.max(progress);
            let truncated = progress;
            progress = committed;
            let wall0 = wall;
            wall = restart_at + restart_cost;
            // Nothing to replay: the failure hit right on a checkpoint.
            let caught_up = replay_target <= progress;
            if caught_up {
                if let Some(at) = open_failure_at.take() {
                    recoveries.push(wall - at);
                }
            }

            if let Some(tl) = rec.as_mut() {
                let dev = f.device;
                let note = format!("step {truncated} truncated by failure on dev {dev}");
                tl.seg(SegmentKind::Replay, wall0, partial, note);
                let note = format!("detecting loss of dev {dev}");
                tl.seg(SegmentKind::Detect, fat, det, note);
                let detail = format!("fail-stop on dev {dev} detected");
                tl.event("detection", dev, detected, detail);
                let note = format!("waiting for repair of dev {dev}");
                tl.seg(SegmentKind::Wait, detected, waited, note);
                if let Some((d, repair)) = entered {
                    let label = d.mode.label();
                    let detail = format!("entering {label} mode until repair (+{} ns)", repair.0);
                    tl.event("degraded_enter", dev, detected, detail);
                    let note = format!("reshard onto survivors of dev {dev} loss");
                    tl.seg(SegmentKind::Reshard, detected, reshard, note);
                }
                let bytes = tl.bytes_per_rank;
                let note = format!("respawn + restore {bytes} B/rank from storage");
                tl.seg(SegmentKind::Restart, restart_at, restart_cost, note);
                let detail = format!("rolled back to durable step {committed}");
                tl.event("rollback", dev, wall, detail);
                if caught_up {
                    tl.event("replay_done", dev, wall, "0 steps replayed".into());
                }
            }
            continue;
        }

        // Jump: run as many steps as fit before the next event. `w(j)` is
        // the wall at the loop top after `j` more steps; every cap is the
        // closed-form inverse of `w` (`max_steps_within`).
        let p0 = progress;
        let w = |j: u64| -> i64 { wall + j as i64 * cost + ckpts(p0, j) * spill };
        let within = |budget: i64| -> u64 {
            max_steps_within(i128::from(budget) - i128::from(wall), cost, spill, k, p0)
        };
        let mut s: u64 = u64::from(n - p0);
        let replaying = p0 < replay_target;
        if replaying {
            // The replay→step transition (and the recovery close) happens
            // at the catch-up boundary.
            s = s.min(u64::from(replay_target - p0));
        }
        if let Some(t) = degraded_until {
            // The loop-top reshard-back fires at the first step boundary
            // with `wall >= t`, i.e. one past the last `j` with
            // `w(j) <= t - 1`; the check above guarantees `w(0) < t`.
            s = s.min(within(t - 1).saturating_add(1));
        }
        if fi < fails.len() {
            // Step `j` (1-based) is failure-free iff `w(j-1) + cost <= at`;
            // the loop-top check guarantees step 1 is safe.
            let at = fails[fi].at.0 as i64;
            s = s.min(within(at - cost).saturating_add(1));
        }

        if let Some(tl) = rec.as_mut() {
            // The stretch, step by step: each step's segment, the replay
            // catch-up after its last step, and a spill plus durable event
            // after every step that completes an interval.
            let kind = if replaying {
                SegmentKind::Replay
            } else if in_degraded {
                SegmentKind::Degraded
            } else {
                SegmentKind::Step
            };
            let mut at = wall;
            for done in p0 + 1..=p0 + s as u32 {
                tl.seg(kind, at, cost, format!("step {}", done - 1));
                at += cost;
                if replaying && done == replay_target {
                    let detail = format!("caught up to step {replay_target}");
                    tl.event("replay_done", 0, at, detail);
                }
                if done.is_multiple_of(k) {
                    let note = format!("checkpoint spill at step {done}");
                    tl.seg(SegmentKind::Ckpt, at, spill, note);
                    at += spill;
                    let bytes = tl.bytes_per_rank;
                    let detail = format!("step {done} durable ({bytes} B/rank)");
                    tl.event("checkpoint_durable", 0, at, detail);
                }
            }
        }

        // Book the whole stretch in O(1) — per-step ledger constants times
        // the jump length, spills by the boundary count.
        if replaying {
            lost.replay_ns += s as i64 * cost;
            if u64::from(p0) + s == u64::from(replay_target) {
                // The recovery closes after the catch-up step's cost but
                // before that step's own spill.
                if let Some(at) = open_failure_at.take() {
                    recoveries.push(wall + s as i64 * cost + ckpts(p0, s - 1) * spill - at);
                }
            }
        } else if in_degraded {
            lost.degraded_ns += s as i64 * (cost - step).max(0);
        }
        lost.spill_ns += ckpts(p0, s) * spill;
        wall = w(s);
        progress = p0 + s as u32;
        committed = (progress / k) * k;
    }

    debug_assert_eq!(wall, n as i64 * step + lost.total());
    let (segments, events) = rec.map(|t| (t.segments, t.events)).unwrap_or_default();
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

/// The largest `m >= 0` with `m·cost + ckpts(p0, m)·spill <= d`, where
/// `ckpts(p0, m)` counts the multiples of `k` in `(p0, p0 + m]`: how many
/// steps fit in a wall budget `d >= 0` from progress `p0`.
///
/// That wall is piecewise linear in `m`. The first `b = k − p0 mod k` steps
/// reach the next checkpoint, and after it every period of `k` steps costs
/// `k·cost + spill`. So if the budget runs out before the first checkpoint's
/// spill is paid, the answer is `min(b − 1, d / cost)`. Otherwise it is `b`
/// plus `q` whole periods plus `min(k − 1, r / cost)` steps of the next one,
/// where `q` periods fit in `d − b·cost − spill` and `r` is the remainder.
/// The arithmetic is `i128`; the result saturates at `u64::MAX`.
fn max_steps_within(d: i128, cost: i64, spill: i64, k: u32, p0: u32) -> u64 {
    debug_assert!(d >= 0 && cost > 0 && spill >= 0 && k > 0);
    let (cost, spill, k) = (i128::from(cost), i128::from(spill), i128::from(k));
    let b = k - i128::from(p0) % k;
    let m = if d < b * cost + spill {
        (b - 1).min(d / cost)
    } else {
        let e = d - b * cost - spill;
        let period = k * cost + spill;
        let (q, r) = (e / period, e % period);
        b + q * k + (k - 1).min(r / cost)
    };
    u64::try_from(m).unwrap_or(u64::MAX)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{FailureTraceConfig, Hazard};
    use optimus_detrand::{rngs::StdRng, RngExt, SeedableRng};

    /// `m·cost + ckpts(p0, m)·spill`, the wall a stretch of `m` steps adds.
    fn stretch(m: u64, cost: i64, spill: i64, k: u32, p0: u32) -> i128 {
        let ckpts = (u64::from(p0) + m) / u64::from(k) - u64::from(p0) / u64::from(k);
        i128::from(m) * i128::from(cost) + i128::from(ckpts) * i128::from(spill)
    }

    /// The definition [`max_steps_within`] replaced: a binary search for
    /// the largest `m` whose stretch fits in `d` (`m <= d / cost` bounds
    /// it, as every step costs at least `cost`).
    fn max_steps_within_oracle(d: i128, cost: i64, spill: i64, k: u32, p0: u32) -> u64 {
        let bound = (d / i128::from(cost)).min(i128::from(u64::MAX / 2));
        let (mut lo, mut hi) = (0u64, bound as u64);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if stretch(mid, cost, spill, k, p0) <= d {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    #[test]
    fn closed_form_cap_matches_the_binary_search() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CA95);
        let mut cases = 0;
        for round in 0..4_000u32 {
            // Small values, a month-scale plan, and values near i64::MAX / 4.
            let scale: i64 = match round % 3 {
                0 => 50,
                1 => 1_000_000_000,
                _ => i64::MAX / 4,
            };
            let k = match round % 4 {
                0 => 1,
                1 => rng.random_range(2..=8u32),
                _ => rng.random_range(1..=300u32),
            };
            let step = rng.random_range(1..=scale as u64) as i64;
            // A degraded step above the full one on every other round.
            let cost = if round % 2 == 0 {
                step
            } else {
                step + rng.random_range(1..=scale as u64) as i64
            };
            let write = rng.random_range(0..=scale as u64) as i64 * 3;
            let spill = if rng.random_range(0..2u32) == 0 {
                0
            } else {
                write
            };
            // Progress on a checkpoint boundary or off it.
            let p0 = if round % 5 == 0 {
                rng.random_range(0..1_000u32) * k
            } else {
                rng.random_range(0..1_000_000u32)
            };
            let b = u64::from(k - p0 % k);
            let m = rng.random_range(0..=3 * u64::from(k) + 5);
            let exact = stretch(m, cost, spill, k, p0);
            let budgets = [
                0,
                exact,                              // exactly w(m)
                exact + 1,                          // just past it
                (exact - 1).max(0),                 // just short of it
                stretch(b, cost, spill, k, p0) - 1, // below w(b)
                i128::from(rng.random_range(0..=scale as u64)) * 40,
            ];
            for d in budgets {
                let want = max_steps_within_oracle(d, cost, spill, k, p0);
                let got = max_steps_within(d, cost, spill, k, p0);
                assert_eq!(got, want, "d {d} cost {cost} spill {spill} k {k} p0 {p0}");
                cases += 1;
            }
        }
        assert_eq!(cases, 24_000);
        // The failure and degraded-exit caps are the closed form plus one:
        // the largest `s` whose steps all finish by `at`, and the first
        // boundary whose wall reaches `t`, checked by linear scan.
        for (cost, spill, k, p0) in [(3, 0, 1, 0), (3, 5, 4, 2), (7, 7, 3, 3), (2, 9, 5, 11)] {
            for budget in 0..80i64 {
                let s = max_steps_within(i128::from(budget), cost, spill, k, p0) + 1;
                let w = |j: u64| stretch(j, cost, spill, k, p0) as i64;
                // Failure at `at = budget + cost`: step `j` is safe iff
                // `w(j - 1) + cost <= at`.
                let at = budget + cost;
                let safe = (1..200u64).take_while(|&j| w(j - 1) + cost <= at).count() as u64;
                assert_eq!(s, safe, "failure cap at {at}");
                // Repair at `t = budget + 1`: exit after the first step
                // whose wall reaches `t`.
                let t = budget + 1;
                let exit = (1..200u64).find(|&j| w(j) >= t).expect("exit");
                assert_eq!(s, exit, "exit cap at {t}");
            }
        }
    }

    #[test]
    fn rejects_degenerate_plans_and_horizons() {
        let good = LedgerPlan {
            interval_steps: 2,
            step_ns: 10,
            write_ns: 5,
            spill_ns: 5,
        };
        let trace = FailureTrace::new(Vec::new()).expect("trace");
        let params = RecoveryParams::defaults();
        assert!(lifecycle_ledger(&good, &trace, &params, 0).is_err());
        for bad in [
            LedgerPlan {
                interval_steps: 0,
                ..good
            },
            LedgerPlan { step_ns: 0, ..good },
            LedgerPlan {
                spill_ns: 6,
                ..good
            },
            LedgerPlan {
                write_ns: -1,
                spill_ns: -1,
                ..good
            },
        ] {
            assert!(
                lifecycle_ledger(&bad, &trace, &params, 10).is_err(),
                "{bad:?} accepted"
            );
        }
        // A degraded step shorter than the full one cannot balance.
        let degraded = |effective_step_ns| RecoveryParams {
            degraded: Some(DegradedPlan {
                mode: crate::elastic::DegradedMode::ShrinkDp,
                effective_step_ns,
                reshard_ns: 0,
            }),
            ..params.clone()
        };
        assert!(matches!(
            lifecycle_ledger(&good, &trace, &degraded(9), 10),
            Err(RecoveryError::Invalid(_))
        ));
        let equal = lifecycle_ledger(&good, &trace, &degraded(10), 10).expect("equal step");
        equal.audit().expect("audit");
    }

    #[test]
    fn month_long_horizon_runs_in_jumps_not_steps() {
        // 2.6M steps, a few hundred failures: a timeline would hold
        // millions of segments; the ledger books it near-instantly and
        // still balances exactly.
        let p = LedgerPlan {
            interval_steps: 30,
            step_ns: 1_000_000_000,
            write_ns: 12_000_000_000,
            spill_ns: 0,
        };
        let trace = FailureTrace::generate(&FailureTraceConfig {
            seed: 9,
            horizon_ns: 6_000_000_000_000_000,
            mtbf_ns: 20_000_000_000_000,
            num_devices: 512,
            restart: DurNs(2_000_000_000),
            repair: DurNs(600_000_000_000),
            permanent_every: 10,
            hazard: Hazard::Exponential,
        })
        .expect("trace");
        assert!(trace.len() > 100);
        let out =
            lifecycle_ledger(&p, &trace, &RecoveryParams::defaults(), 2_592_000).expect("ledger");
        out.audit().expect("audit");
        assert!(out.failures_seen > 100);
        assert!(out.segments.is_empty() && out.events.is_empty());
        let goodput = crate::goodput_ratio(out.useful_ns(), out.wall_ns);
        assert!(goodput > 0.5 && goodput < 1.0);
    }
}
