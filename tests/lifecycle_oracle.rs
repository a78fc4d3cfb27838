//! Differential test of the failure-lifecycle walk against reference
//! oracles.
//!
//! The oracles below are the original stepwise lifecycle (one loop
//! iteration per training step, every wall-clock advance pushed as a
//! segment) and the original barrier-graph cross-check (the segments
//! lowered to one compute task per rank with a cross-rank barrier between
//! consecutive segments, simulated, and the makespan required to equal the
//! analytic wall), kept verbatim.
//!
//! Every input must produce an equal [`RecoveryOutcome`] — segments with
//! their notes, trace events, recovery times, the lost-work ledger, wall
//! clock and failure count — the ledger-only walk must produce the same
//! ledger with no timeline, and the barrier-graph check must accept the
//! recorded timeline. Inputs: generated transient, permanent-wait and
//! permanent-degraded traces; checkpoint-boundary edge cases; spill 0 and
//! spill equal to the write; empty traces, a failure at time 0, failures
//! past the horizon and a one-step horizon; the real checkpoint plans of the
//! recovery, fleet and chaos integration tests; and the four outcomes of
//! the `recovery_goodput` study.

use std::path::PathBuf;
use std::sync::OnceLock;

use optimus::baselines::common::SystemContext;
use optimus::chaos::{ChaosFixture, ChaosHarness, ChaosSettings, FailureSpec, Perturbation};
use optimus::cluster::{DurNs, LinkProfile, TimeNs};
use optimus::core::{run_optimus, OptimusConfig, OptimusRun};
use optimus::fleet::FleetScenario;
use optimus::lint::InsertSet;
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::recovery::{
    lifecycle_ledger, plan_checkpoints, plan_elastic, simulate_lifecycle, CheckpointConfig,
    CheckpointPlan, DegradedMode, DegradedPlan, Failure, FailureKind, FailureTrace,
    FailureTraceConfig, Hazard, LedgerPlan, PlacementPolicy, RecoveryOutcome, RecoveryParams,
};

/// The reference implementations.
mod oracle {
    use optimus::cluster::DurNs;
    use optimus::recovery::{
        CheckpointPlan, FailureKind, FailureTrace, LostWork, RecoveryError, RecoveryOutcome,
        RecoveryParams, Segment, SegmentKind,
    };
    use optimus::sim::{simulate, Stream, TaskGraph, TaskKind};
    use optimus::trace::TraceAnnotation;

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
        let mut prev: Vec<optimus::sim::TaskId> = Vec::new();
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
    pub fn engine_check(outcome: &RecoveryOutcome, num_ranks: u32) -> Result<(), String> {
        let g = lower_timeline(outcome, num_ranks);
        let result = simulate(&g).map_err(|e| e.to_string())?;
        let makespan = result.makespan().0 as i64;
        if makespan != outcome.wall_ns {
            return Err(format!(
                "engine makespan {makespan} ns disagrees with analytic wall {} ns",
                outcome.wall_ns
            ));
        }
        Ok(())
    }
}

/// Runs the oracle and the walk on one input and requires equal outcomes,
/// an equal ledger from the ledger-only walk, and a timeline the barrier
/// graph accepts. Returns the outcome for input-coverage assertions.
fn check(
    plan: &CheckpointPlan,
    trace: &FailureTrace,
    params: &RecoveryParams,
    horizon: u32,
    what: &str,
) -> RecoveryOutcome {
    let want = oracle::simulate_lifecycle(plan, trace, params, horizon).expect("oracle");
    let got = simulate_lifecycle(plan, trace, params, horizon).expect("walk");
    assert_eq!(got.segments, want.segments, "{what}: segments");
    assert_eq!(got.events, want.events, "{what}: events");
    assert_eq!(got.recoveries_ns, want.recoveries_ns, "{what}: recoveries");
    assert_eq!(got.lost, want.lost, "{what}: lost ledger");
    assert_eq!(got.wall_ns, want.wall_ns, "{what}: wall");
    assert_eq!(got.failures_seen, want.failures_seen, "{what}: failures");
    assert_eq!(got, want, "{what}: outcome");
    let ledger = lifecycle_ledger(&LedgerPlan::of(plan), trace, params, horizon).expect("ledger");
    ledger.audit().expect("ledger balances");
    assert_eq!(
        ledger,
        RecoveryOutcome {
            segments: Vec::new(),
            events: Vec::new(),
            ..want.clone()
        },
        "{what}: ledger-only walk"
    );
    oracle::engine_check(&got, plan.num_ranks).unwrap_or_else(|e| panic!("{what}: {e}"));
    got
}

/// A checkpoint plan literal; the claims and insert set only matter to
/// placement lint, not the lifecycle.
fn plan(k: u32, step: i64, write: i64, spill: i64) -> CheckpointPlan {
    CheckpointPlan {
        policy: PlacementPolicy::Bubble,
        interval_steps: k,
        num_ranks: 4,
        bytes_per_rank: 1 << 20,
        write_ns: write,
        step_ns: step,
        spill_ns: spill,
        bubble_capacity_ns: vec![write / k as i64; 4],
        claims: Vec::new(),
        insert_set: InsertSet::default(),
    }
}

fn at(ns: u64, kind: FailureKind) -> Failure {
    Failure {
        at: TimeNs(ns),
        device: 0,
        kind,
    }
}

fn transient(ns: u64) -> Failure {
    at(ns, FailureKind::Transient { restart: DurNs(10) })
}

fn permanent(ns: u64, repair: u64) -> Failure {
    at(
        ns,
        FailureKind::Permanent {
            repair: DurNs(repair),
        },
    )
}

fn trace(failures: Vec<Failure>) -> FailureTrace {
    FailureTrace::new(failures).expect("trace")
}

/// Detection and restart overhead on the scale of the synthetic plans'
/// steps (the defaults' milliseconds dwarf a microsecond step), waiting for
/// repairs.
fn quick() -> RecoveryParams {
    RecoveryParams {
        detection: DurNs(100),
        restart_overhead: DurNs(200),
        degraded: None,
    }
}

/// `base` with a shrink-DP degraded plan.
fn degraded(base: RecoveryParams, effective_step_ns: i64, reshard_ns: i64) -> RecoveryParams {
    RecoveryParams {
        degraded: Some(DegradedPlan {
            mode: DegradedMode::ShrinkDp,
            effective_step_ns,
            reshard_ns,
        }),
        ..base
    }
}

#[test]
fn fault_free_horizons_match_oracle() {
    for (k, spill) in [(1u32, 0i64), (3, 0), (4, 700), (7, 1), (5, 5_000)] {
        let p = plan(k, 1_000, 5_000, spill);
        for horizon in [1u32, 2, 7, 97] {
            let out = check(
                &p,
                &trace(Vec::new()),
                &RecoveryParams::defaults(),
                horizon,
                &format!("fault-free k={k} spill={spill} horizon={horizon}"),
            );
            assert_eq!(out.wall_ns, p.fault_free_wall_ns(horizon));
        }
    }
}

#[test]
fn generated_transient_and_permanent_wait_traces_match_oracle() {
    for (seed, params) in [1u64, 7, 2026]
        .into_iter()
        .flat_map(|seed| [(seed, RecoveryParams::defaults()), (seed, quick())])
    {
        for permanent_every in [0u32, 3] {
            for (k, spill) in [(4u32, 0i64), (4, 900), (6, 250), (6, 30_000)] {
                let p = plan(k, 10_000, 30_000, spill);
                let horizon: u32 = 400;
                let horizon_ns = p.fault_free_wall_ns(horizon) * 2;
                let t = FailureTrace::generate(&FailureTraceConfig {
                    seed,
                    horizon_ns: horizon_ns as u64,
                    mtbf_ns: (horizon_ns / 9) as u64,
                    num_devices: 4,
                    restart: DurNs(20_000),
                    repair: DurNs(200_000),
                    permanent_every,
                    hazard: Hazard::Exponential,
                })
                .expect("trace");
                assert!(t.len() >= 4, "want a multi-failure trace");
                let out = check(
                    &p,
                    &t,
                    &params,
                    horizon,
                    &format!("seed={seed} perm={permanent_every} k={k} spill={spill}"),
                );
                assert!(out.failures_seen >= 2);
            }
        }
    }
}

#[test]
fn generated_permanent_degraded_traces_match_oracle() {
    // Permanent losses with an elastic plan: enter degraded, extend it on a
    // second loss, leave it at a step boundary; transient faults inside and
    // outside the degraded window.
    let p = plan(5, 10_000, 40_000, 1_500);
    for (effective, reshard, base) in [
        (13_000i64, 7_000i64, RecoveryParams::defaults()),
        (13_000, 7_000, quick()),
        (13_000, 0, quick()),
    ] {
        let params = degraded(base, effective, reshard);
        for seed in [3u64, 11, 42] {
            let horizon: u32 = 300;
            let horizon_ns = 3 * 300 * 10_000i64;
            let t = FailureTrace::generate(&FailureTraceConfig {
                seed,
                horizon_ns: horizon_ns as u64,
                mtbf_ns: (horizon_ns / 8) as u64,
                num_devices: 4,
                restart: DurNs(15_000),
                repair: DurNs(450_000),
                permanent_every: 2,
                hazard: Hazard::Exponential,
            })
            .expect("trace");
            let out = check(
                &p,
                &t,
                &params,
                horizon,
                &format!("degraded step={effective} reshard={reshard} seed={seed}"),
            );
            assert!(out.events.iter().any(|e| e.label == "degraded_exit"));
        }
    }
}

#[test]
fn checkpoint_boundary_cases_match_oracle() {
    // Step 1000 ns, checkpoint every 4 steps with a 500 ns spill: the first
    // checkpoint is durable at wall 4500.
    let p = plan(4, 1_000, 3_000, 500);
    let cases: Vec<(&str, Vec<Failure>)> = vec![
        (
            "the ledger unit test's mix",
            vec![
                transient(4_500),
                transient(12_000),
                transient(12_100),
                permanent(20_000, 900),
            ],
        ),
        ("on a durable instant", vec![transient(4_500)]),
        ("inside a spill", vec![transient(4_200)]),
        ("on a step boundary", vec![transient(2_000)]),
        (
            "two inside one step",
            vec![transient(6_100), transient(6_200)],
        ),
        (
            "a second during recovery",
            vec![transient(6_100), transient(7_000)],
        ),
        (
            "two at the same instant",
            vec![
                transient(6_100),
                Failure {
                    device: 3,
                    ..transient(6_100)
                },
            ],
        ),
        (
            "a repair that lands during detection",
            vec![permanent(9_000, 50)],
        ),
    ];
    for (what, failures) in cases {
        check(&p, &trace(failures.clone()), &quick(), 40, what);
        check(&p, &trace(failures), &RecoveryParams::defaults(), 40, what);
    }
}

#[test]
fn degraded_boundary_cases_match_oracle() {
    let p = plan(4, 1_000, 3_000, 500);
    let params = degraded(quick(), 1_300, 700);
    let cases: Vec<(&str, Vec<Failure>)> = vec![
        (
            "a second loss while degraded extends the repair",
            vec![permanent(6_100, 20_000), permanent(12_000, 40_000)],
        ),
        (
            "a second loss while degraded inside the first repair",
            vec![permanent(6_100, 40_000), permanent(12_000, 1_000)],
        ),
        (
            "a transient fault while degraded",
            vec![permanent(6_100, 20_000), transient(15_000)],
        ),
        (
            "a loss soon after the degraded exit",
            vec![permanent(6_100, 8_000), permanent(30_000, 5_000)],
        ),
        ("a loss on a durable instant", vec![permanent(4_500, 9_000)]),
        (
            "a repair that lands during the reshard",
            vec![permanent(6_100, 250)],
        ),
        // The loss at 6100 truncates step 5; the restart ends at 10100,
        // the replay of step 4 at 11400, and degraded steps then end at
        // 12700, 14000 and (with the step-8 spill) 15800.
        (
            "a repair that lands exactly on a step boundary",
            vec![permanent(6_100, 7_900)],
        ),
        (
            "a repair that lands exactly after a spill",
            vec![permanent(6_100, 9_700)],
        ),
    ];
    let mut degraded_steps = 0;
    for (what, failures) in cases {
        let out = check(&p, &trace(failures), &params, 60, what);
        degraded_steps += out
            .segments
            .iter()
            .filter(|s| s.kind.label() == "degraded")
            .count();
    }
    assert!(degraded_steps > 20, "want real degraded stretches");
}

#[test]
fn spill_extremes_match_oracle() {
    // Spill 0 emits `checkpoint_durable` events but no `ckpt` segments;
    // spill == write stalls every checkpoint by the whole write.
    let faults = || {
        trace(vec![
            transient(4_000),
            permanent(9_300, 2_000),
            transient(21_000),
        ])
    };
    for (spill, params) in [
        (0i64, quick()),
        (3_000, quick()),
        (0, degraded(quick(), 1_500, 400)),
        (3_000, degraded(quick(), 1_500, 400)),
    ] {
        let p = plan(3, 1_000, 3_000, spill);
        let out = check(&p, &faults(), &params, 30, &format!("spill={spill}"));
        let durable = out
            .events
            .iter()
            .filter(|e| e.label == "checkpoint_durable")
            .count();
        let ckpt_segs = out
            .segments
            .iter()
            .filter(|s| s.kind.label() == "ckpt")
            .count();
        assert!(durable > 0);
        assert_eq!(ckpt_segs, if spill == 0 { 0 } else { durable });
    }
}

#[test]
fn degenerate_traces_and_horizons_match_oracle() {
    let p = plan(4, 1_000, 3_000, 500);
    let params = quick();
    let cases: Vec<(&str, Vec<Failure>, u32)> = vec![
        ("empty trace", Vec::new(), 12),
        ("a failure at time 0", vec![transient(0)], 12),
        (
            "a loss at time 0",
            vec![permanent(0, 5_000), transient(0)],
            12,
        ),
        ("a failure after the horizon", vec![transient(1 << 40)], 12),
        ("horizon 1, fault-free", Vec::new(), 1),
        ("horizon 1, a failure inside it", vec![transient(500)], 1),
        ("horizon 1, a failure after it", vec![transient(1_000)], 1),
    ];
    for (what, failures, horizon) in cases {
        check(&p, &trace(failures.clone()), &params, horizon, what);
        check(
            &p,
            &trace(failures),
            &degraded(quick(), 1_200, 300),
            horizon,
            what,
        );
    }
    // An empty horizon is an error on both sides.
    let empty = trace(Vec::new());
    assert!(oracle::simulate_lifecycle(&p, &empty, &params, 0).is_err());
    assert!(simulate_lifecycle(&p, &empty, &params, 0).is_err());
}

/// The reference 8-GPU run of the recovery and fleet integration tests:
/// the small workload at `(2, 2, 2)` with a node-local storage link.
fn reference() -> &'static (OptimusRun, Workload, SystemContext, OptimusConfig) {
    static RUN: OnceLock<(OptimusRun, Workload, SystemContext, OptimusConfig)> = OnceLock::new();
    RUN.get_or_init(|| {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).expect("cluster");
        let ctx = ctx.with_topology(ctx.topo.with_storage(LinkProfile {
            bandwidth: 80e9,
            latency: 100e-6,
        }));
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).expect("plan"));
        let run = run_optimus(&w, &cfg, &ctx).expect("optimus");
        (run, w, ctx, cfg)
    })
}

fn real_plan(cfg: &CheckpointConfig) -> CheckpointPlan {
    let (run, _, ctx, ocfg) = reference();
    plan_checkpoints(run, ocfg.llm_plan, &ctx.topo, cfg).expect("checkpoint plan")
}

#[test]
fn recovery_test_plans_match_oracle() {
    // tests/recovery.rs: 24 steps, checkpoint every 4, a uniform-hazard
    // trace with every third failure permanent, and a long device loss
    // priced with the elastic planner's chosen mode.
    let (run, w, ctx, cfg) = reference();
    const HORIZON: u32 = 24;
    let params = RecoveryParams::defaults();
    for policy in [
        CheckpointConfig::bubble(4),
        CheckpointConfig::critical_path(4),
    ] {
        let p = real_plan(&policy);
        let horizon_ns = p.fault_free_wall_ns(HORIZON) * 2;
        let t = FailureTrace::generate(&FailureTraceConfig {
            seed: 2026,
            horizon_ns: horizon_ns as u64,
            mtbf_ns: (horizon_ns / 5) as u64,
            num_devices: p.num_ranks,
            restart: DurNs::from_millis(50),
            repair: DurNs::from_millis(800),
            permanent_every: 3,
            hazard: Hazard::Uniform,
        })
        .expect("trace");
        check(&p, &t, &params, HORIZON, "recovery multi-fault");
    }

    let p = real_plan(&CheckpointConfig::bubble(4));
    let step = p.step_ns;
    let fail_step = HORIZON / 3;
    let repair_ns = 20 * step;
    let loss = trace(vec![Failure {
        at: TimeNs((fail_step as i64 * step + step / 2) as u64),
        device: 1,
        kind: FailureKind::Permanent {
            repair: DurNs(repair_ns as u64),
        },
    }]);
    let decision = plan_elastic(
        w,
        cfg,
        ctx,
        &run.memory,
        step,
        repair_ns,
        HORIZON - fail_step,
    )
    .expect("elastic");
    let elastic = RecoveryParams {
        degraded: Some(decision.chosen.expect("a degraded mode wins")),
        ..params.clone()
    };
    check(&p, &loss, &params, HORIZON, "recovery device loss, wait");
    check(
        &p,
        &loss,
        &elastic,
        HORIZON,
        "recovery device loss, elastic",
    );
}

#[test]
fn recovery_goodput_study_outcomes_match_oracle() {
    // The four outcomes of the `recovery_goodput` study, at its smoke and
    // full horizons: bubble and critical-path placement under one seeded
    // multi-failure trace, and wait versus elastic on a device loss.
    let (run, w, ctx, cfg) = reference();
    let params = RecoveryParams::defaults();
    let bubble = real_plan(&CheckpointConfig::bubble(4));
    let critical = real_plan(&CheckpointConfig::critical_path(4));
    for horizon in [32u32, 96] {
        let horizon_ns = critical.fault_free_wall_ns(horizon) * 2;
        let t = FailureTrace::generate(&FailureTraceConfig {
            seed: 2026,
            horizon_ns: horizon_ns as u64,
            mtbf_ns: (horizon_ns / 6) as u64,
            num_devices: bubble.num_ranks,
            restart: DurNs::from_millis(50),
            repair: DurNs::from_millis(500),
            permanent_every: 0,
            hazard: Hazard::Uniform,
        })
        .expect("trace");
        check(&bubble, &t, &params, horizon, "study bubble");
        check(&critical, &t, &params, horizon, "study critical-path");

        let step = bubble.step_ns;
        let fail_step = horizon / 3;
        let repair_ns = 24 * step;
        let loss = trace(vec![Failure {
            at: TimeNs((fail_step as i64 * step + step / 2) as u64),
            device: 1,
            kind: FailureKind::Permanent {
                repair: DurNs(repair_ns as u64),
            },
        }]);
        let decision = plan_elastic(
            w,
            cfg,
            ctx,
            &run.memory,
            step,
            repair_ns,
            horizon - fail_step,
        )
        .expect("elastic");
        let elastic = RecoveryParams {
            degraded: decision.chosen,
            ..params.clone()
        };
        check(&bubble, &loss, &params, horizon, "study wait");
        check(&bubble, &loss, &elastic, horizon, "study elastic");
    }
}

#[test]
fn fleet_test_plans_match_oracle() {
    // tests/fleet.rs: real bubble and critical-path plans at three
    // intervals under a Weibull trace with permanent losses...
    let horizon: u32 = 48;
    for interval in [2u32, 4, 7] {
        for policy in [
            CheckpointConfig::bubble(interval),
            CheckpointConfig::critical_path(interval),
        ] {
            let p = real_plan(&policy);
            let horizon_ns = p.fault_free_wall_ns(horizon) * 2;
            let t = FailureTrace::generate(&FailureTraceConfig {
                seed: 2026,
                horizon_ns: horizon_ns as u64,
                mtbf_ns: (horizon_ns / 7) as u64,
                num_devices: p.num_ranks,
                restart: DurNs::from_millis(50),
                repair: DurNs::from_millis(800),
                permanent_every: 3,
                hazard: Hazard::Weibull { shape: 0.7 },
            })
            .expect("trace");
            check(
                &p,
                &t,
                &RecoveryParams::defaults(),
                horizon,
                &format!("fleet real plan k={interval}"),
            );
        }
    }

    // ...and the synthetic fleet scenario's ledger plans, shrunk to a
    // horizon the oracle walks quickly, under replica traces, waiting and
    // degraded.
    let mut sc = FleetScenario::synthetic();
    sc.horizon_steps = 20_000;
    let mut failures = 0;
    for (policy, k) in [
        (PlacementPolicy::Bubble, 20),
        (PlacementPolicy::CriticalPath, 7),
    ] {
        let lp = sc.plan(policy, k);
        let p = CheckpointPlan {
            interval_steps: lp.interval_steps,
            step_ns: lp.step_ns,
            write_ns: lp.write_ns,
            spill_ns: lp.spill_ns,
            ..plan(1, 1, 0, 0)
        };
        for mode in [DegradedMode::WaitForRestart, DegradedMode::ShrinkDp] {
            let params = sc.recovery_params(mode).expect("params");
            for replica in 0..3 {
                let t = sc.replica_trace(replica).expect("replica trace");
                let out = check(&p, &t, &params, sc.horizon_steps, "fleet scenario");
                failures += out.failures_seen;
            }
        }
    }
    assert!(failures > 12, "want fleet traces with failures: {failures}");
}

#[test]
fn chaos_fixture_failure_lists_match_oracle() {
    // The chaos harness's recovery scorer: the reference plan over the
    // settings' horizon, under every golden fixture's failure list and the
    // failure mix of the chaos ledger-scorer test.
    let h = ChaosHarness::reference(ChaosSettings::default()).expect("harness");
    let p = h.checkpoint_plan();
    let horizon = ChaosSettings::default().horizon_steps;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos");
    let mut perturbations: Vec<Perturbation> = ChaosFixture::load_dir(&dir)
        .expect("fixtures")
        .into_iter()
        .map(|f| f.perturbation)
        .collect();
    assert!(perturbations.len() >= 3);
    let mut mixed = Perturbation::zero(1);
    mixed.failures = vec![
        FailureSpec {
            device: 1,
            at_pct: 30,
            downtime_ms: 50,
            permanent: false,
        },
        FailureSpec {
            device: 2,
            at_pct: 60,
            downtime_ms: 800,
            permanent: true,
        },
    ];
    perturbations.push(mixed);
    for pert in &perturbations {
        let t = pert
            .failure_trace(p.fault_free_wall_ns(horizon))
            .expect("fixture trace");
        check(
            p,
            &t,
            &RecoveryParams::defaults(),
            horizon,
            &format!("chaos {}", pert.describe()),
        );
    }
}
