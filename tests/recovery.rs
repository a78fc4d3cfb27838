//! Integration tests for the checkpoint/restart recovery engine: the
//! bubble-vs-critical-path closed loop, multi-fault determinism across plan
//! search parallelism, and a golden recovery timeline. (The barrier-graph
//! cross-check of these timelines against the simulator lives in
//! `tests/lifecycle_oracle.rs`.)
//!
//! Regenerate the golden timeline with
//!
//! ```text
//! OPTIMUS_REGEN_GOLDEN=1 cargo test --test recovery
//! ```

use std::path::PathBuf;

use optimus::baselines::common::SystemContext;
use optimus::cluster::{DurNs, LinkProfile, TimeNs};
use optimus::core::{run_optimus, OptimusConfig, OptimusRun};
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::recovery::{
    plan_checkpoints, plan_elastic, simulate_lifecycle, timeline_text, CheckpointConfig,
    CheckpointPlan, Failure, FailureKind, FailureTrace, FailureTraceConfig, GoodputReport, Hazard,
    RecoveryParams,
};

const HORIZON: u32 = 24;
const INTERVAL: u32 = 4;

fn context() -> SystemContext {
    let ctx = SystemContext::hopper(8).expect("cluster");
    // Node-local burst buffer for checkpoint traffic (see the recovery
    // bench experiment).
    ctx.with_topology(ctx.topo.with_storage(LinkProfile {
        bandwidth: 80e9,
        latency: 100e-6,
    }))
}

fn build(search_workers: usize) -> (OptimusRun, Workload, SystemContext, OptimusConfig) {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = context();
    let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).expect("plan"))
        .with_search_workers(search_workers);
    let run = run_optimus(&w, &cfg, &ctx).expect("optimus");
    (run, w, ctx, cfg)
}

fn bubble_plan(run: &OptimusRun, cfg: &OptimusConfig, ctx: &SystemContext) -> CheckpointPlan {
    plan_checkpoints(
        run,
        cfg.llm_plan,
        &ctx.topo,
        &CheckpointConfig::bubble(INTERVAL),
    )
    .expect("checkpoint plan")
}

fn multi_fault_trace(plan: &CheckpointPlan) -> FailureTrace {
    let horizon_ns = plan.fault_free_wall_ns(HORIZON) * 2;
    FailureTrace::generate(&FailureTraceConfig {
        seed: 2026,
        horizon_ns: horizon_ns as u64,
        mtbf_ns: (horizon_ns / 5) as u64,
        num_devices: plan.num_ranks,
        restart: DurNs::from_millis(50),
        repair: DurNs::from_millis(800),
        permanent_every: 3,
        hazard: Hazard::Uniform,
    })
    .expect("trace")
}

#[test]
fn bubble_placement_beats_critical_path_under_multi_faults() {
    let (run, _, ctx, cfg) = build(1);
    let bubble = bubble_plan(&run, &cfg, &ctx);
    let critical = plan_checkpoints(
        &run,
        cfg.llm_plan,
        &ctx.topo,
        &CheckpointConfig::critical_path(INTERVAL),
    )
    .expect("checkpoint plan");
    assert_eq!(bubble.write_ns, critical.write_ns);
    assert!(bubble.spill_ns < critical.spill_ns, "nothing was hidden");
    assert_eq!(critical.spill_ns, critical.write_ns);
    assert!(bubble.hidden_fraction() > 0.0);
    // The placement passes OPT005 + OPT007 with zero diagnostics.
    let report = bubble.verify(HORIZON).expect("lint");
    assert!(report.is_clean(), "{report:?}");

    let trace = multi_fault_trace(&bubble);
    assert!(trace.len() >= 2, "want a multi-failure trace");
    let params = RecoveryParams::defaults();
    let b = simulate_lifecycle(&bubble, &trace, &params, HORIZON).expect("lifecycle");
    let c = simulate_lifecycle(&critical, &trace, &params, HORIZON).expect("lifecycle");
    let gb = GoodputReport::from_outcome(&b);
    let gc = GoodputReport::from_outcome(&c);
    assert!(
        gb.goodput() > gc.goodput(),
        "bubble {} <= critical {}",
        gb.goodput(),
        gc.goodput()
    );
    // The lost-work ledger balances exactly on both.
    assert_eq!(gb.useful_ns + gb.lost.total(), gb.wall_ns);
    assert_eq!(gc.useful_ns + gc.lost.total(), gc.wall_ns);
}

#[test]
fn goodput_report_is_bit_identical_across_search_workers() {
    let mut reports: Vec<(GoodputReport, String)> = Vec::new();
    for workers in [1usize, 4] {
        let (run, _, ctx, cfg) = build(workers);
        let plan = bubble_plan(&run, &cfg, &ctx);
        let trace = multi_fault_trace(&plan);
        let outcome = simulate_lifecycle(&plan, &trace, &RecoveryParams::defaults(), HORIZON)
            .expect("lifecycle");
        let g = GoodputReport::from_outcome(&outcome);
        reports.push((g, timeline_text(&outcome)));
    }
    assert_eq!(reports[0].0, reports[1].0, "GoodputReport differs");
    assert_eq!(
        reports[0].0.golden_text(),
        reports[1].0.golden_text(),
        "golden text differs"
    );
    assert_eq!(reports[0].1, reports[1].1, "timeline differs");
}

#[test]
fn elastic_mode_beats_waiting_on_a_long_device_loss() {
    let (run, w, ctx, cfg) = build(1);
    let plan = bubble_plan(&run, &cfg, &ctx);
    let step = plan.step_ns;
    let fail_step = HORIZON / 3;
    let repair_ns = 20 * step;
    let trace = FailureTrace::new(vec![Failure {
        at: TimeNs((fail_step as i64 * step + step / 2) as u64),
        device: 1,
        kind: FailureKind::Permanent {
            repair: DurNs(repair_ns as u64),
        },
    }])
    .expect("trace");
    let decision = plan_elastic(
        &w,
        &cfg,
        &ctx,
        &run.memory,
        step,
        repair_ns,
        HORIZON - fail_step,
    )
    .expect("elastic");
    let chosen = decision.chosen.expect("a degraded mode should win");
    assert!(
        chosen.effective_step_ns > step,
        "degraded mode can't be faster"
    );

    let params = RecoveryParams::defaults();
    let wait = simulate_lifecycle(&plan, &trace, &params, HORIZON).expect("lifecycle");
    let elastic_params = RecoveryParams {
        degraded: Some(chosen),
        ..params
    };
    let elastic = simulate_lifecycle(&plan, &trace, &elastic_params, HORIZON).expect("lifecycle");
    let gw = GoodputReport::from_outcome(&wait);
    let ge = GoodputReport::from_outcome(&elastic);
    assert!(gw.lost.wait_ns > 0, "wait mode never waited");
    assert_eq!(ge.lost.wait_ns, 0, "elastic mode should not idle");
    assert!(ge.lost.degraded_ns > 0, "elastic mode never ran degraded");
    assert!(
        ge.goodput() > gw.goodput(),
        "elastic {} <= wait {}",
        ge.goodput(),
        gw.goodput()
    );
}

#[test]
fn golden_recovery_timeline() {
    let (run, _, ctx, cfg) = build(1);
    let plan = bubble_plan(&run, &cfg, &ctx);
    let trace = multi_fault_trace(&plan);
    let outcome =
        simulate_lifecycle(&plan, &trace, &RecoveryParams::defaults(), HORIZON).expect("lifecycle");
    let actual = format!(
        "{}{}",
        timeline_text(&outcome),
        GoodputReport::from_outcome(&outcome).golden_text()
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/recovery_timeline.txt");
    if std::env::var_os("OPTIMUS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden timeline");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden timeline {}: {e}\n\
             regenerate with OPTIMUS_REGEN_GOLDEN=1 cargo test --test recovery",
            path.display()
        )
    });
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(8)
            .map(|(i, (e, a))| format!("  line {}: golden `{e}` vs actual `{a}`", i + 1))
            .collect();
        panic!(
            "recovery timeline diverged from {} ({} golden lines, {} actual lines):\n{}\n\
             if the change is intentional, regenerate with \
             OPTIMUS_REGEN_GOLDEN=1 cargo test --test recovery",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn golden_goodput_report_guards_checkpoint_packing() {
    // Pins the exact `GoodputReport` golden text of the reference
    // multi-fault run. Minted before `plan_checkpoints` moved onto the
    // shared `optimus-fill` bubble arbiter, this guards the migration:
    // any drift in claim carving, packing order, or spill math shows up
    // here as a byte diff.
    let (run, _, ctx, cfg) = build(1);
    let plan = bubble_plan(&run, &cfg, &ctx);
    let trace = multi_fault_trace(&plan);
    let outcome =
        simulate_lifecycle(&plan, &trace, &RecoveryParams::defaults(), HORIZON).expect("lifecycle");
    let actual = GoodputReport::from_outcome(&outcome).golden_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/recovery_goodput.txt");
    if std::env::var_os("OPTIMUS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden goodput");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden goodput {}: {e}\n\
             regenerate with OPTIMUS_REGEN_GOLDEN=1 cargo test --test recovery",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "checkpoint goodput diverged from {}; if intentional, regenerate with \
         OPTIMUS_REGEN_GOLDEN=1 cargo test --test recovery",
        path.display()
    );
}

#[test]
fn elastic_decision_is_bit_identical_across_search_workers() {
    // The elastic planner prices shrink-DP and drop-replica by re-running
    // the Optimus plan search on the shrunken cluster; the chosen mode
    // (including equal-downtime tie-breaks) must not depend on how many
    // workers that search used.
    let (run1, w, ctx, cfg1) = build(1);
    let (run4, _, _, cfg4) = build(4);
    assert_eq!(run1.outcome.latency, run4.outcome.latency);

    let step = run1.outcome.latency;
    let mut decisions = Vec::new();
    for (run, cfg) in [(&run1, &cfg1), (&run4, &cfg4)] {
        // A mid-length repair keeps several options competitive.
        let decision =
            plan_elastic(&w, cfg, &ctx, &run.memory, step, 12 * step, HORIZON).expect("elastic");
        assert!(!decision.options.is_empty());
        decisions.push(decision);
    }
    assert_eq!(
        decisions[0], decisions[1],
        "elastic decision differs across search_workers"
    );
}
