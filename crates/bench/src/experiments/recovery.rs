//! Checkpoint/restart recovery study: bubble-placed snapshots vs the
//! critical-path baseline under a seeded multi-failure trace, plus the
//! elastic degraded-mode planner vs naive wait-for-restart on a device
//! loss.
//!
//! This is the closed-loop demo of `optimus-recovery`: the same Optimus
//! schedule, the same failure traces, the same detection/restart costs —
//! only the checkpoint placement (or the degraded-mode choice) differs, so
//! every goodput delta in the report is attributable to the policy.

use optimus_baselines::common::SystemContext;
use optimus_cluster::{DurNs, LinkProfile, TimeNs};
use optimus_core::{run_optimus, OptimusConfig, OptimusRun};
use optimus_modeling::{MllmConfig, Workload};
use optimus_parallel::ParallelPlan;
use optimus_recovery::{
    plan_checkpoints, plan_elastic, simulate_lifecycle, CheckpointConfig, CheckpointPlan,
    DegradedMode, ElasticDecision, Failure, FailureKind, FailureTrace, FailureTraceConfig,
    GoodputReport, Hazard, RecoveryParams,
};
use optimus_trace::{fault_table_with_recovery, TextTable};

/// Checkpoint interval used throughout, in steps.
pub const INTERVAL_STEPS: u32 = 4;

/// Everything the smoke assertions need.
#[derive(Debug, Clone)]
pub struct Study {
    /// Bubble-placed checkpoint plan.
    pub bubble_plan: CheckpointPlan,
    /// Critical-path baseline plan.
    pub critical_plan: CheckpointPlan,
    /// Goodput under the multi-failure trace, bubble placement.
    pub bubble: GoodputReport,
    /// Goodput under the same trace, critical-path placement.
    pub critical: GoodputReport,
    /// The elastic planner's decision for the device-loss scenario.
    pub decision: ElasticDecision,
    /// Goodput on the device-loss scenario with the chosen degraded mode.
    pub elastic: GoodputReport,
    /// Goodput on the same scenario with naive wait-for-restart.
    pub wait: GoodputReport,
}

fn build_run() -> (OptimusRun, Workload, SystemContext, OptimusConfig) {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).expect("cluster");
    // Checkpoints go to a node-local NVMe burst buffer (drained to the
    // parallel filesystem asynchronously), not the 2 GB/s shared mount the
    // topology defaults to — otherwise the write dwarfs any placement.
    let ctx = ctx.with_topology(ctx.topo.with_storage(LinkProfile {
        bandwidth: 80e9,
        latency: 100e-6,
    }));
    let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).expect("plan"));
    let run = run_optimus(&w, &cfg, &ctx).expect("optimus");
    (run, w, ctx, cfg)
}

fn goodput_row(t: &mut TextTable, name: &str, plan: &CheckpointPlan, g: &GoodputReport) {
    t.row(vec![
        name.to_string(),
        format!("{:.2}", plan.write_ns as f64 / 1e6),
        format!("{:.2}", plan.spill_ns as f64 / 1e6),
        format!("{:.0}%", plan.hidden_fraction() * 100.0),
        g.failures.to_string(),
        format!("{:.2}", g.wall_ns as f64 / 1e9),
        format!("{:.4}", g.goodput()),
        format!("{:.2}", g.recovery_p50() / 1e6),
        format!("{:.2}", g.recovery_p99() / 1e6),
    ]);
}

/// Runs the study. `smoke` shrinks the horizon (CI configuration); results
/// are deterministic either way.
pub fn run(smoke: bool) -> (String, Study) {
    let (run, w, ctx, cfg) = build_run();
    let horizon: u32 = if smoke { 32 } else { 96 };
    let params = RecoveryParams::defaults();

    let bubble_plan = plan_checkpoints(
        &run,
        cfg.llm_plan,
        &ctx.topo,
        &CheckpointConfig::bubble(INTERVAL_STEPS),
    )
    .expect("bubble checkpoint plan");
    let critical_plan = plan_checkpoints(
        &run,
        cfg.llm_plan,
        &ctx.topo,
        &CheckpointConfig::critical_path(INTERVAL_STEPS),
    )
    .expect("critical-path checkpoint plan");
    // The placement must survive static analysis (OPT005 + OPT007).
    let lint = bubble_plan.verify(horizon).expect("bubble placement lint");

    // One seeded multi-failure trace, shared by both policies. The horizon
    // covers the slower (critical-path) timeline so both runs see failures
    // throughout.
    let horizon_ns = critical_plan.fault_free_wall_ns(horizon) * 2;
    let trace = FailureTrace::generate(&FailureTraceConfig {
        seed: 2026,
        horizon_ns: horizon_ns as u64,
        mtbf_ns: (horizon_ns / 6) as u64,
        num_devices: bubble_plan.num_ranks,
        restart: DurNs::from_millis(50),
        repair: DurNs::from_millis(500),
        permanent_every: 0,
        hazard: Hazard::Uniform,
    })
    .expect("failure trace");

    let bubble_out = simulate_lifecycle(&bubble_plan, &trace, &params, horizon).expect("lifecycle");
    let critical_out =
        simulate_lifecycle(&critical_plan, &trace, &params, horizon).expect("lifecycle");
    let bubble = GoodputReport::from_outcome(&bubble_out);
    let critical = GoodputReport::from_outcome(&critical_out);

    // Device-loss scenario: one permanent failure a third into the horizon
    // with a repair lead time worth ~24 steps of work.
    let step = bubble_plan.step_ns;
    let fail_step = horizon / 3;
    let fail_at = fail_step as i64 * step + step / 2;
    let repair_ns = 24 * step;
    let loss_trace = FailureTrace::new(vec![Failure {
        at: TimeNs(fail_at as u64),
        device: 1,
        kind: FailureKind::Permanent {
            repair: DurNs(repair_ns as u64),
        },
    }])
    .expect("loss trace");
    let decision = plan_elastic(
        &w,
        &cfg,
        &ctx,
        &run.memory,
        step,
        repair_ns,
        horizon - fail_step,
    )
    .expect("elastic decision");
    let wait_out =
        simulate_lifecycle(&bubble_plan, &loss_trace, &params, horizon).expect("lifecycle");
    let elastic_params = RecoveryParams {
        degraded: decision.chosen,
        ..params.clone()
    };
    let elastic_out =
        simulate_lifecycle(&bubble_plan, &loss_trace, &elastic_params, horizon).expect("lifecycle");
    let wait = GoodputReport::from_outcome(&wait_out);
    let elastic = GoodputReport::from_outcome(&elastic_out);

    // Render.
    let mut out = format!(
        "== Recovery: bubble-placed checkpoints + elastic degraded modes \
         ({} @ {} GPUs, {} steps, checkpoint every {}) ==\n\
         snapshot {} MiB/rank over storage; per-device bubble capacity \
         {:?} us/step\n\n",
        w.mllm.name,
        w.num_gpus,
        horizon,
        INTERVAL_STEPS,
        bubble_plan.bytes_per_rank >> 20,
        bubble_plan
            .bubble_capacity_ns
            .iter()
            .map(|&c| c / 1000)
            .collect::<Vec<_>>(),
    );
    let mut t = TextTable::new(vec![
        "Policy",
        "Write (ms)",
        "Spill (ms)",
        "Hidden",
        "Fails",
        "Wall (s)",
        "Goodput",
        "p50 rec (ms)",
        "p99 rec (ms)",
    ]);
    goodput_row(&mut t, "bubble", &bubble_plan, &bubble);
    goodput_row(&mut t, "critical-path", &critical_plan, &critical);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nplacement lint: {} diagnostics (0 errors required)\n",
        lint.diagnostics.len()
    ));

    out.push_str(&format!(
        "\ndevice-loss scenario: dev 1 lost at step {fail_step}, repair worth {} steps\n",
        repair_ns / step
    ));
    let mut t = TextTable::new(vec!["Mode", "Eff step (ms)", "Expected wall (s)"]);
    for o in &decision.options {
        t.row(vec![
            o.mode.label().to_string(),
            format!("{:.2}", o.effective_step_ns as f64 / 1e6),
            format!("{:.3}", o.expected_wall_ns as f64 / 1e9),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "chosen: {} | simulated wall {:.3}s (elastic) vs {:.3}s (wait), \
         goodput {:.4} vs {:.4}\n",
        decision.chosen_mode().label(),
        elastic.wall_ns as f64 / 1e9,
        wait.wall_ns as f64 / 1e9,
        elastic.goodput(),
        wait.goodput(),
    ));

    out.push_str("\nfailure + recovery events (bubble policy, multi-failure trace):\n");
    let fault_events: Vec<optimus_trace::TraceAnnotation> = trace
        .failures()
        .iter()
        .map(|f| optimus_trace::TraceAnnotation {
            label: match f.kind {
                FailureKind::Transient { .. } => "fail_stop".to_string(),
                FailureKind::Permanent { .. } => "device_loss".to_string(),
            },
            device: f.device,
            at_us: f.at.0 as f64 / 1e3,
            detail: String::new(),
        })
        .collect();
    out.push_str(&fault_table_with_recovery(
        &fault_events,
        &bubble_out.events,
    ));

    (
        out,
        Study {
            bubble_plan,
            critical_plan,
            bubble,
            critical,
            decision,
            elastic,
            wait,
        },
    )
}

/// True when the elastic decision picked a non-trivial mode.
pub fn chose_degraded(decision: &ElasticDecision) -> bool {
    decision.chosen_mode() != DegradedMode::WaitForRestart
}
