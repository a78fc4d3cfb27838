//! Resilience experiment: the fault → drift-monitor → re-plan loop
//! (`optimus-faults` + `optimus_core::resilience_study`) swept over failure
//! scenarios on the small-model workload.
//!
//! For each scenario the study reports the fault-free latency of the chosen
//! Optimus schedule, the latency of that *static* schedule executed under the
//! fault, and the latency the adaptive controller achieves by re-planning
//! with fault-adjusted costs — plus how much of the fault-induced loss the
//! re-plan recovers.

use optimus_baselines::common::SystemContext;
use optimus_cluster::{DurNs, LinkClass, TimeNs};
use optimus_core::{fault_annotations, resilience_study, run_optimus, OptimusConfig};
use optimus_core::{OptimusRun, ResilienceReport};
use optimus_faults::{FaultModel, FaultScenario};
use optimus_modeling::{MllmConfig, Workload};
use optimus_parallel::ParallelPlan;
use optimus_recovery::{
    lifecycle_ledger, plan_checkpoints, CheckpointConfig, FailureTrace, GoodputReport, LedgerPlan,
    RecoveryParams,
};
use optimus_trace::{fault_table, TextTable};

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// The resilience study's report.
    pub report: ResilienceReport,
}

/// Drift-monitor trip point used by the sweep.
pub const DRIFT_THRESHOLD: f64 = 0.05;

fn build_run() -> (OptimusRun, Workload, SystemContext, OptimusConfig) {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).expect("cluster");
    let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).expect("plan"));
    cfg.adjust_dep_points = false; // schedules must be spliceable
    let run = run_optimus(&w, &cfg, &ctx).expect("optimus");
    (run, w, ctx, cfg)
}

fn scenarios(baseline_secs: f64, smoke: bool) -> Vec<(&'static str, FaultModel)> {
    let straggler_15 = FaultModel::new(101)
        .with(FaultScenario::StragglerDevice {
            device: 0,
            slowdown: 1.5,
        })
        .expect("scenario");
    let nvlink = FaultModel::new(102)
        .with(FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.25,
            latency_factor: 2.0,
        })
        .expect("scenario");
    if smoke {
        return vec![
            ("straggler x1.5", straggler_15),
            ("degraded nvlink", nvlink),
        ];
    }
    let fail_at = TimeNs((baseline_secs * 0.3 * 1e9) as u64);
    vec![
        ("straggler x1.5", straggler_15),
        (
            "straggler x2.0",
            FaultModel::new(103)
                .with(FaultScenario::StragglerDevice {
                    device: 0,
                    slowdown: 2.0,
                })
                .expect("scenario"),
        ),
        ("degraded nvlink", nvlink),
        (
            "transient stalls",
            FaultModel::new(104)
                .with(FaultScenario::TransientStalls {
                    prob: 0.05,
                    stall: DurNs::from_micros(200),
                    device: None,
                })
                .expect("scenario"),
        ),
        (
            "fail-stop @30% +5ms",
            FaultModel::new(105)
                .with(FaultScenario::FailStop {
                    device: 0,
                    at: fail_at,
                    restart: DurNs::from_millis(5),
                })
                .expect("scenario"),
        ),
        (
            "combined",
            FaultModel::new(106)
                .with(FaultScenario::StragglerDevice {
                    device: 0,
                    slowdown: 1.5,
                })
                .expect("scenario")
                .with(FaultScenario::DegradedLink {
                    class: LinkClass::NvLink,
                    bandwidth_factor: 0.5,
                    latency_factor: 1.5,
                })
                .expect("scenario")
                .with(FaultScenario::KernelJitter { eps: 0.05 })
                .expect("scenario"),
        ),
    ]
}

/// The fail-stop + restart check run through the recovery engine: one
/// fail-stop against a bubble-checkpointed horizon, with the worst-case
/// extra wall the recovery model permits (detection + restart + restore +
/// one interval of replay). The smoke bin asserts the simulated wall stays
/// within it — i.e. the recovered goodput is within the budgeted bound.
#[derive(Debug, Clone)]
pub struct FailStopCheck {
    /// Goodput under the fail-stop.
    pub goodput: GoodputReport,
    /// Fault-free wall for the same horizon and checkpoint plan, ns.
    pub fault_free_wall_ns: i64,
    /// Worst-case extra wall the single fail-stop may cost, ns.
    pub max_extra_ns: i64,
}

fn fail_stop_check(
    run: &OptimusRun,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
) -> Option<FailStopCheck> {
    // Same burst-buffer storage assumption as the recovery experiment.
    let topo = ctx.topo.with_storage(optimus_cluster::LinkProfile {
        bandwidth: 80e9,
        latency: 100e-6,
    });
    let horizon: u32 = 16;
    let restart = DurNs::from_millis(50);
    let plan = plan_checkpoints(run, cfg.llm_plan, &topo, &CheckpointConfig::bubble(4)).ok()?;
    let fail_at = TimeNs((plan.fault_free_wall_ns(horizon) * 3 / 10) as u64);
    let model = FaultModel::new(105)
        .with(FaultScenario::FailStop {
            device: 0,
            at: fail_at,
            restart,
        })
        .ok()?;
    let params = RecoveryParams::defaults();
    let trace = FailureTrace::from_model(&model);
    let outcome = lifecycle_ledger(&LedgerPlan::of(&plan), &trace, &params, horizon).ok()?;
    // Worst case: a truncated step, detection, respawn + restore + restart
    // delay, then replaying a full checkpoint interval.
    let max_extra_ns = plan.step_ns
        + params.detection.0 as i64
        + params.restart_overhead.0 as i64
        + plan.write_ns
        + restart.0 as i64
        + plan.interval_steps as i64 * plan.step_ns;
    Some(FailStopCheck {
        goodput: GoodputReport::from_outcome(&outcome),
        fault_free_wall_ns: plan.fault_free_wall_ns(horizon),
        max_extra_ns,
    })
}

/// Runs the sweep; `smoke` restricts it to the two headline scenarios (the
/// CI configuration). Returns (report, rows, fail-stop check).
pub fn run(smoke: bool) -> (String, Vec<Row>, Option<FailStopCheck>) {
    let (run, w, ctx, cfg) = build_run();
    let mut out = format!(
        "== Resilience: fault injection + adaptive re-planning ({} @ {} GPUs) ==\n\
         drift monitor threshold: {:.0}% busy-time over profile\n\n",
        w.mllm.name,
        w.num_gpus,
        DRIFT_THRESHOLD * 100.0
    );
    if run.enc_plan.tp != run.profile.llm_plan.tp {
        out.push_str("skipped: chosen encoder plan is not spliceable (TP_enc != TP_llm)\n");
        return (out, Vec::new(), None);
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut events_out = Vec::new();
    let baseline_guess = run.outcome.latency_secs();
    for (name, model) in scenarios(baseline_guess, smoke) {
        let report = resilience_study(&run, &w, &ctx, &cfg, &model, DRIFT_THRESHOLD)
            .expect("resilience study");
        events_out.extend(fault_annotations(&report.events));
        rows.push(Row {
            scenario: name,
            report,
        });
    }

    let mut t = TextTable::new(vec![
        "Scenario",
        "Base (ms)",
        "Static (ms)",
        "Adaptive (ms)",
        "Drift",
        "Replanned",
        "Recovery",
    ]);
    for r in &rows {
        let rep = &r.report;
        t.row(vec![
            r.scenario.to_string(),
            format!("{:.2}", rep.baseline_secs * 1e3),
            format!("{:.2}", rep.static_secs * 1e3),
            format!("{:.2}", rep.adaptive_secs * 1e3),
            format!("{:.2}x", rep.drift.max_ratio()),
            if rep.replanned {
                if rep.adopted {
                    "adopted"
                } else {
                    "rejected"
                }
            } else {
                "no"
            }
            .to_string(),
            format!("{:.0}%", rep.recovery() * 100.0),
        ]);
    }
    out.push_str(&t.render());

    let check = fail_stop_check(&run, &cfg, &ctx);
    if let Some(c) = &check {
        out.push_str(&format!(
            "\nfail-stop + restart (recovery engine, {} steps, checkpoint every 4):\n\
             goodput {:.4} | wall {:.3}s vs fault-free {:.3}s (budget +{:.3}s) | \
             p50 recovery {:.1} ms\n",
            c.goodput.horizon_steps,
            c.goodput.goodput(),
            c.goodput.wall_ns as f64 / 1e9,
            c.fault_free_wall_ns as f64 / 1e9,
            c.max_extra_ns as f64 / 1e9,
            c.goodput.recovery_p50() / 1e6,
        ));
    }

    out.push_str("\ninjected fault events:\n");
    out.push_str(&fault_table(&events_out));
    (out, rows, check)
}
