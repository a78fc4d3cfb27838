//! Adaptive re-planning under injected faults.
//!
//! The paper's schedules are built from offline profiles; §6 concedes they
//! degrade when runtime behaviour drifts. This module closes the loop the
//! paper sketches: execute the planned step under a fault model
//! (`optimus-faults`), monitor per-resource busy-time drift against the
//! profiled timeline, and — when drift crosses a threshold — re-run the
//! planner with fault-adjusted costs (degraded link prices, slowed compute,
//! widened bubble margin) and splice the new schedule, reporting how much of
//! the fault-induced latency the re-plan recovers versus staying on the
//! static plan.
//!
//! The controller is conservative: it adopts the re-planned schedule only
//! when the re-plan's simulated latency under the *same* fault beats the
//! static plan's, so adaptation never loses latency.

use optimus_baselines::common::SystemContext;
use optimus_faults::{measure_drift, DriftSummary, FaultError, FaultEvent, FaultModel};
use optimus_modeling::Workload;
use optimus_sim::simulate;
use optimus_trace::TraceAnnotation;

use crate::error::OptimusError;
use crate::optimus::{run_optimus_seeded, OptimusConfig, OptimusRun};
use crate::verify::lowered_schedule;

/// Outcome of one fault → monitor → re-plan cycle.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Fault-free latency of the spliced schedule (seconds).
    pub baseline_secs: f64,
    /// Latency of the *static* plan executed under the fault model.
    pub static_secs: f64,
    /// Latency achieved by the adaptive controller under the same faults
    /// (the re-planned schedule if it won, otherwise the static plan).
    pub adaptive_secs: f64,
    /// Busy-time drift that the monitor observed on the static plan.
    pub drift: DriftSummary,
    /// Whether drift crossed the threshold and a re-plan was attempted.
    pub replanned: bool,
    /// Whether the re-planned schedule was adopted (beat the static plan).
    pub adopted: bool,
    /// The injected fault occurrences (for trace annotation).
    pub events: Vec<FaultEvent>,
}

impl ResilienceReport {
    /// Fraction of the fault-induced latency the adaptive plan recovered:
    /// `0` = no better than static, `1` = back to fault-free latency.
    /// Reports `1.0` when the fault cost nothing to begin with.
    pub fn recovery(&self) -> f64 {
        let lost = self.static_secs - self.baseline_secs;
        if lost <= 0.0 {
            return 1.0;
        }
        ((self.static_secs - self.adaptive_secs) / lost).clamp(0.0, 1.0)
    }

    /// Latency inflation of the static plan under the fault.
    pub fn static_inflation(&self) -> f64 {
        self.static_secs / self.baseline_secs - 1.0
    }

    /// Latency inflation of the adaptive plan under the fault.
    pub fn adaptive_inflation(&self) -> f64 {
        self.adaptive_secs / self.baseline_secs - 1.0
    }
}

/// Converts fault events into chrome-trace annotations (the fault track).
pub fn fault_annotations(events: &[FaultEvent]) -> Vec<TraceAnnotation> {
    events
        .iter()
        .map(|e| TraceAnnotation {
            label: e.scenario.to_string(),
            device: e.device.unwrap_or(0),
            at_us: e.at.as_micros_f64(),
            detail: e.detail.clone(),
        })
        .collect()
}

fn fault_err(e: FaultError) -> OptimusError {
    match e {
        FaultError::Invalid(msg) => OptimusError::Setup(msg),
        FaultError::Sim(msg) => OptimusError::Substrate(msg),
    }
}

fn sim_err(e: optimus_sim::SimError) -> OptimusError {
    OptimusError::Substrate(e.to_string())
}

/// The fault-aware re-plan setting of `cfg` on `ctx` under `faults`: link
/// prices from the degraded topology (a rebuilt cost model), unadjusted
/// dependency points so the re-plan can be spliced, the bubble margin
/// widened to the worst jitter, and — when some device straggles or the
/// microbatch loads shift — the per-microbatch encoder cost scales
/// multiplied by the load shift (`None` is no shift) and by the worst
/// compute slowdown.
pub fn fault_aware_replan(
    ctx: &SystemContext,
    cfg: &OptimusConfig,
    faults: &FaultModel,
    n_mb: usize,
    mb_shift: Option<&[f64]>,
) -> (SystemContext, OptimusConfig) {
    let ctx2 = ctx.with_topology(faults.degrade_topology(&ctx.topo));
    let mut cfg2 = cfg.clone();
    cfg2.adjust_dep_points = false;
    cfg2.bubble_margin = cfg.bubble_margin.max(faults.jitter_margin());
    let scale = faults.compute_scale();
    if scale > 1.0 || mb_shift.is_some() {
        let mut scales = cfg.mb_scales.clone().unwrap_or_else(|| vec![1.0; n_mb]);
        if let Some(shift) = mb_shift {
            scales = scales.iter().zip(shift).map(|(b, s)| b * s).collect();
        }
        cfg2.mb_scales = Some(scales.iter().map(|b| b * scale.max(1.0)).collect());
    }
    (ctx2, cfg2)
}

/// Runs the fault → monitor → re-plan cycle on a verifiable Optimus run.
///
/// `drift_threshold` is the monitor's trip point: re-planning starts once
/// some `(device, stream)` resource's busy time exceeds profile by more than
/// the threshold fraction (e.g. `0.1` = 10% over profile).
///
/// Requires a run produced with `adjust_dep_points = false` and an encoder
/// plan with `TP_enc == TP_llm` (the same preconditions as [`crate::verify()`]:
/// the schedule must be spliceable into the task graph exactly).
pub fn resilience_study(
    run: &OptimusRun,
    w: &Workload,
    ctx: &SystemContext,
    cfg: &OptimusConfig,
    faults: &FaultModel,
    drift_threshold: f64,
) -> Result<ResilienceReport, OptimusError> {
    if !(drift_threshold >= 0.0 && drift_threshold.is_finite()) {
        return Err(OptimusError::Setup(format!(
            "drift threshold {drift_threshold} must be finite and >= 0"
        )));
    }
    if run.profile.adjusted {
        return Err(OptimusError::Infeasible(
            "resilience study requires unadjusted dependency points (set \
             OptimusConfig::adjust_dep_points = false)"
                .into(),
        ));
    }

    // The profiled timeline: the chosen schedule spliced into the LLM graph.
    let lowered = lowered_schedule(run, w, ctx)?;
    let expected = simulate(&lowered.graph).map_err(sim_err)?;
    let baseline_secs = expected.makespan().as_secs_f64();

    // The static plan under fault: same graph, faulted durations.
    let injection = faults
        .inject(&lowered.graph, &ctx.topo)
        .map_err(fault_err)?;
    let observed = simulate(&injection.graph).map_err(sim_err)?;
    let static_secs = observed.makespan().as_secs_f64();

    // Monitor: per-resource busy-time drift between profile and observation.
    let drift = measure_drift(&lowered.graph, &expected, &observed);

    if !drift.exceeds(drift_threshold) {
        return Ok(ResilienceReport {
            baseline_secs,
            static_secs,
            adaptive_secs: static_secs,
            drift,
            replanned: false,
            adopted: false,
            events: injection.events,
        });
    }

    let n_mb = run.profile.n_microbatches() as usize;
    let (ctx2, cfg2) = fault_aware_replan(ctx, cfg, faults, n_mb, None);
    // Warm-start the degraded search from the healthy winner: faults shift
    // costs, rarely the plan neighbourhood, so the healthy encoder plan is
    // the best available seed (bit-identical result to a cold search).
    let replanned = run_optimus_seeded(w, &cfg2, &ctx2, &[run.enc_plan])?;

    // Evaluate the re-planned schedule under the *same* fault model. The
    // residual injection skips the degraded links the re-plan already priced,
    // rescales the globally-folded encoder slowdown to the true per-device
    // fault, and re-applies the rest (LLM straggling, jitter, stalls).
    let replanned_secs = if replanned.enc_plan.tp == replanned.profile.llm_plan.tp {
        let low2 = lowered_schedule(&replanned, w, &ctx2)?;
        let inj2 = faults
            .inject_residual(&low2.graph, &ctx2.topo)
            .map_err(fault_err)?;
        simulate(&inj2.graph)
            .map_err(sim_err)?
            .makespan()
            .as_secs_f64()
    } else {
        // The chosen encoder plan cannot be spliced exactly; fall back to
        // the planner's analytic latency, still under degraded costs.
        replanned.outcome.latency_secs()
    };

    // Adopt the re-plan only when it wins — adaptation never loses latency.
    let adopted = replanned_secs < static_secs;
    Ok(ResilienceReport {
        baseline_secs,
        static_secs,
        adaptive_secs: replanned_secs.min(static_secs),
        drift,
        replanned: true,
        adopted,
        events: injection.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimus::{run_optimus, OptimusConfig};
    use optimus_cluster::{DurNs, LinkClass};
    use optimus_faults::FaultScenario;
    use optimus_modeling::{MllmConfig, Workload};
    use optimus_parallel::ParallelPlan;

    fn verifiable_run() -> (OptimusRun, Workload, SystemContext, OptimusConfig) {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        cfg.adjust_dep_points = false;
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        (run, w, ctx, cfg)
    }

    #[test]
    fn straggler_triggers_replan_and_never_hurts() {
        let (run, w, ctx, cfg) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let faults = FaultModel::new(1)
            .with(FaultScenario::StragglerDevice {
                device: 0,
                slowdown: 1.6,
            })
            .unwrap();
        let rep = resilience_study(&run, &w, &ctx, &cfg, &faults, 0.1).unwrap();
        assert!(rep.static_secs >= rep.baseline_secs);
        assert!(rep.replanned, "60% straggler must trip a 10% monitor");
        assert!(
            rep.adaptive_secs <= rep.static_secs + 1e-12,
            "adaptive {} vs static {}",
            rep.adaptive_secs,
            rep.static_secs
        );
        assert!((0.0..=1.0).contains(&rep.recovery()));
        assert!(rep.drift.max_ratio() > 1.1);
        assert_eq!(rep.events.len(), 1);
    }

    #[test]
    fn degraded_link_triggers_replan() {
        let (run, w, ctx, cfg) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let faults = FaultModel::new(2)
            .with(FaultScenario::DegradedLink {
                class: LinkClass::NvLink,
                bandwidth_factor: 0.2,
                latency_factor: 2.0,
            })
            .unwrap();
        let rep = resilience_study(&run, &w, &ctx, &cfg, &faults, 0.1).unwrap();
        assert!(rep.static_secs >= rep.baseline_secs);
        assert!(rep.replanned);
        assert!(rep.adaptive_secs <= rep.static_secs + 1e-12);
        assert!(rep.static_inflation() >= rep.adaptive_inflation() - 1e-12);
    }

    #[test]
    fn below_threshold_keeps_static_plan() {
        let (run, w, ctx, cfg) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let faults = FaultModel::new(3)
            .with(FaultScenario::StragglerDevice {
                device: 0,
                slowdown: 1.05,
            })
            .unwrap();
        // A 5% straggler cannot trip a 50% monitor.
        let rep = resilience_study(&run, &w, &ctx, &cfg, &faults, 0.5).unwrap();
        assert!(!rep.replanned);
        assert!(!rep.adopted);
        assert_eq!(rep.adaptive_secs, rep.static_secs);
    }

    #[test]
    fn empty_fault_model_reports_no_drift() {
        let (run, w, ctx, cfg) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let rep = resilience_study(&run, &w, &ctx, &cfg, &FaultModel::new(0), 0.01).unwrap();
        assert!(!rep.replanned);
        assert!((rep.static_secs - rep.baseline_secs).abs() < 1e-12);
        assert_eq!(rep.recovery(), 1.0);
        assert_eq!(rep.drift.max_ratio(), 1.0);
    }

    #[test]
    fn fail_stop_is_absorbed_not_replanned_around() {
        let (run, w, ctx, cfg) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        // A restart pause inflates busy time on no resource (durations are
        // extended, but drift is measured on busy time — the pause *is* busy
        // time on one task), so pick a threshold the restart will trip.
        let faults = FaultModel::new(4)
            .with(FaultScenario::FailStop {
                device: 0,
                at: optimus_cluster::TimeNs(1_000_000),
                restart: DurNs::from_millis(20),
            })
            .unwrap();
        let rep = resilience_study(&run, &w, &ctx, &cfg, &faults, 0.05).unwrap();
        assert!(rep.static_secs > rep.baseline_secs);
        // Whether or not the monitor trips, adaptation must not lose.
        assert!(rep.adaptive_secs <= rep.static_secs + 1e-12);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let (run, w, ctx, cfg) = verifiable_run();
        let faults = FaultModel::new(0);
        assert!(resilience_study(&run, &w, &ctx, &cfg, &faults, -0.1).is_err());
        assert!(resilience_study(&run, &w, &ctx, &cfg, &faults, f64::NAN).is_err());
    }

    #[test]
    fn adjusted_runs_rejected() {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        assert!(matches!(
            resilience_study(&run, &w, &ctx, &cfg, &FaultModel::new(0), 0.1),
            Err(OptimusError::Infeasible(_))
        ));
    }

    #[test]
    fn annotations_mirror_events() {
        let events = vec![FaultEvent {
            scenario: "straggler_device",
            device: Some(3),
            at: optimus_cluster::TimeNs(2_000),
            detail: "slowdown 1.50x".into(),
        }];
        let ann = fault_annotations(&events);
        assert_eq!(ann.len(), 1);
        assert_eq!(ann[0].label, "straggler_device");
        assert_eq!(ann[0].device, 3);
        assert!((ann[0].at_us - 2.0).abs() < 1e-12);
    }
}
