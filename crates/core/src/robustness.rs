//! Schedule robustness under kernel-runtime fluctuation.
//!
//! The paper's scheduler assumes profiled kernel times hold in future steps
//! and notes (§6) that "deviations from predicted execution times can lead
//! to suboptimal scheduling". This module quantifies that: the chosen bubble
//! schedule is spliced into the task graph (as in [`crate::verify()`]), every
//! kernel duration is perturbed by an independent uniform factor
//! `[1−ε, 1+ε]`, and the combined step is re-simulated. The dependency
//! structure guarantees *correctness* under any perturbation (FIFO + explicit
//! edges); only latency degrades.
//!
//! [`crate::optimus::OptimusConfig::bubble_margin`] is the mitigation knob:
//! reserving a fraction of every interior bubble makes schedules jitter-
//! tolerant at a small cost in mean latency.

use optimus_baselines::common::SystemContext;
use optimus_modeling::Workload;
use optimus_sim::{simulate, TaskKind};
use optimus_trace::quantile;

use crate::error::OptimusError;
use crate::optimus::{run_optimus, OptimusConfig, OptimusRun};
use crate::verify::lowered_schedule;

/// The uniform-jitter perturbation, re-exported from `optimus-faults` — the
/// one perturbation code path shared by this study and fault injection.
pub use optimus_faults::perturb_uniform;

/// Latency distribution of a schedule under duration jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Jitter amplitude ε (durations scaled by uniform `[1−ε, 1+ε]`).
    pub jitter: f64,
    /// Unperturbed re-simulated latency (seconds).
    pub baseline_secs: f64,
    /// Median perturbed latency.
    pub p50_secs: f64,
    /// 95th-percentile perturbed latency.
    pub p95_secs: f64,
    /// 99th-percentile perturbed latency.
    pub p99_secs: f64,
    /// Worst observed latency.
    pub max_secs: f64,
    /// Number of perturbed re-simulations.
    pub samples: usize,
}

impl RobustnessReport {
    /// Median latency inflation over the unperturbed schedule.
    pub fn p50_inflation(&self) -> f64 {
        self.p50_secs / self.baseline_secs - 1.0
    }

    /// Tail (p95) latency inflation.
    pub fn p95_inflation(&self) -> f64 {
        self.p95_secs / self.baseline_secs - 1.0
    }

    /// Extreme-tail (p99) latency inflation.
    pub fn p99_inflation(&self) -> f64 {
        self.p99_secs / self.baseline_secs - 1.0
    }
}

/// Runs the jitter study on a (verifiable, i.e. unadjusted, `TP_enc =
/// TP_llm`) Optimus run.
pub fn jitter_study(
    run: &OptimusRun,
    w: &Workload,
    ctx: &SystemContext,
    jitter: f64,
    samples: usize,
) -> Result<RobustnessReport, OptimusError> {
    if !(0.0..1.0).contains(&jitter) {
        return Err(OptimusError::Setup(format!(
            "jitter {jitter} outside [0, 1)"
        )));
    }
    if run.profile.adjusted {
        return Err(OptimusError::Infeasible(
            "jitter study requires unadjusted dependency points (set \
             OptimusConfig::adjust_dep_points = false)"
                .into(),
        ));
    }
    let lowered = lowered_schedule(run, w, ctx)?;
    let baseline = simulate(&lowered.graph)
        .map_err(|e| OptimusError::Substrate(e.to_string()))?
        .makespan()
        .as_secs_f64();

    let mut latencies = Vec::with_capacity(samples);
    for seed in 0..samples as u64 {
        let jittered = perturb_uniform(&lowered.graph, jitter, 0xB0B_B1E5 ^ seed)
            .map_err(|e| OptimusError::Setup(e.to_string()))?;
        let r = simulate(&jittered).map_err(|e| OptimusError::Substrate(e.to_string()))?;
        latencies.push(r.makespan().as_secs_f64());
    }
    latencies.sort_by(f64::total_cmp);
    Ok(RobustnessReport {
        jitter,
        baseline_secs: baseline,
        p50_secs: quantile(&latencies, 0.5),
        p95_secs: quantile(&latencies, 0.95),
        p99_secs: quantile(&latencies, 0.99),
        max_secs: *latencies.last().unwrap_or(&baseline),
        samples,
    })
}

/// Outcome of the online-rescheduling study (§6): encoder kernels drift
/// systematically slower than profiled; a stale schedule degrades, a
/// re-profiled schedule recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Systematic encoder slowdown factor applied (e.g. 1.15 = 15% slower).
    pub drift: f64,
    /// Latency of the original schedule with accurate profiles (seconds).
    pub baseline_secs: f64,
    /// Latency of the *stale* schedule executed under drift (seconds).
    pub stale_secs: f64,
    /// Latency after rescheduling with drift-aware encoder costs (seconds).
    pub rescheduled_secs: f64,
}

impl DriftReport {
    /// How much of the stale schedule's degradation rescheduling recovers.
    pub fn recovery(&self) -> f64 {
        let lost = self.stale_secs - self.baseline_secs;
        if lost <= 0.0 {
            return 1.0;
        }
        ((self.stale_secs - self.rescheduled_secs) / lost).clamp(0.0, 1.0)
    }
}

/// Simulates §6's online-rescheduling remedy: encoder kernels run `drift`×
/// slower than the offline profile assumed. The stale schedule is
/// re-simulated under the drift; a new schedule is computed with the drift
/// folded into the encoder cost model (via per-microbatch scales) and its
/// latency estimated.
pub fn drift_study(
    run: &OptimusRun,
    w: &Workload,
    ctx: &SystemContext,
    cfg: &OptimusConfig,
    drift: f64,
) -> Result<DriftReport, OptimusError> {
    if !(1.0..4.0).contains(&drift) {
        return Err(OptimusError::Setup(format!("drift {drift} outside [1, 4)")));
    }
    if run.profile.adjusted {
        return Err(OptimusError::Infeasible(
            "drift study requires unadjusted dependency points".into(),
        ));
    }
    let lowered = lowered_schedule(run, w, ctx)?;
    let baseline = simulate(&lowered.graph)
        .map_err(|e| OptimusError::Substrate(e.to_string()))?
        .makespan()
        .as_secs_f64();

    // Stale schedule, drifted encoder kernels.
    let drifted = lowered.graph.with_scaled_durations(|t| {
        if matches!(
            t.kind,
            TaskKind::EncFwd { .. } | TaskKind::EncBwd { .. } | TaskKind::EncTpComm
        ) {
            drift
        } else {
            1.0
        }
    });
    let stale = simulate(&drifted)
        .map_err(|e| OptimusError::Substrate(e.to_string()))?
        .makespan()
        .as_secs_f64();

    // Reschedule with drift-aware encoder costs: fold the uniform slowdown
    // into the per-microbatch scales.
    let n_mb = run.profile.n_microbatches() as usize;
    let mut cfg2 = cfg.clone();
    let base_scales = cfg.mb_scales.clone().unwrap_or_else(|| vec![1.0; n_mb]);
    cfg2.mb_scales = Some(base_scales.iter().map(|s| s * drift).collect());
    cfg2.adjust_dep_points = false;
    let rescheduled = run_optimus(w, &cfg2, ctx)?;
    // Apples to apples: re-simulate the new schedule (its placements already
    // carry the drifted durations), falling back to the analytic estimate
    // when the chosen encoder plan cannot be spliced exactly.
    let rescheduled_secs = if rescheduled.enc_plan.tp == rescheduled.profile.llm_plan.tp {
        simulate(&lowered_schedule(&rescheduled, w, ctx)?.graph)
            .map_err(|e| OptimusError::Substrate(e.to_string()))?
            .makespan()
            .as_secs_f64()
    } else {
        rescheduled.outcome.latency_secs()
    };

    Ok(DriftReport {
        drift,
        baseline_secs: baseline,
        stale_secs: stale,
        rescheduled_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimus::{run_optimus, OptimusConfig};
    use optimus_modeling::MllmConfig;
    use optimus_parallel::ParallelPlan;

    fn verifiable_run() -> (OptimusRun, Workload, SystemContext) {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        cfg.adjust_dep_points = false;
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        (run, w, ctx)
    }

    #[test]
    fn jitter_degrades_latency_gracefully() {
        let (run, w, ctx) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let rep = jitter_study(&run, &w, &ctx, 0.05, 9).unwrap();
        assert!(rep.baseline_secs > 0.0);
        // 5% kernel jitter must not blow the step up by more than ~15%.
        assert!(
            rep.p95_inflation() < 0.15,
            "p95 inflation {}",
            rep.p95_inflation()
        );
        assert!(rep.p50_secs <= rep.p95_secs && rep.p95_secs <= rep.p99_secs);
        assert!(rep.p99_secs <= rep.max_secs);
        assert!(rep.p99_inflation() >= rep.p95_inflation() - 1e-12);
    }

    #[test]
    fn more_jitter_more_inflation() {
        let (run, w, ctx) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let small = jitter_study(&run, &w, &ctx, 0.02, 7).unwrap();
        let large = jitter_study(&run, &w, &ctx, 0.20, 7).unwrap();
        assert!(large.p95_secs >= small.p95_secs);
    }

    #[test]
    fn rescheduling_recovers_from_drift() {
        let (run, w, ctx) = verifiable_run();
        if run.enc_plan.tp != 2 {
            return;
        }
        let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        cfg.adjust_dep_points = false;
        let rep = drift_study(&run, &w, &ctx, &cfg, 1.5).unwrap();
        assert!(rep.stale_secs >= rep.baseline_secs);
        assert!(
            rep.rescheduled_secs <= rep.stale_secs + 1e-9,
            "rescheduled {} vs stale {}",
            rep.rescheduled_secs,
            rep.stale_secs
        );
        assert!((0.0..=1.0).contains(&rep.recovery()));
    }

    #[test]
    fn invalid_drift_rejected() {
        let (run, w, ctx) = verifiable_run();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        assert!(drift_study(&run, &w, &ctx, &cfg, 0.5).is_err());
        assert!(drift_study(&run, &w, &ctx, &cfg, 9.0).is_err());
    }

    #[test]
    fn invalid_jitter_rejected() {
        let (run, w, ctx) = verifiable_run();
        assert!(jitter_study(&run, &w, &ctx, 1.5, 3).is_err());
    }

    #[test]
    fn adjusted_runs_rejected() {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        assert!(matches!(
            jitter_study(&run, &w, &ctx, 0.05, 3),
            Err(OptimusError::Infeasible(_))
        ));
    }
}
