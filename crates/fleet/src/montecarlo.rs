//! Deterministic Monte Carlo over seeded failure traces.
//!
//! Each replica draws its own month-long failure trace from the scenario's
//! per-component MTBF streams (a pure function of `(scenario, replica)`),
//! prices it with the exact lifecycle ledger, and audits the exactness
//! invariant `wall == useful + lost` before its goodput enters any
//! statistic. Replicas are embarrassingly parallel and fan out over the
//! workspace's deterministic worker pool: results come back in input
//! order, so every summary is bit-identical at any worker count.

use optimus_parallel::par_map;
use optimus_recovery::{
    goodput_ratio, lifecycle_ledger, FailureTrace, LedgerPlan, LostWork, RecoveryParams,
};
use optimus_trace::quantile;

use crate::error::{invalid, FleetError};
use crate::scenario::FleetScenario;

/// Monte Carlo sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Independent failure-trace replicas (`> 0`).
    pub replicas: u32,
    /// Worker threads for the fan-out (`0` = one per core). Any value
    /// yields bit-identical results.
    pub workers: usize,
}

/// One replica's priced outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaOutcome {
    /// Replica index (also the trace-seed salt).
    pub replica: u32,
    /// Failures that fired inside the horizon.
    pub failures: u32,
    /// Total wall time, ns.
    pub wall_ns: i64,
    /// Useful work over wall time.
    pub goodput: f64,
    /// Where the lost wall time went (audited: sums to `wall - useful`
    /// exactly).
    pub lost: LostWork,
}

/// Order statistics over the replica goodputs.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Replicas the statistics pool.
    pub replicas: u32,
    /// Median goodput.
    pub goodput_p50: f64,
    /// The goodput 99% of replicas meet or exceed (the lower 1% tail —
    /// the SLO-style "p99 guarantee").
    pub goodput_p99: f64,
    /// Mean goodput.
    pub goodput_mean: f64,
    /// Mean failures per replica.
    pub mean_failures: f64,
}

/// One Monte Carlo study: per-replica outcomes (input order) + summary.
#[derive(Debug, Clone, PartialEq)]
pub struct McStudy {
    /// Per-replica outcomes, indexed by replica.
    pub outcomes: Vec<ReplicaOutcome>,
    /// Pooled order statistics.
    pub summary: McSummary,
}

/// Generates the `replicas` seeded failure traces of a scenario, fanned out
/// over the worker pool. A trace set is generated once and priced many
/// times: a solve walks the ledger over every replica once per interval it
/// tries, and those walks, not generation, dominate a study's cost.
pub fn replica_traces(
    sc: &FleetScenario,
    replicas: u32,
    workers: usize,
) -> Result<Vec<FailureTrace>, FleetError> {
    if replicas == 0 {
        return invalid("monte carlo needs at least one replica");
    }
    let idx: Vec<u32> = (0..replicas).collect();
    let run = par_map(&idx, workers, |_, &r| sc.replica_trace(r));
    run.results.into_iter().collect()
}

/// Prices one (plan, params) knob setting over pre-generated replica
/// traces. Every replica's ledger is audited; the per-replica outcomes are
/// returned in replica order regardless of worker count.
pub fn evaluate(
    plan: &LedgerPlan,
    traces: &[FailureTrace],
    params: &RecoveryParams,
    horizon_steps: u32,
    workers: usize,
) -> Result<McStudy, FleetError> {
    if traces.is_empty() {
        return invalid("monte carlo needs at least one replica trace");
    }
    let run = par_map(traces, workers, |i, trace| {
        let out = lifecycle_ledger(plan, trace, params, horizon_steps)?;
        out.audit()?;
        Ok::<ReplicaOutcome, FleetError>(ReplicaOutcome {
            replica: i as u32,
            failures: out.failures_seen,
            wall_ns: out.wall_ns,
            goodput: goodput_ratio(out.useful_ns(), out.wall_ns),
            lost: out.lost,
        })
    });
    let outcomes: Vec<ReplicaOutcome> = run.results.into_iter().collect::<Result<_, _>>()?;

    let mut goodputs: Vec<f64> = outcomes.iter().map(|o| o.goodput).collect();
    goodputs.sort_by(f64::total_cmp);
    let n = outcomes.len() as f64;
    let summary = McSummary {
        replicas: outcomes.len() as u32,
        goodput_p50: quantile(&goodputs, 0.5),
        goodput_p99: quantile(&goodputs, 0.01),
        goodput_mean: goodputs.iter().sum::<f64>() / n,
        mean_failures: outcomes.iter().map(|o| f64::from(o.failures)).sum::<f64>() / n,
    };
    Ok(McStudy { outcomes, summary })
}

/// Convenience: generate traces and price one (policy, interval, mode)
/// setting in one call.
pub fn run_monte_carlo(
    sc: &FleetScenario,
    policy: optimus_recovery::PlacementPolicy,
    interval_steps: u32,
    mode: optimus_recovery::DegradedMode,
    cfg: &McConfig,
) -> Result<McStudy, FleetError> {
    sc.validate()?;
    let traces = replica_traces(sc, cfg.replicas, cfg.workers)?;
    evaluate(
        &sc.plan(policy, interval_steps),
        &traces,
        &sc.recovery_params(mode)?,
        sc.horizon_steps,
        cfg.workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_recovery::{DegradedMode, PlacementPolicy};

    fn small_scenario() -> FleetScenario {
        // The reference scenario at a shorter horizon keeps unit tests fast
        // while still seeing dozens of failures per replica.
        let mut sc = FleetScenario::synthetic();
        sc.horizon_steps = 200_000;
        sc
    }

    #[test]
    fn study_is_bit_identical_across_worker_counts() {
        let sc = small_scenario();
        let cfg1 = McConfig {
            replicas: 6,
            workers: 1,
        };
        let cfg4 = McConfig {
            replicas: 6,
            workers: 4,
        };
        let a = run_monte_carlo(
            &sc,
            PlacementPolicy::Bubble,
            24,
            DegradedMode::WaitForRestart,
            &cfg1,
        )
        .expect("study");
        let b = run_monte_carlo(
            &sc,
            PlacementPolicy::Bubble,
            24,
            DegradedMode::WaitForRestart,
            &cfg4,
        )
        .expect("study");
        assert_eq!(a, b, "worker count leaked into the study");
        assert!(a.summary.mean_failures > 5.0, "want real failure pressure");
        assert!(a.summary.goodput_p99 <= a.summary.goodput_p50);
        assert!(a.summary.goodput_p50 > 0.0 && a.summary.goodput_p50 < 1.0);
    }

    #[test]
    fn replicas_differ_but_reruns_do_not() {
        let sc = small_scenario();
        let cfg = McConfig {
            replicas: 4,
            workers: 2,
        };
        let a = run_monte_carlo(
            &sc,
            PlacementPolicy::CriticalPath,
            24,
            DegradedMode::ShrinkDp,
            &cfg,
        )
        .expect("study");
        let b = run_monte_carlo(
            &sc,
            PlacementPolicy::CriticalPath,
            24,
            DegradedMode::ShrinkDp,
            &cfg,
        )
        .expect("study");
        assert_eq!(a, b, "rerun differs");
        let walls: Vec<i64> = a.outcomes.iter().map(|o| o.wall_ns).collect();
        assert!(
            walls.windows(2).any(|w| w[0] != w[1]),
            "replica traces are not independent: {walls:?}"
        );
        // Every replica's ledger balanced (evaluate audits; re-check here).
        for o in &a.outcomes {
            let useful = sc.horizon_steps as i64 * sc.step_ns;
            assert_eq!(o.wall_ns, useful + o.lost.total(), "replica {}", o.replica);
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let sc = small_scenario();
        assert!(replica_traces(&sc, 0, 1).is_err());
        let plan = sc.plan(PlacementPolicy::Bubble, 24);
        let params = sc
            .recovery_params(DegradedMode::WaitForRestart)
            .expect("params");
        assert!(evaluate(&plan, &[], &params, sc.horizon_steps, 1).is_err());
    }
}
