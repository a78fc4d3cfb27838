//! Optimal checkpoint-interval solving: the Young/Daly closed form
//! cross-checked against a golden-section search over the exact ledger.
//!
//! Young/Daly prescribes checkpointing every `T = √(2·δ·M)` of wall time
//! for checkpoint cost `δ` and platform MTBF `M`. The classical calibration
//! takes `δ` to be the full write — correct for a `torch.save`-style
//! critical-path checkpoint, but wrong once shard writes are packed into
//! pipeline bubbles: the cost that actually lands on the critical path is
//! the *spill* `δ(k) = max_d (write − k·cap_d)⁺`, which vanishes for large
//! enough intervals. This module reports three answers per policy:
//!
//! 1. **`young_daly_k`** — the closed form with `δ = write` (the textbook
//!    prescription an operator would compute);
//! 2. **`self_consistent_k`** — the fixed point `k = YD(δ(k))` of the
//!    closed form fed the true spill (bubble-aware, still analytic);
//! 3. **`exact_k`** — the argmax of mean Monte Carlo goodput under the
//!    exact lifecycle ledger, found by a geometric ladder plus
//!    golden-section refinement plus a half/double hill-climb, so the
//!    returned optimum provably beats both half and double its interval
//!    on the same traces.
//!
//! The headline number is [`SolverResult::gap_pct`]: how much goodput the
//! textbook prescription leaves on the table. For the critical-path policy
//! the gap is ~0 (Young/Daly is near-optimal in its own regime — the
//! cross-check); for bubble-packed writes it is large, because zero
//! marginal checkpoint cost rewards intervals an order of magnitude
//! shorter than `√(2·write·M)`.

use std::collections::BTreeMap;

use optimus_recovery::{DegradedMode, FailureTrace, PlacementPolicy, RecoveryParams};

use crate::error::{invalid, FleetError};
use crate::montecarlo::{evaluate, replica_traces, McConfig, McSummary};
use crate::scenario::FleetScenario;

/// The three interval answers for one (policy, elastic-mode) knob setting,
/// each priced by the exact ledger on the same traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverResult {
    /// Checkpoint placement policy the intervals were solved for.
    pub policy: PlacementPolicy,
    /// Elastic degraded mode assumed during pricing.
    pub mode: DegradedMode,
    /// Fleet-level MTBF the closed forms used, ns.
    pub fleet_mtbf_ns: f64,
    /// Textbook Young/Daly interval (`δ` = full write), steps.
    pub young_daly_k: u32,
    /// Bubble-aware fixed point `k = YD(spill(k))`, steps.
    pub self_consistent_k: u32,
    /// Exact-ledger optimum, steps.
    pub exact_k: u32,
    /// Mean Monte Carlo goodput at `young_daly_k`.
    pub young_daly_goodput: f64,
    /// Mean Monte Carlo goodput at `self_consistent_k`.
    pub self_consistent_goodput: f64,
    /// Mean Monte Carlo goodput at `exact_k` (≥ the other two).
    pub exact_goodput: f64,
    /// Goodput the textbook prescription forfeits, percent:
    /// `(exact − young_daly) / exact · 100`.
    pub gap_pct: f64,
    /// Exact-ledger evaluations the search spent: one per distinct
    /// interval it priced. Reading [`SolverResult::exact_summary`] spends
    /// none.
    pub evaluations: u32,
    /// The full Monte Carlo summary at `exact_k` (its `goodput_mean` is
    /// `exact_goodput`), so a caller pricing the same knob setting on the
    /// same traces need not evaluate it again. Not part of the report.
    pub exact_summary: McSummary,
}

impl SolverResult {
    /// True when the textbook Young/Daly calibration measurably mispredicts
    /// the optimum — the bubble-packed-write regime.
    pub fn diverged(&self, threshold_pct: f64) -> bool {
        self.gap_pct > threshold_pct
    }
}

/// The Young/Daly interval in steps: `T = √(2·δ·M)` rounded to whole
/// steps and clamped to `[1, k_max]`. Zero (or negative) checkpoint cost
/// prescribes checkpointing every step; an infinite MTBF prescribes the
/// longest allowed interval.
pub fn young_daly_steps(delta_ns: f64, mtbf_ns: f64, step_ns: f64, k_max: u32) -> u32 {
    if delta_ns <= 0.0 || delta_ns.is_nan() {
        return 1;
    }
    if !mtbf_ns.is_finite() {
        return k_max.max(1);
    }
    let t = (2.0 * delta_ns * mtbf_ns).sqrt();
    let k = (t / step_ns).round();
    if !k.is_finite() || k >= f64::from(k_max) {
        return k_max.max(1);
    }
    (k as u32).clamp(1, k_max.max(1))
}

/// The bubble-aware fixed point `k = YD(spill(k))`: since the spill is
/// non-increasing in `k` and `YD` is non-decreasing in its cost argument,
/// the map `k ↦ YD(spill(k))` is non-increasing and the crossing is the
/// largest `k` with `YD(spill(k)) ≥ k` (binary search).
pub fn self_consistent_steps(sc: &FleetScenario, policy: PlacementPolicy, k_max: u32) -> u32 {
    let mtbf = sc.fleet_mtbf_ns();
    let step = sc.step_ns as f64;
    let holds = |k: u32| young_daly_steps(sc.spill_ns(policy, k) as f64, mtbf, step, k_max) >= k;
    if holds(k_max) {
        return k_max;
    }
    let (mut lo, mut hi) = (1u32, k_max); // holds(lo), !holds(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

struct Search<'a> {
    sc: &'a FleetScenario,
    policy: PlacementPolicy,
    params: RecoveryParams,
    traces: &'a [FailureTrace],
    workers: usize,
    memo: BTreeMap<u32, McSummary>,
    evaluations: u32,
}

impl Search<'_> {
    fn eval(&mut self, k: u32) -> Result<f64, FleetError> {
        if let Some(summary) = self.memo.get(&k) {
            return Ok(summary.goodput_mean);
        }
        let plan = self.sc.plan(self.policy, k);
        let study = evaluate(
            &plan,
            self.traces,
            &self.params,
            self.sc.horizon_steps,
            self.workers,
        )?;
        self.evaluations += 1;
        let goodput = study.summary.goodput_mean;
        self.memo.insert(k, study.summary);
        Ok(goodput)
    }

    /// Best evaluated interval: max goodput, ties to the shorter interval
    /// (less work at risk for the same goodput).
    fn best(&self) -> (u32, f64) {
        self.memo
            .iter()
            .map(|(&k, summary)| (k, summary.goodput_mean))
            .max_by(|(ka, ga), (kb, gb)| ga.total_cmp(gb).then_with(|| kb.cmp(ka)))
            .expect("search evaluated at least one interval")
    }
}

/// Solves the optimal interval on pre-generated traces. `k_max` bounds the
/// search (clamped to the horizon).
pub fn solve_on_traces(
    sc: &FleetScenario,
    policy: PlacementPolicy,
    mode: DegradedMode,
    traces: &[FailureTrace],
    workers: usize,
    k_max: u32,
) -> Result<SolverResult, FleetError> {
    sc.validate()?;
    if k_max == 0 {
        return invalid("solver needs k_max >= 1");
    }
    let k_max = k_max.min(sc.horizon_steps);
    let mtbf = sc.fleet_mtbf_ns();
    let young_daly_k = young_daly_steps(sc.write_ns as f64, mtbf, sc.step_ns as f64, k_max);
    let self_consistent_k = self_consistent_steps(sc, policy, k_max);

    let mut s = Search {
        sc,
        policy,
        params: sc.recovery_params(mode)?,
        traces,
        workers,
        memo: BTreeMap::new(),
        evaluations: 0,
    };

    // Closed-form answers always enter the candidate set, so the reported
    // exact optimum is ≥ both by construction.
    s.eval(young_daly_k)?;
    s.eval(self_consistent_k)?;

    // Geometric ladder: the goodput curve is smooth on a log-k axis.
    let mut k = 1u32;
    while k < k_max {
        s.eval(k)?;
        k = k.saturating_mul(2);
    }
    s.eval(k_max)?;

    // Golden-section refinement around the ladder's best octave.
    let (ladder_best, _) = s.best();
    let lo0 = (ladder_best / 2).max(1);
    let hi0 = ladder_best.saturating_mul(2).min(k_max);
    let (mut lo, mut hi) = (f64::from(lo0), f64::from(hi0));
    const INVPHI: f64 = 0.618_033_988_749_894_8;
    for _ in 0..18 {
        if hi - lo < 1.0 {
            break;
        }
        let c = hi - (hi - lo) * INVPHI;
        let d = lo + (hi - lo) * INVPHI;
        let fc = s.eval((c.round() as u32).clamp(1, k_max))?;
        let fd = s.eval((d.round() as u32).clamp(1, k_max))?;
        if fc > fd {
            hi = d;
        } else {
            lo = c;
        }
    }

    // Local integer scan closes the rounding gap.
    let (refined, _) = s.best();
    for dk in refined.saturating_sub(2)..=refined.saturating_add(2).min(k_max) {
        if dk >= 1 {
            s.eval(dk)?;
        }
    }

    // Half/double hill-climb: guarantees the returned optimum beats both
    // half and double its own interval on these traces.
    loop {
        let (best_k, best_g) = s.best();
        let half = (best_k / 2).max(1);
        let double = best_k.saturating_mul(2).min(k_max);
        if s.eval(half)? > best_g || s.eval(double)? > best_g {
            continue;
        }
        break;
    }

    let (exact_k, exact_goodput) = s.best();
    let exact_summary = s.memo[&exact_k].clone();
    let young_daly_goodput = s.eval(young_daly_k)?;
    let self_consistent_goodput = s.eval(self_consistent_k)?;
    let gap_pct = if exact_goodput > 0.0 {
        (exact_goodput - young_daly_goodput) / exact_goodput * 100.0
    } else {
        0.0
    };
    Ok(SolverResult {
        policy,
        mode,
        fleet_mtbf_ns: mtbf,
        young_daly_k,
        self_consistent_k,
        exact_k,
        young_daly_goodput,
        self_consistent_goodput,
        exact_goodput,
        gap_pct,
        evaluations: s.evaluations,
        exact_summary,
    })
}

/// Convenience: generate traces and solve in one call.
pub fn solve_interval(
    sc: &FleetScenario,
    policy: PlacementPolicy,
    mode: DegradedMode,
    cfg: &McConfig,
    k_max: u32,
) -> Result<SolverResult, FleetError> {
    let traces = replica_traces(sc, cfg.replicas, cfg.workers)?;
    solve_on_traces(sc, policy, mode, &traces, cfg.workers, k_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_matches_hand_computation() {
        // δ = 12 s, M = 2929 s, step = 1 s → T = √(2·12·2929) ≈ 265.2 s.
        let k = young_daly_steps(12e9, 2.929e12, 1e9, 4096);
        assert_eq!(k, 265);
        assert_eq!(young_daly_steps(0.0, 2.9e12, 1e9, 4096), 1);
        assert_eq!(young_daly_steps(12e9, f64::INFINITY, 1e9, 4096), 4096);
        assert_eq!(young_daly_steps(1e30, 1e30, 1.0, 4096), 4096);
    }

    #[test]
    fn self_consistent_interval_tracks_the_spill_knee() {
        let sc = FleetScenario::synthetic();
        // Critical-path spill never shrinks, so the fixed point is the
        // textbook answer.
        let yd = young_daly_steps(
            sc.write_ns as f64,
            sc.fleet_mtbf_ns(),
            sc.step_ns as f64,
            4096,
        );
        assert_eq!(
            self_consistent_steps(&sc, PlacementPolicy::CriticalPath, 4096),
            yd
        );
        // Bubble spill hits zero at k = 20; past the knee YD(0) = 1 < k, so
        // the fixed point sits at the knee — an order of magnitude below
        // the textbook answer.
        let sck = self_consistent_steps(&sc, PlacementPolicy::Bubble, 4096);
        assert!(
            (15..=21).contains(&sck),
            "fixed point {sck} not at the knee"
        );
        assert!(yd > 10 * sck, "yd {yd} vs self-consistent {sck}");
    }

    #[test]
    fn exact_search_beats_half_and_double_and_is_deterministic() {
        let mut sc = FleetScenario::synthetic();
        sc.horizon_steps = 150_000;
        let cfg = McConfig {
            replicas: 4,
            workers: 2,
        };
        let traces = replica_traces(&sc, cfg.replicas, cfg.workers).expect("traces");
        let r = solve_on_traces(
            &sc,
            PlacementPolicy::Bubble,
            DegradedMode::WaitForRestart,
            &traces,
            cfg.workers,
            4096,
        )
        .expect("solve");
        let r2 = solve_on_traces(
            &sc,
            PlacementPolicy::Bubble,
            DegradedMode::WaitForRestart,
            &traces,
            1,
            4096,
        )
        .expect("solve");
        assert_eq!(r, r2, "solver depends on worker count");
        assert!(r.exact_goodput >= r.young_daly_goodput);
        assert!(r.exact_goodput >= r.self_consistent_goodput);
        assert!(r.gap_pct >= 0.0);
        // The guarantee the smoke gate re-asserts: optimum ≥ half, double.
        let eval_at = |k: u32| {
            let plan = sc.plan(PlacementPolicy::Bubble, k);
            let params = sc.recovery_params(DegradedMode::WaitForRestart).unwrap();
            evaluate(&plan, &traces, &params, sc.horizon_steps, 1)
                .unwrap()
                .summary
                .goodput_mean
        };
        assert!(r.exact_goodput >= eval_at((r.exact_k / 2).max(1)));
        assert!(r.exact_goodput >= eval_at(r.exact_k.saturating_mul(2).min(4096)));
    }
}
