//! Integration tests for the fleet-scale resilience what-if engine: Monte
//! Carlo determinism across worker counts, the policy-dependent Young/Daly
//! gap, and a golden frontier report. (The lifecycle ledger the engine
//! prices with is pinned against the stepwise oracle, on this file's real
//! checkpoint plans among others, by `tests/lifecycle_oracle.rs`.)
//!
//! Regenerate the golden frontier with
//!
//! ```text
//! OPTIMUS_REGEN_GOLDEN=1 cargo test --test fleet
//! ```

use std::path::PathBuf;

use optimus::fleet::{
    evaluate, replica_traces, solve_on_traces, sweep_frontier, FleetReport, FleetScenario,
    FrontierConfig,
};
use optimus::recovery::{DegradedMode, PlacementPolicy};

/// A short study scenario: the synthetic month shrunk to a CI-sized
/// horizon. All the physics (spill knee, elastic pricing, failure mix)
/// stay those of the reference scenario.
fn short_scenario(horizon_steps: u32) -> FleetScenario {
    let mut sc = FleetScenario::synthetic();
    sc.horizon_steps = horizon_steps;
    sc
}

#[test]
fn monte_carlo_is_bit_identical_across_worker_counts() {
    let sc = short_scenario(120_000);
    let plan = sc.plan(PlacementPolicy::Bubble, 20);
    let params = sc.recovery_params(DegradedMode::ShrinkDp).expect("params");
    let mut studies = Vec::new();
    for workers in [1usize, 4] {
        let traces = replica_traces(&sc, 5, workers).expect("traces");
        studies.push(evaluate(&plan, &traces, &params, sc.horizon_steps, workers).expect("mc"));
    }
    assert_eq!(studies[0], studies[1], "worker count leaked into the study");
    // Per-replica outcomes are plausible and the pooled quantiles come
    // from them.
    for o in &studies[0].outcomes {
        assert!(o.goodput > 0.0 && o.goodput <= 1.0, "goodput {}", o.goodput);
        assert!(o.failures > 0, "month-scale replica saw no failures");
    }
    let s = &studies[0].summary;
    assert!(s.goodput_p99 <= s.goodput_p50, "p99 is the worse tail");
}

#[test]
fn young_daly_gap_depends_on_checkpoint_placement() {
    // The headline of the solver: Young/Daly calibrated on the full write
    // is an order of magnitude off once writes pack into bubbles, but
    // tight when the write really rides the critical path.
    let sc = short_scenario(150_000);
    let traces = replica_traces(&sc, 4, 4).expect("traces");
    let solve = |policy| {
        solve_on_traces(&sc, policy, DegradedMode::WaitForRestart, &traces, 4, 4096).expect("solve")
    };
    let bubble = solve(PlacementPolicy::Bubble);
    let critical = solve(PlacementPolicy::CriticalPath);
    assert!(
        bubble.young_daly_k > 5 * bubble.exact_k,
        "bubble packing should break Young/Daly: yd k={} vs exact k={}",
        bubble.young_daly_k,
        bubble.exact_k
    );
    assert!(
        bubble.gap_pct > critical.gap_pct,
        "Young/Daly gap must be wider under bubble packing ({:.2}% vs {:.2}%)",
        bubble.gap_pct,
        critical.gap_pct
    );
    assert!(
        critical.gap_pct < 2.0,
        "critical-path gap {:.2}%",
        critical.gap_pct
    );
    // The exact optimum never loses to either closed-form seed.
    for s in [&bubble, &critical] {
        assert!(s.exact_goodput >= s.young_daly_goodput);
        assert!(s.exact_goodput >= s.self_consistent_goodput);
        assert!(s.gap_pct >= 0.0);
    }
    assert!(bubble.exact_goodput > critical.exact_goodput);
}

#[test]
fn golden_fleet_frontier() {
    // Pins the byte-exact what-if report of a reduced reference study:
    // solver verdicts for both policies plus one frontier cell per
    // (policy, elastic mode). Any drift in trace generation, the ledger,
    // the solver, or report formatting shows up here as a byte diff.
    let sc = short_scenario(100_000);
    let replicas = 3;
    let traces = replica_traces(&sc, replicas, 2).expect("traces");
    let solver = [PlacementPolicy::Bubble, PlacementPolicy::CriticalPath]
        .into_iter()
        .map(|p| {
            solve_on_traces(&sc, p, DegradedMode::WaitForRestart, &traces, 2, 2048).expect("solve")
        })
        .collect();
    let cfg = FrontierConfig {
        devices: vec![512],
        mtbf_pcts: vec![100],
        policies: vec![PlacementPolicy::Bubble, PlacementPolicy::CriticalPath],
        modes: vec![
            DegradedMode::WaitForRestart,
            DegradedMode::ShrinkDp,
            DegradedMode::DropPipelineReplica,
        ],
        replicas,
        workers: 2,
        k_max: 2048,
    };
    let frontier = sweep_frontier(&sc, &cfg).expect("frontier");
    let actual = FleetReport::new(&sc, replicas, solver, frontier).golden_text();

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_frontier.txt");
    if std::env::var_os("OPTIMUS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden frontier");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden frontier {}: {e}\n\
             regenerate with OPTIMUS_REGEN_GOLDEN=1 cargo test --test fleet",
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
            "fleet frontier diverged from {} ({} golden lines, {} actual lines):\n{}\n\
             if the change is intentional, regenerate with \
             OPTIMUS_REGEN_GOLDEN=1 cargo test --test fleet",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}
