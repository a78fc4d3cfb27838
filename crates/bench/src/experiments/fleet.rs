//! Fleet what-if study: the resilience engine end to end on the synthetic
//! month scenario.
//!
//! Four phases, each pinned by the smoke gate:
//!
//! * **calibrate** — a classed fleet failure trace is serialised through
//!   the graphless fault-event writer, ingested back as a Chrome trace,
//!   and [`optimus_calibrate::fit_mtbf`] recovers the planted per-class
//!   rates; the scenario the study prices is the *calibrated* one, closing
//!   the observe → calibrate → what-if loop;
//! * **solve** — Young/Daly, its bubble-aware self-consistent fixed point,
//!   and the exact golden-section search over the lifecycle ledger, for
//!   both checkpoint policies on one shared trace set. The headline: under
//!   bubble-packed writes the textbook Young/Daly interval (calibrated on
//!   the full write) diverges from the exact optimum by an order of
//!   magnitude, while under critical-path writes it stays tight;
//! * **frontier** — p50/p99 goodput over cluster size × MTBF × policy ×
//!   elastic mode;
//! * **determinism** — the entire report re-rendered at a different worker
//!   count must be byte-identical.

use optimus_calibrate::{fit_mtbf, IngestedTrace, MtbfCalibration};
use optimus_fleet::{
    evaluate, replica_traces, solve_on_traces, sweep_frontier, FleetReport, FleetScenario,
    FrontierConfig, SolverResult,
};
use optimus_json::Json;
use optimus_recovery::{ClassedTrace, DegradedMode, PlacementPolicy};
use optimus_trace::{write_fault_event_trace, TextTable, TraceAnnotation};

use super::rounded;

/// Goodput of the exact optimum against halving/doubling its interval —
/// the independent local-optimality check the smoke gate asserts.
#[derive(Debug, Clone)]
pub struct OptimalityPoint {
    /// Checkpoint policy of the solve.
    pub policy: PlacementPolicy,
    /// Goodput at the exact-solved interval.
    pub exact_goodput: f64,
    /// Goodput at half the exact interval (min 1).
    pub half_goodput: f64,
    /// Goodput at double the exact interval.
    pub double_goodput: f64,
}

/// Everything the study measures.
#[derive(Debug, Clone)]
pub struct Study {
    /// The assembled what-if report (solver verdicts + frontier).
    pub report: FleetReport,
    /// Relative error of the calibrated fleet MTBF vs the planted truth.
    pub mtbf_rel_err: f64,
    /// Fault events the calibration round trip ingested.
    pub calibration_events: usize,
    /// Solver verdict under bubble placement.
    pub bubble: SolverResult,
    /// Solver verdict under critical-path placement.
    pub critical: SolverResult,
    /// Local-optimality checks, one per policy.
    pub optimality: Vec<OptimalityPoint>,
    /// The report text is byte-identical across worker counts.
    pub worker_invariant: bool,
}

impl Study {
    /// Renders the study as a `BENCH_fleet.json` document.
    pub fn to_json(&self) -> String {
        let doc = Json::obj(vec![
            ("experiment", Json::from("fleet_whatif")),
            ("mtbf_rel_err", rounded(self.mtbf_rel_err, 4)),
            (
                "calibration_events",
                Json::from(self.calibration_events as u64),
            ),
            ("worker_invariant", Json::from(self.worker_invariant)),
            ("report", self.report.to_json()),
        ]);
        doc.to_pretty() + "\n"
    }
}

/// Generates an observation trace from the truth scenario, round trips it
/// through the fault-event writer + Chrome ingestion, and fits per-class
/// MTBF. Returns the calibration and the ingested event count.
fn calibrate_from_trace(truth: &FleetScenario) -> (MtbfCalibration, usize) {
    // Observe for twice the priced horizon so even the rarest class (host
    // loss) accumulates a statistically useful event count.
    let window = truth.trace_horizon_ns();
    let classed = ClassedTrace::generate(
        truth.seed ^ 0xCA11_B4A7_E000_0000,
        window,
        truth.num_devices,
        &truth.specs,
    )
    .expect("observation trace");
    let faults: Vec<TraceAnnotation> = classed
        .events()
        .iter()
        .map(|e| TraceAnnotation {
            label: e.component.label().into(),
            device: e.failure.device,
            at_us: e.failure.at.0 as f64 / 1000.0,
            detail: String::new(),
        })
        .collect();
    let mut buf = Vec::new();
    write_fault_event_trace(&faults, &[], &mut buf).expect("fault-event trace");
    let ingested =
        IngestedTrace::parse_chrome(std::str::from_utf8(&buf).expect("utf8")).expect("ingest");
    let n = ingested.annotations.len();
    let cal = fit_mtbf(&ingested.annotations, window, truth.num_devices).expect("fit");
    (cal, n)
}

/// Prices one policy's exact interval against half and double, on the same
/// traces the solver used.
fn optimality_point(
    sc: &FleetScenario,
    solved: &SolverResult,
    traces: &[optimus_recovery::FailureTrace],
    workers: usize,
) -> OptimalityPoint {
    let goodput_at = |k: u32| {
        evaluate(
            &sc.plan(solved.policy, k),
            traces,
            &sc.recovery_params(solved.mode).expect("params"),
            sc.horizon_steps,
            workers,
        )
        .expect("evaluate")
        .summary
        .goodput_mean
    };
    OptimalityPoint {
        policy: solved.policy,
        exact_goodput: solved.exact_goodput,
        half_goodput: goodput_at((solved.exact_k / 2).max(1)),
        double_goodput: goodput_at(solved.exact_k.saturating_mul(2)),
    }
}

/// Runs the study. `smoke` shrinks the priced horizon and the replica
/// count; every phase and every invariant check still runs. Returns
/// (report, study).
pub fn run(smoke: bool) -> (String, Study) {
    let mut truth = FleetScenario::synthetic();
    if smoke {
        truth.horizon_steps = 150_000;
    }
    let replicas: u32 = if smoke { 6 } else { 24 };
    let workers = 4;

    // Phase 1: calibrate the scenario from an observed failure trace.
    let (cal, calibration_events) = calibrate_from_trace(&truth);
    let sc = truth.with_calibrated_mtbf(&cal);
    let mtbf_rel_err = (sc.fleet_mtbf_ns() - truth.fleet_mtbf_ns()).abs() / truth.fleet_mtbf_ns();

    // Phase 2: solve the checkpoint interval for both policies on one
    // shared trace set, then check local optimality independently.
    let traces = replica_traces(&sc, replicas, workers).expect("replica traces");
    let solve = |policy| {
        solve_on_traces(
            &sc,
            policy,
            DegradedMode::WaitForRestart,
            &traces,
            workers,
            4096,
        )
        .expect("solve")
    };
    let bubble = solve(PlacementPolicy::Bubble);
    let critical = solve(PlacementPolicy::CriticalPath);
    let optimality = vec![
        optimality_point(&sc, &bubble, &traces, workers),
        optimality_point(&sc, &critical, &traces, workers),
    ];

    // Phase 3: the goodput frontier over cluster size × MTBF × policy ×
    // elastic mode.
    let frontier_cfg = FrontierConfig::smoke(replicas, workers);
    let frontier = sweep_frontier(&sc, &frontier_cfg).expect("frontier");
    let report = FleetReport::new(
        &sc,
        replicas,
        vec![bubble.clone(), critical.clone()],
        frontier,
    );

    // Phase 4: re-render the whole report at a different worker count; the
    // study is a pure function of the scenario, so the text must match
    // byte for byte.
    let report_w1 = {
        let traces1 = replica_traces(&sc, replicas, 1).expect("replica traces");
        let solve1 = |policy| {
            solve_on_traces(&sc, policy, DegradedMode::WaitForRestart, &traces1, 1, 4096)
                .expect("solve")
        };
        let frontier1 = sweep_frontier(
            &sc,
            &FrontierConfig {
                workers: 1,
                ..frontier_cfg
            },
        )
        .expect("frontier");
        FleetReport::new(
            &sc,
            replicas,
            vec![
                solve1(PlacementPolicy::Bubble),
                solve1(PlacementPolicy::CriticalPath),
            ],
            frontier1,
        )
    };
    let worker_invariant = report.golden_text() == report_w1.golden_text();

    let study = Study {
        report,
        mtbf_rel_err,
        calibration_events,
        bubble,
        critical,
        optimality,
        worker_invariant,
    };

    let mut out = String::from(
        "== Fleet what-if: MTBF-calibrated Monte Carlo, checkpoint solver, goodput frontier ==\n",
    );
    out.push_str(&format!(
        "calibration: {} fault events ingested, fleet-MTBF rel err {:.2}%\n\n",
        study.calibration_events,
        study.mtbf_rel_err * 100.0
    ));
    let mut t = TextTable::new(vec![
        "Policy",
        "YD k",
        "Self k",
        "Exact k",
        "YD goodput",
        "Exact goodput",
        "Gap",
        "Evals",
    ]);
    for s in [&study.bubble, &study.critical] {
        t.row(vec![
            s.policy.label().into(),
            s.young_daly_k.to_string(),
            s.self_consistent_k.to_string(),
            s.exact_k.to_string(),
            format!("{:.4}", s.young_daly_goodput),
            format!("{:.4}", s.exact_goodput),
            format!("{:.2}%", s.gap_pct),
            s.evaluations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&study.report.golden_text());
    out.push_str(&format!(
        "\nworker-invariant report: {}\n",
        study.worker_invariant
    ));
    (out, study)
}
