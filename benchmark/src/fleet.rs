//! `fleet-month`: the fleet what-if on the synthetic-month scenario.
//!
//! Set-up draws the scenario's Monte Carlo seed from `--seed` and writes the
//! observed failure telemetry: a classed failure trace over one priced month,
//! as a Chrome fault-event trace. (The fleet study observes twice the
//! longest plan's wall, about 26 times as long; `optimus_json` parses
//! strings in time quadratic in the input, so ingesting that takes about a
//! minute. See NOTES.md.) One operation is one
//! what-if pass over it: calibrate per-class MTBF from the telemetry,
//! generate the replica failure traces, solve the checkpoint interval for
//! both placement policies, price each solved interval on the lifecycle
//! ledger with every replica audited, and sweep the goodput frontier. Every
//! pass must render the same report, and a pass on one worker must render
//! it byte for byte.

use std::time::{Duration, Instant};

use optimus_calibrate::{fit_mtbf, IngestedTrace};
use optimus_fleet::{
    evaluate, replica_traces, solve_on_traces, sweep_frontier, FleetReport, FleetScenario,
    FrontierConfig,
};
use optimus_recovery::{ClassedTrace, DegradedMode, PlacementPolicy};
use optimus_trace::{write_fault_event_trace, TraceAnnotation};

use crate::layers::{span_ms, span_self_ms};
use crate::outcome::{ms_since, timed_setups, Outcome, CHEAP_SETUP, ONE_SETUP};
use crate::span::{SpanId, Tracer};
use crate::Args;

/// Monte Carlo replicas per study and per frontier cell.
const REPLICAS: u32 = 24;
/// Interval-search bound, steps.
const K_MAX: u32 = 4096;

/// What one pass produced.
struct Pass {
    report: String,
    evaluations: u64,
    failures: u64,
    cells: u64,
    audited: u64,
}

/// The scenario, its observation window (ns) and the telemetry observed in
/// it (Chrome fault-event JSON).
fn setup(seed: u64) -> Result<(FleetScenario, u64, String), String> {
    let mut truth = FleetScenario::synthetic();
    truth.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    truth.validate().map_err(|e| e.to_string())?;
    let window = u64::from(truth.horizon_steps) * u64::try_from(truth.step_ns).unwrap_or(0);
    let classed = ClassedTrace::generate(
        truth.seed ^ 0xCA11_B4A7_E000_0000,
        window,
        truth.num_devices,
        &truth.specs,
    )
    .map_err(|e| e.to_string())?;
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
    write_fault_event_trace(&faults, &[], &mut buf).map_err(|e| e.to_string())?;
    let observed = String::from_utf8(buf).map_err(|e| e.to_string())?;
    Ok((truth, window, observed))
}

fn pass(
    truth: &FleetScenario,
    window: u64,
    observed: &str,
    workers: usize,
    tr: &Tracer,
    parent: SpanId,
) -> Result<Pass, String> {
    let sc = {
        let _s = tr.span("fleet.calibrate", parent);
        let ingested = IngestedTrace::parse_chrome(observed).map_err(|e| e.to_string())?;
        let cal = fit_mtbf(&ingested.annotations, window, truth.num_devices)
            .map_err(|e| e.to_string())?;
        truth.with_calibrated_mtbf(&cal)
    };
    let traces = {
        let _s = tr.span("fleet.traces", parent);
        replica_traces(&sc, REPLICAS, workers).map_err(|e| e.to_string())?
    };
    let solved = {
        let _s = tr.span("fleet.solver", parent);
        [PlacementPolicy::Bubble, PlacementPolicy::CriticalPath]
            .into_iter()
            .map(|policy| {
                solve_on_traces(
                    &sc,
                    policy,
                    DegradedMode::WaitForRestart,
                    &traces,
                    workers,
                    K_MAX,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
    };
    let (failures, audited) = {
        let _s = tr.span("fleet.ledger", parent);
        let params = sc
            .recovery_params(DegradedMode::WaitForRestart)
            .map_err(|e| e.to_string())?;
        let useful = i64::from(sc.horizon_steps) * sc.step_ns;
        let (mut failures, mut audited) = (0u64, 0u64);
        for s in &solved {
            let plan = sc.plan(s.policy, s.exact_k);
            let study = evaluate(&plan, &traces, &params, sc.horizon_steps, workers)
                .map_err(|e| e.to_string())?;
            for o in &study.outcomes {
                if o.wall_ns != useful + o.lost.total() {
                    return Err(format!("replica {} ledger does not balance", o.replica));
                }
                failures += u64::from(o.failures);
                audited += 1;
            }
        }
        (failures, audited)
    };
    let frontier = {
        let _s = tr.span("fleet.frontier", parent);
        sweep_frontier(&sc, &FrontierConfig::smoke(REPLICAS, workers)).map_err(|e| e.to_string())?
    };
    let evaluations = solved.iter().map(|s| u64::from(s.evaluations)).sum();
    let cells = frontier.len() as u64;
    let report = FleetReport::new(&sc, REPLICAS, solved, frontier).golden_text();
    Ok(Pass {
        report,
        evaluations,
        failures,
        cells,
        audited,
    })
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let reps = if tr.enabled() { ONE_SETUP } else { CHEAP_SETUP };
    let (prepared, secs) = timed_setups(reps, || setup(args.seed));
    out.setup_s = secs;
    let Some((truth, window, observed)) = out.op("fleet set-up", prepared) else {
        return out;
    };

    let mut first: Option<Pass> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while first.is_none() || start.elapsed() < budget {
        let t0 = Instant::now();
        let root = tr.span("fleet", 0);
        let res = pass(&truth, window, &observed, args.workers, tr, root.id());
        drop(root);
        let ms = ms_since(t0);
        let Some(p) = out.op("what-if pass", res) else {
            break;
        };
        out.ops_ms.push(ms);
        match &first {
            None => {
                out.count("fleet.solver_evaluations", p.evaluations);
                out.count("fleet.failures_priced", p.failures);
                out.count("fleet.replicas_audited", p.audited);
                out.count("fleet.frontier_cells", p.cells);
                first = Some(p);
            }
            Some(f) => {
                out.check(
                    f.report == p.report && f.evaluations == p.evaluations,
                    || "a repeated pass rendered a different report".into(),
                );
            }
        }
    }
    out.measured_s = start.elapsed().as_secs_f64();

    let Some(first) = first else { return out };
    // Worker-count invariance, outside the measured loop and untraced.
    let one = pass(&truth, window, &observed, 1, &Tracer::new(false), 0).map(|p| p.report);
    out.check(one.as_ref() == Ok(&first.report), || {
        "report at 1 worker differs from the report at nproc workers".into()
    });
    out.note(format!(
        "{} passes; {} solver evaluations, {} failures priced over {} audited replicas, {} \
         frontier cells per pass",
        out.ops_ms.len(),
        first.evaluations,
        first.failures,
        first.audited,
        first.cells
    ));

    let sum = tr.summary();
    let passes = sum.get("fleet").map_or(0, |t| t.calls).max(1) as f64;
    for (metric, span) in [
        ("fleet.calibrate_ms", "fleet.calibrate"),
        ("fleet.traces_ms", "fleet.traces"),
        ("fleet.solver_ms", "fleet.solver"),
        ("fleet.ledger_ms", "fleet.ledger"),
        ("fleet.frontier_ms", "fleet.frontier"),
    ] {
        out.layer(metric, span_ms(&sum, span) / passes);
    }
    out.layer("fleet.self_ms", span_self_ms(&sum, "fleet") / passes);
    out.layer("fleet.replicas", f64::from(REPLICAS));
    out.layer("fleet.evaluations", first.evaluations as f64);
    out.layer("fleet.workers", args.workers as f64);
    out
}
