//! Integration tests for the calibration loop: chrome-trace round-trips over
//! real simulated runs (including fault-event instant tracks and annotations
//! carrying rendered report tables), bubble-profile reconstruction against
//! `optimus::core`'s own extraction, and the closed-loop recovery experiment
//! — perturbed-but-known hardware parameters are refitted from a synthetic
//! kernel log and the calibrated model must predict the observed timeline
//! strictly better than the uncalibrated default.

use optimus::baselines::common::SystemContext;
use optimus::baselines::megatron_lm;
use optimus::calibrate::{
    apply_profiles, closed_loop_input, fit, CalibrateError, FidelityReport, IngestedTrace,
    KernelLog,
};
use optimus::cluster::{ClusterTopology, LinkClass, LinkProfile};
use optimus::core::{fault_annotations, lowered_schedule, run_optimus, LlmProfile, OptimusConfig};
use optimus::faults::{FaultModel, FaultScenario};
use optimus::fill::{plan_fill, FillConfig, FillJob, PriorityClass};
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::trace::{FillTraceSpan, TraceAnnotation, FILL_TID};

fn small_workload() -> Workload {
    Workload::new(MllmConfig::small(), 8, 4, 1)
}

fn trace_text(graph: &optimus::sim::TaskGraph, result: &optimus::sim::SimResult) -> String {
    let mut buf = Vec::new();
    optimus::trace::write_chrome_trace(graph, result, &[], &[], &[], &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn chrome_round_trip_of_megatron_run_loses_nothing() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let text = trace_text(&run.lowered.graph, &run.result);
    let parsed = IngestedTrace::parse_chrome(&text).unwrap();
    // Zero interval loss: every task's span survives, bit-exact.
    assert_eq!(
        parsed,
        IngestedTrace::from_simulation(&run.lowered.graph, &run.result)
    );
    assert_eq!(parsed.num_spans(), run.lowered.graph.len());
    assert_eq!(parsed.makespan(), run.result.makespan().0 as i64);
}

#[test]
fn chrome_round_trip_of_faulted_run_with_table_annotations() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let faults = FaultModel::new(7)
        .with(FaultScenario::StragglerDevice {
            device: 0,
            slowdown: 1.5,
        })
        .unwrap()
        .with(FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 1.5,
        })
        .unwrap();
    let inj = faults.inject(&run.lowered.graph, &ctx.topo).unwrap();
    let result = optimus::sim::simulate(&inj.graph).unwrap();

    // Fault instants plus annotations whose detail text carries full
    // rendered tables (multi-line, box-drawing, quotes) — the hostile case
    // for string escaping in the writer and the parser.
    let mut anns = fault_annotations(&inj.events);
    assert!(!anns.is_empty(), "fixture should record fault events");
    let fault_tbl = optimus::trace::fault_table(&anns);
    let lint_tbl = optimus::trace::lint_table(&optimus::lint::lint_graph(&inj.graph));
    anns.push(TraceAnnotation {
        label: "fault_table".into(),
        device: 0,
        at_us: 0.0,
        detail: fault_tbl.clone(),
    });
    anns.push(TraceAnnotation {
        label: "lint_table".into(),
        device: 0,
        at_us: 0.0,
        detail: lint_tbl.clone(),
    });

    let mut buf = Vec::new();
    optimus::trace::write_chrome_trace(&inj.graph, &result, &anns, &[], &[], &mut buf).unwrap();
    let parsed = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();

    assert_eq!(
        parsed,
        {
            let mut expect = IngestedTrace::from_simulation(&inj.graph, &result);
            expect.annotations = parsed.annotations.clone();
            expect
        },
        "busy spans must survive the round-trip bit-exactly"
    );
    assert_eq!(parsed.num_spans(), inj.graph.len());
    assert_eq!(parsed.annotations.len(), anns.len());
    let recovered_fault = parsed
        .annotations
        .iter()
        .find(|a| a.label == "fault_table")
        .unwrap();
    assert_eq!(recovered_fault.detail, fault_tbl);
    let recovered_lint = parsed
        .annotations
        .iter()
        .find(|a| a.label == "lint_table")
        .unwrap();
    assert_eq!(recovered_lint.detail, lint_tbl);
}

#[test]
fn malformed_traces_are_typed_errors_through_the_facade() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let text = trace_text(&run.lowered.graph, &run.result);

    let truncated = &text[..text.len() - 20];
    assert!(matches!(
        IngestedTrace::parse_chrome(truncated),
        Err(CalibrateError::Json(_))
    ));

    let unknown_ph = text.replacen("\"ph\":\"X\"", "\"ph\":\"E\"", 1);
    assert!(matches!(
        IngestedTrace::parse_chrome(&unknown_ph),
        Err(CalibrateError::UnknownPhase { .. })
    ));

    let out_of_order = concat!(
        "[{\"name\":\"a\",\"cat\":\"compute\",\"ph\":\"X\",\"ts\":9,\"dur\":2,\"pid\":0,\"tid\":0},",
        "{\"name\":\"b\",\"cat\":\"compute\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":0,\"tid\":0}]"
    );
    assert!(matches!(
        IngestedTrace::parse_chrome(out_of_order),
        Err(CalibrateError::OutOfOrder { .. })
    ));
}

#[test]
fn ingested_bubble_profile_matches_core_extraction() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    // One-chunk 1F1B and the interleaved schedule (two virtual stages per
    // device), whose compute queues interleave chunks.
    for plan in [
        ParallelPlan::new(2, 2, 2).unwrap(),
        ParallelPlan::with_vpp(2, 2, 2, 2).unwrap(),
    ] {
        let p = LlmProfile::build_with(&w, &plan, &ctx, false).unwrap();

        // Round-trip the LLM-only simulation through chrome text, then
        // rebuild each device's bubble profile from the recovered spans: it
        // must equal the profile the planner extracted from the simulation
        // directly.
        let text = trace_text(&p.lowered.graph, &p.result);
        let trace = IngestedTrace::parse_chrome(&text).unwrap();
        assert_eq!(p.devices.len(), plan.pp as usize);
        for (d, expected) in p.devices.iter().enumerate() {
            let got = trace.device_profile(d as u32, p.makespan);
            assert_eq!(
                &got, expected,
                "vpp {} device {d} profile diverged",
                plan.vpp
            );
            assert!(!expected.interior.is_empty() && !expected.comm_windows.is_empty());
        }
    }
}

#[test]
fn closed_loop_fit_recovers_perturbed_parameters() {
    let base = ClusterTopology::hopper_cluster(32).unwrap();
    let (truth, log) = closed_loop_input(&base, 42, 60, 64);
    let cal = fit(&base, &log).unwrap();

    let truth_params = [
        ("matmul_efficiency", truth.gpu.matmul_efficiency),
        ("attention_efficiency", truth.gpu.attention_efficiency),
        ("membw_efficiency", truth.gpu.membw_efficiency),
        ("nvlink_bandwidth", truth.nvlink.bandwidth),
        ("nvlink_latency", truth.nvlink.latency),
        ("rdma_bandwidth", truth.rdma.bandwidth),
        ("rdma_latency", truth.rdma.latency),
    ];
    let fitted = cal.param_vector();
    assert_eq!(fitted.len(), truth_params.len());
    for ((name, value), (tname, tvalue)) in fitted.iter().zip(truth_params) {
        assert_eq!(*name, tname);
        let rel = (value - tvalue).abs() / tvalue.abs();
        assert!(
            rel <= 0.02,
            "{name}: fitted {value:e} vs truth {tvalue:e} (rel err {rel:e} > 2%)"
        );
    }
    // Every parameter actually moved away from its default, so the fit did
    // real work rather than inheriting base values.
    for p in &cal.params {
        assert!(p.samples > 0, "{} had no informing samples", p.name);
        assert!(p.rel_change() > 0.0, "{} never moved off its base", p.name);
    }
}

#[test]
fn fit_is_deterministic_across_runs_and_serialisation() {
    let base = ClusterTopology::hopper_cluster(32).unwrap();
    let (_, log) = closed_loop_input(&base, 9, 45, 48);
    let a = fit(&base, &log).unwrap();
    let b = fit(&base, &log).unwrap();
    assert_eq!(a.golden_text(), b.golden_text());

    // JSONL serialisation is lossless, so fitting the re-parsed log is
    // bit-identical too — the property the golden regression relies on.
    let reparsed = KernelLog::parse_jsonl(&log.to_jsonl()).unwrap();
    assert_eq!(reparsed, log);
    let c = fit(&base, &reparsed).unwrap();
    for ((_, x), (_, y)) in a.param_vector().iter().zip(c.param_vector()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn calibrated_model_beats_uncalibrated_baseline_on_fidelity() {
    // Ground truth: a 32-GPU cluster with perturbed hardware. The "observed"
    // timeline is an 8-GPU megatron run under the truth's profiles; the
    // predictions re-simulate under the default and calibrated models.
    let base32 = ClusterTopology::hopper_cluster(32).unwrap();
    let (truth, log) = closed_loop_input(&base32, 7, 60, 64);
    let cal = fit(&base32, &log).unwrap();

    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let true_ctx = ctx.with_topology(apply_profiles(&ctx.topo, &truth));

    let observed_run = megatron_lm(&w, (2, 2, 2), &true_ctx).unwrap();
    let observed =
        IngestedTrace::from_simulation(&observed_run.lowered.graph, &observed_run.result);

    let base_run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let predicted_base = IngestedTrace::from_simulation(&base_run.lowered.graph, &base_run.result);

    let cal_ctx = cal.context(&ctx);
    let cal_run = megatron_lm(&w, (2, 2, 2), &cal_ctx).unwrap();
    let predicted_cal = IngestedTrace::from_simulation(&cal_run.lowered.graph, &cal_run.result);

    let report_base = FidelityReport::compare(&observed, &predicted_base);
    let report_cal = FidelityReport::compare(&observed, &predicted_cal);

    assert!(
        report_base.makespan_rel_err > 0.0,
        "perturbation should move the observed makespan off the default model"
    );
    assert!(
        report_cal.makespan_rel_err < report_base.makespan_rel_err,
        "calibrated makespan error {:.4} must beat uncalibrated {:.4}",
        report_cal.makespan_rel_err,
        report_base.makespan_rel_err
    );
    // Near-perfect recovery: the calibrated re-simulation tracks the
    // observed timeline closely, not just its endpoint.
    assert!(
        report_cal.makespan_rel_err < 0.02,
        "calibrated makespan error {:.4} should be within 2%",
        report_cal.makespan_rel_err
    );
    assert!(report_cal.mean_overlap_err <= report_base.mean_overlap_err);
    assert!(report_cal.bubble_agreement >= 0.9);

    // The report renders through both sinks without panicking.
    let js = report_cal.to_json().to_compact();
    assert!(js.contains("bubble_agreement"));
    assert!(report_cal.table().contains("makespan"));
}

#[test]
fn chrome_round_trip_keeps_recovery_track_separate_and_bit_exact() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let faults = FaultModel::new(9)
        .with(FaultScenario::FailStop {
            device: 1,
            at: optimus::cluster::TimeNs(2_000_000),
            restart: optimus::cluster::DurNs::from_millis(5),
        })
        .unwrap();
    let inj = faults.inject(&run.lowered.graph, &ctx.topo).unwrap();
    let result = optimus::sim::simulate(&inj.graph).unwrap();
    let fault_anns = fault_annotations(&inj.events);
    assert!(!fault_anns.is_empty());

    // Recovery-lifecycle events, one carrying the full merged fault+recovery
    // table as its detail (multi-line text is the hostile escaping case).
    let mut recovery = vec![
        TraceAnnotation {
            label: "detection".into(),
            device: 1,
            at_us: 2100.0,
            detail: "fail-stop on dev 1 detected".into(),
        },
        TraceAnnotation {
            label: "rollback".into(),
            device: 1,
            at_us: 2600.5,
            detail: "rolled back to durable step 4".into(),
        },
        TraceAnnotation {
            label: "replay_done".into(),
            device: 1,
            at_us: 4200.25,
            detail: "caught up to step 6".into(),
        },
    ];
    let merged_tbl = optimus::trace::fault_table_with_recovery(&fault_anns, &recovery);
    recovery.push(TraceAnnotation {
        label: "recovery_table".into(),
        device: 0,
        at_us: 0.0,
        detail: merged_tbl.clone(),
    });

    let mut buf = Vec::new();
    optimus::trace::write_chrome_trace(&inj.graph, &result, &fault_anns, &recovery, &[], &mut buf)
        .unwrap();
    let parsed = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();

    // Busy spans still round-trip bit-exactly alongside the new track.
    assert_eq!(parsed, {
        let mut expect = IngestedTrace::from_simulation(&inj.graph, &result);
        expect.annotations = parsed.annotations.clone();
        expect
    });

    // Every event keeps its category: faults on the fault track, recovery
    // lifecycle events on the recovery track.
    assert_eq!(parsed.annotations.len(), fault_anns.len() + recovery.len());
    let recovered: Vec<_> = parsed
        .annotations
        .iter()
        .filter(|a| a.cat == "recovery")
        .collect();
    assert_eq!(recovered.len(), recovery.len());
    assert!(
        parsed
            .annotations
            .iter()
            .filter(|a| a.cat == "fault")
            .count()
            == fault_anns.len()
    );

    // Labels, devices, instants, and detail text are bit-exact.
    for (got, want) in recovered.iter().zip(&recovery) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.device, want.device);
        assert_eq!(got.at, (want.at_us * 1e3).round() as i64);
        assert_eq!(got.detail, want.detail);
    }
    assert_eq!(
        recovered.last().unwrap().detail,
        merged_tbl,
        "the embedded merged table must survive bit-exactly"
    );
}

#[test]
fn chrome_round_trip_keeps_fill_track_bit_exact() {
    // Plan bubble fill over the 8-GPU reference run, render the fill spans
    // on their dedicated chrome track, and ingest the trace back: every
    // fill span must survive with bit-exact nanosecond endpoints.
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let ctx = ctx.with_topology(ctx.topo.with_storage(LinkProfile {
        bandwidth: 80e9,
        latency: 100e-6,
    }));
    let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    // Schedule splicing (the lowered graph below) needs unadjusted
    // dependency points, same as the chaos reference harness.
    cfg.adjust_dep_points = false;
    let run = run_optimus(&w, &cfg, &ctx).unwrap();
    let jobs = [
        FillJob {
            name: "eval-suite".into(),
            priority: PriorityClass::Eval,
            chunk_ns: 2_000_000,
            chunks: 4,
            memory_bytes: 256 << 20,
            state_bytes: 64 << 20,
        },
        FillJob {
            name: "tokenize-shard".into(),
            priority: PriorityClass::Preprocess,
            chunk_ns: 1_000_000,
            chunks: 6,
            memory_bytes: 128 << 20,
            state_bytes: 0,
        },
    ];
    let plan = plan_fill(
        &run,
        cfg.llm_plan,
        &ctx.topo,
        &[],
        &jobs,
        &FillConfig::default(),
    )
    .unwrap();
    assert!(
        !plan.spans.is_empty(),
        "fixture jobs should place some work"
    );

    let lowered = lowered_schedule(&run, &w, &ctx).unwrap().graph;
    let result = optimus::sim::simulate(&lowered).unwrap();
    let fill: Vec<FillTraceSpan> = plan
        .spans
        .iter()
        .map(|s| FillTraceSpan {
            label: format!("fill {} {}", s.job, s.kind.label()),
            device: s.device,
            start_us: s.start as f64 / 1000.0,
            dur_us: s.dur() as f64 / 1000.0,
        })
        .collect();

    let mut buf = Vec::new();
    optimus::trace::write_chrome_trace(&lowered, &result, &[], &[], &fill, &mut buf).unwrap();
    let parsed = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();

    // The primary busy spans still round-trip bit-exactly next to the new
    // track, and the fill track holds exactly the planned spans.
    for (key, track) in IngestedTrace::from_simulation(&lowered, &result).tracks {
        assert_eq!(parsed.tracks.get(&key), Some(&track));
    }
    let mut total_fill = 0;
    for d in 0..plan.devices {
        let mut want: Vec<(i64, i64, String)> = plan
            .spans
            .iter()
            .filter(|s| s.device == d)
            .map(|s| (s.start, s.end, format!("fill {} {}", s.job, s.kind.label())))
            .collect();
        want.sort();
        let got = parsed.track(d, FILL_TID);
        assert_eq!(got.len(), want.len(), "device {d} fill span count");
        total_fill += got.len();
        for (g, (ws, we, wl)) in got.iter().zip(&want) {
            assert_eq!(g.cat, "fill");
            assert_eq!(&g.label, wl);
            assert_eq!(g.start, *ws, "span {wl} start drifted");
            assert_eq!(g.end, *we, "span {wl} end drifted");
        }
    }
    assert_eq!(total_fill, plan.spans.len());
}
