//! Cluster expansion and the profile builders' `folded` route: simulating
//! the full `pp × tp × dp` cluster graph and projecting one pipeline back
//! must be *bit-identical* to simulating the base pipeline directly —
//! makespans, per-task timelines, bubble classification, profiles and
//! plan-search winners — across schedule families and grid widths. These
//! names are benchmark API; the default path simulates the base pipeline
//! once.

use optimus::baselines::common::SystemContext;
use optimus::cluster::DurNs;
use optimus::core::{
    expand_cluster, run_optimus, simulate_symmetric, LlmProfile, LlmScheduleKind, OptimusConfig,
};
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::pipeline::{
    interleaved_1f1b, lower, one_f_one_b, PipelineSchedule, PipelineSpec, StageSpec, TimedKernel,
};
use optimus::sim::{all_bubbles, simulate, TaskGraph};

fn small_spec(pp: u32, vpp: u32, n_mb: u32) -> PipelineSpec {
    let stage = StageSpec {
        fwd: vec![
            TimedKernel {
                label: "f",
                dur: DurNs(400),
                comm: false,
            },
            TimedKernel {
                label: "ag",
                dur: DurNs(50),
                comm: true,
            },
        ],
        bwd: vec![
            TimedKernel {
                label: "b",
                dur: DurNs(800),
                comm: false,
            },
            TimedKernel {
                label: "rs",
                dur: DurNs(50),
                comm: true,
            },
        ],
        bwd_weight: vec![],
        activation_bytes: 1 << 20,
        params_per_gpu: 1 << 20,
    };
    PipelineSpec {
        pp,
        vpp,
        n_microbatches: n_mb,
        stages: vec![stage; (pp * vpp) as usize],
        dp_allgather: DurNs(500),
        dp_reducescatter: DurNs(700),
        p2p: DurNs(30),
    }
}

fn schedule_for(pp: u32, vpp: u32, n_mb: u32) -> PipelineSchedule {
    if vpp > 1 {
        interleaved_1f1b(pp, vpp, n_mb, None).unwrap()
    } else {
        one_f_one_b(pp, n_mb).unwrap()
    }
}

fn lowered_graph(pp: u32, vpp: u32, n_mb: u32) -> TaskGraph {
    lower(
        &small_spec(pp, vpp, n_mb),
        &schedule_for(pp, vpp, n_mb),
        &[],
    )
    .unwrap()
    .graph
}

/// Copy `(0, 0)` of the simulated cluster graph, projected back, equals
/// the direct base simulation bit for bit — spans, makespan, and the full
/// bubble classification — across 1F1B, interleaved 1F1B, and a sweep of
/// TP-lane / DP-replica grid widths.
#[test]
fn folded_matches_full_across_schedules_and_grid_widths() {
    let cases = [
        (2u32, 1u32, 4u32, 2u32, 2u32), // 1F1B, 2×2 grid
        (2, 1, 4, 1, 3),                // 1F1B, DP-only replication
        (2, 1, 4, 4, 1),                // 1F1B, TP-only replication
        (3, 1, 5, 2, 2),                // deeper pipeline
        (2, 2, 4, 2, 2),                // interleaved 1F1B
    ];
    for (pp, vpp, n_mb, lanes, replicas) in cases {
        let base = lowered_graph(pp, vpp, n_mb);
        let cluster = expand_cluster(&base, lanes, replicas);
        let run = simulate_symmetric(&cluster.graph, &cluster.coords).unwrap();
        let direct = simulate(&base).unwrap();
        let projected = cluster.base_result(&run.result);
        assert_eq!(projected.makespan(), direct.makespan());
        assert_eq!(projected.spans(), direct.spans());
        assert_eq!(
            all_bubbles(&base, &projected),
            all_bubbles(&base, &direct),
            "bubble classification diverged at pp={pp} vpp={vpp} {lanes}×{replicas}"
        );
    }
}

/// The profile built from the cluster graph (`folded = true`) is
/// indistinguishable from the directly-simulated one: same makespan,
/// dependency points, device profiles, and raw spans.
#[test]
fn folded_profile_is_bit_identical_to_direct_profile() {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    for kind in [LlmScheduleKind::OneFOneB, LlmScheduleKind::ZeroBubble] {
        let plan = ParallelPlan::new(2, 2, 2).unwrap();
        let folded = LlmProfile::build_routed(&w, &plan, &ctx, true, kind, true).unwrap();
        let direct = LlmProfile::build_routed(&w, &plan, &ctx, true, kind, false).unwrap();
        assert_eq!(folded.makespan, direct.makespan);
        assert_eq!(folded.f_points, direct.f_points);
        assert_eq!(folded.b_points, direct.b_points);
        assert_eq!(folded.devices, direct.devices);
        assert_eq!(folded.result.spans(), direct.result.spans());
        assert_eq!(folded.result.makespan(), direct.result.makespan());
        let summary = folded
            .fold
            .expect("tp·dp > 1 routes through the cluster graph");
        assert_eq!(summary.devices_simulated, 8, "pp·tp·dp devices");
        assert!(direct.fold.is_none());
    }
}

/// The same holds for interleaved profiles (vpp > 1 exercises chunked
/// queues).
#[test]
fn folded_profile_matches_direct_for_interleaved_schedule() {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let plan = ParallelPlan::with_vpp(2, 2, 2, 2).unwrap();
    let kind = LlmScheduleKind::OneFOneB;
    let folded = LlmProfile::build_routed(&w, &plan, &ctx, true, kind, true).unwrap();
    let direct = LlmProfile::build_routed(&w, &plan, &ctx, true, kind, false).unwrap();
    assert_eq!(folded.makespan, direct.makespan);
    assert_eq!(folded.result.spans(), direct.result.spans());
    assert_eq!(folded.devices, direct.devices);
    assert!(folded.fold.is_some());
}

/// The end-to-end plan search picks the same winner — same latency, encoder
/// plan, partition, and placements — with `folded_sim` on or off, and for 1
/// or 4 search workers.
#[test]
fn plan_search_winner_invariant_under_folding_and_workers() {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let base = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    let reference = run_optimus(
        &w,
        &base.clone().with_folded_sim(false).with_search_workers(1),
        &ctx,
    )
    .unwrap();
    assert!(reference.profile.fold.is_none());
    for folded in [true, false] {
        for workers in [1usize, 4] {
            let run = run_optimus(
                &w,
                &base
                    .clone()
                    .with_folded_sim(folded)
                    .with_search_workers(workers),
                &ctx,
            )
            .unwrap();
            assert_eq!(run.outcome.latency, reference.outcome.latency);
            assert_eq!(run.enc_plan, reference.enc_plan);
            assert_eq!(run.outcome.partition, reference.outcome.partition);
            assert_eq!(run.outcome.placements, reference.outcome.placements);
            assert_eq!(run.report.iteration_secs, reference.report.iteration_secs);
            assert_eq!(run.profile.fold.is_some(), folded);
        }
    }
}

/// The default configuration, the default profile builders and a
/// default-config `run_optimus` simulate the base pipeline directly, even
/// where `tp · dp > 1`.
#[test]
fn default_path_is_direct() {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let plan = ParallelPlan::new(2, 2, 2).unwrap();
    let cfg = OptimusConfig::new(plan);
    assert!(!cfg.folded_sim);
    let run = run_optimus(&w, &cfg.with_search_workers(1), &ctx).unwrap();
    assert_eq!(run.profile.fold, None);
    let kind = LlmScheduleKind::OneFOneB;
    assert_eq!(LlmProfile::build(&w, &plan, &ctx).unwrap().fold, None);
    assert_eq!(
        LlmProfile::build_with(&w, &plan, &ctx, false).unwrap().fold,
        None
    );
    assert_eq!(
        LlmProfile::build_full(&w, &plan, &ctx, true, kind)
            .unwrap()
            .fold,
        None
    );
}
