//! Determinism: identical inputs must yield bit-identical schedules and
//! timings — the property that makes offline profiles trustworthy (§6) and
//! regression tests meaningful.

use optimus::baselines::common::SystemContext;
use optimus::baselines::megatron_lm;
use optimus::core::{run_optimus, OptimusConfig};
use optimus::modeling::Workload;
use optimus::parallel::ParallelPlan;
use optimus::sim::simulate;

#[test]
fn simulation_is_deterministic() {
    let w = Workload::small_model();
    let ctx = SystemContext::hopper(8).unwrap();
    let a = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let b = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    assert_eq!(a.result.makespan(), b.result.makespan());
    for (sa, sb) in a.result.spans().iter().zip(b.result.spans()) {
        assert_eq!(sa, sb);
    }
}

#[test]
fn resimulation_of_same_graph_matches() {
    let w = Workload::small_model();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let again = simulate(&run.lowered.graph).unwrap();
    assert_eq!(again.makespan(), run.result.makespan());
}

#[test]
fn optimus_schedule_is_deterministic() {
    let w = Workload::small_model();
    let ctx = SystemContext::hopper(8).unwrap();
    let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    let a = run_optimus(&w, &cfg, &ctx).unwrap();
    let b = run_optimus(&w, &cfg, &ctx).unwrap();
    assert_eq!(a.outcome.latency, b.outcome.latency);
    assert_eq!(a.enc_plan, b.enc_plan);
    assert_eq!(a.outcome.partition, b.outcome.partition);
    assert_eq!(a.outcome.placements.len(), b.outcome.placements.len());
    for (pa, pb) in a.outcome.placements.iter().zip(&b.outcome.placements) {
        assert_eq!(pa, pb);
    }
}

/// The parallel plan search must select a bit-identical plan, schedule,
/// and timeline for any worker count — the engine's reduction is a total
/// order, independent of thread interleave.
#[test]
fn parallel_search_is_worker_count_invariant() {
    let w = Workload::small_model();
    let ctx = SystemContext::hopper(8).unwrap();
    let base_cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    let baseline = run_optimus(&w, &base_cfg.clone().with_search_workers(1), &ctx).unwrap();
    assert_eq!(baseline.search.workers, 1);
    for workers in [2usize, 8] {
        let run = run_optimus(&w, &base_cfg.clone().with_search_workers(workers), &ctx).unwrap();
        assert_eq!(run.enc_plan, baseline.enc_plan, "workers={workers}");
        assert_eq!(run.outcome.latency, baseline.outcome.latency);
        assert_eq!(run.outcome.partition, baseline.outcome.partition);
        assert_eq!(run.outcome.prefix, baseline.outcome.prefix);
        assert_eq!(run.outcome.suffix, baseline.outcome.suffix);
        assert_eq!(run.outcome.ef, baseline.outcome.ef);
        assert_eq!(run.outcome.eb, baseline.outcome.eb);
        assert_eq!(
            run.outcome.placements.len(),
            baseline.outcome.placements.len()
        );
        for (pa, pb) in run
            .outcome
            .placements
            .iter()
            .zip(&baseline.outcome.placements)
        {
            assert_eq!(pa, pb);
        }
        assert_eq!(run.outcome.blocks.len(), baseline.outcome.blocks.len());
        assert_eq!(run.report.iteration_secs, baseline.report.iteration_secs);
        assert_eq!(run.candidates_evaluated, baseline.candidates_evaluated);
        assert_eq!(run.search.feasible, baseline.search.feasible);
        assert_eq!(run.search.work_items, baseline.search.work_items);
        // Worker accounting is coherent: claimed items cover the fan-out.
        let claimed: usize = run.search.per_worker.iter().map(|t| t.items).sum();
        assert_eq!(claimed, run.search.work_items);
        assert!(run.search.workers >= 1 && run.search.workers <= workers);
    }
}
