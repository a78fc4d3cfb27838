//! `run_optimus`, rebuilt from outside out of the library's public
//! functions, with a span around each layer call.
//!
//! The traced runs plan through [`plan_traced`] instead of `run_optimus`, so
//! every layer's time is measured where it is spent: `plan_model`, the
//! profile (`LlmProfile::build_routed`), the search fan-out
//! (`search_plan_chunks` over `EncoderWork::build`, `BubbleScheduler::new`,
//! `candidate_partitions`, `schedule_slice`), the coarse-efficiency pass
//! (`BubbleScheduler::schedule`), and `lint_run`. [`same_run`] checks the
//! result against `run_optimus` field by field, so a decomposition that
//! drifts from the library fails the benchmark instead of timing the wrong
//! thing.

use std::sync::atomic::{AtomicU64, Ordering};

use optimus_baselines::common::{make_report, SystemContext};
use optimus_core::{
    lint_run, optimus_memory, plan_chunks, plan_model, search_plan_chunks, BubbleScheduler,
    CandidateVerdict, EncoderCandidate, EncoderWork, LintMode, LlmProfile, OptimusConfig,
    OptimusError, OptimusRun, SearchChunk,
};
use optimus_modeling::Workload;
use optimus_parallel::{composition_count, ColocationLayout};
use optimus_pipeline::{dependency_points, lower};

use crate::span::{SpanId, Tracer};

/// Partitions per search work item; mirrors the engine's own chunking so the
/// work-item count matches `SearchStats::work_items` of `run_optimus`.
const PARTITIONS_PER_ITEM: usize = 8;

fn build_work(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
    plan: &optimus_parallel::ParallelPlan,
) -> Result<EncoderWork, OptimusError> {
    let mb = u64::from(w.microbatch_size);
    if cfg.frozen_encoder {
        EncoderWork::build_frozen(&w.mllm, plan, mb, ctx)
    } else {
        EncoderWork::build(&w.mllm, plan, mb, ctx)
    }
}

fn scheduler<'a>(
    cfg: &OptimusConfig,
    profile: &'a LlmProfile,
    work: &'a EncoderWork,
    layout: &'a ColocationLayout,
) -> Result<BubbleScheduler<'a>, OptimusError> {
    let s = BubbleScheduler::new(profile, work, layout)?
        .with_margin(cfg.bubble_margin)
        .with_slack(cfg.bubble_slack);
    match &cfg.mb_scales {
        Some(sc) => s.with_scales(sc.clone()),
        None => Ok(s),
    }
}

/// A cold plan (`run_optimus` without hints), one span per layer call, all
/// caused by `parent`. Also returns the partitions handed to
/// `schedule_slice`, a count `OptimusRun` does not carry.
pub fn plan_traced(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
    tr: &Tracer,
    parent: SpanId,
) -> Result<(OptimusRun, u64), OptimusError> {
    let planner = {
        let _s = tr.span("planner", parent);
        plan_model(w, &cfg.llm_plan, ctx.topo.gpu.hbm_capacity)?
    };
    let profile = {
        let _s = tr.span("profile", parent);
        LlmProfile::build_routed(
            w,
            &cfg.llm_plan,
            ctx,
            cfg.adjust_dep_points,
            cfg.llm_schedule,
            cfg.folded_sim,
        )?
    };
    let n_mb = profile.n_microbatches();
    let chunks = plan_chunks(&planner.candidates, PARTITIONS_PER_ITEM, |i| {
        let m = planner.candidates[i].layout.pipelines_per_llm_pipeline();
        let total = composition_count(n_mb, m);
        if n_mb < m || total == 0 {
            1
        } else {
            total.min(cfg.max_partitions.max(1) as u128) as usize
        }
    });

    let partitions = AtomicU64::new(0);
    let search_span = tr.span("search", parent);
    let search_id = search_span.id();
    let eval =
        |chunk: &SearchChunk, cand: &EncoderCandidate| -> Result<CandidateVerdict, OptimusError> {
            let item = tr.span("search.item", search_id);
            let built = {
                let _s = tr.span("search.encoder_build", item.id());
                build_work(w, cfg, ctx, &cand.plan)
            };
            let Ok(work) = built else {
                return Ok(CandidateVerdict::BuildFailed);
            };
            let sched = {
                let _s = tr.span("search.scheduler_build", item.id());
                scheduler(cfg, &profile, &work, &cand.layout)?
            };
            let parts = {
                let _s = tr.span("search.enumerate", item.id());
                sched.candidate_partitions(cfg.max_partitions)
            };
            let Ok(parts) = parts else {
                return Ok(CandidateVerdict::Infeasible);
            };
            let hi = chunk.hi.min(parts.len());
            if chunk.lo >= hi {
                return Ok(CandidateVerdict::Infeasible);
            }
            partitions.fetch_add((hi - chunk.lo) as u64, Ordering::Relaxed);
            let _s = tr.span("search.slice", item.id());
            Ok(
                match sched.schedule_slice(&parts[chunk.lo..hi], cfg.fine_grained) {
                    Some(outcome) => CandidateVerdict::Feasible(outcome),
                    None => CandidateVerdict::Infeasible,
                },
            )
        };
    let search = search_plan_chunks(&planner.candidates, &chunks, cfg.search_workers, eval)?;
    drop(search_span);

    let stats = search.stats;
    let (best_idx, outcome) = search.best.ok_or_else(|| {
        OptimusError::Infeasible("no encoder plan produced a feasible schedule".into())
    })?;
    let enc_plan = planner.candidates[best_idx].plan;
    let layout = ColocationLayout::new(cfg.llm_plan, enc_plan)
        .map_err(|e| OptimusError::Setup(e.to_string()))?;
    let eff_coarse = {
        let _s = tr.span("coarse", parent);
        let work = build_work(w, cfg, ctx, &enc_plan)?;
        scheduler(cfg, &profile, &work, &layout)?
            .schedule(cfg.max_partitions, false)
            .map(|o| o.efficiency())
            .unwrap_or(0.0)
    };
    let memory = optimus_memory(w, &enc_plan, &cfg.llm_plan, n_mb);
    let lint = match cfg.lint {
        LintMode::Off => optimus_lint::LintReport::default(),
        LintMode::Warn | LintMode::Deny => {
            let _s = tr.span("lint", parent);
            let report = lint_run(
                &outcome,
                &profile,
                &layout,
                enc_plan.tp,
                &memory,
                ctx.topo.gpu.hbm_capacity,
            );
            if cfg.lint == LintMode::Deny && report.has_errors() {
                return Err(OptimusError::LintFailed {
                    diagnostics: report.errors().map(|d| d.summary()).collect(),
                });
            }
            report
        }
    };
    let report = make_report("Optimus", w, ctx, outcome.latency_secs(), &memory);
    let eff_fine = outcome.efficiency();
    let run = OptimusRun {
        report,
        enc_plan,
        outcome,
        profile,
        memory,
        eff_coarse,
        eff_fine,
        planner_pruned: planner.pruned,
        candidates_evaluated: stats.evaluated,
        search: stats,
        warm: None,
        lint,
    };
    Ok((run, partitions.into_inner()))
}

/// Re-runs the profile's own steps — lowering, the (folded) cluster
/// simulation, and dependency-point extraction — in the order
/// `LlmProfile::build_routed` calls them, one span each, and checks that
/// the replay reproduces `profile`. The spans give the split of
/// `profile.ms` that `build_routed` does not expose.
pub fn replay_profile(
    profile: &LlmProfile,
    folded: bool,
    tr: &Tracer,
    parent: SpanId,
) -> Result<(), String> {
    let plan = profile.llm_plan;
    let lowered = {
        let _s = tr.span("profile.lower", parent);
        lower(&profile.spec, &profile.schedule, &[]).map_err(|e| e.to_string())?
    };
    let result = {
        let _s = tr.span("profile.fold_sim", parent);
        if folded && plan.tp * plan.dp > 1 {
            let cluster = optimus_core::expand_cluster(&lowered.graph, plan.tp, plan.dp);
            let run = optimus_core::simulate_symmetric(&cluster.graph, &cluster.coords)
                .map_err(|e| e.to_string())?;
            cluster.base_result(&run.result)
        } else {
            optimus_sim::simulate(&lowered.graph).map_err(|e| e.to_string())?
        }
    };
    let dep = {
        let _s = tr.span("profile.dep_points", parent);
        dependency_points(
            &lowered,
            &result,
            profile.n_microbatches(),
            profile.adjusted,
        )
        .map_err(|e| e.to_string())?
    };
    let f: Vec<i64> = dep.forward.iter().map(|t| t.0 as i64).collect();
    let b: Vec<i64> = dep.backward.iter().map(|t| t.0 as i64).collect();
    if lowered.graph.len() != profile.lowered.graph.len()
        || result.spans() != profile.result.spans()
        || result.makespan() != profile.result.makespan()
        || f != profile.f_points
        || b != profile.b_points
    {
        return Err("profile replay differs from LlmProfile::build_routed".into());
    }
    Ok(())
}

/// Field-by-field comparison of two runs of the same configuration, ignoring
/// wall-clock fields. `Err` names the first field that differs.
pub fn same_run(a: &OptimusRun, b: &OptimusRun) -> Result<(), String> {
    let checks: [(&str, bool); 16] = [
        ("enc_plan", a.enc_plan == b.enc_plan),
        ("outcome", a.outcome == b.outcome),
        (
            "eff_coarse",
            a.eff_coarse.to_bits() == b.eff_coarse.to_bits(),
        ),
        ("eff_fine", a.eff_fine.to_bits() == b.eff_fine.to_bits()),
        ("report", a.report == b.report),
        ("memory", a.memory == b.memory),
        ("planner_pruned", a.planner_pruned == b.planner_pruned),
        (
            "candidates_evaluated",
            a.candidates_evaluated == b.candidates_evaluated,
        ),
        (
            "search.candidates",
            a.search.candidates == b.search.candidates,
        ),
        (
            "search.work_items",
            a.search.work_items == b.search.work_items,
        ),
        ("search.feasible", a.search.feasible == b.search.feasible),
        ("lint", a.lint == b.lint),
        ("profile.makespan", a.profile.makespan == b.profile.makespan),
        (
            "profile.points",
            a.profile.f_points == b.profile.f_points && a.profile.b_points == b.profile.b_points,
        ),
        ("profile.devices", a.profile.devices == b.profile.devices),
        ("profile.fold", a.profile.fold == b.profile.fold),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        Some((field, _)) => Err(format!("{field} differs")),
        None => Ok(()),
    }
}
