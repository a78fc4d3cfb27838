//! `table7`: cold planning of ViT-22B+GPT-175B at 1536/2048/3072 GPUs —
//! the paper's Table 7 planner runtime, with the default `OptimusConfig`.
//!
//! One operation is one cold `run_optimus` at one scale; the seed only
//! permutes the order of the three scales. Every chosen plan is checked
//! against the values this benchmark was defined with, so a faster planner
//! that picks a different plan fails the run. The traced run plans through
//! the outside-in decomposition instead and checks it against
//! `run_optimus` field by field.

use std::collections::BTreeMap;
use std::time::Instant;

use optimus_baselines::common::SystemContext;
use optimus_core::{run_optimus, LlmProfile, OptimusConfig, OptimusRun};
use optimus_detrand as rand;
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;
use rand::{RngExt, SeedableRng};

use crate::decompose::{plan_traced, replay_profile, same_run};
use crate::layers::{span_ms, span_self_ms};
use crate::outcome::{ms_since, timed_setups, Outcome, CHEAP_SETUP, ONE_SETUP};
use crate::span::Tracer;
use crate::Args;

/// One scale's expected answer: GPUs, encoder plan `(dp, pp, tp, vpp)`,
/// latency in ns, `eff_coarse`, `eff_fine` (compared bit for bit).
type Golden = (u32, (u32, u32, u32, u32), i64, f64, f64);

/// The answers at the commit that defined this benchmark (Eff_coarse
/// 25.1/33.6/50.7%, Eff_fine 89.2/85.7/78.7%).
const GOLDEN: [Golden; 3] = [
    (
        1536,
        (48, 4, 8, 1),
        5_847_209_917,
        0.2509081742314143,
        0.8918701275066377,
    ),
    (
        2048,
        (64, 4, 8, 1),
        4_537_625_602,
        0.33582904053327844,
        0.8565668409366523,
    ),
    (
        3072,
        (96, 4, 8, 1),
        3_228_298_088,
        0.5073678527152203,
        0.7868761581270017,
    ),
];

struct Scale {
    w: Workload,
    cfg: OptimusConfig,
    ctx: SystemContext,
}

fn scales(workers: usize) -> Vec<Scale> {
    Workload::strong_scaling()
        .into_iter()
        .map(|(w, (dp, pp, tp), vpp)| {
            let ctx = SystemContext::hopper(w.num_gpus).expect("strong-scaling cluster");
            let plan = ParallelPlan::with_vpp(dp, pp, tp, vpp).expect("strong-scaling LLM plan");
            let cfg = OptimusConfig::new(plan).with_search_workers(workers);
            Scale { w, cfg, ctx }
        })
        .collect()
}

/// Set-up: build the three problems and warm the process (allocator, code
/// pages, worker pool) with one 8-GPU plan.
fn setup(workers: usize) -> Vec<Scale> {
    let w = Workload::small_model();
    let ctx = SystemContext::hopper(w.num_gpus).expect("8-GPU cluster");
    let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).expect("small LLM plan"))
        .with_search_workers(workers);
    std::hint::black_box(run_optimus(&w, &cfg, &ctx).expect("warm-up plan"));
    scales(workers)
}

fn check_golden(out: &mut Outcome, gpus: u32, run: &OptimusRun) {
    let Some(&(_, (dp, pp, tp, vpp), lat, coarse, fine)) = GOLDEN.iter().find(|g| g.0 == gpus)
    else {
        out.check(false, || format!("no expected answer for {gpus} GPUs"));
        return;
    };
    let p = run.enc_plan;
    out.check(
        (p.dp, p.pp, p.tp, p.vpp) == (dp, pp, tp, vpp)
            && run.outcome.latency == lat
            && run.eff_coarse.to_bits() == coarse.to_bits()
            && run.eff_fine.to_bits() == fine.to_bits(),
        || {
            format!(
                "{gpus} GPUs: got plan {p:?}, latency {} ns, eff {}/{}; expected \
                 ({dp},{pp},{tp},{vpp}), {lat} ns, {coarse}/{fine}",
                run.outcome.latency, run.eff_coarse, run.eff_fine
            )
        },
    );
}

fn count_run(out: &mut Outcome, run: &OptimusRun) {
    out.count("planner.candidates", run.search.candidates as u64);
    out.count("planner.pruned", run.planner_pruned as u64);
    out.count("search.items", run.search.work_items as u64);
    out.count("search.evaluated", run.search.evaluated as u64);
    out.count("search.feasible", run.search.feasible as u64);
    out.count("profile.tasks", run.profile.lowered.graph.len() as u64);
    out.count(
        "profile.devices_simulated",
        run.profile.fold.map_or(0, |f| f.devices_simulated as u64),
    );
    out.count("kernels_placed", run.outcome.placements.len() as u64);
    out.count("coarse_blocks", run.outcome.blocks.len() as u64);
    out.count("lint.diagnostics", run.lint.diagnostics.len() as u64);
}

/// Search-pool accounting summed over plans: (busy ns, workers × wall ns).
fn pool_time(run: &OptimusRun) -> (f64, f64) {
    let s = &run.search;
    (
        s.busy_total().as_secs_f64() * 1e9,
        s.workers as f64 * s.wall.as_secs_f64() * 1e9,
    )
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let workers = args.workers;
    let mut order = vec![0usize, 1, 2];
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let reps = if tr.enabled() { ONE_SETUP } else { CHEAP_SETUP };
    let (problems, secs) = timed_setups(reps, || setup(workers));
    out.setup_s = secs;

    let (mut busy, mut capacity) = (0.0, 0.0);
    let mut partitions = 0u64;
    let start = Instant::now();
    let mut prev = BTreeMap::new();
    for &i in &order {
        let p = &problems[i];
        let gpus = p.w.num_gpus;
        let t0 = Instant::now();
        let run = if tr.enabled() {
            let root = tr.span("plan", 0);
            let r = plan_traced(&p.w, &p.cfg, &p.ctx, tr, root.id());
            drop(root);
            let ms = ms_since(t0);
            out.op(&format!("traced plan at {gpus} GPUs"), r)
                .map(|(run, n)| {
                    partitions += n;
                    (run, ms)
                })
        } else {
            let r = run_optimus(&p.w, &p.cfg, &p.ctx);
            let ms = ms_since(t0);
            out.op(&format!("run_optimus at {gpus} GPUs"), r)
                .map(|run| (run, ms))
        };
        let Some((run, ms)) = run else { continue };
        out.ops_ms.push(ms);
        check_golden(&mut out, gpus, &run);
        count_run(&mut out, &run);
        let (b, c) = pool_time(&run);
        busy += b;
        capacity += c;
        if tr.enabled() {
            // Outside the plan span: the profile's own steps, replayed for
            // their split, then the reference run the decomposition must
            // reproduce bit for bit.
            let replay = tr.span("profile.replay", 0);
            let r = replay_profile(&run.profile, p.cfg.folded_sim, tr, replay.id());
            drop(replay);
            out.check(r.is_ok(), || format!("{gpus} GPUs: {}", r.unwrap_err()));
            // The same profile without folding: what the fold costs.
            let unfolded = {
                let _s = tr.span("profile.unfolded", 0);
                LlmProfile::build_routed(
                    &p.w,
                    &p.cfg.llm_plan,
                    &p.ctx,
                    p.cfg.adjust_dep_points,
                    p.cfg.llm_schedule,
                    false,
                )
            };
            if let Some(u) = out.op("unfolded profile", unfolded) {
                out.check(
                    u.result.spans() == run.profile.result.spans()
                        && u.f_points == run.profile.f_points
                        && u.b_points == run.profile.b_points
                        && u.devices == run.profile.devices,
                    || format!("{gpus} GPUs: unfolded profile differs from the folded one"),
                );
            }
            if let Some(reference) =
                out.op("reference run_optimus", run_optimus(&p.w, &p.cfg, &p.ctx))
            {
                let same = same_run(&run, &reference);
                out.check(same.is_ok(), || {
                    format!(
                        "{gpus} GPUs: decomposition vs run_optimus: {}",
                        same.unwrap_err()
                    )
                });
            }
            let now = tr.summary();
            let d = |name: &str| span_ms(&now, name) - span_ms(&prev, name);
            out.note(format!(
                "{gpus} GPUs: plan {:.0} ms = planner {:.0} + profile {:.0} (lower {:.0}, fold+sim \
                 {:.0}, dep points {:.0} replayed; {:.0} unfolded) + search {:.0} + coarse {:.0} + \
                 lint {:.0}; {} items",
                ms,
                d("planner"),
                d("profile"),
                d("profile.lower"),
                d("profile.fold_sim"),
                d("profile.dep_points"),
                d("profile.unfolded"),
                d("search"),
                d("coarse"),
                d("lint"),
                run.search.work_items
            ));
            prev = now;
        } else {
            out.note(format!(
                "{gpus} GPUs: plan {ms:.0} ms, encoder plan {:?}, eff {:.1}%/{:.1}%, {} items",
                run.enc_plan,
                run.eff_coarse * 100.0,
                run.eff_fine * 100.0,
                run.search.work_items
            ));
        }
    }
    out.measured_s = start.elapsed().as_secs_f64();
    if tr.enabled() {
        out.count("search.partitions", partitions);
    }

    let n = out.ops_ms.len().max(1) as f64;
    let sum = tr.summary();
    for (metric, span) in [
        ("planner.ms", "planner"),
        ("profile.ms", "profile"),
        ("profile.lower_ms", "profile.lower"),
        ("profile.fold_sim_ms", "profile.fold_sim"),
        ("profile.dep_points_ms", "profile.dep_points"),
        ("profile.unfolded_ms", "profile.unfolded"),
        ("search.ms", "search"),
        ("search.encoder_build_ms", "search.encoder_build"),
        ("search.scheduler_build_ms", "search.scheduler_build"),
        ("search.enumerate_ms", "search.enumerate"),
        ("search.slice_ms", "search.slice"),
        ("coarse.ms", "coarse"),
        ("lint.ms", "lint"),
    ] {
        out.layer(metric, span_ms(&sum, span) / n);
    }
    out.layer("search.self_ms", span_self_ms(&sum, "search") / n);
    out.layer("plan.self_ms", span_self_ms(&sum, "plan") / n);
    for (metric, counter) in [
        ("planner.candidates", "planner.candidates"),
        ("planner.pruned", "planner.pruned"),
        ("search.items", "search.items"),
        ("search.partitions", "search.partitions"),
        ("search.kernels_placed", "kernels_placed"),
        ("profile.tasks", "profile.tasks"),
        ("profile.devices_simulated", "profile.devices_simulated"),
        ("lint.diagnostics", "lint.diagnostics"),
    ] {
        let total = out.counters.get(counter).copied().unwrap_or(0);
        out.layer(metric, total as f64 / n);
    }
    out.layer("search.workers", workers as f64);
    out.layer(
        "search.worker_idle_frac",
        if capacity > 0.0 {
            1.0 - busy / capacity
        } else {
            0.0
        },
    );
    let evaluated = out.counters.get("search.evaluated").copied().unwrap_or(0);
    let feasible = out.counters.get("search.feasible").copied().unwrap_or(0);
    out.layer(
        "search.feasible_frac",
        feasible as f64 / evaluated.max(1) as f64,
    );
    out
}
