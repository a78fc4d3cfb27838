//! `resim-robust`: re-simulation of verified schedules under a seeded stream
//! of duration-only rewrites.
//!
//! Set-up plans weak-scaling Model A at 64 GPUs and Model D at 512 GPUs with
//! `adjust_dep_points = false`, splices each chosen schedule into its task
//! graph (`lowered_schedule`) and checks it with `verify`. One operation then
//! rewrites one graph's durations — `perturb_uniform` at a seeded ε, or
//! `FaultModel::inject` with a straggler or a degraded link — simulates it,
//! runs the slack analysis and measures the bubble breakdown. The stream
//! re-simulates Model A four times per Model D re-simulation, so whatever
//! the seed the median is a Model A step and p90 the median Model D step.
//!
//! `critical_path` is not in the loop: it rescans a whole stream per path
//! step (1.6 s on Model A, 4.1 s on Model D), which would leave a handful
//! of operations per run. The traced run times it once per schedule.

use std::time::{Duration, Instant};

use optimus_baselines::common::SystemContext;
use optimus_cluster::TimeNs;
use optimus_cluster::{ClusterTopology, LinkClass};
use optimus_core::{lowered_schedule, perturb_uniform, run_optimus, verify, OptimusConfig};
use optimus_detrand as rand;
use optimus_faults::{FaultModel, FaultScenario};
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;
use optimus_sim::analysis::{critical_path, slack};
use optimus_sim::{simulate, BubbleBreakdown, TaskGraph};
use rand::{Rng, RngExt, SeedableRng};

use crate::decompose::plan_traced;
use crate::layers::{span_ms, span_self_ms};
use crate::outcome::{ms_since, timed_setups, Outcome, SetupReps, ONE_SETUP};
use crate::span::{SpanId, Tracer};
use crate::Args;

/// Set-ups per untraced run (each plans both models, about 13 s).
const SETUP_REPS: SetupReps = SetupReps {
    min_reps: 2,
    min_secs: 0.0,
};
/// Operations the deterministic counters cover: a prefix every run
/// completes, however short `--seconds` is.
const COUNTED: usize = 30;
/// Relative error `verify` accepts between estimate and re-simulation.
const VERIFY_TOLERANCE: f64 = 0.10;

/// One verified schedule, ready to re-simulate.
struct Target {
    name: String,
    graph: TaskGraph,
    topo: ClusterTopology,
    makespan: TimeNs,
}

/// Plans, splices and verifies one weak-scaling configuration.
fn prepare(
    idx: usize,
    workers: usize,
    out: &mut Outcome,
    tr: &Tracer,
    parent: SpanId,
) -> Option<Target> {
    let (w, (dp, pp, tp), vpp) = Workload::weak_scaling()[idx].clone();
    let ctx = SystemContext::hopper(w.num_gpus).expect("weak-scaling cluster");
    let mut cfg =
        OptimusConfig::new(ParallelPlan::with_vpp(dp, pp, tp, vpp).expect("weak-scaling plan"))
            .with_search_workers(workers);
    cfg.adjust_dep_points = false;
    let name = format!("{} @ {} GPUs", w.mllm.name, w.num_gpus);
    let run = if tr.enabled() {
        let root = tr.span("plan", parent);
        plan_traced(&w, &cfg, &ctx, tr, root.id()).map(|(run, _)| run)
    } else {
        run_optimus(&w, &cfg, &ctx)
    };
    let run = out.op(&format!("plan {name}"), run)?;
    let lowered = {
        let _s = tr.span("splice", parent);
        out.op(&format!("splice {name}"), lowered_schedule(&run, &w, &ctx))?
    };
    let report = {
        let _s = tr.span("verify", parent);
        out.op(
            &format!("verify {name}"),
            verify(&run, &w, &ctx, VERIFY_TOLERANCE),
        )?
    };
    let base = out.op(&format!("simulate {name}"), simulate(&lowered.graph))?;
    out.check(
        base.makespan().as_secs_f64().to_bits() == report.simulated_secs.to_bits(),
        || format!("{name}: spliced graph and verify disagree on the makespan"),
    );
    Some(Target {
        name,
        graph: lowered.graph,
        topo: ctx.topo,
        makespan: base.makespan(),
    })
}

fn setup(workers: usize, out: &mut Outcome, tr: &Tracer) -> Vec<Target> {
    let root = tr.span("setup", 0);
    // Weak-scaling Model A (64 GPUs) and Model D (512 GPUs).
    [0usize, 3]
        .into_iter()
        .filter_map(|i| prepare(i, workers, out, tr, root.id()))
        .collect()
}

/// One seeded duration-only rewrite.
enum Rewrite {
    Perturb { eps: f64, seed: u64 },
    Fault(FaultModel),
}

fn draw(op: usize, devices: u32, rng: &mut rand::rngs::StdRng) -> Rewrite {
    let seed = rng.next_u64();
    let scenario = match op % 4 {
        0 | 2 => {
            let eps = [0.01, 0.02, 0.05, 0.1][rng.random_range(0..4usize)];
            return Rewrite::Perturb { eps, seed };
        }
        1 => FaultScenario::StragglerDevice {
            device: rng.random_range(0..devices.max(1)),
            slowdown: rng.random_range(1.05..1.5),
        },
        _ => FaultScenario::DegradedLink {
            class: if rng.random_range(0..2u32) == 0 {
                LinkClass::NvLink
            } else {
                LinkClass::Rdma
            },
            bandwidth_factor: rng.random_range(0.5..0.9),
            latency_factor: rng.random_range(1.0..2.0),
        },
    };
    Rewrite::Fault(
        FaultModel::new(seed)
            .with(scenario)
            .expect("valid scenario"),
    )
}

/// Rewrite, simulate, slack, bubbles: one operation. Returns (makespan,
/// tasks simulated).
fn resim(t: &Target, rw: &Rewrite, tr: &Tracer, parent: SpanId) -> Result<(u64, u64), String> {
    let (graph, degrading) = match rw {
        Rewrite::Perturb { eps, seed } => {
            let _s = tr.span("perturb", parent);
            (
                perturb_uniform(&t.graph, *eps, *seed).map_err(|e| e.to_string())?,
                false,
            )
        }
        Rewrite::Fault(model) => {
            let _s = tr.span("inject", parent);
            let inj = model.inject(&t.graph, &t.topo).map_err(|e| e.to_string())?;
            (inj.graph, model.is_degrading())
        }
    };
    let result = {
        let _s = tr.span("sim", parent);
        simulate(&graph).map_err(|e| e.to_string())?
    };
    let sl = {
        let _s = tr.span("analysis", parent);
        slack(&graph, &result)
    };
    let bubbles = {
        let _s = tr.span("bubble", parent);
        BubbleBreakdown::measure(&graph, &result)
    };
    let makespan = result.makespan();
    if sl.len() != graph.len() || bubbles.step_time.0 != makespan.0 {
        return Err(format!("{}: analysis does not cover the step", t.name));
    }
    if degrading && makespan < t.makespan {
        return Err(format!("{}: a degrading fault shortened the step", t.name));
    }
    Ok((makespan.0, graph.len() as u64))
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let reps = if tr.enabled() { ONE_SETUP } else { SETUP_REPS };
    // Every set-up's plans, splices and verifications count as attempted.
    let (targets, secs) = timed_setups(reps, || setup(args.workers, &mut out, tr));
    out.setup_s = secs;
    if targets.len() != 2 {
        return out;
    }

    // An ε = 0 perturbation must reproduce the unperturbed makespan.
    for t in &targets {
        let same = perturb_uniform(&t.graph, 0.0, args.seed)
            .map_err(|e| e.to_string())
            .and_then(|g| simulate(&g).map_err(|e| e.to_string()))
            .map(|r| r.makespan() == t.makespan);
        out.check(same == Ok(true), || {
            format!("{}: ε = 0 perturbation: {same:?}", t.name)
        });
        out.note(format!(
            "{}: {} tasks, verified makespan {:.4} s",
            t.name,
            t.graph.len(),
            t.makespan.0 as f64 / 1e9
        ));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let mut per_target = [0usize; 2];
    let (mut tasks, mut sim_ops) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut op = 0usize;
    while op < COUNTED || start.elapsed() < budget {
        // Model A four times, then Model D.
        let ti = usize::from(op % 5 == 4);
        let t = &targets[ti];
        let rw = draw(per_target[ti], t.graph.num_devices(), &mut rng);
        per_target[ti] += 1;
        let t0 = Instant::now();
        let root = tr.span("resim", 0);
        let res = resim(t, &rw, tr, root.id());
        drop(root);
        let ms = ms_since(t0);
        if let Some((makespan, n)) = out.op("re-simulation", res) {
            out.ops_ms.push(ms);
            tasks += n;
            sim_ops += 1;
            if op < COUNTED {
                out.count("resim.tasks_simulated", n);
                out.count("resim.makespan_ns", makespan);
                out.count(
                    match rw {
                        Rewrite::Perturb { .. } => "resim.perturbations",
                        Rewrite::Fault(_) => "resim.faults",
                    },
                    1,
                );
            }
        }
        op += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.note(format!(
        "{} re-simulations (Model A {}, Model D {})",
        out.ops_ms.len(),
        per_target[0],
        per_target[1]
    ));

    if tr.enabled() {
        for t in &targets {
            let r = simulate(&t.graph).map_err(|e| e.to_string());
            let Some(result) = out.op("simulate for critical path", r) else {
                continue;
            };
            let path = {
                let _s = tr.span("analysis.critical_path", 0);
                critical_path(&t.graph, &result)
            };
            let ends_at_makespan = path
                .last()
                .is_some_and(|&id| result.span(id).end == result.makespan());
            out.check(ends_at_makespan, || {
                format!("{}: critical path does not end at the makespan", t.name)
            });
        }
    }

    let sum = tr.summary();
    let setups = sum.get("setup").map_or(0, |t| t.calls).max(1) as f64;
    for (metric, span) in [
        ("planner.ms", "planner"),
        ("profile.ms", "profile"),
        ("search.ms", "search"),
        ("search.encoder_build_ms", "search.encoder_build"),
        ("search.scheduler_build_ms", "search.scheduler_build"),
        ("search.enumerate_ms", "search.enumerate"),
        ("search.slice_ms", "search.slice"),
        ("coarse.ms", "coarse"),
        ("lint.ms", "lint"),
        ("splice.ms", "splice"),
        ("verify.ms", "verify"),
    ] {
        out.layer(metric, span_ms(&sum, span) / setups);
    }
    out.layer("plan.self_ms", span_self_ms(&sum, "plan") / setups);
    out.layer("search.self_ms", span_self_ms(&sum, "search") / setups);
    out.layer("search.workers", args.workers as f64);
    let per_call = |name: &str| {
        sum.get(name)
            .map_or(0.0, |t| t.inclusive_ms / t.calls.max(1) as f64)
    };
    out.layer("perturb.ms", per_call("perturb"));
    out.layer("inject.ms", per_call("inject"));
    out.layer(
        "analysis.critical_path_ms",
        per_call("analysis.critical_path"),
    );
    let ops = sim_ops.max(1) as f64;
    out.layer("sim.ms", span_ms(&sum, "sim") / ops);
    out.layer("analysis.ms", span_ms(&sum, "analysis") / ops);
    out.layer("bubble.ms", span_ms(&sum, "bubble") / ops);
    out.layer("resim.self_ms", span_self_ms(&sum, "resim") / ops);
    out.layer("sim.tasks", tasks as f64 / ops);
    out.layer(
        "sim.ns_per_task",
        span_ms(&sum, "sim") * 1e6 / tasks.max(1) as f64,
    );
    out
}
