//! Planner-search strong scaling: throughput of the parallel plan-search
//! engine on the Table 5 strong-scaling config (ViT-22B + GPT-175B at
//! 3072 GPUs) as the worker count grows.
//!
//! Reports wall-clock, candidates/s, and speedup vs one worker, and checks
//! the engine's determinism contract: every worker count must select the
//! same encoder plan with the same latency.

use std::time::Duration;

use optimus_baselines::common::SystemContext;
use optimus_core::{run_optimus, OptimusConfig};
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;
use optimus_trace::{planner_search_table, TextTable};

/// Measured search timings at one worker count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Search workers used.
    pub workers: usize,
    /// Candidates offered to the search.
    pub candidates: usize,
    /// Search wall-clock.
    pub wall: Duration,
    /// Candidates evaluated per second.
    pub throughput: f64,
    /// Wall-clock speedup vs the 1-worker sweep.
    pub speedup: f64,
    /// Chosen encoder plan (must match across rows).
    pub enc_plan: ParallelPlan,
    /// Chosen schedule latency in ns (must match across rows).
    pub latency: i64,
}

/// Worker counts swept by the experiment.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the planner-scaling sweep; returns (report, rows).
pub fn run() -> (String, Vec<ScalingRow>) {
    let (w, plan, v) = Workload::strong_scaling()
        .pop()
        .expect("strong-scaling configs");
    let ctx = SystemContext::hopper(w.num_gpus).expect("cluster");
    let llm_plan = ParallelPlan::with_vpp(plan.0, plan.1, plan.2, v).expect("plan");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "== Planner search scaling: {} @ {} GPUs, LLM plan (dp={}, pp={}, tp={}, vpp={}) ==\n\
         host cores: {cores} — wall-clock speedup is bounded by physical parallelism;\n\
         on a 1-core host all worker counts degenerate to sequential throughput.\n\n",
        w.mllm.name, w.num_gpus, plan.0, plan.1, plan.2, v
    );
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut per_worker_reports = String::new();
    for workers in WORKER_COUNTS {
        let cfg = OptimusConfig::new(llm_plan).with_search_workers(workers);
        let run = run_optimus(&w, &cfg, &ctx).expect("optimus");
        let st = &run.search;
        let base_wall = rows
            .first()
            .map(|r| r.wall)
            .unwrap_or(st.wall)
            .as_secs_f64();
        rows.push(ScalingRow {
            workers: st.workers,
            candidates: st.candidates,
            wall: st.wall,
            throughput: st.throughput(),
            speedup: base_wall / st.wall.as_secs_f64().max(1e-12),
            enc_plan: run.enc_plan,
            latency: run.outcome.latency,
        });
        per_worker_reports.push_str(&format!("-- {workers} worker(s) --\n"));
        per_worker_reports.push_str(&planner_search_table(
            st.candidates,
            st.wall,
            &st.per_worker,
        ));
        per_worker_reports.push('\n');
    }

    let mut t = TextTable::new(vec![
        "Workers",
        "Candidates",
        "Wall (ms)",
        "Cand/s",
        "Speedup",
        "Enc plan (pp,tp,dp)",
    ]);
    for r in &rows {
        t.row(vec![
            r.workers.to_string(),
            r.candidates.to_string(),
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
            format!("{:.1}", r.throughput),
            format!("{:.2}x", r.speedup),
            format!("({}, {}, {})", r.enc_plan.pp, r.enc_plan.tp, r.enc_plan.dp),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&per_worker_reports);

    let identical = rows
        .windows(2)
        .all(|p| p[0].enc_plan == p[1].enc_plan && p[0].latency == p[1].latency);
    out.push_str(&format!(
        "plan selection identical across worker counts: {}\n",
        if identical {
            "yes"
        } else {
            "NO — DETERMINISM BUG"
        }
    ));
    (out, rows)
}
