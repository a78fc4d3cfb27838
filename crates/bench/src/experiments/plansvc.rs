//! Plan-service study: what a content-addressed plan cache buys over
//! re-running the engine, measured on one ViT-5B + GPT-11B cluster.
//!
//! Four phases, each pinned by the smoke gate:
//!
//! * **hit** — a cached, re-verified answer must be orders of magnitude
//!   faster than the cold search that produced it, and bit-identical to a
//!   fresh engine run;
//! * **warm** — on a near-miss (mild NVLink degradation), the search is
//!   seeded from the nearest cache entries and must sweep *strictly fewer*
//!   work items and candidates than the cold sweep while returning the
//!   identical winner;
//! * **incremental** — a planning-invisible delta (RDMA congestion on a
//!   single node) is served from the baseline entry with zero search work,
//!   and must equal a full re-plan bit-for-bit;
//! * **throughput** — a warmed service answers a batch of repeat what-if
//!   queries from cache; the sustained queries/sec is the headline number
//!   `--write` records in `BENCH_plansvc.json`.

use std::time::Instant;

use optimus_baselines::common::SystemContext;
use optimus_cluster::LinkClass;
use optimus_core::run_optimus;
use optimus_core::OptimusConfig;
use optimus_json::Json;
use optimus_modeling::{MllmConfig, TraceConfig, TransformerConfig, Workload};
use optimus_parallel::ParallelPlan;
use optimus_plansvc::{PlanDelta, PlanService, QueryKind};
use optimus_trace::TextTable;

use super::rounded;

/// Warm-start accounting against the equivalent cold sweep.
#[derive(Debug, Clone)]
pub struct WarmPoint {
    /// Work items the cold sweep evaluates on the delta's configuration.
    pub cold_items: usize,
    /// Work items the warm-started sweep evaluated.
    pub warm_items: usize,
    /// Encoder candidates in the search space.
    pub candidates: usize,
    /// Candidates pruned by the warm-start lower bound.
    pub pruned: usize,
    /// The warm answer equals the cold run bit-for-bit.
    pub identical: bool,
}

/// Everything the study measures.
#[derive(Debug, Clone)]
pub struct Study {
    /// Cold-search service latency (the miss that populated the cache).
    pub cold_ms: f64,
    /// Cache-hit service latency for the same query.
    pub hit_us: f64,
    /// `cold / hit` speedup.
    pub hit_speedup: f64,
    /// The hit equals a fresh engine run bit-for-bit.
    pub hit_identical: bool,
    /// Warm-started search vs cold sweep on the near-miss delta.
    pub warm: WarmPoint,
    /// Search work the incremental reuse performed (must be zero).
    pub inc_evaluated: usize,
    /// The incremental answer equals a full re-plan bit-for-bit.
    pub inc_identical: bool,
    /// Queries in the throughput batch.
    pub batch_queries: usize,
    /// Worker threads serving the batch.
    pub batch_workers: usize,
    /// Sustained queries/sec over the warmed cache.
    pub qps: f64,
    /// Every query in the measured batch was a verified cache hit.
    pub batch_all_hits: bool,
}

impl Study {
    /// Renders the study as a `BENCH_plansvc.json` document.
    pub fn to_json(&self) -> String {
        let count = |n: usize| Json::from(n as u64);
        let doc = Json::obj(vec![
            ("experiment", Json::from("plan_service")),
            ("cold_ms", rounded(self.cold_ms, 3)),
            ("hit_us", rounded(self.hit_us, 3)),
            ("hit_speedup", rounded(self.hit_speedup, 1)),
            ("hit_identical", Json::from(self.hit_identical)),
            (
                "warm",
                Json::obj(vec![
                    ("cold_items", count(self.warm.cold_items)),
                    ("warm_items", count(self.warm.warm_items)),
                    ("candidates", count(self.warm.candidates)),
                    ("pruned", count(self.warm.pruned)),
                    ("identical", Json::from(self.warm.identical)),
                ]),
            ),
            (
                "incremental",
                Json::obj(vec![
                    ("evaluated", count(self.inc_evaluated)),
                    ("identical", Json::from(self.inc_identical)),
                ]),
            ),
            (
                "throughput",
                Json::obj(vec![
                    ("queries", count(self.batch_queries)),
                    ("workers", count(self.batch_workers)),
                    ("qps", rounded(self.qps, 1)),
                    ("all_hits", Json::from(self.batch_all_hits)),
                ]),
            ),
        ]);
        doc.to_pretty() + "\n"
    }
}

/// Required cache-hit speedup over the cold search.
pub const SMOKE_HIT_SPEEDUP: f64 = 20.0;

/// The base scenario: the LLM plan is pp2 × tp4, where the warm-start
/// lower bound provably separates TP-heavy encoder candidates.
fn base() -> (Workload, OptimusConfig, SystemContext) {
    let mllm = MllmConfig::new(
        "ViT-5B+GPT-11B",
        TransformerConfig::vit_5b(),
        TransformerConfig::gpt_11b(),
    );
    let w = Workload::new(mllm, 8, 8, 1);
    let ctx = SystemContext::hopper(8).expect("8-GPU hopper context");
    let cfg = OptimusConfig::new(ParallelPlan::new(1, 2, 4).expect("llm plan"));
    (w, cfg, ctx)
}

/// The near-miss delta the warm phase queries: NVLink mildly degraded, so
/// the content address changes but the cached baseline stays the nearest
/// neighbour.
fn warm_delta() -> PlanDelta {
    PlanDelta::DegradedLink {
        class: LinkClass::NvLink,
        bandwidth_factor: 0.9,
        latency_factor: 1.1,
    }
}

/// The planning-invisible delta the incremental phase queries (hopper(8)
/// is a single node, so RDMA congestion cannot affect the plan).
fn inc_delta() -> PlanDelta {
    PlanDelta::DegradedLink {
        class: LinkClass::Rdma,
        bandwidth_factor: 0.5,
        latency_factor: 2.0,
    }
}

/// Runs the study. `smoke` shrinks the throughput batch; every identity
/// check still runs. Returns (report, study).
pub fn run(smoke: bool) -> (String, Study) {
    let (w, cfg, ctx) = base();
    let mut svc = PlanService::new(w.clone(), cfg.clone(), ctx.clone(), 64);

    // Phase 1: cold search, then the verified hit for the same address.
    let cold = svc.query(&PlanDelta::Baseline).expect("cold query");
    assert_eq!(cold.stats.kind, QueryKind::Miss, "first query is a miss");
    let hit = svc.query(&PlanDelta::Baseline).expect("hit query");
    assert_eq!(hit.stats.kind, QueryKind::Hit, "second query is a hit");
    let fresh = run_optimus(&w, &cfg, &ctx).expect("fresh engine run");
    let hit_identical = hit.saved.latency_ns == fresh.outcome.latency
        && hit.saved.partition == fresh.outcome.partition
        && hit.saved.enc_plan().expect("cached plan decodes") == fresh.enc_plan;
    let cold_ms = cold.stats.latency_ns as f64 / 1e6;
    let hit_us = hit.stats.latency_ns as f64 / 1e3;
    let hit_speedup = cold.stats.latency_ns as f64 / hit.stats.latency_ns.max(1) as f64;

    // Phase 2: warm-started search on the near-miss vs the cold sweep.
    let warm_ans = svc.query(&warm_delta()).expect("warm query");
    assert_eq!(
        warm_ans.stats.kind,
        QueryKind::Warm,
        "near-miss warm-starts"
    );
    let (w2, cfg2, ctx2) = warm_delta().apply(&w, &cfg, &ctx).expect("delta applies");
    let cold2 = run_optimus(&w2, &cfg2, &ctx2).expect("cold run on delta");
    let warm = WarmPoint {
        cold_items: cold2.search.work_items,
        warm_items: warm_ans.stats.evaluated,
        candidates: warm_ans.stats.candidates,
        pruned: warm_ans.stats.pruned_by_bound,
        identical: warm_ans.saved.latency_ns == cold2.outcome.latency
            && warm_ans.saved.partition == cold2.outcome.partition
            && warm_ans.saved.enc_plan().expect("warm plan decodes") == cold2.enc_plan,
    };

    // Phase 3: incremental reuse vs a full re-plan.
    let inc = svc.query(&inc_delta()).expect("incremental query");
    assert_eq!(
        inc.stats.kind,
        QueryKind::Incremental,
        "single-node RDMA congestion is planning-invisible"
    );
    let (w3, cfg3, ctx3) = inc_delta().apply(&w, &cfg, &ctx).expect("delta applies");
    let full = run_optimus(&w3, &cfg3, &ctx3).expect("full re-plan");
    let inc_identical = inc.saved.latency_ns == full.outcome.latency
        && inc.saved.partition == full.outcome.partition
        && inc.saved.enc_plan().expect("incremental plan decodes") == full.enc_plan;

    // Phase 4: sustained throughput over the warmed cache. The batch
    // re-issues cached addresses (plus trace-refresh queries warmed up
    // beforehand), so the measured rate is the cache-serving path:
    // lookup + fingerprint + re-verification per query.
    let repeats = if smoke { 4 } else { 32 };
    let mut batch = Vec::new();
    for seed in 0..2u64 {
        batch.push(PlanDelta::TraceSeed {
            trace: TraceConfig::llava_style(),
            seed,
        });
    }
    svc.query_batch(&batch, 4).expect("throughput warmup");
    batch.push(PlanDelta::Baseline);
    batch.push(warm_delta());
    batch.push(inc_delta());
    let batch: Vec<PlanDelta> = std::iter::repeat_n(batch.iter().cloned(), repeats)
        .flatten()
        .collect();
    let workers = 4;
    let t0 = Instant::now();
    let answers = svc.query_batch(&batch, workers).expect("throughput batch");
    let elapsed = t0.elapsed().as_secs_f64();
    let batch_all_hits = answers.iter().all(|a| a.stats.kind == QueryKind::Hit);
    let qps = answers.len() as f64 / elapsed.max(1e-9);

    let study = Study {
        cold_ms,
        hit_us,
        hit_speedup,
        hit_identical,
        warm,
        inc_evaluated: inc.stats.evaluated,
        inc_identical,
        batch_queries: answers.len(),
        batch_workers: workers,
        qps,
        batch_all_hits,
    };

    let mut out = String::from(
        "== Plan service: content-addressed cache, warm start, incremental reuse ==\n\
         ViT-5B + GPT-11B, 8 GPUs, LLM plan 1x2x4; every answer bit-identical to cold\n\n",
    );
    let mut t = TextTable::new(vec!["Phase", "Result", "Search work", "Identical"]);
    t.row(vec![
        "cold miss".into(),
        format!("{:.1} ms", study.cold_ms),
        format!("{} items", cold.stats.evaluated),
        "-".into(),
    ]);
    t.row(vec![
        "cache hit".into(),
        format!("{:.1} us ({:.0}x)", study.hit_us, study.hit_speedup),
        "0 items".into(),
        study.hit_identical.to_string(),
    ]);
    t.row(vec![
        "warm start".into(),
        format!(
            "{} of {} candidates pruned",
            study.warm.pruned, study.warm.candidates
        ),
        format!(
            "{} items (cold: {})",
            study.warm.warm_items, study.warm.cold_items
        ),
        study.warm.identical.to_string(),
    ]);
    t.row(vec![
        "incremental".into(),
        "baseline reused under RDMA congestion".into(),
        format!("{} items", study.inc_evaluated),
        study.inc_identical.to_string(),
    ]);
    t.row(vec![
        "throughput".into(),
        format!("{:.0} queries/sec", study.qps),
        format!("{} queries, {} workers", study.batch_queries, workers),
        study.batch_all_hits.to_string(),
    ]);
    out.push_str(&t.render());
    out.push('\n');
    (out, study)
}
