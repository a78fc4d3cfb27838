//! `plansvc-stream`: one closed-loop client asking `PlanService::query`
//! what-if questions about the 8-GPU ViT-5B+GPT-11B base (LLM plan 1×2×4).
//!
//! The query pool is larger than the cache, so the stream keeps evicting and
//! re-planning: repeats are hits, RDMA/storage congestion is served
//! incrementally (profile + lint, no search), and NVLink degradations,
//! data-trace refreshes and DP resizes re-plan with a warm start. Pool
//! entries get Zipf popularity over a rank order that interleaves the
//! kinds, and queries draw from it with a golden-ratio sequence whose phase
//! comes from the seed, so the rung mix is steady from seed to seed while
//! every parameter and the order of queries change with it.
//!
//! No recorded plan-service traffic exists, so the mix is chosen, not
//! measured. The pool, cache size and Zipf exponent are the ones that put
//! `op_p50_ms` and `op_p90_ms` furthest inside one latency population each
//! (see NOTES.md): p50 among hits that follow a hit, p90 among warm
//! re-plans.
//!
//! The cold miss that primes the cache is set-up. After the loop, every
//! distinct answer is checked against a cold plan of its delta; the traced
//! run also replays the incremental rung's profile and lint from outside
//! for every distinct incremental delta.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_baselines::common::SystemContext;
use optimus_cluster::LinkClass;
use optimus_core::{
    lint_run, optimus_memory, run_optimus, LlmProfile, OptimusConfig, SavedSchedule,
};
use optimus_detrand as rand;
use optimus_modeling::{MllmConfig, TraceConfig, TransformerConfig, Workload};
use optimus_parallel::{ColocationLayout, ParallelPlan};
use optimus_plansvc::{PlanDelta, PlanService, QueryKind};
use rand::{Rng, RngExt, SeedableRng};

use crate::layers::span_ms;
use crate::outcome::{ms_since, quantile, timed_setups, Outcome, CHEAP_SETUP, ONE_SETUP};
use crate::span::{SpanId, Tracer};
use crate::Args;

/// Cache capacity, in plans (the pool holds 26).
const CAPACITY: usize = 16;
/// Zipf exponent of pool popularity.
const ZIPF: f64 = 1.3;
/// Queries the deterministic counters cover: a prefix every run completes,
/// however short `--seconds` is.
const COUNTED: usize = 150;

fn base(workers: usize) -> (Workload, OptimusConfig, SystemContext) {
    let mllm = MllmConfig::new(
        "ViT-5B+GPT-11B",
        TransformerConfig::vit_5b(),
        TransformerConfig::gpt_11b(),
    );
    let w = Workload::new(mllm, 8, 8, 1);
    let ctx = SystemContext::hopper(8).expect("8-GPU cluster");
    let cfg = OptimusConfig::new(ParallelPlan::new(1, 2, 4).expect("LLM plan 1x2x4"))
        .with_search_workers(workers);
    (w, cfg, ctx)
}

/// The query pool in popularity-rank order: the baseline first, then the
/// kinds interleaved so every popularity band holds a similar mix.
fn pool(rng: &mut rand::rngs::StdRng) -> Vec<PlanDelta> {
    let mut link = |class, n: usize, bw: (f64, f64), lat: (f64, f64)| -> Vec<PlanDelta> {
        (0..n)
            .map(|_| PlanDelta::DegradedLink {
                class,
                bandwidth_factor: rng.random_range(bw.0..bw.1),
                latency_factor: rng.random_range(lat.0..lat.1),
            })
            .collect()
    };
    let nvlink = link(LinkClass::NvLink, 10, (0.6, 0.98), (1.0, 1.4));
    let rdma = link(LinkClass::Rdma, 2, (0.3, 0.9), (1.0, 3.0));
    let storage = link(LinkClass::Storage, 2, (0.3, 0.9), (1.0, 3.0));
    let traces: Vec<PlanDelta> = (0..10)
        .map(|_| PlanDelta::TraceSeed {
            trace: TraceConfig::llava_style(),
            seed: rng.next_u64(),
        })
        .collect();
    let resizes = vec![PlanDelta::DpWidth { dp: 2 }];
    let mut kinds = [nvlink, traces, rdma, storage, resizes].map(|v| v.into_iter());
    let mut out = vec![PlanDelta::Baseline];
    loop {
        let before = out.len();
        for k in kinds.iter_mut() {
            out.extend(k.next());
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Cumulative Zipf popularity over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

struct Answer {
    delta: usize,
    kind: QueryKind,
    key: String,
    saved: Arc<SavedSchedule>,
}

/// The incremental rung's work, called from outside: the profile under the
/// delta's context and a lint run of the reused schedule against it.
/// Returns the lint diagnostics, or why the reuse does not hold.
fn replay_incremental(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
    saved: &SavedSchedule,
    tr: &Tracer,
    parent: SpanId,
) -> Result<u64, String> {
    let enc_plan = saved.enc_plan().map_err(|e| e.to_string())?;
    let outcome = saved.to_outcome();
    let profile = {
        let _s = tr.span("profile", parent);
        LlmProfile::build_routed(
            w,
            &cfg.llm_plan,
            ctx,
            cfg.adjust_dep_points,
            cfg.llm_schedule,
            cfg.folded_sim,
        )
        .map_err(|e| e.to_string())?
    };
    let layout = ColocationLayout::new(cfg.llm_plan, enc_plan).map_err(|e| e.to_string())?;
    let memory = optimus_memory(w, &enc_plan, &cfg.llm_plan, profile.n_microbatches());
    let report = {
        let _s = tr.span("lint", parent);
        lint_run(
            &outcome,
            &profile,
            &layout,
            enc_plan.tp,
            &memory,
            ctx.topo.gpu.hbm_capacity,
        )
    };
    if report.has_errors() {
        return Err("lint rejects the reused schedule".into());
    }
    Ok(report.diagnostics.len() as u64)
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let deltas = pool(&mut rng);
    let cdf = zipf_cdf(deltas.len());
    let mut phase = rng.next_f64();
    let (w, cfg, ctx) = base(args.workers);

    let reps = if tr.enabled() { ONE_SETUP } else { CHEAP_SETUP };
    let ((mut svc, primed), secs) = timed_setups(reps, || {
        let mut svc = PlanService::new(w.clone(), cfg.clone(), ctx.clone(), CAPACITY);
        let primed = svc.query(&PlanDelta::Baseline).map(|a| a.stats.kind);
        (svc, primed.map_err(|e| e.to_string()))
    });
    out.setup_s = secs;
    out.check(primed == Ok(QueryKind::Miss), || {
        format!("priming query: expected a cold miss, got {primed:?}")
    });

    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut warm_items, mut warm_pruned) = (0u64, 0u64);
    let mut answers: Vec<Answer> = Vec::new();
    let (mut hits_after_hit, mut hits_after_plan) = (Vec::new(), Vec::new());
    let mut prev = None;
    let evicted_before = svc.cache().stats().evicted;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut asked = 0usize;
    while asked < COUNTED || start.elapsed() < budget {
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        phase = (phase + INV_PHI).fract();
        let i = cdf.partition_point(|&c| c < phase).min(deltas.len() - 1);
        asked += 1;
        let t0 = Instant::now();
        let span = tr.span("svc.query", 0);
        let res = svc.query(&deltas[i]);
        drop(span);
        let ms = ms_since(t0);
        if asked == COUNTED {
            out.count(
                "svc.evictions",
                svc.cache().stats().evicted - evicted_before,
            );
        }
        let Some(ans) = out.op(&format!("query {}", deltas[i].label()), res) else {
            continue;
        };
        out.ops_ms.push(ms);
        let kind = ans.stats.kind;
        by_kind.entry(kind.label()).or_default().push(ms);
        if kind == QueryKind::Hit {
            if prev == Some(QueryKind::Hit) {
                hits_after_hit.push(ms);
            } else {
                hits_after_plan.push(ms);
            }
        }
        prev = Some(kind);
        if kind == QueryKind::Warm {
            warm_items += ans.stats.evaluated as u64;
            warm_pruned += ans.stats.pruned_by_bound as u64;
        }
        if asked <= COUNTED {
            let name = match kind {
                QueryKind::Hit => "svc.hits",
                QueryKind::Incremental => "svc.incremental",
                QueryKind::Warm => "svc.warm",
                QueryKind::Miss => "svc.misses",
            };
            out.count(name, 1);
            out.count("svc.items_evaluated", ans.stats.evaluated as u64);
            out.count("svc.pruned_by_bound", ans.stats.pruned_by_bound as u64);
        }
        answers.push(Answer {
            delta: i,
            kind,
            key: ans.key.id(),
            saved: ans.saved,
        });
    }
    out.measured_s = start.elapsed().as_secs_f64();
    let evictions = svc.cache().stats().evicted - evicted_before;

    // Every answer for one content address is the same plan...
    let mut first: BTreeMap<&str, &Answer> = BTreeMap::new();
    let mut consistent = true;
    for a in &answers {
        let f = first.entry(a.key.as_str()).or_insert(a);
        consistent &= *f.saved == *a.saved;
    }
    out.check(consistent, || {
        "two answers for one content address differ".into()
    });
    // ...and equals a cold plan of its delta, outside the timed loop. The
    // traced run also replays each incremental answer's profile and lint.
    let (mut replays, mut diagnostics) = (0u64, 0u64);
    for (key, a) in &first {
        let delta = &deltas[a.delta];
        let Some((w2, cfg2, ctx2)) = out.op("apply delta", delta.apply(&w, &cfg, &ctx)) else {
            continue;
        };
        if tr.enabled() && a.kind == QueryKind::Incremental {
            let root = tr.span("svc.incremental_replay", 0);
            let r = replay_incremental(&w2, &cfg2, &ctx2, &a.saved, tr, root.id());
            drop(root);
            if let Some(n) = out.op(&format!("incremental replay of {}", delta.label()), r) {
                replays += 1;
                diagnostics += n;
            }
        }
        let cold = run_optimus(&w2, &cfg2, &ctx2);
        let Some(cold) = out.op(&format!("cold plan of {}", delta.label()), cold) else {
            continue;
        };
        let fresh = SavedSchedule::capture(&cold, &w2).with_fingerprints(
            a.saved.topology_fp.clone(),
            a.saved.model_fp.clone(),
            a.saved.trace_fp.clone(),
        );
        out.check(fresh == *a.saved, || {
            format!(
                "{} ({key}): served plan differs from a cold plan",
                delta.label()
            )
        });
    }

    let n = out.ops_ms.len();
    let mut line = format!(
        "{n} queries, {} distinct addresses, {evictions} evictions; rungs:",
        first.len()
    );
    for (kind, v) in &by_kind {
        line.push_str(&format!(
            " {kind} {} (median {:.3} ms)",
            v.len(),
            quantile(v, 0.5)
        ));
    }
    out.note(line);
    let q = |v: &[f64]| {
        format!(
            "{:.3}/{:.3}/{:.3} ms",
            quantile(v, 0.1),
            quantile(v, 0.5),
            quantile(v, 0.9)
        )
    };
    out.note(format!(
        "hits after a hit: {} (p10/p50/p90 {}); after a re-plan: {} ({})",
        hits_after_hit.len(),
        q(&hits_after_hit),
        hits_after_plan.len(),
        q(&hits_after_plan)
    ));
    out.note(format!(
        "query latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {n} samples ({} beyond p99)",
        quantile(&out.ops_ms, 0.5),
        quantile(&out.ops_ms, 0.9),
        quantile(&out.ops_ms, 0.99),
        n / 100
    ));

    let rung = |k: &str| by_kind.get(k).map_or(0.0, |v| quantile(v, 0.5));
    let count = |k: &str| by_kind.get(k).map_or(0, Vec::len) as f64;
    out.layer("svc.hit_ms", rung("hit"));
    out.layer("svc.incremental_ms", rung("incremental"));
    out.layer("svc.warm_ms", rung("warm"));
    out.layer("svc.miss_ms", rung("miss"));
    out.layer("svc.query_p99_ms", quantile(&out.ops_ms, 0.99));
    out.layer("svc.queries", n as f64);
    out.layer("svc.hits", count("hit"));
    out.layer("svc.incremental", count("incremental"));
    out.layer("svc.warm", count("warm"));
    out.layer("svc.misses", count("miss"));
    out.layer("svc.evictions", evictions as f64);
    let warm = count("warm").max(1.0);
    out.layer("svc.warm_items", warm_items as f64 / warm);
    out.layer("svc.pruned_by_bound", warm_pruned as f64 / warm);

    // The incremental rung's layers, per replayed query. The warm rung's
    // search runs inside `query`, out of reach from outside; `svc.warm_ms`
    // is its figure, and the search metrics read 0 here.
    let sum = tr.summary();
    let per = replays.max(1) as f64;
    out.layer("profile.ms", span_ms(&sum, "profile") / per);
    out.layer("lint.ms", span_ms(&sum, "lint") / per);
    out.layer("lint.diagnostics", diagnostics as f64 / per);
    out.layer("search.workers", args.workers as f64);
    out
}
