//! The plan service: batched what-if queries over the cache and engine.
//!
//! Query resolution ladder, cheapest rung first:
//!
//! 1. **Hit** — the exact content address is cached; the verified entry is
//!    served with zero planning work.
//! 2. **Incremental** — the delta is provably planning-invisible (a
//!    degraded link class the planner never reads), so the cached
//!    *baseline* entry is re-addressed to the delta's key. The reuse is
//!    re-proved by the lint analyzer against the delta's context, and — in
//!    cross-check mode — by a full cold search asserted bit-equal.
//! 3. **Warm** — a cached winner for the same model exists; the search is
//!    seeded with it and prunes bound-dominated candidates. Bit-identical
//!    to a cold search by construction.
//! 4. **Miss** — nothing reusable; full cold search.
//!
//! Whatever the rung, the answer is the answer a cold
//! [`run_optimus`] would give.

use std::sync::Arc;
use std::time::Instant;

use optimus_baselines::common::SystemContext;
use optimus_core::{
    lint_run, optimus_memory, run_optimus, run_optimus_seeded, LlmProfile, OptimusConfig,
    OptimusRun, SavedSchedule,
};
use optimus_modeling::Workload;
use optimus_parallel::{par_map, ColocationLayout, ParallelPlan};

use crate::cache::PlanCache;
use crate::delta::PlanDelta;
use crate::error::PlanSvcError;
use crate::key::{trace_fingerprint, PlanKey};

/// How a query was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Served from the cache (verified).
    Hit,
    /// Full cold search.
    Miss,
    /// Warm-started search seeded from a cached neighbour.
    Warm,
    /// Cached baseline reused under a planning-invisible delta.
    Incremental,
}

impl QueryKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Hit => "hit",
            QueryKind::Miss => "miss",
            QueryKind::Warm => "warm",
            QueryKind::Incremental => "incremental",
        }
    }
}

/// Per-query accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Resolution rung.
    pub kind: QueryKind,
    /// Wall-clock service latency for this query.
    pub latency_ns: u64,
    /// Search work items evaluated (0 when no search ran).
    pub evaluated: usize,
    /// Encoder-plan candidates in scope for the search (0 when no search
    /// ran).
    pub candidates: usize,
    /// Candidates pruned by the warm-start lower bound.
    pub pruned_by_bound: usize,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct PlanAnswer {
    /// The delta's label.
    pub label: String,
    /// The content address the plan is cached under.
    pub key: PlanKey,
    /// The plan (a verified cache entry or a freshly captured search
    /// winner).
    pub saved: Arc<SavedSchedule>,
    /// How the query was resolved, and what it cost.
    pub stats: ServiceStats,
}

/// Aggregate resolution counters across a service's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Verified cache hits.
    pub hits: u64,
    /// Cold searches.
    pub misses: u64,
    /// Warm-started searches.
    pub warm: u64,
    /// Zero-search incremental reuses.
    pub incremental: u64,
}

/// A plan service bound to one base `(Workload, OptimusConfig,
/// SystemContext)` triple.
pub struct PlanService {
    w: Workload,
    cfg: OptimusConfig,
    ctx: SystemContext,
    cache: PlanCache,
    cross_check: bool,
    counters: ServiceCounters,
}

enum Resolution {
    Serve(Arc<SavedSchedule>, QueryKind),
    Search { hints: Vec<ParallelPlan> },
}

struct Prepared {
    label: String,
    w2: Workload,
    cfg2: OptimusConfig,
    ctx2: SystemContext,
    key: PlanKey,
    resolution: Resolution,
    prep_ns: u64,
}

impl PlanService {
    /// Builds a service with a memory-only cache of `capacity` plans.
    pub fn new(
        w: Workload,
        cfg: OptimusConfig,
        ctx: SystemContext,
        capacity: usize,
    ) -> PlanService {
        PlanService::with_cache(w, cfg, ctx, PlanCache::in_memory(capacity))
    }

    /// Builds a service over an existing (possibly disk-backed) cache.
    pub fn with_cache(
        w: Workload,
        cfg: OptimusConfig,
        ctx: SystemContext,
        cache: PlanCache,
    ) -> PlanService {
        PlanService {
            w,
            cfg,
            ctx,
            cache,
            cross_check: false,
            counters: ServiceCounters::default(),
        }
    }

    /// Enables cross-check mode: every incremental reuse is additionally
    /// proved by a full cold search asserted bit-equal. Expensive — meant
    /// for tests and audits, not production serving.
    pub fn with_cross_check(mut self, on: bool) -> PlanService {
        self.cross_check = on;
        self
    }

    /// Aggregate resolution counters.
    pub fn counters(&self) -> ServiceCounters {
        self.counters
    }

    /// The underlying cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Serves one what-if query.
    pub fn query(&mut self, delta: &PlanDelta) -> Result<PlanAnswer, PlanSvcError> {
        let mut answers = self.query_batch(std::slice::from_ref(delta), 1)?;
        Ok(answers.remove(0))
    }

    /// Serves a batch of what-if queries, fanning the searches (misses and
    /// warm starts) across `workers` threads of the deterministic worker
    /// pool — each search runs single-threaded inside its slot, so the
    /// batch is deterministic for any worker count. Queries in one batch
    /// do not observe each other's insertions; issue separate batches to
    /// reuse earlier answers.
    pub fn query_batch(
        &mut self,
        deltas: &[PlanDelta],
        workers: usize,
    ) -> Result<Vec<PlanAnswer>, PlanSvcError> {
        // Phase 1 (sequential): resolve each query against the cache.
        let mut prepared = Vec::with_capacity(deltas.len());
        for delta in deltas {
            prepared.push(self.prepare(delta)?);
        }

        // Phase 2 (parallel): run the searches. Inner searches are pinned
        // to one worker so the pool's slots are the only parallelism.
        let search_idx: Vec<usize> = prepared
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.resolution, Resolution::Search { .. }))
            .map(|(i, _)| i)
            .collect();
        let jobs: Vec<&Prepared> = search_idx.iter().map(|&i| &prepared[i]).collect();
        let pool = par_map(&jobs, workers, |_, p| {
            let Resolution::Search { hints } = &p.resolution else {
                unreachable!("phase 2 only receives search jobs");
            };
            let t0 = Instant::now();
            let mut cfg_run = p.cfg2.clone();
            cfg_run.search_workers = 1;
            let run = run_optimus_seeded(&p.w2, &cfg_run, &p.ctx2, hints);
            (run, t0.elapsed().as_nanos() as u64)
        });
        let mut runs: Vec<Option<(OptimusRun, u64)>> = Vec::with_capacity(search_idx.len());
        for (run, ns) in pool.results {
            runs.push(Some((run?, ns)));
        }

        // Phase 3 (sequential): capture winners into the cache and emit
        // answers in input order.
        let mut by_query: Vec<Option<(OptimusRun, u64)>> =
            (0..prepared.len()).map(|_| None).collect();
        for (slot, i) in search_idx.iter().enumerate() {
            by_query[*i] = runs[slot].take();
        }
        let mut answers = Vec::with_capacity(prepared.len());
        for (p, run) in prepared.into_iter().zip(by_query) {
            answers.push(self.finish(p, run)?);
        }
        Ok(answers)
    }

    fn prepare(&mut self, delta: &PlanDelta) -> Result<Prepared, PlanSvcError> {
        let t0 = Instant::now();
        let (w2, cfg2, ctx2) = delta.apply(&self.w, &self.cfg, &self.ctx)?;
        let mut key = PlanKey::for_query(&w2, &cfg2, &ctx2);
        if let PlanDelta::TraceSeed { trace, seed } = delta {
            key = key.with_trace(trace_fingerprint(trace, *seed));
        }

        // Rung 1: exact hit.
        if let Some(saved) = self.cache.lookup(&key, &w2, &cfg2.llm_plan) {
            return Ok(Prepared {
                label: delta.label(),
                w2,
                cfg2,
                ctx2,
                key,
                resolution: Resolution::Serve(saved, QueryKind::Hit),
                prep_ns: t0.elapsed().as_nanos() as u64,
            });
        }

        // Rung 2: planning-invisible link delta — reuse the baseline.
        if matches!(delta, PlanDelta::DegradedLink { .. }) && !delta.planning_visible(&self.ctx) {
            let base_key = PlanKey::for_query(&self.w, &self.cfg, &self.ctx);
            if let Some(saved) = self.cache.lookup(&base_key, &self.w, &self.cfg.llm_plan) {
                self.prove_reuse(&w2, &cfg2, &ctx2, &saved)?;
                let reused = self.cache.insert(key, (*saved).clone())?;
                return Ok(Prepared {
                    label: delta.label(),
                    w2,
                    cfg2,
                    ctx2,
                    key,
                    resolution: Resolution::Serve(reused, QueryKind::Incremental),
                    prep_ns: t0.elapsed().as_nanos() as u64,
                });
            }
        }

        // Rungs 3–4: search, warm-started when neighbours exist.
        let hints = self.pick_hints(&key, &w2);
        Ok(Prepared {
            label: delta.label(),
            w2,
            cfg2,
            ctx2,
            key,
            resolution: Resolution::Search { hints },
            prep_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    fn finish(
        &mut self,
        p: Prepared,
        run: Option<(OptimusRun, u64)>,
    ) -> Result<PlanAnswer, PlanSvcError> {
        match p.resolution {
            Resolution::Serve(saved, kind) => {
                match kind {
                    QueryKind::Hit => self.counters.hits += 1,
                    QueryKind::Incremental => self.counters.incremental += 1,
                    _ => {}
                }
                Ok(PlanAnswer {
                    label: p.label,
                    key: p.key,
                    saved,
                    stats: ServiceStats {
                        kind,
                        latency_ns: p.prep_ns,
                        evaluated: 0,
                        candidates: 0,
                        pruned_by_bound: 0,
                    },
                })
            }
            Resolution::Search { .. } => {
                let (run, search_ns) = run.expect("search resolution always carries a phase-2 run");
                let kind = if run.warm.is_some() {
                    QueryKind::Warm
                } else {
                    QueryKind::Miss
                };
                match kind {
                    QueryKind::Warm => self.counters.warm += 1,
                    _ => self.counters.misses += 1,
                }
                let saved = self
                    .cache
                    .insert(p.key, SavedSchedule::capture(&run, &p.w2))?;
                Ok(PlanAnswer {
                    label: p.label,
                    key: p.key,
                    saved,
                    stats: ServiceStats {
                        kind,
                        latency_ns: p.prep_ns + search_ns,
                        evaluated: run.search.evaluated,
                        candidates: run.search.candidates,
                        pruned_by_bound: run.warm.map_or(0, |ws| ws.pruned_by_bound),
                    },
                })
            }
        }
    }

    /// Proves a planning-invisible reuse: the cached schedule must pass
    /// the full lint analyzer against the *delta's* context, and — in
    /// cross-check mode — a cold search under that context must reproduce
    /// it bit-exactly.
    fn prove_reuse(
        &self,
        w2: &Workload,
        cfg2: &OptimusConfig,
        ctx2: &SystemContext,
        saved: &SavedSchedule,
    ) -> Result<(), PlanSvcError> {
        let enc_plan = saved
            .enc_plan()
            .map_err(|e| PlanSvcError::ProofFailed(e.to_string()))?;
        let outcome = saved.to_outcome();
        let profile = LlmProfile::build_routed(
            w2,
            &cfg2.llm_plan,
            ctx2,
            cfg2.adjust_dep_points,
            cfg2.llm_schedule,
            cfg2.folded_sim,
        )?;
        let layout = ColocationLayout::new(cfg2.llm_plan, enc_plan)
            .map_err(|e| PlanSvcError::ProofFailed(e.to_string()))?;
        let memory = optimus_memory(w2, &enc_plan, &cfg2.llm_plan, profile.n_microbatches());
        let report = lint_run(
            &outcome,
            &profile,
            &layout,
            enc_plan.tp,
            &memory,
            ctx2.topo.gpu.hbm_capacity,
        );
        if report.has_errors() {
            return Err(PlanSvcError::ProofFailed(format!(
                "lint rejected reuse: {}",
                report
                    .errors()
                    .map(|d| d.summary())
                    .collect::<Vec<_>>()
                    .join("; ")
            )));
        }
        if self.cross_check {
            let run = run_optimus(w2, cfg2, ctx2)?;
            let fresh = SavedSchedule::capture(&run, w2).with_fingerprints(
                saved.topology_fp.clone(),
                saved.model_fp.clone(),
                saved.trace_fp.clone(),
            );
            if fresh != *saved {
                return Err(PlanSvcError::ProofFailed(
                    "cross-check search disagrees with reused baseline".into(),
                ));
            }
        }
        Ok(())
    }

    /// Picks the warm-start hints: among decoded cache entries for the same
    /// model name, prefer an identical model fingerprint, then the closest
    /// cluster size, then the smallest entry id — a total order, so the
    /// choice is deterministic. Up to two distinct nearest encoder plans
    /// are returned so the search seeds the whole winning neighbourhood.
    fn pick_hints(&self, key: &PlanKey, w2: &Workload) -> Vec<ParallelPlan> {
        let mut candidates: Vec<(bool, u32, String, ParallelPlan)> = self
            .cache
            .resident()
            .filter(|c| c.saved.model == w2.mllm.name)
            .filter_map(|c| {
                let plan = c.saved.enc_plan().ok()?;
                Some((
                    c.key.model != key.model,
                    c.saved.num_gpus.abs_diff(w2.num_gpus),
                    c.key.id(),
                    plan,
                ))
            })
            .collect();
        candidates.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        let mut hints: Vec<ParallelPlan> = Vec::new();
        for (_, _, _, plan) in candidates {
            if !hints.contains(&plan) {
                hints.push(plan);
                if hints.len() == 2 {
                    break;
                }
            }
        }
        hints
    }
}
