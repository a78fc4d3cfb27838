//! The model planner (§4.1): fixes the LLM plan, enumerates candidate
//! encoder plans under the divisibility constraints, and prunes those that
//! exceed GPU memory — plus the parallel search engine that evaluates the
//! surviving candidates.
//!
//! The search engine fans candidates out over the shared deterministic
//! worker pool (`optimus_parallel::pool`), then reduces all results by a
//! total order — (latency, plan tuple, candidate index) — so the selected
//! plan is bit-identical to a sequential sweep regardless of worker count
//! or claiming interleave.

use std::time::Duration;

use optimus_modeling::Workload;
use optimus_parallel::{enumerate_encoder_plans, pool, ColocationLayout, ParallelPlan, WorkerLoad};

use crate::error::OptimusError;
use crate::memory::optimus_memory;
use crate::profile::Ts;
use crate::scheduler::ScheduleOutcome;

/// One memory-feasible encoder plan candidate.
#[derive(Debug, Clone)]
pub struct EncoderCandidate {
    /// The encoder plan.
    pub plan: ParallelPlan,
    /// Its colocation layout over the LLM plan.
    pub layout: ColocationLayout,
    /// Estimated per-GPU memory (worst rank) in bytes.
    pub memory_bytes: u64,
}

/// Planner output: the LLM plan plus the pruned encoder candidates.
#[derive(Debug, Clone)]
pub struct PlannerOutput {
    /// The fixed LLM plan.
    pub llm_plan: ParallelPlan,
    /// Feasible encoder plans, cheapest-memory first.
    pub candidates: Vec<EncoderCandidate>,
    /// Plans pruned by the memory constraint.
    pub pruned: usize,
}

/// Runs the model planner.
///
/// The LLM plan comes from Megatron-LM practice (the paper reuses the
/// baseline's plan); encoder plans are enumerated with `PP_enc | PP_llm`,
/// `TP_enc | TP_llm`, `PP_enc` bounded by the shallowest encoder's depth,
/// and pruned against `hbm_capacity`.
pub fn plan_model(
    w: &Workload,
    llm_plan: &ParallelPlan,
    hbm_capacity: u64,
) -> Result<PlannerOutput, OptimusError> {
    let n_mb = w.microbatches(llm_plan.dp).ok_or_else(|| {
        OptimusError::Infeasible(format!("batch {} ∤ dp {}", w.global_batch, llm_plan.dp))
    })?;
    let max_enc_pp = w
        .mllm
        .encoders
        .iter()
        .map(|e| e.layers as u32)
        .min()
        .unwrap_or(1);
    let mut candidates = Vec::new();
    let mut pruned = 0usize;
    for plan in enumerate_encoder_plans(llm_plan, max_enc_pp) {
        let layout = match ColocationLayout::new(*llm_plan, plan) {
            Ok(l) => l,
            Err(_) => continue,
        };
        // Each encoder pipeline must receive at least one microbatch.
        if layout.pipelines_per_llm_pipeline() > n_mb {
            continue;
        }
        let est = optimus_memory(w, &plan, llm_plan, n_mb);
        if !est.fits(hbm_capacity) {
            pruned += 1;
            continue;
        }
        candidates.push(EncoderCandidate {
            plan,
            layout,
            memory_bytes: est.total(),
        });
    }
    candidates.sort_by_key(|c| c.memory_bytes);
    if candidates.is_empty() {
        return Err(OptimusError::Infeasible(
            "no encoder plan fits GPU memory under colocation".into(),
        ));
    }
    Ok(PlannerOutput {
        llm_plan: *llm_plan,
        candidates,
        pruned,
    })
}

/// Result of evaluating one encoder candidate.
#[derive(Debug, Clone)]
pub enum CandidateVerdict {
    /// The encoder work could not be built for this plan; the candidate is
    /// skipped without counting as evaluated.
    BuildFailed,
    /// The scheduler ran but found no feasible schedule.
    Infeasible,
    /// A feasible schedule.
    Feasible(ScheduleOutcome),
}

/// Timing and outcome counters from one parallel plan search.
#[derive(Debug, Clone)]
pub struct SearchStats {
    /// Worker threads used.
    pub workers: usize,
    /// Total candidates offered to the search.
    pub candidates: usize,
    /// Independent work items fanned out (≥ `candidates` when candidate
    /// partition spaces are split into chunks).
    pub work_items: usize,
    /// Candidates whose encoder work built (a scheduler actually ran).
    pub evaluated: usize,
    /// Candidates that produced a feasible schedule.
    pub feasible: usize,
    /// Wall-clock time of the whole fan-out/reduce.
    pub wall: Duration,
    /// Per-worker breakdown, ordered by worker index.
    pub per_worker: Vec<WorkerLoad>,
}

impl SearchStats {
    /// Candidates evaluated per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.candidates as f64 / secs
    }

    /// Sum of worker busy time (≈ sequential cost of the same sweep).
    pub fn busy_total(&self) -> Duration {
        self.per_worker.iter().map(|t| t.busy).sum()
    }
}

/// Outcome of a plan search: the winning candidate (if any) plus stats.
#[derive(Debug, Clone)]
pub struct PlanSearch {
    /// `(candidate index, outcome)` of the best feasible schedule under the
    /// total order (latency, plan tuple, index); `None` when no candidate
    /// was feasible.
    pub best: Option<(usize, ScheduleOutcome)>,
    /// Search accounting.
    pub stats: SearchStats,
}

/// One unit of plan-search work: the slice `lo..hi` of one candidate's
/// partition enumeration (`hi = usize::MAX` means "the whole space").
///
/// Splitting a candidate's partition sweep into chunks bounds the cost of
/// the largest work item, so a single expensive candidate no longer caps
/// the parallel speedup of the whole search (its chunks spread across
/// workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchChunk {
    /// Index into the candidate list.
    pub candidate: usize,
    /// First partition index covered by this item.
    pub lo: usize,
    /// One past the last partition index covered.
    pub hi: usize,
}

/// The search's total order over feasible results: latency, then the
/// encoder plan tuple `(pp, tp, dp, vpp)`, then the candidate index.
pub(crate) fn search_key(
    candidates: &[EncoderCandidate],
    c: usize,
    o: &ScheduleOutcome,
) -> (Ts, u32, u32, u32, u32, usize) {
    let p = candidates[c].plan;
    (o.latency, p.pp, p.tp, p.dp, p.vpp, c)
}

/// Evaluates chunked work items across `workers` threads and reduces to
/// the best feasible schedule.
///
/// The fan-out runs on the shared deterministic worker pool
/// ([`optimus_parallel::pool`]): work items are claimed from a shared
/// atomic counter, so workers stay busy regardless of per-item cost skew.
/// `eval` must be a pure function of its arguments: it runs concurrently
/// and its results are merged by `(candidate, lo)` afterwards.
///
/// Determinism contract: the reduction is a total order over *all*
/// results — first by schedule latency, then by the encoder plan tuple
/// `(pp, tp, dp, vpp)`, then by candidate index, then by chunk start — and
/// an `Err` from `eval` propagates as the error of the least
/// `(candidate, lo)` failing item. Both are independent of thread
/// interleaving and of how the partition space is chunked, so the returned
/// value is bit-identical for any worker count, including `workers == 1`.
pub fn search_plan_chunks<F>(
    candidates: &[EncoderCandidate],
    chunks: &[SearchChunk],
    workers: usize,
    eval: F,
) -> Result<PlanSearch, OptimusError>
where
    F: Fn(&SearchChunk, &EncoderCandidate) -> Result<CandidateVerdict, OptimusError> + Sync,
{
    let pool_run = pool::par_map(chunks, workers, |_, chunk| {
        eval(chunk, &candidates[chunk.candidate])
    });
    let (workers, wall, per_worker) = (pool_run.workers, pool_run.wall, pool_run.per_worker);
    // Merge in (candidate, chunk start) order so error propagation and
    // tie-breaking are independent of claiming interleave and of the order
    // the caller listed the chunks in. The pool hands results back in input
    // order; re-key them by the chunk they cover.
    let mut results: Vec<(usize, Result<CandidateVerdict, OptimusError>)> =
        pool_run.results.into_iter().enumerate().collect();
    results.sort_by_key(|(i, _)| (chunks[*i].candidate, chunks[*i].lo));

    let mut evaluated = vec![false; candidates.len()];
    let mut feasible = vec![false; candidates.len()];
    // Results arrive in (candidate, chunk start) order and only a strictly
    // smaller key replaces the incumbent, so ties within one candidate keep
    // the earliest chunk — the chunk start is the key's implicit last field.
    let mut best: Option<(usize, ScheduleOutcome)> = None;
    for (i, res) in results {
        let cand = chunks[i].candidate;
        match res? {
            CandidateVerdict::BuildFailed => {}
            CandidateVerdict::Infeasible => evaluated[cand] = true,
            CandidateVerdict::Feasible(outcome) => {
                evaluated[cand] = true;
                feasible[cand] = true;
                let better = match &best {
                    None => true,
                    Some((bc, b)) => {
                        search_key(candidates, cand, &outcome) < search_key(candidates, *bc, b)
                    }
                };
                if better {
                    best = Some((cand, outcome));
                }
            }
        }
    }
    Ok(PlanSearch {
        best,
        stats: SearchStats {
            workers,
            candidates: candidates.len(),
            work_items: chunks.len(),
            evaluated: evaluated.iter().filter(|&&b| b).count(),
            feasible: feasible.iter().filter(|&&b| b).count(),
            wall,
            per_worker,
        },
    })
}

/// Splits each candidate's partition enumeration into chunks of at most
/// `chunk` partitions. `partition_count(i)` must return the exact length
/// of candidate `i`'s enumeration (0 is treated as 1 so every candidate
/// gets at least one work item and infeasibility is still reported).
pub fn plan_chunks(
    candidates: &[EncoderCandidate],
    chunk: usize,
    partition_count: impl Fn(usize) -> usize,
) -> Vec<SearchChunk> {
    let chunk = chunk.max(1);
    let mut out = Vec::new();
    for i in 0..candidates.len() {
        let total = partition_count(i).max(1);
        let mut lo = 0;
        while lo < total {
            let hi = (lo + chunk).min(total);
            out.push(SearchChunk {
                candidate: i,
                lo,
                hi,
            });
            lo = hi;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_modeling::MllmConfig;

    #[test]
    fn planner_finds_candidates_for_model_d() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        let out = plan_model(&w, &llm, 80 << 30).unwrap();
        assert!(!out.candidates.is_empty());
        for c in &out.candidates {
            assert_eq!(llm.pp % c.plan.pp, 0);
            assert_eq!(llm.tp % c.plan.tp, 0);
            assert!(c.memory_bytes <= 80 << 30);
        }
    }

    #[test]
    fn tight_memory_prunes_plans() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        let loose = plan_model(&w, &llm, 200 << 30).unwrap();
        let tight = plan_model(&w, &llm, 80 << 30).unwrap();
        assert!(tight.candidates.len() <= loose.candidates.len());
        assert!(tight.pruned >= loose.pruned);
    }

    #[test]
    fn impossible_memory_is_an_error() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        assert!(matches!(
            plan_model(&w, &llm, 1 << 30),
            Err(OptimusError::Infeasible(_))
        ));
    }

    #[test]
    fn candidates_sorted_by_memory() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        let out = plan_model(&w, &llm, 120 << 30).unwrap();
        for pair in out.candidates.windows(2) {
            assert!(pair[0].memory_bytes <= pair[1].memory_bytes);
        }
    }

    #[test]
    fn pipelines_never_exceed_microbatches() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        let n_mb = w.microbatches(8).unwrap();
        let out = plan_model(&w, &llm, 80 << 30).unwrap();
        for c in &out.candidates {
            assert!(c.layout.pipelines_per_llm_pipeline() <= n_mb);
        }
    }

    fn outcome(latency: Ts) -> ScheduleOutcome {
        ScheduleOutcome {
            partition: vec![],
            prefix: 0,
            suffix: 0,
            latency,
            blocks: vec![],
            placements: vec![],
            ef: vec![],
            eb: vec![],
            in_bubble_compute: 0,
            total_compute: 0,
            relocated: (0, 0),
            mb_scales: vec![],
        }
    }

    fn model_d_candidates() -> Vec<EncoderCandidate> {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let llm = ParallelPlan::with_vpp(8, 8, 8, 12).unwrap();
        plan_model(&w, &llm, 200 << 30).unwrap().candidates
    }

    /// One work item per candidate, each covering its whole partition space.
    fn whole(cands: &[EncoderCandidate]) -> Vec<SearchChunk> {
        (0..cands.len())
            .map(|i| SearchChunk {
                candidate: i,
                lo: 0,
                hi: usize::MAX,
            })
            .collect()
    }

    /// Deterministic synthetic latency with deliberate ties across plans.
    fn fake_latency(p: &ParallelPlan) -> Ts {
        Ts::from((p.pp * 31 + p.tp * 7 + p.dp) % 5 + 100)
    }

    #[test]
    fn search_is_worker_count_invariant() {
        let cands = model_d_candidates();
        assert!(cands.len() >= 4, "want a non-trivial candidate pool");
        let eval = |_: &SearchChunk, c: &EncoderCandidate| {
            Ok(CandidateVerdict::Feasible(outcome(fake_latency(&c.plan))))
        };
        let base = search_plan_chunks(&cands, &whole(&cands), 1, eval).unwrap();
        let (bi, bo) = base.best.expect("feasible");
        for workers in [2usize, 3, 8, 32] {
            let run = search_plan_chunks(&cands, &whole(&cands), workers, eval).unwrap();
            let (i, o) = run.best.expect("feasible");
            assert_eq!(i, bi, "workers={workers}");
            assert_eq!(o.latency, bo.latency);
            assert_eq!(run.stats.evaluated, base.stats.evaluated);
            assert_eq!(run.stats.feasible, base.stats.feasible);
            assert_eq!(run.stats.candidates, cands.len());
            assert_eq!(run.stats.workers, workers.min(cands.len()));
            let claimed: usize = run.stats.per_worker.iter().map(|t| t.items).sum();
            assert_eq!(claimed, cands.len());
        }
    }

    #[test]
    fn search_breaks_latency_ties_by_plan_tuple() {
        let cands = model_d_candidates();
        let eval =
            |_: &SearchChunk, _: &EncoderCandidate| Ok(CandidateVerdict::Feasible(outcome(42)));
        let run = search_plan_chunks(&cands, &whole(&cands), 4, eval).unwrap();
        let (i, _) = run.best.unwrap();
        let key = |p: &ParallelPlan| (p.pp, p.tp, p.dp, p.vpp);
        let min = cands.iter().map(|c| key(&c.plan)).min().unwrap();
        assert_eq!(key(&cands[i].plan), min);
    }

    #[test]
    fn search_propagates_lowest_index_error() {
        let cands = model_d_candidates();
        assert!(cands.len() >= 4);
        let eval = |c: &SearchChunk, _: &EncoderCandidate| {
            let i = c.candidate;
            if i == 1 || i == 3 {
                Err(OptimusError::Infeasible(format!("boom {i}")))
            } else {
                Ok(CandidateVerdict::Feasible(outcome(1)))
            }
        };
        for workers in [1usize, 2, 8] {
            let err = search_plan_chunks(&cands, &whole(&cands), workers, eval).unwrap_err();
            assert!(
                err.to_string().contains("boom 1"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn search_counts_verdicts() {
        let cands = model_d_candidates();
        let eval = |c: &SearchChunk, _: &EncoderCandidate| {
            let i = c.candidate;
            Ok(match i % 3 {
                0 => CandidateVerdict::BuildFailed,
                1 => CandidateVerdict::Infeasible,
                _ => CandidateVerdict::Feasible(outcome(Ts::try_from(i).unwrap())),
            })
        };
        let run = search_plan_chunks(&cands, &whole(&cands), 4, eval).unwrap();
        let n = cands.len();
        let built = (0..n).filter(|i| i % 3 != 0).count();
        let feas = (0..n).filter(|i| i % 3 == 2).count();
        assert_eq!(run.stats.evaluated, built);
        assert_eq!(run.stats.feasible, feas);
        // Lowest feasible index wins: all latencies distinct, index 2 is
        // the smallest.
        assert_eq!(run.best.unwrap().0, 2);
    }

    #[test]
    fn chunked_search_matches_unchunked() {
        let cands = model_d_candidates();
        // Synthetic partition space: candidate i has (i % 5) + 1 partitions
        // and each (candidate, partition) pair maps to a fixed latency with
        // deliberate cross-candidate ties.
        let n_parts = |i: usize| (i % 5) + 1;
        let lat = |i: usize, p: usize| Ts::try_from((i * 7 + p * 3) % 11 + 1).unwrap();
        let eval_chunk = |c: &SearchChunk, _: &EncoderCandidate| {
            let hi = c.hi.min(n_parts(c.candidate));
            Ok(match (c.lo..hi).map(|p| lat(c.candidate, p)).min() {
                Some(l) => CandidateVerdict::Feasible(outcome(l)),
                None => CandidateVerdict::Infeasible,
            })
        };
        let base = search_plan_chunks(&cands, &whole(&cands), 1, eval_chunk).unwrap();
        let (bi, bo) = base.best.expect("feasible");
        for chunk_size in [1usize, 2, 3] {
            for workers in [1usize, 4, 16] {
                let chunks = plan_chunks(&cands, chunk_size, n_parts);
                assert!(chunks.len() > cands.len());
                let run = search_plan_chunks(&cands, &chunks, workers, eval_chunk).unwrap();
                let (i, o) = run.best.expect("feasible");
                assert_eq!(i, bi, "chunk={chunk_size} workers={workers}");
                assert_eq!(o.latency, bo.latency);
                assert_eq!(run.stats.evaluated, base.stats.evaluated);
                assert_eq!(run.stats.feasible, base.stats.feasible);
                assert_eq!(run.stats.work_items, chunks.len());
            }
        }
    }

    #[test]
    fn empty_candidate_list_yields_no_best() {
        let run = search_plan_chunks(&[], &[], 4, |_, _| {
            Ok(CandidateVerdict::Feasible(outcome(1)))
        })
        .unwrap();
        assert!(run.best.is_none());
        assert_eq!(run.stats.candidates, 0);
    }
}
