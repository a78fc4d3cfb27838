//! The top-level Optimus workflow (Algorithm 1): model planner → per-plan
//! bubble scheduling → pick the schedule with the shortest latency.

use std::sync::OnceLock;

use optimus_baselines::common::{make_report, SystemContext};
use optimus_modeling::{MemoryEstimate, StepReport, Workload};
use optimus_parallel::ParallelPlan;

use crate::encoder::EncoderWork;
use crate::error::OptimusError;
use crate::memory::optimus_memory;
use crate::planner::{
    plan_chunks, plan_model, search_key, search_plan_chunks, CandidateVerdict, EncoderCandidate,
    PlanSearch, PlannerOutput, SearchChunk, SearchStats,
};
use crate::profile::{DeviceProfile, LlmProfile, Ts};
use crate::scheduler::{partition_count, BubbleScheduler, ScheduleOutcome};

/// Optimus configuration knobs.
#[derive(Debug, Clone)]
pub struct OptimusConfig {
    /// The LLM plan (reused from Megatron-LM practice, §4.1).
    pub llm_plan: ParallelPlan,
    /// Cap on microbatch partitions evaluated per encoder plan (the full
    /// composition space is sampled evenly above this).
    pub max_partitions: usize,
    /// Enable fine-grained (kernel-level) bubble exploitation.
    pub fine_grained: bool,
    /// Defer forward dependency points by slack analysis (Fig. 12). Set to
    /// `false` to produce runs that [`crate::verify()`] can re-simulate
    /// exactly.
    pub adjust_dep_points: bool,
    /// Multi-stage training with frozen encoders (§6): schedule the encoder
    /// + adapter forward and only the adapter's backward.
    pub frozen_encoder: bool,
    /// Fraction of every interior bubble reserved against kernel-runtime
    /// jitter (§6 mitigation; see [`crate::robustness`]).
    pub bubble_margin: f64,
    /// Per-claim slack margin on bubble-insert claims: each placed kernel
    /// reserves headroom for a `(1 + bubble_slack)×` runtime stretch, so a
    /// straggler or jitter up to that factor cannot escape its proven-idle
    /// interval (OPT005). `0.0` (the default) keeps the historical exact
    /// packing bit-identically; unlike `bubble_margin`, the reservation
    /// scales per kernel instead of shrinking whole intervals.
    pub bubble_slack: f64,
    /// LLM pipeline schedule to build the bubble profile from — Optimus is
    /// schedule-orthogonal (§6).
    pub llm_schedule: crate::profile::LlmScheduleKind,
    /// Per-microbatch encoder load scales for heterogeneous data (variable
    /// images per sample); `None` = uniform.
    pub mb_scales: Option<Vec<f64>>,
    /// Worker threads for the candidate plan search; `0` = one per
    /// available core. The chosen plan is bit-identical for any value.
    pub search_workers: usize,
    /// Build the profile by simulating the full `pp × tp × dp` cluster graph
    /// ([`crate::fold`]) and projecting one pipeline back, instead of
    /// simulating the base pipeline once. The answer is bit-identical and
    /// slower, so this defaults to `false`. Benchmark API: kept only because
    /// the repository benchmark reads it; the benchmark change that drops
    /// its fold calls deletes it.
    pub folded_sim: bool,
    /// Static analysis of the chosen schedule before it is returned
    /// (deadlock signatures, collective mismatches, bubble-claim validity,
    /// memory budget). `Deny` fails the run on error diagnostics.
    pub lint: crate::lint::LintMode,
}

impl OptimusConfig {
    /// Default configuration for a given LLM plan.
    pub fn new(llm_plan: ParallelPlan) -> OptimusConfig {
        OptimusConfig {
            llm_plan,
            max_partitions: 128,
            fine_grained: true,
            adjust_dep_points: true,
            frozen_encoder: false,
            bubble_margin: 0.0,
            bubble_slack: 0.0,
            llm_schedule: crate::profile::LlmScheduleKind::default(),
            mb_scales: None,
            search_workers: 0,
            folded_sim: false,
            lint: crate::lint::LintMode::default(),
        }
    }

    /// Sets the plan-search worker count (`0` = one per available core).
    pub fn with_search_workers(mut self, workers: usize) -> OptimusConfig {
        self.search_workers = workers;
        self
    }

    /// Sets [`OptimusConfig::folded_sim`] (benchmark API).
    pub fn with_folded_sim(mut self, folded: bool) -> OptimusConfig {
        self.folded_sim = folded;
        self
    }
}

/// Accounting for a warm-started plan search (see [`run_optimus_seeded`]).
///
/// Warm start changes *how much* of the candidate space is swept, never the
/// answer: pruning uses a work-conservation lower bound that is strict, so
/// the merged winner is bit-identical to a cold sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    /// The encoder plans the search was seeded with, in hint order.
    pub hint_plans: Vec<ParallelPlan>,
    /// Whether any seed produced a feasible incumbent (when none did, the
    /// search degenerates to the full cold sweep).
    pub hint_feasible: bool,
    /// Candidates pruned by the lower bound against the incumbent.
    pub pruned_by_bound: usize,
    /// Non-hint candidates that survived the bound and were fully swept.
    pub survivors: usize,
    /// Work items actually evaluated across both phases.
    pub work_items_evaluated: usize,
    /// Work items a cold sweep would have evaluated.
    pub work_items_total: usize,
}

/// Everything produced by one Optimus planning + scheduling run.
#[derive(Debug, Clone)]
pub struct OptimusRun {
    /// Headline numbers.
    pub report: StepReport,
    /// The chosen encoder plan.
    pub enc_plan: ParallelPlan,
    /// The winning schedule.
    pub outcome: ScheduleOutcome,
    /// The LLM bubble profile the schedule was built against.
    pub profile: LlmProfile,
    /// Worst-GPU memory estimate.
    pub memory: MemoryEstimate,
    /// Scheduling efficiency with coarse-grained exploitation only.
    pub eff_coarse: f64,
    /// Scheduling efficiency with fine-grained exploitation.
    pub eff_fine: f64,
    /// Encoder plans pruned by memory.
    pub planner_pruned: usize,
    /// Encoder plans evaluated by the scheduler.
    pub candidates_evaluated: usize,
    /// Timing and counters from the parallel plan search.
    pub search: SearchStats,
    /// Warm-start accounting when the run was seeded via
    /// [`run_optimus_seeded`]; `None` for a cold search.
    pub warm: Option<WarmStart>,
    /// Static-analysis report for the chosen schedule (empty when the lint
    /// mode is `Off`).
    pub lint: optimus_lint::LintReport,
}

/// Per-device compute-usable idle capacity inside `[0, t]`: the leading
/// region, every interior bubble, and the trailing region, each clipped to
/// the window. Comm windows are excluded, matching what the scheduler lets
/// encoder *compute* kernels occupy.
fn device_idle_before(d: &DeviceProfile, makespan: Ts, t: Ts) -> Ts {
    let t = t.clamp(0, makespan);
    let mut idle = t.min(d.leading_end).max(0);
    for iv in &d.interior {
        idle += (iv.end.min(t) - iv.start).max(0).min(iv.len());
    }
    idle + (t - d.trailing_start).max(0)
}

/// Total compute-usable idle of a device across the whole makespan.
fn device_idle_total(d: &DeviceProfile, makespan: Ts) -> Ts {
    d.leading_end + (makespan - d.trailing_start) + d.interior_capacity()
}

/// One encoder candidate's search state, built at most once per run and
/// shared by every work item of the candidate, the warm start's bound
/// screening and the coarse-efficiency pass.
struct CandidateState<'a> {
    scheduler: BubbleScheduler<'a>,
    /// The candidate's partition enumeration; `None` when the microbatches
    /// cannot feed its encoder pipelines.
    partitions: Option<Vec<Vec<u32>>>,
}

/// Builds candidate `cand`'s encoder work — frozen-encoder or full, per
/// `cfg.frozen_encoder`.
fn build_work(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
    cand: &EncoderCandidate,
) -> Result<EncoderWork, OptimusError> {
    let mb = u64::from(w.microbatch_size);
    if cfg.frozen_encoder {
        EncoderWork::build_frozen(&w.mllm, &cand.plan, mb, ctx)
    } else {
        EncoderWork::build(&w.mllm, &cand.plan, mb, ctx)
    }
}

/// Builds the candidate's bubble scheduler with the configured margin,
/// slack and microbatch scales, and enumerates its partitions. `Err` is a
/// scheduler the configuration cannot set up.
fn build_state<'a>(
    cfg: &OptimusConfig,
    profile: &'a LlmProfile,
    work: &'a EncoderWork,
    cand: &'a EncoderCandidate,
) -> Result<CandidateState<'a>, OptimusError> {
    let scheduler = BubbleScheduler::new(profile, work, &cand.layout)?
        .with_margin(cfg.bubble_margin)
        .with_slack(cfg.bubble_slack);
    let scheduler = match &cfg.mb_scales {
        Some(sc) => scheduler.with_scales(sc.clone())?,
        None => scheduler,
    };
    Ok(CandidateState {
        partitions: scheduler.candidate_partitions(cfg.max_partitions).ok(),
        scheduler,
    })
}

/// Lower bound on the best step latency any partition of the scheduler's
/// encoder candidate can achieve, or `None` when no bound applies (the
/// candidate is then swept normally). Three families of constraints are
/// combined; every feasible schedule satisfies all of them, so a candidate
/// whose bound *strictly* exceeds a feasible incumbent latency can never
/// beat it under the search's total order (latency first) and is safe to
/// skip.
///
/// Every outcome the scheduler emits has `latency = prefix + makespan +
/// suffix` and passes `CheckEncLLMDep`: the i-th smallest encoder-forward
/// finish is at most the i-th smallest forward point `F_(i)`, and the i-th
/// smallest encoder-backward start is at least the i-th smallest backward
/// point `B_(i)`. Writing `m` for encoder pipelines per LLM pipeline and
/// using the sorted microbatch scales `s_(0) <= ... <= s_(n-1)`:
///
/// 1. *Work conservation.* Some pipeline owns `q = ceil(n_mb / m)`
///    microbatches; its heaviest stage executes their compute inside
///    `prefix + suffix` plus that device's total idle, so
///    `prefix + suffix >= W_heavy(q) - max_d idle_d`.
/// 2. *Forward windows.* By `F_(i)`, `i + 1` forwards are complete, so some
///    pipeline completed `c = ceil((i+1)/m)` of them, and its heaviest
///    forward stage did at least the `c` smallest-scaled amounts of that
///    work before `F_(i)` — inside `prefix + max_d idle_d([0, F_(i)])`.
///    Also, any `i + 1` distinct microbatches include one with scale at
///    least `s_(i)`, and that microbatch's forward is a serial chain
///    through every stage, started no earlier than `-prefix`:
///    `prefix >= chain_fwd * s_(i) - F_(i)`. The chain includes *all* of
///    the microbatch's kernels — both placement paths (the coarse front
///    block and kernel packing) strictly serialise one microbatch's
///    compute and comm kernels and pay the P2P margin between stages — so
///    TP-heavy candidates pay their collective traffic here.
/// 3. *Backward windows.* At least `n_mb - i` backwards start at or after
///    `B_(i)`; the mirrored counting gives
///    `suffix >= W_bwd(ceil((n_mb-i)/m)) - max_d idle_d([B_(i), makespan])`
///    and `suffix >= B_(i) + chain_bwd * s_(n-1-i) - makespan`.
///
/// Each inequality is conservative: the capacity terms drop comm kernels
/// from the work side (they may overlap LLM compute in comm windows), the
/// most generous device supplies the idle side, and each microbatch's
/// rounded kernel sum is under-counted by its kernel count (placed kernels
/// round to the nearest ns, so each may round down by at most half a ns).
fn candidate_latency_bound(sched: &BubbleScheduler<'_>) -> Option<Ts> {
    let (profile, work) = (sched.profile(), sched.work());
    let n_mb = profile.n_microbatches() as usize;
    let m = sched.layout().pipelines_per_llm_pipeline() as usize;
    if m == 0 || n_mb < m {
        return None; // the sweep itself reports the infeasibility
    }
    // Per-stage compute aggregates (comm excluded — it overlaps LLM compute
    // in comm windows) with kernel counts for the rounding allowance.
    let stage = |fwd: bool| {
        work.stages.iter().map(move |s| {
            let ks = if fwd { &s.fwd } else { &s.bwd };
            (
                if fwd {
                    s.fwd_compute()
                } else {
                    s.bwd_compute()
                },
                ks.iter().filter(|k| !k.comm).count() as Ts,
            )
        })
    };
    let (heavy, heavy_kernels) = work
        .stages
        .iter()
        .map(|s| {
            (
                s.fwd_compute() + s.bwd_compute(),
                s.fwd.iter().chain(&s.bwd).filter(|k| !k.comm).count() as Ts,
            )
        })
        .max_by_key(|&(c, _)| c)?;
    if heavy <= 0 {
        return None;
    }
    let (heavy_f, heavy_f_k) = stage(true).max_by_key(|&(c, _)| c)?;
    let (heavy_b, heavy_b_k) = stage(false).max_by_key(|&(c, _)| c)?;
    // Serial chains carry every kernel (comm included) plus one P2P hop per
    // stage boundary; see the doc comment for why this is sound.
    let serial = |fwd: bool| {
        work.stages
            .iter()
            .map(|s| {
                let ks = if fwd { &s.fwd } else { &s.bwd };
                (ks.iter().map(|k| k.dur).sum::<Ts>(), ks.len() as Ts)
            })
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let p2p_hops = (work.stages.len() as Ts - 1) * profile.p2p_margin.0 as Ts;
    let (chain_f, chain_f_k) = serial(true);
    let (chain_b, chain_b_k) = serial(false);
    let mut scales = sched
        .mb_scales()
        .map_or_else(|| vec![1.0; n_mb], <[f64]>::to_vec);
    scales.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // One microbatch's under-counted contribution at a given scale.
    let floor_work =
        |dur: Ts, s: f64, kernels: Ts| (((dur as f64) * s).floor() as Ts - kernels).max(0);
    // Prefix sums of the k smallest-scaled contributions per family.
    let cum = |dur: Ts, kernels: Ts| {
        let mut acc = Vec::with_capacity(n_mb + 1);
        acc.push(0);
        for s in &scales {
            acc.push(acc.last()? + floor_work(dur, *s, kernels));
        }
        Some(acc)
    };
    let w_heavy = cum(heavy, heavy_kernels)?;
    let w_fwd = cum(heavy_f, heavy_f_k)?;
    let w_bwd = cum(heavy_b, heavy_b_k)?;
    let makespan = profile.makespan;
    let idle_before = |t: Ts| {
        profile
            .devices
            .iter()
            .map(|d| device_idle_before(d, makespan, t))
            .max()
            .unwrap_or(0)
    };
    let idle_after = |t: Ts| {
        profile
            .devices
            .iter()
            .map(|d| device_idle_total(d, makespan) - device_idle_before(d, makespan, t))
            .max()
            .unwrap_or(0)
    };
    // (1) Work conservation across the whole window.
    let i_max: Ts = profile
        .devices
        .iter()
        .map(|d| device_idle_total(d, makespan))
        .max()?;
    let global = (w_heavy[n_mb.div_ceil(m)] - i_max).max(0);
    // (2)/(3) Dependency windows, when the profile exposes a point per
    // microbatch (always true for the schedules the engine builds).
    let (mut prefix_lb, mut suffix_lb) = (0, 0);
    let (f_sorted, b_sorted) = (&sched.f_sorted, &sched.b_sorted);
    if f_sorted.len() == n_mb && b_sorted.len() == n_mb {
        for i in 0..n_mb {
            let c = (i + 1).div_ceil(m);
            prefix_lb = prefix_lb
                .max(w_fwd[c] - idle_before(f_sorted[i]))
                .max(floor_work(chain_f, scales[i], chain_f_k) + p2p_hops - f_sorted[i]);
            let c = (n_mb - i).div_ceil(m);
            suffix_lb = suffix_lb.max(w_bwd[c] - idle_after(b_sorted[i])).max(
                b_sorted[i] + floor_work(chain_b, scales[n_mb - 1 - i], chain_b_k) + p2p_hops
                    - makespan,
            );
        }
    }
    Some(makespan + global.max(prefix_lb + suffix_lb))
}

/// Merges two partial sweeps over disjoint candidate sets into one
/// [`PlanSearch`], reducing the incumbents by the engine's own key — (latency,
/// plan tuple, candidate). The two winners are different candidates, so the
/// key orders them strictly and the merged winner equals what one sweep over
/// the union of both chunk sets would have returned.
fn merge_searches(candidates: &[EncoderCandidate], a: PlanSearch, b: PlanSearch) -> PlanSearch {
    let key = |s: &PlanSearch| {
        let (c, o) = s.best.as_ref()?;
        Some(search_key(candidates, *c, o))
    };
    let (winner, loser) = match (key(&a), key(&b)) {
        (Some(ka), Some(kb)) if kb < ka => (b, a),
        (None, Some(_)) => (b, a),
        _ => (a, b),
    };
    let mut per_worker = winner.stats.per_worker.clone();
    for t in &loser.stats.per_worker {
        match per_worker.iter_mut().find(|p| p.worker == t.worker) {
            Some(p) => {
                p.items += t.items;
                p.busy += t.busy;
            }
            None => per_worker.push(*t),
        }
    }
    per_worker.sort_by_key(|t| t.worker);
    PlanSearch {
        best: winner.best,
        stats: SearchStats {
            workers: winner.stats.workers.max(loser.stats.workers),
            candidates: candidates.len(),
            work_items: winner.stats.work_items + loser.stats.work_items,
            evaluated: winner.stats.evaluated + loser.stats.evaluated,
            feasible: winner.stats.feasible + loser.stats.feasible,
            wall: winner.stats.wall + loser.stats.wall,
            per_worker,
        },
    }
}

/// Runs Optimus end to end (Algorithm 1): [`run_optimus_seeded`] with no
/// hints, a cold sweep of every candidate.
pub fn run_optimus(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
) -> Result<OptimusRun, OptimusError> {
    run_optimus_seeded(w, cfg, ctx, &[])
}

/// Runs Optimus end to end, warm-starting the candidate search from a set
/// of previously winning encoder plans (typically the nearest plan-cache
/// entries for the same model).
///
/// With hints, the engine sweeps the hinted candidates' full partition
/// spaces first; if that yields a feasible incumbent, every other candidate
/// is screened by `candidate_latency_bound` and only the survivors are
/// swept. The bound prunes strictly-worse candidates only, so the final
/// answer — winner, outcome, report — is bit-identical to [`run_optimus`];
/// only the search accounting (`search`, `warm`) differs. Hints that match
/// no candidate are dropped; when none match, the run falls back to the
/// cold sweep (and `warm` is `None`).
pub fn run_optimus_seeded(
    w: &Workload,
    cfg: &OptimusConfig,
    ctx: &SystemContext,
    hints: &[ParallelPlan],
) -> Result<OptimusRun, OptimusError> {
    let planner: PlannerOutput = plan_model(w, &cfg.llm_plan, ctx.topo.gpu.hbm_capacity)?;
    let profile = LlmProfile::build_routed(
        w,
        &cfg.llm_plan,
        ctx,
        cfg.adjust_dep_points,
        cfg.llm_schedule,
        cfg.folded_sim,
    )?;
    let n_mb = profile.n_microbatches();

    // Fan the search out across workers. Work items are (candidate,
    // partition chunk) pairs. A candidate's encoder work, scheduler and
    // partition enumeration are built once, by whichever of its items runs
    // first, and every item sweeps its slice of the shared list; the items
    // also share the scheduler's memo of fine-pass packings. Items score
    // partitions without recording placements: only the winner is recorded,
    // after the reduction. Chunking bounds the cost of the largest item so
    // one expensive candidate cannot cap the speedup; the engine's
    // deterministic reduction makes the winner identical to a sequential
    // sweep for any worker count. An infeasible candidate counts 0
    // partitions and gets one item, which reports it.
    const PARTITIONS_PER_ITEM: usize = 8;
    let chunks = plan_chunks(&planner.candidates, PARTITIONS_PER_ITEM, |i| {
        let m = planner.candidates[i].layout.pipelines_per_llm_pipeline();
        partition_count(n_mb, m, cfg.max_partitions)
    });
    // `None` is a failed encoder build.
    let works: Vec<OnceLock<Option<EncoderWork>>> =
        planner.candidates.iter().map(|_| OnceLock::new()).collect();
    let states: Vec<OnceLock<Result<CandidateState<'_>, OptimusError>>> =
        planner.candidates.iter().map(|_| OnceLock::new()).collect();
    let state = |i: usize| -> Option<Result<&CandidateState<'_>, OptimusError>> {
        let cand = &planner.candidates[i];
        let work = works[i]
            .get_or_init(|| build_work(w, cfg, ctx, cand).ok())
            .as_ref()?;
        let state = states[i].get_or_init(|| build_state(cfg, &profile, work, cand));
        Some(state.as_ref().map_err(Clone::clone))
    };
    let eval = |chunk: &SearchChunk, _: &EncoderCandidate| {
        let Some(state) = state(chunk.candidate) else {
            return Ok(CandidateVerdict::BuildFailed);
        };
        let state = state?;
        let best = (state.partitions.as_deref())
            .and_then(|parts| parts.get(chunk.lo..chunk.hi.min(parts.len())))
            .and_then(|slice| state.scheduler.score_slice(slice, cfg.fine_grained));
        Ok(best.map_or(CandidateVerdict::Infeasible, CandidateVerdict::Feasible))
    };
    // Hints that match no candidate are dropped; duplicates keep their
    // first occurrence so the seeding order stays the caller's.
    let mut hint_idx: Vec<usize> = Vec::new();
    for hp in hints {
        if let Some(i) = planner.candidates.iter().position(|c| c.plan == *hp) {
            if !hint_idx.contains(&i) {
                hint_idx.push(i);
            }
        }
    }
    let (search, warm) = if hint_idx.is_empty() {
        (
            search_plan_chunks(&planner.candidates, &chunks, cfg.search_workers, eval)?,
            None,
        )
    } else {
        // Phase 1: sweep the hinted candidates' full partition spaces —
        // the winner's neighbourhood — to establish an incumbent.
        let (hint_chunks, rest): (Vec<SearchChunk>, Vec<SearchChunk>) =
            chunks.iter().partition(|c| hint_idx.contains(&c.candidate));
        let phase1 =
            search_plan_chunks(&planner.candidates, &hint_chunks, cfg.search_workers, eval)?;
        let incumbent_latency = phase1.best.as_ref().map(|(_, o)| o.latency);
        // Phase 2: with a feasible incumbent, sweep only the candidates
        // the lower bound cannot rule out; otherwise sweep everything
        // (the union of both phases is then exactly the cold sweep).
        let mut pruned_by_bound = 0usize;
        let phase2_chunks: Vec<SearchChunk> = match incumbent_latency {
            None => rest,
            Some(lat) => {
                let pruned: Vec<bool> = (0..planner.candidates.len())
                    .map(|i| {
                        !hint_idx.contains(&i)
                            && state(i)
                                .and_then(Result::ok)
                                .and_then(|s| candidate_latency_bound(&s.scheduler))
                                .is_some_and(|bound| bound > lat)
                    })
                    .collect();
                pruned_by_bound = pruned.iter().filter(|&&p| p).count();
                rest.into_iter().filter(|c| !pruned[c.candidate]).collect()
            }
        };
        let phase2 = search_plan_chunks(
            &planner.candidates,
            &phase2_chunks,
            cfg.search_workers,
            eval,
        )?;
        let merged = merge_searches(&planner.candidates, phase1, phase2);
        let warm = WarmStart {
            hint_plans: hint_idx
                .iter()
                .map(|&i| planner.candidates[i].plan)
                .collect(),
            hint_feasible: incumbent_latency.is_some(),
            pruned_by_bound,
            survivors: planner
                .candidates
                .len()
                .saturating_sub(hint_idx.len() + pruned_by_bound),
            work_items_evaluated: merged.stats.work_items,
            work_items_total: chunks.len(),
        };
        (merged, Some(warm))
    };
    let stats = search.stats;
    let (best_idx, scored) = search.best.ok_or_else(|| {
        OptimusError::Infeasible("no encoder plan produced a feasible schedule".into())
    })?;
    let best = &planner.candidates[best_idx];
    let enc_plan = best.plan;
    let best_state = state(best_idx)
        .expect("the winning candidate's encoder work built")
        .expect("the winning candidate's scheduler built");
    // Record the winner's placements: the same partition, run again with
    // recording on, must reproduce its score.
    let outcome = (best_state.scheduler)
        .schedule_partition(&scored.partition, cfg.fine_grained)
        .filter(|o| o.latency == scored.latency)
        .ok_or_else(|| {
            OptimusError::Infeasible(format!(
                "partition {:?} of {enc_plan} scored {} ns but does not record the same schedule",
                scored.partition, scored.latency
            ))
        })?;
    // Coarse-only efficiency for the chosen plan (Table 7's Eff_coarse).
    let eff_coarse = (best_state.partitions.as_deref())
        .and_then(|parts| best_state.scheduler.score_slice(parts, false))
        .map_or(0.0, |o| o.efficiency());

    let memory = optimus_memory(w, &enc_plan, &cfg.llm_plan, n_mb);

    // Static analysis of the chosen schedule (lint-before-simulate): the
    // profile graph's structural lints plus the schedule-level claims. Works
    // for every layout, including the multi-lane ones `verify` rejects.
    let lint = match cfg.lint {
        crate::lint::LintMode::Off => optimus_lint::LintReport::default(),
        crate::lint::LintMode::Warn | crate::lint::LintMode::Deny => {
            let report = crate::lint::lint_run(
                &outcome,
                &profile,
                &best.layout,
                enc_plan.tp,
                &memory,
                ctx.topo.gpu.hbm_capacity,
            );
            if cfg.lint == crate::lint::LintMode::Deny && report.has_errors() {
                return Err(OptimusError::LintFailed {
                    diagnostics: report.errors().map(|d| d.summary()).collect(),
                });
            }
            report
        }
    };

    let report = make_report("Optimus", w, ctx, outcome.latency_secs(), &memory);
    let eff_fine = outcome.efficiency();
    Ok(OptimusRun {
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
        warm,
        lint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_baselines::{megatron_balanced, megatron_lm};
    use optimus_modeling::MllmConfig;

    fn small_ctx() -> (Workload, SystemContext) {
        (
            Workload::new(MllmConfig::small(), 8, 16, 1),
            SystemContext::hopper(8).unwrap(),
        )
    }
    #[test]
    fn optimus_beats_megatron_on_small_model() {
        let (w, ctx) = small_ctx();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        let m = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
        assert!(
            run.report.iteration_secs < m.report.iteration_secs,
            "optimus {:.4}s vs megatron {:.4}s",
            run.report.iteration_secs,
            m.report.iteration_secs
        );
    }

    #[test]
    fn optimus_beats_balanced_on_small_model() {
        let (w, ctx) = small_ctx();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        let b = megatron_balanced(&w, (2, 2, 2), 2, &ctx).unwrap();
        assert!(
            run.report.iteration_secs < b.report.iteration_secs,
            "optimus {:.4}s vs balanced {:.4}s",
            run.report.iteration_secs,
            b.report.iteration_secs
        );
    }

    #[test]
    fn fine_efficiency_at_least_coarse() {
        let (w, ctx) = small_ctx();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        assert!(
            run.eff_fine >= run.eff_coarse - 1e-9,
            "{} vs {}",
            run.eff_fine,
            run.eff_coarse
        );
        assert!(run.eff_fine > 0.0 && run.eff_fine <= 1.0);
    }

    #[test]
    fn mfu_reported_and_memory_fits() {
        let (w, ctx) = small_ctx();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        assert!(run.report.mfu > 0.0 && run.report.mfu < 1.0);
        assert!(!run.report.oom);
    }

    #[test]
    fn hinted_search_matches_cold_bit_identically() {
        let (w, ctx) = small_ctx();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let cold = run_optimus(&w, &cfg, &ctx).unwrap();
        assert!(cold.warm.is_none());
        // Seeding with the cold winner must reproduce it exactly.
        let warm = run_optimus_seeded(&w, &cfg, &ctx, &[cold.enc_plan]).unwrap();
        assert_eq!(warm.enc_plan, cold.enc_plan);
        assert_eq!(warm.outcome, cold.outcome);
        assert_eq!(warm.report.iteration_secs, cold.report.iteration_secs);
        assert_eq!(warm.search.candidates, cold.search.candidates);
        let ws = warm.warm.expect("hinted run records warm accounting");
        assert!(ws.hint_feasible);
        assert_eq!(ws.hint_plans, vec![cold.enc_plan]);
        assert!(ws.work_items_evaluated <= ws.work_items_total);
        assert_eq!(
            ws.pruned_by_bound + ws.survivors + 1,
            cold.search.candidates
        );
        // Seeding with a non-winning but valid candidate also matches.
        let other =
            run_optimus_seeded(&w, &cfg, &ctx, &[ParallelPlan::new(8, 1, 1).unwrap()]).unwrap();
        assert_eq!(other.enc_plan, cold.enc_plan);
        assert_eq!(other.outcome, cold.outcome);
        // Multi-hint seeding: duplicates collapse, unknown plans drop, and
        // the answer is still bit-identical to cold.
        let seeded = run_optimus_seeded(
            &w,
            &cfg,
            &ctx,
            &[
                cold.enc_plan,
                ParallelPlan::new(8, 1, 1).unwrap(),
                cold.enc_plan,
                ParallelPlan::new(7, 7, 7).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(seeded.enc_plan, cold.enc_plan);
        assert_eq!(seeded.outcome, cold.outcome);
        let ss = seeded.warm.expect("seeded run records warm accounting");
        assert_eq!(
            ss.hint_plans,
            vec![cold.enc_plan, ParallelPlan::new(8, 1, 1).unwrap()]
        );
        assert_eq!(
            ss.pruned_by_bound + ss.survivors + 2,
            cold.search.candidates
        );
        // A hint matching no candidate falls back to the cold sweep.
        let bogus = ParallelPlan::new(7, 7, 7).unwrap();
        let fallback = run_optimus_seeded(&w, &cfg, &ctx, &[bogus]).unwrap();
        assert!(fallback.warm.is_none());
        assert_eq!(fallback.enc_plan, cold.enc_plan);
        assert_eq!(fallback.outcome, cold.outcome);
    }

    #[test]
    fn merged_phases_resolve_latency_ties_as_one_sweep() {
        let (w, _) = small_ctx();
        let llm = ParallelPlan::new(2, 2, 2).unwrap();
        let cands = plan_model(&w, &llm, u64::MAX).unwrap().candidates;
        assert!(cands.len() >= 3, "want a non-trivial candidate pool");
        // Two chunks per candidate; every candidate's second chunk ties on
        // latency with the others, so the plan tuple decides.
        let chunks = plan_chunks(&cands, 1, |_| 2);
        let eval = |c: &SearchChunk, _: &EncoderCandidate| {
            Ok(CandidateVerdict::Feasible(ScheduleOutcome {
                partition: vec![c.candidate as u32, c.lo as u32],
                prefix: 0,
                suffix: 0,
                latency: if c.lo == 0 { 100 } else { 98 },
                blocks: vec![],
                placements: vec![],
                ef: vec![],
                eb: vec![],
                in_bubble_compute: 0,
                total_compute: 0,
                relocated: (0, 0),
                mb_scales: vec![],
            }))
        };
        let union = search_plan_chunks(&cands, &chunks, 1, eval).unwrap();
        let (ui, uo) = union.best.clone().expect("feasible");
        for split in 0..cands.len() {
            for workers in [1usize, 2, 4] {
                let (a, b): (Vec<SearchChunk>, Vec<SearchChunk>) =
                    chunks.iter().partition(|c| c.candidate <= split);
                let a = search_plan_chunks(&cands, &a, workers, eval).unwrap();
                let b = search_plan_chunks(&cands, &b, workers, eval).unwrap();
                for merged in [
                    merge_searches(&cands, a.clone(), b.clone()),
                    merge_searches(&cands, b.clone(), a.clone()),
                ] {
                    let (mi, mo) = merged.best.expect("feasible");
                    assert_eq!((mi, &mo), (ui, &uo), "split={split} workers={workers}");
                    assert_eq!(merged.stats.work_items, chunks.len());
                    assert_eq!(merged.stats.feasible, union.stats.feasible);
                }
            }
        }
    }

    #[test]
    fn multi_encoder_supported() {
        let mllm = MllmConfig::multi(
            "dual-small",
            vec![
                optimus_modeling::TransformerConfig::vit_3b(),
                optimus_modeling::TransformerConfig::vit_3b(),
            ],
            optimus_modeling::TransformerConfig::gpt_11b(),
        );
        let w = Workload::new(mllm, 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        let m = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
        assert!(run.report.iteration_secs < m.report.iteration_secs);
    }
}
