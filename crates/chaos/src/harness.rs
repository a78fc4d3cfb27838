//! The probe harness: one chosen plan, evaluated under perturbations.
//!
//! A [`ChaosHarness`] plans once (the *chosen plan*: planner output, the
//! lowered task graph, the verified insert schedule, and a bubble-placed
//! checkpoint plan) and then evaluates arbitrary [`Perturbation`]s against
//! it. Each probe produces a [`ProbeReport`] scoring three independent
//! failure surfaces:
//!
//! 1. **Makespan regret** — the chosen plan simulated under the injected
//!    faults, versus a fault-aware re-plan (degraded link prices, straggler
//!    slowdown in the microbatch cost scales, widened bubble margin)
//!    evaluated under the *same* faults' residual. Regret is how much
//!    latency the static plan leaves on the table.
//! 2. **Schedule lint** — the verified OPT005 insert claims with the
//!    perturbation's timing damage applied, re-linted. Errors mean the
//!    proven-idle bubbles no longer contain the inserts.
//! 3. **Recovery ledger** — the perturbation's failure trace driven
//!    through the checkpoint/restart lifecycle, with every exact-ledger
//!    invariant checked (`wall == useful + lost`, gapless timeline,
//!    per-kind reconciliation).
//!
//! Probes are pure functions of the perturbation: the re-plan memo is
//! keyed only by the knobs that feed the planner, so results are
//! bit-identical at any worker count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use optimus_baselines::common::SystemContext;
use optimus_cluster::{DurNs, Fingerprint, FpHasher, LinkProfile};
use optimus_core::{
    fault_aware_replan, lowered_schedule, run_optimus, schedule_insert_set, OptimusConfig,
    OptimusRun,
};
use optimus_lint::InsertSet;
use optimus_modeling::{MllmConfig, Workload};
use optimus_parallel::{pool, ColocationLayout, ParallelPlan};
use optimus_recovery::{
    plan_checkpoints, simulate_lifecycle, CheckpointConfig, CheckpointPlan, RecoveryParams,
};
use optimus_sim::{simulate, TaskGraph, TaskKind};

use crate::error::ChaosError;
use crate::perturbation::{DegradedClass, Perturbation};
use crate::score::{
    ledger_violations, lint_violations, perturbed_insert_set, ChaosScore, ProbeReport,
};

/// The per-claim bubble slack the reference harness plans with: enough to
/// absorb the ≤ 2% stragglers/jitter PR 6's minimized counterexamples
/// proved escape zero-slack inserts, while costing almost no bubble
/// capacity.
pub const REFERENCE_BUBBLE_SLACK: f64 = 0.02;

/// Recovery-lifecycle settings for the ledger scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSettings {
    /// Training steps walked by the recovery lifecycle per probe.
    pub horizon_steps: u32,
    /// Checkpoint interval (steps) for the bubble-placed plan.
    pub ckpt_interval: u32,
}

impl Default for ChaosSettings {
    fn default() -> ChaosSettings {
        ChaosSettings {
            horizon_steps: 12,
            ckpt_interval: 4,
        }
    }
}

/// A fault-aware re-plan, memoized by the planner-relevant knobs.
struct ReplanArtifact {
    /// Lowered graph of the re-planned schedule (`None` when the re-plan
    /// chose an unspliceable encoder layout).
    graph: Option<TaskGraph>,
    /// The degraded topology the re-plan was priced against.
    topo: optimus_cluster::ClusterTopology,
    /// The planner's analytic step latency, ns.
    analytic_ns: i64,
}

/// One chosen plan plus everything needed to probe it.
pub struct ChaosHarness {
    w: Workload,
    ctx: SystemContext,
    cfg: OptimusConfig,
    run: OptimusRun,
    lowered: TaskGraph,
    baseline_ns: i64,
    insert_set: InsertSet,
    ckpt_plan: CheckpointPlan,
    params: RecoveryParams,
    settings: ChaosSettings,
    mb_offsets: Vec<u32>,
    replan_cache: Mutex<BTreeMap<Fingerprint, Option<Arc<ReplanArtifact>>>>,
}

impl ChaosHarness {
    /// Plans the workload and builds the probe surfaces.
    ///
    /// Requires a spliceable configuration: `adjust_dep_points = false`
    /// and an encoder plan with `TP_enc == TP_llm`, so the schedule can be
    /// lowered exactly.
    pub fn new(
        w: Workload,
        ctx: SystemContext,
        cfg: OptimusConfig,
        settings: ChaosSettings,
    ) -> Result<ChaosHarness, ChaosError> {
        let harness_err = |e: &dyn std::fmt::Display| ChaosError::Harness(e.to_string());
        let run = run_optimus(&w, &cfg, &ctx).map_err(|e| harness_err(&e))?;
        let lowered = lowered_schedule(&run, &w, &ctx)
            .map_err(|e| harness_err(&e))?
            .graph;
        let baseline_ns = simulate(&lowered)
            .map_err(|e| harness_err(&e))?
            .makespan()
            .0 as i64;
        let layout =
            ColocationLayout::new(cfg.llm_plan, run.enc_plan).map_err(|e| harness_err(&e))?;
        let insert_set = schedule_insert_set(&run.outcome, &run.profile, &layout);
        let ckpt_plan = plan_checkpoints(
            &run,
            cfg.llm_plan,
            &ctx.topo,
            &CheckpointConfig::bubble(settings.ckpt_interval),
        )
        .map_err(|e| harness_err(&e))?;
        let mut mb_offsets = Vec::with_capacity(run.outcome.partition.len());
        let mut acc = 0u32;
        for &n in &run.outcome.partition {
            mb_offsets.push(acc);
            acc += n;
        }
        Ok(ChaosHarness {
            w,
            ctx,
            cfg,
            run,
            lowered,
            baseline_ns,
            insert_set,
            ckpt_plan,
            params: RecoveryParams::defaults(),
            settings,
            mb_offsets,
            replan_cache: Mutex::new(BTreeMap::new()),
        })
    }

    /// The standard probe target: the small multi-modal workload on an
    /// 8-GPU Hopper node with a storage link, planned at `(2, 2, 2)` —
    /// the spliceable reference configuration used across the repo.
    ///
    /// The reference plan is built with
    /// [`REFERENCE_BUBBLE_SLACK`] per-claim slack: PR 6's minimized
    /// counterexamples proved a 1% straggler (and 1% jitter) escapes
    /// zero-slack inserts, so the reference hardens against them; chaos
    /// search now has to push perturbations past the slack margin to score.
    pub fn reference(settings: ChaosSettings) -> Result<ChaosHarness, ChaosError> {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).map_err(|e| ChaosError::Harness(e.to_string()))?;
        let topo = ctx.topo.with_storage(LinkProfile {
            bandwidth: 80e9,
            latency: 100e-6,
        });
        let ctx = ctx.with_topology(topo);
        let plan = ParallelPlan::new(2, 2, 2).map_err(|e| ChaosError::Harness(e.to_string()))?;
        let mut cfg = OptimusConfig::new(plan);
        cfg.adjust_dep_points = false;
        cfg.bubble_slack = REFERENCE_BUBBLE_SLACK;
        ChaosHarness::new(w, ctx, cfg, settings)
    }

    /// Fault-free makespan of the chosen plan, ns.
    pub fn baseline_ns(&self) -> i64 {
        self.baseline_ns
    }

    /// Devices in the probed cluster.
    pub fn num_devices(&self) -> u32 {
        self.ctx.topo.num_gpus()
    }

    /// The chosen plan's verified insert schedule.
    pub fn insert_set(&self) -> &InsertSet {
        &self.insert_set
    }

    /// The chosen plan's bubble-placed checkpoint plan.
    pub fn checkpoint_plan(&self) -> &CheckpointPlan {
        &self.ckpt_plan
    }

    /// The planner output the harness probes.
    pub fn run(&self) -> &OptimusRun {
        &self.run
    }

    /// The chosen plan's task graph with the perturbation's microbatch
    /// skew applied (encoder compute only — `EncTpComm` carries no
    /// microbatch identity).
    fn skewed_graph(&self, p: &Perturbation) -> TaskGraph {
        if p.mb_skew_pct == 0 {
            return self.lowered.clone();
        }
        let shift = p.mb_shift(self.run.profile.n_microbatches() as usize);
        self.lowered.with_durations(|t| match t.kind {
            TaskKind::EncFwd {
                pipeline,
                microbatch,
                ..
            }
            | TaskKind::EncBwd {
                pipeline,
                microbatch,
                ..
            } => {
                let g = (self.mb_offsets[pipeline as usize] + microbatch) as usize;
                DurNs((t.duration.0 as f64 * shift[g]).round() as u64)
            }
            _ => t.duration,
        })
    }

    /// Memo key over exactly the knobs that feed the re-planner: straggler
    /// magnitude (the planner folds the worst slowdown cluster-wide, so
    /// the device is irrelevant), link degradation, jitter margin, and
    /// microbatch skew. Stalls, failures, and the seed only enter the
    /// residual injection, which is re-run per probe. Keyed by the shared
    /// canonical [`Fingerprint`] rather than a bespoke format string.
    fn replan_key(p: &Perturbation) -> Fingerprint {
        FpHasher::new("chaos-replan/v1")
            .fold_u32(p.straggler_pct)
            .fold_str(p.link_class.label())
            .fold_u32(p.link_bw_drop_pct)
            .fold_u32(p.link_lat_pct)
            .fold_u32(p.jitter_pct)
            .fold_u32(p.mb_skew_pct)
            .finish()
    }

    /// True when some knob changes what the re-planner would do.
    fn affects_replan(p: &Perturbation) -> bool {
        p.straggler_pct > 0
            || p.link_class != DegradedClass::None
            || p.jitter_pct > 0
            || p.mb_skew_pct > 0
    }

    /// Builds (or recalls) the fault-aware re-plan for a perturbation.
    fn replan_artifact(&self, p: &Perturbation) -> Option<Arc<ReplanArtifact>> {
        let key = ChaosHarness::replan_key(p);
        if let Some(hit) = self.replan_cache.lock().expect("replan cache").get(&key) {
            return hit.clone();
        }
        let built = self.build_replan(p).map(Arc::new);
        self.replan_cache
            .lock()
            .expect("replan cache")
            .entry(key)
            .or_insert_with(|| built.clone());
        built
    }

    fn build_replan(&self, p: &Perturbation) -> Option<ReplanArtifact> {
        // Horizon is irrelevant here: failure instants do not feed the
        // planner, only degradation magnitudes do.
        let model = p.fault_model(self.baseline_ns).ok()?;
        let n_mb = self.run.profile.n_microbatches() as usize;
        let shift = (p.mb_skew_pct > 0).then(|| p.mb_shift(n_mb));
        let (ctx2, cfg2) = fault_aware_replan(&self.ctx, &self.cfg, &model, n_mb, shift.as_deref());
        let run2 = run_optimus(&self.w, &cfg2, &ctx2).ok()?;
        let analytic_ns = run2.outcome.latency;
        let graph = if run2.enc_plan.tp == run2.profile.llm_plan.tp {
            lowered_schedule(&run2, &self.w, &ctx2)
                .ok()
                .map(|l| l.graph)
        } else {
            None
        };
        Some(ReplanArtifact {
            graph,
            topo: ctx2.topo,
            analytic_ns,
        })
    }

    /// Evaluates one perturbation against the chosen plan.
    pub fn probe(&self, p: &Perturbation) -> Result<ProbeReport, ChaosError> {
        p.validate(self.num_devices())?;
        let model = p.fault_model(self.baseline_ns)?;

        // 1. Static plan under the fault.
        let skewed = self.skewed_graph(p);
        let injection = model
            .inject(&skewed, &self.ctx.topo)
            .map_err(|e| ChaosError::Probe(e.to_string()))?;
        let static_ns = simulate(&injection.graph)
            .map_err(|e| ChaosError::Probe(e.to_string()))?
            .makespan()
            .0 as i64;

        // 2. Fault-aware re-plan under the same fault's residual. Falls
        //    back to the static makespan (zero regret — conservative)
        //    when the re-plan fails or cannot be compared apples-to-apples.
        let replan_ns = if ChaosHarness::affects_replan(p) {
            match self.replan_artifact(p) {
                Some(a) => match &a.graph {
                    Some(g) => {
                        let inj2 = model
                            .inject_residual(g, &a.topo)
                            .map_err(|e| ChaosError::Probe(e.to_string()))?;
                        simulate(&inj2.graph)
                            .map_err(|e| ChaosError::Probe(e.to_string()))?
                            .makespan()
                            .0 as i64
                    }
                    // Unspliceable re-plan: the analytic latency is only
                    // comparable when no unpriced residual (stalls or
                    // failures) hit the static side.
                    None if p.failures.is_empty() && p.stall_pct == 0 => a.analytic_ns,
                    None => static_ns,
                },
                None => static_ns,
            }
        } else {
            static_ns
        };
        let regret_ns = (static_ns - replan_ns).max(0);

        // 3. Lint the perturbed insert schedule.
        let lint_notes = lint_violations(&perturbed_insert_set(&self.insert_set, p));

        // 4. Exact-ledger check on the recovery lifecycle.
        let horizon_wall = self
            .ckpt_plan
            .fault_free_wall_ns(self.settings.horizon_steps);
        let trace = p.failure_trace(horizon_wall)?;
        let outcome = simulate_lifecycle(
            &self.ckpt_plan,
            &trace,
            &self.params,
            self.settings.horizon_steps,
        )
        .map_err(|e| ChaosError::Probe(e.to_string()))?;
        let ledger_notes = ledger_violations(&outcome);

        let score = ChaosScore {
            ledger_violations: ledger_notes.len() as u32,
            lint_errors: lint_notes.len() as u32,
            regret_ns,
        };
        Ok(ProbeReport {
            perturbation: p.clone(),
            baseline_ns: self.baseline_ns,
            static_ns,
            replan_ns,
            lint_notes,
            ledger_notes,
            score,
        })
    }

    /// Probes a batch over the deterministic worker pool. Results are in
    /// input order, bit-identical at any worker count; probe errors are
    /// carried through per item.
    pub fn probe_many(
        &self,
        ps: &[Perturbation],
        workers: usize,
    ) -> Vec<Result<ProbeReport, ChaosError>> {
        pool::par_map(ps, workers, |_, p| self.probe(p)).results
    }
}
