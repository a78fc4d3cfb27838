//! Content-addressed plan keys.
//!
//! A cached plan is valid for exactly the inputs the planning engine read
//! when it was computed. The key captures those inputs as three canonical
//! fingerprints:
//!
//! - **topology** — [`ClusterTopology::fingerprint`]: GPU profile, node
//!   shape, and every link class the cost model prices.
//! - **model** — [`model_fingerprint`]: the workload (model architecture,
//!   cluster size, batching) plus every *plan-affecting*
//!   [`OptimusConfig`] knob. Observability-only knobs (`search_workers`,
//!   `folded_sim`, `lint`) are deliberately excluded: they never change
//!   the chosen plan (pinned by the determinism suite), so varying them
//!   must not fragment the cache.
//! - **trace** — [`trace_fingerprint`]: the data-mixture distribution and
//!   sampling seed behind heterogeneous `mb_scales`;
//!   [`Fingerprint::ABSENT`] for uniform loads.
//!
//! [`ClusterTopology::fingerprint`]: optimus_cluster::ClusterTopology::fingerprint

use optimus_baselines::common::SystemContext;
use optimus_cluster::{Fingerprint, FpHasher};
use optimus_core::{LlmScheduleKind, OptimusConfig};
use optimus_modeling::{TraceConfig, Workload};

fn schedule_label(kind: LlmScheduleKind) -> &'static str {
    match kind {
        LlmScheduleKind::OneFOneB => "1f1b",
        LlmScheduleKind::ZeroBubble => "zero-bubble",
    }
}

/// Canonical fingerprint of the workload plus every plan-affecting config
/// knob. Two queries with equal model fingerprints are guaranteed to ask
/// the engine the same question (modulo topology and trace).
pub fn model_fingerprint(w: &Workload, cfg: &OptimusConfig) -> Fingerprint {
    let mut h = FpHasher::new("plan-model/v1");
    h.fold_fp(w.fingerprint())
        .fold_u32(cfg.llm_plan.dp)
        .fold_u32(cfg.llm_plan.pp)
        .fold_u32(cfg.llm_plan.tp)
        .fold_u32(cfg.llm_plan.vpp)
        .fold_u64(cfg.max_partitions as u64)
        .fold_bool(cfg.fine_grained)
        .fold_bool(cfg.adjust_dep_points)
        .fold_bool(cfg.frozen_encoder)
        .fold_f64(cfg.bubble_margin)
        .fold_f64(cfg.bubble_slack)
        .fold_str(schedule_label(cfg.llm_schedule));
    match &cfg.mb_scales {
        None => h.fold_bool(false),
        Some(s) => h.fold_bool(true).fold_f64_slice(s),
    };
    h.finish()
}

/// Canonical fingerprint of a heterogeneous-data trace: the distribution
/// content plus the sampling seed that realises it into `mb_scales`.
pub fn trace_fingerprint(trace: &TraceConfig, seed: u64) -> Fingerprint {
    FpHasher::new("plan-trace/v1")
        .fold_fp(trace.fingerprint())
        .fold_u64(seed)
        .finish()
}

/// The content address of one cached plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    /// Cluster-topology fingerprint.
    pub topo: Fingerprint,
    /// Workload + plan-affecting-config fingerprint.
    pub model: Fingerprint,
    /// Trace fingerprint ([`Fingerprint::ABSENT`] for uniform loads).
    pub trace: Fingerprint,
}

impl PlanKey {
    /// Builds the key for a query, with no trace component.
    pub fn for_query(w: &Workload, cfg: &OptimusConfig, ctx: &SystemContext) -> PlanKey {
        PlanKey {
            topo: ctx.topo.fingerprint(),
            model: model_fingerprint(w, cfg),
            trace: Fingerprint::ABSENT,
        }
    }

    /// Attaches a trace fingerprint.
    pub fn with_trace(mut self, trace: Fingerprint) -> PlanKey {
        self.trace = trace;
        self
    }

    /// Stable cache-entry identifier (file stem on disk): the three
    /// fingerprints folded into one 32-hex-char digest.
    pub fn id(&self) -> String {
        FpHasher::new("plan-key/v1")
            .fold_fp(self.topo)
            .fold_fp(self.model)
            .fold_fp(self.trace)
            .finish()
            .to_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_modeling::MllmConfig;
    use optimus_parallel::ParallelPlan;

    fn base() -> (Workload, OptimusConfig, SystemContext) {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        (w, cfg, ctx)
    }

    #[test]
    fn plan_affecting_knobs_change_the_key() {
        let (w, cfg, ctx) = base();
        let k0 = PlanKey::for_query(&w, &cfg, &ctx);
        assert_eq!(k0, PlanKey::for_query(&w, &cfg, &ctx));

        let mut c = cfg.clone();
        c.fine_grained = !c.fine_grained;
        assert_ne!(k0.model, PlanKey::for_query(&w, &c, &ctx).model);

        let mut c = cfg.clone();
        c.bubble_margin += 0.01;
        assert_ne!(k0.model, PlanKey::for_query(&w, &c, &ctx).model);

        let mut c = cfg.clone();
        c.mb_scales = Some(vec![1.0; 8]);
        assert_ne!(k0.model, PlanKey::for_query(&w, &c, &ctx).model);
    }

    #[test]
    fn observability_knobs_do_not_fragment_the_cache() {
        let (w, cfg, ctx) = base();
        let k0 = PlanKey::for_query(&w, &cfg, &ctx);
        let mut c = cfg.clone();
        c.search_workers = 7;
        c.folded_sim = !c.folded_sim;
        assert_eq!(k0, PlanKey::for_query(&w, &c, &ctx));
    }

    #[test]
    fn topology_and_trace_are_independent_axes() {
        let (w, cfg, ctx) = base();
        let k0 = PlanKey::for_query(&w, &cfg, &ctx);
        let ctx16 = SystemContext::hopper(16).unwrap();
        let k1 = PlanKey::for_query(&w, &cfg, &ctx16);
        assert_ne!(k0.topo, k1.topo);
        assert_eq!(k0.model, k1.model);

        let t = trace_fingerprint(&TraceConfig::llava_style(), 17);
        assert_ne!(k0.id(), k0.with_trace(t).id());
        assert_ne!(
            trace_fingerprint(&TraceConfig::llava_style(), 17),
            trace_fingerprint(&TraceConfig::llava_style(), 18),
        );
    }
}
