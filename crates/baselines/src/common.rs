//! Shared machinery for building simulated training systems: process groups,
//! DP collective sizing, stage construction, memory estimation and report
//! assembly.

use optimus_cluster::{ClusterTopology, CollectiveKind, DurNs, GpuProfile, ProcessGroup};
use optimus_modeling::kernels::KernelTimer;
use optimus_modeling::memory::{
    activation_bytes_per_layer, model_state_bytes, MemoryEstimate, Recompute,
};
use optimus_modeling::{flops, StepReport, TransformerConfig, Workload};
use optimus_parallel::ParallelPlan;
use optimus_pipeline::StageSpec;

use crate::error::BaselineError;

/// The cluster every system is priced against: GPU roofline profile and
/// the link profiles the α–β communication model reads.
#[derive(Debug, Clone)]
pub struct SystemContext {
    /// Cluster topology.
    pub topo: ClusterTopology,
}

impl SystemContext {
    /// Hopper production cluster of `num_gpus`.
    pub fn hopper(num_gpus: u32) -> Result<SystemContext, BaselineError> {
        let topo = ClusterTopology::hopper_cluster(num_gpus)
            .map_err(|e| BaselineError::Setup(e.to_string()))?;
        Ok(SystemContext { topo })
    }

    /// Ampere node (Appendix C comparison).
    pub fn ampere(num_gpus: u32) -> Result<SystemContext, BaselineError> {
        let topo = ClusterTopology::ampere_node(num_gpus)
            .map_err(|e| BaselineError::Setup(e.to_string()))?;
        Ok(SystemContext { topo })
    }

    /// Context with a custom GPU profile (e.g. the degraded profile modeling
    /// Alpa's unfused XLA kernels).
    pub fn with_gpu(&self, gpu: GpuProfile) -> SystemContext {
        let mut topo = self.topo.clone();
        topo.gpu = gpu;
        SystemContext { topo }
    }

    /// Context rebound to a different topology (e.g. one with degraded
    /// links from a fault model, or calibrated ones); every duration it
    /// prices afterwards reads the new topology's profiles.
    pub fn with_topology(&self, topo: ClusterTopology) -> SystemContext {
        SystemContext { topo }
    }

    /// A tensor-parallel group of `tp` adjacent GPUs (always intra-node by
    /// plan validation).
    pub fn tp_group(&self, tp: u32) -> Result<ProcessGroup, BaselineError> {
        ProcessGroup::contiguous(0, tp).map_err(|e| BaselineError::Setup(e.to_string()))
    }

    /// A data-parallel group: `dp` GPUs strided by `pp·tp` (one per
    /// pipeline replica). Spans nodes for any realistic scale.
    pub fn dp_group(&self, dp: u32, stride: u32) -> Result<ProcessGroup, BaselineError> {
        let ranks = (0..dp)
            .map(|r| optimus_cluster::DeviceId(r * stride))
            .collect();
        ProcessGroup::new(ranks).map_err(|e| BaselineError::Setup(e.to_string()))
    }

    /// Kernel timer bound to a TP group of the given degree.
    pub fn timer(&self, tp: u32) -> Result<KernelTimer, BaselineError> {
        Ok(KernelTimer::new(self.topo.clone(), self.tp_group(tp)?))
    }

    /// Unhidden DP collective durations for a rank holding
    /// `params_per_gpu` parameters in `vpp` chunks (§2.2: only the first
    /// chunk's all-gather and the last chunk's reduce-scatter cannot be
    /// overlapped).
    pub fn dp_comm(
        &self,
        params_per_gpu: u64,
        vpp: u32,
        dp: u32,
        stride: u32,
    ) -> Result<(DurNs, DurNs), BaselineError> {
        if dp <= 1 {
            return Ok((DurNs::ZERO, DurNs::ZERO));
        }
        let group = self.dp_group(dp, stride)?;
        let chunk_params = params_per_gpu / u64::from(vpp.max(1));
        // The distributed optimizer all-gathers this rank's (chunk's) bf16
        // parameters — each DP peer contributes a 1/dp shard of the local
        // tensor — and reduce-scatters the fp32 gradients of the same
        // tensor. The collective payload is the rank-local tensor size.
        let ag = self
            .topo
            .collective_time(CollectiveKind::AllGather, chunk_params * 2, &group);
        let rs = self.topo.straggled_collective_time(
            CollectiveKind::ReduceScatter,
            chunk_params * 4,
            &group,
        );
        Ok((ag, rs))
    }

    /// Inter-stage pipeline P2P duration for one microbatch's activations.
    pub fn p2p(&self, activation_bytes: u64) -> DurNs {
        // Adjacent pipeline stages live on different nodes at scale.
        if self.topo.num_nodes > 1 {
            self.topo.p2p_time_internode(activation_bytes)
        } else {
            self.topo.p2p_time_intranode(activation_bytes)
        }
    }
}

/// Builds the LLM backbone's per-virtual-stage specs for a plan.
pub fn llm_stages(
    cfg: &TransformerConfig,
    plan: &ParallelPlan,
    microbatch: u64,
    seq: u64,
    timer: &KernelTimer,
) -> Vec<StageSpec> {
    plan.layer_split(cfg.layers as u32)
        .into_iter()
        .map(|n| StageSpec::transformer_layers(cfg, n, microbatch, seq, u64::from(plan.tp), timer))
        .collect()
}

/// Per-device memory estimate for a pipelined system.
///
/// `stage_params[s]` / `stage_act[s]` give the parameters per GPU and the
/// activation bytes per in-flight microbatch of virtual stage `s`;
/// `inflight(rank)` bounds resident microbatches per rank.
pub fn pipeline_memory(
    stage_params: &[u64],
    stage_act: &[u64],
    pp: u32,
    vpp: u32,
    dp: u32,
    n_microbatches: u32,
) -> MemoryEstimate {
    let mut worst = MemoryEstimate::default();
    for rank in 0..pp {
        let mut params = 0u64;
        let mut chunk_act_sum = 0u64;
        for chunk in 0..vpp {
            let s = (chunk * pp + rank) as usize;
            params += stage_params[s];
            chunk_act_sum += stage_act[s];
        }
        // In-flight *virtual* microbatches, each holding one chunk's
        // activations: `pp − rank` under plain 1F1B; `2(pp−rank−1) +
        // (V−1)·pp + 1` (the warmup count + 1) under interleaving.
        let inflight = if vpp == 1 {
            u64::from((pp - rank).min(n_microbatches.max(1)))
        } else {
            u64::from(((pp - rank - 1) * 2 + (vpp - 1) * pp + 1).min(n_microbatches.max(1) * vpp))
        };
        let act = chunk_act_sum / u64::from(vpp) * inflight;
        let states = model_state_bytes(params, u64::from(dp));
        let est = MemoryEstimate {
            model_states: params * 6,
            optimizer: states - params * 6,
            activations: act,
            overhead: MemoryEstimate::DEFAULT_OVERHEAD,
        };
        if est.total() > worst.total() {
            worst = est;
        }
    }
    worst
}

/// Activation bytes per microbatch for `layers` layers of `cfg`.
pub fn stage_activation_bytes(
    cfg: &TransformerConfig,
    layers: u32,
    microbatch: u64,
    seq: u64,
    tp: u32,
    recompute: Recompute,
) -> u64 {
    u64::from(layers) * activation_bytes_per_layer(cfg, microbatch, seq, u64::from(tp), recompute)
}

/// Total model FLOPs of one training step of the whole MLLM.
pub fn workload_model_flops(w: &Workload) -> f64 {
    let llm = flops::model_step_flops(&w.mllm.llm, u64::from(w.global_batch), w.mllm.llm_seq);
    let enc: f64 = w
        .mllm
        .encoders
        .iter()
        .map(|e| flops::model_step_flops(e, u64::from(w.global_batch), w.mllm.encoder_seq))
        .sum();
    llm + enc
}

/// Assembles a [`StepReport`] from a measured iteration time.
pub fn make_report(
    system: &str,
    w: &Workload,
    ctx: &SystemContext,
    iteration_secs: f64,
    memory: &MemoryEstimate,
) -> StepReport {
    let model_flops = workload_model_flops(w);
    let mfu = flops::mfu(
        model_flops,
        iteration_secs,
        u64::from(w.num_gpus),
        ctx.topo.gpu.peak_flops,
    );
    StepReport {
        system: system.to_string(),
        iteration_secs,
        mfu,
        aggregate_pflops: model_flops / iteration_secs / 1e15,
        peak_memory_gib: memory.total_gib(),
        oom: !memory.fits(ctx.topo.gpu.hbm_capacity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::LinkClass;
    use optimus_modeling::{layer_kernels, MllmConfig, Pass};

    #[test]
    fn dp_comm_reduce_scatter_exceeds_all_gather() {
        // Table 1 shape: the RS bubble (fp32 + straggling) is ~2.7× the AG.
        let ctx = SystemContext::hopper(3072).unwrap();
        let (ag, rs) = ctx.dp_comm(2_000_000_000, 1, 48, 64).unwrap();
        let ratio = rs.as_secs_f64() / ag.as_secs_f64();
        assert!((2.3..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rebinding_to_a_degraded_topology_reprices_collectives() {
        // Halve NVLink bandwidth: the rebound context's TP and intra-node DP
        // collectives must be priced on the degraded link.
        let ctx = SystemContext::hopper(16).unwrap();
        let nvlink = ctx.topo.nvlink.degraded(0.5, 1.0);
        let slow = ctx.with_topology(ctx.topo.with_link_profile(LinkClass::NvLink, nvlink));
        let (ag, rs) = ctx.dp_comm(1 << 30, 1, 8, 1).unwrap();
        let (slow_ag, slow_rs) = slow.dp_comm(1 << 30, 1, 8, 1).unwrap();
        assert!(
            slow_ag > ag && slow_rs > rs,
            "{slow_ag} vs {ag}, {slow_rs} vs {rs}"
        );
        let layer = layer_kernels(&TransformerConfig::gpt_175b(), 1, 2048, 8, Pass::Forward);
        let tp = ctx.timer(8).unwrap().comm_total(&layer);
        let slow_tp = slow.timer(8).unwrap().comm_total(&layer);
        assert!(slow_tp > tp, "{slow_tp} vs {tp}");
    }

    #[test]
    fn dp1_has_no_dp_comm() {
        let ctx = SystemContext::hopper(8).unwrap();
        let (ag, rs) = ctx.dp_comm(1 << 30, 1, 1, 8).unwrap();
        assert!(ag.is_zero() && rs.is_zero());
    }

    #[test]
    fn pipeline_memory_worst_rank_is_first() {
        // Uniform stages: rank 0 holds the most in-flight microbatches.
        let params = vec![1u64 << 30; 4];
        let act = vec![1u64 << 28; 4];
        let est = pipeline_memory(&params, &act, 4, 1, 8, 16);
        // Rank 0: 4 in-flight microbatches of 256 MiB.
        assert_eq!(est.activations, 4 << 28);
    }

    #[test]
    fn report_computes_mfu() {
        let w = Workload::small_model();
        let ctx = SystemContext::ampere(8).unwrap();
        let mem = MemoryEstimate::default();
        let r = make_report("X", &w, &ctx, 3.0, &mem);
        assert!(r.mfu > 0.0 && r.mfu < 1.0, "mfu {}", r.mfu);
        assert!(!r.oom);
    }

    #[test]
    fn model_flops_dominated_by_llm() {
        let w = Workload::new(MllmConfig::model_d(), 512, 256, 1);
        let total = workload_model_flops(&w);
        let llm = flops::model_step_flops(&w.mllm.llm, 256, 2048);
        assert!(llm / total > 0.8);
    }
}
