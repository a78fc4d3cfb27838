//! The PyTorch-FSDP baseline (§5.1): pure sharded data parallelism. Each
//! layer's parameters are all-gathered before use and gradients
//! reduce-scattered after the backward; there is no pipeline or tensor
//! parallelism, so activations for the full model depth stay resident.

use optimus_cluster::CollectiveKind;
use optimus_cluster::ProcessGroup;
use optimus_modeling::kernels::KernelTimer;
use optimus_modeling::memory::{activation_bytes_per_layer, MemoryEstimate, Recompute};
use optimus_modeling::{layer_kernels, Pass, StepReport, TransformerConfig, Workload};

use crate::common::{make_report, SystemContext};
use crate::error::BaselineError;

/// Compute-efficiency multiplier for FSDP's eager-mode execution: PyTorch
/// hooks, unfused kernels and per-op dispatch versus Megatron's fused
/// kernels. A documented calibration substitution (see DESIGN.md), matching
/// the paper's observation that FSDP sits between Megatron-LM and Optimus.
pub const FSDP_EAGER_EFFICIENCY: f64 = 0.80;

fn model_compute_secs(cfg: &TransformerConfig, batch: u64, seq: u64, timer: &KernelTimer) -> f64 {
    let fwd = timer.compute_total(&layer_kernels(cfg, batch, seq, 1, Pass::Forward));
    let bwd = timer.compute_total(&layer_kernels(cfg, batch, seq, 1, Pass::Backward));
    cfg.layers as f64 * (fwd.as_secs_f64() + bwd.as_secs_f64())
}

/// Runs the FSDP baseline analytically.
///
/// Returns `Err(Infeasible)` when the global batch is smaller than the
/// data-parallel width (FSDP cannot give every rank a sample) — the failure
/// mode behind the paper's weak-scaling "OOM" entries is reported by the
/// caller either way. Memory-overflow configurations return a report with
/// `oom = true`.
pub fn fsdp(w: &Workload, ctx: &SystemContext) -> Result<StepReport, BaselineError> {
    let n = w.num_gpus;
    if w.global_batch < n {
        return Err(BaselineError::Infeasible(format!(
            "global batch {} smaller than {} FSDP ranks",
            w.global_batch, n
        )));
    }
    let local_batch = u64::from(w.global_batch / n);
    let timer = ctx.timer(1)?;

    // Compute: the full model runs serially on every rank over its local
    // batch (forward + backward), plus the recomputation that selective
    // activation checkpointing performs during the backward (≈1/3 of a
    // forward: the attention block), all at eager-mode efficiency.
    let mut compute = model_compute_secs(&w.mllm.llm, local_batch, w.mllm.llm_seq, &timer);
    for e in &w.mllm.encoders {
        compute += model_compute_secs(e, local_batch, w.mllm.encoder_seq, &timer);
    }
    let recompute = compute / 3.0 / 3.0; // 1/3 of the fwd third of fwd+bwd
    let compute = (compute + recompute) / FSDP_EAGER_EFFICIENCY;

    // Communication: parameters are all-gathered (bf16) for the forward and
    // — with the default reshard-after-forward — again for the backward;
    // gradients are reduce-scattered (fp32) across all ranks.
    let group = ProcessGroup::contiguous(0, n).map_err(|e| BaselineError::Setup(e.to_string()))?;
    let params = w.mllm.total_params();
    let ag = ctx
        .topo
        .collective_time(CollectiveKind::AllGather, params * 2, &group);
    let rs = ctx
        .topo
        .collective_time(CollectiveKind::ReduceScatter, params * 4, &group);
    let comm = 2.0 * ag.as_secs_f64() + rs.as_secs_f64();

    // FSDP prefetching overlaps communication with compute, imperfectly.
    let iteration = compute.max(comm) + 0.10 * compute.min(comm);

    // Memory: fully-sharded states + the transiently unsharded working set +
    // full-depth activations. Selective activation checkpointing is assumed
    // (standard FSDP practice); even so, full-depth activations of a 70B+
    // backbone exhaust HBM.
    let shard = params * (2 + 4 + 12) / u64::from(n);
    let max_layer_params = w
        .mllm
        .encoders
        .iter()
        .chain(std::iter::once(&w.mllm.llm))
        .map(|c| c.params_per_layer())
        .max()
        .unwrap_or(0);
    let mut activations = w.mllm.llm.layers
        * activation_bytes_per_layer(
            &w.mllm.llm,
            local_batch,
            w.mllm.llm_seq,
            1,
            Recompute::Selective,
        );
    for e in &w.mllm.encoders {
        activations += e.layers
            * activation_bytes_per_layer(
                e,
                local_batch,
                w.mllm.encoder_seq,
                1,
                Recompute::Selective,
            );
    }
    let memory = MemoryEstimate {
        model_states: shard,
        optimizer: 0,
        activations: activations + 2 * 2 * max_layer_params,
        overhead: MemoryEstimate::DEFAULT_OVERHEAD,
    };

    let mut report = make_report("FSDP", w, ctx, iteration, &memory);
    if report.oom {
        report = StepReport::oom("FSDP", memory.total_gib());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_modeling::MllmConfig;

    #[test]
    fn small_model_fits_and_runs() {
        // Appendix C: FSDP trains ViT-3B + GPT-11B on 8 GPUs (3.20 s on
        // A100s; absolute numbers differ on our analytic H100 profile).
        let w = Workload::small_model();
        let ctx = SystemContext::ampere(8).unwrap();
        let r = fsdp(&w, &ctx).unwrap();
        assert!(!r.oom, "peak {:.1} GiB", r.peak_memory_gib);
        assert!(r.iteration_secs > 0.1 && r.iteration_secs < 60.0);
    }

    #[test]
    fn weak_scaling_models_fail() {
        // Fig. 15: FSDP OOMs/fails on every Table 3 model (batch < ranks,
        // and full-depth activations regardless).
        let ctx = SystemContext::hopper(64).unwrap();
        let w = Workload::new(MllmConfig::model_a(), 64, 32, 1);
        assert!(matches!(fsdp(&w, &ctx), Err(BaselineError::Infeasible(_))));
    }

    #[test]
    fn large_model_at_scale_oom() {
        // Even with enough samples, a 70B model without PP/TP exhausts HBM.
        let ctx = SystemContext::hopper(64).unwrap();
        let w = Workload::new(MllmConfig::model_a(), 64, 128, 1);
        let r = fsdp(&w, &ctx).unwrap();
        assert!(r.oom, "peak {:.1} GiB", r.peak_memory_gib);
    }
}
