//! Stage specifications: the timed kernel sequences one virtual pipeline
//! stage executes per microbatch.

use optimus_cluster::{DurNs, KernelClass};
use optimus_modeling::{layer_kernels, KernelBody, KernelTimer, Pass, TransformerConfig};

/// One kernel with a resolved duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedKernel {
    /// Kernel name (stable, for traces).
    pub label: &'static str,
    /// Duration on this rank.
    pub dur: DurNs,
    /// True for communication-stream kernels (TP collectives).
    pub comm: bool,
}

/// Timed kernel sequences for one virtual pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSpec {
    /// Forward kernels for one microbatch, in issue order.
    pub fwd: Vec<TimedKernel>,
    /// Backward kernels for one microbatch, in issue order. Under a
    /// zero-bubble schedule this holds only the input-gradient half; the
    /// weight-gradient half lives in [`bwd_weight`](Self::bwd_weight).
    pub bwd: Vec<TimedKernel>,
    /// Weight-gradient kernels (zero-bubble schedules); empty otherwise.
    pub bwd_weight: Vec<TimedKernel>,
    /// Bytes of activations sent to the next stage per microbatch.
    pub activation_bytes: u64,
    /// Parameters resident on one GPU of this stage (for DP comm sizing).
    pub params_per_gpu: u64,
}

impl StageSpec {
    /// Builds a stage of `n_layers` identical transformer layers.
    ///
    /// `microbatch` is the number of sequences per microbatch, `seq` tokens
    /// per sequence, `tp` the tensor-parallel degree; the `timer` resolves
    /// kernel durations against the hardware and TP group.
    pub fn transformer_layers(
        cfg: &TransformerConfig,
        n_layers: u32,
        microbatch: u64,
        seq: u64,
        tp: u64,
        timer: &KernelTimer,
    ) -> StageSpec {
        let fwd_one: Vec<TimedKernel> = layer_kernels(cfg, microbatch, seq, tp, Pass::Forward)
            .iter()
            .map(|k| TimedKernel {
                label: k.name,
                dur: timer.duration(k),
                comm: !k.is_compute(),
            })
            .collect();
        let bwd_one: Vec<TimedKernel> = layer_kernels(cfg, microbatch, seq, tp, Pass::Backward)
            .iter()
            .map(|k| TimedKernel {
                label: k.name,
                dur: timer.duration(k),
                comm: !k.is_compute(),
            })
            .collect();
        let mut fwd = Vec::with_capacity(fwd_one.len() * n_layers as usize);
        let mut bwd = Vec::with_capacity(bwd_one.len() * n_layers as usize);
        for _ in 0..n_layers {
            fwd.extend(fwd_one.iter().cloned());
            bwd.extend(bwd_one.iter().cloned());
        }
        StageSpec {
            fwd,
            bwd,
            bwd_weight: Vec::new(),
            activation_bytes: microbatch * seq * cfg.hidden * 2,
            params_per_gpu: n_layers as u64 * cfg.params_per_layer() / tp.max(1),
        }
    }

    /// Like [`transformer_layers`](Self::transformer_layers) but with the
    /// backward split for zero-bubble schedules: matmul backward kernels do
    /// half their work (input gradient) in `bwd` and half (weight gradient)
    /// in `bwd_weight`; memory-bound and communication kernels stay on the
    /// input-gradient path.
    pub fn transformer_layers_split(
        cfg: &TransformerConfig,
        n_layers: u32,
        microbatch: u64,
        seq: u64,
        tp: u64,
        timer: &KernelTimer,
    ) -> StageSpec {
        let mut stage = StageSpec::transformer_layers(cfg, n_layers, microbatch, seq, tp, timer);
        let bwd_specs = layer_kernels(cfg, microbatch, seq, tp, Pass::Backward);
        let is_matmul = |label: &str| {
            bwd_specs.iter().any(|k| {
                k.name == label
                    && matches!(
                        k.body,
                        KernelBody::Compute {
                            class: KernelClass::Matmul,
                            ..
                        }
                    )
            })
        };
        let mut b = Vec::with_capacity(stage.bwd.len());
        let mut w = Vec::with_capacity(stage.bwd.len());
        for kern in stage.bwd.drain(..) {
            if !kern.comm && is_matmul(kern.label) {
                let half = DurNs(kern.dur.0 / 2);
                b.push(TimedKernel {
                    label: kern.label,
                    dur: half,
                    comm: false,
                });
                w.push(TimedKernel {
                    label: kern.label,
                    dur: kern.dur - half,
                    comm: false,
                });
            } else {
                b.push(kern);
            }
        }
        stage.bwd = b;
        stage.bwd_weight = w;
        stage
    }

    /// Concatenates another stage's kernels after this one's (used by the
    /// Megatron baseline, which packs encoder layers and LLM layers into the
    /// same first pipeline stage). Backward order is reversed: the appended
    /// sub-module backpropagates first.
    pub fn then(mut self, next: StageSpec) -> StageSpec {
        self.fwd.extend(next.fwd);
        let mut bwd = next.bwd;
        bwd.extend(self.bwd);
        self.bwd = bwd;
        let mut bwd_weight = next.bwd_weight;
        bwd_weight.extend(std::mem::take(&mut self.bwd_weight));
        self.bwd_weight = bwd_weight;
        self.activation_bytes = next.activation_bytes;
        self.params_per_gpu += next.params_per_gpu;
        self
    }

    /// Total weight-gradient compute time (zero-bubble stages).
    pub fn wgrad_total(&self) -> DurNs {
        self.bwd_weight.iter().map(|k| k.dur).sum()
    }

    /// Total forward compute time (excluding comm kernels).
    pub fn fwd_compute(&self) -> DurNs {
        self.fwd.iter().filter(|k| !k.comm).map(|k| k.dur).sum()
    }

    /// Total backward compute time (excluding comm kernels).
    pub fn bwd_compute(&self) -> DurNs {
        self.bwd.iter().filter(|k| !k.comm).map(|k| k.dur).sum()
    }

    /// Serial forward duration (compute + TP comm stalls).
    pub fn fwd_total(&self) -> DurNs {
        self.fwd.iter().map(|k| k.dur).sum()
    }

    /// Serial backward duration (compute + TP comm stalls).
    pub fn bwd_total(&self) -> DurNs {
        self.bwd.iter().map(|k| k.dur).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::{ClusterTopology, ProcessGroup};

    fn timer(tp: u32) -> KernelTimer {
        let topo = ClusterTopology::hopper_cluster(8).unwrap();
        KernelTimer::new(topo, ProcessGroup::contiguous(0, tp).unwrap())
    }

    #[test]
    fn stage_repeats_layers() {
        let t = timer(8);
        let cfg = TransformerConfig::gpt_175b();
        let one = StageSpec::transformer_layers(&cfg, 1, 2, 2048, 8, &t);
        let twelve = StageSpec::transformer_layers(&cfg, 12, 2, 2048, 8, &t);
        assert_eq!(twelve.fwd.len(), 12 * one.fwd.len());
        assert_eq!(twelve.fwd_compute(), one.fwd_compute() * 12);
    }

    #[test]
    fn then_concatenates_and_reverses_backward() {
        let t = timer(1);
        let enc = StageSpec::transformer_layers(&TransformerConfig::vit_3b(), 2, 2, 576, 1, &t);
        let llm = StageSpec::transformer_layers(&TransformerConfig::gpt_11b(), 2, 2, 2048, 1, &t);
        let enc_fwd_len = enc.fwd.len();
        let llm_bwd0 = llm.bwd[0].clone();
        let merged = enc.clone().then(llm.clone());
        assert_eq!(merged.fwd.len(), enc.fwd.len() + llm.fwd.len());
        // Forward: encoder kernels first.
        assert_eq!(merged.fwd[0], enc.fwd[0]);
        assert_eq!(merged.fwd[enc_fwd_len], llm.fwd[0]);
        // Backward: LLM kernels first.
        assert_eq!(merged.bwd[0], llm_bwd0);
        assert_eq!(
            merged.params_per_gpu,
            enc.params_per_gpu + llm.params_per_gpu
        );
    }

    #[test]
    fn activation_bytes_match_bf16_hidden() {
        let t = timer(8);
        let cfg = TransformerConfig::gpt_175b();
        let s = StageSpec::transformer_layers(&cfg, 12, 2, 2048, 8, &t);
        assert_eq!(s.activation_bytes, 2 * 2048 * 12288 * 2);
    }
}
