//! Kernel-level decomposition of transformer layers.
//!
//! Optimus schedules encoder work at *kernel* granularity so that it fits
//! inside sub-millisecond TP bubbles (§2.3 Challenge 3, Design Decision 3).
//! This module decomposes one layer forward/backward into the same kernel
//! sequence Megatron-LM issues under tensor parallelism with sequence
//! parallelism: two all-gathers and two reduce-scatters per layer pass
//! interleaved with the compute kernels (Korthikanti et al., §2.2 Fig. 3).

use optimus_cluster::{ClusterTopology, CollectiveKind, DurNs, KernelClass, ProcessGroup};

use crate::config::TransformerConfig;

/// Direction of a layer pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Forward propagation.
    Forward,
    /// Backward propagation (≈2× forward FLOPs).
    Backward,
}

/// The work performed by one kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelBody {
    /// A compute kernel occupying the GPU compute stream.
    Compute {
        /// Roofline class.
        class: KernelClass,
        /// FLOPs executed on this rank.
        flops: f64,
        /// HBM bytes moved on this rank.
        bytes: f64,
    },
    /// A tensor-parallel collective occupying the communication stream.
    TpComm {
        /// Which collective.
        kind: CollectiveKind,
        /// Full activation payload in bytes (pre-sharding).
        bytes: u64,
    },
}

/// One kernel in a layer's execution sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Stable kernel name for traces and tests.
    pub name: &'static str,
    /// The work it performs.
    pub body: KernelBody,
}

impl KernelSpec {
    /// True for compute-stream kernels.
    pub fn is_compute(&self) -> bool {
        matches!(self.body, KernelBody::Compute { .. })
    }
}

const BF16: f64 = 2.0;

/// Produces the ordered kernel sequence of one layer pass on one
/// tensor-parallel rank.
///
/// `batch` is the microbatch size (sequences), `seq` the tokens per sequence,
/// `tp` the tensor-parallel degree. Compute FLOPs are divided by `tp`;
/// collective payloads are the full activation size `batch·seq·hidden·2` bytes
/// (bf16), matching Megatron's sequence-parallel all-gather/reduce-scatter.
pub fn layer_kernels(
    cfg: &TransformerConfig,
    batch: u64,
    seq: u64,
    tp: u64,
    pass: Pass,
) -> Vec<KernelSpec> {
    let t = tp.max(1) as f64;
    let (b, s, h) = (batch as f64, seq as f64, cfg.hidden as f64);
    let f = cfg.ffn_hidden as f64;
    let kv_dim = (cfg.kv_heads * cfg.head_dim) as f64;
    let attn_dim = (cfg.heads * cfg.head_dim) as f64;
    let act_bytes = (b * s * h * BF16) as u64;
    // Backward matmuls do roughly twice the forward work (dgrad + wgrad).
    let scale = match pass {
        Pass::Forward => 1.0,
        Pass::Backward => 2.0,
    };

    let comp = |name: &'static str, class: KernelClass, flops: f64, bytes: f64| KernelSpec {
        name,
        body: KernelBody::Compute {
            class,
            flops: flops * scale / t,
            bytes: bytes * scale / t,
        },
    };
    let comm = |name: &'static str, kind: CollectiveKind| KernelSpec {
        name,
        body: KernelBody::TpComm {
            kind,
            bytes: act_bytes,
        },
    };

    let qkv_flops = 2.0 * b * s * h * (h + 2.0 * kv_dim);
    let attn_flops = 2.0 * b * s * s * attn_dim;
    let out_flops = 2.0 * b * s * h * h;
    let fc1_flops = 2.0 * b * s * h * f * if cfg.gated_mlp { 2.0 } else { 1.0 };
    let fc2_flops = 2.0 * b * s * h * f;
    let ln_bytes = 4.0 * b * s * h * BF16;
    let act_fn_bytes = 3.0 * b * s * f * BF16;

    match pass {
        Pass::Forward => vec![
            comm("tp_allgather_attn", CollectiveKind::AllGather),
            comp("layernorm1", KernelClass::MemoryBound, 0.0, ln_bytes),
            comp("qkv_proj", KernelClass::Matmul, qkv_flops, 0.0),
            comp("attn_score", KernelClass::Attention, attn_flops, 0.0),
            comp("attn_context", KernelClass::Attention, attn_flops, 0.0),
            comp("out_proj", KernelClass::Matmul, out_flops, 0.0),
            comm("tp_reducescatter_attn", CollectiveKind::ReduceScatter),
            comm("tp_allgather_mlp", CollectiveKind::AllGather),
            comp("layernorm2", KernelClass::MemoryBound, 0.0, ln_bytes),
            comp("fc1", KernelClass::Matmul, fc1_flops, 0.0),
            comp("act_fn", KernelClass::MemoryBound, 0.0, act_fn_bytes),
            comp("fc2", KernelClass::Matmul, fc2_flops, 0.0),
            comm("tp_reducescatter_mlp", CollectiveKind::ReduceScatter),
        ],
        Pass::Backward => vec![
            comm("tp_allgather_mlp_bwd", CollectiveKind::AllGather),
            comp("fc2_bwd", KernelClass::Matmul, fc2_flops, 0.0),
            comp("act_fn_bwd", KernelClass::MemoryBound, 0.0, act_fn_bytes),
            comp("fc1_bwd", KernelClass::Matmul, fc1_flops, 0.0),
            comp("layernorm2_bwd", KernelClass::MemoryBound, 0.0, ln_bytes),
            comm("tp_reducescatter_mlp_bwd", CollectiveKind::ReduceScatter),
            comm("tp_allgather_attn_bwd", CollectiveKind::AllGather),
            comp("out_proj_bwd", KernelClass::Matmul, out_flops, 0.0),
            comp("attn_context_bwd", KernelClass::Attention, attn_flops, 0.0),
            comp("attn_score_bwd", KernelClass::Attention, attn_flops, 0.0),
            comp("qkv_proj_bwd", KernelClass::Matmul, qkv_flops, 0.0),
            comp("layernorm1_bwd", KernelClass::MemoryBound, 0.0, ln_bytes),
            comm("tp_reducescatter_attn_bwd", CollectiveKind::ReduceScatter),
        ],
    }
}

/// Evaluates kernel durations against a cluster topology (its GPU profile
/// and link profiles) and a TP group.
#[derive(Debug, Clone)]
pub struct KernelTimer {
    topo: ClusterTopology,
    tp_group: ProcessGroup,
}

impl KernelTimer {
    /// Binds a timer to a topology and the TP group whose collectives the
    /// layer issues.
    pub fn new(topo: ClusterTopology, tp_group: ProcessGroup) -> KernelTimer {
        KernelTimer { topo, tp_group }
    }

    /// Duration of one kernel.
    pub fn duration(&self, kernel: &KernelSpec) -> DurNs {
        match &kernel.body {
            KernelBody::Compute {
                class,
                flops,
                bytes,
            } => self.topo.gpu.kernel_time(*class, *flops, *bytes),
            KernelBody::TpComm { kind, bytes } => {
                self.topo.collective_time(*kind, *bytes, &self.tp_group)
            }
        }
    }

    /// Total duration of a kernel sequence, assuming serial execution (the
    /// compute stream stalls on TP collectives — exactly the TP bubble).
    pub fn total(&self, kernels: &[KernelSpec]) -> DurNs {
        kernels.iter().map(|k| self.duration(k)).sum()
    }

    /// Sum of compute-kernel time only (the part that can fill LLM bubbles).
    pub fn compute_total(&self, kernels: &[KernelSpec]) -> DurNs {
        kernels
            .iter()
            .filter(|k| k.is_compute())
            .map(|k| self.duration(k))
            .sum()
    }

    /// Sum of communication-kernel time only.
    pub fn comm_total(&self, kernels: &[KernelSpec]) -> DurNs {
        kernels
            .iter()
            .filter(|k| !k.is_compute())
            .map(|k| self.duration(k))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(tp: u32) -> KernelTimer {
        let topo = ClusterTopology::hopper_cluster(8).unwrap();
        KernelTimer::new(topo, ProcessGroup::contiguous(0, tp).unwrap())
    }

    #[test]
    fn forward_has_two_allgathers_and_two_reducescatters() {
        for pass in [Pass::Forward, Pass::Backward] {
            let ks = layer_kernels(&TransformerConfig::gpt_175b(), 1, 2048, 8, pass);
            let ag = ks
                .iter()
                .filter(|k| {
                    matches!(
                        k.body,
                        KernelBody::TpComm {
                            kind: CollectiveKind::AllGather,
                            ..
                        }
                    )
                })
                .count();
            let rs = ks
                .iter()
                .filter(|k| {
                    matches!(
                        k.body,
                        KernelBody::TpComm {
                            kind: CollectiveKind::ReduceScatter,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!((ag, rs), (2, 2), "{pass:?}");
        }
    }

    #[test]
    fn tp_bubble_duration_matches_paper_anchor() {
        // §2.3: TP bubbles average ≈300 µs for GPT-175B layers. With
        // microbatch size 2 and seq 2048, one all-gather of the activation
        // over 8 NVLink ranks should land in the 100–400 µs range.
        let t = timer(8);
        let ks = layer_kernels(&TransformerConfig::gpt_175b(), 2, 2048, 8, Pass::Forward);
        let ag = ks.iter().find(|k| k.name == "tp_allgather_attn").unwrap();
        let d = t.duration(ag).as_micros_f64();
        assert!((100.0..400.0).contains(&d), "all-gather {d:.0}us");
    }

    #[test]
    fn vit22b_layer_time_matches_paper_anchor() {
        // §2.3: one ViT-22B layer ≈1.4 ms forward / ≈2.0 ms backward.
        // Without TP and with one image (576 visual tokens) the compute time
        // must land in the right regime (sub-3 ms, fwd < bwd).
        let t = timer(1);
        let fwd = layer_kernels(&TransformerConfig::vit_22b(), 1, 576, 1, Pass::Forward);
        let bwd = layer_kernels(&TransformerConfig::vit_22b(), 1, 576, 1, Pass::Backward);
        let tf = t.compute_total(&fwd).as_millis_f64();
        let tb = t.compute_total(&bwd).as_millis_f64();
        assert!((0.5..3.0).contains(&tf), "fwd {tf:.2}ms");
        assert!(tb > tf);
        assert!((1.0..5.0).contains(&tb), "bwd {tb:.2}ms");
    }

    #[test]
    fn tensor_parallelism_divides_compute() {
        let t1 = timer(1);
        let t8 = timer(8);
        let cfg = TransformerConfig::gpt_175b();
        let k1 = layer_kernels(&cfg, 2, 2048, 1, Pass::Forward);
        let k8 = layer_kernels(&cfg, 2, 2048, 8, Pass::Forward);
        let c1 = t1.compute_total(&k1).as_secs_f64();
        let c8 = t8.compute_total(&k8).as_secs_f64();
        // Compute shrinks by ~8× (modulo fixed kernel overheads).
        assert!(c1 / c8 > 6.0, "c1 {c1} c8 {c8}");
        // TP=1 has zero communication time.
        assert!(t1.comm_total(&k1).is_zero());
        assert!(!t8.comm_total(&k8).is_zero());
    }

    #[test]
    fn backward_compute_roughly_twice_forward() {
        let t = timer(8);
        let cfg = TransformerConfig::gpt_175b();
        let f = t.compute_total(&layer_kernels(&cfg, 2, 2048, 8, Pass::Forward));
        let b = t.compute_total(&layer_kernels(&cfg, 2, 2048, 8, Pass::Backward));
        let ratio = b.as_secs_f64() / f.as_secs_f64();
        assert!((1.6..2.2).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn gated_mlp_increases_fc1_work() {
        let plain = TransformerConfig::gpt_175b();
        let gated = TransformerConfig::llama_70b();
        let kp = layer_kernels(&plain, 1, 2048, 1, Pass::Forward);
        let kg = layer_kernels(&gated, 1, 2048, 1, Pass::Forward);
        let flops_of =
            |ks: &[KernelSpec], name: &str| match &ks.iter().find(|k| k.name == name).unwrap().body
            {
                KernelBody::Compute { flops, .. } => *flops,
                _ => unreachable!(),
            };
        // Gated fc1 fuses gate+up: 2× the single-matrix FLOPs at equal dims.
        assert!(flops_of(&kg, "fc1") / (2.0 * 2048.0) > 0.0);
        assert!(flops_of(&kp, "fc1") > 0.0);
    }
}
