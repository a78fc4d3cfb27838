//! Synthetic ground truth for closed-loop calibration tests and benches.
//!
//! The recovery experiment needs a cluster whose parameters are *known but
//! not the defaults*: perturb the base topology deterministically, generate
//! a kernel log by evaluating the perturbed ("true") cost models over a
//! spread of workload shapes, then check that [`fit`](crate::fit::fit)
//! starting from the unperturbed base recovers every parameter. All
//! randomness flows through `optimus-detrand`, so a seed fully determines
//! the truth and the log.

use optimus_cluster::{ClusterTopology, DeviceId, KernelClass, LinkClass, ProcessGroup};
use optimus_detrand::{rngs::StdRng, RngExt, SeedableRng};

use crate::samples::{CommOp, CommSample, KernelLog, KernelSample};

/// Deterministically perturbs every fitted parameter of a topology:
/// efficiencies by ±20%, link bandwidths by −40%/+40%, link latencies by
/// ×0.8–×2.0. The result plays the role of the "real" cluster a profiler
/// would observe.
pub fn perturb_topology(base: &ClusterTopology, seed: u64) -> ClusterTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = base.clone();
    t.gpu.matmul_efficiency = (t.gpu.matmul_efficiency * rng.random_range(0.8..1.2)).min(1.0);
    t.gpu.attention_efficiency = (t.gpu.attention_efficiency * rng.random_range(0.8..1.2)).min(1.0);
    t.gpu.membw_efficiency = (t.gpu.membw_efficiency * rng.random_range(0.8..1.2)).min(1.0);
    t.nvlink.bandwidth *= rng.random_range(0.6..1.4);
    t.nvlink.latency *= rng.random_range(0.8..2.0);
    t.rdma.bandwidth *= rng.random_range(0.6..1.4);
    t.rdma.latency *= rng.random_range(0.8..2.0);
    t
}

/// Copies the calibratable parameters (GPU profile and link profiles) of
/// `truth` onto the shape (node count, GPUs per node) of `base` — how a
/// truth fitted on one cluster size is replayed on another.
pub fn apply_profiles(base: &ClusterTopology, truth: &ClusterTopology) -> ClusterTopology {
    let mut t = base.clone();
    t.gpu = truth.gpu.clone();
    t.nvlink = truth.nvlink;
    t.rdma = truth.rdma;
    t
}

/// Generates a noiseless kernel log by evaluating `truth`'s cost models
/// over a seeded spread of kernel and collective shapes. `truth` must span
/// at least two nodes so RDMA groups exist.
///
/// Kernel samples cycle the three [`KernelClass`]es with FLOP counts (or
/// HBM byte counts for memory-bound kernels) spread over ~1.5 decades;
/// comm samples cycle all-gather / reduce-scatter / all-reduce / p2p over
/// both link classes, with group sizes 2–8 intra-node and 2–4 across nodes
/// and payloads from 1 KiB to 128 MiB.
pub fn synth_log(truth: &ClusterTopology, seed: u64, kernels: usize, comms: usize) -> KernelLog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut log = KernelLog::default();

    for i in 0..kernels {
        let class = [
            KernelClass::Matmul,
            KernelClass::Attention,
            KernelClass::MemoryBound,
        ][i % 3];
        let (flops, bytes) = match class {
            KernelClass::MemoryBound => (0.0, rng.random_range(1e8..5e9)),
            _ => (rng.random_range(1e10..5e11), 0.0),
        };
        log.kernels.push(KernelSample {
            class,
            flops,
            bytes,
            dur: truth.gpu.kernel_time(class, flops, bytes),
        });
    }

    for i in 0..comms {
        let op = [
            CommOp::AllGather,
            CommOp::ReduceScatter,
            CommOp::AllReduce,
            CommOp::P2p,
        ][i % 4];
        let link = [LinkClass::NvLink, LinkClass::Rdma][(i / 4) % 2];
        let bytes = 1u64 << rng.random_range(10..=27u32);
        let (group, dur) = match op {
            CommOp::P2p => {
                let (src, dst) = match link {
                    LinkClass::Rdma => (DeviceId(0), DeviceId(truth.gpus_per_node)),
                    _ => (DeviceId(0), DeviceId(1)),
                };
                (2, truth.p2p_time(bytes, src, dst))
            }
            _ => {
                let kind = op.collective_kind().expect("collective op");
                let group = match link {
                    // Contiguous ranks inside node 0.
                    LinkClass::Rdma => {
                        let g = [2u32, 4][i % 2];
                        ProcessGroup::new(
                            (0..g).map(|r| DeviceId(r * truth.gpus_per_node)).collect(),
                        )
                        .expect("strided group")
                    }
                    _ => {
                        let g = [2u32, 4, 8][i % 3].min(truth.gpus_per_node);
                        ProcessGroup::contiguous(0, g).expect("contiguous group")
                    }
                };
                (group.size(), truth.collective_time(kind, bytes, &group))
            }
        };
        log.comms.push(CommSample {
            op,
            bytes,
            group,
            link,
            dur,
        });
    }

    log
}

/// Convenience: perturb, synthesise, and return `(truth, log)` in one call —
/// the front half of the closed loop.
pub fn closed_loop_input(
    base: &ClusterTopology,
    seed: u64,
    kernels: usize,
    comms: usize,
) -> (ClusterTopology, KernelLog) {
    let truth = perturb_topology(base, seed);
    let log = synth_log(&truth, seed, kernels, comms);
    (truth, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ClusterTopology {
        ClusterTopology::hopper_cluster(32).unwrap()
    }

    #[test]
    fn perturbation_is_deterministic_and_nontrivial() {
        let a = perturb_topology(&base(), 7);
        let b = perturb_topology(&base(), 7);
        assert_eq!(a, b);
        let c = perturb_topology(&base(), 8);
        assert_ne!(a, c);
        // Every parameter actually moved.
        assert_ne!(a.gpu.matmul_efficiency, base().gpu.matmul_efficiency);
        assert_ne!(a.nvlink.bandwidth, base().nvlink.bandwidth);
        assert_ne!(a.rdma.latency, base().rdma.latency);
        // Efficiencies stay physical.
        assert!(a.gpu.matmul_efficiency <= 1.0 && a.gpu.matmul_efficiency > 0.0);
        assert!(a.gpu.membw_efficiency <= 1.0);
    }

    #[test]
    fn synth_log_covers_all_parameters() {
        let (_, log) = closed_loop_input(&base(), 3, 30, 40);
        assert_eq!(log.len(), 70);
        for class in [
            KernelClass::Matmul,
            KernelClass::Attention,
            KernelClass::MemoryBound,
        ] {
            assert!(log.kernels.iter().any(|k| k.class == class));
        }
        for link in [LinkClass::NvLink, LinkClass::Rdma] {
            assert!(log
                .comms
                .iter()
                .any(|c| c.link == link && c.op == CommOp::P2p));
            assert!(log
                .comms
                .iter()
                .any(|c| c.link == link && c.op != CommOp::P2p));
        }
        // Deterministic: same seed, same log (bit-for-bit via JSONL text).
        let (_, again) = closed_loop_input(&base(), 3, 30, 40);
        assert_eq!(again.to_jsonl(), log.to_jsonl());
    }

    #[test]
    fn apply_profiles_keeps_shape() {
        let truth = perturb_topology(&base(), 11);
        let small = ClusterTopology::hopper_cluster(8).unwrap();
        let applied = apply_profiles(&small, &truth);
        assert_eq!(applied.num_gpus(), 8);
        assert_eq!(applied.gpu, truth.gpu);
        assert_eq!(applied.nvlink, truth.nvlink);
        assert_eq!(applied.rdma, truth.rdma);
    }
}
