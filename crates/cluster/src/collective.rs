//! Analytic cost model for collective and point-to-point communication.
//!
//! Collectives use the standard ring-algorithm α–β model: a ring pass over a
//! group of `g` ranks moving `S` bytes costs `α·(g−1) + S·(g−1)/(g·β)` where
//! `β` is the bandwidth of the slowest link on the ring. This matches how
//! NCCL ring collectives scale and is the model used by Megatron-LM-style
//! planners when estimating communication time.
//!
//! The model is a handful of float operations over the link profiles of a
//! [`ClusterTopology`], so it is priced directly from the topology on every
//! query: a degraded or calibrated topology reprices its collectives with
//! nothing to invalidate.

use crate::group::ProcessGroup;
use crate::time::DurNs;
use crate::topology::{ClusterTopology, DeviceId};

/// Multiplier (> 1.0) applied to the end-of-step gradient reduce-scatter to
/// model straggler synchronisation delay (§2.2 footnote 1), matching the
/// reduce-scatter ≫ all-gather bubble seen in the paper's production traces.
pub const DP_STRAGGLER_FACTOR: f64 = 1.35;

/// The collective operations the training stack issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Gather shards from all ranks to all ranks (parameter unsharding).
    AllGather,
    /// Reduce then scatter shards (gradient aggregation).
    ReduceScatter,
    /// Full reduction visible on all ranks.
    AllReduce,
    /// One-to-all copy.
    Broadcast,
}

impl ClusterTopology {
    /// Ring-collective time for `bytes` total payload over `group`.
    ///
    /// `bytes` is the full tensor size: each rank contributes/receives
    /// `bytes / g`. All-reduce costs two ring passes (reduce-scatter +
    /// all-gather); the others cost one. The price depends only on the
    /// group's size and bottleneck link class, not on its concrete ranks.
    pub fn collective_time(&self, kind: CollectiveKind, bytes: u64, group: &ProcessGroup) -> DurNs {
        if group.size() <= 1 {
            return DurNs::ZERO;
        }
        let g = f64::from(group.size());
        let link = self.link_profile(group.bottleneck_link(self));
        let passes = match kind {
            CollectiveKind::AllReduce => 2.0,
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Broadcast => 1.0,
        };
        let alpha = link.latency * (g - 1.0) * passes;
        let beta = bytes as f64 * (g - 1.0) / (g * link.bandwidth) * passes;
        DurNs::from_secs_f64(alpha + beta)
    }

    /// Same as [`collective_time`](Self::collective_time) but inflated by
    /// [`DP_STRAGGLER_FACTOR`] — used for the end-of-step gradient
    /// reduce-scatter, which waits on the slowest DP replica.
    pub fn straggled_collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        group: &ProcessGroup,
    ) -> DurNs {
        let base = self.collective_time(kind, bytes, group);
        DurNs::from_secs_f64(base.as_secs_f64() * DP_STRAGGLER_FACTOR)
    }

    /// Point-to-point transfer time for `bytes` between two devices.
    pub fn p2p_time(&self, bytes: u64, src: DeviceId, dst: DeviceId) -> DurNs {
        let link = self.link_profile(self.link_class(src, dst));
        if link.bandwidth.is_infinite() {
            return DurNs::ZERO;
        }
        DurNs::from_secs_f64(link.latency + bytes as f64 / link.bandwidth)
    }

    /// P2P time assuming the worst link class present between pipeline
    /// stages (used when the concrete device placement is abstracted away:
    /// adjacent pipeline stages usually live on different nodes at scale).
    pub fn p2p_time_internode(&self, bytes: u64) -> DurNs {
        let link = self.rdma;
        DurNs::from_secs_f64(link.latency + bytes as f64 / link.bandwidth)
    }

    /// P2P time over NVLink (adjacent stages colocated in one server).
    pub fn p2p_time_intranode(&self, bytes: u64) -> DurNs {
        let link = self.nvlink;
        DurNs::from_secs_f64(link.latency + bytes as f64 / link.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkClass;

    fn model(gpus: u32) -> ClusterTopology {
        ClusterTopology::hopper_cluster(gpus).unwrap()
    }

    #[test]
    fn singleton_group_is_free() {
        let m = model(8);
        let g = ProcessGroup::contiguous(0, 1).unwrap();
        assert_eq!(
            m.collective_time(CollectiveKind::AllGather, 1 << 30, &g),
            DurNs::ZERO
        );
    }

    #[test]
    fn allreduce_costs_two_passes() {
        let m = model(8);
        let g = ProcessGroup::contiguous(0, 8).unwrap();
        let ar = m.collective_time(CollectiveKind::AllReduce, 1 << 30, &g);
        let ag = m.collective_time(CollectiveKind::AllGather, 1 << 30, &g);
        let ratio = ar.as_secs_f64() / ag.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn internode_group_slower_than_intranode() {
        let m = model(16);
        let intra = ProcessGroup::contiguous(0, 8).unwrap();
        let inter = ProcessGroup::new((0..8).map(|i| DeviceId(i * 2)).collect()).unwrap();
        let ti = m.collective_time(CollectiveKind::AllGather, 1 << 30, &intra);
        let te = m.collective_time(CollectiveKind::AllGather, 1 << 30, &inter);
        assert!(te > ti * 4, "inter {te} intra {ti}");
    }

    #[test]
    fn straggler_inflates_reduce_scatter() {
        let m = model(8);
        let g = ProcessGroup::contiguous(0, 8).unwrap();
        let base = m.collective_time(CollectiveKind::ReduceScatter, 1 << 28, &g);
        let strag = m.straggled_collective_time(CollectiveKind::ReduceScatter, 1 << 28, &g);
        assert!(strag > base);
    }

    #[test]
    fn p2p_scales_with_bytes_and_link() {
        let m = model(16);
        let near = m.p2p_time(1 << 26, DeviceId(0), DeviceId(1));
        let far = m.p2p_time(1 << 26, DeviceId(0), DeviceId(9));
        assert!(far > near);
        assert_eq!(m.p2p_time(1 << 20, DeviceId(3), DeviceId(3)), DurNs::ZERO);
        // 64 MiB over 50 GB/s RDMA ≈ 1.34 ms.
        assert!((far.as_millis_f64() - 1.34).abs() < 0.1, "far {far}");
    }

    #[test]
    fn groups_with_same_size_and_link_class_price_the_same() {
        // The α–β model reads only the group's size and bottleneck link
        // class, so two distinct rank lists sharing both price the same.
        let m = model(16);
        let a = ProcessGroup::contiguous(0, 4).unwrap();
        let b = ProcessGroup::contiguous(4, 4).unwrap();
        assert_eq!(a.bottleneck_link(&m), LinkClass::NvLink);
        assert_eq!(b.bottleneck_link(&m), LinkClass::NvLink);
        let ta = m.collective_time(CollectiveKind::ReduceScatter, 1 << 24, &a);
        let tb = m.collective_time(CollectiveKind::ReduceScatter, 1 << 24, &b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn collective_time_grows_with_group_size_bytes_fixed() {
        let m = model(64);
        let small = ProcessGroup::contiguous(0, 16).unwrap();
        let large = ProcessGroup::contiguous(0, 64).unwrap();
        let ts = m.collective_time(CollectiveKind::AllGather, 1 << 30, &small);
        let tl = m.collective_time(CollectiveKind::AllGather, 1 << 30, &large);
        // (g-1)/g grows with g, so the larger ring is slightly slower.
        assert!(tl > ts);
    }
}
