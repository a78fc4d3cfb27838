//! Simulated GPU-cluster substrate for the Optimus reproduction.
//!
//! The Optimus paper evaluates on a production cluster of NVIDIA Hopper GPUs
//! connected by NVLink (intra-server) and RDMA (inter-server). This crate is
//! the analytic stand-in for that hardware: GPU roofline profiles, cluster
//! topology, process groups and an α–β cost model for the collectives and
//! point-to-point transfers the training stack issues, priced directly from
//! the topology's link profiles.
//!
//! Everything upstream (kernel decomposition, pipeline schedules, the bubble
//! scheduler) consumes *durations* produced here, exactly as the real system
//! consumes durations from offline CUDA profiling.
//!
//! # Examples
//!
//! ```
//! use optimus_cluster::{ClusterTopology, CollectiveKind, ProcessGroup};
//!
//! let topo = ClusterTopology::hopper_cluster(16).unwrap();
//! let tp_group = ProcessGroup::contiguous(0, 8).unwrap();
//! let t = topo.collective_time(CollectiveKind::AllGather, 64 << 20, &tp_group);
//! assert!(t.as_micros_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod error;
pub mod fingerprint;
pub mod group;
pub mod hardware;
pub mod time;
pub mod topology;

pub use collective::{CollectiveKind, DP_STRAGGLER_FACTOR};
pub use error::ClusterError;
pub use fingerprint::{Fingerprint, FpHasher};
pub use group::ProcessGroup;
pub use hardware::{GpuProfile, KernelClass};
pub use time::{DurNs, TimeNs};
pub use topology::{storage_default, ClusterTopology, DeviceId, LinkClass, LinkProfile};
