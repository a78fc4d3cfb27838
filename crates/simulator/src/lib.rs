//! Deterministic simulator for distributed training steps.
//!
//! This crate is the stand-in for the paper's production cluster + CUDA
//! profiler: pipeline schedules are lowered to [`TaskGraph`]s whose tasks
//! occupy per-device streams (compute, TP collectives, P2P, DP collectives)
//! under FIFO semantics; each graph's [`ExecDag`] indexes its queues and
//! edges once (shared by every duration-only rewrite of the graph),
//! [`simulate`] executes them in one longest-path pass, and the [`bubble`]
//! module extracts and classifies the idle gaps exactly as the paper's
//! Table 1 does from profiled timelines.
//!
//! # Examples
//!
//! ```
//! use optimus_cluster::DurNs;
//! use optimus_sim::{simulate, Stream, TaskGraph, TaskKind};
//!
//! let mut g = TaskGraph::new(1);
//! let k1 = g.push("fwd", 0, Stream::Compute, DurNs(1000), TaskKind::Generic, vec![]);
//! let tp = g.push("ag", 0, Stream::TpComm, DurNs(300), TaskKind::LlmTpComm, vec![k1]);
//! g.push("fwd2", 0, Stream::Compute, DurNs(1000), TaskKind::Generic, vec![tp]);
//! let r = simulate(&g).unwrap();
//! assert_eq!(r.makespan().0, 2300); // 300 ns TP bubble between the kernels
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bubble;
pub mod dag;
pub mod engine;
pub mod error;
pub mod task;

pub use analysis::{critical_path, latest_start_times, mean_compute_utilization, slack};
pub use bubble::{all_bubbles, device_bubbles, Bubble, BubbleBreakdown, BubbleKind};
pub use dag::ExecDag;
pub use engine::{simulate, SimResult, TaskSpan};
pub use error::SimError;
pub use task::{Stream, Task, TaskGraph, TaskId, TaskKind};
