//! Optimus: accelerating multimodal-LLM training by bubble exploitation.
//!
//! This crate implements the paper's contribution on top of the simulated
//! substrate crates:
//!
//! * the **model planner** (§4.1): separate encoder/LLM parallel plans,
//!   colocation, memory pruning, microbatch partitioning;
//! * the **bubble scheduler** (§4.2, Algorithm 2): coarse-grained
//!   exploitation of the big leading/trailing bubbles plus fine-grained,
//!   kernel-level relocation of encoder work into interior (PP and
//!   sub-millisecond TP) bubbles, driven by critical-path search;
//! * **dependency management** (§4.3): adjusted forward/backward dependency
//!   points and the global-ordering `CheckEncLLMDep`;
//! * **multi-branch encoders** (§4.4) and the **memory analysis** (§4.5);
//! * a **verifier** that splices the chosen schedule back into the task
//!   graph and re-simulates the combined step end to end.
//!
//! # Examples
//!
//! ```
//! use optimus_baselines::common::SystemContext;
//! use optimus_core::{run_optimus, OptimusConfig};
//! use optimus_modeling::Workload;
//! use optimus_parallel::ParallelPlan;
//!
//! let w = Workload::small_model();
//! let ctx = SystemContext::hopper(8).unwrap();
//! let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
//! let run = run_optimus(&w, &cfg, &ctx).unwrap();
//! assert!(run.report.iteration_secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod encoder;
pub mod error;
pub mod fold;
pub mod lint;
pub mod memory;
pub mod optimus;
pub mod persist;
pub mod planner;
pub mod profile;
pub mod robustness;
pub mod scheduler;
pub mod verify;

pub use adaptive::{fault_annotations, fault_aware_replan, resilience_study, ResilienceReport};
pub use encoder::{EncKernel, EncoderStageWork, EncoderWork};
pub use error::OptimusError;
pub use fold::{
    expand_cluster, simulate_symmetric, ClusterGraph, DeviceCoord, FoldSummary, FoldedRun,
};
pub use lint::{
    idle_intervals, lane_collective_spec, lint_profile, lint_run, memory_claim,
    schedule_dep_points, schedule_insert_set, LintMode,
};
pub use memory::{colocated_model_state_bytes, colocation_overhead_bytes, optimus_memory};
pub use optimus::{run_optimus, run_optimus_seeded, OptimusConfig, OptimusRun, WarmStart};
pub use persist::{SavedSchedule, FORMAT_VERSION, MIN_FORMAT_VERSION};
pub use planner::{
    plan_chunks, plan_model, search_plan_chunks, CandidateVerdict, EncoderCandidate, PlanSearch,
    PlannerOutput, SearchChunk, SearchStats,
};
pub use profile::{DeviceProfile, FreeInterval, LlmProfile, LlmScheduleKind, Ts};
pub use robustness::{drift_study, jitter_study, perturb_uniform, DriftReport, RobustnessReport};
pub use scheduler::{
    sample_load_scales, BubbleScheduler, CoarseBlock, KernelPlacement, ScheduleOutcome,
};
pub use verify::{lowered_schedule, verify, VerifyReport};
