//! # Optimus — MLLM training acceleration by bubble exploitation
//!
//! A full reproduction of *"Optimus: Accelerating Large-Scale Multi-Modal
//! LLM Training by Bubble Exploitation"* in Rust, built on a deterministic
//! simulation of 3D-parallel training (the substitution for the paper's
//! production GPU cluster — see `DESIGN.md`).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`cluster`] — hardware profiles, topology, collective cost models;
//! * [`modeling`] — model zoo (ViT-3B…22B, GPT-11B/175B, LLAMA-70B), FLOPs,
//!   kernel decomposition, memory accounting, workloads;
//! * [`parallel`] — 3D plans, enumeration, colocation layout, microbatch
//!   partitioning;
//! * [`sim`] — the execution DAG, its one-pass engine, and bubble
//!   classification;
//! * [`pipeline`] — 1F1B / interleaved-1F1B / GPipe schedules, task-graph
//!   lowering, dependency points, the Appendix B balanced partitioner;
//! * [`baselines`] — Megatron-LM, Megatron-LM balanced, FSDP, Alpa-like;
//! * [`core`] — the paper's contribution: model planner, bubble scheduler,
//!   dependency management, memory analysis, verifier;
//! * [`faults`] — deterministic fault injection (stragglers, degraded
//!   links, transient stalls, fail-stop) plus drift measurement, feeding
//!   the adaptive re-planning loop in [`core`];
//! * [`lint`] — static schedule & task-graph analysis (deadlock,
//!   collective-mismatch, memory-budget, bubble-insert overlap checks)
//!   run before any simulation;
//! * [`trace`] — Chrome-trace export, ASCII timelines, report tables;
//! * [`calibrate`] — trace ingestion, hardware-model calibration from
//!   kernel logs, and simulator-fidelity validation (the profile→model
//!   closed loop);
//! * [`recovery`] — checkpoint/restart recovery: bubble-placed snapshot
//!   writes, a deterministic failure-lifecycle simulator, elastic
//!   degraded-mode planning, and goodput accounting;
//! * [`fill`] — multi-tenant bubble-fill planning: packing independent
//!   fill jobs (eval, preprocessing, best-effort tenants) into proven-idle
//!   bubbles under a slack budget, with cluster-goodput pricing;
//! * [`fleet`] — the fleet-scale resilience what-if engine: deterministic
//!   Monte Carlo over MTBF-calibrated failure traces priced by an exact
//!   `O(failures · log steps)` lifecycle ledger, a Young/Daly checkpoint
//!   solver cross-checked against golden-section search over that ledger,
//!   and p50/p99 goodput frontiers over cluster size × MTBF × checkpoint
//!   policy × elastic mode;
//! * [`chaos`] — adversarial search over the perturbation space (faults,
//!   degradations, stragglers, microbatch skew), scoring plans by regret,
//!   lint violations, and recovery-ledger exactness, with property-test
//!   style shrinking into replayable regression fixtures;
//! * [`plansvc`] — the plan service: a content-addressed plan cache
//!   (canonical fingerprints, re-verified hits, `SavedSchedule` v2 disk
//!   tier), warm-started search seeded from the nearest cached winners,
//!   provable incremental re-planning for planning-invisible deltas, and
//!   a batched what-if query API over the deterministic worker pool.
//!
//! # Examples
//!
//! ```
//! use optimus::baselines::common::SystemContext;
//! use optimus::core::{run_optimus, OptimusConfig};
//! use optimus::modeling::Workload;
//! use optimus::parallel::ParallelPlan;
//!
//! let workload = Workload::small_model();
//! let ctx = SystemContext::hopper(workload.num_gpus).unwrap();
//! let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
//! let run = run_optimus(&workload, &cfg, &ctx).unwrap();
//! assert!(run.report.iteration_secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use optimus_baselines as baselines;
pub use optimus_calibrate as calibrate;
pub use optimus_chaos as chaos;
pub use optimus_cluster as cluster;
pub use optimus_core as core;
pub use optimus_faults as faults;
pub use optimus_fill as fill;
pub use optimus_fleet as fleet;
pub use optimus_lint as lint;
pub use optimus_modeling as modeling;
pub use optimus_parallel as parallel;
pub use optimus_pipeline as pipeline;
pub use optimus_plansvc as plansvc;
pub use optimus_recovery as recovery;
pub use optimus_sim as sim;
pub use optimus_trace as trace;
