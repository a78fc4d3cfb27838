//! optimus-fleet — the fleet-scale resilience what-if engine.
//!
//! Checkpoint placement, failure recovery and elastic degraded modes are
//! priced per-job by `optimus-recovery`; this crate lifts them to the
//! question an operator actually asks: *over a month on N devices, which
//! knob buys the most goodput?* Three layers compose the answer:
//!
//! 1. **Deterministic Monte Carlo** ([`montecarlo`]) — month-long failure
//!    traces drawn per replica from per-component MTBF classes (GPU
//!    fail-stop, NIC fault, host loss — [`optimus_recovery::ComponentSpec`],
//!    optionally calibrated from observed traces via
//!    [`optimus_calibrate::fit_mtbf`]), each priced by the **exact**
//!    lifecycle ledger: recovery's one lifecycle walk, run without its
//!    timeline in `O(failures)` — the steps that fit before each event
//!    come from a closed form, not a search
//!    ([`optimus_recovery::lifecycle_ledger`]) — so a replica audit
//!    (`wall == useful + lost`, [`optimus_recovery::RecoveryOutcome::audit`])
//!    backs every statistic. Replicas fan out over the deterministic worker
//!    pool: bit-identical at any worker count.
//! 2. **Optimal checkpoint-interval solver** ([`solver`]) — the Young/Daly
//!    closed form (`T = √(2δM)`), its bubble-aware self-consistent fixed
//!    point, and a golden-section search over the exact ledger, reported
//!    side by side. Headline: once shard writes pack into pipeline bubbles
//!    the marginal checkpoint cost collapses, and the textbook calibration
//!    (`δ` = full write) prescribes intervals an order of magnitude too
//!    long — [`SolverResult::gap_pct`] quantifies the goodput forfeited.
//! 3. **Goodput frontiers** ([`frontier`], [`report`]) — p50/p99 goodput
//!    over cluster size × MTBF × checkpoint policy × elastic mode, emitted
//!    as a byte-stable [`FleetReport`] (golden text + JSON). Cells that
//!    share a failure reality are priced once.
//!
//! # Examples
//!
//! ```
//! use optimus_fleet::{run_monte_carlo, FleetScenario, McConfig};
//! use optimus_recovery::{DegradedMode, PlacementPolicy};
//!
//! let mut sc = FleetScenario::synthetic();
//! sc.horizon_steps = 50_000; // shrink the month for the doctest
//! let cfg = McConfig { replicas: 2, workers: 1 };
//! let study = run_monte_carlo(
//!     &sc,
//!     PlacementPolicy::Bubble,
//!     24,
//!     DegradedMode::WaitForRestart,
//!     &cfg,
//! )
//! .unwrap();
//! assert!(study.summary.goodput_p50 > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frontier;
pub mod montecarlo;
pub mod report;
pub mod scenario;
pub mod solver;

pub use error::FleetError;
pub use frontier::{sweep_frontier, FrontierCell, FrontierConfig};
pub use montecarlo::{
    evaluate, replica_traces, run_monte_carlo, McConfig, McStudy, McSummary, ReplicaOutcome,
};
pub use report::FleetReport;
pub use scenario::FleetScenario;
pub use solver::{
    self_consistent_steps, solve_interval, solve_on_traces, young_daly_steps, SolverResult,
};
