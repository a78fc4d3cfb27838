//! Adversarial chaos search over Optimus schedules, with shrinking
//! counterexamples as regression fixtures.
//!
//! The repo already models the perturbation space a production run lives
//! in — fault scenarios (`optimus-faults`), failure traces and recovery
//! lifecycles (`optimus-recovery`), schedule lints (`optimus-lint`). This
//! crate turns those models *against* the planner:
//!
//! 1. A [`Perturbation`] bundles the knobs (straggler, link degradation,
//!    kernel jitter, transient stalls, microbatch skew, fail-stop /
//!    device-loss sets) as bounded integers, with a canonical JSON form
//!    and a `size` the shrinker minimizes.
//! 2. A [`ChaosHarness`] plans a workload once and scores any
//!    perturbation against it on three surfaces: makespan **regret**
//!    versus a fault-aware re-plan, OPT005 **lint violations** of the
//!    perturbed insert schedule, and **exact-ledger violations** in the
//!    checkpoint/restart lifecycle. Scores order lexicographically by
//!    severity ([`ChaosScore`]).
//! 3. [`chaos_search`] runs seeded coordinate descent over fixed ladders,
//!    batching probes on the deterministic worker pool — results are
//!    bit-identical at any worker count — and keeps the worst offenders.
//! 4. [`shrink()`] minimizes a counterexample property-test style: drop
//!    faults, shorten failure lists, relax degradations, while the
//!    [`ChaosPredicate`] keeps holding.
//! 5. A [`ChaosFixture`] serializes the minimized counterexample under
//!    `tests/golden/chaos/`; the integration suite replays every fixture
//!    forever.
//!
//! ```no_run
//! use optimus_chaos::{
//!     chaos_search, shrink, ChaosHarness, ChaosPredicate, ChaosSearchConfig, ChaosSettings,
//! };
//!
//! let harness = ChaosHarness::reference(ChaosSettings::default()).unwrap();
//! let findings = chaos_search(&harness, &ChaosSearchConfig::default()).unwrap();
//! if let Some(worst) = findings.worst() {
//!     let predicate = ChaosPredicate::LintErrors;
//!     if predicate.holds(worst) {
//!         let minimal = shrink(&harness, predicate, &worst.perturbation).unwrap();
//!         println!("minimized: {}", minimal.shrunk.perturbation.describe());
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fixture;
pub mod harness;
pub mod perturbation;
pub mod score;
pub mod search;
pub mod shrink;

pub use error::ChaosError;
pub use fixture::ChaosFixture;
pub use harness::{ChaosHarness, ChaosSettings, REFERENCE_BUBBLE_SLACK};
pub use perturbation::{DegradedClass, FailureSpec, Perturbation};
pub use score::{
    ledger_violations, lint_violations, perturbed_insert_set, ChaosPredicate, ChaosScore,
    ProbeReport,
};
pub use search::{chaos_search, ChaosFindings, ChaosSearchConfig};
pub use shrink::{shrink, ShrinkResult};
