//! optimus-plansvc — a plan *service* over the Optimus planning engine:
//! content-addressed plan caching, warm-started search, and incremental
//! re-planning.
//!
//! The paper frames schedule computation as "a one-time cost" (§4.2): a
//! production deployment plans offline and ships the schedule to the
//! training job. At fleet scale that one-time cost is paid many times —
//! per model revision, per cluster slice, per data-mixture refresh, and
//! again on every fault or elastic resize. This crate turns the engine
//! into a service that amortises those costs without ever trading away
//! the engine's determinism:
//!
//! 1. **Content-addressed cache** ([`cache`]) — plans are keyed by a
//!    [`PlanKey`] of canonical content fingerprints (cluster topology,
//!    model + plan-affecting config, trace distribution) and stored as
//!    [`SavedSchedule`](optimus_core::SavedSchedule) v2 documents. Every
//!    hit is re-verified — workload validation plus fingerprint equality —
//!    so a stale or corrupted entry can never serve a wrong plan; it
//!    simply degrades to a miss.
//! 2. **Warm-started search** ([`service`]) — on a miss the service seeds
//!    [`run_optimus_seeded`](optimus_core::run_optimus_seeded) with the
//!    nearest cached winners (same model fingerprint, then closest
//!    cluster size), so the engine sweeps the winners' neighbourhood
//!    first and prunes candidates a dependency-window lower bound proves
//!    strictly worse. The final answer is bit-identical to a cold search.
//! 3. **Incremental re-planning** ([`delta`]) — for the deltas fault and
//!    elasticity handling generate (a degraded link class, DP width ±1, a
//!    data-mixture reseed), the service re-plans only what the delta can
//!    actually affect. A delta on a link class the planner provably never
//!    reads ([`planning_reads`](optimus_cluster::ClusterTopology::planning_reads)
//!    is `false`) reuses the cached plan with *zero* search, re-proved by the lint
//!    analyzer and — in cross-check mode — by a full search asserted
//!    bit-equal.
//!
//! The batched query API ([`PlanService::query_batch`]) serves what-if
//! queries over the deterministic worker pool and reports per-query
//! [`ServiceStats`] (hit/miss/warm/incremental, latency, work counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod error;
pub mod key;
pub mod service;

pub use cache::{CacheStats, PlanCache};
pub use delta::PlanDelta;
pub use error::PlanSvcError;
pub use key::{model_fingerprint, trace_fingerprint, PlanKey};
pub use service::{PlanAnswer, PlanService, QueryKind, ServiceStats};
