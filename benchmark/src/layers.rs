//! The per-layer metric catalogue and helpers that turn span totals and
//! counters into per-layer values.
//!
//! Every traced run prints every metric below; a layer a workload never
//! calls reads 0 there. Times are per operation of the phase the layer runs
//! in (a plan, a query, a re-simulation, a what-if pass), or per set-up for
//! layers that only run in set-up. Times of spans that run on search
//! workers are summed over workers, so they can exceed the search's wall
//! time.

use std::collections::BTreeMap;

use crate::span::Totals;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.self_ms", "ms"),
    ("planner.ms", "ms"),
    ("planner.candidates", "count"),
    ("planner.pruned", "count"),
    ("profile.ms", "ms"),
    ("profile.lower_ms", "ms"),
    ("profile.fold_sim_ms", "ms"),
    ("profile.dep_points_ms", "ms"),
    ("profile.unfolded_ms", "ms"),
    ("profile.tasks", "count"),
    ("profile.devices_simulated", "count"),
    ("search.ms", "ms"),
    ("search.self_ms", "ms"),
    ("search.encoder_build_ms", "ms"),
    ("search.scheduler_build_ms", "ms"),
    ("search.enumerate_ms", "ms"),
    ("search.slice_ms", "ms"),
    ("search.items", "count"),
    ("search.partitions", "count"),
    ("search.kernels_placed", "count"),
    ("search.worker_idle_frac", "fraction"),
    ("search.feasible_frac", "fraction"),
    ("search.workers", "count"),
    ("coarse.ms", "ms"),
    ("lint.ms", "ms"),
    ("lint.diagnostics", "count"),
    ("svc.hit_ms", "ms"),
    ("svc.incremental_ms", "ms"),
    ("svc.warm_ms", "ms"),
    ("svc.miss_ms", "ms"),
    ("svc.query_p99_ms", "ms"),
    ("svc.queries", "count"),
    ("svc.hits", "count"),
    ("svc.incremental", "count"),
    ("svc.warm", "count"),
    ("svc.misses", "count"),
    ("svc.evictions", "count"),
    ("svc.warm_items", "count"),
    ("svc.pruned_by_bound", "count"),
    ("splice.ms", "ms"),
    ("verify.ms", "ms"),
    ("resim.self_ms", "ms"),
    ("perturb.ms", "ms"),
    ("inject.ms", "ms"),
    ("sim.ms", "ms"),
    ("sim.tasks", "count"),
    ("sim.ns_per_task", "ns"),
    ("analysis.ms", "ms"),
    ("analysis.critical_path_ms", "ms"),
    ("bubble.ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("fleet.calibrate_ms", "ms"),
    ("fleet.traces_ms", "ms"),
    ("fleet.solver_ms", "ms"),
    ("fleet.ledger_ms", "ms"),
    ("fleet.frontier_ms", "ms"),
    ("fleet.replicas", "count"),
    ("fleet.evaluations", "count"),
    ("fleet.workers", "count"),
    ("trace.spans", "count"),
    ("trace.op_p50_ms", "ms"),
];

/// Inclusive ms of every span named `name` (0 when none ran).
pub fn span_ms(sum: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    sum.get(name).map_or(0.0, |t| t.inclusive_ms)
}

/// Self ms of every span named `name` (0 when none ran).
pub fn span_self_ms(sum: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    sum.get(name).map_or(0.0, |t| t.self_ms)
}

#[cfg(test)]
mod tests {
    use optimus_json::Json;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.field(f).and_then(|v| v.as_str()).expect("name/unit");
                    (s("name").to_string(), s("unit").to_string())
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("per_layer"), owned(super::PER_LAYER));
        assert_eq!(listed("end_to_end"), owned(&crate::END_TO_END));
    }
}
