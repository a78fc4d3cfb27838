//! Worker-count invariance where the search shares state: at Table 7 scale
//! every candidate's work items run on several workers at once, share one
//! scheduler and fill its packing memo in whatever order they are claimed.
//! The plan, the recorded schedule, both efficiencies and the search
//! counters must not depend on the worker count, and must equal the answer
//! Table 7's 3072-GPU row has always had.

use optimus_baselines::common::SystemContext;
use optimus_core::{run_optimus, OptimusConfig};
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;

/// The 3072-GPU row: encoder plan `(dp, pp, tp, vpp)`, latency in ns,
/// `eff_coarse` and `eff_fine`.
const GOLDEN: ((u32, u32, u32, u32), i64, f64, f64) = (
    (96, 4, 8, 1),
    3_228_298_088,
    0.5073678527152203,
    0.7868761581270017,
);

#[test]
fn table7_3072_is_bit_identical_across_worker_counts() {
    let (w, (dp, pp, tp), vpp) = Workload::strong_scaling()
        .into_iter()
        .find(|(w, _, _)| w.num_gpus == 3072)
        .expect("Table 7 has a 3072-GPU row");
    let ctx = SystemContext::hopper(w.num_gpus).unwrap();
    let cfg = OptimusConfig::new(ParallelPlan::with_vpp(dp, pp, tp, vpp).unwrap());
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let run = run_optimus(&w, &cfg.clone().with_search_workers(workers), &ctx).unwrap();
            (workers, run)
        })
        .collect();
    let (plan, latency, coarse, fine) = GOLDEN;
    for (workers, run) in &runs {
        let p = run.enc_plan;
        assert_eq!((p.dp, p.pp, p.tp, p.vpp), plan, "workers={workers}");
        assert_eq!(run.outcome.latency, latency, "workers={workers}");
        assert_eq!(
            run.eff_coarse.to_bits(),
            coarse.to_bits(),
            "workers={workers}"
        );
        assert_eq!(run.eff_fine.to_bits(), fine.to_bits(), "workers={workers}");
        assert!(!run.outcome.placements.is_empty(), "workers={workers}");
    }
    let (_, base) = &runs[0];
    for (workers, run) in &runs[1..] {
        assert_eq!(run.outcome, base.outcome, "workers={workers}");
        assert_eq!(run.search.work_items, base.search.work_items);
        assert_eq!(run.search.evaluated, base.search.evaluated);
        assert_eq!(run.search.feasible, base.search.feasible);
        assert_eq!(run.lint, base.lint, "workers={workers}");
    }
}
