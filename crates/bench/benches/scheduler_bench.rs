//! Microbenchmarks of the hot paths: the simulation engine, the bubble
//! scheduler's per-partition packing, and the balanced partitioner.
//!
//! Runs under `cargo bench` with a plain `Instant`-based harness (no
//! registry dependencies): each case is warmed up, then timed over enough
//! iterations to smooth scheduler noise, reporting the per-iteration median
//! of several batches.

use std::time::Instant;

use optimus_baselines::common::SystemContext;
use optimus_cluster::DurNs;
use optimus_core::{BubbleScheduler, EncoderWork, LlmProfile};
use optimus_modeling::{MllmConfig, Workload};
use optimus_parallel::{ColocationLayout, ParallelPlan};
use optimus_pipeline::balance_layers;
use optimus_sim::{simulate, Stream, TaskGraph, TaskKind};
use optimus_trace::quantile;

/// Times `f` over `batches` batches of `iters` iterations; reports the
/// median per-iteration time in microseconds.
fn bench<F: FnMut()>(name: &str, batches: usize, iters: usize, mut f: F) {
    for _ in 0..iters.min(3) {
        f(); // warmup
    }
    let mut per_iter_us: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    per_iter_us.sort_by(f64::total_cmp);
    println!(
        "{name:<44} {:>12.2} µs/iter (median of {batches}×{iters})",
        quantile(&per_iter_us, 0.5)
    );
}

fn bench_engine() {
    // A 4-device pipeline-shaped graph with ~4k tasks.
    let mut g = TaskGraph::new(4);
    let mut prev: Vec<Option<optimus_sim::TaskId>> = vec![None; 4];
    for i in 0..1000u64 {
        for d in 0..4u32 {
            let deps = prev[d as usize].map(|t| vec![t]).unwrap_or_default();
            let id = g.push(
                "k",
                d,
                Stream::Compute,
                DurNs(1000 + i % 7),
                TaskKind::Generic,
                deps,
            );
            prev[d as usize] = Some(id);
        }
    }
    bench("engine_simulate_4k_tasks", 7, 20, || {
        simulate(&g).unwrap();
    });
}

fn bench_scheduler() {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let llm_plan = ParallelPlan::new(2, 2, 2).unwrap();
    let enc_plan = ParallelPlan::new(4, 1, 2).unwrap();
    let ctx = SystemContext::hopper(8).unwrap();
    let profile = LlmProfile::build(&w, &llm_plan, &ctx).unwrap();
    let work = EncoderWork::build(&w.mllm, &enc_plan, 1, &ctx).unwrap();
    let layout = ColocationLayout::new(llm_plan, enc_plan).unwrap();
    let s = BubbleScheduler::new(&profile, &work, &layout).unwrap();
    bench("bubble_scheduler_one_partition", 7, 50, || {
        s.schedule_partition(&[4, 4], true).unwrap();
    });
    bench("bubble_scheduler_search_64_partitions", 5, 5, || {
        s.schedule(64, true).unwrap();
    });
}

fn bench_balance() {
    let times: Vec<DurNs> = (0..144)
        .map(|i| DurNs(1_000_000 + (i % 13) * 50_000))
        .collect();
    bench("balanced_partition_144_layers_96_stages", 7, 20, || {
        balance_layers(&times, 96).unwrap();
    });
}

fn main() {
    bench_engine();
    bench_scheduler();
    bench_balance();
}
