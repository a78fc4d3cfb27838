//! Golden-trace regression tests: simulator timelines for small fixed
//! configs are serialized with `optimus::trace::compact_timeline` and
//! compared byte-for-byte against checked-in references in `tests/golden/`.
//!
//! Any intentional change to the simulator, lowering, or cost models will
//! fail these tests with a textual diff; regenerate the references with
//!
//! ```text
//! OPTIMUS_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use optimus::baselines::common::SystemContext;
use optimus::baselines::{megatron_balanced, megatron_lm};
use optimus::cluster::DurNs;
use optimus::cluster::FpHasher;
use optimus::modeling::Workload;
use optimus::pipeline::{gpipe, simulate_pipeline, PipelineSpec, StageSpec, TimedKernel};
use optimus::sim::{all_bubbles, BubbleKind, SimResult, TaskGraph};
use optimus::trace::compact_timeline;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, graph: &TaskGraph, result: &SimResult) {
    check_golden_text(name, &compact_timeline(graph, result));
}

fn check_golden_text(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("OPTIMUS_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden trace");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {}: {e}\n\
             regenerate with OPTIMUS_REGEN_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(8)
            .map(|(i, (e, a))| format!("  line {}: golden `{e}` vs actual `{a}`", i + 1))
            .collect();
        panic!(
            "timeline diverged from golden trace {} \
             ({} golden lines, {} actual lines):\n{}\n\
             if the change is intentional, regenerate with \
             OPTIMUS_REGEN_GOLDEN=1 cargo test --test golden_trace",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

/// Batch 4 on 8 GPUs keeps the golden files small while still exercising
/// every stream (compute, TP, P2P, DP) of the lowered 1F1B pipeline.
fn small_workload() -> Workload {
    Workload::new(optimus::modeling::MllmConfig::small(), 8, 4, 1)
}

#[test]
fn megatron_1f1b_small_matches_golden() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    check_golden("megatron_1f1b_small.txt", &run.lowered.graph, &run.result);
}

/// A deterministic faulted run: persistent straggler on device 0 plus a
/// degraded NVLink class, injected into the 1F1B graph before simulation.
/// Pins down the fault-injection arithmetic (multiplicative scaling,
/// link-class mapping, rounding) byte-for-byte.
#[test]
fn megatron_1f1b_small_faulted_matches_golden() {
    use optimus::cluster::LinkClass;
    use optimus::faults::{FaultModel, FaultScenario};

    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let faults = FaultModel::new(7)
        .with(FaultScenario::StragglerDevice {
            device: 0,
            slowdown: 1.5,
        })
        .unwrap()
        .with(FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 1.5,
        })
        .unwrap();
    let inj = faults.inject(&run.lowered.graph, &ctx.topo).unwrap();
    let result = optimus::sim::simulate(&inj.graph).unwrap();
    check_golden("megatron_1f1b_small_faulted.txt", &inj.graph, &result);
}

#[test]
fn megatron_balanced_small_matches_golden() {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let run = megatron_balanced(&w, (2, 2, 2), 2, &ctx).unwrap();
    check_golden(
        "megatron_balanced_small.txt",
        &run.lowered.graph,
        &run.result,
    );
}

/// Bubble fingerprint of one layout: a content hash over every bubble
/// (device, start, end, kind) in extraction order, plus per-kind counts and
/// totals so a diff says which category moved.
fn bubble_fingerprint(name: &str, graph: &TaskGraph, result: &SimResult) -> String {
    let bubbles = all_bubbles(graph, result);
    let mut h = FpHasher::new("bubbles");
    for b in &bubbles {
        h.fold_u32(b.device)
            .fold_u64(b.start.0)
            .fold_u64(b.end.0)
            .fold_str(b.kind.label());
    }
    let mut out = format!("{name}: {} bubbles, fp {}\n", bubbles.len(), h.finish());
    for kind in BubbleKind::ALL {
        let of_kind = bubbles.iter().filter(|b| b.kind == kind);
        let total: u64 = of_kind.clone().map(|b| b.duration().0).sum();
        out.push_str(&format!(
            "  {:<28} {:>4} bubbles {:>12} ns\n",
            kind.label(),
            of_kind.count(),
            total
        ));
    }
    out
}

/// Pins `all_bubbles` on every golden layout.
#[test]
fn golden_layout_bubbles_match_golden() {
    use optimus::cluster::LinkClass;
    use optimus::faults::{FaultModel, FaultScenario};

    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let megatron = megatron_lm(&w, (2, 2, 2), &ctx).unwrap();
    let balanced = megatron_balanced(&w, (2, 2, 2), 2, &ctx).unwrap();
    let faulted = FaultModel::new(7)
        .with(FaultScenario::StragglerDevice {
            device: 0,
            slowdown: 1.5,
        })
        .unwrap()
        .with(FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 1.5,
        })
        .unwrap()
        .inject(&megatron.lowered.graph, &ctx.topo)
        .unwrap()
        .graph;
    let faulted_result = optimus::sim::simulate(&faulted).unwrap();
    let (gpipe_lowered, gpipe_result) = gpipe_uniform();
    let mut text = String::new();
    for (name, graph, result) in [
        ("gpipe_uniform", &gpipe_lowered.graph, &gpipe_result),
        (
            "megatron_1f1b_small",
            &megatron.lowered.graph,
            &megatron.result,
        ),
        (
            "megatron_balanced_small",
            &balanced.lowered.graph,
            &balanced.result,
        ),
        ("megatron_1f1b_small_faulted", &faulted, &faulted_result),
    ] {
        text.push_str(&bubble_fingerprint(name, graph, result));
    }
    check_golden_text("bubbles.txt", &text);
}

fn gpipe_uniform() -> (optimus::pipeline::Lowered, SimResult) {
    let stage = StageSpec {
        fwd: vec![TimedKernel {
            label: "f",
            dur: DurNs(1200),
            comm: false,
        }],
        bwd: vec![TimedKernel {
            label: "b",
            dur: DurNs(2400),
            comm: false,
        }],
        ..StageSpec::default()
    };
    let spec = PipelineSpec {
        pp: 4,
        vpp: 1,
        n_microbatches: 8,
        stages: vec![stage; 4],
        dp_allgather: DurNs(300),
        dp_reducescatter: DurNs(500),
        p2p: DurNs(50),
    };
    let sched = gpipe(4, 8).unwrap();
    simulate_pipeline(&spec, &sched, &[]).unwrap()
}

#[test]
fn gpipe_uniform_matches_golden() {
    let (lowered, result) = gpipe_uniform();
    check_golden("gpipe_uniform.txt", &lowered.graph, &result);
}
