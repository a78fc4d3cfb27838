//! Negative suite: one minimal fixture per diagnostic code, each triggering
//! exactly that lint, plus mutation tests that seed a fault into a *real*
//! lowered schedule and assert the analyzer catches it.

use optimus_cluster::DurNs;
use optimus_lint::{
    lint_graph, Analyzer, CheckpointSpec, CollectiveSpec, CommGroup, CommRank, DepPoints, DiagCode,
    FillSpec, IdleInterval, InsertClaim, InsertSet, LintReport, MemoryClaim, Severity,
};
use optimus_pipeline::{
    lower, one_f_one_b, Dir, InsertKernel, InsertStream, OpRef, PipelineSpec, StageSpec,
    TimedKernel,
};
use optimus_sim::{Stream, TaskGraph, TaskId, TaskKind};

fn push(g: &mut TaskGraph, label: &'static str, dev: u32, s: Stream, deps: Vec<TaskId>) -> TaskId {
    g.push(label, dev, s, DurNs(100), TaskKind::Generic, deps)
}

/// Asserts the report contains `code` and nothing else.
fn assert_only(report: &LintReport, code: DiagCode) {
    assert!(report.has(code), "expected {code}: {report}");
    for d in &report.diagnostics {
        assert_eq!(d.code, code, "unexpected extra diagnostic: {}", d.render());
    }
}

// ---------------------------------------------------------------- fixtures

#[test]
fn opt001_dependency_cycle() {
    let mut g = TaskGraph::new(2);
    let a = push(&mut g, "a", 0, Stream::Compute, vec![]);
    let b = push(&mut g, "b", 1, Stream::Compute, vec![a]);
    g.add_dep(a, b); // a → b → a
    let report = lint_graph(&g);
    assert_only(&report, DiagCode::Cycle);
    assert_eq!(report.count(DiagCode::Cycle), 1);
    assert!(report.has_errors());
}

#[test]
fn opt002_stream_fifo_inversion() {
    // Dep-only graph is acyclic; the cycle appears only once the FIFO edge
    // a→b (queue order) is added: a waits for b which queues behind it.
    let mut g = TaskGraph::new(1);
    let a = push(&mut g, "a", 0, Stream::Compute, vec![]);
    let b = push(&mut g, "b", 0, Stream::Compute, vec![]);
    g.add_dep(a, b);
    let report = lint_graph(&g);
    assert_only(&report, DiagCode::StreamFifoInversion);
}

#[test]
fn opt003_collective_order_mismatch() {
    let spec = CollectiveSpec::new(vec![CommGroup::new(
        "dp",
        vec![
            CommRank::new("rank0", vec!["ag".into(), "rs".into()]),
            CommRank::new("rank1", vec!["rs".into(), "ag".into()]),
        ],
    )]);
    let report = Analyzer::new().collectives(spec).analyze();
    assert_only(&report, DiagCode::CollectiveOrderMismatch);
}

#[test]
fn opt004_memory_over_budget() {
    let claim = MemoryClaim::new("gpu 0", 100)
        .component("weights", 80)
        .component("activations", 40);
    let report = Analyzer::new().memory(claim).analyze();
    assert_only(&report, DiagCode::MemoryOverBudget);
}

#[test]
fn opt005_bubble_insert_overlap() {
    let set = InsertSet {
        intervals: vec![IdleInterval {
            device: 0,
            comm: false,
            start: 0,
            end: 50,
        }],
        claims: vec![InsertClaim {
            device: 0,
            lane: 0,
            comm: false,
            start: 40,
            end: 90, // spills 40ns past the bubble
            label: "enc_fwd".into(),
            chain: None,
        }],
    };
    let report = Analyzer::new().inserts(set).analyze();
    assert_only(&report, DiagCode::BubbleInsertOverlap);
}

#[test]
fn opt005_dependency_point_violation() {
    // Encoder forward finishes at t=100 but the LLM consumes it at t=80.
    let dp = DepPoints {
        ef: vec![100],
        f_points: vec![80],
        eb: vec![],
        b_points: vec![],
        p2p_margin: 0,
    };
    let report = Analyzer::new().dep_points(dp).analyze();
    assert_only(&report, DiagCode::BubbleInsertOverlap);
}

#[test]
fn opt006_orphan_task() {
    let mut g = TaskGraph::new(2);
    let a = push(&mut g, "a", 0, Stream::Compute, vec![]);
    let _b = push(&mut g, "b", 0, Stream::Compute, vec![a]);
    let _orphan = push(&mut g, "stray", 1, Stream::Compute, vec![]);
    let report = lint_graph(&g);
    assert_only(&report, DiagCode::OrphanTask);
    // Orphans warn; they stall nothing, so deny mode must not reject them.
    assert!(!report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Warning));
}

#[test]
fn opt007_missing_checkpoint() {
    // A 5-step segment with a 1-step checkpoint budget, but the only durable
    // point sits at step 1: the remaining 4-step stretch is uncovered.
    let step = 1_000_000i64;
    let spec = CheckpointSpec::new("step horizon", step, (0, 5 * step)).durable_at(step, "ckpt@1");
    let report = Analyzer::new().checkpoints(spec).analyze();
    assert_only(&report, DiagCode::MissingCheckpoint);
    // Coverage gaps warn; they block nothing at execution time.
    assert!(!report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Warning));

    // The covered variant is clean: one durable point per interval.
    let mut covered = CheckpointSpec::new("step horizon", step, (0, 5 * step));
    for k in 1..5 {
        covered = covered.durable_at(k * step, format!("ckpt@{k}"));
    }
    assert!(Analyzer::new().checkpoints(covered).analyze().is_clean());
}

#[test]
fn opt008_fill_claim_overlap() {
    let claim = |label: &str, device: u32, start: i64, end: i64| InsertClaim {
        device,
        lane: 0,
        comm: false,
        start,
        end,
        label: label.into(),
        chain: None,
    };
    // A fill chunk that leaks into the checkpoint shard write ahead of it,
    // and a sibling pair double-booking the same bubble.
    let spec = FillSpec {
        primary: vec![claim("enc mb0", 0, 0, 100)],
        checkpoint: vec![claim("ckpt shard dev0 chunk0", 0, 150, 250)],
        fill: vec![
            claim("fill eval chunk0", 0, 120, 180),
            claim("fill etl chunk0", 1, 40, 90),
            claim("fill etl chunk1", 1, 80, 130),
        ],
    };
    let report = Analyzer::new().fill(spec).analyze();
    assert_only(&report, DiagCode::FillClaimOverlap);
    assert_eq!(report.count(DiagCode::FillClaimOverlap), 2);
    assert!(report.has_errors(), "fill overlaps must be errors");

    // The disjoint variant is clean: fill stays inside its own spans.
    let clean = FillSpec {
        primary: vec![claim("enc mb0", 0, 0, 100)],
        checkpoint: vec![claim("ckpt shard dev0 chunk0", 0, 150, 250)],
        fill: vec![
            claim("fill eval chunk0", 0, 100, 150),
            claim("fill etl chunk0", 1, 40, 90),
        ],
    };
    assert!(Analyzer::new().fill(clean).analyze().is_clean());
}

// ---------------------------------------------------------------- mutations

fn small_spec(pp: u32, n: u32) -> PipelineSpec {
    let stage = StageSpec {
        fwd: vec![
            TimedKernel {
                label: "f",
                dur: DurNs(400),
                comm: false,
            },
            TimedKernel {
                label: "ag",
                dur: DurNs(50),
                comm: true,
            },
        ],
        bwd: vec![
            TimedKernel {
                label: "b",
                dur: DurNs(800),
                comm: false,
            },
            TimedKernel {
                label: "rs",
                dur: DurNs(50),
                comm: true,
            },
        ],
        ..StageSpec::default()
    };
    PipelineSpec {
        pp,
        vpp: 1,
        n_microbatches: n,
        stages: vec![stage; pp as usize],
        dp_allgather: DurNs(300),
        dp_reducescatter: DurNs(500),
        p2p: DurNs(50),
    }
}

fn lowered_1f1b(pp: u32, n: u32) -> optimus_pipeline::Lowered {
    lower(&small_spec(pp, n), &one_f_one_b(pp, n).unwrap(), &[]).unwrap()
}

/// Rebuilds `g` with the queue positions of `x` and `y` swapped (same
/// device+stream), preserving every dependency edge.
fn swap_queue_positions(g: &TaskGraph, x: TaskId, y: TaskId) -> TaskGraph {
    let mut order: Vec<TaskId> = g.tasks().iter().map(|t| t.id).collect();
    let (ix, iy) = (x.index(), y.index());
    order.swap(ix, iy);
    let mut out = TaskGraph::new(g.num_devices());
    let mut map = vec![None; g.len()];
    for id in &order {
        let t = g.task(*id);
        map[t.id.index()] = Some(out.push(t.label, t.device, t.stream, t.duration, t.kind, vec![]));
    }
    for (dep, task) in g.dep_edges() {
        out.add_dep(map[task.index()].unwrap(), map[dep.index()].unwrap());
    }
    out
}

#[test]
fn mutation_swapping_same_stream_tasks_deadlocks() {
    let lowered = lowered_1f1b(2, 4);
    assert!(lint_graph(&lowered.graph).is_clean());

    // Swap microbatch 0's forward with the first backward on device 0's
    // compute queue: the backward transitively depends on that forward (via
    // the downstream rank), so queueing it first wedges the stream.
    let q = lowered.graph.stream_queues();
    let (_, compute0) = q
        .iter()
        .find(|((d, s), _)| *d == 0 && *s == Stream::Compute)
        .expect("device 0 compute queue");
    let first_bwd = *compute0
        .iter()
        .find(|id| matches!(lowered.graph.task(**id).kind, TaskKind::LlmBwd { .. }))
        .expect("a backward on device 0");
    let mutated = swap_queue_positions(&lowered.graph, compute0[0], first_bwd);
    let report = lint_graph(&mutated);
    assert!(
        report.has(DiagCode::StreamFifoInversion) || report.has(DiagCode::Cycle),
        "swap went undetected: {report}"
    );
    assert!(report.has_errors());
}

#[test]
fn mutation_dropping_dep_edge_orphans_task() {
    // Minimal two-device graph: the transfer consumer on device 1 is alone
    // in its queue, so cutting its only edge makes it an orphan.
    let mut g = TaskGraph::new(2);
    let prod = push(&mut g, "fwd", 0, Stream::Compute, vec![]);
    let send = push(&mut g, "send", 0, Stream::P2p, vec![prod]);
    let recv = push(&mut g, "recv", 1, Stream::Compute, vec![send]);
    let _ = recv;
    assert!(lint_graph(&g).is_clean());

    assert!(g.remove_dep(recv, send));
    let report = lint_graph(&g);
    assert_only(&report, DiagCode::OrphanTask);
}

/// A real lowered 1F1B schedule with two encoder inserts on rank 0 whose
/// activations feed LLM forwards on rank 1 — producing two `act_p2p`
/// transfers on rank 1's `EncP2p` queue, one channel, in send order.
fn lowered_with_enc_p2p() -> optimus_pipeline::Lowered {
    let enc = |microbatch: u32| InsertKernel {
        device: 0,
        stream: InsertStream::Compute,
        label: "enc_f",
        kind: TaskKind::EncFwd {
            pipeline: 0,
            stage: 0,
            microbatch,
        },
        dur: DurNs(200),
        queue_index: 0,
        dep_inserts: vec![],
        dep_ops: vec![],
        feeds_ops: vec![OpRef {
            rank: 1,
            chunk: 0,
            microbatch,
            dir: Dir::Fwd,
        }],
    };
    lower(
        &small_spec(2, 4),
        &one_f_one_b(2, 4).unwrap(),
        &[enc(0), enc(1)],
    )
    .unwrap()
}

#[test]
fn mutation_swapping_enc_p2p_pair_order_breaks_channel() {
    let lowered = lowered_with_enc_p2p();
    assert!(
        lint_graph(&lowered.graph).is_clean(),
        "{}",
        lint_graph(&lowered.graph)
    );

    // Swap the two transfers on rank 1's EncP2p queue: the receive order no
    // longer replays the send order, so the channel's sequences diverge.
    let q = lowered.graph.stream_queues();
    let (_, enc_p2p) = q
        .iter()
        .find(|((d, s), _)| *d == 1 && *s == Stream::EncP2p)
        .expect("rank 1 EncP2p queue");
    assert_eq!(
        enc_p2p.len(),
        2,
        "fixture should yield exactly two transfers"
    );
    let mutated = swap_queue_positions(&lowered.graph, enc_p2p[0], enc_p2p[1]);
    let report = lint_graph(&mutated);
    assert!(
        report.has(DiagCode::CollectiveOrderMismatch),
        "swapped p2p pair went undetected: {report}"
    );
}

#[test]
fn mutation_dropping_enc_p2p_send_edge_leaves_dangling_receive() {
    let lowered = lowered_with_enc_p2p();
    let mut g = lowered.graph.clone();
    assert!(lint_graph(&g).is_clean());

    // Cut the transfer's edge to its producer: a receive with no matching
    // send on any channel.
    let q = g.stream_queues();
    let (_, enc_p2p) = q
        .iter()
        .find(|((d, s), _)| *d == 1 && *s == Stream::EncP2p)
        .expect("rank 1 EncP2p queue");
    let tr = enc_p2p[0];
    let producer = g.task(tr).deps[0];
    assert_ne!(g.task(producer).device, 1, "dep should be the remote send");
    assert!(g.remove_dep(tr, producer));
    let report = lint_graph(&g);
    assert!(
        report.has(DiagCode::CollectiveOrderMismatch),
        "dangling receive went undetected: {report}"
    );
}

#[test]
fn mutation_skipping_one_ranks_allgather_breaks_collectives() {
    let lowered = lowered_1f1b(2, 4);
    assert!(lint_graph(&lowered.graph).is_clean());

    // Rebuild without device 1's DP all-gather: rank 1's DpComm sequence
    // diverges from rank 0's at position 0.
    let mut out = TaskGraph::new(lowered.graph.num_devices());
    let mut map: Vec<Option<TaskId>> = vec![None; lowered.graph.len()];
    let mut skipped = false;
    for t in lowered.graph.tasks() {
        if !skipped && t.device == 1 && t.stream == Stream::DpComm {
            skipped = true;
            continue;
        }
        map[t.id.index()] = Some(out.push(t.label, t.device, t.stream, t.duration, t.kind, vec![]));
    }
    assert!(skipped, "fixture has no DP collective on device 1");
    for (dep, task) in lowered.graph.dep_edges() {
        if let (Some(nt), Some(nd)) = (map[task.index()], map[dep.index()]) {
            out.add_dep(nt, nd);
        }
    }
    let report = lint_graph(&out);
    assert!(
        report.has(DiagCode::CollectiveOrderMismatch),
        "skipped all-gather went undetected: {report}"
    );
}
