//! Structural task-graph passes: dependency cycles (OPT001), stream-FIFO
//! inversions (OPT002), and orphan tasks (OPT006).
//!
//! The two cycle passes analyze different edge sets. OPT001 looks at
//! dependency edges alone: a cycle there is unexecutable no matter how tasks
//! are queued. OPT002 looks at the *union* of dependency edges and the
//! implicit per-`(device, stream)` FIFO edges the CUDA-stream execution
//! model adds between queue neighbours: a cycle that only closes through
//! FIFO edges is exactly the situation where `optimus_sim::simulate` would
//! report a deadlock — queue order contradicts dependency order. Both stuck
//! sets are residues of the graph's own `optimus_sim::ExecDag` Kahn pass,
//! the one the engine runs. Witnesses are minimal: the shortest cycle
//! through any stuck node, found by BFS.

use optimus_sim::{ExecDag, TaskGraph, TaskId};

use crate::diag::{DiagCode, Diagnostic, Witness};

/// Default witness namer: label + device + stream + kind.
pub(crate) fn default_name(g: &TaskGraph, id: TaskId) -> String {
    let t = g.task(id);
    format!(
        "`{}` (device {}, {:?}, {:?})",
        t.label, t.device, t.stream, t.kind
    )
}

/// Edge kinds of the union graph, kept for witness rendering.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    Dep,
    Fifo,
}

/// Out-edges of `u`: dependency successors, then (when `fifo`) the FIFO
/// successor.
fn out_edges<'a>(
    dag: &'a ExecDag,
    u: TaskId,
    fifo: bool,
) -> impl Iterator<Item = (TaskId, EdgeKind)> + 'a {
    let next = dag.fifo_next(u).filter(|_| fifo);
    (dag.successors(u).iter().map(|&v| (v, EdgeKind::Dep))).chain(next.map(|v| (v, EdgeKind::Fifo)))
}

/// Shortest cycle through any of (a bounded sample of) the stuck nodes:
/// BFS from each seed until the seed is reached again. Returns the cycle as
/// `(node, kind-of-edge-leaving-it)` pairs.
fn minimal_cycle(g: &TaskGraph, fifo: bool, stuck: &[TaskId]) -> Vec<(TaskId, EdgeKind)> {
    const MAX_SEEDS: usize = 16;
    let (dag, n) = (g.dag(), g.len());
    let mut best: Vec<(TaskId, EdgeKind)> = Vec::new();
    for &seed in stuck.iter().take(MAX_SEEDS) {
        let mut parent: Vec<Option<(TaskId, EdgeKind)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::from([seed]);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for (v, kind) in out_edges(dag, u, fifo) {
                if v == seed {
                    parent[seed.index()] = Some((u, kind));
                    found = true;
                    break 'bfs;
                }
                if parent[v.index()].is_none() {
                    parent[v.index()] = Some((u, kind));
                    queue.push_back(v);
                }
            }
        }
        if !found {
            continue;
        }
        // Walk parents back from the seed to recover the cycle.
        let mut cycle = Vec::new();
        let (mut node, mut kind) = parent[seed.index()].expect("cycle found");
        cycle.push((node, kind));
        while node != seed {
            let (p, k) = parent[node.index()].expect("on BFS tree");
            node = p;
            kind = k;
            cycle.push((node, kind));
        }
        cycle.reverse();
        if best.is_empty() || cycle.len() < best.len() {
            best = cycle;
        }
    }
    best
}

fn cycle_witness(
    g: &TaskGraph,
    cycle: &[(TaskId, EdgeKind)],
    name: &dyn Fn(TaskId) -> String,
) -> Vec<Witness> {
    cycle
        .iter()
        .map(|&(id, kind)| {
            let t = g.task(id);
            let via = match kind {
                EdgeKind::Dep => "dependency edge".to_string(),
                EdgeKind::Fifo => {
                    format!("FIFO order on (device {}, {:?})", t.device, t.stream)
                }
            };
            Witness::task(id, format!("{} → next via {}", name(id), via))
        })
        .collect()
}

/// Runs OPT001, OPT002, and OPT006 over one graph.
pub(crate) fn check_graph(g: &TaskGraph, name: &dyn Fn(TaskId) -> String) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if g.is_empty() {
        return out;
    }

    // OPT001: dependency-only cycle. Only a graph that cannot run can have
    // one: the union residue is empty otherwise.
    let dag = g.dag();
    let dep_stuck = if dag.stuck().is_empty() {
        Vec::new()
    } else {
        dag.dependency_stuck(g)
    };
    if !dep_stuck.is_empty() {
        let cycle = minimal_cycle(g, false, &dep_stuck);
        out.push(Diagnostic::new(
            DiagCode::Cycle,
            format!(
                "dependency cycle of length {} ({} tasks cannot execute)",
                cycle.len(),
                dep_stuck.len()
            ),
            cycle_witness(g, &cycle, name),
        ));
        // The union graph inherits every dependency cycle; re-reporting it
        // as a FIFO hazard would be noise.
        return out;
    }

    // OPT002: union (dependency + stream-FIFO) cycle.
    let stuck = dag.stuck();
    if !stuck.is_empty() {
        let cycle = minimal_cycle(g, true, stuck);
        let fifo_edges = cycle.iter().filter(|(_, k)| *k == EdgeKind::Fifo).count();
        out.push(Diagnostic::new(
            DiagCode::StreamFifoInversion,
            format!(
                "stream FIFO order contradicts dependency order: cycle of \
                 length {} through {} queue edge(s); {} task(s) would deadlock",
                cycle.len(),
                fifo_edges,
                stuck.len()
            ),
            cycle_witness(g, &cycle, name),
        ));
    }

    // OPT006: orphan tasks — no dependency edges at all, alone on their
    // stream queue, in a graph that otherwise has structure.
    if g.len() > 1 {
        for t in g.tasks() {
            let alone = dag.queue(t.device, t.stream).len() == 1;
            if t.deps.is_empty() && dag.successors(t.id).is_empty() && alone {
                out.push(Diagnostic::new(
                    DiagCode::OrphanTask,
                    format!(
                        "task {} is disconnected: no dependency edges and \
                         alone on (device {}, {:?})",
                        t.id.0, t.device, t.stream
                    ),
                    vec![Witness::task(t.id, name(t.id))],
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagCode;
    use crate::lint_graph;
    use optimus_cluster::DurNs;
    use optimus_sim::{Stream, TaskKind};

    fn push(g: &mut TaskGraph, dev: u32, stream: Stream, deps: Vec<TaskId>) -> TaskId {
        g.push("t", dev, stream, DurNs(10), TaskKind::Generic, deps)
    }

    #[test]
    fn dep_cycle_is_opt001_only() {
        let mut g = TaskGraph::new(2);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let b = push(&mut g, 1, Stream::Compute, vec![a]);
        g.add_dep(a, b); // a ← b and b ← a
        let r = lint_graph(&g);
        assert!(r.has(DiagCode::Cycle));
        assert!(!r.has(DiagCode::StreamFifoInversion));
        // Minimal witness: the 2-cycle, not some longer walk.
        assert_eq!(r.diagnostics[0].witness.len(), 2);
    }

    #[test]
    fn same_queue_inversion_is_opt002() {
        let mut g = TaskGraph::new(1);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let b = push(&mut g, 0, Stream::Compute, vec![]);
        g.add_dep(a, b); // a queued first, but must wait for b behind it
        let r = lint_graph(&g);
        assert!(r.has(DiagCode::StreamFifoInversion));
        assert!(!r.has(DiagCode::Cycle));
        assert!(
            optimus_sim::simulate(&g).is_err(),
            "engine agrees: deadlock"
        );
    }

    #[test]
    fn crossed_queues_deadlock_is_opt002() {
        // The engine's own deadlock test case, statically.
        let mut g = TaskGraph::new(1);
        let k1 = push(&mut g, 0, Stream::Compute, vec![]);
        let k2 = push(&mut g, 0, Stream::Compute, vec![]);
        let _c1 = g.push(
            "c1",
            0,
            Stream::TpComm,
            DurNs(1),
            TaskKind::Generic,
            vec![k2],
        );
        let c2 = push(&mut g, 0, Stream::TpComm, vec![]);
        g.add_dep(k1, c2);
        let r = lint_graph(&g);
        assert!(r.has(DiagCode::StreamFifoInversion), "{}", r.render());
        assert!(!r.has(DiagCode::Cycle));
        assert!(optimus_sim::simulate(&g).is_err());
    }

    #[test]
    fn orphan_task_is_opt006_warning() {
        let mut g = TaskGraph::new(2);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let _b = push(&mut g, 0, Stream::Compute, vec![a]);
        let _orphan = push(&mut g, 1, Stream::TpComm, vec![]);
        let r = lint_graph(&g);
        assert!(r.has(DiagCode::OrphanTask));
        assert!(!r.has_errors(), "orphans warn, not deny: {}", r.render());
    }

    #[test]
    fn connected_singleton_queue_is_not_orphan() {
        // A task alone on its queue but wired by dependencies is fine.
        let mut g = TaskGraph::new(1);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let _c = g.push("c", 0, Stream::TpComm, DurNs(1), TaskKind::Generic, vec![a]);
        let r = lint_graph(&g);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn single_task_graph_is_clean() {
        let mut g = TaskGraph::new(1);
        push(&mut g, 0, Stream::Compute, vec![]);
        assert!(lint_graph(&g).is_clean());
    }

    #[test]
    fn executable_graphs_lint_clean_and_deadlocks_do_not() {
        // Statically clean ⇔ dynamically executable on a batch of shapes.
        for shape in 0..4u32 {
            let mut g = TaskGraph::new(2);
            let a = push(&mut g, 0, Stream::Compute, vec![]);
            let b = push(&mut g, 1, Stream::Compute, vec![a]);
            let c = push(&mut g, 0, Stream::TpComm, vec![b]);
            if shape % 2 == 1 {
                g.add_dep(a, c); // close a cycle
            }
            let r = lint_graph(&g);
            assert_eq!(
                r.has_errors(),
                optimus_sim::simulate(&g).is_err(),
                "shape {shape}: {}",
                r.render()
            );
        }
    }
}
