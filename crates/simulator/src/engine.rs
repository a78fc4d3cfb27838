//! The execution engine: one longest-path pass over the [`ExecDag`].
//!
//! Executes a [`TaskGraph`] under CUDA-stream semantics: each
//! `(device, stream)` pair is a non-preemptive FIFO, so a task starts at
//! the later of its queue predecessor's end and its dependencies' ends.
//! [`simulate`] evaluates that recurrence once per task in the DAG's
//! topological order; the result is deterministic by construction.

use optimus_cluster::{DurNs, TimeNs};

use crate::dag::ExecDag;
use crate::error::SimError;
use crate::task::{Stream, TaskGraph, TaskId};

/// Execution record of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// The task.
    pub task: TaskId,
    /// Start instant.
    pub start: TimeNs,
    /// End instant.
    pub end: TimeNs,
}

impl TaskSpan {
    /// Duration of the span.
    pub fn duration(&self) -> DurNs {
        self.end.since(self.start)
    }
}

/// Result of simulating a task graph.
#[derive(Debug, Clone)]
pub struct SimResult {
    spans: Vec<TaskSpan>,
    makespan: TimeNs,
}

impl SimResult {
    /// Assembles a result from precomputed spans — the constructor used by
    /// drivers that project a cluster-scale result down to one
    /// representative pipeline. `spans` must be indexed by [`TaskId`].
    pub fn from_parts(spans: Vec<TaskSpan>, makespan: TimeNs) -> SimResult {
        SimResult { spans, makespan }
    }

    /// Per-task execution spans, indexed by [`TaskId`].
    pub fn spans(&self) -> &[TaskSpan] {
        &self.spans
    }

    /// Execution span of one task.
    pub fn span(&self, id: TaskId) -> TaskSpan {
        self.spans[id.index()]
    }

    /// End-to-end makespan (training-step time).
    pub fn makespan(&self) -> TimeNs {
        self.makespan
    }

    /// Spans of all tasks on one `(device, stream)` resource, sorted by
    /// start time (queue order: each queue is FIFO).
    pub fn stream_spans(&self, graph: &TaskGraph, device: u32, stream: Stream) -> Vec<TaskSpan> {
        ExecDag::new(graph).stream_spans(self, device, stream)
    }

    /// Total busy time of one resource.
    pub fn busy_time(&self, graph: &TaskGraph, device: u32, stream: Stream) -> DurNs {
        self.stream_spans(graph, device, stream)
            .iter()
            .map(|s| s.duration())
            .sum()
    }
}

/// Executes the graph; returns per-task spans and the makespan. This is
/// the [`ExecDag`]'s forward pass: every task, in topological order, starts
/// at the later of its queue predecessor's end and its dependencies' ends.
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] when the per-stream FIFO orders are
/// inconsistent with the dependency structure — the schedule being lowered
/// would hang on real hardware too.
pub fn simulate(graph: &TaskGraph) -> Result<SimResult, SimError> {
    let dag = ExecDag::new(graph);
    if let Some(&first) = dag.stuck().first() {
        return Err(SimError::Deadlock {
            stuck: dag.stuck().to_vec(),
            first_label: graph.task(first).label,
        });
    }
    let zero = TaskSpan {
        task: TaskId(0),
        start: TimeNs::ZERO,
        end: TimeNs::ZERO,
    };
    let mut spans = vec![zero; graph.len()];
    let mut makespan = TimeNs::ZERO;
    for &id in dag.topo_order() {
        let task = graph.task(id);
        let ready = dag
            .fifo_pred(id)
            .map_or(TimeNs::ZERO, |p| spans[p.index()].end);
        let start = (task.deps.iter()).fold(ready, |t, d| t.max(spans[d.index()].end));
        let end = start + task.duration;
        spans[id.index()] = TaskSpan {
            task: id,
            start,
            end,
        };
        makespan = makespan.max(end);
    }
    Ok(SimResult { spans, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    fn push(g: &mut TaskGraph, dev: u32, stream: Stream, dur: u64, deps: Vec<TaskId>) -> TaskId {
        g.push("t", dev, stream, DurNs(dur), TaskKind::Generic, deps)
    }

    #[test]
    fn serial_chain_on_one_stream() {
        let mut g = TaskGraph::new(1);
        push(&mut g, 0, Stream::Compute, 10, vec![]);
        push(&mut g, 0, Stream::Compute, 20, vec![]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan(), TimeNs(30));
        assert_eq!(r.span(TaskId(1)).start, TimeNs(10));
    }

    #[test]
    fn dependency_across_devices() {
        let mut g = TaskGraph::new(2);
        let a = push(&mut g, 0, Stream::Compute, 10, vec![]);
        push(&mut g, 1, Stream::Compute, 5, vec![a]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.span(TaskId(1)).start, TimeNs(10));
        assert_eq!(r.makespan(), TimeNs(15));
    }

    #[test]
    fn streams_run_concurrently() {
        let mut g = TaskGraph::new(1);
        push(&mut g, 0, Stream::Compute, 10, vec![]);
        push(&mut g, 0, Stream::TpComm, 10, vec![]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan(), TimeNs(10));
    }

    #[test]
    fn fifo_head_of_line_blocking_creates_bubble() {
        // Compute queue: [k1, k2]; k2 depends on a comm task that starts
        // after k1. The compute stream idles (TP bubble) while comm runs.
        let mut g = TaskGraph::new(1);
        let k1 = push(&mut g, 0, Stream::Compute, 10, vec![]);
        let comm = push(&mut g, 0, Stream::TpComm, 7, vec![k1]);
        push(&mut g, 0, Stream::Compute, 5, vec![comm]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.span(TaskId(2)).start, TimeNs(17));
        assert_eq!(r.makespan(), TimeNs(22));
    }

    #[test]
    fn late_dependency_edge_is_honoured() {
        // Dependency added after both tasks exist (two-phase construction).
        let mut g = TaskGraph::new(2);
        let a = push(&mut g, 0, Stream::Compute, 10, vec![]);
        let b = push(&mut g, 1, Stream::Compute, 5, vec![]);
        g.add_dep(a, b); // a now waits for b
        let r = simulate(&g).unwrap();
        assert_eq!(r.span(a).start, TimeNs(5));
    }

    #[test]
    fn deadlock_detected() {
        // Crossed FIFO heads: compute queue [k1(dep c2), k2] and TpComm
        // queue [c1(dep k2), c2]. k1 blocks k2, c1 blocks c2, k1 waits on
        // c2, c1 waits on k2 — a cycle through queue order.
        let mut g = TaskGraph::new(1);
        let k1 = push(&mut g, 0, Stream::Compute, 1, vec![]);
        let k2 = push(&mut g, 0, Stream::Compute, 1, vec![]);
        let c1 = push(&mut g, 0, Stream::TpComm, 1, vec![k2]);
        let c2 = push(&mut g, 0, Stream::TpComm, 1, vec![]);
        g.add_dep(k1, c2);
        let _ = c1;
        let SimError::Deadlock { stuck, .. } = simulate(&g).unwrap_err();
        assert_eq!(stuck.len(), 4);
    }

    #[test]
    fn resource_busy_delays_ready_task() {
        let mut g = TaskGraph::new(1);
        push(&mut g, 0, Stream::Compute, 100, vec![]);
        // Second task is ready at t=0 but the stream is busy until 100.
        push(&mut g, 0, Stream::Compute, 1, vec![]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.span(TaskId(1)).start, TimeNs(100));
    }

    #[test]
    fn busy_time_accounts_all_spans() {
        let mut g = TaskGraph::new(1);
        push(&mut g, 0, Stream::Compute, 10, vec![]);
        let c = push(&mut g, 0, Stream::TpComm, 50, vec![]);
        push(&mut g, 0, Stream::Compute, 20, vec![c]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.busy_time(&g, 0, Stream::Compute), DurNs(30));
        assert_eq!(r.busy_time(&g, 0, Stream::TpComm), DurNs(50));
        assert_eq!(r.makespan(), TimeNs(70));
    }

    #[test]
    fn zero_duration_tasks_complete() {
        let mut g = TaskGraph::new(1);
        let a = push(&mut g, 0, Stream::Compute, 0, vec![]);
        push(&mut g, 0, Stream::Compute, 0, vec![a]);
        let r = simulate(&g).unwrap();
        assert_eq!(r.makespan(), TimeNs::ZERO);
    }
}
