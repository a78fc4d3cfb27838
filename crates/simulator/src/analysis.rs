//! Post-simulation analysis: utilization, critical-path slack.
//!
//! The slack analysis implements the Fig. 12 warmup adjustment in its general
//! form: for every task we compute the *latest* start time that leaves the
//! end-to-end makespan unchanged. Rank-0 chunk-0 forward passes with positive
//! slack are exactly the forward dependency points the paper defers.

use optimus_cluster::{DurNs, TimeNs};

use crate::engine::SimResult;
use crate::task::{Stream, TaskGraph, TaskId};

/// Mean, over all devices, of the fraction of the makespan each device's
/// compute stream is busy.
pub fn mean_compute_utilization(graph: &TaskGraph, result: &SimResult) -> f64 {
    let (n, total) = (graph.num_devices(), result.makespan().as_secs_f64());
    if n == 0 || total == 0.0 {
        return 0.0;
    }
    (0..n)
        .map(|d| result.busy_time(graph, d, Stream::Compute).as_secs_f64() / total)
        .sum::<f64>()
        / n as f64
}

/// Latest start time of every task such that the makespan is unchanged.
///
/// Successor edges are (a) explicit dependencies and (b) FIFO order on each
/// `(device, stream)` resource; tasks are visited in reverse topological
/// order of the graph's [`ExecDag`](crate::ExecDag): a task's latest finish
/// is the earliest latest start among its successors, or the makespan.
pub fn latest_start_times(graph: &TaskGraph, result: &SimResult) -> Vec<TimeNs> {
    let (dag, makespan) = (graph.dag(), result.makespan());
    let mut latest_start = vec![makespan; graph.len()];
    for &id in dag.topo_order().iter().rev() {
        let next = dag.fifo_next(id);
        let finish = (dag.successors(id).iter().chain(next.as_ref()))
            .fold(makespan, |f, s| f.min(latest_start[s.index()]));
        latest_start[id.index()] = finish - graph.task(id).duration;
    }
    latest_start
}

/// Extracts one critical path: a chain of zero-slack tasks from a step-start
/// task to a step-end task, following dependency and FIFO edges. Useful for
/// diagnosing what bounds a training step.
pub fn critical_path(graph: &TaskGraph, result: &SimResult) -> Vec<TaskId> {
    let sl = slack(graph, result);
    // Start from the zero-slack task that finishes last (ties: smallest id),
    // then walk backwards through zero-slack predecessors that abut in time:
    // explicit deps first, then the FIFO predecessor.
    let mut current = graph
        .tasks()
        .iter()
        .filter(|t| sl[t.id.index()].is_zero())
        .max_by_key(|t| (result.span(t.id).end, std::cmp::Reverse(t.id)))
        .map(|t| t.id);
    let mut path = Vec::new();
    while let Some(id) = current {
        path.push(id);
        let start = result.span(id).start;
        current = (graph.task(id).deps.iter().copied())
            .chain(graph.dag().fifo_pred(id))
            .find(|&c| sl[c.index()].is_zero() && result.span(c).end == start);
    }
    path.reverse();
    path
}

/// Slack of every task: latest start minus actual start.
pub fn slack(graph: &TaskGraph, result: &SimResult) -> Vec<DurNs> {
    let ls = latest_start_times(graph, result);
    (graph.tasks().iter())
        .map(|t| ls[t.id.index()].since(result.span(t.id).start))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::task::TaskKind;

    #[test]
    fn utilization_of_fully_busy_device_is_one() {
        let mut g = TaskGraph::new(1);
        g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(50),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "b",
            0,
            Stream::Compute,
            DurNs(50),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        assert!((mean_compute_utilization(&g, &r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_has_zero_slack() {
        // chain a(10) -> b(20) on one stream: both critical.
        let mut g = TaskGraph::new(1);
        let a = g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "b",
            0,
            Stream::Compute,
            DurNs(20),
            TaskKind::Generic,
            vec![a],
        );
        let r = simulate(&g).unwrap();
        let s = slack(&g, &r);
        assert_eq!(s, vec![DurNs::ZERO, DurNs::ZERO]);
    }

    #[test]
    fn off_critical_task_has_slack() {
        // Device 0: long task (100). Device 1: short task (10), no deps.
        // The short task could start as late as t=90.
        let mut g = TaskGraph::new(2);
        g.push(
            "long",
            0,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "short",
            1,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let s = slack(&g, &r);
        assert_eq!(s[1], DurNs(90));
        assert_eq!(s[0], DurNs::ZERO);
    }

    #[test]
    fn fifo_order_constrains_slack() {
        // Two queued tasks (10, 10) on one stream + a parallel long task
        // (100) elsewhere. Task 1 must finish before task 2 starts, so its
        // latest start is 80, not 90.
        let mut g = TaskGraph::new(2);
        g.push(
            "q1",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "q2",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "long",
            1,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let ls = latest_start_times(&g, &r);
        assert_eq!(ls[0], TimeNs(80));
        assert_eq!(ls[1], TimeNs(90));
    }

    #[test]
    fn critical_path_spans_the_makespan() {
        // chain a(10) -> b(20) with a parallel short task: path = [a, b].
        let mut g = TaskGraph::new(2);
        let a = g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        let b = g.push(
            "b",
            0,
            Stream::Compute,
            DurNs(20),
            TaskKind::Generic,
            vec![a],
        );
        g.push(
            "short",
            1,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let path = crate::analysis::critical_path(&g, &r);
        assert_eq!(path, vec![a, b]);
        // The path is contiguous in time from 0 to the makespan.
        assert_eq!(r.span(path[0]).start.0, 0);
        assert_eq!(r.span(*path.last().unwrap()).end, r.makespan());
        let covered: u64 = path.iter().map(|&t| r.span(t).duration().0).sum();
        assert_eq!(covered, r.makespan().0);
    }

    #[test]
    fn critical_path_crosses_devices() {
        let mut g = TaskGraph::new(2);
        let a = g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        let b = g.push(
            "b",
            1,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![a],
        );
        let c = g.push(
            "c",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![b],
        );
        let r = simulate(&g).unwrap();
        let path = crate::analysis::critical_path(&g, &r);
        assert_eq!(path, vec![a, b, c]);
    }

    #[test]
    fn zero_duration_task_behind_a_late_edge_has_bounded_slack() {
        // k waits for c through a late edge; both start at 0 and c takes no
        // time, so c's latest start is k's: 90.
        let mut g = TaskGraph::new(2);
        let k = g.push(
            "k",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        let c = g.push("c", 1, Stream::TpComm, DurNs(0), TaskKind::Generic, vec![]);
        g.add_dep(k, c);
        g.push(
            "long",
            1,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        assert_eq!(slack(&g, &r)[c.index()], DurNs(90));
    }

    #[test]
    fn dependency_constrains_predecessor_slack() {
        // a(10) on dev0; b(10) on dev1 depends on a; long(100) on dev2.
        // b latest start 90 → a latest finish 90 → a latest start 80.
        let mut g = TaskGraph::new(3);
        let a = g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "b",
            1,
            Stream::Compute,
            DurNs(10),
            TaskKind::Generic,
            vec![a],
        );
        g.push(
            "long",
            2,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let ls = latest_start_times(&g, &r);
        assert_eq!(ls[0], TimeNs(80));
    }
}
