//! The execution DAG: one queue-and-edge index per task graph.
//!
//! Every `(device, stream)` is a non-preemptive FIFO, so a task starts at
//! the later of its queue predecessor's end and its dependencies' ends: a
//! timeline is the longest path over dependency ∪ FIFO edges. [`ExecDag`]
//! derives that structure once — the per-stream queues, the dependency
//! successors, and one Kahn topological order over both edge sets — and
//! every consumer reads it: the engine's forward pass, the slack analysis's
//! backward pass, bubble extraction, and the static lints.
//!
//! The index reads only structure (devices, streams, queue order,
//! dependencies), never durations, so a graph caches its own
//! ([`TaskGraph::dag`]) and every duration-only rewrite of it shares that
//! index.

use crate::task::{Stream, TaskGraph, TaskId};

/// Queue-and-edge index of one [`TaskGraph`], read through
/// [`TaskGraph::dag`].
#[derive(Debug, Clone)]
pub struct ExecDag {
    /// Resource `r = device × Stream::COUNT + stream` queues the tasks
    /// `queue_tasks[queue_start[r]..queue_start[r + 1]]`, in insertion order.
    queue_start: Vec<u32>,
    queue_tasks: Vec<TaskId>,
    /// Per task: its index in `queue_tasks` and its position in its queue.
    slot: Vec<u32>,
    pos: Vec<u32>,
    /// Per task `t`: the tasks listing it as a dependency, in task order, as
    /// `succ[succ_start[t]..succ_start[t + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<TaskId>,
    /// Topological order of every task that can run.
    order: Vec<TaskId>,
    /// The Kahn residue in ascending order: tasks that never run.
    stuck: Vec<TaskId>,
}

/// Compressed rows: `items[start[r]..start[r + 1]]` holds row `r`'s entries
/// in the order `entries` yields them.
fn csr<I: Iterator<Item = (usize, TaskId)>>(
    rows: usize,
    entries: impl Fn() -> I,
) -> (Vec<u32>, Vec<TaskId>) {
    let mut start = vec![0u32; rows + 1];
    for (r, _) in entries() {
        start[r + 1] += 1;
    }
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    let (mut fill, mut items) = (start.clone(), vec![TaskId(0); start[rows] as usize]);
    for (r, t) in entries() {
        items[fill[r] as usize] = t;
        fill[r] += 1;
    }
    (start, items)
}

impl ExecDag {
    /// Indexes `graph`: queues, successors, and the topological order.
    pub(crate) fn new(graph: &TaskGraph) -> ExecDag {
        let (n, tasks) = (graph.len(), graph.tasks());
        let n_res = graph.num_devices() as usize * Stream::COUNT;
        let (queue_start, queue_tasks) = csr(n_res, || {
            (tasks.iter()).map(|t| (t.device as usize * Stream::COUNT + t.stream.index(), t.id))
        });
        let (succ_start, succ) = csr(n, || {
            (tasks.iter()).flat_map(|t| t.deps.iter().map(move |d| (d.index(), t.id)))
        });
        let (mut slot, mut pos) = (vec![0; n], vec![0; n]);
        for w in queue_start.windows(2) {
            for s in w[0]..w[1] {
                let t = queue_tasks[s as usize].index();
                (slot[t], pos[t]) = (s, s - w[0]);
            }
        }
        let mut dag = ExecDag {
            queue_start,
            queue_tasks,
            slot,
            pos,
            succ_start,
            succ,
            order: Vec::new(),
            stuck: Vec::new(),
        };
        (dag.order, dag.stuck) = dag.kahn(graph, true);
        dag
    }

    /// Kahn's algorithm over `graph`'s dependency edges, plus the FIFO edges
    /// when `fifo` is set: a topological order of the tasks that can run,
    /// then the residue — every task on or behind a cycle — in ascending
    /// order.
    fn kahn(&self, graph: &TaskGraph, fifo: bool) -> (Vec<TaskId>, Vec<TaskId>) {
        let mut indeg: Vec<u32> = (graph.tasks().iter())
            .map(|t| t.deps.len() as u32 + u32::from(fifo && self.pos[t.id.index()] > 0))
            .collect();
        let mut order: Vec<TaskId> = (graph.tasks().iter())
            .filter(|t| indeg[t.id.index()] == 0)
            .map(|t| t.id)
            .collect();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let next = if fifo { self.fifo_next(u) } else { None };
            for &v in self.successors(u).iter().chain(next.as_ref()) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    order.push(v);
                }
            }
        }
        let stuck = (graph.tasks().iter())
            .filter(|t| indeg[t.id.index()] > 0)
            .map(|t| t.id)
            .collect();
        (order, stuck)
    }

    /// Tasks of one `(device, stream)` queue, in execution (= insertion)
    /// order. Empty for devices outside the graph.
    pub fn queue(&self, device: u32, stream: Stream) -> &[TaskId] {
        let r = device as usize * Stream::COUNT + stream.index();
        self.range(r, r + 1)
    }

    /// Every task on one device: its queues back to back, in
    /// [`Stream::ALL`] order.
    pub fn device_tasks(&self, device: u32) -> &[TaskId] {
        let r = device as usize * Stream::COUNT;
        self.range(r, r + Stream::COUNT)
    }

    fn range(&self, from: usize, to: usize) -> &[TaskId] {
        match (self.queue_start.get(from), self.queue_start.get(to)) {
            (Some(&a), Some(&b)) => &self.queue_tasks[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Position of a task within its queue.
    pub fn position(&self, id: TaskId) -> usize {
        self.pos[id.index()] as usize
    }

    /// The task queued just ahead of `id`, if any.
    pub(crate) fn fifo_pred(&self, id: TaskId) -> Option<TaskId> {
        (self.pos[id.index()] > 0).then(|| self.queue_tasks[self.slot[id.index()] as usize - 1])
    }

    /// The task queued just behind `id`, if any.
    pub fn fifo_next(&self, id: TaskId) -> Option<TaskId> {
        // The next slot belongs to the same queue unless it opens a new one.
        let next = *self.queue_tasks.get(self.slot[id.index()] as usize + 1)?;
        (self.pos[next.index()] > 0).then_some(next)
    }

    /// Tasks that list `id` as a dependency, in task order.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        let (a, b) = (self.succ_start[id.index()], self.succ_start[id.index() + 1]);
        &self.succ[a as usize..b as usize]
    }

    /// A topological order over dependency ∪ FIFO edges of every task that
    /// can run.
    pub(crate) fn topo_order(&self) -> &[TaskId] {
        &self.order
    }

    /// Tasks that can never run (ascending): a cycle through dependency and
    /// FIFO edges, and everything behind it. Empty when the graph executes.
    pub fn stuck(&self) -> &[TaskId] {
        &self.stuck
    }

    /// Like [`stuck`](Self::stuck), over dependency edges alone: non-empty
    /// exactly when the dependencies themselves contain a cycle. `graph` is
    /// the indexed graph.
    pub fn dependency_stuck(&self, graph: &TaskGraph) -> Vec<TaskId> {
        self.kahn(graph, false).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use optimus_cluster::DurNs;

    fn push(g: &mut TaskGraph, dev: u32, stream: Stream, deps: Vec<TaskId>) -> TaskId {
        g.push("t", dev, stream, DurNs(1), TaskKind::Generic, deps)
    }

    #[test]
    fn queues_neighbours_and_successors() {
        let mut g = TaskGraph::new(2);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let b = push(&mut g, 1, Stream::TpComm, vec![a]);
        let c = push(&mut g, 0, Stream::Compute, vec![a, b]);
        let d = push(&mut g, 1, Stream::TpComm, vec![]);
        let dag = g.dag();
        assert_eq!(dag.queue(0, Stream::Compute), &[a, c]);
        assert_eq!(dag.queue(1, Stream::TpComm), &[b, d]);
        assert!(dag.queue(0, Stream::P2p).is_empty());
        assert!(dag.queue(7, Stream::P2p).is_empty());
        assert_eq!(dag.device_tasks(1), &[b, d]);
        assert_eq!((dag.position(c), dag.position(d)), (1, 1));
        assert_eq!((dag.fifo_pred(a), dag.fifo_pred(c)), (None, Some(a)));
        assert_eq!((dag.fifo_next(a), dag.fifo_next(c)), (Some(c), None));
        assert_eq!(dag.fifo_next(b), Some(d));
        assert_eq!(dag.successors(a), &[b, c]);
        assert_eq!(dag.topo_order().len(), 4);
        assert!(dag.stuck().is_empty());
    }

    #[test]
    fn residues_separate_dependency_and_fifo_cycles() {
        // a is queued ahead of b but waits for it: a FIFO-only cycle.
        let mut g = TaskGraph::new(1);
        let a = push(&mut g, 0, Stream::Compute, vec![]);
        let b = push(&mut g, 0, Stream::Compute, vec![]);
        let c = push(&mut g, 0, Stream::TpComm, vec![b]);
        g.add_dep(a, b);
        assert_eq!(g.dag().stuck(), &[a, b, c]);
        assert!(g.dag().dependency_stuck(&g).is_empty());
        g.add_dep(b, a);
        assert_eq!(g.dag().dependency_stuck(&g), vec![a, b, c]);
    }
}
