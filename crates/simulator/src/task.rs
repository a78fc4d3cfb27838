//! Task graphs: the unit of work the engine executes.
//!
//! A task occupies one *stream* of one simulated device for a fixed duration,
//! starting only after all its dependencies have completed and all earlier
//! tasks queued on the same stream have finished (CUDA-stream FIFO
//! semantics). Pipeline schedules are lowered to per-stream queues whose
//! order encodes the schedule; bubbles are the idle gaps that result.

use std::sync::{Arc, OnceLock};

use optimus_cluster::DurNs;

use crate::dag::ExecDag;

/// Index of a task within its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Raw index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Execution streams of one simulated device, mirroring how Megatron-LM
/// separates compute, tensor-parallel collectives, pipeline point-to-point
/// traffic and data-parallel collectives onto distinct CUDA streams /
/// NCCL communicators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stream {
    /// Compute kernels.
    Compute,
    /// Tensor-parallel collectives (all-gather / reduce-scatter).
    TpComm,
    /// Pipeline-parallel point-to-point transfers.
    P2p,
    /// Data-parallel collectives (parameter all-gather, gradient
    /// reduce-scatter).
    DpComm,
    /// Encoder↔LLM activation/gradient transfers (kept off the pipeline P2P
    /// FIFO so encoder traffic cannot head-of-line-block pipeline receives).
    EncP2p,
}

impl Stream {
    /// All streams, in a stable order.
    pub const ALL: [Stream; 5] = [
        Stream::Compute,
        Stream::TpComm,
        Stream::P2p,
        Stream::DpComm,
        Stream::EncP2p,
    ];

    /// Number of streams per device.
    pub const COUNT: usize = 5;

    /// Stable index of this stream within a device.
    pub fn index(self) -> usize {
        match self {
            Stream::Compute => 0,
            Stream::TpComm => 1,
            Stream::P2p => 2,
            Stream::DpComm => 3,
            Stream::EncP2p => 4,
        }
    }
}

/// Who issued a task — used by bubble classification and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// LLM compute kernel (part of a forward pass).
    LlmFwd {
        /// Model chunk (virtual stage) index.
        chunk: u32,
        /// Microbatch index.
        microbatch: u32,
    },
    /// LLM compute kernel (part of a backward pass).
    LlmBwd {
        /// Model chunk (virtual stage) index.
        chunk: u32,
        /// Microbatch index.
        microbatch: u32,
    },
    /// LLM tensor-parallel collective.
    LlmTpComm,
    /// Pipeline transfer of activations (forward direction).
    PpFwdTransfer {
        /// Microbatch index.
        microbatch: u32,
    },
    /// Pipeline transfer of gradients (backward direction).
    PpBwdTransfer {
        /// Microbatch index.
        microbatch: u32,
    },
    /// Start-of-step data-parallel parameter all-gather.
    DpAllGather,
    /// End-of-step data-parallel gradient reduce-scatter.
    DpReduceScatter,
    /// Optimizer step.
    Optimizer,
    /// Encoder compute kernel (forward).
    EncFwd {
        /// Encoder pipeline index.
        pipeline: u32,
        /// Encoder pipeline stage.
        stage: u32,
        /// Microbatch index (within the encoder pipeline's allocation).
        microbatch: u32,
    },
    /// Encoder compute kernel (backward).
    EncBwd {
        /// Encoder pipeline index.
        pipeline: u32,
        /// Encoder pipeline stage.
        stage: u32,
        /// Microbatch index (within the encoder pipeline's allocation).
        microbatch: u32,
    },
    /// Encoder tensor-parallel collective.
    EncTpComm,
    /// Encoder→LLM activation or LLM→encoder gradient transfer.
    EncLlmTransfer,
    /// Anything else (tests, synthetic workloads).
    Generic,
}

impl TaskKind {
    /// True for encoder compute kernels.
    pub fn is_encoder_compute(self) -> bool {
        matches!(self, TaskKind::EncFwd { .. } | TaskKind::EncBwd { .. })
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct Task {
    /// Identifier (index into the owning graph).
    pub id: TaskId,
    /// Stable label for traces and debugging.
    pub label: &'static str,
    /// Simulated device index.
    pub device: u32,
    /// Stream within the device.
    pub stream: Stream,
    /// Execution duration.
    pub duration: DurNs,
    /// Semantic tag.
    pub kind: TaskKind,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
}

/// A dependency graph of tasks with per-stream FIFO queues.
///
/// Queue order is *insertion order*: tasks added to the same
/// `(device, stream)` pair execute in the order they were pushed.
/// Its [`dag`](Self::dag) index is shared by clones and duration rewrites
/// and dropped by structural edits.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    num_devices: u32,
    dag: OnceLock<Arc<ExecDag>>,
}

impl TaskGraph {
    /// Creates an empty graph over `num_devices` simulated devices.
    pub fn new(num_devices: u32) -> TaskGraph {
        TaskGraph {
            num_devices,
            ..TaskGraph::default()
        }
    }

    /// The graph's execution index, built on first use.
    pub fn dag(&self) -> &ExecDag {
        self.dag.get_or_init(|| Arc::new(ExecDag::new(self)))
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// Adds a task and returns its id.
    ///
    /// Dependencies listed here must already exist; edges to tasks created
    /// later can be added afterwards with [`add_dep`](Self::add_dep)
    /// (two-phase construction, needed when lowering pipeline schedules whose
    /// cross-rank dependencies point "forward" in per-rank program order).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or a listed dependency does not
    /// exist yet.
    pub fn push(
        &mut self,
        label: &'static str,
        device: u32,
        stream: Stream,
        duration: DurNs,
        kind: TaskKind,
        deps: Vec<TaskId>,
    ) -> TaskId {
        assert!(device < self.num_devices, "device {device} out of range");
        let id = TaskId(self.tasks.len() as u32);
        for d in &deps {
            assert!(d.0 < id.0, "dependency {:?} must precede task {:?}", d, id);
        }
        self.dag.take();
        self.tasks.push(Task {
            id,
            label,
            device,
            stream,
            duration,
            kind,
            deps,
        });
        id
    }

    /// Adds a dependency edge: `task` will not start before `dep` completes.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `task == dep`.
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        assert!(task.index() < self.tasks.len(), "unknown task {task:?}");
        assert!(dep.index() < self.tasks.len(), "unknown dep {dep:?}");
        assert_ne!(task, dep, "task cannot depend on itself");
        let deps = &mut self.tasks[task.index()].deps;
        if !deps.contains(&dep) {
            deps.push(dep);
            self.dag.take();
        }
    }

    /// All tasks in insertion order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All dependency edges as `(dep, task)` pairs: `task` waits for `dep`.
    /// Order is deterministic (task insertion order, then dep-list order).
    pub fn dep_edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.tasks
            .iter()
            .flat_map(|t| t.deps.iter().map(move |&d| (d, t.id)))
    }

    /// Removes a dependency edge, returning whether it was present. Exists
    /// for mutation testing (knock out one edge, confirm the static analyzer
    /// notices); lowering never removes edges.
    pub fn remove_dep(&mut self, task: TaskId, dep: TaskId) -> bool {
        let deps = &mut self.tasks[task.index()].deps;
        match deps.iter().position(|&d| d == dep) {
            Some(i) => {
                deps.remove(i);
                self.dag.take();
                true
            }
            None => false,
        }
    }

    /// Total duration of tasks matching a predicate (work, not wall time).
    pub fn total_work<F: Fn(&Task) -> bool>(&self, pred: F) -> DurNs {
        self.tasks
            .iter()
            .filter(|t| pred(t))
            .map(|t| t.duration)
            .sum()
    }

    /// Returns a copy with every task duration replaced by `f(&task)` —
    /// the general perturbation hook fault injection builds on. Structure
    /// (devices, streams, queue order, dependency edges) is preserved, so
    /// the copy simulates under identical scheduling semantics.
    pub fn with_durations<F: FnMut(&Task) -> DurNs>(&self, mut f: F) -> TaskGraph {
        let mut g = self.clone();
        for t in &mut g.tasks {
            t.duration = f(t);
        }
        g
    }

    /// Returns a copy with every task duration scaled by an independent
    /// factor drawn by `scale` (e.g. uniform in `[1−ε, 1+ε]`) — used to
    /// study schedule robustness against CUDA kernel-runtime fluctuation
    /// (the paper's §6 "online scheduling" discussion).
    pub fn with_scaled_durations<F: FnMut(&Task) -> f64>(&self, mut scale: F) -> TaskGraph {
        self.with_durations(|t| {
            let f = scale(t).max(0.0);
            DurNs((t.duration.0 as f64 * f).round() as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_sequential_ids() {
        let mut g = TaskGraph::new(2);
        let a = g.push("a", 0, Stream::Compute, DurNs(5), TaskKind::Generic, vec![]);
        let b = g.push(
            "b",
            1,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![a],
        );
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, vec![a]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_device() {
        let mut g = TaskGraph::new(1);
        g.push("a", 3, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn rejects_forward_dependency() {
        let mut g = TaskGraph::new(1);
        g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(1),
            TaskKind::Generic,
            vec![TaskId(5)],
        );
    }

    #[test]
    fn dep_edges_and_index_queues_enumerate_structure() {
        let mut g = TaskGraph::new(2);
        let a = g.push("a", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
        let b = g.push(
            "b",
            0,
            Stream::Compute,
            DurNs(1),
            TaskKind::Generic,
            vec![a],
        );
        let c = g.push("c", 1, Stream::TpComm, DurNs(1), TaskKind::Generic, vec![a]);
        g.add_dep(b, c);
        let edges: Vec<_> = g.dep_edges().collect();
        assert_eq!(edges, vec![(a, b), (c, b), (a, c)]);
        let dag = g.dag();
        assert_eq!(dag.queue(0, Stream::Compute), &[a, b]);
        assert_eq!(dag.queue(1, Stream::TpComm), &[c]);
        assert!(dag.queue(0, Stream::TpComm).is_empty());
        assert!(dag.queue(1, Stream::Compute).is_empty());
    }

    #[test]
    fn remove_dep_knocks_out_one_edge() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
        let b = g.push(
            "b",
            0,
            Stream::Compute,
            DurNs(1),
            TaskKind::Generic,
            vec![a],
        );
        assert!(g.remove_dep(b, a));
        assert!(!g.remove_dep(b, a), "second removal is a no-op");
        assert!(g.task(b).deps.is_empty());
    }

    #[test]
    fn total_work_filters() {
        let mut g = TaskGraph::new(1);
        g.push("a", 0, Stream::Compute, DurNs(5), TaskKind::Generic, vec![]);
        g.push(
            "b",
            0,
            Stream::TpComm,
            DurNs(7),
            TaskKind::LlmTpComm,
            vec![],
        );
        assert_eq!(g.total_work(|t| t.stream == Stream::Compute), DurNs(5));
        assert_eq!(g.total_work(|_| true), DurNs(12));
    }

    fn push(g: &mut TaskGraph, dev: u32, deps: Vec<TaskId>) -> TaskId {
        g.push("t", dev, Stream::Compute, DurNs(1), TaskKind::Generic, deps)
    }

    #[test]
    fn duration_rewrites_share_the_index_and_edits_reset_it() {
        let mut g = TaskGraph::new(2);
        let (a, b) = (push(&mut g, 0, vec![]), push(&mut g, 1, vec![]));
        let c = push(&mut g, 0, vec![a]);
        let index = g.dag();
        let scaled = g.with_scaled_durations(|_| 2.0);
        for copy in [g.with_durations(|t| t.duration * 3), scaled, g.clone()] {
            assert!(std::ptr::eq(index, copy.dag()));
        }
        // Each edit of a clone indexes it afresh; the original keeps its own.
        let mut removed = g.clone();
        assert!(removed.remove_dep(c, a));
        assert!(removed.dag().successors(a).is_empty());
        let mut added = g.clone();
        added.add_dep(c, b);
        assert_eq!(added.dag().successors(b), &[c]);
        let mut pushed = g.clone();
        let d = push(&mut pushed, 1, vec![c]);
        assert_eq!(pushed.dag().queue(1, Stream::Compute), &[b, d]);
        assert_eq!(pushed.dag().successors(c), &[d]);
        assert!(std::ptr::eq(index, g.dag()));
        assert_eq!(g.dag().successors(a), &[c]);
        assert!(g.dag().successors(b).is_empty());
        assert_eq!(g.dag().queue(1, Stream::Compute), &[b]);
    }
}
