//! Cluster expansion of a base pipeline graph — benchmark API.
//!
//! The lowered LLM pipeline graph has one device per PP stage; the real
//! cluster replicates that slice across `tp` lanes and `dp` replicas.
//! [`expand_cluster`] materializes the full `pp × tp × dp` task graph
//! (collectives fan in across their lane/replica groups exactly as the real
//! communicators do), [`simulate_symmetric`] simulates it with the plain DAG
//! engine, and [`ClusterGraph::base_result`] projects copy `(0, 0)` back
//! onto the base graph — which equals simulating the base graph directly.
//!
//! Planning never needs this: the profile simulates the base pipeline once
//! unless `OptimusConfig::folded_sim` asks for the cluster graph. The names
//! here ([`expand_cluster`], [`ClusterGraph`], [`DeviceCoord`],
//! [`simulate_symmetric`], [`FoldSummary`]) remain only because the
//! repository benchmark compiles against them; the benchmark change that
//! drops its fold calls deletes this module together with `folded_sim`.

use optimus_cluster::TimeNs;
use optimus_sim::{simulate, SimResult, TaskGraph, TaskId, TaskKind, TaskSpan};

use crate::error::OptimusError;

/// Grid coordinates of one expanded device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceCoord {
    /// Pipeline-parallel stage.
    pub stage: u32,
    /// Tensor-parallel lane.
    pub lane: u32,
    /// Data-parallel replica.
    pub replica: u32,
}

impl DeviceCoord {
    /// Convenience constructor.
    pub fn new(stage: u32, lane: u32, replica: u32) -> DeviceCoord {
        DeviceCoord {
            stage,
            lane,
            replica,
        }
    }
}

/// A cluster-scale expansion of a base (one-device-per-stage) pipeline graph.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    /// The expanded task graph (`stages × lanes × replicas` devices).
    pub graph: TaskGraph,
    /// Grid coordinates of every expanded device.
    pub coords: Vec<DeviceCoord>,
    /// TP lanes the base graph was replicated across.
    pub lanes: u32,
    /// DP replicas the base graph was replicated across.
    pub replicas: u32,
    base_devices: u32,
    base_len: usize,
}

impl ClusterGraph {
    /// Device index of `(stage, lane, replica)` in the expanded graph.
    pub fn device(&self, stage: u32, lane: u32, replica: u32) -> u32 {
        replica * self.base_devices * self.lanes + stage * self.lanes + lane
    }

    /// Expanded task id of base task `base` in copy `(lane, replica)`.
    pub fn task_of_base(&self, base: TaskId, lane: u32, replica: u32) -> TaskId {
        TaskId(base.0 * self.lanes * self.replicas + replica * self.lanes + lane)
    }

    /// Projects a cluster-scale simulation result back onto the base graph:
    /// the spans of copy `(0, 0)`, re-indexed by base task id. Because the
    /// expansion is symmetric, this equals simulating the base graph
    /// directly — the property `tests/symmetry.rs` pins bit-for-bit.
    pub fn base_result(&self, cluster: &SimResult) -> SimResult {
        let mut makespan = TimeNs::ZERO;
        let spans: Vec<TaskSpan> = (0..self.base_len)
            .map(|b| {
                let s = cluster.span(self.task_of_base(TaskId(b as u32), 0, 0));
                makespan = makespan.max(s.end);
                TaskSpan {
                    task: TaskId(b as u32),
                    start: s.start,
                    end: s.end,
                }
            })
            .collect();
        SimResult::from_parts(spans, makespan)
    }
}

/// Replicates a base pipeline graph across `lanes` TP lanes and `replicas`
/// DP replicas.
///
/// Every copy keeps the base's per-stream queue order and durations. Edge
/// wiring follows the communicator structure: dependencies of a DP
/// collective fan in across all replicas of the producer's lane,
/// dependencies of a TP collective fan in across all lanes of the producer's
/// replica, and everything else stays within its own copy. Copy `(0, 0)` is
/// therefore the base graph plus cross-copy collective edges whose
/// producers finish at the same time as its own.
pub fn expand_cluster(base: &TaskGraph, lanes: u32, replicas: u32) -> ClusterGraph {
    assert!(lanes >= 1 && replicas >= 1, "grid must be at least 1×1");
    let stages = base.num_devices();
    let copies = lanes * replicas;
    let mut graph = TaskGraph::new(stages * copies);
    let mut coords = vec![DeviceCoord::new(0, 0, 0); (stages * copies) as usize];
    let device = |stage: u32, l: u32, q: u32| q * stages * lanes + stage * lanes + l;
    let task_of = |b: TaskId, l: u32, q: u32| TaskId(b.0 * copies + q * lanes + l);
    for s in 0..stages {
        for l in 0..lanes {
            for q in 0..replicas {
                coords[device(s, l, q) as usize] = DeviceCoord::new(s, l, q);
            }
        }
    }
    // Pass 1: tasks, copy-minor so expanded ids follow `task_of` and every
    // per-(device, stream) queue replays the base queue order. Dependencies
    // come in pass 2 (`add_dep` has no ordering restriction; base deps may
    // point forward in id order after two-phase lowering).
    for t in base.tasks() {
        for q in 0..replicas {
            for l in 0..lanes {
                let id = graph.push(
                    t.label,
                    device(t.device, l, q),
                    t.stream,
                    t.duration,
                    t.kind,
                    vec![],
                );
                debug_assert_eq!(id, task_of(t.id, l, q));
            }
        }
    }
    // Pass 2: edges. The fan-in is chosen by the *consumer's* kind — a DP
    // collective waits for its producer in every replica, a TP collective in
    // every lane.
    for t in base.tasks() {
        for &dep in &t.deps {
            for q in 0..replicas {
                for l in 0..lanes {
                    let id = task_of(t.id, l, q);
                    match t.kind {
                        TaskKind::DpAllGather | TaskKind::DpReduceScatter => {
                            for q2 in 0..replicas {
                                graph.add_dep(id, task_of(dep, l, q2));
                            }
                        }
                        TaskKind::LlmTpComm | TaskKind::EncTpComm => {
                            for l2 in 0..lanes {
                                graph.add_dep(id, task_of(dep, l2, q));
                            }
                        }
                        _ => graph.add_dep(id, task_of(dep, l, q)),
                    }
                }
            }
        }
    }
    ClusterGraph {
        graph,
        coords,
        lanes,
        replicas,
        base_devices: stages,
        base_len: base.len(),
    }
}

/// The cluster-scale simulation behind a profile built with
/// `folded = true`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldSummary {
    /// Devices the engine simulated: every device of the cluster graph.
    pub devices_simulated: usize,
}

/// Result of [`simulate_symmetric`].
#[derive(Debug, Clone)]
pub struct FoldedRun {
    /// Per-task spans and makespan of the cluster graph.
    pub result: SimResult,
}

/// Simulates a cluster graph with [`optimus_sim::simulate`] (benchmark
/// API). `coords` is accepted for the benchmark's call and not read.
/// Deadlocks propagate as [`OptimusError::Substrate`].
pub fn simulate_symmetric(
    graph: &TaskGraph,
    _coords: &[DeviceCoord],
) -> Result<FoldedRun, OptimusError> {
    simulate(graph)
        .map(|result| FoldedRun { result })
        .map_err(|e| OptimusError::Substrate(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_pipeline::{lower, one_f_one_b, PipelineSpec, StageSpec, TimedKernel};

    fn small_spec(pp: u32, n_mb: u32) -> PipelineSpec {
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
            bwd_weight: vec![],
            activation_bytes: 1 << 20,
            params_per_gpu: 1 << 20,
        };
        PipelineSpec {
            pp,
            vpp: 1,
            n_microbatches: n_mb,
            stages: vec![stage; pp as usize],
            dp_allgather: DurNs(500),
            dp_reducescatter: DurNs(700),
            p2p: DurNs(30),
        }
    }

    fn lowered_graph(pp: u32, n_mb: u32) -> TaskGraph {
        let spec = small_spec(pp, n_mb);
        let sched = one_f_one_b(pp, n_mb).unwrap();
        lower(&spec, &sched, &[]).unwrap().graph
    }

    #[test]
    fn expansion_preserves_base_structure_per_copy() {
        let base = lowered_graph(2, 4);
        let cluster = expand_cluster(&base, 2, 3);
        assert_eq!(cluster.graph.num_devices(), 2 * 2 * 3);
        assert_eq!(cluster.graph.len(), base.len() * 6);
        for t in base.tasks() {
            for l in 0..2 {
                for q in 0..3 {
                    let et = cluster.graph.task(cluster.task_of_base(t.id, l, q));
                    assert_eq!(et.label, t.label);
                    assert_eq!(et.duration, t.duration);
                    assert_eq!(et.stream, t.stream);
                    assert_eq!(et.device, cluster.device(t.device, l, q));
                }
            }
        }
    }

    #[test]
    fn base_projection_equals_direct_base_simulation() {
        let base = lowered_graph(3, 5);
        let direct = simulate(&base).unwrap();
        let cluster = expand_cluster(&base, 2, 2);
        let run = simulate_symmetric(&cluster.graph, &cluster.coords).unwrap();
        let projected = cluster.base_result(&run.result);
        assert_eq!(projected.spans(), direct.spans());
        assert_eq!(projected.makespan(), direct.makespan());
    }
}
