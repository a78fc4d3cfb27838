//! Certificate-driven folded simulation of rank-symmetric clusters.
//!
//! The lowered LLM pipeline graph has one device per PP stage; the real
//! cluster replicates that slice across `tp` lanes and `dp` replicas.
//! [`expand_cluster`] materializes the full `pp × tp × dp` task graph
//! (collectives fan in across their lane/replica groups exactly as the real
//! communicators do), [`simulate_symmetric`] asks the static certifier
//! (`optimus_lint::certify_symmetry`) for a [`SymmetryCertificate`] and runs
//! `optimus_sim::simulate_folded` on one representative per class — falling
//! back to full simulation whenever the certifier refuses (OPT010) or the
//! folded engine finds the certificate stale. The fold never changes
//! results: DESIGN.md §14 gives the soundness argument, and the
//! `tests/symmetry.rs` suite pins bit-identity on every schedule family.
//! Planning folds only on request (`OptimusConfig::folded_sim`, default
//! `false`): the default profile simulates the base pipeline once, which
//! gives the same answer without materializing the cluster.

use optimus_cluster::TimeNs;
use optimus_lint::{certify_symmetry_with_claims, DeviceCoord, LintReport, SymmetryCertificate};
use optimus_sim::{
    simulate, simulate_folded, FoldStats, SimError, SimResult, TaskGraph, TaskId, TaskKind,
    TaskSpan,
};

use crate::error::OptimusError;

/// A cluster-scale expansion of a base (one-device-per-stage) pipeline graph.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    /// The expanded task graph (`stages × lanes × replicas` devices).
    pub graph: TaskGraph,
    /// Grid coordinates of every expanded device, for the certifier.
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

    /// Number of pipeline copies (`lanes × replicas`).
    pub fn num_copies(&self) -> u32 {
        self.lanes * self.replicas
    }

    /// Projects a cluster-scale simulation result back onto the base graph:
    /// the spans of copy `(0, 0)`, re-indexed by base task id. Because the
    /// expansion is symmetric, this equals simulating the base graph
    /// directly — the property the symmetry test suite pins bit-for-bit.
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
/// therefore structurally identical to the base graph once cross-copy edges
/// are folded back — which is exactly what the folded engine does.
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

/// How a symmetric simulation was executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldSummary {
    /// Devices in the cluster graph.
    pub devices: u32,
    /// Devices the engine actually simulated.
    pub devices_simulated: usize,
    /// Equivalence classes in the certificate (= devices simulated when the
    /// folded engine ran).
    pub classes: usize,
    /// Certificate fingerprint (0 when no certificate was issued).
    pub fingerprint: u64,
    /// True when the folded engine produced the result; false means full
    /// simulation (refused certificate, stale plan, or nothing to fold).
    pub folded: bool,
}

impl FoldSummary {
    /// Devices per simulated device (1.0 when nothing folded).
    pub fn fold_factor(&self) -> f64 {
        self.devices as f64 / self.devices_simulated.max(1) as f64
    }
}

/// Result of [`simulate_symmetric`]: the (bit-exact) simulation result plus
/// the certificate trail explaining how it was obtained.
#[derive(Debug, Clone)]
pub struct FoldedRun {
    /// Per-task spans and makespan — identical whichever engine ran.
    pub result: SimResult,
    /// The symmetry certificate (`None` when OPT010 refused folding).
    pub certificate: Option<SymmetryCertificate>,
    /// OPT009/OPT010 diagnostics from the certifier.
    pub report: LintReport,
    /// Folded-engine statistics; `None` when full simulation ran.
    pub stats: Option<FoldStats>,
}

impl FoldedRun {
    /// True when the folded engine produced the result.
    pub fn folded(&self) -> bool {
        self.stats.is_some()
    }

    /// Condensed summary for profiles and reports.
    pub fn summary(&self, devices: u32) -> FoldSummary {
        FoldSummary {
            devices,
            devices_simulated: self
                .stats
                .as_ref()
                .map_or(devices as usize, |s| s.devices_simulated),
            classes: self
                .certificate
                .as_ref()
                .map_or(devices as usize, |c| c.classes.len()),
            fingerprint: self.certificate.as_ref().map_or(0, |c| c.fingerprint),
            folded: self.folded(),
        }
    }
}

/// Simulates a cluster graph through the certificate-driven folded engine.
///
/// Protocol (DESIGN.md §14): certify → fold → replicate. The folded engine
/// is only entered with a certificate that covers the graph and folds at
/// least one device; OPT010 refusals and `SimError::Fold` staleness both
/// fall back to full simulation, so the result is bit-identical to
/// [`optimus_sim::simulate`] in every case. Deadlocks propagate — folding
/// never masks an unexecutable graph.
pub fn simulate_symmetric(
    graph: &TaskGraph,
    coords: &[DeviceCoord],
) -> Result<FoldedRun, OptimusError> {
    simulate_symmetric_with_claims(graph, coords, &[])
}

/// [`simulate_symmetric`] with per-device schedule claims forwarded to the
/// certifier (claims must be class-uniform for a device to fold).
pub fn simulate_symmetric_with_claims(
    graph: &TaskGraph,
    coords: &[DeviceCoord],
    claims: &[(u32, String)],
) -> Result<FoldedRun, OptimusError> {
    let outcome = certify_symmetry_with_claims(graph, coords, claims);
    let full = |certificate: Option<SymmetryCertificate>, report: LintReport| {
        simulate(graph)
            .map(|result| FoldedRun {
                result,
                certificate,
                report,
                stats: None,
            })
            .map_err(|e| OptimusError::Substrate(e.to_string()))
    };
    match outcome.certificate {
        Some(cert) if cert.covers(graph) && cert.devices_folded() > 0 => {
            match simulate_folded(graph, &cert.fold_plan()) {
                Ok((result, stats)) => Ok(FoldedRun {
                    result,
                    certificate: Some(cert),
                    report: outcome.report,
                    stats: Some(stats),
                }),
                // A stale/mismatched certificate is a fallback, not a
                // failure: the full engine remains authoritative.
                Err(SimError::Fold { .. }) => full(Some(cert), outcome.report),
                Err(e) => Err(OptimusError::Substrate(e.to_string())),
            }
        }
        certificate => full(certificate, outcome.report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_pipeline::{lower, one_f_one_b, PipelineSpec, StageSpec, TimedKernel};
    use optimus_sim::Stream;

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
    fn folded_cluster_matches_full_cluster_bit_for_bit() {
        let base = lowered_graph(2, 4);
        let cluster = expand_cluster(&base, 2, 2);
        let run = simulate_symmetric(&cluster.graph, &cluster.coords).unwrap();
        assert!(run.folded(), "{}", run.report);
        assert!(run.report.is_clean(), "{}", run.report);
        let full = simulate(&cluster.graph).unwrap();
        assert_eq!(run.result.spans(), full.spans());
        assert_eq!(run.result.makespan(), full.makespan());
        let summary = run.summary(cluster.graph.num_devices());
        assert_eq!(summary.devices_simulated, 2, "one representative column");
        assert!(summary.fold_factor() > 3.9);
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

    #[test]
    fn straggler_falls_back_to_partial_fold_with_identical_result() {
        let base = lowered_graph(2, 3);
        let cluster = expand_cluster(&base, 2, 2);
        let victim = cluster.device(0, 1, 1);
        let faulted = cluster.graph.with_durations(|t| {
            if t.device == victim && t.stream == Stream::Compute {
                DurNs(t.duration.0 * 3)
            } else {
                t.duration
            }
        });
        let run = simulate_symmetric(&faulted, &cluster.coords).unwrap();
        assert!(
            run.report.has(optimus_lint::DiagCode::SymmetryBroken),
            "{}",
            run.report
        );
        assert!(!run.report.has_errors());
        let full = simulate(&faulted).unwrap();
        assert_eq!(run.result.spans(), full.spans());
        assert_eq!(run.result.makespan(), full.makespan());
    }

    #[test]
    fn trivial_grid_skips_folding() {
        let base = lowered_graph(2, 3);
        let cluster = expand_cluster(&base, 1, 1);
        let run = simulate_symmetric(&cluster.graph, &cluster.coords).unwrap();
        assert!(!run.folded(), "1×1 grid has nothing to fold");
        let direct = simulate(&base).unwrap();
        assert_eq!(run.result.makespan(), direct.makespan());
    }
}
