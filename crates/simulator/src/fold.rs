//! Certificate-driven folded simulation.
//!
//! In a 3D-parallel layout most devices are *rank-symmetric*: every device
//! of one (PP stage) equivalence class replays the same per-stream task
//! pattern with the same durations, so simulating all of them walks the
//! same timeline `tp × dp` times over. Folded simulation executes the
//! engine over one representative device per class and
//! replicates the representative's spans to every class member, producing a
//! full-size [`SimResult`] that is bit-identical to [`simulate`] on the
//! whole graph — *provided the fold plan is sound*.
//!
//! Soundness is not this module's job: a [`FoldPlan`] is supposed to come
//! from a `SymmetryCertificate` issued by the static certifier in
//! `optimus-lint` (`certify_symmetry`), which proves class-wide timeline
//! isomorphism before any folding happens. This module re-checks only the
//! *structural* facts its own timing computation relies on — queue shapes
//! and durations match position-wise, and no dependency edge folds onto its
//! own dependent — and refuses to fold ([`SimError::Fold`]) otherwise, so a
//! forged or stale plan degrades loudly instead of silently mis-simulating.
//!
//! The task-level witness renaming is *positional*: the `i`-th task of a
//! member device's `(device, stream)` FIFO queue maps to the `i`-th task of
//! the representative's queue for the same stream. The certifier verifies
//! that this renaming is a timeline isomorphism; the fold engine merely
//! replays it.

use optimus_cluster::{DurNs, TimeNs};

use crate::engine::{simulate, SimResult, TaskSpan};
use crate::error::SimError;
use crate::task::{Stream, TaskGraph, TaskId};

/// A device-folding plan: for every device, the representative device whose
/// timeline it mirrors. Representatives map to themselves.
///
/// This is the minimal bridge between the static symmetry certifier (which
/// lives above this crate) and the engine: the certifier's task-level
/// witness renaming is recomputed here from queue positions, so the plan
/// itself stays a flat `device → representative` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldPlan {
    /// `rep_of[d]` is the representative device of device `d`.
    pub rep_of: Vec<u32>,
}

impl FoldPlan {
    /// The identity plan: every device is its own representative (folded
    /// simulation degenerates to full simulation).
    pub fn identity(num_devices: u32) -> FoldPlan {
        FoldPlan {
            rep_of: (0..num_devices).collect(),
        }
    }

    /// True when no device folds onto another.
    pub fn is_identity(&self) -> bool {
        self.rep_of.iter().enumerate().all(|(d, &r)| d as u32 == r)
    }

    /// Number of devices the plan covers.
    pub fn num_devices(&self) -> u32 {
        self.rep_of.len() as u32
    }

    /// Number of representative devices (devices actually simulated).
    pub fn num_representatives(&self) -> usize {
        self.rep_of
            .iter()
            .enumerate()
            .filter(|&(d, &r)| d as u32 == r)
            .count()
    }

    fn validate(&self, graph: &TaskGraph) -> Result<(), SimError> {
        if self.rep_of.len() != graph.num_devices() as usize {
            return Err(SimError::Fold {
                reason: format!(
                    "fold plan covers {} devices but the graph has {}",
                    self.rep_of.len(),
                    graph.num_devices()
                ),
            });
        }
        for (d, &r) in self.rep_of.iter().enumerate() {
            if r as usize >= self.rep_of.len() {
                return Err(SimError::Fold {
                    reason: format!("device {d} folds onto unknown device {r}"),
                });
            }
            if self.rep_of[r as usize] != r {
                return Err(SimError::Fold {
                    reason: format!("device {d} folds onto {r}, which is not a representative"),
                });
            }
        }
        Ok(())
    }
}

/// Size accounting of one folded simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldStats {
    /// Devices in the full graph.
    pub devices: u32,
    /// Representative devices actually simulated.
    pub devices_simulated: usize,
    /// Tasks in the full graph.
    pub tasks: usize,
    /// Tasks actually simulated.
    pub tasks_simulated: usize,
}

impl FoldStats {
    /// Device-level fold factor (`devices / devices_simulated`).
    pub fn fold_factor(&self) -> f64 {
        if self.devices_simulated == 0 {
            1.0
        } else {
            f64::from(self.devices) / self.devices_simulated as f64
        }
    }
}

fn resource_index(device: u32, stream: Stream) -> usize {
    device as usize * Stream::COUNT + stream.index()
}

/// Simulates only the representative devices of `plan` and replicates their
/// timelines to every folded device, returning a full-size [`SimResult`].
///
/// For a sound plan (one derived from a valid symmetry certificate) the
/// result is bit-identical to [`simulate`] on the whole graph: same spans,
/// same makespan.
///
/// # Errors
///
/// * [`SimError::Fold`] when the plan is structurally unusable: a folded
///   device's queue shape or task durations diverge from its
///   representative's, or a dependency edge maps onto its own dependent
///   (an asymmetric collective). Callers are expected to fall back to full
///   simulation.
/// * [`SimError::Deadlock`] when the reduced graph deadlocks — the full
///   graph would too.
pub fn simulate_folded(
    graph: &TaskGraph,
    plan: &FoldPlan,
) -> Result<(SimResult, FoldStats), SimError> {
    plan.validate(graph)?;

    // Per-(device, stream) queue positions for every task, with the FIFO
    // queues themselves materialized only for representative devices — the
    // only queues the positional renaming ever indexes into.
    let n_res = graph.num_devices() as usize * Stream::COUNT;
    let mut counters = vec![0u32; n_res];
    let mut queues: Vec<Vec<TaskId>> = vec![Vec::new(); n_res];
    let mut pos = vec![0u32; graph.len()];
    for t in graph.tasks() {
        let r = resource_index(t.device, t.stream);
        pos[t.id.index()] = counters[r];
        counters[r] += 1;
        if plan.rep_of[t.device as usize] == t.device {
            queues[r].push(t.id);
        }
    }

    // Positional witness renaming: task → image on its representative.
    // Cluster-expanded graphs list the copies of one base task consecutively,
    // so a one-entry cache resolves most images without touching the
    // representative queue again.
    let mut image = vec![TaskId(0); graph.len()];
    let mut last: Option<(usize, u32, TaskId, DurNs)> = None;
    for t in graph.tasks() {
        let rep = plan.rep_of[t.device as usize];
        if rep == t.device {
            image[t.id.index()] = t.id;
            continue;
        }
        let r = resource_index(rep, t.stream);
        let p = pos[t.id.index()];
        if let Some((lr, lp, img, dur)) = last {
            if lr == r && lp == p && dur == t.duration {
                image[t.id.index()] = img;
                continue;
            }
        }
        let rep_queue = &queues[r];
        let Some(&img) = rep_queue.get(p as usize) else {
            return Err(SimError::Fold {
                reason: format!(
                    "device {} has {} tasks on stream {:?} position {} but its \
                     representative {} has a shorter queue",
                    t.device,
                    counters[resource_index(t.device, t.stream)],
                    t.stream,
                    pos[t.id.index()],
                    rep
                ),
            });
        };
        if graph.task(img).duration != t.duration {
            return Err(SimError::Fold {
                reason: format!(
                    "task `{}` on device {} runs {:?} but its representative image \
                     `{}` on device {} runs {:?}",
                    t.label,
                    t.device,
                    t.duration,
                    graph.task(img).label,
                    rep,
                    graph.task(img).duration
                ),
            });
        }
        image[t.id.index()] = img;
        last = Some((r, p, img, t.duration));
    }

    // Reduced graph: representative-device tasks only, dependencies remapped
    // through the witness renaming. Same device indices (non-representative
    // devices simply own no tasks), so resource semantics are unchanged.
    let mut reduced = TaskGraph::new(graph.num_devices());
    const UNMAPPED: u32 = u32::MAX;
    let mut reduced_id = vec![UNMAPPED; graph.len()];
    for t in graph.tasks() {
        if plan.rep_of[t.device as usize] == t.device {
            let id = reduced.push(t.label, t.device, t.stream, t.duration, t.kind, vec![]);
            reduced_id[t.id.index()] = id.0;
        }
    }
    for t in graph.tasks() {
        if plan.rep_of[t.device as usize] != t.device {
            continue;
        }
        let rt = TaskId(reduced_id[t.id.index()]);
        for &dep in &t.deps {
            let folded_dep = image[dep.index()];
            if folded_dep == t.id {
                return Err(SimError::Fold {
                    reason: format!(
                        "dependency `{}` of task `{}` on device {} folds onto its own \
                         dependent — asymmetric collective endpoints",
                        graph.task(dep).label,
                        t.label,
                        t.device
                    ),
                });
            }
            debug_assert_eq!(
                plan.rep_of[graph.task(folded_dep).device as usize],
                graph.task(folded_dep).device,
                "witness image must land on a representative device"
            );
            reduced.add_dep(rt, TaskId(reduced_id[folded_dep.index()]));
        }
    }

    let reduced_result = simulate(&reduced)?;

    // Replicate representative spans to every folded task. The makespan is
    // the reduced makespan: every folded span mirrors a representative span.
    let rep_spans: Vec<_> = (0..reduced.len())
        .map(|i| {
            let s = reduced_result.span(TaskId(i as u32));
            (s.start, s.end)
        })
        .collect();
    // Consecutive tasks overwhelmingly share an image (copies of one base
    // task), so cache the last resolved span.
    let mut last_span = (TaskId(u32::MAX), TimeNs::ZERO, TimeNs::ZERO);
    let spans: Vec<TaskSpan> = (0..graph.len())
        .map(|i| {
            let img = image[i];
            if img != last_span.0 {
                let (start, end) = rep_spans[reduced_id[img.index()] as usize];
                last_span = (img, start, end);
            }
            TaskSpan {
                task: TaskId(i as u32),
                start: last_span.1,
                end: last_span.2,
            }
        })
        .collect();
    let stats = FoldStats {
        devices: graph.num_devices(),
        devices_simulated: plan.num_representatives(),
        tasks: graph.len(),
        tasks_simulated: reduced.len(),
    };
    Ok((
        SimResult::from_parts(spans, reduced_result.makespan()),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use optimus_cluster::DurNs;

    /// Two identical replicas of a two-stage pipeline, tied together by a
    /// per-stage all-to-all reduce-scatter (every replica's collective
    /// depends on both replicas' compute).
    fn symmetric_pair() -> TaskGraph {
        let mut g = TaskGraph::new(4); // device = replica * 2 + stage
        let mut compute = Vec::new();
        for rep in 0..2u32 {
            for stage in 0..2u32 {
                let dev = rep * 2 + stage;
                let c = g.push(
                    "w",
                    dev,
                    Stream::Compute,
                    DurNs(100 + u64::from(stage) * 50),
                    TaskKind::Generic,
                    vec![],
                );
                compute.push(c);
            }
        }
        for rep in 0..2u32 {
            for stage in 0..2u32 {
                let dev = rep * 2 + stage;
                let deps = vec![compute[stage as usize], compute[(2 + stage) as usize]];
                g.push(
                    "rs",
                    dev,
                    Stream::DpComm,
                    DurNs(30),
                    TaskKind::DpReduceScatter,
                    deps,
                );
            }
        }
        g
    }

    fn pair_plan() -> FoldPlan {
        FoldPlan {
            rep_of: vec![0, 1, 0, 1],
        }
    }

    #[test]
    fn folded_matches_full_bit_for_bit() {
        let g = symmetric_pair();
        let full = simulate(&g).unwrap();
        let (folded, stats) = simulate_folded(&g, &pair_plan()).unwrap();
        assert_eq!(folded.makespan(), full.makespan());
        assert_eq!(folded.spans(), full.spans());
        assert_eq!(stats.devices_simulated, 2);
        assert_eq!(stats.tasks_simulated, 4);
        assert_eq!(stats.tasks, 8);
        assert!((stats.fold_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identity_plan_is_full_simulation() {
        let g = symmetric_pair();
        let plan = FoldPlan::identity(4);
        assert!(plan.is_identity());
        let full = simulate(&g).unwrap();
        let (folded, stats) = simulate_folded(&g, &plan).unwrap();
        assert_eq!(folded.spans(), full.spans());
        assert_eq!(stats.tasks_simulated, stats.tasks);
    }

    #[test]
    fn duration_divergence_refuses_to_fold() {
        let g = symmetric_pair().with_durations(|t| {
            if t.device == 2 && t.stream == Stream::Compute {
                DurNs(t.duration.0 * 3)
            } else {
                t.duration
            }
        });
        let err = simulate_folded(&g, &pair_plan()).unwrap_err();
        assert!(matches!(err, SimError::Fold { .. }), "{err}");
    }

    #[test]
    fn queue_shape_divergence_refuses_to_fold() {
        let mut g = symmetric_pair();
        g.push(
            "extra",
            2,
            Stream::Compute,
            DurNs(1),
            TaskKind::Generic,
            vec![],
        );
        let err = simulate_folded(&g, &pair_plan()).unwrap_err();
        assert!(matches!(err, SimError::Fold { .. }), "{err}");
    }

    #[test]
    fn non_representative_target_rejected() {
        let g = symmetric_pair();
        let plan = FoldPlan {
            rep_of: vec![0, 1, 3, 1], // 2 → 3, but 3 → 1
        };
        let err = simulate_folded(&g, &plan).unwrap_err();
        assert!(matches!(err, SimError::Fold { .. }), "{err}");
    }

    #[test]
    fn self_folding_edge_rejected() {
        // Device 1 folds onto device 0; an edge between queue-position peers
        // of the same class folds onto its own dependent.
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
            TaskKind::DpAllGather,
            vec![],
        );
        g.add_dep(a, b);
        let plan = FoldPlan { rep_of: vec![0, 0] };
        let err = simulate_folded(&g, &plan).unwrap_err();
        assert!(matches!(err, SimError::Fold { .. }), "{err}");
    }

    #[test]
    fn singleton_demotion_keeps_fold_sound() {
        // Device 2 is a straggler: demote it to its own representative; the
        // rest still folds and the result stays bit-identical to full.
        let g = symmetric_pair().with_durations(|t| {
            if t.device == 2 && t.stream == Stream::Compute {
                DurNs(t.duration.0 * 3)
            } else {
                t.duration
            }
        });
        // Stage-0 symmetry is broken (device 2 diverges, and device 0's
        // collective syncs with it), so both stage-0 devices are singletons;
        // stage-1 devices (1, 3) fold only if their timelines truly match —
        // they do not here (replica 1's reduce-scatter waits on the
        // straggler), so everything is singleton: identity fold.
        let plan = FoldPlan::identity(4);
        let full = simulate(&g).unwrap();
        let (folded, _) = simulate_folded(&g, &plan).unwrap();
        assert_eq!(folded.spans(), full.spans());
    }
}
