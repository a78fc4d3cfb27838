//! Deterministic fault injection: rewriting a [`TaskGraph`] (and the
//! topology behind a collective cost model) according to a set of
//! [`FaultScenario`]s.
//!
//! Injection is a pure function of `(graph, topology, scenarios, seed)`:
//! random draws come from `optimus-detrand` streams keyed by the model seed
//! and a per-scenario salt, consumed in task-id order. The same model applied
//! to the same graph therefore yields bit-identical faulted graphs on every
//! platform — the property the fault-sim determinism tests pin down.
//!
//! Scenario effects compose commutatively: multiplicative slowdowns multiply,
//! stall/restart pauses add, and fail-stop targeting always reads the
//! *unperturbed* timeline, so the scenario list order never matters.

use optimus_cluster::{ClusterTopology, DurNs, LinkClass, TimeNs};
use optimus_detrand as rand;
use optimus_sim::{simulate, Stream, Task, TaskGraph, TaskKind};
use rand::{Rng, RngExt, SeedableRng};

use crate::error::FaultError;
use crate::scenario::FaultScenario;

/// Per-scenario salts so each scenario draws from an independent stream of
/// the model seed (adding a scenario never shifts another scenario's draws).
const JITTER_SALT: u64 = 0x4A49_5454_4552; // "JITTER"
const STALL_SALT: u64 = 0x5354_414C_4C53; // "STALLS"

/// One recorded fault occurrence, for trace annotation and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Scenario label (stable, machine-friendly).
    pub scenario: &'static str,
    /// Affected device, when the fault is device-scoped.
    pub device: Option<u32>,
    /// Instant the fault takes effect on the simulation clock.
    pub at: TimeNs,
    /// Human-readable description (affected task counts, factors).
    pub detail: String,
}

/// The faulted task graph plus the event log describing what was injected.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The rewritten graph, ready for [`optimus_sim::simulate`].
    pub graph: TaskGraph,
    /// One event per scenario occurrence.
    pub events: Vec<FaultEvent>,
}

impl Injection {
    /// Statically lints the faulted graph. Fault injection rewrites
    /// durations and (for fail-stop) topology-adjacent structure, so every
    /// injection is expected to lint clean — a report with errors means the
    /// rewrite itself corrupted the graph, not that the fault slowed it
    /// down.
    pub fn lint(&self) -> optimus_lint::LintReport {
        optimus_lint::lint_graph(&self.graph)
    }
}

/// A seeded set of fault scenarios applied together to one step.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    scenarios: Vec<FaultScenario>,
    seed: u64,
}

impl FaultModel {
    /// Creates an empty model; injection with no scenarios is the identity.
    pub fn new(seed: u64) -> FaultModel {
        FaultModel {
            scenarios: Vec::new(),
            seed,
        }
    }

    /// Adds a scenario, validating its parameters.
    pub fn with(mut self, scenario: FaultScenario) -> Result<FaultModel, FaultError> {
        scenario.validate()?;
        self.scenarios.push(scenario);
        Ok(self)
    }

    /// The model seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured scenarios.
    pub fn scenarios(&self) -> &[FaultScenario] {
        &self.scenarios
    }

    /// True when every scenario can only slow tasks down, so the faulted
    /// makespan is guaranteed `>=` the unperturbed makespan.
    pub fn is_degrading(&self) -> bool {
        self.scenarios.iter().all(FaultScenario::is_degrading)
    }

    /// Rewrites the graph under every scenario.
    ///
    /// `topo` resolves which link class carries each communication stream
    /// (TP collectives ride NVLink; pipeline P2P and DP collectives ride
    /// RDMA on multi-node clusters and NVLink inside a single server).
    pub fn inject(
        &self,
        graph: &TaskGraph,
        topo: &ClusterTopology,
    ) -> Result<Injection, FaultError> {
        self.inject_inner(graph, topo, false)
    }

    /// Like [`inject`](Self::inject), but for evaluating a *fault-aware
    /// re-planned* graph under the true fault, assuming the re-plan already
    /// folded in what it could price:
    ///
    /// * degraded links were priced by a cost model over
    ///   [`degrade_topology`](Self::degrade_topology) — so
    ///   [`FaultScenario::DegradedLink`] is skipped here;
    /// * encoder work (compute and TP collectives) was globally scaled by
    ///   [`compute_scale`](Self::compute_scale) via the scheduler's
    ///   per-microbatch cost scales — so encoder durations are *rescaled*
    ///   from that pessimistic global factor to the true per-device
    ///   slowdown (profiled speed off the straggler device, `slowdown`× on
    ///   it; TP collectives are never slowed by a compute straggler).
    ///
    /// Everything else — straggler slowdown of LLM kernels, jitter, stalls,
    /// fail-stop — applies exactly as in [`inject`](Self::inject).
    pub fn inject_residual(
        &self,
        graph: &TaskGraph,
        topo: &ClusterTopology,
    ) -> Result<Injection, FaultError> {
        self.inject_inner(graph, topo, true)
    }

    fn inject_inner(
        &self,
        graph: &TaskGraph,
        topo: &ClusterTopology,
        residual: bool,
    ) -> Result<Injection, FaultError> {
        let n = graph.len();
        let mut mult = vec![1.0f64; n];
        let mut add = vec![0u64; n];
        let mut events = Vec::with_capacity(self.scenarios.len());
        // The unperturbed timeline, computed at most once (fail-stop only).
        let mut baseline: Option<Vec<(TimeNs, TimeNs)>> = None;

        // Residual evaluation: the graph carries encoder durations already
        // folded by the worst straggler slowdown; divide that back out so the
        // straggler arm below re-applies the *true* per-device factor.
        let folded = if residual { self.compute_scale() } else { 1.0 };
        if folded > 1.0 {
            for (i, t) in graph.tasks().iter().enumerate() {
                if t.kind.is_encoder_compute() || t.kind == TaskKind::EncTpComm {
                    mult[i] /= folded;
                }
            }
        }

        for scenario in &self.scenarios {
            scenario.validate()?;
            match *scenario {
                FaultScenario::KernelJitter { eps } => {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ JITTER_SALT);
                    for (i, _t) in graph.tasks().iter().enumerate() {
                        mult[i] *= 1.0 + rng.random_range(-eps..=eps);
                    }
                    events.push(FaultEvent {
                        scenario: scenario.label(),
                        device: None,
                        at: TimeNs::ZERO,
                        detail: format!("eps {eps:.3} over {n} tasks"),
                    });
                }
                FaultScenario::StragglerDevice { device, slowdown } => {
                    let mut hit = 0usize;
                    for (i, t) in graph.tasks().iter().enumerate() {
                        if t.device == device && t.stream == Stream::Compute {
                            mult[i] *= slowdown;
                            hit += 1;
                        }
                    }
                    events.push(FaultEvent {
                        scenario: scenario.label(),
                        device: Some(device),
                        at: TimeNs::ZERO,
                        detail: format!("slowdown {slowdown:.2}x on {hit} compute tasks"),
                    });
                }
                FaultScenario::DegradedLink {
                    class,
                    bandwidth_factor,
                    latency_factor,
                } => {
                    if residual {
                        // Already priced into the re-planned graph by the
                        // degraded collective cost model.
                        continue;
                    }
                    let factor =
                        FaultScenario::link_duration_factor(bandwidth_factor, latency_factor);
                    let mut hit = 0usize;
                    for (i, t) in graph.tasks().iter().enumerate() {
                        if stream_link_class(t, topo) == Some(class) {
                            mult[i] *= factor;
                            hit += 1;
                        }
                    }
                    events.push(FaultEvent {
                        scenario: scenario.label(),
                        device: None,
                        at: TimeNs::ZERO,
                        detail: format!(
                            "bw x{bandwidth_factor:.2}, lat x{latency_factor:.2} \
                             ({factor:.2}x) on {hit} comm tasks"
                        ),
                    });
                }
                FaultScenario::TransientStalls {
                    prob,
                    stall,
                    device,
                } => {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ STALL_SALT);
                    let mut hit = 0usize;
                    for (i, t) in graph.tasks().iter().enumerate() {
                        // Draw for every task so adding a device filter only
                        // masks effects, never re-aligns the stream.
                        let u = rng.next_f64();
                        if device.is_some_and(|d| d != t.device) {
                            continue;
                        }
                        if u < prob {
                            add[i] += stall.0;
                            hit += 1;
                        }
                    }
                    events.push(FaultEvent {
                        scenario: scenario.label(),
                        device,
                        at: TimeNs::ZERO,
                        detail: format!("{hit} stalls of {stall} (p={prob:.3})"),
                    });
                }
                FaultScenario::FailStop {
                    device,
                    at,
                    restart,
                }
                | FaultScenario::DeviceLoss {
                    device,
                    at,
                    repair: restart,
                } => {
                    if baseline.is_none() {
                        let r = simulate(graph).map_err(|e| FaultError::Sim(e.to_string()))?;
                        baseline = Some(r.spans().iter().map(|s| (s.start, s.end)).collect());
                    }
                    let spans = baseline.as_ref().unwrap();
                    // The task running on (or next queued for) the failing
                    // device at the failure instant absorbs the restart pause.
                    let target = graph
                        .tasks()
                        .iter()
                        .filter(|t| t.device == device && spans[t.id.index()].1 > at)
                        .min_by_key(|t| (spans[t.id.index()].0, t.id));
                    match target {
                        Some(t) => {
                            add[t.id.index()] += restart.0;
                            events.push(FaultEvent {
                                scenario: scenario.label(),
                                device: Some(device),
                                at,
                                detail: format!("restart {restart} absorbed by `{}`", t.label),
                            });
                        }
                        None => events.push(FaultEvent {
                            scenario: scenario.label(),
                            device: Some(device),
                            at,
                            detail: "device already idle; no effect".into(),
                        }),
                    }
                }
            }
        }

        let graph = graph.with_durations(|t| {
            let i = t.id.index();
            DurNs(((t.duration.0 as f64 * mult[i]).round() as u64) + add[i])
        });
        Ok(Injection { graph, events })
    }

    /// The topology with every [`FaultScenario::DegradedLink`] applied —
    /// feed this to a rebuilt collective cost model so a re-planner prices
    /// communication under the fault.
    pub fn degrade_topology(&self, topo: &ClusterTopology) -> ClusterTopology {
        let mut out = topo.clone();
        for scenario in &self.scenarios {
            if let FaultScenario::DegradedLink {
                class,
                bandwidth_factor,
                latency_factor,
            } = *scenario
            {
                let degraded = out
                    .link_profile(class)
                    .degraded(bandwidth_factor, latency_factor);
                out = out.with_link_profile(class, degraded);
            }
        }
        out
    }

    /// Worst compute slowdown across straggler scenarios (`1.0` when none):
    /// the factor a re-planner should fold into its compute cost scales.
    pub fn compute_scale(&self) -> f64 {
        self.scenarios
            .iter()
            .filter_map(|s| match s {
                FaultScenario::StragglerDevice { slowdown, .. } => Some(*slowdown),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Worst jitter amplitude across scenarios (`0.0` when none): the
    /// bubble-margin a re-planner should reserve against fluctuation.
    pub fn jitter_margin(&self) -> f64 {
        self.scenarios
            .iter()
            .filter_map(|s| match s {
                FaultScenario::KernelJitter { eps } => Some(*eps),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// The link class carrying a task, or `None` for compute.
///
/// TP collectives always ride NVLink (plans keep TP groups intra-node);
/// pipeline P2P and DP collectives cross nodes whenever the cluster has
/// more than one, and encoder↔LLM transfers stay on the faster class.
fn stream_link_class(t: &Task, topo: &ClusterTopology) -> Option<LinkClass> {
    let multi_node = topo.num_nodes > 1;
    match t.stream {
        Stream::Compute => None,
        Stream::TpComm | Stream::EncP2p => Some(LinkClass::NvLink),
        Stream::P2p | Stream::DpComm => Some(if multi_node {
            LinkClass::Rdma
        } else {
            LinkClass::NvLink
        }),
    }
}

/// Uniform i.i.d. duration jitter — the simplest fault scenario, kept as a
/// free function because `optimus-core`'s jitter study perturbs one graph
/// per sample with a per-sample seed.
pub fn perturb_uniform(graph: &TaskGraph, eps: f64, seed: u64) -> Result<TaskGraph, FaultError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scenario = FaultScenario::KernelJitter { eps };
    scenario.validate()?;
    Ok(graph.with_scaled_durations(|_| 1.0 + rng.random_range(-eps..=eps)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_sim::TaskKind;

    fn topo() -> ClusterTopology {
        ClusterTopology::hopper_cluster(16).unwrap()
    }

    /// A two-node pipeline-ish graph exercising every stream.
    fn sample_graph() -> TaskGraph {
        let mut g = TaskGraph::new(16);
        let mut prev = None;
        for d in 0..4u32 {
            let dev = d * 4; // spread across both nodes
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            let k = g.push(
                "fwd",
                dev,
                Stream::Compute,
                DurNs(10_000),
                TaskKind::Generic,
                deps,
            );
            let c = g.push(
                "ag",
                dev,
                Stream::TpComm,
                DurNs(3_000),
                TaskKind::LlmTpComm,
                vec![k],
            );
            let p = g.push(
                "send",
                dev,
                Stream::P2p,
                DurNs(2_000),
                TaskKind::PpFwdTransfer { microbatch: 0 },
                vec![c],
            );
            prev = Some(p);
        }
        g.push(
            "rs",
            0,
            Stream::DpComm,
            DurNs(5_000),
            TaskKind::DpReduceScatter,
            vec![prev.unwrap()],
        );
        g
    }

    fn makespan(g: &TaskGraph) -> u64 {
        simulate(g).unwrap().makespan().0
    }

    /// Like [`sample_graph`] but with every active device running the same
    /// DP collective sequence, so the derived OPT003 spec is consistent.
    fn dp_consistent_graph() -> TaskGraph {
        let mut g = TaskGraph::new(16);
        let mut prev = None;
        for d in 0..4u32 {
            let dev = d * 4;
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            let k = g.push(
                "fwd",
                dev,
                Stream::Compute,
                DurNs(10_000),
                TaskKind::Generic,
                deps,
            );
            let c = g.push(
                "ag",
                dev,
                Stream::TpComm,
                DurNs(3_000),
                TaskKind::LlmTpComm,
                vec![k],
            );
            let p = g.push(
                "send",
                dev,
                Stream::P2p,
                DurNs(2_000),
                TaskKind::PpFwdTransfer { microbatch: 0 },
                vec![c],
            );
            g.push(
                "rs",
                dev,
                Stream::DpComm,
                DurNs(5_000),
                TaskKind::DpReduceScatter,
                vec![p],
            );
            prev = Some(p);
        }
        g
    }

    #[test]
    fn injections_lint_clean_under_every_scenario() {
        let g = dp_consistent_graph();
        assert!(optimus_lint::lint_graph(&g).is_clean());
        let scenarios = [
            FaultScenario::KernelJitter { eps: 0.1 },
            FaultScenario::StragglerDevice {
                device: 4,
                slowdown: 2.0,
            },
            FaultScenario::DegradedLink {
                class: LinkClass::Rdma,
                bandwidth_factor: 0.5,
                latency_factor: 2.0,
            },
            FaultScenario::TransientStalls {
                prob: 0.5,
                stall: DurNs(1_000),
                device: None,
            },
            FaultScenario::FailStop {
                device: 8,
                at: TimeNs(12_000),
                restart: DurNs(50_000),
            },
        ];
        for s in scenarios {
            let label = format!("{s:?}");
            let inj = FaultModel::new(11)
                .with(s)
                .unwrap()
                .inject(&g, &topo())
                .unwrap();
            let report = inj.lint();
            assert!(report.is_clean(), "{label}: {}", report.render());
            // The faulted graph still executes.
            simulate(&inj.graph).unwrap();
        }
    }

    #[test]
    fn empty_model_is_identity() {
        let g = sample_graph();
        let inj = FaultModel::new(7).inject(&g, &topo()).unwrap();
        assert_eq!(makespan(&inj.graph), makespan(&g));
        assert!(inj.events.is_empty());
    }

    #[test]
    fn same_seed_same_faulted_graph() {
        let g = sample_graph();
        let model = |seed| {
            FaultModel::new(seed)
                .with(FaultScenario::KernelJitter { eps: 0.2 })
                .unwrap()
                .with(FaultScenario::TransientStalls {
                    prob: 0.3,
                    stall: DurNs(1_000),
                    device: None,
                })
                .unwrap()
        };
        let a = model(42).inject(&g, &topo()).unwrap();
        let b = model(42).inject(&g, &topo()).unwrap();
        for (ta, tb) in a.graph.tasks().iter().zip(b.graph.tasks()) {
            assert_eq!(ta.duration, tb.duration);
        }
        let c = model(43).inject(&g, &topo()).unwrap();
        assert!(a
            .graph
            .tasks()
            .iter()
            .zip(c.graph.tasks())
            .any(|(x, y)| x.duration != y.duration));
    }

    #[test]
    fn straggler_slows_only_its_device_compute() {
        let g = sample_graph();
        let inj = FaultModel::new(0)
            .with(FaultScenario::StragglerDevice {
                device: 0,
                slowdown: 2.0,
            })
            .unwrap()
            .inject(&g, &topo())
            .unwrap();
        for (t, f) in g.tasks().iter().zip(inj.graph.tasks()) {
            if t.device == 0 && t.stream == Stream::Compute {
                assert_eq!(f.duration.0, t.duration.0 * 2);
            } else {
                assert_eq!(f.duration, t.duration);
            }
        }
        assert!(makespan(&inj.graph) > makespan(&g));
    }

    #[test]
    fn degraded_rdma_hits_internode_streams() {
        let g = sample_graph();
        let inj = FaultModel::new(0)
            .with(FaultScenario::DegradedLink {
                class: LinkClass::Rdma,
                bandwidth_factor: 0.5,
                latency_factor: 1.0,
            })
            .unwrap()
            .inject(&g, &topo())
            .unwrap();
        for (t, f) in g.tasks().iter().zip(inj.graph.tasks()) {
            match t.stream {
                Stream::P2p | Stream::DpComm => assert_eq!(f.duration.0, t.duration.0 * 2),
                _ => assert_eq!(f.duration, t.duration),
            }
        }
    }

    #[test]
    fn degraded_nvlink_hits_tp_comm_and_single_node_p2p() {
        let g = {
            let mut g = TaskGraph::new(2);
            g.push(
                "k",
                0,
                Stream::Compute,
                DurNs(100),
                TaskKind::Generic,
                vec![],
            );
            g.push(
                "ag",
                0,
                Stream::TpComm,
                DurNs(100),
                TaskKind::LlmTpComm,
                vec![],
            );
            g.push(
                "send",
                1,
                Stream::P2p,
                DurNs(100),
                TaskKind::PpFwdTransfer { microbatch: 0 },
                vec![],
            );
            g
        };
        let one_node = ClusterTopology::hopper_cluster(2).unwrap();
        let inj = FaultModel::new(0)
            .with(FaultScenario::DegradedLink {
                class: LinkClass::NvLink,
                bandwidth_factor: 0.25,
                latency_factor: 1.0,
            })
            .unwrap()
            .inject(&g, &one_node)
            .unwrap();
        let durs: Vec<u64> = inj.graph.tasks().iter().map(|t| t.duration.0).collect();
        // Compute untouched; TP and (single-node) P2P degraded 4x.
        assert_eq!(durs, vec![100, 400, 400]);
    }

    #[test]
    fn fail_stop_extends_the_interrupted_task() {
        let g = sample_graph();
        let base = simulate(&g).unwrap();
        // Fail device 4 (second pipeline stage) mid-flight.
        let mid = base.span(g.tasks()[3].id).start; // its first compute task
        let inj = FaultModel::new(0)
            .with(FaultScenario::FailStop {
                device: 4,
                at: mid,
                restart: DurNs(50_000),
            })
            .unwrap()
            .inject(&g, &topo())
            .unwrap();
        assert_eq!(makespan(&inj.graph), makespan(&g) + 50_000);
        assert!(inj.events[0].detail.contains("restart"));
    }

    #[test]
    fn fail_stop_after_device_idle_is_noop() {
        let g = sample_graph();
        let end = simulate(&g).unwrap().makespan();
        let inj = FaultModel::new(0)
            .with(FaultScenario::FailStop {
                device: 4,
                at: end + DurNs(1),
                restart: DurNs(50_000),
            })
            .unwrap()
            .inject(&g, &topo())
            .unwrap();
        assert_eq!(makespan(&inj.graph), end.0);
        assert!(inj.events[0].detail.contains("no effect"));
    }

    #[test]
    fn degrading_models_never_shrink_makespan() {
        let g = sample_graph();
        let base = makespan(&g);
        let scenarios = [
            FaultScenario::StragglerDevice {
                device: 8,
                slowdown: 1.7,
            },
            FaultScenario::DegradedLink {
                class: LinkClass::Rdma,
                bandwidth_factor: 0.3,
                latency_factor: 2.0,
            },
            FaultScenario::TransientStalls {
                prob: 0.5,
                stall: DurNs(2_000),
                device: Some(4),
            },
            FaultScenario::FailStop {
                device: 0,
                at: TimeNs(5_000),
                restart: DurNs(9_000),
            },
        ];
        for s in scenarios {
            let m = FaultModel::new(11).with(s).unwrap();
            assert!(m.is_degrading());
            let inj = m.inject(&g, &topo()).unwrap();
            assert!(
                makespan(&inj.graph) >= base,
                "{} shrank the makespan",
                s.label()
            );
        }
    }

    #[test]
    fn residual_rescales_folded_scenarios() {
        // Durations as a re-plan would carry them: encoder work (compute and
        // EncTpComm) pre-scaled by the folded straggler factor 2.0, comm
        // priced by the degraded cost model.
        let enc = |mb| TaskKind::EncFwd {
            pipeline: 0,
            stage: 0,
            microbatch: mb,
        };
        let mut g = TaskGraph::new(8);
        g.push("enc0", 0, Stream::Compute, DurNs(1_000), enc(0), vec![]);
        g.push(
            "llm",
            0,
            Stream::Compute,
            DurNs(1_000),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "ag",
            0,
            Stream::TpComm,
            DurNs(1_000),
            TaskKind::LlmTpComm,
            vec![],
        );
        g.push("enc1", 1, Stream::Compute, DurNs(1_000), enc(1), vec![]);
        g.push(
            "etp",
            1,
            Stream::TpComm,
            DurNs(1_000),
            TaskKind::EncTpComm,
            vec![],
        );
        let m = FaultModel::new(0)
            .with(FaultScenario::StragglerDevice {
                device: 0,
                slowdown: 2.0,
            })
            .unwrap()
            .with(FaultScenario::DegradedLink {
                class: LinkClass::NvLink,
                bandwidth_factor: 0.5,
                latency_factor: 1.0,
            })
            .unwrap();
        let topo = ClusterTopology::hopper_cluster(8).unwrap();
        let full = m.inject(&g, &topo).unwrap();
        let durs: Vec<u64> = full.graph.tasks().iter().map(|t| t.duration.0).collect();
        assert_eq!(durs, vec![2_000, 2_000, 2_000, 1_000, 2_000]);
        let res = m.inject_residual(&g, &topo).unwrap();
        let durs: Vec<u64> = res.graph.tasks().iter().map(|t| t.duration.0).collect();
        // enc0 sits *on* the straggler: the folded 2x is the true factor
        // (÷2 then ×2). LLM compute on the straggler still slows 2x. The
        // degraded LlmTpComm is already priced. enc1 and the encoder TP
        // collective run off the straggler: the pessimistic fold is undone.
        assert_eq!(durs, vec![1_000, 2_000, 1_000, 500, 500]);
    }

    #[test]
    fn degrade_topology_applies_factors() {
        let t = topo();
        let m = FaultModel::new(0)
            .with(FaultScenario::DegradedLink {
                class: LinkClass::Rdma,
                bandwidth_factor: 0.5,
                latency_factor: 3.0,
            })
            .unwrap();
        let d = m.degrade_topology(&t);
        assert_eq!(d.rdma.bandwidth, t.rdma.bandwidth * 0.5);
        assert_eq!(d.rdma.latency, t.rdma.latency * 3.0);
        assert_eq!(d.nvlink, t.nvlink);
    }

    #[test]
    fn replanning_knobs_summarise_scenarios() {
        let m = FaultModel::new(0)
            .with(FaultScenario::StragglerDevice {
                device: 1,
                slowdown: 1.4,
            })
            .unwrap()
            .with(FaultScenario::StragglerDevice {
                device: 2,
                slowdown: 1.9,
            })
            .unwrap()
            .with(FaultScenario::KernelJitter { eps: 0.07 })
            .unwrap();
        assert_eq!(m.compute_scale(), 1.9);
        assert_eq!(m.jitter_margin(), 0.07);
        assert!(!m.is_degrading());
    }

    #[test]
    fn perturb_uniform_is_seed_deterministic() {
        let g = sample_graph();
        let a = perturb_uniform(&g, 0.1, 5).unwrap();
        let b = perturb_uniform(&g, 0.1, 5).unwrap();
        for (x, y) in a.tasks().iter().zip(b.tasks()) {
            assert_eq!(x.duration, y.duration);
        }
        assert!(perturb_uniform(&g, 1.2, 5).is_err());
    }
}
