//! Differential test of the simulator and its slack analysis against
//! reference oracles.
//!
//! The oracles below are the original event-driven engine (a binary heap
//! of completion events plus a waiter map keyed by the first unmet
//! dependency) and the original latest-start analysis (per-task successor
//! lists walked in reverse start-time order), kept verbatim. Every input —
//! the golden layouts, fault-injected and jittered graphs, random DAGs,
//! zero-duration chains and deadlocking fixtures — must produce equal spans
//! and makespan, an equal `SimError::Deadlock { stuck, first_label }`, equal
//! latest starts, slack and critical path, and equal per-stream queues and
//! spans.
//!
//! One exception is a defect of the original analysis: its reverse
//! start-time order is not topological when a zero-duration task starts
//! together with a lower-id successor, and there it overstates slack. On
//! those inputs latest starts are checked against their defining recurrence.

use optimus::baselines::common::SystemContext;
use optimus::baselines::{megatron_balanced, megatron_lm};
use optimus::cluster::{DurNs, LinkClass, TimeNs};
use optimus::core::{lowered_schedule, run_optimus, OptimusConfig};
use optimus::faults::{FaultModel, FaultScenario};
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::pipeline::{
    gpipe, lower, one_f_one_b, simulate_pipeline, PipelineSpec, StageSpec, TimedKernel,
};
use optimus::sim::analysis::{critical_path, latest_start_times, slack};
use optimus::sim::{simulate, SimError, Stream, TaskGraph, TaskId, TaskKind};
use optimus_detrand::{rngs::StdRng, RngExt, SeedableRng};

/// The reference implementations.
mod oracle {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap, HashMap};

    use optimus::cluster::{DurNs, TimeNs};
    use optimus::sim::{SimError, SimResult, Stream, TaskGraph, TaskId, TaskSpan};

    fn resource_index(device: u32, stream: Stream) -> usize {
        device as usize * Stream::COUNT + stream.index()
    }

    struct EngineState<'g> {
        graph: &'g TaskGraph,
        queues: Vec<Vec<TaskId>>,
        cursor: Vec<usize>,
        free_at: Vec<TimeNs>,
        running: Vec<bool>,
        done: Vec<bool>,
        spans: Vec<TaskSpan>,
        waiters: HashMap<TaskId, Vec<usize>>,
        events: BinaryHeap<Reverse<(TimeNs, usize, TaskId)>>,
    }

    impl<'g> EngineState<'g> {
        fn new(graph: &'g TaskGraph) -> EngineState<'g> {
            let n_res = graph.num_devices() as usize * Stream::COUNT;
            let mut queues: Vec<Vec<TaskId>> = vec![Vec::new(); n_res];
            for t in graph.tasks() {
                queues[resource_index(t.device, t.stream)].push(t.id);
            }
            EngineState {
                graph,
                queues,
                cursor: vec![0; n_res],
                free_at: vec![TimeNs::ZERO; n_res],
                running: vec![false; n_res],
                done: vec![false; graph.len()],
                spans: vec![
                    TaskSpan {
                        task: TaskId(0),
                        start: TimeNs::ZERO,
                        end: TimeNs::ZERO
                    };
                    graph.len()
                ],
                waiters: HashMap::new(),
                events: BinaryHeap::new(),
            }
        }

        fn attempt_start(&mut self, r: usize, now: TimeNs) {
            if self.running[r] {
                return;
            }
            let Some(&head) = self.queues[r].get(self.cursor[r]) else {
                return;
            };
            let task = self.graph.task(head);
            if let Some(&unmet) = task.deps.iter().find(|d| !self.done[d.index()]) {
                let entry = self.waiters.entry(unmet).or_default();
                if !entry.contains(&r) {
                    entry.push(r);
                }
                return;
            }
            let start = now.max(self.free_at[r]);
            let end = start + task.duration;
            self.spans[head.index()] = TaskSpan {
                task: head,
                start,
                end,
            };
            self.free_at[r] = end;
            self.running[r] = true;
            self.events.push(Reverse((end, r, head)));
        }
    }

    /// The event-driven engine.
    pub fn simulate(graph: &TaskGraph) -> Result<SimResult, SimError> {
        let mut st = EngineState::new(graph);
        let n_res = st.queues.len();
        for r in 0..n_res {
            st.attempt_start(r, TimeNs::ZERO);
        }
        let mut makespan = TimeNs::ZERO;
        let mut executed = 0usize;
        while let Some(Reverse((now, r, task))) = st.events.pop() {
            st.done[task.index()] = true;
            executed += 1;
            makespan = makespan.max(now);
            st.running[r] = false;
            st.cursor[r] += 1;
            st.attempt_start(r, now);
            if let Some(blocked) = st.waiters.remove(&task) {
                for br in blocked {
                    st.attempt_start(br, now);
                }
            }
        }
        if executed != graph.len() {
            let stuck: Vec<TaskId> = (0..graph.len())
                .filter(|&i| !st.done[i])
                .map(|i| TaskId(i as u32))
                .collect();
            let first_label = graph.task(stuck[0]).label;
            return Err(SimError::Deadlock { stuck, first_label });
        }
        Ok(SimResult::from_parts(st.spans, makespan))
    }

    /// Per-stream queues by insertion order, keyed by (device, stream).
    pub fn stream_queues(graph: &TaskGraph) -> Vec<((u32, Stream), Vec<TaskId>)> {
        let mut queues: BTreeMap<(u32, usize), Vec<TaskId>> = BTreeMap::new();
        for t in graph.tasks() {
            queues
                .entry((t.device, t.stream.index()))
                .or_default()
                .push(t.id);
        }
        queues
            .into_iter()
            .map(|((dev, si), q)| ((dev, Stream::ALL[si]), q))
            .collect()
    }

    /// One resource's spans sorted by start time.
    pub fn stream_spans(
        result: &SimResult,
        graph: &TaskGraph,
        device: u32,
        stream: Stream,
    ) -> Vec<TaskSpan> {
        let mut v: Vec<TaskSpan> = graph
            .tasks()
            .iter()
            .filter(|t| t.device == device && t.stream == stream)
            .map(|t| result.span(t.id))
            .collect();
        v.sort_by_key(|s| (s.start, s.end));
        v
    }

    /// Dependency successors, then FIFO successors by start order.
    pub fn successors(graph: &TaskGraph, result: &SimResult) -> Vec<Vec<TaskId>> {
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); graph.len()];
        for t in graph.tasks() {
            for &d in &t.deps {
                succs[d.index()].push(t.id);
            }
        }
        for device in 0..graph.num_devices() {
            for stream in Stream::ALL {
                let spans = stream_spans(result, graph, device, stream);
                for w in spans.windows(2) {
                    succs[w[0].task.index()].push(w[1].task);
                }
            }
        }
        succs
    }

    /// The visit key of `latest_start_times`, visited in descending order.
    fn visit_key(result: &SimResult, id: TaskId) -> (TimeNs, TaskId) {
        (result.span(id).start, id)
    }

    /// Whether reverse start-time order visits every successor before its
    /// predecessor — false when a zero-duration task starts together with a
    /// lower-id successor, where `latest_start_times` below reads a latest
    /// start it has not computed yet.
    pub fn visit_order_is_topological(graph: &TaskGraph, result: &SimResult) -> bool {
        let succs = successors(graph, result);
        (0..graph.len()).all(|u| {
            let key = visit_key(result, TaskId(u as u32));
            succs[u].iter().all(|&v| visit_key(result, v) > key)
        })
    }

    /// Latest starts over successor lists, in reverse start-time order.
    pub fn latest_start_times(graph: &TaskGraph, result: &SimResult) -> Vec<TimeNs> {
        let n = graph.len();
        let makespan = result.makespan();
        let mut latest_finish = vec![makespan; n];
        let succs = successors(graph, result);
        let mut order: Vec<TaskId> = graph.tasks().iter().map(|t| t.id).collect();
        order.sort_by_key(|&id| Reverse(visit_key(result, id)));
        let mut latest_start = vec![makespan; n];
        for id in order {
            let i = id.index();
            let dur = graph.task(id).duration;
            for &s in &succs[i] {
                latest_finish[i] = latest_finish[i].min(latest_start[s.index()]);
            }
            latest_start[i] = latest_finish[i] - dur;
        }
        latest_start
    }

    /// Latest start minus actual start.
    pub fn slack(graph: &TaskGraph, result: &SimResult) -> Vec<DurNs> {
        let ls = latest_start_times(graph, result);
        graph
            .tasks()
            .iter()
            .map(|t| ls[t.id.index()].since(result.span(t.id).start))
            .collect()
    }

    /// Zero-slack chain walked back from the last-finishing critical task.
    pub fn critical_path(graph: &TaskGraph, result: &SimResult) -> Vec<TaskId> {
        let sl = slack(graph, result);
        let mut current = graph
            .tasks()
            .iter()
            .filter(|t| sl[t.id.index()].is_zero())
            .max_by_key(|t| (result.span(t.id).end, Reverse(t.id)))
            .map(|t| t.id);
        let mut path = Vec::new();
        let fifo_pred = |id: TaskId| -> Option<TaskId> {
            let t = graph.task(id);
            let spans = stream_spans(result, graph, t.device, t.stream);
            let pos = spans.iter().position(|s| s.task == id)?;
            pos.checked_sub(1).map(|p| spans[p].task)
        };
        while let Some(id) = current {
            path.push(id);
            let start = result.span(id).start;
            let mut next = None;
            for cand in graph.task(id).deps.iter().copied().chain(fifo_pred(id)) {
                if sl[cand.index()].is_zero() && result.span(cand).end == start {
                    next = Some(cand);
                    break;
                }
            }
            current = next;
        }
        path.reverse();
        path
    }
}

/// What [`check`] could compare.
#[derive(Debug, PartialEq, Eq)]
enum Checked {
    /// The graph ran and every output equals the oracles'.
    Equal,
    /// The graph ran with equal spans, but the oracle's latest-start visit
    /// order is not topological (a zero-duration task starts together with
    /// a lower-id successor), so latest starts were checked against their
    /// defining recurrence instead.
    EqualSpans,
    /// Both deadlocked with equal reports.
    Deadlock,
}

/// Runs the library and the oracles on one graph and asserts they agree.
fn check(name: &str, g: &TaskGraph) -> Checked {
    let dag = g.dag();
    let queues: Vec<_> = (0..g.num_devices())
        .flat_map(|d| Stream::ALL.map(|s| ((d, s), dag.queue(d, s).to_vec())))
        .filter(|(_, q)| !q.is_empty())
        .collect();
    assert_eq!(queues, oracle::stream_queues(g), "{name}: stream queues");
    let (want, got) = (oracle::simulate(g), simulate(g));
    let (want, got) = match (want, got) {
        (Err(w), Err(o)) => {
            assert_eq!(o, w, "{name}: deadlock report");
            assert!(matches!(o, SimError::Deadlock { .. }), "{name}: {o}");
            return Checked::Deadlock;
        }
        (Ok(w), Ok(o)) => (w, o),
        (w, o) => panic!("{name}: oracle {w:?} vs engine {o:?}"),
    };
    assert_eq!(got.makespan(), want.makespan(), "{name}: makespan");
    assert_eq!(got.spans(), want.spans(), "{name}: spans");
    for device in 0..g.num_devices() {
        for stream in Stream::ALL {
            assert_eq!(
                got.stream_spans(g, device, stream),
                oracle::stream_spans(&want, g, device, stream),
                "{name}: spans of device {device} {stream:?}"
            );
        }
    }
    let ls = latest_start_times(g, &got);
    if oracle::visit_order_is_topological(g, &want) {
        assert_eq!(
            ls,
            oracle::latest_start_times(g, &want),
            "{name}: latest starts"
        );
        assert_eq!(slack(g, &got), oracle::slack(g, &want), "{name}: slack");
        assert_eq!(
            critical_path(g, &got),
            oracle::critical_path(g, &want),
            "{name}: critical path"
        );
        Checked::Equal
    } else {
        // The oracle's visit order is wrong here; check the recurrence that
        // defines latest starts instead.
        let succs = oracle::successors(g, &want);
        for t in g.tasks() {
            let finish = (succs[t.id.index()].iter())
                .map(|s| ls[s.index()])
                .fold(got.makespan(), TimeNs::min);
            assert_eq!(ls[t.id.index()], finish - t.duration, "{name}: {:?}", t.id);
        }
        Checked::EqualSpans
    }
}

fn small_workload() -> Workload {
    Workload::new(MllmConfig::small(), 8, 4, 1)
}

fn gpipe_uniform() -> TaskGraph {
    let stage = StageSpec {
        fwd: vec![TimedKernel {
            label: "f",
            dur: DurNs(1200),
            comm: false,
        }],
        bwd: vec![TimedKernel {
            label: "b",
            dur: DurNs(2400),
            comm: false,
        }],
        ..StageSpec::default()
    };
    let spec = PipelineSpec {
        pp: 4,
        vpp: 1,
        n_microbatches: 8,
        stages: vec![stage; 4],
        dp_allgather: DurNs(300),
        dp_reducescatter: DurNs(500),
        p2p: DurNs(50),
    };
    simulate_pipeline(&spec, &gpipe(4, 8).unwrap(), &[])
        .unwrap()
        .0
        .graph
}

/// The four golden-trace layouts, plus the topology the faulted one uses.
fn golden_layouts() -> (Vec<(&'static str, TaskGraph)>, SystemContext) {
    let w = small_workload();
    let ctx = SystemContext::hopper(8).unwrap();
    let megatron = megatron_lm(&w, (2, 2, 2), &ctx).unwrap().lowered.graph;
    let balanced = megatron_balanced(&w, (2, 2, 2), 2, &ctx)
        .unwrap()
        .lowered
        .graph;
    let faulted = FaultModel::new(7)
        .with(FaultScenario::StragglerDevice {
            device: 0,
            slowdown: 1.5,
        })
        .unwrap()
        .with(FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 1.5,
        })
        .unwrap()
        .inject(&megatron, &ctx.topo)
        .unwrap()
        .graph;
    let layouts = vec![
        ("gpipe_uniform", gpipe_uniform()),
        ("megatron_1f1b_small", megatron),
        ("megatron_balanced_small", balanced),
        ("megatron_1f1b_small_faulted", faulted),
    ];
    (layouts, ctx)
}

#[test]
fn golden_layouts_match_oracle() {
    let (layouts, _) = golden_layouts();
    for (name, g) in &layouts {
        assert_eq!(check(name, g), Checked::Equal, "{name}");
    }
}

#[test]
fn edited_golden_layouts_match_oracle() {
    // `check` indexes each graph; every structural edit must drop that
    // index, because the oracles read only the tasks.
    let (layouts, _) = golden_layouts();
    for (name, mut g) in layouts {
        assert_eq!(check(name, &g), Checked::Equal, "{name}");
        let t = g.tasks().iter().rev().find(|t| !t.deps.is_empty()).unwrap();
        let (task, dep) = (t.id, t.deps[0]);
        assert!(g.remove_dep(task, dep));
        assert_ne!(check(name, &g), Checked::Deadlock, "{name}: dep removed");
        let tail = TaskId(g.len() as u32 - 1);
        g.add_dep(tail, TaskId(0));
        assert_ne!(check(name, &g), Checked::Deadlock, "{name}: dep added");
        push(&mut g, 0, Stream::Compute, 1_000_000, vec![tail]);
        assert_ne!(check(name, &g), Checked::Deadlock, "{name}: task pushed");
    }
}

#[test]
fn spliced_optimus_schedule_matches_oracle() {
    // The encoder-spliced schedule exercises every stream, EncP2p included.
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    cfg.adjust_dep_points = false;
    let run = run_optimus(&w, &cfg, &ctx).unwrap();
    let g = lowered_schedule(&run, &w, &ctx).unwrap().graph;
    assert!(g
        .tasks()
        .iter()
        .any(|t| t.stream == Stream::EncP2p && t.kind == TaskKind::EncLlmTransfer));
    assert_eq!(check("spliced optimus", &g), Checked::Equal);
}

#[test]
fn fault_injected_graphs_match_oracle() {
    let (layouts, ctx) = golden_layouts();
    let scenarios = [
        FaultScenario::StragglerDevice {
            device: 3,
            slowdown: 2.0,
        },
        FaultScenario::StragglerDevice {
            device: 7,
            slowdown: 1.01,
        },
        FaultScenario::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.25,
            latency_factor: 3.0,
        },
        FaultScenario::DegradedLink {
            class: LinkClass::Rdma,
            bandwidth_factor: 0.5,
            latency_factor: 1.5,
        },
        FaultScenario::KernelJitter { eps: 0.2 },
        FaultScenario::TransientStalls {
            prob: 0.1,
            stall: DurNs(5_000),
            device: None,
        },
        FaultScenario::FailStop {
            device: 1,
            at: TimeNs(1_000_000),
            restart: DurNs(3_000_000),
        },
    ];
    let (name, g) = &layouts[1];
    for (i, &scenario) in scenarios.iter().enumerate() {
        let model = FaultModel::new(i as u64).with(scenario).unwrap();
        let inj = model.inject(g, &ctx.topo).unwrap();
        let label = format!("{name} + scenario {i}");
        assert_eq!(check(&label, &inj.graph), Checked::Equal, "{label}");
    }
    // Everything at once, on both Megatron layouts.
    for (name, g) in &layouts[1..3] {
        let model = scenarios
            .iter()
            .fold(FaultModel::new(11), |m, &s| m.with(s).unwrap());
        let inj = model.inject(g, &ctx.topo).unwrap();
        let label = format!("{name} + all faults");
        assert_eq!(check(&label, &inj.graph), Checked::Equal, "{label}");
    }
}

#[test]
fn jittered_graphs_match_oracle() {
    let (layouts, _) = golden_layouts();
    for (name, g) in &layouts[..2] {
        for (k, eps) in [0.1, 1.0].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x11_7732 + k as u64);
            // eps = 1.0 draws factors down to zero: zero-duration tasks.
            let jittered = g.with_scaled_durations(|_| rng.random_range(1.0 - eps..=1.0 + eps));
            let label = format!("{name} jitter {eps}");
            assert_eq!(check(&label, &jittered), Checked::Equal, "{label}");
        }
        let zeroed = g.with_durations(|t| {
            if t.stream == Stream::Compute {
                t.duration
            } else {
                DurNs::ZERO
            }
        });
        let label = format!("{name} free communication");
        assert_ne!(check(&label, &zeroed), Checked::Deadlock, "{label}");
    }
}

/// The random forward DAGs of `tests/properties.rs`.
#[test]
fn random_forward_dags_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xDA6_DA6);
    for case in 0..48 {
        let n_tasks = rng.random_range(1usize..60);
        let mut g = TaskGraph::new(4);
        let mut ids: Vec<TaskId> = Vec::new();
        for _ in 0..n_tasks {
            let dev = rng.random_range(0u32..4);
            let n_deps = rng.random_range(0usize..4);
            let dur = rng.random_range(1u64..100);
            let deps: Vec<TaskId> = (0..n_deps.min(ids.len()))
                .map(|k| ids[ids.len() - 1 - k])
                .collect();
            let stream = match dur % 3 {
                0 => Stream::Compute,
                1 => Stream::TpComm,
                _ => Stream::P2p,
            };
            ids.push(g.push("t", dev, stream, DurNs(dur), TaskKind::Generic, deps));
        }
        let label = format!("forward dag {case}");
        assert_eq!(check(&label, &g), Checked::Equal, "{label}");
    }
}

/// Random DAGs over every stream with random (not only recent) deps, some
/// duplicated, some zero durations, and late edges added with `add_dep` in
/// either id direction; the backward ones often deadlock.
#[test]
fn random_general_graphs_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x6E_E4A1);
    let mut deadlocks = 0;
    for case in 0..300 {
        let n_tasks = rng.random_range(1usize..80);
        let devices = rng.random_range(1u32..5);
        let mut g = TaskGraph::new(devices);
        for i in 0..n_tasks {
            let dev = rng.random_range(0..devices);
            let stream = Stream::ALL[rng.random_range(0usize..Stream::COUNT)];
            let dur = if rng.random_range(0u32..4) == 0 {
                0
            } else {
                rng.random_range(1u64..50)
            };
            let n_deps = if i == 0 {
                0
            } else {
                rng.random_range(0usize..4)
            };
            let deps: Vec<TaskId> = (0..n_deps)
                .map(|_| TaskId(rng.random_range(0..i as u32)))
                .collect();
            g.push("g", dev, stream, DurNs(dur), TaskKind::Generic, deps);
        }
        let late = if case % 3 == 0 {
            0
        } else {
            rng.random_range(0usize..4)
        };
        for _ in 0..late {
            let a = TaskId(rng.random_range(0..n_tasks as u32));
            let b = TaskId(rng.random_range(0..n_tasks as u32));
            if a != b {
                g.add_dep(a, b);
            }
        }
        if check(&format!("general graph {case}"), &g) == Checked::Deadlock {
            deadlocks += 1;
        }
    }
    assert!(deadlocks > 10, "too few deadlocking cases: {deadlocks}");
    assert!(deadlocks < 250, "too few executable cases: {deadlocks}");
}

#[test]
fn zero_duration_chains_match_oracle() {
    // One stream, dependency chain, all zero.
    let mut g = TaskGraph::new(1);
    let mut prev = g.push("z", 0, Stream::Compute, DurNs(0), TaskKind::Generic, vec![]);
    for _ in 0..5 {
        prev = g.push(
            "z",
            0,
            Stream::Compute,
            DurNs(0),
            TaskKind::Generic,
            vec![prev],
        );
    }
    assert_ne!(check("zero chain on one stream", &g), Checked::Deadlock);

    // A zero chain zig-zagging across devices and streams, between real work.
    let mut g = TaskGraph::new(3);
    let mut prev = g.push(
        "w",
        0,
        Stream::Compute,
        DurNs(10),
        TaskKind::Generic,
        vec![],
    );
    for k in 0..12u32 {
        let stream = Stream::ALL[(k % 5) as usize];
        let dur = if k % 4 == 3 { 7 } else { 0 };
        prev = g.push(
            "z",
            k % 3,
            stream,
            DurNs(dur),
            TaskKind::Generic,
            vec![prev],
        );
    }
    g.push("w", 2, Stream::Compute, DurNs(5), TaskKind::Generic, vec![]);
    assert_ne!(check("zero chain across devices", &g), Checked::Deadlock);

    // Zero-duration tasks only: everything happens at t = 0.
    let mut g = TaskGraph::new(2);
    for k in 0..10u32 {
        let deps = if k >= 2 { vec![TaskId(k - 2)] } else { vec![] };
        g.push(
            "z",
            k % 2,
            Stream::ALL[(k % 3) as usize],
            DurNs(0),
            TaskKind::Generic,
            deps,
        );
    }
    assert_ne!(check("all zero", &g), Checked::Deadlock);

    // A zero-duration task wired by a late edge to the lower-id task that
    // waits for it: both start at 0, so the oracle's reverse start-time
    // order visits the zero-duration task first and leaves it the makespan
    // as latest start. Its successor must start by 90, so it must too.
    let mut g = TaskGraph::new(2);
    let k = push(&mut g, 0, Stream::Compute, 10, vec![]);
    let c = push(&mut g, 1, Stream::TpComm, 0, vec![]);
    g.add_dep(k, c);
    push(&mut g, 1, Stream::Compute, 100, vec![]);
    assert_eq!(check("zero-duration late edge", &g), Checked::EqualSpans);
    let r = simulate(&g).unwrap();
    assert_eq!(latest_start_times(&g, &r)[c.index()], TimeNs(90));
    assert_eq!(oracle::latest_start_times(&g, &r)[c.index()], TimeNs(100));
}

fn push(g: &mut TaskGraph, dev: u32, stream: Stream, dur: u64, deps: Vec<TaskId>) -> TaskId {
    g.push("t", dev, stream, DurNs(dur), TaskKind::Generic, deps)
}

/// Rebuilds `g` with the queue positions of `x` and `y` swapped (same
/// device+stream), preserving every dependency edge.
fn swap_queue_positions(g: &TaskGraph, x: TaskId, y: TaskId) -> TaskGraph {
    let mut order: Vec<TaskId> = g.tasks().iter().map(|t| t.id).collect();
    order.swap(x.index(), y.index());
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
fn deadlock_fixtures_match_oracle() {
    // Crossed FIFO heads (the engine's own fixture).
    let mut g = TaskGraph::new(1);
    let k1 = push(&mut g, 0, Stream::Compute, 1, vec![]);
    let k2 = push(&mut g, 0, Stream::Compute, 1, vec![]);
    push(&mut g, 0, Stream::TpComm, 1, vec![k2]);
    let c2 = push(&mut g, 0, Stream::TpComm, 1, vec![]);
    g.add_dep(k1, c2);
    assert_eq!(check("crossed queues", &g), Checked::Deadlock);

    // OPT001: a dependency-only cycle.
    let mut g = TaskGraph::new(2);
    let a = push(&mut g, 0, Stream::Compute, 10, vec![]);
    let b = push(&mut g, 1, Stream::Compute, 10, vec![a]);
    g.add_dep(a, b);
    push(&mut g, 1, Stream::TpComm, 10, vec![]);
    assert_eq!(check("dependency cycle", &g), Checked::Deadlock);

    // OPT002: a task queued ahead of the task it waits for.
    let mut g = TaskGraph::new(1);
    let a = push(&mut g, 0, Stream::Compute, 10, vec![]);
    let b = push(&mut g, 0, Stream::Compute, 10, vec![]);
    push(&mut g, 0, Stream::Compute, 10, vec![]);
    g.add_dep(a, b);
    assert_eq!(check("same-queue inversion", &g), Checked::Deadlock);

    // A deadlock downstream of work that does execute.
    let mut g = TaskGraph::new(2);
    let pre = push(&mut g, 1, Stream::Compute, 5, vec![]);
    let a = push(&mut g, 0, Stream::Compute, 10, vec![pre]);
    let b = push(&mut g, 0, Stream::Compute, 10, vec![]);
    g.add_dep(a, b);
    push(&mut g, 1, Stream::Compute, 5, vec![]);
    assert_eq!(check("partial deadlock", &g), Checked::Deadlock);

    // Queue swaps in a real lowered 1F1B schedule (the lint mutation
    // fixture): forward/backward swaps on every device's compute queue.
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
    let spec = PipelineSpec {
        pp: 3,
        vpp: 1,
        n_microbatches: 4,
        stages: vec![stage; 3],
        dp_allgather: DurNs(300),
        dp_reducescatter: DurNs(500),
        p2p: DurNs(50),
    };
    let lowered = lower(&spec, &one_f_one_b(3, 4).unwrap(), &[]).unwrap();
    assert_eq!(check("lowered 1f1b", &lowered.graph), Checked::Equal);
    let mut deadlocks = 0;
    for ((dev, stream), queue) in oracle::stream_queues(&lowered.graph) {
        if stream != Stream::Compute {
            continue;
        }
        let first_bwd = queue
            .iter()
            .position(|id| matches!(lowered.graph.task(*id).kind, TaskKind::LlmBwd { .. }))
            .expect("a backward on every stage");
        for (i, j) in [
            (0, first_bwd),
            (first_bwd - 1, first_bwd),
            (0, queue.len() - 1),
        ] {
            let mutated = swap_queue_positions(&lowered.graph, queue[i], queue[j]);
            if check(&format!("device {dev} swap {i}<->{j}"), &mutated) == Checked::Deadlock {
                deadlocks += 1;
            }
        }
    }
    assert!(
        deadlocks >= 3,
        "swaps should wedge the pipeline: {deadlocks}"
    );
}
