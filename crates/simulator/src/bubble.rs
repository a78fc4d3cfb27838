//! Bubble extraction and classification.
//!
//! A *bubble* is an idle gap on a device's compute stream. The paper (§2.2,
//! Table 1, Fig. 8) classifies them by cause:
//!
//! * **DP all-gather** — waiting for the start-of-step parameter all-gather;
//! * **PP warmup** — waiting for the first forward activation to arrive;
//! * **TP** — compute stalled on a tensor-parallel collective;
//! * **PP other** — stalled on pipeline sends/receives mid-step;
//! * **PP cooldown** — idle after this stage's last backward, before the
//!   gradient reduce-scatter;
//! * **DP reduce-scatter** — the end-of-step gradient reduce-scatter itself.

use optimus_cluster::{DurNs, TimeNs};

use crate::engine::{SimResult, TaskSpan};
use crate::task::{Stream, TaskGraph, TaskKind};

/// Cause classification of one bubble, matching Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BubbleKind {
    /// Waiting on the start-of-step DP parameter all-gather.
    DpAllGather,
    /// End-of-step DP gradient reduce-scatter.
    DpReduceScatter,
    /// Pipeline warmup: waiting for the first forward to arrive.
    PpWarmup,
    /// Pipeline cooldown: idle after the stage's last backward.
    PpCooldown,
    /// Mid-step pipeline dependency stalls.
    PpOther,
    /// Compute stalled on a tensor-parallel collective.
    Tp,
}

impl BubbleKind {
    /// All kinds in Table 1 order.
    pub const ALL: [BubbleKind; 6] = [
        BubbleKind::DpAllGather,
        BubbleKind::DpReduceScatter,
        BubbleKind::PpWarmup,
        BubbleKind::PpCooldown,
        BubbleKind::PpOther,
        BubbleKind::Tp,
    ];

    /// Table-1 row label.
    pub fn label(self) -> &'static str {
        match self {
            BubbleKind::DpAllGather => "DP bubble (all-gather)",
            BubbleKind::DpReduceScatter => "DP bubble (reduce-scatter)",
            BubbleKind::PpWarmup => "PP bubbles (warmup)",
            BubbleKind::PpCooldown => "PP bubbles (cooldown)",
            BubbleKind::PpOther => "PP bubbles (other)",
            BubbleKind::Tp => "TP bubble",
        }
    }
}

/// One idle interval on a device's compute stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bubble {
    /// Device whose compute stream idles.
    pub device: u32,
    /// Gap start.
    pub start: TimeNs,
    /// Gap end.
    pub end: TimeNs,
    /// Classified cause.
    pub kind: BubbleKind,
}

impl Bubble {
    /// Bubble length.
    pub fn duration(&self) -> DurNs {
        self.end.since(self.start)
    }
}

/// Extracts and classifies all bubbles of one device, reading only that
/// device's queues.
pub fn device_bubbles(graph: &TaskGraph, result: &SimResult, device: u32) -> Vec<Bubble> {
    let compute = result.stream_spans(graph, device, Stream::Compute);
    let makespan = result.makespan();
    let mut bubbles = Vec::new();
    let at = |start, end, kind| Bubble {
        device,
        start,
        end,
        kind,
    };

    // The device's DP collectives, if present (the reduce-scatter ending
    // last, latest task on ties), and its TP-collective spans.
    let mut dp_ag_end = None;
    let mut dp_rs: Option<TaskSpan> = None;
    let mut tp_spans: Vec<(TimeNs, TimeNs)> = Vec::new();
    for &id in graph.dag().device_tasks(device) {
        let s = result.span(id);
        match graph.task(id).kind {
            TaskKind::DpAllGather => dp_ag_end = dp_ag_end.max(Some(s.end)),
            TaskKind::DpReduceScatter => {
                dp_rs = dp_rs.into_iter().chain([s]).max_by_key(|r| (r.end, r.task));
            }
            TaskKind::LlmTpComm | TaskKind::EncTpComm => tp_spans.push((s.start, s.end)),
            _ => {}
        }
    }

    if compute.is_empty() {
        if makespan > TimeNs::ZERO {
            bubbles.push(at(TimeNs::ZERO, makespan, BubbleKind::PpWarmup));
        }
        return bubbles;
    }

    // Leading gap: DP all-gather portion, then PP warmup.
    let first_start = compute[0].start;
    if first_start > TimeNs::ZERO {
        let split = dp_ag_end.unwrap_or(TimeNs::ZERO).min(first_start);
        if split > TimeNs::ZERO {
            bubbles.push(at(TimeNs::ZERO, split, BubbleKind::DpAllGather));
        }
        if first_start > split {
            bubbles.push(at(split, first_start, BubbleKind::PpWarmup));
        }
    }

    // Interior gaps: the portion of a gap that coincides with a TP
    // collective is a TP bubble; the remainder (waiting on pipeline
    // send/receive) is a PP bubble. A single gap often contains both — the
    // layer's trailing reduce-scatter runs first, then the rank starves.
    // Gaps come in time order, so TP spans ending at or before one gap's
    // start are skipped for good; the scan stops at the first span starting
    // at or after the gap's end.
    tp_spans.sort_unstable();
    let mut first = 0;
    for w in compute.windows(2) {
        let (gap_start, gap_end) = (w[0].end, w[1].start);
        if gap_end <= gap_start {
            continue;
        }
        while tp_spans.get(first).is_some_and(|&(_, te)| te <= gap_start) {
            first += 1;
        }
        let mut cursor = gap_start;
        for &(ts, te) in &tp_spans[first..] {
            if ts >= gap_end {
                break;
            }
            let (os, oe) = (ts.max(cursor), te.min(gap_end));
            if oe <= os {
                continue;
            }
            if os > cursor {
                bubbles.push(at(cursor, os, BubbleKind::PpOther));
            }
            bubbles.push(at(os, oe, BubbleKind::Tp));
            cursor = oe;
            if cursor >= gap_end {
                break;
            }
        }
        if cursor < gap_end {
            bubbles.push(at(cursor, gap_end, BubbleKind::PpOther));
        }
    }

    // Trailing gap: PP cooldown until the reduce-scatter begins, the
    // reduce-scatter itself, then (on ranks that finish early) more cooldown
    // while the slowest stage completes the step.
    let last_end = compute.last().map(|s| s.end).unwrap_or(TimeNs::ZERO);
    if makespan > last_end {
        match dp_rs {
            Some(rs) if rs.start >= last_end => {
                if rs.start > last_end {
                    bubbles.push(at(last_end, rs.start, BubbleKind::PpCooldown));
                }
                let rs_end = rs.end.min(makespan);
                bubbles.push(at(rs.start, rs_end, BubbleKind::DpReduceScatter));
                if makespan > rs_end {
                    bubbles.push(at(rs_end, makespan, BubbleKind::PpCooldown));
                }
            }
            _ => bubbles.push(at(last_end, makespan, BubbleKind::PpCooldown)),
        }
    }

    bubbles
}

/// Extracts bubbles for every device.
pub fn all_bubbles(graph: &TaskGraph, result: &SimResult) -> Vec<Bubble> {
    (0..graph.num_devices())
        .flat_map(|d| device_bubbles(graph, result, d))
        .collect()
}

/// Aggregate bubble statistics across devices — the reproduction of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleBreakdown {
    /// Mean (per-device) bubble time for each kind, Table 1 order.
    pub per_kind: [(BubbleKind, DurNs); 6],
    /// Training-step time.
    pub step_time: DurNs,
    /// Number of devices aggregated.
    pub num_devices: u32,
}

impl BubbleBreakdown {
    /// Builds the breakdown from a simulation.
    pub fn measure(graph: &TaskGraph, result: &SimResult) -> BubbleBreakdown {
        let n = graph.num_devices().max(1);
        let mut totals = [DurNs::ZERO; 6];
        for b in all_bubbles(graph, result) {
            let idx = BubbleKind::ALL.iter().position(|&k| k == b.kind).unwrap();
            totals[idx] += b.duration();
        }
        let per_kind = std::array::from_fn(|i| (BubbleKind::ALL[i], totals[i] / n as u64));
        BubbleBreakdown {
            per_kind,
            step_time: result.makespan().since(TimeNs::ZERO),
            num_devices: n,
        }
    }

    /// Mean bubble time of one kind.
    pub fn time(&self, kind: BubbleKind) -> DurNs {
        self.per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, d)| *d)
            .unwrap_or(DurNs::ZERO)
    }

    /// Fraction of the step occupied by one bubble kind (device mean).
    pub fn fraction(&self, kind: BubbleKind) -> f64 {
        if self.step_time.is_zero() {
            return 0.0;
        }
        self.time(kind).as_secs_f64() / self.step_time.as_secs_f64()
    }

    /// Total bubble fraction across all kinds.
    pub fn total_fraction(&self) -> f64 {
        BubbleKind::ALL.iter().map(|&k| self.fraction(k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;

    /// Builds a miniature step with every bubble category present:
    /// AG → warmup wait → compute, TP stall, PP stall, cooldown, RS.
    fn toy_step() -> (TaskGraph, SimResult) {
        let mut g = TaskGraph::new(1);
        let ag = g.push(
            "dp_ag",
            0,
            Stream::DpComm,
            DurNs(100),
            TaskKind::DpAllGather,
            vec![],
        );
        // Remote producer modeled as a P2p transfer finishing at t=150.
        let recv = g.push(
            "recv",
            0,
            Stream::P2p,
            DurNs(150),
            TaskKind::PpFwdTransfer { microbatch: 0 },
            vec![],
        );
        let k1 = g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(50),
            TaskKind::LlmFwd {
                chunk: 0,
                microbatch: 0,
            },
            vec![ag, recv],
        );
        let tp = g.push(
            "tp",
            0,
            Stream::TpComm,
            DurNs(30),
            TaskKind::LlmTpComm,
            vec![k1],
        );
        let k2 = g.push(
            "fwd2",
            0,
            Stream::Compute,
            DurNs(40),
            TaskKind::LlmFwd {
                chunk: 0,
                microbatch: 0,
            },
            vec![tp],
        );
        let recv2 = g.push(
            "recv2",
            0,
            Stream::P2p,
            DurNs(120),
            TaskKind::PpBwdTransfer { microbatch: 0 },
            vec![k1],
        );
        let k3 = g.push(
            "bwd",
            0,
            Stream::Compute,
            DurNs(60),
            TaskKind::LlmBwd {
                chunk: 0,
                microbatch: 0,
            },
            vec![recv2, k2],
        );
        // A straggling peer delays the reduce-scatter, leaving a cooldown gap
        // between the last backward and the collective.
        let straggler = g.push(
            "straggler",
            0,
            Stream::P2p,
            DurNs(450),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "dp_rs",
            0,
            Stream::DpComm,
            DurNs(200),
            TaskKind::DpReduceScatter,
            vec![k3, straggler],
        );
        let r = simulate(&g).unwrap();
        (g, r)
    }

    #[test]
    fn every_category_detected() {
        let (g, r) = toy_step();
        let bubbles = device_bubbles(&g, &r, 0);
        let kinds: Vec<BubbleKind> = bubbles.iter().map(|b| b.kind).collect();
        for k in BubbleKind::ALL {
            assert!(kinds.contains(&k), "missing {k:?} in {kinds:?}");
        }
    }

    #[test]
    fn bubble_intervals_partition_idle_time() {
        let (g, r) = toy_step();
        let bubbles = device_bubbles(&g, &r, 0);
        let idle: DurNs = bubbles.iter().map(|b| b.duration()).sum();
        let busy = r.busy_time(&g, 0, Stream::Compute);
        assert_eq!(idle + busy, r.makespan().since(TimeNs::ZERO));
    }

    #[test]
    fn breakdown_fractions_sum_to_idle_fraction() {
        let (g, r) = toy_step();
        let bd = BubbleBreakdown::measure(&g, &r);
        let busy = r.busy_time(&g, 0, Stream::Compute).as_secs_f64();
        let expect = 1.0 - busy / r.makespan().as_secs_f64();
        assert!((bd.total_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn tp_gap_classified_by_overlap() {
        let (g, r) = toy_step();
        let bubbles = device_bubbles(&g, &r, 0);
        // Gap between k1 (ends 200) and k2 (starts 230) overlaps the TP
        // collective: must be a TP bubble of 30 ns.
        let tp: Vec<&Bubble> = bubbles
            .iter()
            .filter(|b| b.kind == BubbleKind::Tp)
            .collect();
        assert_eq!(tp.len(), 1);
        assert_eq!(tp[0].duration(), DurNs(30));
    }

    #[test]
    fn idle_device_is_one_big_bubble() {
        let mut g = TaskGraph::new(2);
        g.push(
            "work",
            0,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let b = device_bubbles(&g, &r, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].duration(), DurNs(100));
    }

    #[test]
    fn labels_match_table1() {
        assert_eq!(BubbleKind::DpAllGather.label(), "DP bubble (all-gather)");
        assert_eq!(BubbleKind::Tp.label(), "TP bubble");
    }
}
