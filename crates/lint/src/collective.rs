//! Collective-participation matching (OPT003).
//!
//! NCCL collectives are matched by *issue order within a communicator*, not
//! by name: if the ranks of one group enqueue different collective
//! sequences — one rank skips an all-gather, or two ranks issue the same
//! collectives in different orders — every rank blocks inside a different
//! call and the job hangs with no error. Runtime verification only catches
//! this for layouts it can simulate; this pass checks the issue sequences
//! symbolically, so it also covers the multi-lane colocation layouts
//! `optimus_core::verify` rejects.

use std::collections::BTreeMap;

use optimus_sim::{Stream, TaskGraph, TaskId};

use crate::diag::{DiagCode, Diagnostic, Witness};

/// One channel's transfers in receive order: (send queue position, producer,
/// transfer).
type ChannelEvents = Vec<(usize, TaskId, TaskId)>;

/// One rank's view of a communicator: the ordered collective sequence it
/// will enqueue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommRank {
    /// Display name ("device 3", "lane 1 rank 0", ...).
    pub name: String,
    /// Ordered collective tags, one per enqueued collective.
    pub sequence: Vec<String>,
    /// Optional task anchors, parallel to `sequence` (used in witnesses).
    pub tasks: Vec<Option<TaskId>>,
}

impl CommRank {
    /// A rank with tag-only entries (no task anchors).
    pub fn new(name: impl Into<String>, sequence: Vec<String>) -> CommRank {
        let tasks = vec![None; sequence.len()];
        CommRank {
            name: name.into(),
            sequence,
            tasks,
        }
    }

    /// Appends one collective, optionally anchored to a task.
    pub fn push(&mut self, tag: impl Into<String>, task: Option<TaskId>) {
        self.sequence.push(tag.into());
        self.tasks.push(task);
    }

    fn anchor(&self, k: usize) -> Option<TaskId> {
        self.tasks.get(k).copied().flatten()
    }
}

/// One communicator group: every member must enqueue the same sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommGroup {
    /// Display name ("dp", "tp lane 0", ...).
    pub name: String,
    /// Member ranks.
    pub ranks: Vec<CommRank>,
}

impl CommGroup {
    /// A named group.
    pub fn new(name: impl Into<String>, ranks: Vec<CommRank>) -> CommGroup {
        CommGroup {
            name: name.into(),
            ranks,
        }
    }
}

/// Communicator groups to check against each other.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectiveSpec {
    /// The groups; each is checked independently.
    pub groups: Vec<CommGroup>,
}

impl CollectiveSpec {
    /// A spec over explicit groups.
    pub fn new(groups: Vec<CommGroup>) -> CollectiveSpec {
        CollectiveSpec { groups }
    }

    /// Derives the data-parallel group from a task graph: every device that
    /// executes any task is a member, and its sequence is the labels of its
    /// `DpComm`-stream queue in issue order. Devices whose queue is empty
    /// participate with an empty sequence — that is what catches a rank
    /// whose all-gather was dropped.
    pub fn from_graph(g: &TaskGraph) -> CollectiveSpec {
        let dag = g.dag();
        let ranks: Vec<CommRank> = (0..g.num_devices())
            .filter(|&dev| !dag.device_tasks(dev).is_empty())
            .map(|dev| {
                let mut rank = CommRank::new(format!("device {dev}"), Vec::new());
                for &id in dag.queue(dev, Stream::DpComm) {
                    rank.push(g.task(id).label.to_string(), Some(id));
                }
                rank
            })
            .collect();
        if ranks.len() < 2 {
            return CollectiveSpec::default();
        }
        CollectiveSpec::new(vec![CommGroup::new("dp", ranks)])
    }

    /// Derives encoder↔LLM point-to-point channel groups from a task graph.
    ///
    /// Every `EncP2p`-stream task is a *receive*: it runs on the consuming
    /// device and depends on its producer on another device. P2P traffic is
    /// matched per channel by issue order, exactly like collectives, so for
    /// each `(source device, source stream, destination device)` channel the
    /// receive queue must replay the producers' issue order. The send-side
    /// rank is reconstructed by sorting the channel's transfers by producer
    /// queue position; the receive-side rank is the `EncP2p` queue order.
    /// A transfer with no cross-device producer is a receive with no
    /// matching send — it forms its own group that always diverges.
    pub fn enc_p2p_from_graph(g: &TaskGraph) -> CollectiveSpec {
        let dag = g.dag();
        let mut groups = Vec::new();
        for dst in 0..g.num_devices() {
            // Per-channel events in receive order.
            let mut channels: BTreeMap<(u32, usize), ChannelEvents> = BTreeMap::new();
            for &tr in dag.queue(dst, Stream::EncP2p) {
                let task = g.task(tr);
                let mut matched = false;
                for &dep in &task.deps {
                    let p = g.task(dep);
                    if p.device == dst {
                        continue;
                    }
                    matched = true;
                    channels
                        .entry((p.device, p.stream.index()))
                        .or_default()
                        .push((dag.position(dep), dep, tr));
                }
                if !matched {
                    let mut recv = CommRank::new(format!("device {dst} recv side"), Vec::new());
                    recv.push(task.label.to_string(), Some(tr));
                    groups.push(CommGroup::new(
                        format!("enc-p2p into device {dst}"),
                        vec![CommRank::new("send side", Vec::new()), recv],
                    ));
                }
            }
            for ((src, sstream), events) in channels {
                let tag = |p: usize, dep: TaskId| format!("{}#{p}", g.task(dep).label);
                let mut by_send = events.clone();
                by_send.sort_by_key(|&(p, _, _)| p);
                let mut send = CommRank::new(format!("device {src} send order"), Vec::new());
                for &(p, dep, _) in &by_send {
                    send.push(tag(p, dep), Some(dep));
                }
                let mut recv = CommRank::new(format!("device {dst} recv order"), Vec::new());
                for &(p, dep, tr) in &events {
                    recv.push(tag(p, dep), Some(tr));
                }
                groups.push(CommGroup::new(
                    format!("enc-p2p device {src}/stream {sstream} -> device {dst}"),
                    vec![send, recv],
                ));
            }
        }
        CollectiveSpec::new(groups)
    }
}

fn divergence_witness(reference: &CommRank, rank: &CommRank, k: usize) -> Vec<Witness> {
    let describe = |r: &CommRank| -> Witness {
        let detail = match r.sequence.get(k) {
            Some(tag) => format!("{} enqueues `{}` at position {}", r.name, tag, k),
            None => format!(
                "{} enqueues nothing at position {} (sequence ends after {} collective(s))",
                r.name,
                k,
                r.sequence.len()
            ),
        };
        match r.anchor(k) {
            Some(id) => Witness::task(id, detail),
            None => Witness::note(detail),
        }
    };
    vec![describe(reference), describe(rank)]
}

/// Runs OPT003: within each group, every rank's sequence must equal the
/// first rank's. One diagnostic per diverging rank, anchored at the first
/// position where the sequences differ.
pub(crate) fn check_collectives(spec: &CollectiveSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for group in &spec.groups {
        let Some(reference) = group.ranks.first() else {
            continue;
        };
        for rank in &group.ranks[1..] {
            if rank.sequence == reference.sequence {
                continue;
            }
            let k = reference
                .sequence
                .iter()
                .zip(&rank.sequence)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| reference.sequence.len().min(rank.sequence.len()));
            out.push(Diagnostic::new(
                DiagCode::CollectiveOrderMismatch,
                format!(
                    "communicator `{}`: {} and {} enqueue different collective \
                     sequences (first divergence at position {k}) — all ranks \
                     would block in mismatched calls",
                    group.name, reference.name, rank.name
                ),
                divergence_witness(reference, rank, k),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use optimus_cluster::DurNs;
    use optimus_sim::TaskKind;

    fn check(spec: CollectiveSpec) -> Vec<Diagnostic> {
        check_collectives(&spec)
    }

    #[test]
    fn identical_sequences_are_clean() {
        let spec = CollectiveSpec::new(vec![CommGroup::new(
            "dp",
            vec![
                CommRank::new("rank 0", vec!["ag".into(), "rs".into()]),
                CommRank::new("rank 1", vec!["ag".into(), "rs".into()]),
            ],
        )]);
        assert!(check(spec).is_empty());
    }

    #[test]
    fn skipped_collective_is_flagged_at_divergence_point() {
        let spec = CollectiveSpec::new(vec![CommGroup::new(
            "dp",
            vec![
                CommRank::new("rank 0", vec!["ag".into(), "rs".into()]),
                CommRank::new("rank 1", vec!["rs".into()]),
            ],
        )]);
        let diags = check(spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::CollectiveOrderMismatch);
        assert!(
            diags[0].message.contains("position 0"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn swapped_order_is_flagged() {
        let spec = CollectiveSpec::new(vec![CommGroup::new(
            "tp",
            vec![
                CommRank::new("rank 0", vec!["ag".into(), "rs".into()]),
                CommRank::new("rank 1", vec!["rs".into(), "ag".into()]),
            ],
        )]);
        assert_eq!(check(spec).len(), 1);
    }

    #[test]
    fn each_diverging_rank_reported() {
        let spec = CollectiveSpec::new(vec![CommGroup::new(
            "dp",
            vec![
                CommRank::new("rank 0", vec!["ag".into()]),
                CommRank::new("rank 1", vec![]),
                CommRank::new("rank 2", vec!["ag".into()]),
                CommRank::new("rank 3", vec!["ag".into(), "ag".into()]),
            ],
        )]);
        assert_eq!(check(spec).len(), 2);
    }

    #[test]
    fn from_graph_matches_dp_queues() {
        let mut g = TaskGraph::new(2);
        for dev in 0..2 {
            g.push(
                "dp_allgather",
                dev,
                Stream::DpComm,
                DurNs(5),
                TaskKind::DpAllGather,
                vec![],
            );
            g.push(
                "k",
                dev,
                Stream::Compute,
                DurNs(5),
                TaskKind::Generic,
                vec![],
            );
        }
        let spec = CollectiveSpec::from_graph(&g);
        assert_eq!(spec.groups.len(), 1);
        assert!(check(spec).is_empty());

        // Drop rank 1's all-gather: the derived spec now diverges.
        let mut g2 = TaskGraph::new(2);
        g2.push(
            "dp_allgather",
            0,
            Stream::DpComm,
            DurNs(5),
            TaskKind::DpAllGather,
            vec![],
        );
        g2.push("k", 1, Stream::Compute, DurNs(5), TaskKind::Generic, vec![]);
        let diags = check(CollectiveSpec::from_graph(&g2));
        assert_eq!(diags.len(), 1);
        // The present side of the witness is anchored to the real task.
        assert!(diags[0].witness.iter().any(|w| w.task == Some(TaskId(0))));
    }

    #[test]
    fn enc_p2p_receives_in_send_order_are_clean() {
        let mut g = TaskGraph::new(2);
        let p0 = g.push(
            "enc0",
            0,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![],
        );
        let p1 = g.push(
            "enc1",
            0,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![p0],
        );
        g.push(
            "act_p2p",
            1,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![p0],
        );
        g.push(
            "act_p2p",
            1,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![p1],
        );
        let spec = CollectiveSpec::enc_p2p_from_graph(&g);
        assert_eq!(spec.groups.len(), 1);
        assert!(check(spec).is_empty());
    }

    #[test]
    fn enc_p2p_swapped_receive_order_is_flagged() {
        let mut g = TaskGraph::new(2);
        let p0 = g.push(
            "enc0",
            0,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![],
        );
        let p1 = g.push(
            "enc1",
            0,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![p0],
        );
        // Receiver enqueues the transfer of the *later* producer first.
        g.push(
            "act_p2p",
            1,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![p1],
        );
        g.push(
            "act_p2p",
            1,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![p0],
        );
        let diags = check(CollectiveSpec::enc_p2p_from_graph(&g));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::CollectiveOrderMismatch);
        assert!(
            diags[0].message.contains("position 0"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn enc_p2p_receive_without_send_is_flagged() {
        let mut g = TaskGraph::new(2);
        // A receive whose only dependency is on its own device: no matching
        // cross-device send exists.
        let local = g.push("k", 1, Stream::Compute, DurNs(5), TaskKind::Generic, vec![]);
        g.push(
            "act_p2p",
            1,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![local],
        );
        let diags = check(CollectiveSpec::enc_p2p_from_graph(&g));
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("into device 1"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn enc_p2p_channels_from_different_sources_are_independent() {
        // Receives from two source devices may interleave arbitrarily; only
        // per-channel order matters.
        let mut g = TaskGraph::new(3);
        let a = g.push(
            "enc_a",
            0,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![],
        );
        let b = g.push(
            "enc_b",
            1,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "act_p2p",
            2,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![b],
        );
        g.push(
            "act_p2p",
            2,
            Stream::EncP2p,
            DurNs(2),
            TaskKind::EncLlmTransfer,
            vec![a],
        );
        let spec = CollectiveSpec::enc_p2p_from_graph(&g);
        assert_eq!(spec.groups.len(), 2);
        assert!(check(spec).is_empty());
    }

    #[test]
    fn single_rank_group_is_vacuously_clean() {
        let spec = CollectiveSpec::new(vec![CommGroup::new(
            "dp",
            vec![CommRank::new("rank 0", vec!["ag".into()])],
        )]);
        assert!(check(spec).is_empty());
        let r = Analyzer::new()
            .collectives(CollectiveSpec::default())
            .analyze();
        assert!(r.is_clean());
    }
}
