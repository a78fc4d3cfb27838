//! `optimus-lint` — static schedule & task-graph analysis.
//!
//! The simulator's dynamic checks (`optimus_sim::simulate` deadlock
//! detection, `optimus_core::verify` re-simulation) only cover what they can
//! execute — and re-simulation is restricted to `lanes == 1` colocation
//! layouts. This crate closes the gap with a *static* analyzer that inspects
//! a lowered [`TaskGraph`] and/or a bubble schedule without simulating,
//! emitting structured [`Diagnostic`]s:
//!
//! | code   | name                        | meaning |
//! |--------|-----------------------------|---------|
//! | OPT001 | `cycle`                     | dependency-edge cycle: unexecutable regardless of scheduling |
//! | OPT002 | `stream-fifo-inversion`     | per-stream FIFO queue order contradicts dependency order — the static signature of a simulated deadlock |
//! | OPT003 | `collective-order-mismatch` | ranks of one communicator group enqueue different collective sequences (the NCCL-deadlock lint) |
//! | OPT004 | `memory-over-budget`        | static per-device peak memory exceeds HBM capacity |
//! | OPT005 | `bubble-insert-overlap`     | an inserted kernel escapes its claimed idle interval, overlaps a sibling, breaks chain order, or violates a dependency point |
//! | OPT006 | `orphan-task`               | a task with no dependency edges, alone on its stream queue — a mis-wired insert |
//! | OPT007 | `missing-durable-checkpoint` | a schedule segment longer than the configured checkpoint interval carries no durable checkpoint claim |
//! | OPT008 | `fill-claim-overlap`        | a bubble-fill claim overlaps a primary-schedule claim, a checkpoint claim, or another fill claim |
//!
//! The registry in [`diag::REGISTRY`] is the single source of truth for
//! code, slug, severity, and docs link; this table and DESIGN.md §9 mirror
//! it under a consistency test.
//!
//! Passes are composed through [`Analyzer`]; [`lint_graph`] is the one-call
//! entry point for pure task-graph checks (OPT001/002/006 plus the
//! DP-collective sequence derived from the graph itself).
//!
//! # Examples
//!
//! ```
//! use optimus_cluster::DurNs;
//! use optimus_lint::{lint_graph, DiagCode};
//! use optimus_sim::{Stream, TaskGraph, TaskKind};
//!
//! // Crossed FIFO heads: the classic stream-ordering deadlock.
//! let mut g = TaskGraph::new(1);
//! let k1 = g.push("k1", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
//! let k2 = g.push("k2", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
//! let _c1 = g.push("c1", 0, Stream::TpComm, DurNs(1), TaskKind::Generic, vec![k2]);
//! let c2 = g.push("c2", 0, Stream::TpComm, DurNs(1), TaskKind::Generic, vec![]);
//! g.add_dep(k1, c2);
//! let report = lint_graph(&g);
//! assert!(report.has(DiagCode::StreamFifoInversion));
//! assert!(report.has_errors());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod collective;
pub mod diag;
pub mod fill;
pub mod graph;
pub mod inserts;
pub mod memory;

pub use checkpoint::CheckpointSpec;
pub use collective::{CollectiveSpec, CommGroup, CommRank};
pub use diag::{DiagCode, DiagSpec, Diagnostic, LintReport, Severity, Witness, REGISTRY};
pub use fill::FillSpec;
pub use inserts::{DepPoints, IdleInterval, InsertClaim, InsertSet};
pub use memory::MemoryClaim;

use optimus_sim::{TaskGraph, TaskId};

/// Names a task for witness rendering. The default namer formats the task's
/// label, device, and stream; callers with lowering provenance (e.g.
/// `optimus_pipeline::Lowered::describe`) substitute richer names that spell
/// out stage / chunk / microbatch.
pub type Namer<'a> = Box<dyn Fn(TaskId) -> String + 'a>;

/// A composable static analyzer: attach the inputs you have, then call
/// [`analyze`](Analyzer::analyze). Every attached input enables the passes
/// that consume it; nothing is simulated.
#[derive(Default)]
pub struct Analyzer<'a> {
    graph: Option<&'a TaskGraph>,
    collectives: Vec<CollectiveSpec>,
    memory: Vec<MemoryClaim>,
    inserts: Option<InsertSet>,
    dep_points: Option<DepPoints>,
    checkpoints: Vec<CheckpointSpec>,
    fill: Option<FillSpec>,
    namer: Option<Namer<'a>>,
}

impl<'a> Analyzer<'a> {
    /// Creates an empty analyzer (analyzing nothing yields a clean report).
    pub fn new() -> Analyzer<'a> {
        Analyzer::default()
    }

    /// Attaches a task graph: enables OPT001 (cycle), OPT002 (stream-FIFO
    /// inversion), and OPT006 (orphan task).
    pub fn graph(mut self, g: &'a TaskGraph) -> Analyzer<'a> {
        self.graph = Some(g);
        self
    }

    /// Attaches a collective-participation spec: enables OPT003.
    pub fn collectives(mut self, spec: CollectiveSpec) -> Analyzer<'a> {
        self.collectives.push(spec);
        self
    }

    /// Attaches a per-device memory claim: enables OPT004.
    pub fn memory(mut self, claim: MemoryClaim) -> Analyzer<'a> {
        self.memory.push(claim);
        self
    }

    /// Attaches bubble-insert claims and idle intervals: enables OPT005.
    pub fn inserts(mut self, set: InsertSet) -> Analyzer<'a> {
        self.inserts = Some(set);
        self
    }

    /// Attaches encoder↔LLM dependency points: extends OPT005 with the
    /// `CheckEncLLMDep` ordering conditions.
    pub fn dep_points(mut self, dp: DepPoints) -> Analyzer<'a> {
        self.dep_points = Some(dp);
        self
    }

    /// Attaches a durable-checkpoint coverage spec: enables OPT007.
    pub fn checkpoints(mut self, spec: CheckpointSpec) -> Analyzer<'a> {
        self.checkpoints.push(spec);
        self
    }

    /// Attaches the claim classes of a bubble-fill placement: enables
    /// OPT008 (fill claims must not overlap primary, checkpoint, or
    /// sibling fill claims).
    pub fn fill(mut self, spec: FillSpec) -> Analyzer<'a> {
        self.fill = Some(spec);
        self
    }

    /// Substitutes a task namer for witness rendering.
    pub fn namer(mut self, f: impl Fn(TaskId) -> String + 'a) -> Analyzer<'a> {
        self.namer = Some(Box::new(f));
        self
    }

    /// Runs every enabled pass and collects diagnostics, most severe first.
    pub fn analyze(&self) -> LintReport {
        let mut diagnostics = Vec::new();
        if let Some(g) = self.graph {
            let name = |id: TaskId| match &self.namer {
                Some(f) => f(id),
                None => graph::default_name(g, id),
            };
            diagnostics.extend(graph::check_graph(g, &name));
        }
        for spec in &self.collectives {
            diagnostics.extend(collective::check_collectives(spec));
        }
        for claim in &self.memory {
            diagnostics.extend(memory::check_memory(claim));
        }
        if let Some(set) = &self.inserts {
            diagnostics.extend(inserts::check_inserts(set));
        }
        if let Some(dp) = &self.dep_points {
            diagnostics.extend(inserts::check_dep_points(dp));
        }
        for spec in &self.checkpoints {
            diagnostics.extend(checkpoint::check_checkpoints(spec));
        }
        if let Some(spec) = &self.fill {
            diagnostics.extend(fill::check_fill(spec));
        }
        diagnostics.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.code));
        LintReport { diagnostics }
    }
}

/// Lints a bare task graph: structural passes plus the DP-collective
/// sequence check derived from the graph's own `DpComm` queues and the
/// encoder↔LLM p2p channel-order check derived from its `EncP2p` queues.
pub fn lint_graph(g: &TaskGraph) -> LintReport {
    Analyzer::new()
        .graph(g)
        .collectives(CollectiveSpec::from_graph(g))
        .collectives(CollectiveSpec::enc_p2p_from_graph(g))
        .analyze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_sim::{Stream, TaskKind};

    #[test]
    fn empty_analyzer_is_clean() {
        let r = Analyzer::new().analyze();
        assert!(r.is_clean());
        assert!(!r.has_errors());
    }

    #[test]
    fn clean_chain_lints_clean() {
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
        g.push(
            "c",
            1,
            Stream::Compute,
            DurNs(5),
            TaskKind::Generic,
            vec![b],
        );
        let r = lint_graph(&g);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn custom_namer_shows_in_witness() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
        let b = g.push("b", 0, Stream::Compute, DurNs(1), TaskKind::Generic, vec![]);
        g.add_dep(a, b); // a queued first but waits for b: same-queue inversion
        let r = Analyzer::new()
            .graph(&g)
            .namer(|id| format!("task<{}>", id.0))
            .analyze();
        assert!(r.has(DiagCode::StreamFifoInversion));
        let rendered = r.render();
        assert!(rendered.contains("task<0>"), "{rendered}");
    }
}
