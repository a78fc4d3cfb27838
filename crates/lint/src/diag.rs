//! Diagnostic model: codes, severities, witnesses, and the report with its
//! human-text and JSON renderers.

use std::fmt;

use optimus_json::Json;
use optimus_sim::TaskId;

/// Stable diagnostic codes, one per analysis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// OPT001: a cycle over dependency edges alone — the graph cannot
    /// execute under any scheduling policy.
    Cycle,
    /// OPT002: per-stream FIFO queue order contradicts the dependency
    /// order — the static signature of a stream deadlock the simulator
    /// would only discover by hanging.
    StreamFifoInversion,
    /// OPT003: ranks of one communicator group enqueue different collective
    /// sequences — the classic NCCL deadlock.
    CollectiveOrderMismatch,
    /// OPT004: static per-device peak memory exceeds the HBM budget.
    MemoryOverBudget,
    /// OPT005: a bubble insert escapes its claimed idle interval, overlaps
    /// a sibling claim, breaks chain order, or violates a dependency point.
    BubbleInsertOverlap,
    /// OPT006: a task with no dependency edges, alone on its stream queue —
    /// disconnected from the rest of the step.
    OrphanTask,
    /// OPT007: a schedule segment longer than the configured checkpoint
    /// interval carries no durable checkpoint claim — a failure there rolls
    /// back more work than the recovery budget allows.
    MissingCheckpoint,
    /// OPT008: a fill claim overlaps a primary-schedule claim, a checkpoint
    /// claim, or another fill claim — the bubble-fill placement would steal
    /// device time the schedule already committed elsewhere.
    FillClaimOverlap,
}

/// One row of the diagnostic registry: everything that used to be
/// hand-duplicated across `DiagCode`'s accessors, the crate-doc table, and
/// DESIGN.md. The registry is the single source of truth; consistency tests
/// pin the rendered docs to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagSpec {
    /// The enum variant this row describes.
    pub code: DiagCode,
    /// The stable code string (`OPT001` …).
    pub id: &'static str,
    /// The kebab-case lint name.
    pub slug: &'static str,
    /// The severity the pass reports at.
    pub severity: Severity,
    /// Where the diagnostic is documented.
    pub docs: &'static str,
}

/// The diagnostic registry, in numeric order. Index `i` holds the spec of
/// the `i`-th declared [`DiagCode`] variant (pinned by a test).
///
/// OPT009 (`symmetry-broken`) and OPT010 (`asymmetric-collective`) belonged
/// to the rank-symmetry certifier, which was deleted together with the
/// folded simulator. Both ids are retired and will not be reused.
pub const REGISTRY: [DiagSpec; 8] = [
    DiagSpec {
        code: DiagCode::Cycle,
        id: "OPT001",
        slug: "cycle",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::StreamFifoInversion,
        id: "OPT002",
        slug: "stream-fifo-inversion",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::CollectiveOrderMismatch,
        id: "OPT003",
        slug: "collective-order-mismatch",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::MemoryOverBudget,
        id: "OPT004",
        slug: "memory-over-budget",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::BubbleInsertOverlap,
        id: "OPT005",
        slug: "bubble-insert-overlap",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::OrphanTask,
        id: "OPT006",
        slug: "orphan-task",
        severity: Severity::Warning,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::MissingCheckpoint,
        id: "OPT007",
        slug: "missing-durable-checkpoint",
        severity: Severity::Warning,
        docs: "DESIGN.md §9",
    },
    DiagSpec {
        code: DiagCode::FillClaimOverlap,
        id: "OPT008",
        slug: "fill-claim-overlap",
        severity: Severity::Error,
        docs: "DESIGN.md §9",
    },
];

impl DiagCode {
    /// All codes, in numeric order.
    pub const ALL: [DiagCode; 8] = [
        DiagCode::Cycle,
        DiagCode::StreamFifoInversion,
        DiagCode::CollectiveOrderMismatch,
        DiagCode::MemoryOverBudget,
        DiagCode::BubbleInsertOverlap,
        DiagCode::OrphanTask,
        DiagCode::MissingCheckpoint,
        DiagCode::FillClaimOverlap,
    ];

    /// This code's registry row.
    pub fn spec(self) -> &'static DiagSpec {
        // Declaration order matches registry order (pinned by a test).
        &REGISTRY[self as usize]
    }

    /// The stable code string (`OPT001` …).
    pub fn code(self) -> &'static str {
        self.spec().id
    }

    /// The kebab-case lint name.
    pub fn name(self) -> &'static str {
        self.spec().slug
    }

    /// The severity this pass reports at. Orphan tasks and missing durable
    /// checkpoints are suspicious but harmless to execution, so they warn;
    /// everything else is an error.
    pub fn default_severity(self) -> Severity {
        self.spec().severity
    }

    /// Where this diagnostic is documented.
    pub fn docs(self) -> &'static str {
        self.spec().docs
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not execution-blocking.
    Warning,
    /// The schedule is unsafe: it would deadlock, over-subscribe memory, or
    /// delay the critical path.
    Error,
}

impl Severity {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One element of a diagnostic's evidence trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The task involved, when the evidence points at a graph node.
    pub task: Option<TaskId>,
    /// Human-readable description of this element's role.
    pub detail: String,
}

impl Witness {
    /// A witness pointing at a task.
    pub fn task(id: TaskId, detail: impl Into<String>) -> Witness {
        Witness {
            task: Some(id),
            detail: detail.into(),
        }
    }

    /// A witness with no task anchor (group names, devices, intervals).
    pub fn note(detail: impl Into<String>) -> Witness {
        Witness {
            task: None,
            detail: detail.into(),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: DiagCode,
    /// How bad it is.
    pub severity: Severity,
    /// One-line statement of the defect.
    pub message: String,
    /// Evidence: the minimal cycle, the diverging rank, the escaping claim.
    pub witness: Vec<Witness>,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: DiagCode, message: impl Into<String>, witness: Vec<Witness>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            witness,
        }
    }

    /// `CODE name severity: message` plus indented witness lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} [{}]: {}",
            self.code,
            self.severity.label(),
            self.message
        );
        for w in &self.witness {
            out.push_str("\n    ");
            match w.task {
                Some(t) => out.push_str(&format!("task {}: {}", t.0, w.detail)),
                None => out.push_str(&w.detail),
            }
        }
        out
    }

    /// One-line summary (code + message, no witnesses).
    pub fn summary(&self) -> String {
        format!("{}: {}", self.code, self.message)
    }

    /// The diagnostic as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::Str(self.code.code().into())),
            ("name", Json::Str(self.code.name().into())),
            ("severity", Json::Str(self.severity.label().into())),
            ("message", Json::Str(self.message.clone())),
            (
                "witness",
                Json::Arr(
                    self.witness
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("task", w.task.map_or(Json::Null, |t| Json::Num(t.0 as f64))),
                                ("detail", Json::Str(w.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Everything the analyzer found, most severe first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True when some finding carries this code.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of findings with this code.
    pub fn count(&self, code: DiagCode) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// One-line summaries (code + message), for embedding in errors.
    pub fn summaries(&self) -> Vec<String> {
        self.diagnostics.iter().map(Diagnostic::summary).collect()
    }

    /// Merges another report into this one, keeping most-severe-first order.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.diagnostics
            .sort_by_key(|d| (std::cmp::Reverse(d.severity), d.code));
    }

    /// Human-readable rendering; `"clean"` when nothing was found.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "clean".into();
        }
        self.diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The report as a JSON document (deterministic field order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clean", Json::Bool(self.is_clean())),
            ("errors", Json::Num(self.errors().count() as f64)),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_ordered() {
        let codes: Vec<&str> = DiagCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            vec!["OPT001", "OPT002", "OPT003", "OPT004", "OPT005", "OPT006", "OPT007", "OPT008"]
        );
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn registry_matches_declaration_order() {
        // `DiagCode::spec` indexes the registry by discriminant; this is the
        // test that licenses it.
        assert_eq!(REGISTRY.len(), DiagCode::ALL.len());
        for (i, (spec, &code)) in REGISTRY.iter().zip(DiagCode::ALL.iter()).enumerate() {
            assert_eq!(spec.code, code, "registry row {i} out of order");
            assert_eq!(code as usize, i, "variant {code} declared out of order");
            assert_eq!(spec.id, format!("OPT{:03}", i + 1));
            assert_eq!(code.default_severity(), spec.severity);
            assert!(!code.docs().is_empty());
        }
    }

    #[test]
    fn registry_is_the_single_source_of_truth_for_docs() {
        // The crate-doc table in lib.rs and the DESIGN.md table must carry
        // one row per registry entry — the registry is authoritative, the
        // rendered docs merely mirror it.
        let lib_src = include_str!("lib.rs");
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
        for spec in &REGISTRY {
            assert!(
                lib_src.contains(&format!("| {} | `{}`", spec.id, spec.slug)),
                "lib.rs crate-doc table is missing {} `{}`",
                spec.id,
                spec.slug
            );
            assert!(
                design.contains(spec.id) && design.contains(spec.slug),
                "DESIGN.md is missing {} `{}`",
                spec.id,
                spec.slug
            );
        }
    }

    #[test]
    fn report_renders_and_serializes() {
        let mut r = LintReport::default();
        assert_eq!(r.render(), "clean");
        r.merge(LintReport {
            diagnostics: vec![Diagnostic::new(
                DiagCode::OrphanTask,
                "task 3 is disconnected",
                vec![Witness::task(TaskId(3), "`enc` on device 1")],
            )],
        });
        assert!(r.has(DiagCode::OrphanTask));
        assert!(!r.has_errors());
        let text = r.render();
        assert!(text.contains("OPT006 orphan-task [warning]"), "{text}");
        assert!(text.contains("task 3"), "{text}");
        let json = r.to_json().to_string();
        assert!(json.contains("\"OPT006\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut r = LintReport {
            diagnostics: vec![Diagnostic::new(DiagCode::OrphanTask, "w", vec![])],
        };
        r.merge(LintReport {
            diagnostics: vec![Diagnostic::new(DiagCode::Cycle, "e", vec![])],
        });
        assert_eq!(r.diagnostics[0].code, DiagCode::Cycle);
        assert!(r.has_errors());
        assert_eq!(r.summaries()[0], "OPT001 cycle: e");
    }
}
