//! Probe scoring: makespan regret, lint violations, exact-ledger checks.
//!
//! A probe evaluates one [`Perturbation`] against the
//! harness's chosen plan and condenses the damage into a [`ChaosScore`].
//! Scores order lexicographically by severity: an exact-ledger violation in
//! the recovery lifecycle outranks any number of schedule lint errors,
//! which outrank any amount of makespan regret. The search keeps the
//! worst offenders under this order; the shrinker preserves whichever
//! [`ChaosPredicate`] the counterexample was minted for.

use optimus_json::Json;
use optimus_lint::{Analyzer, InsertClaim, InsertSet};
use optimus_recovery::{RecoveryOutcome, SegmentKind};

use crate::error::ChaosError;
use crate::perturbation::Perturbation;

/// Severity-ordered damage summary for one probe.
///
/// Derived `Ord` is lexicographic over the declared field order, which is
/// exactly the severity order we want: ledger violations, then lint
/// errors, then regret.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChaosScore {
    /// Exact-ledger invariant violations in the recovery lifecycle.
    pub ledger_violations: u32,
    /// Error-severity lint diagnostics on the perturbed insert schedule.
    pub lint_errors: u32,
    /// Makespan regret of the static plan vs a fault-aware re-plan, ns
    /// (clamped at zero: a re-plan can only help).
    pub regret_ns: i64,
}

impl ChaosScore {
    /// True when the probe found nothing at all.
    pub fn is_zero(&self) -> bool {
        *self == ChaosScore::default()
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "ledger_violations",
                Json::Num(self.ledger_violations as f64),
            ),
            ("lint_errors", Json::Num(self.lint_errors as f64)),
            ("regret_ns", Json::Num(self.regret_ns as f64)),
        ])
    }

    /// Parses the JSON form.
    pub fn from_json(j: &Json) -> Result<ChaosScore, ChaosError> {
        let field = |k: &str| -> Result<f64, ChaosError> {
            j.field(k)
                .and_then(|v| v.as_f64())
                .map_err(|e| ChaosError::Fixture(format!("score.{k}: {e}")))
        };
        Ok(ChaosScore {
            ledger_violations: field("ledger_violations")? as u32,
            lint_errors: field("lint_errors")? as u32,
            regret_ns: field("regret_ns")? as i64,
        })
    }
}

/// Full record of one probe evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// The perturbation that was probed.
    pub perturbation: Perturbation,
    /// Fault-free makespan of the chosen plan, ns.
    pub baseline_ns: i64,
    /// Makespan of the chosen plan under the perturbation, ns.
    pub static_ns: i64,
    /// Makespan after a fault-aware re-plan, ns.
    pub replan_ns: i64,
    /// Rendered error diagnostics from the perturbed-schedule lint.
    pub lint_notes: Vec<String>,
    /// Exact-ledger violations from the recovery lifecycle.
    pub ledger_notes: Vec<String>,
    /// The condensed score.
    pub score: ChaosScore,
}

impl ProbeReport {
    /// JSON form (fixture payload).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("perturbation", self.perturbation.to_json()),
            ("baseline_ns", Json::Num(self.baseline_ns as f64)),
            ("static_ns", Json::Num(self.static_ns as f64)),
            ("replan_ns", Json::Num(self.replan_ns as f64)),
            (
                "lint_notes",
                Json::Arr(
                    self.lint_notes
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "ledger_notes",
                Json::Arr(
                    self.ledger_notes
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("score", self.score.to_json()),
        ])
    }
}

/// What a minted counterexample demonstrates; the shrinker preserves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPredicate {
    /// The static plan's regret vs a fault-aware re-plan is at least this
    /// many ns.
    RegretAtLeast(i64),
    /// The perturbed schedule has at least one error-severity lint
    /// diagnostic.
    LintErrors,
    /// The recovery lifecycle's exact ledger is violated.
    LedgerViolations,
}

impl ChaosPredicate {
    /// Does the probe satisfy the predicate?
    pub fn holds(&self, report: &ProbeReport) -> bool {
        match self {
            ChaosPredicate::RegretAtLeast(min) => report.score.regret_ns >= *min,
            ChaosPredicate::LintErrors => report.score.lint_errors > 0,
            ChaosPredicate::LedgerViolations => report.score.ledger_violations > 0,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            ChaosPredicate::RegretAtLeast(min) => Json::obj(vec![
                ("kind", Json::Str("regret_at_least".into())),
                ("min_ns", Json::Num(*min as f64)),
            ]),
            ChaosPredicate::LintErrors => {
                Json::obj(vec![("kind", Json::Str("lint_errors".into()))])
            }
            ChaosPredicate::LedgerViolations => {
                Json::obj(vec![("kind", Json::Str("ledger_violations".into()))])
            }
        }
    }

    /// Parses the JSON form.
    pub fn from_json(j: &Json) -> Result<ChaosPredicate, ChaosError> {
        let kind = j
            .field("kind")
            .and_then(|v| v.as_str())
            .map_err(|e| ChaosError::Fixture(format!("predicate.kind: {e}")))?;
        match kind {
            "regret_at_least" => {
                let min = j
                    .field("min_ns")
                    .and_then(|v| v.as_f64())
                    .map_err(|e| ChaosError::Fixture(format!("predicate.min_ns: {e}")))?;
                Ok(ChaosPredicate::RegretAtLeast(min as i64))
            }
            "lint_errors" => Ok(ChaosPredicate::LintErrors),
            "ledger_violations" => Ok(ChaosPredicate::LedgerViolations),
            other => Err(ChaosError::Fixture(format!(
                "unknown predicate kind {other:?}"
            ))),
        }
    }

    /// Stable label for display.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosPredicate::RegretAtLeast(_) => "regret_at_least",
            ChaosPredicate::LintErrors => "lint_errors",
            ChaosPredicate::LedgerViolations => "ledger_violations",
        }
    }
}

/// Applies the perturbation's timing damage to a verified insert schedule.
///
/// Idle intervals are the *capacity* the planner proved; they stay fixed.
/// The claims are what the runtime would actually execute, so a straggler
/// stretches every non-comm claim on its device and kernel jitter
/// stretches every claim — exactly the failure modes OPT005 exists to
/// catch. Lengths scale as `end = start + round(len · f)`.
pub fn perturbed_insert_set(set: &InsertSet, p: &Perturbation) -> InsertSet {
    let jitter = 1.0 + p.jitter_pct as f64 / 100.0;
    let straggle = 1.0 + p.straggler_pct as f64 / 100.0;
    let claims = set
        .claims
        .iter()
        .map(|c| {
            let mut f = jitter;
            if p.straggler_pct > 0 && c.device == p.straggler_device && !c.comm {
                f *= straggle;
            }
            let len = (c.end - c.start).max(0);
            let stretched = (len as f64 * f).round() as i64;
            InsertClaim {
                end: c.start + stretched,
                ..c.clone()
            }
        })
        .collect();
    InsertSet {
        intervals: set.intervals.clone(),
        claims,
    }
}

/// Runs the schedule lint over an insert set and returns the rendered
/// error diagnostics.
pub fn lint_violations(set: &InsertSet) -> Vec<String> {
    let report = Analyzer::new().inserts(set.clone()).analyze();
    report.errors().map(|d| d.summary()).collect()
}

/// Checks the exact-ledger invariants of a recovery lifecycle outcome.
///
/// Returns one note per violated invariant (empty means the ledger is
/// exact):
///
/// 1. `wall == horizon · step + lost.total()` — the headline ledger.
/// 2. The segment timeline is gapless: starts at 0, ends at `wall`,
///    contiguous, every segment non-empty and non-negative.
/// 3. Per-kind segment sums reconcile against the lost-work breakdown
///    (detect ↔ detection, restart+reshard ↔ restart, replay ↔ replay,
///    ckpt ↔ spill, wait ↔ wait, degraded excess ↔ degraded).
/// 4. No lost-work component is negative.
/// 5. At most one recovery measurement per failure seen.
pub fn ledger_violations(outcome: &RecoveryOutcome) -> Vec<String> {
    let mut notes = Vec::new();
    let expected = outcome.horizon_steps as i64 * outcome.step_ns + outcome.lost.total();
    if outcome.wall_ns != expected {
        notes.push(format!(
            "wall ledger: wall={} != horizon*step + lost = {}",
            outcome.wall_ns, expected
        ));
    }

    if let Some(first) = outcome.segments.first() {
        if first.start != 0 {
            notes.push(format!("timeline starts at {} not 0", first.start));
        }
    }
    if let Some(last) = outcome.segments.last() {
        if last.end != outcome.wall_ns {
            notes.push(format!(
                "timeline ends at {} not wall={}",
                last.end, outcome.wall_ns
            ));
        }
    } else if outcome.wall_ns != 0 {
        notes.push(format!("no segments but wall={}", outcome.wall_ns));
    }
    for pair in outcome.segments.windows(2) {
        if pair[0].end != pair[1].start {
            notes.push(format!(
                "timeline gap: {} ends {} but {} starts {}",
                pair[0].kind.label(),
                pair[0].end,
                pair[1].kind.label(),
                pair[1].start
            ));
            break;
        }
    }
    if let Some(s) = outcome.segments.iter().find(|s| s.end <= s.start) {
        notes.push(format!(
            "empty or reversed segment {} [{}, {})",
            s.kind.label(),
            s.start,
            s.end
        ));
    }

    let sum = |kinds: &[SegmentKind]| -> i64 {
        outcome
            .segments
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.end - s.start)
            .sum()
    };
    let checks: [(&str, i64, i64); 5] = [
        (
            "detect",
            sum(&[SegmentKind::Detect]),
            outcome.lost.detection_ns,
        ),
        (
            "restart+reshard",
            sum(&[SegmentKind::Restart, SegmentKind::Reshard]),
            outcome.lost.restart_ns,
        ),
        (
            "replay",
            sum(&[SegmentKind::Replay]),
            outcome.lost.replay_ns,
        ),
        ("ckpt", sum(&[SegmentKind::Ckpt]), outcome.lost.spill_ns),
        ("wait", sum(&[SegmentKind::Wait]), outcome.lost.wait_ns),
    ];
    for (label, seg_sum, lost) in checks {
        if seg_sum != lost {
            notes.push(format!("{label} segments sum {seg_sum} != lost {lost}"));
        }
    }
    let degraded_excess: i64 = outcome
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Degraded)
        .map(|s| (s.end - s.start - outcome.step_ns).max(0))
        .sum();
    if degraded_excess != outcome.lost.degraded_ns {
        notes.push(format!(
            "degraded excess {} != lost {}",
            degraded_excess, outcome.lost.degraded_ns
        ));
    }

    let l = &outcome.lost;
    for (label, v) in [
        ("detection", l.detection_ns),
        ("restart", l.restart_ns),
        ("replay", l.replay_ns),
        ("spill", l.spill_ns),
        ("wait", l.wait_ns),
        ("degraded", l.degraded_ns),
    ] {
        if v < 0 {
            notes.push(format!("negative lost component {label}: {v}"));
        }
    }

    if outcome.recoveries_ns.len() as u32 > outcome.failures_seen {
        notes.push(format!(
            "{} recovery measurements for {} failures",
            outcome.recoveries_ns.len(),
            outcome.failures_seen
        ));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_lint::IdleInterval;
    use optimus_recovery::{LostWork, Segment};

    fn clean_outcome() -> RecoveryOutcome {
        RecoveryOutcome {
            horizon_steps: 2,
            step_ns: 100,
            wall_ns: 230,
            lost: LostWork {
                detection_ns: 10,
                spill_ns: 20,
                ..LostWork::default()
            },
            failures_seen: 1,
            recoveries_ns: vec![10],
            segments: vec![
                Segment {
                    kind: SegmentKind::Step,
                    start: 0,
                    end: 100,
                    note: "step 0".into(),
                },
                Segment {
                    kind: SegmentKind::Ckpt,
                    start: 100,
                    end: 120,
                    note: "ckpt".into(),
                },
                Segment {
                    kind: SegmentKind::Detect,
                    start: 120,
                    end: 130,
                    note: "detect".into(),
                },
                Segment {
                    kind: SegmentKind::Step,
                    start: 130,
                    end: 230,
                    note: "step 1".into(),
                },
            ],
            events: Vec::new(),
        }
    }

    #[test]
    fn score_orders_by_severity() {
        let regret = ChaosScore {
            regret_ns: 1_000_000_000,
            ..ChaosScore::default()
        };
        let lint = ChaosScore {
            lint_errors: 1,
            ..ChaosScore::default()
        };
        let ledger = ChaosScore {
            ledger_violations: 1,
            ..ChaosScore::default()
        };
        assert!(ledger > lint);
        assert!(lint > regret);
        assert!(regret > ChaosScore::default());
    }

    #[test]
    fn score_json_round_trips() {
        let s = ChaosScore {
            ledger_violations: 2,
            lint_errors: 3,
            regret_ns: 123_456_789,
        };
        assert_eq!(ChaosScore::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn predicate_json_round_trips() {
        for p in [
            ChaosPredicate::RegretAtLeast(5_000_000),
            ChaosPredicate::LintErrors,
            ChaosPredicate::LedgerViolations,
        ] {
            assert_eq!(ChaosPredicate::from_json(&p.to_json()).unwrap(), p);
        }
    }

    #[test]
    fn clean_ledger_has_no_violations() {
        assert!(ledger_violations(&clean_outcome()).is_empty());
    }

    #[test]
    fn each_ledger_invariant_fires() {
        // Headline ledger.
        let mut o = clean_outcome();
        o.wall_ns += 7;
        let notes = ledger_violations(&o);
        assert!(notes.iter().any(|n| n.contains("wall ledger")));

        // Gapless timeline.
        let mut o = clean_outcome();
        o.segments[1].start += 1;
        assert!(ledger_violations(&o)
            .iter()
            .any(|n| n.contains("timeline gap")));

        // Per-kind reconciliation.
        let mut o = clean_outcome();
        o.lost.detection_ns = 11;
        o.lost.spill_ns = 19; // keep the headline ledger balanced
        assert!(ledger_violations(&o)
            .iter()
            .any(|n| n.contains("detect segments")));

        // Negative component.
        let mut o = clean_outcome();
        o.lost.wait_ns = -5;
        o.lost.spill_ns = 25;
        assert!(ledger_violations(&o)
            .iter()
            .any(|n| n.contains("negative lost component wait")));

        // Recovery count.
        let mut o = clean_outcome();
        o.recoveries_ns = vec![1, 2];
        assert!(ledger_violations(&o)
            .iter()
            .any(|n| n.contains("recovery measurements")));
    }

    #[test]
    fn straggler_stretches_claims_out_of_their_intervals() {
        let set = InsertSet {
            intervals: vec![IdleInterval {
                device: 0,
                comm: false,
                start: 0,
                end: 110,
            }],
            claims: vec![InsertClaim {
                device: 0,
                lane: 0,
                comm: false,
                start: 0,
                end: 100,
                label: "enc".into(),
                chain: None,
            }],
        };
        assert!(lint_violations(&set).is_empty());

        let mut p = Perturbation::zero(1);
        p.straggler_device = 0;
        p.straggler_pct = 50;
        let stretched = perturbed_insert_set(&set, &p);
        assert_eq!(stretched.claims[0].end, 150);
        assert!(!lint_violations(&stretched).is_empty());
    }

    #[test]
    fn comm_claims_ignore_the_straggler_but_feel_jitter() {
        let claim = InsertClaim {
            device: 3,
            lane: 0,
            comm: true,
            start: 10,
            end: 110,
            label: "tp".into(),
            chain: None,
        };
        let set = InsertSet {
            intervals: Vec::new(),
            claims: vec![claim],
        };
        let mut p = Perturbation::zero(1);
        p.straggler_device = 3;
        p.straggler_pct = 100;
        assert_eq!(perturbed_insert_set(&set, &p).claims[0].end, 110);
        p.jitter_pct = 10;
        assert_eq!(perturbed_insert_set(&set, &p).claims[0].end, 120);
    }
}
