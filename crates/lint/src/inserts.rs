//! Bubble-insert validity (OPT005).
//!
//! Optimus fills LLM pipeline bubbles with encoder kernels. A *claim* is the
//! scheduler's assertion that one inserted kernel occupies `[start, end)` on
//! a device; an *idle interval* is a bubble the LLM profile proved free
//! (leading/interior/trailing compute gaps, or TP-comm idle windows for
//! communication kernels). This pass checks three things without
//! simulating:
//!
//! 1. **containment** — every claim fits entirely inside some idle interval
//!    of the matching kind on its device (indexed: the intervals of each
//!    `(device, kind)` sorted by start with a running maximum of their ends,
//!    so each claim costs one binary search);
//! 2. **exclusivity** — no two claims on the same `(device, lane, kind)`
//!    overlap (different lanes legitimately run concurrently on different
//!    TP subgroups of the same pipeline stage);
//! 3. **chain order** — claims belonging to one dependency chain occupy
//!    non-overlapping, position-ordered spans.
//!
//! [`check_dep_points`] additionally mirrors the scheduler's
//! `CheckEncLLMDep` (§4.3) sorted-matching conditions on encoder
//! finish/start times versus LLM dependency points.

use std::collections::BTreeMap;

use crate::diag::{DiagCode, Diagnostic, Witness};

/// Signed nanosecond timestamp (matches `optimus_core::profile::Ts`; encoder
/// work may be scheduled before the LLM step origin).
pub type Time = i64;

/// One proven-idle interval on a device timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleInterval {
    /// Device index.
    pub device: u32,
    /// True for TP-comm idle windows (communication inserts), false for
    /// compute bubbles.
    pub comm: bool,
    /// Interval start.
    pub start: Time,
    /// Interval end.
    pub end: Time,
}

/// One inserted kernel's claimed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertClaim {
    /// Device index.
    pub device: u32,
    /// TP lane (colocation sub-group). Claims on different lanes of the same
    /// device may overlap in time.
    pub lane: u32,
    /// True for communication kernels (claim against comm windows).
    pub comm: bool,
    /// Claimed start.
    pub start: Time,
    /// Claimed end.
    pub end: Time,
    /// Display label.
    pub label: String,
    /// `(chain id, position)` when the insert belongs to an ordered
    /// dependency chain (e.g. the kernels of one encoder microbatch).
    pub chain: Option<(u32, u32)>,
}

/// The full set of idle intervals and claims for one schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertSet {
    /// Proven-idle intervals.
    pub intervals: Vec<IdleInterval>,
    /// Claimed insert spans.
    pub claims: Vec<InsertClaim>,
}

fn span(start: Time, end: Time) -> String {
    format!("[{start}, {end})")
}

/// The idle intervals of one `(device, comm)` kind, sorted by
/// `(start, end)`, with the running maximum of their ends.
struct Idle {
    sorted: Vec<(Time, Time)>,
    reach: Vec<Time>,
}

impl Idle {
    /// How many intervals start at or before `t`.
    fn at_or_before(&self, t: Time) -> usize {
        self.sorted.partition_point(|&(s, _)| s <= t)
    }

    /// Some interval contains `[start, end)` iff one of those starting at or
    /// before `start` ends at or after `end`.
    fn contains(&self, start: Time, end: Time) -> bool {
        let p = self.at_or_before(start);
        p > 0 && self.reach[p - 1] >= end
    }
}

/// Groups the idle intervals by `(device, comm)`.
fn idle_index(intervals: &[IdleInterval]) -> BTreeMap<(u32, bool), Idle> {
    let mut groups: BTreeMap<(u32, bool), Vec<(Time, Time)>> = BTreeMap::new();
    for iv in intervals {
        groups
            .entry((iv.device, iv.comm))
            .or_default()
            .push((iv.start, iv.end));
    }
    groups
        .into_iter()
        .map(|(k, mut sorted)| {
            sorted.sort_unstable();
            let reach = sorted
                .iter()
                .scan(Time::MIN, |m, &(_, e)| {
                    *m = (*m).max(e);
                    Some(*m)
                })
                .collect();
            (k, Idle { sorted, reach })
        })
        .collect()
}

/// Runs OPT005 over an insert set.
pub(crate) fn check_inserts(set: &InsertSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // 1. Containment.
    let idle = idle_index(&set.intervals);
    for c in &set.claims {
        let group = idle.get(&(c.device, c.comm));
        if !group.is_some_and(|g| g.contains(c.start, c.end)) {
            let kind = if c.comm {
                "comm window"
            } else {
                "compute bubble"
            };
            let witness = match group {
                None => format!("device {} has no idle {kind}s at all", c.device),
                Some(g) => {
                    // The last interval starting at or before the claim and
                    // the first one after it.
                    let p = g.at_or_before(c.start);
                    let nearest = g.sorted[p.saturating_sub(1)..(p + 1).min(g.sorted.len())]
                        .iter()
                        .map(|&(s, e)| span(s, e))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("nearest idle {kind}s on device {}: {nearest}", c.device)
                }
            };
            out.push(Diagnostic::new(
                DiagCode::BubbleInsertOverlap,
                format!(
                    "insert `{}` claims {} on device {} but no idle {kind} \
                     contains it",
                    c.label,
                    span(c.start, c.end),
                    c.device
                ),
                vec![Witness::note(witness)],
            ));
        }
    }

    // 2. Exclusivity per (device, lane, kind).
    let mut by_slot: BTreeMap<(u32, u32, bool), Vec<&InsertClaim>> = BTreeMap::new();
    for c in &set.claims {
        by_slot
            .entry((c.device, c.lane, c.comm))
            .or_default()
            .push(c);
    }
    for ((device, lane, _comm), mut claims) in by_slot {
        claims.sort_by_key(|c| (c.start, c.end));
        for pair in claims.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.start < a.end && a.start < b.end {
                out.push(Diagnostic::new(
                    DiagCode::BubbleInsertOverlap,
                    format!(
                        "inserts `{}` {} and `{}` {} overlap on device {device} \
                         lane {lane}",
                        a.label,
                        span(a.start, a.end),
                        b.label,
                        span(b.start, b.end),
                    ),
                    vec![],
                ));
            }
        }
    }

    // 3. Chain order.
    let mut chains: BTreeMap<u32, Vec<&InsertClaim>> = BTreeMap::new();
    for c in &set.claims {
        if let Some((id, _)) = c.chain {
            chains.entry(id).or_default().push(c);
        }
    }
    for (id, mut links) in chains {
        links.sort_by_key(|c| c.chain.expect("chained").1);
        for pair in links.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.start < a.end {
                out.push(Diagnostic::new(
                    DiagCode::BubbleInsertOverlap,
                    format!(
                        "chain {id}: `{}` {} starts before its predecessor \
                         `{}` {} finishes",
                        b.label,
                        span(b.start, b.end),
                        a.label,
                        span(a.start, a.end),
                    ),
                    vec![],
                ));
            }
        }
    }
    out
}

/// Encoder↔LLM dependency points, mirroring the scheduler's
/// `CheckEncLLMDep` (§4.3): with both sides sorted, the `k`-th encoder
/// forward finish must not exceed the `k`-th forward point, and the `k`-th
/// encoder backward start must not precede the `k`-th backward point plus
/// the P2P margin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepPoints {
    /// Encoder forward finish times (`EF_i`), one per microbatch.
    pub ef: Vec<Time>,
    /// LLM forward dependency points (`F_i`).
    pub f_points: Vec<Time>,
    /// Encoder backward start times (`EB_i`).
    pub eb: Vec<Time>,
    /// LLM backward dependency points (`B_i`).
    pub b_points: Vec<Time>,
    /// P2P margin applied to cross-device backward dependencies.
    pub p2p_margin: Time,
}

/// Runs the static `CheckEncLLMDep` mirror; violations report as OPT005.
pub(crate) fn check_dep_points(dp: &DepPoints) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let pairs = |what: &str,
                 enc: &[Time],
                 llm: &[Time],
                 ok: &dyn Fn(Time, Time) -> bool,
                 out: &mut Vec<Diagnostic>| {
        if enc.len() != llm.len() {
            out.push(Diagnostic::new(
                DiagCode::BubbleInsertOverlap,
                format!(
                    "{what}: {} encoder time(s) against {} LLM dependency \
                     point(s) — every microbatch must be matched",
                    enc.len(),
                    llm.len()
                ),
                vec![],
            ));
            return;
        }
        let mut e = enc.to_vec();
        e.sort_unstable();
        let mut l = llm.to_vec();
        l.sort_unstable();
        for (k, (ev, lv)) in e.iter().zip(&l).enumerate() {
            if !ok(*ev, *lv) {
                out.push(Diagnostic::new(
                    DiagCode::BubbleInsertOverlap,
                    format!(
                        "{what}: sorted position {k} violates CheckEncLLMDep \
                         (encoder {ev} vs LLM point {lv})"
                    ),
                    vec![],
                ));
            }
        }
    };
    pairs(
        "forward (EF vs F)",
        &dp.ef,
        &dp.f_points,
        &|e, f| e <= f,
        &mut out,
    );
    let margin = dp.p2p_margin;
    pairs(
        "backward (EB vs B)",
        &dp.eb,
        &dp.b_points,
        &move |e, b| e >= b + margin,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(device: u32, comm: bool, start: Time, end: Time) -> IdleInterval {
        IdleInterval {
            device,
            comm,
            start,
            end,
        }
    }

    fn claim(device: u32, lane: u32, comm: bool, start: Time, end: Time) -> InsertClaim {
        InsertClaim {
            device,
            lane,
            comm,
            start,
            end,
            label: "enc".into(),
            chain: None,
        }
    }

    #[test]
    fn contained_claims_are_clean() {
        let set = InsertSet {
            intervals: vec![iv(0, false, 0, 100), iv(0, true, 20, 60)],
            claims: vec![claim(0, 0, false, 10, 40), claim(0, 0, true, 20, 50)],
        };
        assert!(check_inserts(&set).is_empty());
    }

    #[test]
    fn escaping_claim_is_flagged() {
        let set = InsertSet {
            intervals: vec![iv(0, false, 0, 30)],
            claims: vec![claim(0, 0, false, 10, 40)],
        };
        let diags = check_inserts(&set);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::BubbleInsertOverlap);
        assert!(diags[0].message.contains("no idle"), "{}", diags[0].message);
    }

    #[test]
    fn escaping_claim_names_only_the_nearest_intervals() {
        // 5000 comm windows [10k, 10k + 5), listed last to first.
        let intervals = (0..5000).rev().map(|k| iv(0, true, 10 * k, 10 * k + 5));
        let set = InsertSet {
            intervals: intervals.collect(),
            claims: vec![
                claim(0, 0, true, 2_003, 2_008),
                claim(0, 1, true, -5, 1),
                claim(0, 2, true, 49_995, 50_001),
                claim(1, 0, true, 0, 1),
            ],
        };
        let notes: Vec<_> = check_inserts(&set).into_iter().map(|d| d.witness).collect();
        let note = |s: &str| vec![Witness::note(s)];
        assert_eq!(
            notes,
            vec![
                note("nearest idle comm windows on device 0: [2000, 2005), [2010, 2015)"),
                note("nearest idle comm windows on device 0: [0, 5)"),
                note("nearest idle comm windows on device 0: [49990, 49995)"),
                note("device 1 has no idle comm windows at all"),
            ]
        );
    }

    #[test]
    fn comm_claim_cannot_use_compute_bubble() {
        let set = InsertSet {
            intervals: vec![iv(0, false, 0, 100)],
            claims: vec![claim(0, 0, true, 10, 20)],
        };
        assert_eq!(check_inserts(&set).len(), 1);
    }

    #[test]
    fn same_lane_overlap_is_flagged_but_cross_lane_is_fine() {
        let intervals = vec![iv(0, false, 0, 100)];
        let overlapping = InsertSet {
            intervals: intervals.clone(),
            claims: vec![claim(0, 0, false, 10, 40), claim(0, 0, false, 30, 60)],
        };
        assert_eq!(check_inserts(&overlapping).len(), 1);
        let cross_lane = InsertSet {
            intervals,
            claims: vec![claim(0, 0, false, 10, 40), claim(0, 1, false, 30, 60)],
        };
        assert!(check_inserts(&cross_lane).is_empty());
    }

    #[test]
    fn chain_order_violation_is_flagged() {
        let mut a = claim(0, 0, false, 10, 40);
        a.chain = Some((7, 0));
        let mut b = claim(1, 0, false, 20, 60);
        b.chain = Some((7, 1)); // starts before its predecessor ends
        let set = InsertSet {
            intervals: vec![iv(0, false, 0, 100), iv(1, false, 0, 100)],
            claims: vec![a, b],
        };
        let diags = check_inserts(&set);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("chain 7"), "{}", diags[0].message);
    }

    #[test]
    fn dep_points_accept_matching_sequences() {
        let dp = DepPoints {
            ef: vec![30, 10, 20],
            f_points: vec![25, 15, 40],
            eb: vec![100, 120],
            b_points: vec![90, 110],
            p2p_margin: 5,
        };
        assert!(check_dep_points(&dp).is_empty());
    }

    #[test]
    fn late_encoder_forward_is_flagged() {
        let dp = DepPoints {
            ef: vec![50],
            f_points: vec![40],
            ..DepPoints::default()
        };
        let diags = check_dep_points(&dp);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("forward"), "{}", diags[0].message);
    }

    #[test]
    fn early_backward_and_length_mismatch_are_flagged() {
        let dp = DepPoints {
            eb: vec![90],
            b_points: vec![90],
            p2p_margin: 5, // 90 < 90 + 5
            ..DepPoints::default()
        };
        assert_eq!(check_dep_points(&dp).len(), 1);
        let dp2 = DepPoints {
            ef: vec![1, 2],
            f_points: vec![1],
            ..DepPoints::default()
        };
        assert_eq!(check_dep_points(&dp2).len(), 1);
    }
}
