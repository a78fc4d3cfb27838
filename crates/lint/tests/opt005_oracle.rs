//! Differential oracle for OPT005 (`bubble-insert-overlap`).
//!
//! `oracle` below is the reference definition of the insert check: the
//! containment pass scans every idle interval for every claim (a claim fits
//! iff some interval of its kind on its device has `start <= claim.start`
//! and `claim.end <= end`), followed by the per-slot exclusivity pass and
//! the chain-order pass. The tests assert that the analyzer emits the same
//! diagnostics, in the same order, with the same code, severity and
//! message, over seeded insert sets that cover several devices and both
//! kinds; overlapping, nested, touching and empty intervals; claims on
//! exact interval boundaries; zero-length and inverted claims; and claims
//! on a device with no intervals. Witnesses are not compared (they name the
//! nearest intervals, not every one), except the "no idle … at all" note.

use std::collections::BTreeMap;

use optimus_detrand::rngs::StdRng;
use optimus_detrand::{RngExt, SeedableRng};
use optimus_lint::{Analyzer, DiagCode, Diagnostic, IdleInterval, InsertClaim, InsertSet, Witness};

fn span(start: i64, end: i64) -> String {
    format!("[{start}, {end})")
}

/// The reference insert check: a linear containment scan per claim.
fn oracle(set: &InsertSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in &set.claims {
        let fits = set.intervals.iter().any(|iv| {
            iv.device == c.device && iv.comm == c.comm && iv.start <= c.start && c.end <= iv.end
        });
        if !fits {
            let kind = if c.comm {
                "comm window"
            } else {
                "compute bubble"
            };
            let none = !set
                .intervals
                .iter()
                .any(|iv| iv.device == c.device && iv.comm == c.comm);
            let witness = if none {
                vec![Witness::note(format!(
                    "device {} has no idle {kind}s at all",
                    c.device
                ))]
            } else {
                vec![]
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
                witness,
            ));
        }
    }
    let mut by_slot: BTreeMap<(u32, u32, bool), Vec<&InsertClaim>> = BTreeMap::new();
    for c in &set.claims {
        by_slot
            .entry((c.device, c.lane, c.comm))
            .or_default()
            .push(c);
    }
    for ((device, lane, _), mut claims) in by_slot {
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

/// Devices `0..DEVICES` carry intervals; claims also land on `DEVICES`,
/// which has none.
const DEVICES: u32 = 4;

/// A seeded insert set on a small time axis, so that overlaps, nesting,
/// touching ends and boundary claims are common.
fn insert_set(seed: u64) -> InsertSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut intervals: Vec<IdleInterval> = Vec::new();
    for _ in 0..rng.random_range(0usize..24) {
        let device = rng.random_range(0..DEVICES);
        let comm = rng.random_range(0u32..3) == 0;
        let iv = match (intervals.last().copied(), rng.random_range(0u32..6)) {
            // Nested inside the previous interval.
            (Some(p), 0) if p.end > p.start => {
                let start = p.start + rng.random_range(0..(p.end - p.start) as u64) as i64;
                let end = start + rng.random_range(0..=(p.end - start) as u64) as i64;
                IdleInterval { start, end, ..p }
            }
            // Touching the previous interval's end.
            (Some(p), 1) => IdleInterval {
                start: p.end,
                end: p.end + rng.random_range(0u64..12) as i64,
                ..p
            },
            // Empty.
            (_, 2) => {
                let t = rng.random_range(0u64..60) as i64;
                IdleInterval {
                    device,
                    comm,
                    start: t,
                    end: t,
                }
            }
            _ => {
                let start = rng.random_range(0u64..60) as i64;
                IdleInterval {
                    device,
                    comm,
                    start,
                    end: start + rng.random_range(1u64..20) as i64,
                }
            }
        };
        intervals.push(iv);
    }
    // A point on an interval boundary, when there is one.
    let boundary = |rng: &mut StdRng| -> Option<i64> {
        if intervals.is_empty() {
            return None;
        }
        let iv = intervals[rng.random_range(0..intervals.len())];
        Some(if rng.random_range(0u32..2) == 0 {
            iv.start
        } else {
            iv.end
        })
    };
    let mut claims = Vec::new();
    for i in 0..rng.random_range(0usize..24) {
        let device = rng.random_range(0..=DEVICES);
        let comm = rng.random_range(0u32..3) == 0;
        let start = match rng.random_range(0u32..3) {
            0 => boundary(&mut rng),
            _ => None,
        }
        .unwrap_or_else(|| rng.random_range(0u64..80) as i64);
        let end = match rng.random_range(0u32..6) {
            0 => boundary(&mut rng).unwrap_or(start),
            1 => start,                                     // zero-length
            2 => start - rng.random_range(1u64..10) as i64, // inverted
            _ => start + rng.random_range(1u64..16) as i64,
        };
        let chain = match rng.random_range(0u32..4) {
            0 => Some((rng.random_range(0u32..3), rng.random_range(0u32..6))),
            _ => None,
        };
        claims.push(InsertClaim {
            device,
            lane: rng.random_range(0u32..2),
            comm,
            start,
            end,
            label: format!("k{i}"),
            chain,
        });
    }
    InsertSet { intervals, claims }
}

/// The headline of each diagnostic: what the differential compares.
fn headline(d: &Diagnostic) -> (DiagCode, String, String) {
    (d.code, d.severity.label().to_string(), d.message.clone())
}

#[test]
fn insert_check_matches_linear_containment_oracle() {
    // Coverage of the shapes the oracle must agree on, across all seeds.
    let (mut fits, mut escapes, mut empty_device) = (0usize, 0usize, 0usize);
    let (mut zero_len, mut inverted, mut on_boundary) = (0usize, 0usize, 0usize);
    let (mut nested, mut touching, mut empty_iv) = (0usize, 0usize, 0usize);
    for seed in 0..400 {
        let set = insert_set(seed);
        let got = Analyzer::new().inserts(set.clone()).analyze().diagnostics;
        let want = oracle(&set);
        assert_eq!(
            got.iter().map(headline).collect::<Vec<_>>(),
            want.iter().map(headline).collect::<Vec<_>>(),
            "seed {seed}: {set:?}"
        );
        for (g, w) in got.iter().zip(&want) {
            if let Some(note) = w.witness.first() {
                assert_eq!(g.witness, vec![note.clone()], "seed {seed}");
            }
        }

        let ivs = &set.intervals;
        for (i, a) in ivs.iter().enumerate() {
            empty_iv += usize::from(a.start == a.end);
            for b in &ivs[i + 1..] {
                let same = a.device == b.device && a.comm == b.comm;
                nested += usize::from(same && a.start <= b.start && b.end <= a.end);
                touching += usize::from(same && a.end == b.start);
            }
        }
        for c in &set.claims {
            let contained = ivs.iter().any(|iv| {
                iv.device == c.device && iv.comm == c.comm && iv.start <= c.start && c.end <= iv.end
            });
            fits += usize::from(contained);
            escapes += usize::from(!contained);
            empty_device += usize::from(c.device == DEVICES);
            zero_len += usize::from(c.start == c.end);
            inverted += usize::from(c.end < c.start);
            on_boundary += usize::from(ivs.iter().any(|iv| {
                iv.device == c.device
                    && iv.comm == c.comm
                    && (c.start == iv.start || c.end == iv.end)
            }));
        }
    }
    for (what, n) in [
        ("contained claims", fits),
        ("escaping claims", escapes),
        ("claims on a device with no intervals", empty_device),
        ("zero-length claims", zero_len),
        ("inverted claims", inverted),
        ("claims on an interval boundary", on_boundary),
        ("nested intervals", nested),
        ("touching intervals", touching),
        ("empty intervals", empty_iv),
    ] {
        assert!(n >= 20, "only {n} {what} generated");
    }
}
