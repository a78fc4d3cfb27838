//! Coordinate-descent adversarial search over the perturbation space.
//!
//! The search walks fixed per-axis ladders (straggler, link degradation,
//! jitter, stalls, microbatch skew, failure sets) from a handful of seeded
//! restart points, always keeping the move that worsens the chosen plan
//! the most under the severity order of [`ChaosScore`](crate::ChaosScore). Probe batches run
//! on the deterministic worker pool and every accept/reject decision is a
//! pure function of probe results, so the search is bit-identical at any
//! worker count. All probes are memoized by the perturbation's canonical
//! key; the final report keeps the worst offenders.

use std::collections::BTreeMap;

use crate::error::ChaosError;
use crate::harness::ChaosHarness;
use crate::perturbation::{DegradedClass, FailureSpec, Perturbation};
use crate::score::ProbeReport;

/// Search budget and determinism knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSearchConfig {
    /// Seeded restart points (restart 0 is the identity perturbation).
    pub restarts: u32,
    /// Coordinate-descent sweeps per restart.
    pub sweeps: u32,
    /// Worker threads for probe batches (`0` = all cores). Results do not
    /// depend on this.
    pub workers: usize,
    /// Worst offenders kept in the findings.
    pub keep: usize,
    /// Base seed for restarts and perturbation streams.
    pub seed: u64,
}

impl Default for ChaosSearchConfig {
    fn default() -> ChaosSearchConfig {
        ChaosSearchConfig {
            restarts: 3,
            sweeps: 2,
            workers: 0,
            keep: 8,
            seed: 1,
        }
    }
}

/// What the search found.
#[derive(Debug, Clone)]
pub struct ChaosFindings {
    /// Distinct perturbations probed.
    pub probes: usize,
    /// Worst offenders, sorted worst-first (score desc, size asc, key asc).
    pub offenders: Vec<ProbeReport>,
}

impl ChaosFindings {
    /// The single worst offender, if any probe scored above zero.
    pub fn worst(&self) -> Option<&ProbeReport> {
        self.offenders.first().filter(|r| !r.score.is_zero())
    }
}

/// The perturbation axes the coordinate descent sweeps, in order.
const AXES: usize = 6;

fn straggler_ladder(num_devices: u32) -> Vec<(u32, u32)> {
    let devices = [0, num_devices / 2, num_devices.saturating_sub(1)];
    let mut out = vec![(0u32, 0u32)];
    for &pct in &[25u32, 50, 100, 200] {
        for &d in &devices {
            if !out.contains(&(d, pct)) {
                out.push((d, pct));
            }
        }
    }
    out
}

const LINK_LADDER: [(DegradedClass, u32, u32); 5] = [
    (DegradedClass::None, 0, 0),
    (DegradedClass::NvLink, 50, 100),
    (DegradedClass::NvLink, 80, 300),
    (DegradedClass::Rdma, 50, 100),
    (DegradedClass::Rdma, 80, 300),
];

const JITTER_LADDER: [u32; 5] = [0, 10, 30, 60, 90];
const STALL_LADDER: [(u32, u32); 4] = [(0, 0), (20, 200), (50, 500), (80, 1000)];
const SKEW_LADDER: [u32; 5] = [0, 25, 50, 100, 200];

fn failure_ladder(num_devices: u32) -> Vec<Vec<FailureSpec>> {
    let d = |x: u32| x.min(num_devices.saturating_sub(1));
    vec![
        vec![],
        vec![FailureSpec {
            device: d(1),
            at_pct: 40,
            downtime_ms: 50,
            permanent: false,
        }],
        vec![
            FailureSpec {
                device: d(1),
                at_pct: 30,
                downtime_ms: 50,
                permanent: false,
            },
            FailureSpec {
                device: d(2),
                at_pct: 60,
                downtime_ms: 800,
                permanent: true,
            },
        ],
        vec![
            FailureSpec {
                device: d(1),
                at_pct: 20,
                downtime_ms: 50,
                permanent: false,
            },
            FailureSpec {
                device: d(3),
                at_pct: 45,
                downtime_ms: 80,
                permanent: false,
            },
            FailureSpec {
                device: d(2),
                at_pct: 70,
                downtime_ms: 800,
                permanent: true,
            },
        ],
    ]
}

/// Candidate mutations of `base` along one axis, in a fixed order.
fn axis_candidates(axis: usize, base: &Perturbation, num_devices: u32) -> Vec<Perturbation> {
    let mut out = Vec::new();
    match axis {
        0 => {
            for (device, pct) in straggler_ladder(num_devices) {
                let mut p = base.clone();
                p.straggler_device = device;
                p.straggler_pct = pct;
                out.push(p);
            }
        }
        1 => {
            for (class, bw, lat) in LINK_LADDER {
                let mut p = base.clone();
                p.link_class = class;
                p.link_bw_drop_pct = bw;
                p.link_lat_pct = lat;
                out.push(p);
            }
        }
        2 => {
            for pct in JITTER_LADDER {
                let mut p = base.clone();
                p.jitter_pct = pct;
                out.push(p);
            }
        }
        3 => {
            for (pct, us) in STALL_LADDER {
                let mut p = base.clone();
                p.stall_pct = pct;
                p.stall_us = us;
                out.push(p);
            }
        }
        4 => {
            for pct in SKEW_LADDER {
                let mut p = base.clone();
                p.mb_skew_pct = pct;
                out.push(p);
            }
        }
        _ => {
            for failures in failure_ladder(num_devices) {
                let mut p = base.clone();
                p.failures = failures;
                out.push(p);
            }
        }
    }
    out.into_iter()
        .map(Perturbation::canon)
        .filter(|p| p.validate(num_devices).is_ok())
        .collect()
}

/// True when `cand` should replace `inc` as the search incumbent: strictly
/// worse for the plan, or equally bad but strictly smaller.
fn beats(cand: &ProbeReport, inc: &ProbeReport) -> bool {
    let (cs, is) = (cand.score, inc.score);
    cs > is || (cs == is && cand.perturbation.size() < inc.perturbation.size())
}

/// Runs the adversarial search against a harness.
///
/// Deterministic: same harness, same config → bit-identical findings, at
/// any `workers` setting.
pub fn chaos_search(
    harness: &ChaosHarness,
    cfg: &ChaosSearchConfig,
) -> Result<ChaosFindings, ChaosError> {
    let num_devices = harness.num_devices();
    let mut probed: BTreeMap<String, ProbeReport> = BTreeMap::new();

    // Probes every not-yet-seen candidate (batched over the pool) and
    // returns the reports for `cands`, in order. Probe errors (invalid
    // corner combinations) drop the candidate.
    let eval = |cands: &[Perturbation],
                probed: &mut BTreeMap<String, ProbeReport>|
     -> Result<Vec<ProbeReport>, ChaosError> {
        let fresh: Vec<Perturbation> = {
            let mut seen = std::collections::BTreeSet::new();
            cands
                .iter()
                .filter(|p| !probed.contains_key(&p.key()) && seen.insert(p.key()))
                .cloned()
                .collect()
        };
        for (p, r) in fresh.iter().zip(harness.probe_many(&fresh, cfg.workers)) {
            match r {
                Ok(report) => {
                    probed.insert(p.key(), report);
                }
                Err(ChaosError::Invalid(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(cands
            .iter()
            .filter_map(|p| probed.get(&p.key()).cloned())
            .collect())
    };

    for restart in 0..cfg.restarts.max(1) {
        let start = if restart == 0 {
            Perturbation::zero(cfg.seed)
        } else {
            Perturbation::sample(cfg.seed.wrapping_add(restart as u64), num_devices)
        };
        let starts = eval(std::slice::from_ref(&start), &mut probed)?;
        let Some(mut incumbent) = starts.into_iter().next() else {
            continue;
        };

        for _sweep in 0..cfg.sweeps.max(1) {
            let mut improved = false;
            for axis in 0..AXES {
                let cands = axis_candidates(axis, &incumbent.perturbation, num_devices);
                let reports = eval(&cands, &mut probed)?;
                // Deterministic pick: first candidate (ladder order) among
                // those that beat everything else on the axis.
                let best = reports
                    .into_iter()
                    .fold(None::<ProbeReport>, |acc, r| match acc {
                        Some(a) if !beats(&r, &a) => Some(a),
                        _ => Some(r),
                    });
                if let Some(b) = best {
                    if beats(&b, &incumbent) {
                        incumbent = b;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    let probes = probed.len();
    let mut offenders: Vec<ProbeReport> = probed.into_values().collect();
    offenders.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.perturbation.size().cmp(&b.perturbation.size()))
            .then(a.perturbation.key().cmp(&b.perturbation.key()))
    });
    offenders.truncate(cfg.keep.max(1));
    Ok(ChaosFindings { probes, offenders })
}
