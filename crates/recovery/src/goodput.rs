//! Goodput accounting: useful work over wall time, with a lost-work
//! breakdown and recovery-time percentiles.

use optimus_json::Json;
use optimus_trace::quantile;

use crate::lifecycle::{LostWork, RecoveryOutcome};

/// Goodput: useful work over wall time (`0` for an empty wall). The one
/// formula behind [`GoodputReport::goodput`] and the fleet's per-replica
/// goodput, which skips building a report.
pub fn goodput_ratio(useful_ns: i64, wall_ns: i64) -> f64 {
    if wall_ns <= 0 {
        return 0.0;
    }
    useful_ns as f64 / wall_ns as f64
}

/// The headline result of one recovery study: how much of the wall clock
/// was useful training, where the rest went, and how fast recoveries were.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputReport {
    /// Steps in the horizon.
    pub horizon_steps: u32,
    /// Full-configuration step latency, ns.
    pub step_ns: i64,
    /// Useful work: `horizon_steps · step_ns`.
    pub useful_ns: i64,
    /// Total wall time, ns.
    pub wall_ns: i64,
    /// Lost-time breakdown; `useful_ns + lost.total() == wall_ns` exactly.
    pub lost: LostWork,
    /// Failures that fired inside the horizon.
    pub failures: u32,
    /// Per-failure recovery times (failure instant → caught back up),
    /// ascending, ns.
    pub recoveries_ns: Vec<i64>,
}

impl GoodputReport {
    /// Builds the report from a simulated lifecycle.
    pub fn from_outcome(outcome: &RecoveryOutcome) -> GoodputReport {
        let mut recoveries = outcome.recoveries_ns.clone();
        recoveries.sort_unstable();
        GoodputReport {
            horizon_steps: outcome.horizon_steps,
            step_ns: outcome.step_ns,
            useful_ns: outcome.useful_ns(),
            wall_ns: outcome.wall_ns,
            lost: outcome.lost,
            failures: outcome.failures_seen,
            recoveries_ns: recoveries,
        }
    }

    /// Goodput: useful work / wall time, in `(0, 1]`.
    pub fn goodput(&self) -> f64 {
        goodput_ratio(self.useful_ns, self.wall_ns)
    }

    /// Recovery-time quantile (nearest-rank), ns. `NaN` with no failures.
    pub fn recovery_quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.recoveries_ns.iter().map(|&r| r as f64).collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }

    /// Median recovery time, ns.
    pub fn recovery_p50(&self) -> f64 {
        self.recovery_quantile(0.5)
    }

    /// p99 recovery time, ns.
    pub fn recovery_p99(&self) -> f64 {
        self.recovery_quantile(0.99)
    }

    /// Bit-exact text rendering (integers plus a fixed-precision ratio of
    /// integers): the golden-file and determinism-comparison format.
    pub fn golden_text(&self) -> String {
        format!(
            "goodput {:.6} = useful {} / wall {} ns\n\
             horizon {} steps @ {} ns | failures {}\n\
             lost: detect {} restart {} replay {} spill {} wait {} degraded {}\n\
             recoveries (ns): {:?}\n",
            self.goodput(),
            self.useful_ns,
            self.wall_ns,
            self.horizon_steps,
            self.step_ns,
            self.failures,
            self.lost.detection_ns,
            self.lost.restart_ns,
            self.lost.replay_ns,
            self.lost.spill_ns,
            self.lost.wait_ns,
            self.lost.degraded_ns,
            self.recoveries_ns,
        )
    }

    /// JSON rendering for downstream tooling.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("horizon_steps", Json::Num(self.horizon_steps as f64)),
            ("step_ns", Json::Num(self.step_ns as f64)),
            ("useful_ns", Json::Num(self.useful_ns as f64)),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("goodput", Json::Num(self.goodput())),
            ("failures", Json::Num(self.failures as f64)),
            (
                "lost",
                Json::obj(vec![
                    ("detection_ns", Json::Num(self.lost.detection_ns as f64)),
                    ("restart_ns", Json::Num(self.lost.restart_ns as f64)),
                    ("replay_ns", Json::Num(self.lost.replay_ns as f64)),
                    ("spill_ns", Json::Num(self.lost.spill_ns as f64)),
                    ("wait_ns", Json::Num(self.lost.wait_ns as f64)),
                    ("degraded_ns", Json::Num(self.lost.degraded_ns as f64)),
                ]),
            ),
            (
                "recoveries_ns",
                Json::Arr(
                    self.recoveries_ns
                        .iter()
                        .map(|&r| Json::Num(r as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(useful: i64, wall: i64, recov: Vec<i64>) -> GoodputReport {
        GoodputReport {
            horizon_steps: 10,
            step_ns: useful / 10,
            useful_ns: useful,
            wall_ns: wall,
            lost: LostWork {
                replay_ns: wall - useful,
                ..LostWork::default()
            },
            failures: recov.len() as u32,
            recoveries_ns: recov,
        }
    }

    #[test]
    fn goodput_is_useful_over_wall() {
        let r = report(1000, 1250, vec![40, 10, 30]);
        assert!((r.goodput() - 0.8).abs() < 1e-12);
        assert_eq!(r.recovery_p50(), 30.0);
        assert_eq!(r.recovery_p99(), 40.0);
    }

    #[test]
    fn golden_text_is_stable() {
        let r = report(1000, 1250, vec![10]);
        let a = r.golden_text();
        assert_eq!(a, r.golden_text());
        assert!(a.contains("goodput 0.800000 = useful 1000 / wall 1250 ns"));
    }

    #[test]
    fn json_round_trips() {
        let r = report(1000, 1250, vec![10, 20]);
        let parsed = Json::parse(&r.to_json().to_compact()).expect("json");
        assert_eq!(parsed.field("wall_ns").unwrap().as_i64().unwrap(), 1250);
        assert_eq!(
            parsed
                .field("lost")
                .unwrap()
                .field("replay_ns")
                .unwrap()
                .as_i64()
                .unwrap(),
            250
        );
    }
}
