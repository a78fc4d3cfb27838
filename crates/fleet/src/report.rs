//! The byte-stable what-if report: scenario headline, solver verdicts per
//! policy, and the goodput frontier table.
//!
//! Text rendering uses integers and fixed-precision decimals only (Rust's
//! float formatting is exact and platform-independent), so the report is
//! the golden-file and determinism-comparison format. JSON carries the
//! same content for downstream tooling (`BENCH_fleet.json`).

use optimus_json::Json;

use crate::frontier::FrontierCell;
use crate::scenario::FleetScenario;
use crate::solver::SolverResult;

/// The assembled result of one fleet what-if study.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario name.
    pub name: String,
    /// Devices in the reference fleet.
    pub num_devices: u32,
    /// Priced training horizon, steps.
    pub horizon_steps: u32,
    /// Fault-free step latency, ns.
    pub step_ns: i64,
    /// Full checkpoint write, ns.
    pub write_ns: i64,
    /// Fleet-level MTBF of the reference scenario, ns (rounded).
    pub fleet_mtbf_ns: u64,
    /// Monte Carlo replicas per study.
    pub replicas: u32,
    /// Solver verdicts, one per policy (and mode) solved.
    pub solver: Vec<SolverResult>,
    /// Frontier cells in sweep order.
    pub frontier: Vec<FrontierCell>,
}

impl FleetReport {
    /// Assembles a report from a scenario and its study outputs.
    pub fn new(
        sc: &FleetScenario,
        replicas: u32,
        solver: Vec<SolverResult>,
        frontier: Vec<FrontierCell>,
    ) -> FleetReport {
        let mtbf = sc.fleet_mtbf_ns();
        FleetReport {
            name: sc.name.clone(),
            num_devices: sc.num_devices,
            horizon_steps: sc.horizon_steps,
            step_ns: sc.step_ns,
            write_ns: sc.write_ns,
            fleet_mtbf_ns: if mtbf.is_finite() {
                mtbf.round() as u64
            } else {
                u64::MAX
            },
            replicas,
            solver,
            frontier,
        }
    }

    /// Bit-exact text rendering: the golden-file format.
    pub fn golden_text(&self) -> String {
        let mut out = format!(
            "fleet what-if: {}\n\
             devices {} | horizon {} steps @ {} ns/step | write {} ns | \
             fleet mtbf {} ns | replicas {}\n",
            self.name,
            self.num_devices,
            self.horizon_steps,
            self.step_ns,
            self.write_ns,
            self.fleet_mtbf_ns,
            self.replicas,
        );
        for s in &self.solver {
            out.push_str(&format!(
                "solver {} [{}]: yd k={} self k={} exact k={} | goodput yd {:.6} \
                 self {:.6} exact {:.6} | gap {:.2}% | evals {}\n",
                s.policy.label(),
                s.mode.label(),
                s.young_daly_k,
                s.self_consistent_k,
                s.exact_k,
                s.young_daly_goodput,
                s.self_consistent_goodput,
                s.exact_goodput,
                s.gap_pct,
                s.evaluations,
            ));
        }
        out.push_str("frontier: devices mtbf% policy mode k p50 p99 mean fails\n");
        for c in &self.frontier {
            out.push_str(&format!(
                "{} {} {} {} {} {:.6} {:.6} {:.6} {:.2}\n",
                c.devices,
                c.mtbf_pct,
                c.policy.label(),
                c.mode.label(),
                c.interval_steps,
                c.summary.goodput_p50,
                c.summary.goodput_p99,
                c.summary.goodput_mean,
                c.summary.mean_failures,
            ));
        }
        out
    }

    /// JSON rendering for downstream tooling.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("num_devices", Json::from(self.num_devices)),
            ("horizon_steps", Json::from(self.horizon_steps)),
            ("step_ns", Json::Num(self.step_ns as f64)),
            ("write_ns", Json::Num(self.write_ns as f64)),
            ("fleet_mtbf_ns", Json::Num(self.fleet_mtbf_ns as f64)),
            ("replicas", Json::from(self.replicas)),
            (
                "solver",
                Json::Arr(
                    self.solver
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("policy", Json::from(s.policy.label())),
                                ("mode", Json::from(s.mode.label())),
                                ("fleet_mtbf_ns", Json::Num(s.fleet_mtbf_ns)),
                                ("young_daly_k", Json::from(s.young_daly_k)),
                                ("self_consistent_k", Json::from(s.self_consistent_k)),
                                ("exact_k", Json::from(s.exact_k)),
                                ("young_daly_goodput", Json::Num(s.young_daly_goodput)),
                                (
                                    "self_consistent_goodput",
                                    Json::Num(s.self_consistent_goodput),
                                ),
                                ("exact_goodput", Json::Num(s.exact_goodput)),
                                ("gap_pct", Json::Num(s.gap_pct)),
                                ("evaluations", Json::from(s.evaluations)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "frontier",
                Json::Arr(
                    self.frontier
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("devices", Json::from(c.devices)),
                                ("mtbf_pct", Json::from(c.mtbf_pct)),
                                ("policy", Json::from(c.policy.label())),
                                ("mode", Json::from(c.mode.label())),
                                ("interval_steps", Json::from(c.interval_steps)),
                                ("goodput_p50", Json::Num(c.summary.goodput_p50)),
                                ("goodput_p99", Json::Num(c.summary.goodput_p99)),
                                ("goodput_mean", Json::Num(c.summary.goodput_mean)),
                                ("mean_failures", Json::Num(c.summary.mean_failures)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::McSummary;
    use optimus_recovery::{DegradedMode, PlacementPolicy};

    fn tiny_report() -> FleetReport {
        let sc = FleetScenario::synthetic();
        let summary = McSummary {
            replicas: 8,
            goodput_p50: 0.961,
            goodput_p99: 0.948,
            goodput_mean: 0.9605,
            mean_failures: 890.25,
        };
        FleetReport::new(
            &sc,
            8,
            vec![SolverResult {
                policy: PlacementPolicy::Bubble,
                mode: DegradedMode::WaitForRestart,
                fleet_mtbf_ns: sc.fleet_mtbf_ns(),
                young_daly_k: 265,
                self_consistent_k: 20,
                exact_k: 22,
                young_daly_goodput: 0.921,
                self_consistent_goodput: 0.959,
                exact_goodput: 0.96,
                gap_pct: 4.06,
                evaluations: 31,
                exact_summary: McSummary {
                    goodput_mean: 0.96,
                    ..summary.clone()
                },
            }],
            vec![FrontierCell {
                devices: 512,
                mtbf_pct: 100,
                policy: PlacementPolicy::Bubble,
                mode: DegradedMode::ShrinkDp,
                interval_steps: 22,
                summary,
            }],
        )
    }

    #[test]
    fn golden_text_is_stable_and_complete() {
        let r = tiny_report();
        let a = r.golden_text();
        assert_eq!(a, r.golden_text());
        assert!(a.starts_with("fleet what-if: synthetic-month\n"));
        assert!(a.contains("solver bubble [wait-for-restart]: yd k=265 self k=20 exact k=22"));
        assert!(a.contains("gap 4.06%"));
        assert!(a.contains("512 100 bubble shrink-dp 22 0.961000 0.948000 0.960500 890.25"));
    }

    #[test]
    fn json_round_trips() {
        let r = tiny_report();
        let parsed = Json::parse(&r.to_json().to_compact()).expect("json");
        assert_eq!(parsed.field("num_devices").unwrap().as_i64().unwrap(), 512);
        let solver = parsed.field("solver").unwrap();
        let first = &solver.as_arr().unwrap()[0];
        assert_eq!(first.field("exact_k").unwrap().as_i64().unwrap(), 22);
        let frontier = parsed.field("frontier").unwrap();
        assert_eq!(frontier.as_arr().unwrap().len(), 1);
    }
}
