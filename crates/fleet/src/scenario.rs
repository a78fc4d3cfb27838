//! The physical description of a fleet a what-if study prices: step and
//! checkpoint costs, bubble capacity, per-component failure rates, and the
//! priced elastic degraded modes.
//!
//! A [`FleetScenario`] separates the *physics* (what the hardware and the
//! schedule cost) from the *knobs* a study sweeps (checkpoint policy and
//! interval, elastic mode, cluster size, MTBF scale). Every knob setting
//! maps to a [`LedgerPlan`] + [`RecoveryParams`] pair the exact lifecycle
//! ledger executes, so all what-if answers are priced by the same
//! integer-ns state machine the recovery crate's golden tests pin.

use optimus_calibrate::MtbfCalibration;
use optimus_cluster::DurNs;
use optimus_recovery::{
    ClassedTrace, ComponentSpec, DegradedMode, DegradedPlan, FailureTrace, LedgerPlan,
    PlacementPolicy, RecoveryParams,
};

use crate::error::{invalid, FleetError};

/// Salt mixed into per-replica trace seeds (the SplitMix64 increment, the
/// same constant the per-class stream salting uses — additive here, so the
/// two saltings cannot cancel).
const REPLICA_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fleet-scale training deployment the what-if engine studies.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Display name (report headline).
    pub name: String,
    /// Fault-free step latency of the schedule, ns.
    pub step_ns: i64,
    /// Full checkpoint shard write (and restore read) time, ns.
    pub write_ns: i64,
    /// Per-device proven-idle bubble capacity per step of the reference
    /// node, ns. The node layout is replicated fleet-wide, so the spill a
    /// bubble-placed write pays is independent of cluster size.
    pub bubble_capacity_ns: Vec<i64>,
    /// Devices in the fleet.
    pub num_devices: u32,
    /// Training steps the study prices (the "month" of useful work).
    pub horizon_steps: u32,
    /// Failure detection latency.
    pub detection: DurNs,
    /// Process respawn + framework re-init overhead on restart.
    pub restart_overhead: DurNs,
    /// Priced elastic degraded modes (from `plan_elastic` or measured);
    /// [`DegradedMode::WaitForRestart`] needs no entry.
    pub elastic: Vec<DegradedPlan>,
    /// Per-component failure classes (MTBF, hazard, recovery semantics).
    pub specs: Vec<ComponentSpec>,
    /// Base seed for Monte Carlo replica traces.
    pub seed: u64,
}

impl FleetScenario {
    /// Rejects degenerate scenarios.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.step_ns <= 0 {
            return invalid(format!("non-positive step latency {}", self.step_ns));
        }
        if self.write_ns < 0 {
            return invalid(format!("negative write {}", self.write_ns));
        }
        if self.bubble_capacity_ns.is_empty() || self.bubble_capacity_ns.iter().any(|&c| c < 0) {
            return invalid("bubble capacities must be non-empty and non-negative");
        }
        if self.num_devices == 0 || self.horizon_steps == 0 {
            return invalid("fleet needs devices > 0 and horizon > 0");
        }
        if self.specs.is_empty() {
            return invalid("fleet needs at least one component spec");
        }
        for d in &self.elastic {
            if d.mode == DegradedMode::WaitForRestart {
                return invalid("wait-for-restart needs no elastic plan entry");
            }
            if d.effective_step_ns <= 0 || d.reshard_ns < 0 {
                return invalid(format!(
                    "elastic plan {} has non-positive step ({}) or negative reshard ({})",
                    d.mode.label(),
                    d.effective_step_ns,
                    d.reshard_ns
                ));
            }
        }
        Ok(())
    }

    /// The per-interval critical-path spill of a checkpoint policy at
    /// interval `k` — the same closed form `plan_checkpoints` prices: a
    /// bubble-placed write spreads over the interval's `k` steps and the
    /// slowest device decides the remainder; the critical-path baseline
    /// spills the whole write.
    pub fn spill_ns(&self, policy: PlacementPolicy, interval_steps: u32) -> i64 {
        match policy {
            PlacementPolicy::CriticalPath => self.write_ns,
            PlacementPolicy::Bubble => self
                .bubble_capacity_ns
                .iter()
                .map(|&cap| (self.write_ns - interval_steps as i64 * cap).max(0))
                .max()
                .unwrap_or(self.write_ns),
        }
    }

    /// The ledger plan of one (policy, interval) knob setting.
    pub fn plan(&self, policy: PlacementPolicy, interval_steps: u32) -> LedgerPlan {
        LedgerPlan {
            interval_steps,
            step_ns: self.step_ns,
            write_ns: self.write_ns,
            spill_ns: self.spill_ns(policy, interval_steps),
        }
    }

    /// The recovery parameters of one elastic-mode knob setting. Modes
    /// other than wait-for-restart must have a priced [`DegradedPlan`] in
    /// [`FleetScenario::elastic`].
    pub fn recovery_params(&self, mode: DegradedMode) -> Result<RecoveryParams, FleetError> {
        let degraded = match mode {
            DegradedMode::WaitForRestart => None,
            m => Some(*self.elastic.iter().find(|d| d.mode == m).ok_or_else(|| {
                FleetError::Invalid(format!("no priced elastic plan for mode {}", m.label()))
            })?),
        };
        Ok(RecoveryParams {
            detection: self.detection,
            restart_overhead: self.restart_overhead,
            degraded,
        })
    }

    /// Fleet-level MTBF across every component class: superposing one
    /// stream of rate `devices / mtbf_device` per class, the combined rate
    /// is the sum, so the fleet sees one failure every
    /// `1 / Σ_c (devices / mtbf_c)` ns on average.
    pub fn fleet_mtbf_ns(&self) -> f64 {
        let rate: f64 = self
            .specs
            .iter()
            .map(|s| f64::from(self.num_devices) / s.mtbf_device_ns as f64)
            .sum();
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / rate
    }

    /// The failure-generation window, chosen independent of the checkpoint
    /// knobs so every (policy, interval, mode) setting is priced against
    /// the *same* trace prefix: twice the fault-free wall of the worst plan
    /// ever run (`k = 1` critical-path, which pays the full write every
    /// step). A replica whose wall exceeded this window would see a
    /// failure-free tail; that needs the lost fraction to exceed ~25× the
    /// useful work, far outside any regime the studies sweep.
    pub fn trace_horizon_ns(&self) -> u64 {
        (self.horizon_steps as i64 * (self.step_ns + self.write_ns)).saturating_mul(2) as u64
    }

    /// The seeded failure trace of one Monte Carlo replica: the merged
    /// superposition of per-component streams. Pure function of
    /// `(scenario, replica)` — bit-identical at any worker count and on
    /// every platform.
    pub fn replica_trace(&self, replica: u32) -> Result<FailureTrace, FleetError> {
        let seed = self.seed.wrapping_add(
            u64::from(replica)
                .wrapping_add(1)
                .wrapping_mul(REPLICA_SALT),
        );
        let classed =
            ClassedTrace::generate(seed, self.trace_horizon_ns(), self.num_devices, &self.specs)?;
        Ok(classed.merged()?)
    }

    /// The scenario at a different cluster size (failure arrival rates
    /// scale with the device count; per-node physics are unchanged).
    pub fn with_devices(&self, num_devices: u32) -> FleetScenario {
        FleetScenario {
            num_devices,
            ..self.clone()
        }
    }

    /// The scenario with every component MTBF scaled to `pct` percent of
    /// its current value (50 = twice as failure-prone, 200 = twice as
    /// reliable). Exact integer scaling, floor 1 ns.
    pub fn with_mtbf_scale_pct(&self, pct: u32) -> FleetScenario {
        let mut out = self.clone();
        for spec in &mut out.specs {
            let scaled = u128::from(spec.mtbf_device_ns) * u128::from(pct) / 100;
            spec.mtbf_device_ns = u64::try_from(scaled).unwrap_or(u64::MAX).max(1);
        }
        out
    }

    /// Replaces each component's MTBF with the rate a trace calibration
    /// fitted ([`optimus_calibrate::fit_mtbf`]), closing the
    /// observe→calibrate→what-if loop. Classes the fit saw no events for
    /// (infinite MTBF) keep their current prior.
    pub fn with_calibrated_mtbf(&self, cal: &MtbfCalibration) -> FleetScenario {
        let mut out = self.clone();
        for spec in &mut out.specs {
            let fitted = cal.rate(spec.component).mtbf_device_ns;
            if fitted.is_finite() && fitted >= 1.0 {
                spec.mtbf_device_ns = fitted as u64;
            }
        }
        out
    }

    /// The reference study scenario: a month of 1 s steps on a 512-GPU
    /// fleet writing 12 s checkpoints, with enough per-step bubble capacity
    /// that a bubble-placed write is fully hidden from interval 20 up —
    /// the regime where the Young/Daly closed form (calibrated on the full
    /// write) prescribes an interval an order of magnitude too long.
    pub fn synthetic() -> FleetScenario {
        let second: i64 = 1_000_000_000;
        FleetScenario {
            name: "synthetic-month".to_string(),
            step_ns: second,
            write_ns: 12 * second,
            // Slowest device hides 0.6 s of write per step.
            bubble_capacity_ns: vec![3 * second, 2 * second + second / 2, second, 3 * second / 5],
            num_devices: 512,
            horizon_steps: 2_592_000, // 30 days of 1 s steps
            detection: DurNs(30 * second as u64),
            restart_overhead: DurNs(60 * second as u64),
            elastic: vec![
                DegradedPlan {
                    mode: DegradedMode::ShrinkDp,
                    effective_step_ns: second + 180_000_000, // +18% per step
                    reshard_ns: 25 * second,
                },
                DegradedPlan {
                    mode: DegradedMode::DropPipelineReplica,
                    effective_step_ns: second + 140_000_000, // +14% effective
                    reshard_ns: 18 * second,
                },
            ],
            // GPU MTBF ≈ 23 device-days anchors the standard 1 : ¼ : 1/12
            // GPU/NIC/host mix; 2 s process restart, 30 min host repair.
            specs: ComponentSpec::standard_mix(
                2_000_000_000_000_000,
                DurNs(2 * second as u64),
                DurNs(1_800 * second as u64),
            ),
            seed: 0x0F1E_E7F1_EE7F_1EE7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_scenario_validates_and_prices_knobs() {
        let sc = FleetScenario::synthetic();
        sc.validate().expect("valid");
        // Bubble spill vanishes once the interval amortises the write over
        // the slowest device's capacity; critical-path always pays it all.
        assert_eq!(sc.spill_ns(PlacementPolicy::Bubble, 1), 11_400_000_000);
        assert_eq!(sc.spill_ns(PlacementPolicy::Bubble, 20), 0);
        assert_eq!(sc.spill_ns(PlacementPolicy::CriticalPath, 20), sc.write_ns);
        let plan = sc.plan(PlacementPolicy::Bubble, 20);
        plan.validate().expect("plan");
        assert_eq!(plan.spill_ns, 0);
        // Every elastic mode resolves to params; wait mode has no plan.
        for mode in [
            DegradedMode::WaitForRestart,
            DegradedMode::ShrinkDp,
            DegradedMode::DropPipelineReplica,
        ] {
            let p = sc.recovery_params(mode).expect("params");
            assert_eq!(p.degraded.is_some(), mode != DegradedMode::WaitForRestart);
        }
        // Fleet MTBF: 512 devices at the standard mix fail every ~49 min.
        let mtbf = sc.fleet_mtbf_ns();
        assert!(mtbf > 2.8e12 && mtbf < 3.1e12, "fleet mtbf {mtbf}");
    }

    #[test]
    fn replica_traces_are_deterministic_and_distinct() {
        let sc = FleetScenario::synthetic();
        let a = sc.replica_trace(0).expect("trace");
        let b = sc.replica_trace(0).expect("trace");
        let c = sc.replica_trace(1).expect("trace");
        assert_eq!(a.failures(), b.failures(), "same replica differs");
        assert_ne!(a.failures(), c.failures(), "replicas share a stream");
        assert!(
            a.len() > 1_000,
            "month-long fleet trace is dense: {}",
            a.len()
        );
    }

    #[test]
    fn knob_transforms_scale_rates_exactly() {
        let sc = FleetScenario::synthetic();
        let half = sc.with_mtbf_scale_pct(50);
        for (a, b) in sc.specs.iter().zip(&half.specs) {
            assert_eq!(b.mtbf_device_ns, a.mtbf_device_ns / 2);
        }
        // Halving MTBF or doubling devices both double the fleet rate.
        let double_dev = sc.with_devices(1024);
        assert!((half.fleet_mtbf_ns() - double_dev.fleet_mtbf_ns()).abs() < 1.0);
        assert!(half.fleet_mtbf_ns() < sc.fleet_mtbf_ns());
    }

    #[test]
    fn validation_rejects_degenerate_scenarios() {
        let good = FleetScenario::synthetic();
        let mut bad = good.clone();
        bad.step_ns = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.specs.clear();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.elastic[0].effective_step_ns = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.elastic.push(DegradedPlan {
            mode: DegradedMode::WaitForRestart,
            effective_step_ns: 1,
            reshard_ns: 0,
        });
        assert!(bad.validate().is_err());
        // Asking for an unpriced mode fails loudly.
        let mut no_elastic = good.clone();
        no_elastic.elastic.clear();
        assert!(no_elastic.recovery_params(DegradedMode::ShrinkDp).is_err());
    }
}
