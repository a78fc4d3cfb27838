//! Goodput frontiers: p50/p99 goodput over cluster size × MTBF scale ×
//! checkpoint policy × elastic mode.
//!
//! Each `(devices, mtbf%)` cell generates one shared set of replica traces
//! (so every policy/mode comparison inside the cell is against identical
//! failure realities), solves the exact-optimal checkpoint interval per
//! policy under wait-for-restart, then prices every elastic mode at that
//! interval. The output is a flat list of [`FrontierCell`]s in
//! deterministic sweep order — the raw material of the report's frontier
//! table and the golden fixture.
//!
//! Cells that share a failure reality are priced once. The ledger reads no
//! device id, and within one sweep a cell's failure times depend only on
//! each class's fleet gap ([`ComponentSpec::fleet_gap_ns`]); the solver's
//! closed forms also read the fleet MTBF. So a cell whose gaps and fleet
//! MTBF bits equal an earlier cell's copies that cell's results, relabelled,
//! without generating traces — provided the earlier traces have strictly
//! increasing failure times in every replica. Events at one instant sort by
//! device, so a tie could order differently under other device draws.
//!
//! [`ComponentSpec::fleet_gap_ns`]: optimus_recovery::ComponentSpec::fleet_gap_ns

use std::ops::Range;

use optimus_recovery::{DegradedMode, PlacementPolicy};

use crate::error::{invalid, FleetError};
use crate::montecarlo::{evaluate, replica_traces, McSummary};
use crate::scenario::FleetScenario;
use crate::solver::solve_on_traces;

/// The sweep grid of a frontier study.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierConfig {
    /// Cluster sizes to sweep.
    pub devices: Vec<u32>,
    /// MTBF scales, percent of the scenario's rates (100 = as specified).
    pub mtbf_pcts: Vec<u32>,
    /// Checkpoint placement policies.
    pub policies: Vec<PlacementPolicy>,
    /// Elastic degraded modes.
    pub modes: Vec<DegradedMode>,
    /// Monte Carlo replicas per cell.
    pub replicas: u32,
    /// Worker threads (`0` = one per core); any value is bit-identical.
    pub workers: usize,
    /// Interval-search bound, steps.
    pub k_max: u32,
}

impl FrontierConfig {
    /// A compact CI-sized grid: two cluster sizes, two reliability points,
    /// both policies, every elastic mode.
    pub fn smoke(replicas: u32, workers: usize) -> FrontierConfig {
        FrontierConfig {
            devices: vec![256, 512],
            mtbf_pcts: vec![50, 100],
            policies: vec![PlacementPolicy::Bubble, PlacementPolicy::CriticalPath],
            modes: vec![
                DegradedMode::WaitForRestart,
                DegradedMode::ShrinkDp,
                DegradedMode::DropPipelineReplica,
            ],
            replicas,
            workers,
            k_max: 4096,
        }
    }
}

/// One point of the goodput frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierCell {
    /// Cluster size of the cell.
    pub devices: u32,
    /// MTBF scale, percent.
    pub mtbf_pct: u32,
    /// Checkpoint placement policy.
    pub policy: PlacementPolicy,
    /// Elastic degraded mode.
    pub mode: DegradedMode,
    /// Exact-solved checkpoint interval for this cell's policy, steps.
    pub interval_steps: u32,
    /// Pooled goodput statistics at that interval.
    pub summary: McSummary,
}

/// Sweeps the frontier grid. Cells come back in `devices → mtbf% → policy
/// → mode` order; the whole sweep is a pure function of `(scenario,
/// config)` and bit-identical at any worker count.
pub fn sweep_frontier(
    sc: &FleetScenario,
    cfg: &FrontierConfig,
) -> Result<Vec<FrontierCell>, FleetError> {
    sweep(sc, cfg).map(|(cells, _)| cells)
}

/// What fixes a cell's failure reality within one sweep: each class's
/// fleet gap, plus the bits of the fleet MTBF the solver's closed forms
/// read (cells with equal gaps can differ there in the last bit).
type RealityKey = (Vec<u64>, u64);

fn reality_key(variant: &FleetScenario) -> RealityKey {
    let gaps = variant
        .specs
        .iter()
        .map(|s| s.fleet_gap_ns(variant.num_devices))
        .collect();
    (gaps, variant.fleet_mtbf_ns().to_bits())
}

/// [`sweep_frontier`], also returning how many `(devices, mtbf%)` cells
/// were copied from an earlier cell instead of priced.
fn sweep(
    sc: &FleetScenario,
    cfg: &FrontierConfig,
) -> Result<(Vec<FrontierCell>, usize), FleetError> {
    sc.validate()?;
    if cfg.devices.is_empty() || cfg.mtbf_pcts.is_empty() {
        return invalid("frontier needs at least one device count and one mtbf scale");
    }
    if cfg.policies.is_empty() || cfg.modes.is_empty() {
        return invalid("frontier needs at least one policy and one mode");
    }
    if cfg.mtbf_pcts.contains(&0) {
        return invalid("mtbf scale must be > 0 percent");
    }
    let mut cells: Vec<FrontierCell> = Vec::new();
    // Priced cells whose traces are tie-free: their key and their rows.
    let mut priced: Vec<(RealityKey, Range<usize>)> = Vec::new();
    let mut copied = 0;
    for &devices in &cfg.devices {
        for &pct in &cfg.mtbf_pcts {
            let variant = sc.with_devices(devices).with_mtbf_scale_pct(pct);
            let key = reality_key(&variant);
            let from = cells.len();
            if let Some((_, rows)) = priced.iter().find(|(k, _)| *k == key) {
                cells.extend_from_within(rows.clone());
                for c in &mut cells[from..] {
                    c.devices = devices;
                    c.mtbf_pct = pct;
                }
                copied += 1;
                continue;
            }
            // One trace set per physical cell: every policy/mode knob is
            // priced against identical failure realities.
            let traces = replica_traces(&variant, cfg.replicas, cfg.workers)?;
            let tie_free = traces
                .iter()
                .all(|t| t.failures().windows(2).all(|w| w[0].at < w[1].at));
            for &policy in &cfg.policies {
                let solved = solve_on_traces(
                    &variant,
                    policy,
                    DegradedMode::WaitForRestart,
                    &traces,
                    cfg.workers,
                    cfg.k_max,
                )?;
                let plan = variant.plan(policy, solved.exact_k);
                for &mode in &cfg.modes {
                    // The solve already priced wait-for-restart at `exact_k`.
                    let summary = if mode == DegradedMode::WaitForRestart {
                        solved.exact_summary.clone()
                    } else {
                        let params = variant.recovery_params(mode)?;
                        evaluate(&plan, &traces, &params, variant.horizon_steps, cfg.workers)?
                            .summary
                    };
                    cells.push(FrontierCell {
                        devices,
                        mtbf_pct: pct,
                        policy,
                        mode,
                        interval_steps: solved.exact_k,
                        summary,
                    });
                }
            }
            if tie_free {
                priced.push((key, from..cells.len()));
            }
        }
    }
    Ok((cells, copied))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_scenario() -> FleetScenario {
        let mut sc = FleetScenario::synthetic();
        sc.horizon_steps = 100_000;
        sc
    }

    #[test]
    fn sweep_is_deterministic_and_ordered() {
        let sc = short_scenario();
        let cfg = FrontierConfig {
            devices: vec![512],
            mtbf_pcts: vec![100],
            policies: vec![PlacementPolicy::Bubble, PlacementPolicy::CriticalPath],
            modes: vec![DegradedMode::WaitForRestart, DegradedMode::ShrinkDp],
            replicas: 3,
            workers: 2,
            k_max: 2048,
        };
        let a = sweep_frontier(&sc, &cfg).expect("sweep");
        let b = sweep_frontier(
            &sc,
            &FrontierConfig {
                workers: 1,
                ..cfg.clone()
            },
        )
        .expect("sweep");
        assert_eq!(a, b, "worker count leaked into the frontier");
        assert_eq!(a.len(), 4);
        // Bubble cells strictly beat critical-path cells on the same
        // traces and mode.
        let find = |policy, mode| {
            a.iter()
                .find(|c| c.policy == policy && c.mode == mode)
                .expect("cell")
        };
        for mode in [DegradedMode::WaitForRestart, DegradedMode::ShrinkDp] {
            let bubble = find(PlacementPolicy::Bubble, mode);
            let critical = find(PlacementPolicy::CriticalPath, mode);
            assert!(
                bubble.summary.goodput_mean > critical.summary.goodput_mean,
                "bubble {} <= critical {} under {:?}",
                bubble.summary.goodput_mean,
                critical.summary.goodput_mean,
                mode
            );
        }
        // Elastic shrink-DP beats waiting out host repairs.
        let wait = find(PlacementPolicy::Bubble, DegradedMode::WaitForRestart);
        let shrink = find(PlacementPolicy::Bubble, DegradedMode::ShrinkDp);
        assert!(shrink.summary.goodput_mean > wait.summary.goodput_mean);
    }

    /// Each `(devices, mtbf%)` cell of the grid swept on its own, so no
    /// cell can copy another.
    fn unshared(sc: &FleetScenario, cfg: &FrontierConfig) -> Vec<FrontierCell> {
        let mut cells = Vec::new();
        for &devices in &cfg.devices {
            for &pct in &cfg.mtbf_pcts {
                let one = FrontierConfig {
                    devices: vec![devices],
                    mtbf_pcts: vec![pct],
                    ..cfg.clone()
                };
                let (part, copied) = sweep(sc, &one).expect("cell");
                assert_eq!(copied, 0);
                cells.extend(part);
            }
        }
        cells
    }

    #[test]
    fn cells_sharing_a_failure_reality_are_priced_once() {
        let sc = short_scenario();
        let cfg = FrontierConfig::smoke(2, 2);
        // (256, 50%) and (512, 100%) have the same fleet gaps.
        let half = sc.with_devices(256).with_mtbf_scale_pct(50);
        let full = sc.with_devices(512).with_mtbf_scale_pct(100);
        assert_eq!(reality_key(&half), reality_key(&full));
        let (cells, copied) = sweep(&sc, &cfg).expect("sweep");
        assert_eq!(copied, 1, "one of the four cells repeats a reality");
        assert_eq!(cells, unshared(&sc, &cfg), "a copied cell differs");
        // Worker counts stay identical with copying in play.
        let one = FrontierConfig { workers: 1, ..cfg };
        assert_eq!(sweep(&sc, &one).expect("sweep"), (cells, 1));
    }

    #[test]
    fn no_copy_when_the_fleet_mtbf_bits_differ() {
        // An odd per-device MTBF, as a calibration may fit: the halved rate
        // floors to the same fleet gap as the doubled device count, but the
        // fleet MTBF the solver reads differs in its last bits.
        let mut sc = short_scenario();
        for spec in &mut sc.specs {
            spec.mtbf_device_ns += 1;
        }
        let half = reality_key(&sc.with_devices(256).with_mtbf_scale_pct(50));
        let full = reality_key(&sc.with_devices(512).with_mtbf_scale_pct(100));
        assert_eq!(half.0, full.0, "gaps should agree");
        assert_ne!(half.1, full.1, "fleet mtbf bits should differ");
        let cfg = FrontierConfig {
            devices: vec![256, 512],
            mtbf_pcts: vec![50, 100],
            modes: vec![DegradedMode::WaitForRestart],
            ..FrontierConfig::smoke(2, 2)
        };
        let (cells, copied) = sweep(&sc, &cfg).expect("sweep");
        assert_eq!(copied, 0);
        assert_eq!(cells, unshared(&sc, &cfg));
    }

    #[test]
    fn no_copy_when_failures_tie() {
        // Nanosecond steps and fleet gaps of a few ns: the classes' streams
        // collide, and a tie sorts by the device drawn.
        let mut sc = short_scenario();
        sc.horizon_steps = 200;
        sc.step_ns = 10;
        sc.write_ns = 12;
        sc.bubble_capacity_ns = vec![1];
        for spec in &mut sc.specs {
            spec.mtbf_device_ns = 512 * 3;
        }
        let traces = replica_traces(&sc, 2, 1).expect("traces");
        assert!(
            traces
                .iter()
                .any(|t| t.failures().windows(2).any(|w| w[0].at == w[1].at)),
            "fixture should contain an equal-time pair"
        );
        let cfg = FrontierConfig {
            k_max: 64,
            ..FrontierConfig::smoke(2, 2)
        };
        assert_eq!(
            reality_key(&sc.with_devices(256).with_mtbf_scale_pct(50)),
            reality_key(&sc.with_devices(512).with_mtbf_scale_pct(100))
        );
        let (cells, copied) = sweep(&sc, &cfg).expect("sweep");
        assert_eq!(copied, 0);
        assert_eq!(cells, unshared(&sc, &cfg));
    }

    #[test]
    fn degenerate_grids_are_rejected() {
        let sc = short_scenario();
        let good = FrontierConfig::smoke(2, 1);
        for bad in [
            FrontierConfig {
                devices: vec![],
                ..good.clone()
            },
            FrontierConfig {
                mtbf_pcts: vec![0],
                ..good.clone()
            },
            FrontierConfig {
                policies: vec![],
                ..good.clone()
            },
            FrontierConfig {
                modes: vec![],
                ..good.clone()
            },
        ] {
            assert!(sweep_frontier(&sc, &bad).is_err());
        }
    }
}
