//! Drift monitoring: comparing an observed (possibly faulted) timeline
//! against the profiled timeline the planner optimised for.
//!
//! The monitor aggregates per-`(device, stream)` busy time — the quantity the
//! planner's cost model predicts — and reports the worst observed/expected
//! ratio. An adaptive controller re-plans when that ratio crosses its
//! threshold; a per-task comparison would trip on harmless jitter, while
//! busy-time drift isolates sustained degradation (stragglers, sick links).

use optimus_cluster::DurNs;
use optimus_sim::{SimResult, Stream, TaskGraph};

/// Busy-time drift of one `(device, stream)` resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDrift {
    /// Simulated device index.
    pub device: u32,
    /// Stream within the device.
    pub stream: Stream,
    /// Busy time predicted by the profiled timeline.
    pub expected_busy: DurNs,
    /// Busy time observed under fault.
    pub observed_busy: DurNs,
}

impl ResourceDrift {
    /// Observed/expected busy-time ratio; `1.0` means on-profile. Resources
    /// that are idle in both timelines report `1.0`; work appearing on a
    /// resource profiled as idle reports `f64::INFINITY`.
    pub fn ratio(&self) -> f64 {
        if self.expected_busy.is_zero() {
            if self.observed_busy.is_zero() {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.observed_busy.0 as f64 / self.expected_busy.0 as f64
        }
    }
}

/// Drift across every resource of a step, plus the makespans being compared.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSummary {
    /// Per-resource drift, devices then streams in stable order. Resources
    /// idle in both timelines are omitted.
    pub resources: Vec<ResourceDrift>,
    /// Makespan of the profiled timeline.
    pub expected_makespan: DurNs,
    /// Makespan of the observed timeline.
    pub observed_makespan: DurNs,
}

impl DriftSummary {
    /// Worst busy-time ratio across all resources (`1.0` when nothing
    /// drifted or no resource did any work).
    pub fn max_ratio(&self) -> f64 {
        self.resources
            .iter()
            .map(ResourceDrift::ratio)
            .fold(1.0, f64::max)
    }

    /// The resource with the worst drift, if any resource drifted above 1.
    pub fn worst(&self) -> Option<&ResourceDrift> {
        self.resources
            .iter()
            .filter(|r| r.ratio() > 1.0)
            .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
    }

    /// True when the worst ratio exceeds `1 + threshold` (e.g. a threshold
    /// of `0.1` trips once some resource runs 10% over profile).
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.max_ratio() > 1.0 + threshold
    }

    /// Observed/expected makespan ratio.
    pub fn makespan_ratio(&self) -> f64 {
        if self.expected_makespan.is_zero() {
            1.0
        } else {
            self.observed_makespan.0 as f64 / self.expected_makespan.0 as f64
        }
    }
}

/// Measures busy-time drift between a profiled and an observed execution of
/// the *same* task graph structure (the faulted graph must have the same
/// tasks on the same resources; only durations may differ).
pub fn measure_drift(
    graph: &TaskGraph,
    expected: &SimResult,
    observed: &SimResult,
) -> DriftSummary {
    let mut resources = Vec::new();
    for device in 0..graph.num_devices() {
        for stream in Stream::ALL {
            let e = expected.busy_time(graph, device, stream);
            let o = observed.busy_time(graph, device, stream);
            if e.is_zero() && o.is_zero() {
                continue;
            }
            resources.push(ResourceDrift {
                device,
                stream,
                expected_busy: e,
                observed_busy: o,
            });
        }
    }
    DriftSummary {
        resources,
        expected_makespan: DurNs(expected.makespan().0),
        observed_makespan: DurNs(observed.makespan().0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_sim::{simulate, TaskKind};

    fn graph() -> TaskGraph {
        let mut g = TaskGraph::new(2);
        let a = g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(1_000),
            TaskKind::Generic,
            vec![],
        );
        let b = g.push(
            "b",
            1,
            Stream::Compute,
            DurNs(2_000),
            TaskKind::Generic,
            vec![a],
        );
        g.push(
            "c",
            1,
            Stream::TpComm,
            DurNs(500),
            TaskKind::LlmTpComm,
            vec![b],
        );
        g
    }

    #[test]
    fn no_fault_means_no_drift() {
        let g = graph();
        let r = simulate(&g).unwrap();
        let d = measure_drift(&g, &r, &r);
        assert_eq!(d.max_ratio(), 1.0);
        assert!(!d.exceeds(0.0));
        assert!(d.worst().is_none());
        assert_eq!(d.makespan_ratio(), 1.0);
    }

    #[test]
    fn straggler_shows_up_on_its_resource() {
        let g = graph();
        let expected = simulate(&g).unwrap();
        let slowed = g.with_scaled_durations(|t| if t.device == 1 { 1.5 } else { 1.0 });
        let observed = simulate(&slowed).unwrap();
        let d = measure_drift(&g, &expected, &observed);
        assert!(d.exceeds(0.4));
        let worst = d.worst().unwrap();
        assert_eq!(worst.device, 1);
        assert!((worst.ratio() - 1.5).abs() < 1e-9);
        // Device 0 stayed on profile.
        let dev0 = d
            .resources
            .iter()
            .find(|r| r.device == 0 && r.stream == Stream::Compute)
            .unwrap();
        assert_eq!(dev0.ratio(), 1.0);
    }

    #[test]
    fn idle_resources_are_omitted() {
        let g = graph();
        let r = simulate(&g).unwrap();
        let d = measure_drift(&g, &r, &r);
        // Only 3 resources ever do work: dev0 compute, dev1 compute, dev1 TP.
        assert_eq!(d.resources.len(), 3);
    }
}
