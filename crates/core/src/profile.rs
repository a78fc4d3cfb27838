//! LLM bubble profiles: the scheduler's view of one LLM pipeline.
//!
//! The real system profiles a training step with CUDA timelines and detects
//! bubbles "assuming consistent behaviour in future steps" (§6). Here the
//! profile comes from simulating the *LLM-only* pipeline (encoders removed —
//! under Optimus they no longer live inside the pipeline): per device we
//! extract the leading bubble (DP all-gather + PP warmup), every interior
//! bubble (tagged TP when concurrent with a TP collective, per Design
//! Decision 3 encoder *communication* must not be packed into those), the
//! trailing bubble (PP cooldown + reduce-scatter), the LLM compute windows
//! (where encoder communication may overlap), and the F/B dependency points.

use optimus_baselines::common::{llm_stages, SystemContext};
use optimus_cluster::DurNs;
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;
use optimus_pipeline::{
    dependency_points, interleaved_1f1b, lower, one_f_one_b, simulate_pipeline, zero_bubble_h1,
    Lowered, PipelineSchedule, PipelineSpec, StageSpec,
};
use optimus_sim::{SimResult, Stream, TaskGraph, TaskKind};

use crate::error::OptimusError;

/// Signed nanosecond timestamp used by the scheduler (encoder work may be
/// scheduled before the LLM step origin, extending the iteration leftwards).
pub type Ts = i64;

/// Which pipeline schedule the LLM backbone runs under.
///
/// Optimus's bubble scheduling is orthogonal to the pipeline schedule (§6
/// "other pipeline schedules"): any schedule yields a bubble profile with
/// F/B dependency points, and the scheduler operates on that profile alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlmScheduleKind {
    /// Megatron 1F1B / interleaved 1F1B, selected by the plan's `vpp`.
    #[default]
    OneFOneB,
    /// The zero-bubble-inspired split-backward schedule (`vpp` must be 1).
    ZeroBubble,
}

/// One free interval on a device's compute or communication timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeInterval {
    /// Interval start.
    pub start: Ts,
    /// Interval end.
    pub end: Ts,
    /// True when the gap coincides with an LLM TP collective (encoder
    /// communication kernels must not be placed here).
    pub tp: bool,
    /// Queue position of the next LLM kernel on the owning stream —
    /// used to splice verified schedules back into the task graph.
    pub anchor: u32,
}

impl FreeInterval {
    /// Interval length.
    pub fn len(&self) -> Ts {
        (self.end - self.start).max(0)
    }

    /// True for zero-length intervals.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Bubble profile of one pipeline-stage device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Start of the device's first LLM compute kernel (`L_k`): everything
    /// before it — plus arbitrary time before 0 — is the leading region.
    pub leading_end: Ts,
    /// End of the device's last LLM compute kernel (`R_k`): everything after
    /// it is the trailing region.
    pub trailing_start: Ts,
    /// Interior compute bubbles between `leading_end` and `trailing_start`.
    pub interior: Vec<FreeInterval>,
    /// Windows where the LLM is computing but its TP-comm stream is idle —
    /// where encoder communication kernels are overlapped.
    pub comm_windows: Vec<FreeInterval>,
}

impl DeviceProfile {
    /// Builds a device's bubble profile from its LLM compute spans (in
    /// queue order), its TP-comm spans (sorted by start) and the step
    /// makespan.
    ///
    /// Interior bubbles are the gaps between consecutive compute spans,
    /// tagged `tp` when TP-comm traffic overlaps them and anchored at the
    /// next compute kernel's queue position. Comm windows are the compute
    /// spans minus TP-comm busy time, anchored at the position in the
    /// TP-comm queue (the stream encoder collectives are spliced into) of
    /// the next LLM TP kernel starting at or after the window. A device
    /// with no compute is all leading region.
    ///
    /// Both TP questions are answered by binary search over the running
    /// maximum of the TP-span ends, so a device costs
    /// O((|compute| + |tp|) · log |tp|) plus the TP spans each compute span
    /// actually meets, instead of |compute| · |tp|. The result equals the
    /// quadratic definition (every TP span tested against every gap and
    /// compute span) interval for interval.
    pub fn from_spans(compute: &[(Ts, Ts)], tp: &[(Ts, Ts)], makespan: Ts) -> DeviceProfile {
        debug_assert!(
            tp.windows(2).all(|w| w[0].0 <= w[1].0),
            "TP spans must be sorted by start"
        );
        let (Some(&(leading_end, _)), Some(&(_, trailing_start))) =
            (compute.first(), compute.last())
        else {
            return DeviceProfile {
                leading_end: makespan,
                trailing_start: makespan,
                interior: Vec::new(),
                comm_windows: Vec::new(),
            };
        };
        // reach[i] = latest end among tp[..=i]. It never decreases, so "some
        // span of tp[..p] ends after t" is `reach[p - 1] > t`, and the first
        // span that can end after t is a partition point.
        let reach: Vec<Ts> = (tp.iter())
            .scan(Ts::MIN, |m, &(_, e)| {
                *m = (*m).max(e);
                Some(*m)
            })
            .collect();
        let tp_anchor = |t: Ts| tp.partition_point(|&(s, _)| s < t);

        let mut interior = Vec::new();
        for (i, w) in compute.windows(2).enumerate() {
            let (a, b) = (w[0].1, w[1].0);
            if b > a {
                let p = tp_anchor(b);
                interior.push(FreeInterval {
                    start: a,
                    end: b,
                    tp: p > 0 && reach[p - 1] > a,
                    anchor: (i + 1) as u32,
                });
            }
        }

        let mut comm_windows = Vec::new();
        for &(start, b) in compute {
            let mut a = start;
            // Every span before `first` ends at or before `start`, and the
            // spans are sorted by start, so none after the first `ts >= b`
            // can meet the compute span either.
            let first = reach.partition_point(|&r| r <= start);
            for &(ts, te) in &tp[first..] {
                if ts >= b {
                    break;
                }
                if te <= a {
                    continue;
                }
                if ts > a {
                    comm_windows.push(FreeInterval {
                        start: a,
                        end: ts,
                        tp: false,
                        anchor: tp_anchor(a) as u32,
                    });
                }
                a = te;
            }
            if b > a {
                comm_windows.push(FreeInterval {
                    start: a,
                    end: b,
                    tp: false,
                    anchor: tp_anchor(a) as u32,
                });
            }
        }

        DeviceProfile {
            leading_end,
            trailing_start,
            interior,
            comm_windows,
        }
    }

    /// Total interior bubble capacity.
    pub fn interior_capacity(&self) -> Ts {
        self.interior.iter().map(|i| i.len()).sum()
    }
}

/// The complete profile of one LLM pipeline.
#[derive(Debug, Clone)]
pub struct LlmProfile {
    /// The LLM plan the profile was built for.
    pub llm_plan: ParallelPlan,
    /// Whether forward dependency points were deferred by slack analysis.
    pub adjusted: bool,
    /// The pipeline spec used (stages, DP durations, P2P).
    pub spec: PipelineSpec,
    /// The schedule used.
    pub schedule: PipelineSchedule,
    /// The lowered graph (for verification splicing).
    pub lowered: Lowered,
    /// The LLM-only simulation result.
    pub result: SimResult,
    /// Step makespan (includes the trailing reduce-scatter).
    pub makespan: Ts,
    /// Adjusted forward dependency points `F_i` (Fig. 12 deferral).
    pub f_points: Vec<Ts>,
    /// Backward dependency points `B_i`.
    pub b_points: Vec<Ts>,
    /// Per pipeline-stage device profiles.
    pub devices: Vec<DeviceProfile>,
    /// P2P margin applied to cross-device encoder dependencies.
    pub p2p_margin: DurNs,
    /// The cluster-scale simulation behind this profile: `Some` when it was
    /// built from the full cluster graph (`folded = true` and
    /// `tp · dp > 1`), `None` when the base pipeline was simulated directly.
    /// Benchmark API, like [`LlmProfile::build_routed`]'s `folded`.
    pub fold: Option<crate::fold::FoldSummary>,
}

impl LlmProfile {
    /// Builds the profile with adjusted (deferred) forward dependency points
    /// — the Fig. 12 behaviour, used for latency estimation.
    pub fn build(
        w: &Workload,
        llm_plan: &ParallelPlan,
        ctx: &SystemContext,
    ) -> Result<LlmProfile, OptimusError> {
        LlmProfile::build_with(w, llm_plan, ctx, true)
    }

    /// Builds the profile, choosing whether forward dependency points are
    /// deferred by slack analysis (`adjusted = true`, Fig. 12) or taken from
    /// the actual schedule (`adjusted = false`, required for exact
    /// re-simulation in [`crate::verify()`]: deferred consumption implies a
    /// warmup reorder the unmodified task graph does not perform).
    pub fn build_with(
        w: &Workload,
        llm_plan: &ParallelPlan,
        ctx: &SystemContext,
        adjusted: bool,
    ) -> Result<LlmProfile, OptimusError> {
        LlmProfile::build_full(w, llm_plan, ctx, adjusted, LlmScheduleKind::OneFOneB)
    }

    /// Builds the profile under an explicit LLM pipeline schedule by
    /// simulating the base pipeline once (the default path).
    pub fn build_full(
        w: &Workload,
        llm_plan: &ParallelPlan,
        ctx: &SystemContext,
        adjusted: bool,
        kind: LlmScheduleKind,
    ) -> Result<LlmProfile, OptimusError> {
        LlmProfile::build_routed(w, llm_plan, ctx, adjusted, kind, false)
    }

    /// Builds the profile, choosing how the pipeline is simulated.
    ///
    /// With `folded = true` and `tp · dp > 1`, the base pipeline is expanded
    /// to the full `pp × tp × dp` cluster graph ([`crate::fold`]), simulated
    /// whole, and copy `(0, 0)` is projected back. That is bit-identical to
    /// simulating the base pipeline directly and only records a
    /// [`crate::fold::FoldSummary`] on the profile, at the cost of a much
    /// slower, larger build. `folded = false` is the default everywhere.
    /// The argument is benchmark API: the benchmark change that drops its
    /// fold calls removes it and collapses the profile builders into one.
    pub fn build_routed(
        w: &Workload,
        llm_plan: &ParallelPlan,
        ctx: &SystemContext,
        adjusted: bool,
        kind: LlmScheduleKind,
        folded: bool,
    ) -> Result<LlmProfile, OptimusError> {
        if kind == LlmScheduleKind::ZeroBubble && llm_plan.vpp != 1 {
            return Err(OptimusError::Setup(
                "the zero-bubble schedule supports vpp = 1 only".into(),
            ));
        }
        llm_plan
            .check(w.num_gpus, ctx.topo.gpus_per_node)
            .map_err(|e| OptimusError::Setup(e.to_string()))?;
        let n_mb = w.microbatches(llm_plan.dp).ok_or_else(|| {
            OptimusError::Infeasible(format!("batch {} ∤ dp {}", w.global_batch, llm_plan.dp))
        })?;
        let timer = ctx
            .timer(llm_plan.tp)
            .map_err(|e| OptimusError::Setup(e.to_string()))?;
        let mb = u64::from(w.microbatch_size);
        let stages: Vec<StageSpec> = match kind {
            LlmScheduleKind::OneFOneB => {
                llm_stages(&w.mllm.llm, llm_plan, mb, w.mllm.llm_seq, &timer)
            }
            LlmScheduleKind::ZeroBubble => llm_plan
                .layer_split(w.mllm.llm.layers as u32)
                .into_iter()
                .map(|n| {
                    StageSpec::transformer_layers_split(
                        &w.mllm.llm,
                        n,
                        mb,
                        w.mllm.llm_seq,
                        u64::from(llm_plan.tp),
                        &timer,
                    )
                })
                .collect(),
        };
        let max_params = stages.iter().map(|s| s.params_per_gpu).max().unwrap_or(0);
        let (dp_ag, dp_rs) = ctx
            .dp_comm(
                max_params,
                llm_plan.vpp,
                llm_plan.dp,
                llm_plan.pp * llm_plan.tp,
            )
            .map_err(|e| OptimusError::Setup(e.to_string()))?;
        let act = stages.iter().map(|s| s.activation_bytes).max().unwrap_or(0);
        let spec = PipelineSpec {
            pp: llm_plan.pp,
            vpp: llm_plan.vpp,
            n_microbatches: n_mb,
            stages,
            dp_allgather: dp_ag,
            dp_reducescatter: dp_rs,
            p2p: ctx.p2p(act),
        };
        let schedule = match kind {
            LlmScheduleKind::ZeroBubble => zero_bubble_h1(llm_plan.pp, n_mb)?,
            LlmScheduleKind::OneFOneB if llm_plan.vpp > 1 => {
                interleaved_1f1b(llm_plan.pp, llm_plan.vpp, n_mb, None)?
            }
            LlmScheduleKind::OneFOneB => one_f_one_b(llm_plan.pp, n_mb)?,
        };
        let (lowered, result, fold) = if folded && llm_plan.tp * llm_plan.dp > 1 {
            let lowered = lower(&spec, &schedule, &[])?;
            let cluster = crate::fold::expand_cluster(&lowered.graph, llm_plan.tp, llm_plan.dp);
            let run = crate::fold::simulate_symmetric(&cluster.graph, &cluster.coords)?;
            let summary = crate::fold::FoldSummary {
                devices_simulated: cluster.graph.num_devices() as usize,
            };
            let base = cluster.base_result(&run.result);
            (lowered, base, Some(summary))
        } else {
            let (lowered, result) = simulate_pipeline(&spec, &schedule, &[])?;
            (lowered, result, None)
        };
        let dep = dependency_points(&lowered, &result, n_mb, adjusted)?;

        let makespan = result.makespan().0 as Ts;
        let devices = (0..llm_plan.pp)
            .map(|d| extract_device(&lowered.graph, &result, d, makespan))
            .collect();

        Ok(LlmProfile {
            llm_plan: *llm_plan,
            adjusted,
            p2p_margin: spec.p2p,
            spec,
            schedule,
            lowered,
            result,
            makespan,
            f_points: dep.forward.iter().map(|t| t.0 as Ts).collect(),
            b_points: dep.backward.iter().map(|t| t.0 as Ts).collect(),
            devices,
            fold,
        })
    }

    /// Number of microbatches.
    pub fn n_microbatches(&self) -> u32 {
        self.spec.n_microbatches
    }
}

fn extract_device(
    graph: &TaskGraph,
    result: &SimResult,
    device: u32,
    makespan: Ts,
) -> DeviceProfile {
    let compute: Vec<(Ts, Ts)> = (result.stream_spans(graph, device, Stream::Compute).iter())
        .map(|s| (s.start.0 as Ts, s.end.0 as Ts))
        .collect();
    let mut tp_spans: Vec<(Ts, Ts)> = (graph.dag().device_tasks(device).iter())
        .filter(|&&t| graph.task(t).kind == TaskKind::LlmTpComm)
        .map(|&t| {
            let s = result.span(t);
            (s.start.0 as Ts, s.end.0 as Ts)
        })
        .collect();
    tp_spans.sort_unstable();
    DeviceProfile::from_spans(&compute, &tp_spans, makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_modeling::MllmConfig;

    fn profile() -> LlmProfile {
        // Small but real: GPT-11B, pp=2, tp=2, dp=2, 8 microbatches.
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let plan = ParallelPlan::new(2, 2, 2).unwrap();
        let ctx = SystemContext::hopper(8).unwrap();
        LlmProfile::build(&w, &plan, &ctx).unwrap()
    }

    #[test]
    fn leading_and_trailing_regions_ordered() {
        let p = profile();
        for d in &p.devices {
            assert!(d.leading_end >= 0);
            assert!(d.trailing_start >= d.leading_end);
            assert!(d.trailing_start <= p.makespan);
        }
        // Later pipeline stages start later (warmup).
        assert!(p.devices[1].leading_end > p.devices[0].leading_end);
    }

    #[test]
    fn interior_bubbles_inside_span() {
        let p = profile();
        for d in &p.devices {
            for b in &d.interior {
                assert!(b.start >= d.leading_end && b.end <= d.trailing_start);
                assert!(!b.is_empty());
            }
        }
    }

    #[test]
    fn tp_bubbles_detected() {
        let p = profile();
        let tp_count: usize = p
            .devices
            .iter()
            .map(|d| d.interior.iter().filter(|b| b.tp).count())
            .sum();
        assert!(tp_count > 0, "expected TP bubbles with tp=2");
    }

    #[test]
    fn comm_windows_disjoint_from_tp_traffic() {
        let p = profile();
        // Windows lie within the LLM span and have positive length.
        for d in &p.devices {
            for w in &d.comm_windows {
                assert!(!w.is_empty());
                assert!(w.start >= d.leading_end && w.end <= d.trailing_start);
            }
        }
    }

    #[test]
    fn dependency_points_cover_all_microbatches() {
        let p = profile();
        assert_eq!(p.f_points.len(), 8);
        assert_eq!(p.b_points.len(), 8);
        for i in 0..8 {
            assert!(p.b_points[i] > p.f_points[i]);
        }
    }

    #[test]
    fn makespan_positive_and_bounded() {
        let p = profile();
        assert!(p.makespan > 0);
        // Step should be on the order of 0.1–10 s for this config.
        let secs = p.makespan as f64 / 1e9;
        assert!((0.01..30.0).contains(&secs), "{secs}s");
    }
}
