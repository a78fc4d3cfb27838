//! End-to-end verification: splice the chosen bubble schedule back into the
//! LLM task graph and re-simulate the combined step.
//!
//! The scheduler works against a *profile* (as the real system works against
//! offline CUDA traces, §6); the verifier closes the loop by executing the
//! combined encoder+LLM schedule under full dependency semantics — encoder
//! stage chains, encoder↔LLM activation/gradient transfers, FIFO stream
//! contention — and comparing the measured makespan against the scheduler's
//! estimate. This catches dependency bugs an analytic estimate would hide.
//!
//! Verification currently supports `lanes == 1` layouts (`TP_enc = TP_llm`):
//! with multiple lanes, sub-groups of one TP group run different encoder
//! pipelines concurrently, which a one-device-per-TP-group graph cannot
//! express. The scheduler itself handles lanes; only this re-simulation is
//! restricted.

use std::collections::HashMap;

use optimus_baselines::common::SystemContext;
use optimus_cluster::DurNs;
use optimus_modeling::Workload;
use optimus_pipeline::{lower, Dir, InsertKernel, InsertStream, Lowered, OpRef};
use optimus_sim::{simulate, TaskKind};

use crate::encoder::EncoderWork;
use crate::error::OptimusError;
use crate::optimus::OptimusRun;
use crate::profile::Ts;
use crate::scheduler::CoarseBlock;

/// Result of re-simulating a bubble schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyReport {
    /// The scheduler's latency estimate (seconds).
    pub estimated_secs: f64,
    /// The re-simulated latency (seconds).
    pub simulated_secs: f64,
    /// Relative error of the estimate.
    pub rel_error: f64,
}

/// Matches encoder microbatches to LLM microbatch slots by global ordering
/// (§4.3): the k-th finishing encoder forward feeds the LLM microbatch with
/// the k-th earliest forward dependency point.
fn slot_assignment(values: &[Ts], points: &[Ts]) -> Vec<u32> {
    let mut vi: Vec<usize> = (0..values.len()).collect();
    vi.sort_by_key(|&i| values[i]);
    let mut pi: Vec<usize> = (0..points.len()).collect();
    pi.sort_by_key(|&i| points[i]);
    let mut assign = vec![0u32; values.len()];
    for (rank, &v) in vi.iter().enumerate() {
        assign[v] = pi[rank] as u32;
    }
    assign
}

/// Re-simulates `run`'s schedule and compares against its estimate.
///
/// `tolerance` is the accepted relative error (e.g. `0.05`).
pub fn verify(
    run: &OptimusRun,
    w: &Workload,
    ctx: &SystemContext,
    tolerance: f64,
) -> Result<VerifyReport, OptimusError> {
    let lowered = lowered_schedule(run, w, ctx)?;

    // Lint before simulating: a structural defect in the spliced graph
    // (FIFO inversion, dependency cycle, mismatched collective sequence)
    // surfaces as a typed report with named witnesses instead of a
    // simulator deadlock on anonymous task ids.
    let lint = optimus_lint::Analyzer::new()
        .graph(&lowered.graph)
        .collectives(optimus_lint::CollectiveSpec::from_graph(&lowered.graph))
        .collectives(optimus_lint::CollectiveSpec::enc_p2p_from_graph(
            &lowered.graph,
        ))
        .namer(|id| lowered.describe(id))
        .analyze();
    if lint.has_errors() {
        return Err(OptimusError::LintFailed {
            diagnostics: lint.errors().map(|d| d.summary()).collect(),
        });
    }

    let result = simulate(&lowered.graph).map_err(|e| OptimusError::Substrate(e.to_string()))?;

    let estimated = run.outcome.latency_secs();
    let simulated = result.makespan().as_secs_f64();
    let rel = (simulated - estimated).abs() / estimated.max(1e-12);
    if rel > tolerance {
        return Err(OptimusError::VerificationFailed {
            estimated_secs: estimated,
            simulated_secs: simulated,
        });
    }
    Ok(VerifyReport {
        estimated_secs: estimated,
        simulated_secs: simulated,
        rel_error: rel,
    })
}

/// Splices the chosen bubble schedule into the LLM task graph and lowers
/// the combined step, without simulating it.
///
/// This is the shared entry for every harness that needs the *executable*
/// task graph of a run — the verifier, the adaptive resilience study, the
/// jitter and drift robustness studies, and the adversarial chaos search
/// (`optimus-chaos`). Preconditions match
/// [`verify`]: `TP_enc == TP_llm` (a one-lane layout the graph can express
/// exactly) and unadjusted dependency points.
pub fn lowered_schedule(
    run: &OptimusRun,
    w: &Workload,
    ctx: &SystemContext,
) -> Result<Lowered, OptimusError> {
    if run.enc_plan.tp != run.profile.llm_plan.tp {
        return Err(OptimusError::Infeasible(
            "schedule splicing supports TP_enc == TP_llm layouts only".into(),
        ));
    }
    if run.profile.adjusted {
        return Err(OptimusError::Infeasible(
            "schedule splicing requires unadjusted dependency points (set \
             OptimusConfig::adjust_dep_points = false): deferred F points \
             imply a warmup reorder the unmodified task graph cannot express"
                .into(),
        ));
    }
    let work = EncoderWork::build(&w.mllm, &run.enc_plan, u64::from(w.microbatch_size), ctx)?;
    let inserts = build_inserts(run, &work)?;
    Ok(lower(&run.profile.spec, &run.profile.schedule, &inserts)?)
}

fn build_inserts(run: &OptimusRun, work: &EncoderWork) -> Result<Vec<InsertKernel>, OptimusError> {
    let outcome = &run.outcome;
    // Heterogeneous-load scale of (pipeline, local mb), matching the
    // scheduler's contiguous assignment.
    let scale_of = |pipeline: u32, mb: u32| -> f64 {
        let offset: u32 = outcome.partition[..pipeline as usize].iter().sum();
        outcome
            .mb_scales
            .get((offset + mb) as usize)
            .copied()
            .unwrap_or(1.0)
    };
    let profile = &run.profile;
    let n_mb = profile.n_microbatches();
    let pp_enc = run.enc_plan.pp;

    let fwd_slots = slot_assignment(&outcome.ef, &profile.f_points);
    let bwd_slots = slot_assignment(&outcome.eb, &profile.b_points);

    // (pipeline, local mb) → flat index in ef/eb (pipeline-major, ascending
    // microbatch — the order the scheduler assembled them in).
    let mut flat_of: HashMap<(u32, u32), usize> = HashMap::new();
    let mut idx = 0usize;
    for (j, &n) in outcome.partition.iter().enumerate() {
        for mb in 0..n {
            flat_of.insert((j as u32, mb), idx);
            idx += 1;
        }
    }
    if idx != n_mb as usize {
        return Err(OptimusError::Setup("partition/microbatch mismatch".into()));
    }

    // Last forward placement per (pipeline, mb), to attach the feeds edge.
    let mut last_fwd_placement: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, p) in outcome.placements.iter().enumerate() {
        if p.dir == Dir::Fwd {
            last_fwd_placement.insert((p.pipeline, p.microbatch), i);
        }
    }

    let mut inserts: Vec<InsertKernel> = Vec::new();
    let mut last_of: HashMap<(u32, u32, u32, Dir), u32> = HashMap::new();
    let mut block_tail: HashMap<(u32, u32, Dir), u32> = HashMap::new();

    // --- Coarse forward blocks: one aggregate insert per (stage, mb). ---
    let mut fwd_blocks: Vec<&CoarseBlock> = outcome
        .blocks
        .iter()
        .filter(|b| b.dir == Dir::Fwd && b.microbatches > 0)
        .collect();
    fwd_blocks.sort_by_key(|b| (b.pipeline, b.enc_stage));
    for b in &fwd_blocks {
        for mb in 0..b.microbatches {
            let per_mb = DurNs(
                ((work.stages[b.enc_stage as usize].fwd_serial().max(0) as f64)
                    * scale_of(b.pipeline, mb))
                .round() as u64,
            );
            let mut deps = Vec::new();
            if let Some(&prev) = block_tail.get(&(b.pipeline, b.enc_stage, Dir::Fwd)) {
                deps.push(prev);
            }
            if b.enc_stage > 0 {
                if let Some(&up) = last_of.get(&(b.pipeline, b.enc_stage - 1, mb, Dir::Fwd)) {
                    deps.push(up);
                }
            }
            let feeds = if b.enc_stage + 1 == pp_enc {
                let flat = flat_of[&(b.pipeline, mb)];
                vec![OpRef {
                    rank: 0,
                    chunk: 0,
                    microbatch: fwd_slots[flat],
                    dir: Dir::Fwd,
                }]
            } else {
                Vec::new()
            };
            let i = inserts.len() as u32;
            inserts.push(InsertKernel {
                device: b.llm_stage,
                stream: InsertStream::Compute,
                label: "enc_fwd_stage",
                kind: TaskKind::EncFwd {
                    pipeline: b.pipeline,
                    stage: b.enc_stage,
                    microbatch: mb,
                },
                dur: per_mb,
                queue_index: 0,
                dep_inserts: deps,
                dep_ops: Vec::new(),
                feeds_ops: feeds,
            });
            last_of.insert((b.pipeline, b.enc_stage, mb, Dir::Fwd), i);
            block_tail.insert((b.pipeline, b.enc_stage, Dir::Fwd), i);
        }
    }

    // --- Fine-grained relocated forward kernels (stored in chain order). ---
    for (pi, p) in outcome.placements.iter().enumerate() {
        if p.dir != Dir::Fwd {
            continue;
        }
        let key = (p.pipeline, p.enc_stage, p.microbatch, Dir::Fwd);
        let mut deps = Vec::new();
        if let Some(&prev) = last_of.get(&key) {
            deps.push(prev);
        } else {
            if p.enc_stage > 0 {
                if let Some(&up) =
                    last_of.get(&(p.pipeline, p.enc_stage - 1, p.microbatch, Dir::Fwd))
                {
                    deps.push(up);
                }
            }
            if let Some(&tail) = block_tail.get(&(p.pipeline, p.enc_stage, Dir::Fwd)) {
                deps.push(tail);
            }
        }
        let feeds = if p.enc_stage + 1 == pp_enc
            && last_fwd_placement.get(&(p.pipeline, p.microbatch)) == Some(&pi)
        {
            let flat = flat_of[&(p.pipeline, p.microbatch)];
            vec![OpRef {
                rank: 0,
                chunk: 0,
                microbatch: fwd_slots[flat],
                dir: Dir::Fwd,
            }]
        } else {
            Vec::new()
        };
        let i = inserts.len() as u32;
        inserts.push(InsertKernel {
            device: p.llm_stage,
            stream: if p.comm {
                InsertStream::TpComm
            } else {
                InsertStream::Compute
            },
            label: p.label,
            kind: if p.comm {
                TaskKind::EncTpComm
            } else {
                TaskKind::EncFwd {
                    pipeline: p.pipeline,
                    stage: p.enc_stage,
                    microbatch: p.microbatch,
                }
            },
            dur: DurNs((p.end - p.start).max(0) as u64),
            queue_index: p.anchor,
            dep_inserts: deps,
            dep_ops: Vec::new(),
            feeds_ops: feeds,
        });
        last_of.insert(key, i);
    }

    // --- Fine-grained relocated backward kernels. ---
    for p in &outcome.placements {
        if p.dir != Dir::Bwd {
            continue;
        }
        let key = (p.pipeline, p.enc_stage, p.microbatch, Dir::Bwd);
        let mut deps = Vec::new();
        let mut dep_ops = Vec::new();
        if let Some(&prev) = last_of.get(&key) {
            deps.push(prev);
        } else if p.enc_stage + 1 < pp_enc {
            if let Some(&up) = last_of.get(&(p.pipeline, p.enc_stage + 1, p.microbatch, Dir::Bwd)) {
                deps.push(up);
            }
        } else {
            let flat = flat_of[&(p.pipeline, p.microbatch)];
            dep_ops.push(OpRef {
                rank: 0,
                chunk: 0,
                microbatch: bwd_slots[flat],
                dir: Dir::Bwd,
            });
        }
        let i = inserts.len() as u32;
        inserts.push(InsertKernel {
            device: p.llm_stage,
            stream: if p.comm {
                InsertStream::TpComm
            } else {
                InsertStream::Compute
            },
            label: p.label,
            kind: if p.comm {
                TaskKind::EncTpComm
            } else {
                TaskKind::EncBwd {
                    pipeline: p.pipeline,
                    stage: p.enc_stage,
                    microbatch: p.microbatch,
                }
            },
            dur: DurNs((p.end - p.start).max(0) as u64),
            queue_index: p.anchor,
            dep_inserts: deps,
            dep_ops,
            feeds_ops: Vec::new(),
        });
        last_of.insert(key, i);
    }

    // --- Coarse backward blocks: appended after all LLM kernels. ---
    // The last encoder stage runs first in the backward direction.
    let mut bwd_blocks: Vec<&CoarseBlock> = outcome
        .blocks
        .iter()
        .filter(|b| b.dir == Dir::Bwd && b.microbatches > 0)
        .collect();
    bwd_blocks.sort_by_key(|b| (b.pipeline, std::cmp::Reverse(b.enc_stage)));
    // Relocated-backward counts per pipeline (relocated mbs are 0..count).
    let mut reloc_b: HashMap<u32, u32> = HashMap::new();
    for p in &outcome.placements {
        if p.dir == Dir::Bwd {
            let e = reloc_b.entry(p.pipeline).or_insert(0);
            *e = (*e).max(p.microbatch + 1);
        }
    }
    for b in &bwd_blocks {
        let first = reloc_b.get(&b.pipeline).copied().unwrap_or(0);
        for mb in first..first + b.microbatches {
            let per_mb = DurNs(
                ((work.stages[b.enc_stage as usize].bwd_serial().max(0) as f64)
                    * scale_of(b.pipeline, mb))
                .round() as u64,
            );
            let mut deps = Vec::new();
            let mut dep_ops = Vec::new();
            if let Some(&prev) = block_tail.get(&(b.pipeline, b.enc_stage, Dir::Bwd)) {
                deps.push(prev);
            }
            if b.enc_stage + 1 < pp_enc {
                if let Some(&up) = last_of.get(&(b.pipeline, b.enc_stage + 1, mb, Dir::Bwd)) {
                    deps.push(up);
                }
            } else {
                let flat = flat_of[&(b.pipeline, mb)];
                dep_ops.push(OpRef {
                    rank: 0,
                    chunk: 0,
                    microbatch: bwd_slots[flat],
                    dir: Dir::Bwd,
                });
            }
            let i = inserts.len() as u32;
            inserts.push(InsertKernel {
                device: b.llm_stage,
                stream: InsertStream::Compute,
                label: "enc_bwd_stage",
                kind: TaskKind::EncBwd {
                    pipeline: b.pipeline,
                    stage: b.enc_stage,
                    microbatch: mb,
                },
                dur: per_mb,
                queue_index: u32::MAX,
                dep_inserts: deps,
                dep_ops,
                feeds_ops: Vec::new(),
            });
            last_of.insert((b.pipeline, b.enc_stage, mb, Dir::Bwd), i);
            block_tail.insert((b.pipeline, b.enc_stage, Dir::Bwd), i);
        }
    }

    Ok(inserts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimus::{run_optimus, OptimusConfig};
    use optimus_modeling::MllmConfig;
    use optimus_parallel::ParallelPlan;

    #[test]
    fn slot_assignment_is_a_bijection() {
        let values = vec![30i64, 10, 20];
        let points = vec![100i64, 300, 200];
        let a = slot_assignment(&values, &points);
        // values sorted: idx1(10) → point idx0(100); idx2(20) → idx2(200);
        // idx0(30) → idx1(300).
        assert_eq!(a, vec![1, 0, 2]);
        let mut seen = a.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn verified_schedule_matches_estimate() {
        // TP_enc == TP_llm so the re-simulation is exact in topology.
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        cfg.adjust_dep_points = false;
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        if run.enc_plan.tp != 2 {
            // The planner may have picked a narrower encoder TP; nothing to
            // re-simulate exactly in that case.
            return;
        }
        let report = verify(&run, &w, &ctx, 0.15).unwrap();
        assert!(report.rel_error <= 0.15, "rel error {}", report.rel_error);
        assert!(report.simulated_secs > 0.0);
    }

    #[test]
    fn adjusted_points_error_is_well_formed() {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap()); // adjusted points
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        let err = verify(&run, &w, &ctx, 0.1).unwrap_err();
        let msg = err.to_string();
        assert!(!msg.contains("  "), "double space in {msg:?}");
        if run.enc_plan.tp == run.profile.llm_plan.tp {
            assert!(msg.contains("adjust_dep_points"), "{msg}");
        }
    }

    #[test]
    fn lane_restriction_reported() {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let mut cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        cfg.adjust_dep_points = false;
        let mut run = run_optimus(&w, &cfg, &ctx).unwrap();
        run.enc_plan = ParallelPlan::new(8, 1, 1).unwrap(); // TP_enc 1 ≠ 2
        assert!(matches!(
            verify(&run, &w, &ctx, 0.1),
            Err(OptimusError::Infeasible(_))
        ));
    }
}
