//! The bubble-fill placement engine.
//!
//! [`plan_fill`] packs a batch of [`FillJob`]s into one step's arbitrated
//! bubbles. Jobs are served in priority order (class rank, then submission
//! order); each picks the admissible device with the most remaining bubble
//! capacity, loads its working state over the storage link (divisible
//! spans), runs as many preemptible chunks as fit atomically inside single
//! bubbles, and — when preempted before completion — writes its state back
//! out. A configurable slack budget adds one synthetic bubble after each
//! device's tail, bounding exactly how far fill work may stretch the step
//! past its makespan. Jobs whose state movement or first chunk cannot be
//! funded are deferred untouched.
//!
//! The engine is sequential and allocation-order deterministic: the
//! resulting [`FillPlan`] is bit-identical however many workers the primary
//! plan search used, because its only input is the (deterministic) run.

use optimus_cluster::ClusterTopology;
use optimus_core::OptimusRun;
use optimus_lint::{Analyzer, FillSpec, InsertClaim, InsertSet, LintReport, Severity};
use optimus_parallel::ParallelPlan;

use crate::arbiter::{BubbleArbiter, TakenSpan};
use crate::error::FillError;
use crate::job::{storage_time_ns, FillJob};

/// Bubble-fill planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillConfig {
    /// Slack budget as a fraction of the step latency: fill work may
    /// stretch the step past its tail by at most `slack_budget · step_ns`.
    /// `0.0` confines fill strictly to proven-idle bubbles.
    pub slack_budget: f64,
}

impl Default for FillConfig {
    fn default() -> FillConfig {
        FillConfig { slack_budget: 0.05 }
    }
}

impl FillConfig {
    fn validate(&self) -> Result<(), FillError> {
        if !self.slack_budget.is_finite() || !(0.0..=1.0).contains(&self.slack_budget) {
            return Err(FillError::Invalid(format!(
                "slack_budget must be in [0, 1], got {}",
                self.slack_budget
            )));
        }
        Ok(())
    }
}

/// What happened to one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job as submitted.
    pub job: FillJob,
    /// Host device, when any chunk was scheduled; `None` for deferred jobs.
    pub device: Option<u32>,
    /// Chunks placed into bubbles this step.
    pub scheduled_chunks: u32,
    /// Chunks preempted out (state evicted; they run in a later step).
    pub evicted_chunks: u32,
    /// Chunks deferred untouched (the job never started).
    pub deferred_chunks: u32,
    /// Storage time spent loading working state, ns.
    pub load_ns: i64,
    /// Storage time spent evicting working state, ns.
    pub evict_ns: i64,
}

impl JobOutcome {
    /// True when every submitted chunk was scheduled.
    pub fn completed(&self) -> bool {
        self.scheduled_chunks == self.job.chunks
    }

    /// Scheduled compute, ns.
    pub fn compute_ns(&self) -> i64 {
        self.scheduled_chunks as i64 * self.job.chunk_ns
    }

    /// Storage overhead (load + evict), ns.
    pub fn overhead_ns(&self) -> i64 {
        self.load_ns + self.evict_ns
    }
}

/// What a placed fill span does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSpanKind {
    /// Working-state load over the storage link.
    Load,
    /// Preemptible compute chunk `i` of the job.
    Chunk(u32),
    /// Working-state evict over the storage link.
    Evict,
}

impl FillSpanKind {
    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            FillSpanKind::Load => "load".into(),
            FillSpanKind::Chunk(i) => format!("chunk{i}"),
            FillSpanKind::Evict => "evict".into(),
        }
    }
}

/// One placed fill span (lane-agnostic; the device-wide truth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillSpanRec {
    /// Owning job name.
    pub job: String,
    /// Host device.
    pub device: u32,
    /// What the span does.
    pub kind: FillSpanKind,
    /// Span start, ns.
    pub start: i64,
    /// Span end (exclusive), ns.
    pub end: i64,
}

impl FillSpanRec {
    /// Span duration, ns.
    pub fn dur(&self) -> i64 {
        self.end - self.start
    }
}

/// A priced, placed bubble-fill schedule for one step.
#[derive(Debug, Clone, PartialEq)]
pub struct FillPlan {
    /// Jobs as submitted.
    pub jobs: Vec<FillJob>,
    /// Per-job outcomes, in submission order; chunks conserve exactly
    /// (`scheduled + evicted + deferred == submitted` per job).
    pub outcomes: Vec<JobOutcome>,
    /// Every placed span, in service order (lane-agnostic).
    pub spans: Vec<FillSpanRec>,
    /// The fill claims in the OPT005 claim model, duplicated across
    /// colocation lanes (a fill span occupies the device outright).
    pub claims: Vec<InsertClaim>,
    /// The combined insert set: the schedule's own claims, the extra
    /// (checkpoint) claims, and the fill claims, against the proven-idle
    /// intervals plus the slack appendix.
    pub insert_set: InsertSet,
    /// The schedule's own (primary) claims.
    pub primary_claims: Vec<InsertClaim>,
    /// The extra claims the placement arbitrated around (checkpoint shard
    /// writes).
    pub checkpoint_claims: Vec<InsertClaim>,
    /// Fault-free step latency of the underlying schedule, ns.
    pub step_ns: i64,
    /// Where the primary step ends on the busiest device (tail of primary
    /// plus checkpoint claims, at least the makespan), ns.
    pub step_end_ns: i64,
    /// How far fill work stretches the step past `step_end_ns`, ns.
    pub stretch_ns: i64,
    /// The configured slack budget in ns (`round(slack_budget · step_ns)`);
    /// `stretch_ns <= slack_budget_ns` by construction.
    pub slack_budget_ns: i64,
    /// Per-device free bubble capacity before fill (after primary and
    /// checkpoint claims), ns.
    pub bubble_capacity_ns: Vec<i64>,
    /// Devices in the schedule.
    pub devices: u32,
    /// Device-time the primary job keeps busy per step (total device-time
    /// minus statically proven compute-bubble idle), ns.
    pub primary_busy_ns: i64,
}

/// One job's trial placement before commit.
struct Trial {
    arb: BubbleArbiter,
    load: Vec<TakenSpan>,
    chunks: Vec<TakenSpan>,
    evict: Vec<TakenSpan>,
    evict_ns: i64,
}

/// Attempts to place `q` chunks of `job` on `device` on a clone of `arb`:
/// the state load first, then `q` atomic chunks, then — if preempted — the
/// state evict. `None` when any part cannot be funded.
fn attempt(
    arb: &BubbleArbiter,
    device: u32,
    job: &FillJob,
    load_ns: i64,
    q: u32,
    storage: &optimus_cluster::LinkProfile,
) -> Option<Trial> {
    let mut trial = arb.clone();
    let load = trial.take(device, load_ns);
    if load.iter().map(TakenSpan::dur).sum::<i64>() < load_ns {
        return None;
    }
    let mut chunks = Vec::with_capacity(q as usize);
    for _ in 0..q {
        chunks.push(trial.take_atomic(device, job.chunk_ns)?);
    }
    let evict_ns = if q < job.chunks && job.state_bytes > 0 {
        storage_time_ns(job.state_bytes, storage)
    } else {
        0
    };
    let evict = trial.take(device, evict_ns);
    if evict.iter().map(TakenSpan::dur).sum::<i64>() < evict_ns {
        return None;
    }
    Some(Trial {
        arb: trial,
        load,
        chunks,
        evict,
        evict_ns,
    })
}

/// Places a batch of fill jobs into one step's bubbles.
///
/// `extra_claims` are spans an earlier consumer already holds (checkpoint
/// shard writes); fill never overlaps them. See the module docs for the
/// placement policy.
pub fn plan_fill(
    run: &OptimusRun,
    llm_plan: ParallelPlan,
    topo: &ClusterTopology,
    extra_claims: &[InsertClaim],
    jobs: &[FillJob],
    cfg: &FillConfig,
) -> Result<FillPlan, FillError> {
    cfg.validate()?;
    for job in jobs {
        job.validate()?;
    }
    for (i, a) in jobs.iter().enumerate() {
        if jobs[i + 1..].iter().any(|b| b.name == a.name) {
            return Err(FillError::Invalid(format!(
                "duplicate job name `{}`",
                a.name
            )));
        }
    }
    let step_ns = run.outcome.latency;
    if step_ns <= 0 {
        return Err(FillError::Invalid(format!(
            "non-positive step latency {step_ns}"
        )));
    }

    let mut arb = BubbleArbiter::new(run, llm_plan, extra_claims)?;
    let devices = arb.devices();
    let lanes = arb.lanes().max(1);
    let bubble_capacity_ns = arb.initial_capacities().to_vec();
    let step_end_ns = (0..devices)
        .map(|d| arb.device_tail(d))
        .max()
        .unwrap_or(arb.makespan());
    let slack_budget_ns = (cfg.slack_budget * step_ns as f64).round() as i64;
    arb.extend_tail(slack_budget_ns);

    // Worst-rank resident estimate: every device starts with the same HBM
    // headroom, which shrinks as jobs are pinned to it.
    let resident = run.memory.total();
    let mut headroom: Vec<u64> =
        vec![topo.gpu.hbm_capacity.saturating_sub(resident); devices as usize];

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].priority.rank(), i));

    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    let mut spans: Vec<FillSpanRec> = Vec::new();
    let mut claims: Vec<InsertClaim> = Vec::new();

    for &ji in &order {
        let job = &jobs[ji];
        let defer = JobOutcome {
            job: job.clone(),
            device: None,
            scheduled_chunks: 0,
            evicted_chunks: 0,
            deferred_chunks: job.chunks,
            load_ns: 0,
            evict_ns: 0,
        };
        // Admission: the job's resident footprint must fit the device.
        let mut device: Option<u32> = None;
        for d in 0..devices {
            if headroom[d as usize] < job.memory_bytes {
                continue;
            }
            match device {
                Some(best) if arb.remaining(d) <= arb.remaining(best) => {}
                _ => device = Some(d),
            }
        }
        let Some(device) = device else {
            outcomes[ji] = Some(defer);
            continue;
        };
        let load_ns = if job.state_bytes > 0 {
            storage_time_ns(job.state_bytes, &topo.storage)
        } else {
            0
        };

        // How many chunks fit greedily after the load, then back off one
        // chunk at a time until the (preemption) evict is fundable too.
        let max_fit = {
            let mut probe = arb.clone();
            let load = probe.take(device, load_ns);
            if load.iter().map(TakenSpan::dur).sum::<i64>() < load_ns {
                outcomes[ji] = Some(defer);
                continue;
            }
            let mut q = 0u32;
            while q < job.chunks && probe.take_atomic(device, job.chunk_ns).is_some() {
                q += 1;
            }
            q
        };
        let mut placed: Option<(u32, Trial)> = None;
        let mut q = max_fit;
        while q > 0 {
            if let Some(trial) = attempt(&arb, device, job, load_ns, q, &topo.storage) {
                placed = Some((q, trial));
                break;
            }
            q -= 1;
        }
        let Some((q, trial)) = placed else {
            outcomes[ji] = Some(defer);
            continue;
        };

        // Commit.
        arb = trial.arb;
        headroom[device as usize] -= job.memory_bytes;
        let mut push = |kind: FillSpanKind, span: &TakenSpan| {
            spans.push(FillSpanRec {
                job: job.name.clone(),
                device,
                kind,
                start: span.start,
                end: span.end,
            });
            // A fill span occupies the device outright: claim it on every
            // colocation lane so overlap with any lane's insert trips
            // OPT005.
            for lane in 0..lanes {
                claims.push(InsertClaim {
                    device,
                    lane,
                    comm: false,
                    start: span.start,
                    end: span.end,
                    label: format!("fill {} {}", job.name, kind.label()),
                    chain: None,
                });
            }
        };
        for s in &trial.load {
            push(FillSpanKind::Load, s);
        }
        for (c, s) in trial.chunks.iter().enumerate() {
            push(FillSpanKind::Chunk(c as u32), s);
        }
        for s in &trial.evict {
            push(FillSpanKind::Evict, s);
        }
        outcomes[ji] = Some(JobOutcome {
            job: job.clone(),
            device: Some(device),
            scheduled_chunks: q,
            evicted_chunks: job.chunks - q,
            deferred_chunks: 0,
            load_ns,
            evict_ns: trial.evict_ns,
        });
    }

    let stretch_ns = spans
        .iter()
        .map(|s| s.end - step_end_ns)
        .max()
        .unwrap_or(0)
        .max(0);

    let mut insert_set = arb.base().clone();
    // The slack appendix lives inside the open trailing idle interval, so
    // no extra interval entries are needed for containment.
    insert_set.claims.extend(extra_claims.iter().cloned());
    insert_set.claims.extend(claims.iter().cloned());

    let primary_busy_ns = devices as i64 * step_ns
        - bubble_capacity_ns.iter().sum::<i64>()
        - extra_claims
            .iter()
            .filter(|c| c.lane == 0)
            .map(|c| c.end - c.start)
            .sum::<i64>();

    Ok(FillPlan {
        jobs: jobs.to_vec(),
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every job resolved"))
            .collect(),
        spans,
        claims,
        insert_set,
        primary_claims: arb.base().claims.clone(),
        checkpoint_claims: extra_claims.to_vec(),
        step_ns,
        step_end_ns,
        stretch_ns,
        slack_budget_ns,
        bubble_capacity_ns,
        devices,
        primary_busy_ns,
    })
}

impl FillPlan {
    /// The OPT008 claim classes: primary compute-side claims, checkpoint
    /// claims (lane-deduplicated), and lane-deduplicated fill claims.
    pub fn fill_spec(&self) -> FillSpec {
        let dedup = |claims: &[InsertClaim]| -> Vec<InsertClaim> {
            claims.iter().filter(|c| c.lane == 0).cloned().collect()
        };
        FillSpec {
            primary: self
                .primary_claims
                .iter()
                .filter(|c| !c.comm)
                .cloned()
                .collect(),
            checkpoint: dedup(&self.checkpoint_claims),
            fill: dedup(&self.claims),
        }
    }

    /// Total fill compute scheduled, ns.
    pub fn fill_compute_ns(&self) -> i64 {
        self.outcomes.iter().map(JobOutcome::compute_ns).sum()
    }

    /// Total fill storage overhead (loads + evicts), ns.
    pub fn fill_overhead_ns(&self) -> i64 {
        self.outcomes.iter().map(JobOutcome::overhead_ns).sum()
    }

    /// Statically validates the placement: the combined primary +
    /// checkpoint + fill claims must pass OPT005 (containment + per-lane
    /// exclusivity) and the fill claims must pass OPT008 (no overlap with
    /// primary, checkpoint, or sibling fill claims). Returns the full
    /// report; error-severity diagnostics fail.
    pub fn verify(&self) -> Result<LintReport, FillError> {
        let report = Analyzer::new()
            .inserts(self.insert_set.clone())
            .fill(self.fill_spec())
            .analyze();
        let errors: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| format!("{}: {}", d.code.code(), d.message))
            .collect();
        if errors.is_empty() {
            Ok(report)
        } else {
            Err(FillError::Lint(errors))
        }
    }
}
