//! The bubble scheduler (§4.2, Algorithm 2).
//!
//! Given an LLM bubble profile, an encoder workload, and a colocation
//! layout, the scheduler:
//!
//! 1. **Coarse-grained exploitation** — initialises a schedule per
//!    microbatch partition: each encoder pipeline runs its forwards,
//!    pipelined across its stages, ending inside the leading bubbles of its
//!    host devices (extending *before* the step origin when they do not
//!    fit — the prefix), and its backwards starting inside the trailing
//!    bubbles (extending past the step end — the suffix).
//! 2. **Fine-grained exploitation** — iteratively finds the encoder
//!    pipeline on the critical path (largest prefix/suffix) and relocates
//!    one microbatch of its computation into the interior bubbles at kernel
//!    granularity, placing compute kernels in compute bubbles and
//!    communication kernels in LLM-compute windows (Design Decision 3),
//!    re-checking the encoder–LLM dependency after every move and reverting
//!    on failure.
//!
//! Dependencies follow the paper's dual-stage management: local scheduling
//! keeps encoder-internal (stage) order per pipeline; global ordering sorts
//! encoder finish/start times across pipelines and matches them against the
//! sorted `F_i`/`B_i` points (§4.3, `CheckEncLLMDep`).

use optimus_parallel::ColocationLayout;
use optimus_pipeline::Dir;

use crate::encoder::EncoderWork;
use crate::error::OptimusError;
use crate::profile::{FreeInterval, LlmProfile, Ts};

/// One encoder kernel placed into a specific free interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlacement {
    /// Encoder pipeline index.
    pub pipeline: u32,
    /// Encoder stage.
    pub enc_stage: u32,
    /// Pipeline-local microbatch index.
    pub microbatch: u32,
    /// Forward or backward.
    pub dir: Dir,
    /// Hosting LLM pipeline stage (device).
    pub llm_stage: u32,
    /// Placement start.
    pub start: Ts,
    /// Placement end.
    pub end: Ts,
    /// True for communication kernels (placed in LLM compute windows).
    pub comm: bool,
    /// Kernel label.
    pub label: &'static str,
    /// Queue anchor of the interval used (for verification splicing).
    pub anchor: u32,
}

/// A contiguous block of coarse-scheduled encoder work on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseBlock {
    /// Encoder pipeline.
    pub pipeline: u32,
    /// Encoder stage.
    pub enc_stage: u32,
    /// Hosting LLM stage.
    pub llm_stage: u32,
    /// Block start (may be negative for prefix work).
    pub start: Ts,
    /// Block end.
    pub end: Ts,
    /// Compute work inside the block (excludes TP-comm stalls).
    pub compute_work: Ts,
    /// Microbatches covered.
    pub microbatches: u32,
    /// Forward or backward.
    pub dir: Dir,
}

/// A complete bubble schedule for one microbatch partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Microbatches per encoder pipeline.
    pub partition: Vec<u32>,
    /// Iteration extension before the LLM step origin.
    pub prefix: Ts,
    /// Iteration extension past the LLM step end.
    pub suffix: Ts,
    /// End-to-end latency estimate: `prefix + makespan + suffix`.
    pub latency: Ts,
    /// Coarse blocks (front forwards + back backwards).
    pub blocks: Vec<CoarseBlock>,
    /// Fine-grained kernel placements (relocated microbatches).
    pub placements: Vec<KernelPlacement>,
    /// Encoder forward finish times (including transfer), one per microbatch.
    pub ef: Vec<Ts>,
    /// Encoder backward start times, one per microbatch.
    pub eb: Vec<Ts>,
    /// Compute work scheduled inside LLM bubbles.
    pub in_bubble_compute: Ts,
    /// Total encoder compute work.
    pub total_compute: Ts,
    /// Microbatches relocated into interior bubbles (fwd, bwd).
    pub relocated: (u32, u32),
    /// Per-microbatch load scales used (all 1.0 for uniform data).
    pub mb_scales: Vec<f64>,
}

impl ScheduleOutcome {
    /// Latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency as f64 / 1e9
    }

    /// Scheduling efficiency: fraction of encoder computation inside LLM
    /// bubbles (the Table 7 metric).
    pub fn efficiency(&self) -> f64 {
        if self.total_compute == 0 {
            return 1.0;
        }
        (self.in_bubble_compute as f64 / self.total_compute as f64).clamp(0.0, 1.0)
    }
}

/// Generates per-microbatch encoder load scales for heterogeneous data
/// (variable image counts per sample), deterministic in `seed`.
///
/// Scales are drawn uniformly from `[1−spread, 1+spread]` and normalised to
/// mean 1 so total encoder work matches the uniform case.
pub fn sample_load_scales(n: u32, spread: f64, seed: u64) -> Vec<f64> {
    use optimus_detrand as rand;
    use rand::{RngExt, SeedableRng};
    let spread = spread.clamp(0.0, 0.95);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut scales: Vec<f64> = (0..n)
        .map(|_| 1.0 + rng.random_range(-spread..=spread))
        .collect();
    let mean = scales.iter().sum::<f64>() / n.max(1) as f64;
    for s in &mut scales {
        *s /= mean;
    }
    scales
}

/// Per-(pipeline, stage) packing track: free intervals plus a monotone floor
/// guaranteeing kernel order on the device.
#[derive(Debug, Clone)]
struct Track {
    intervals: Vec<FreeInterval>,
    floor: Ts,
    /// First interval that may still have room (all earlier ones end at or
    /// before the floor). Valid because the floor is monotone.
    hint: usize,
    /// Per-kernel slack reservation (see [`BubbleScheduler::with_slack`]):
    /// each placement additionally reserves `ceil(slack · dur)` after the
    /// kernel, inside the same interval, without claiming it.
    slack: f64,
}

impl Track {
    fn new(intervals: Vec<FreeInterval>, slack: f64) -> Track {
        Track {
            intervals,
            floor: Ts::MIN / 4,
            hint: 0,
            slack,
        }
    }

    /// Places a kernel of `dur` no earlier than `earliest`; returns
    /// (start, anchor) or `None` when no interval fits. With a non-zero
    /// slack, `dur + ceil(slack · dur)` must fit but only `dur` is claimed:
    /// the kernel may run up to `(1 + slack)×` long before escaping its
    /// interval or touching the next placement.
    fn place(&mut self, earliest: Ts, dur: Ts) -> Option<(Ts, u32)> {
        let pad = (self.slack * dur as f64).ceil() as Ts;
        let t = earliest.max(self.floor);
        while self.hint < self.intervals.len() && self.intervals[self.hint].end <= self.floor {
            self.hint += 1;
        }
        for iv in &self.intervals[self.hint..] {
            let pos = t.max(iv.start);
            if pos + dur + pad <= iv.end {
                self.floor = pos + dur + pad;
                return Some((pos, iv.anchor));
            }
        }
        None
    }
}

struct FrontResult {
    prefix: Ts,
    ef: Vec<Ts>,
    blocks: Vec<CoarseBlock>,
    lost_compute: Ts,
}

struct BackResult {
    /// Raw (unshifted) backward start per microbatch at the grad-receiving
    /// stage.
    eb_raw: Vec<Ts>,
    /// Raw block spans per stage.
    blocks: Vec<CoarseBlock>,
    /// Raw maximum end over stages.
    max_end: Ts,
}

/// Length of [`BubbleScheduler::candidate_partitions`] for `n_mb`
/// microbatches over `m` encoder pipelines: every composition when there
/// are at most `max_partitions` of them, otherwise `max_partitions` of them
/// (at least the balanced one). `0` when the microbatches cannot feed the
/// pipelines.
pub(crate) fn partition_count(n_mb: u32, m: u32, max_partitions: usize) -> usize {
    optimus_parallel::composition_count(n_mb, m).min(max_partitions.max(1) as u128) as usize
}

/// The bubble scheduler bound to one (profile, workload, layout) triple.
#[derive(Debug)]
pub struct BubbleScheduler<'a> {
    /// LLM bubble profile.
    pub profile: &'a LlmProfile,
    /// Encoder workload under the candidate plan.
    pub work: &'a EncoderWork,
    /// Encoder-over-LLM tiling.
    pub layout: &'a ColocationLayout,
    /// Fraction of every interior bubble reserved as safety margin against
    /// kernel-runtime jitter (§6 mitigation); `0.0` uses bubbles fully.
    pub margin: f64,
    /// Per-claim slack: every bubble-insert claim keeps headroom for a
    /// `(1 + slack)×` runtime stretch before escaping its proven-idle
    /// interval or colliding with a neighbour; `0.0` packs exactly.
    pub slack: f64,
    /// Per-microbatch encoder load scales (heterogeneous data: variable
    /// images per sample). `None` means uniform load. Length must equal the
    /// number of microbatches; microbatches are assigned to pipelines
    /// contiguously in partition order.
    pub mb_scales: Option<Vec<f64>>,
}

impl<'a> BubbleScheduler<'a> {
    /// Creates a scheduler, validating shape consistency.
    pub fn new(
        profile: &'a LlmProfile,
        work: &'a EncoderWork,
        layout: &'a ColocationLayout,
    ) -> Result<BubbleScheduler<'a>, OptimusError> {
        if layout.enc.pp != work.n_stages() {
            return Err(OptimusError::Setup(format!(
                "layout PP_enc={} vs workload stages {}",
                layout.enc.pp,
                work.n_stages()
            )));
        }
        if layout.llm.pp != profile.devices.len() as u32 {
            return Err(OptimusError::Setup("layout/profile stage mismatch".into()));
        }
        Ok(BubbleScheduler {
            profile,
            work,
            layout,
            margin: 0.0,
            slack: 0.0,
            mb_scales: None,
        })
    }

    /// Sets per-microbatch encoder load scales (heterogeneous data).
    ///
    /// # Errors
    ///
    /// Fails when the length differs from the microbatch count or any scale
    /// is non-positive.
    pub fn with_scales(mut self, scales: Vec<f64>) -> Result<BubbleScheduler<'a>, OptimusError> {
        if scales.len() != self.profile.n_microbatches() as usize {
            return Err(OptimusError::Setup(format!(
                "{} scales for {} microbatches",
                scales.len(),
                self.profile.n_microbatches()
            )));
        }
        if scales.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err(OptimusError::Setup(
                "scales must be positive and finite".into(),
            ));
        }
        self.mb_scales = Some(scales);
        Ok(self)
    }

    /// Load scale of pipeline `j`'s local microbatch `i` under `partition`
    /// (contiguous assignment of the global microbatch stream).
    fn scale(&self, partition: &[u32], j: u32, i: u32) -> f64 {
        match &self.mb_scales {
            None => 1.0,
            Some(sc) => {
                let offset: u32 = partition[..j as usize].iter().sum();
                sc[(offset + i) as usize]
            }
        }
    }

    fn scaled(dur: Ts, s: f64) -> Ts {
        (dur as f64 * s).round() as Ts
    }

    /// Sets the interior-bubble safety margin (clamped to `[0, 0.9]`).
    pub fn with_margin(mut self, margin: f64) -> BubbleScheduler<'a> {
        self.margin = margin.clamp(0.0, 0.9);
        self
    }

    /// Sets the per-claim slack (clamped to `[0, 0.9]`): every insert claim
    /// keeps room for a `(1 + slack)×` runtime stretch. Unlike `margin`
    /// (which shrinks whole intervals up front), slack scales with each
    /// placed kernel, so small kernels pay small reservations. `0.0` keeps
    /// the historical exact packing bit-identically.
    pub fn with_slack(mut self, slack: f64) -> BubbleScheduler<'a> {
        self.slack = slack.clamp(0.0, 0.9);
        self
    }

    /// Interior-bubble track for `(pipeline, stage)`, with the margin
    /// applied (each interval keeps `1 − margin` of its length).
    fn interior_track(&self, j: u32, k: u32) -> Track {
        let mut ivs = self.profile.devices[self.host(j, k) as usize]
            .interior
            .clone();
        if self.margin > 0.0 {
            for iv in &mut ivs {
                let keep = ((iv.end - iv.start) as f64 * (1.0 - self.margin)) as Ts;
                iv.end = iv.start + keep;
            }
            ivs.retain(|iv| !iv.is_empty());
        }
        Track::new(ivs, self.slack)
    }

    fn window_track(&self, j: u32, k: u32) -> Track {
        Track::new(
            self.profile.devices[self.host(j, k) as usize]
                .comm_windows
                .clone(),
            self.slack,
        )
    }

    fn p2p(&self) -> Ts {
        self.profile.p2p_margin.0 as Ts
    }

    fn n_stages(&self) -> usize {
        self.work.stages.len()
    }

    fn host(&self, pipeline: u32, stage: u32) -> u32 {
        self.layout.host_llm_stage(pipeline, stage)
    }

    /// Coarse forward schedule of pipeline `j` for its first `n` microbatches.
    // Explicit index loops keep the DP recurrences close to the paper's
    // notation (stage k, microbatch i).
    #[allow(clippy::needless_range_loop)]
    fn front_schedule(&self, partition: &[u32], j: u32, n: u32) -> FrontResult {
        let k_n = self.n_stages();
        if n == 0 {
            return FrontResult {
                prefix: 0,
                ef: Vec::new(),
                blocks: Vec::new(),
                lost_compute: 0,
            };
        }
        let n = n as usize;
        let p2p = self.p2p();
        let tf: Vec<Ts> = self.work.stages.iter().map(|s| s.fwd_serial()).collect();
        // Pipelined recurrence from base 0.
        let mut end = vec![vec![0i64; n]; k_n];
        let mut first_start = vec![0i64; k_n];
        for i in 0..n {
            for k in 0..k_n {
                let prev_mb = if i > 0 { end[k][i - 1] } else { Ts::MIN / 4 };
                let prev_stage = if k > 0 {
                    end[k - 1][i] + p2p
                } else {
                    Ts::MIN / 4
                };
                let start = prev_mb.max(prev_stage).max(0);
                if i == 0 {
                    first_start[k] = start;
                }
                end[k][i] = start + Self::scaled(tf[k], self.scale(partition, j, i as u32));
            }
        }
        // Shift so that every stage finishes inside its leading bubble —
        // with slack, early enough that the whole coarse block may stretch
        // `(1 + slack)×` and still finish by the deadline.
        let mut shift = Ts::MIN / 4;
        for k in 0..k_n {
            let deadline = self.profile.devices[self.host(j, k as u32) as usize].leading_end;
            let pad = (self.slack * (end[k][n - 1] - first_start[k]) as f64).ceil() as Ts;
            shift = shift.max(end[k][n - 1] + pad - deadline);
        }
        // The encoder's DP parameter all-gather runs from iteration start
        // (−prefix) and must finish before each stage's first kernel:
        // prefix ≥ ag − (first_start[k] − shift). When the block has slack,
        // the all-gather is absorbed for free.
        let ag = self.work.dp_allgather;
        let ag_need = (0..k_n)
            .map(|k| ag - (first_start[k] - shift))
            .max()
            .unwrap_or(0);
        let prefix = shift.max(ag_need).max(0);

        let ef: Vec<Ts> = (0..n).map(|i| end[k_n - 1][i] - shift + p2p).collect();
        let mut blocks = Vec::with_capacity(k_n);
        let mut lost = 0i64;
        for k in 0..k_n {
            let a = first_start[k] - shift;
            let b = end[k][n - 1] - shift;
            let w: Ts = (0..n)
                .map(|i| {
                    Self::scaled(
                        self.work.stages[k].fwd_compute(),
                        self.scale(partition, j, i as u32),
                    )
                })
                .sum();
            if b > a && a < 0 {
                lost += (w as f64 * ((-a).min(b - a) as f64) / (b - a) as f64) as Ts;
            }
            blocks.push(CoarseBlock {
                pipeline: j,
                enc_stage: k as u32,
                llm_stage: self.host(j, k as u32),
                start: a,
                end: b,
                compute_work: w,
                microbatches: n as u32,
                dir: Dir::Fwd,
            });
        }
        FrontResult {
            prefix,
            ef,
            blocks,
            lost_compute: lost,
        }
    }

    /// Coarse backward schedule of pipeline `j` for its microbatches
    /// `first..n_total` (earlier ones may have been relocated), unshifted.
    fn back_schedule(&self, partition: &[u32], j: u32, first: u32, n_total: u32) -> BackResult {
        let k_n = self.n_stages();
        let m = (n_total - first) as usize;
        if m == 0 {
            return BackResult {
                eb_raw: Vec::new(),
                blocks: Vec::new(),
                max_end: Ts::MIN / 4,
            };
        }
        let p2p = self.p2p();
        let tb: Vec<Ts> = self.work.stages.iter().map(|s| s.bwd_serial()).collect();
        let r: Vec<Ts> = (0..k_n)
            .map(|k| self.profile.devices[self.host(j, k as u32) as usize].trailing_start)
            .collect();
        // Backward flows from the last encoder stage (adjacent to the LLM)
        // down to stage 0.
        let mut start = vec![vec![0i64; m]; k_n];
        let mut end = vec![vec![0i64; m]; k_n];
        for i in 0..m {
            for k in (0..k_n).rev() {
                let prev_mb = if i > 0 { end[k][i - 1] } else { Ts::MIN / 4 };
                let upstream = if k + 1 < k_n {
                    end[k + 1][i] + p2p
                } else {
                    Ts::MIN / 4
                };
                let s = prev_mb.max(upstream).max(r[k]);
                start[k][i] = s;
                end[k][i] = s + Self::scaled(tb[k], self.scale(partition, j, first + i as u32));
            }
        }
        let eb_raw: Vec<Ts> = (0..m).map(|i| start[k_n - 1][i]).collect();
        // The encoder's gradient reduce-scatter follows the last backward.
        let rs = self.work.dp_reducescatter;
        let mut blocks = Vec::with_capacity(k_n);
        let mut max_end = Ts::MIN / 4;
        for k in 0..k_n {
            let a = start[k][0];
            let b = end[k][m - 1];
            max_end = max_end.max(b + rs);
            blocks.push(CoarseBlock {
                pipeline: j,
                enc_stage: k as u32,
                llm_stage: self.host(j, k as u32),
                start: a,
                end: b,
                compute_work: (0..m)
                    .map(|i| {
                        Self::scaled(
                            self.work.stages[k].bwd_compute(),
                            self.scale(partition, j, first + i as u32),
                        )
                    })
                    .sum(),
                microbatches: m as u32,
                dir: Dir::Bwd,
            });
        }
        BackResult {
            eb_raw,
            blocks,
            max_end,
        }
    }

    /// `CheckEncLLMDep` (§4.3): sorted encoder finish times against sorted
    /// forward points, sorted backward starts against sorted backward points.
    fn check_dep(&self, ef: &[Ts], eb: &[Ts]) -> bool {
        let p2p = self.p2p();
        let mut ef = ef.to_vec();
        ef.sort_unstable();
        let mut f = self.profile.f_points.clone();
        f.sort_unstable();
        if ef.len() != f.len() || ef.iter().zip(&f).any(|(e, fp)| e > fp) {
            return false;
        }
        let mut eb = eb.to_vec();
        eb.sort_unstable();
        let mut b = self.profile.b_points.clone();
        b.sort_unstable();
        eb.len() == b.len() && eb.iter().zip(&b).all(|(e, bp)| *e >= *bp + p2p)
    }

    /// Packs the relocated forward microbatches (`n_total-count..n_total`)
    /// of pipeline `j` into interior bubbles. Returns EF values or `None`.
    #[allow(clippy::too_many_arguments)]
    fn pack_fwd(
        &self,
        partition: &[u32],
        j: u32,
        count: u32,
        n_total: u32,
        compute_tracks: &mut [Track],
        comm_tracks: &mut [Track],
        placements: &mut Vec<KernelPlacement>,
    ) -> Option<Vec<Ts>> {
        let k_n = self.n_stages();
        let p2p = self.p2p();
        let mut efs = Vec::with_capacity(count as usize);
        for mb in n_total - count..n_total {
            let sc = self.scale(partition, j, mb);
            let mut prev_stage_end = Ts::MIN / 4;
            for k in 0..k_n {
                let mut t = if k > 0 {
                    prev_stage_end + p2p
                } else {
                    Ts::MIN / 4
                };
                for kern in &self.work.stages[k].fwd {
                    let track = if kern.comm {
                        &mut comm_tracks[k]
                    } else {
                        &mut compute_tracks[k]
                    };
                    let dur = Self::scaled(kern.dur, sc);
                    let (pos, anchor) = track.place(t, dur)?;
                    placements.push(KernelPlacement {
                        pipeline: j,
                        enc_stage: k as u32,
                        microbatch: mb,
                        dir: Dir::Fwd,
                        llm_stage: self.host(j, k as u32),
                        start: pos,
                        end: pos + dur,
                        comm: kern.comm,
                        label: kern.label,
                        anchor,
                    });
                    t = pos + dur;
                }
                prev_stage_end = t;
            }
            efs.push(prev_stage_end + p2p);
        }
        Some(efs)
    }

    /// Packs the relocated backward microbatches (`0..count`) of pipeline
    /// `j` into interior bubbles. `b_hint[r]` is the earliest allowed start
    /// of the `r`-th relocated backward. Returns EB values or `None`.
    #[allow(clippy::too_many_arguments)]
    fn pack_bwd(
        &self,
        partition: &[u32],
        j: u32,
        count: u32,
        b_hint: &[Ts],
        compute_tracks: &mut [Track],
        comm_tracks: &mut [Track],
        placements: &mut Vec<KernelPlacement>,
    ) -> Option<Vec<Ts>> {
        let k_n = self.n_stages();
        let p2p = self.p2p();
        let mut ebs = Vec::with_capacity(count as usize);
        for r in 0..count as usize {
            let mb = r as u32;
            let sc = self.scale(partition, j, mb);
            let mut prev_stage_end = Ts::MIN / 4;
            let mut eb = 0;
            for k in (0..k_n).rev() {
                let gate = if k == k_n - 1 {
                    b_hint.get(r).copied().unwrap_or(0) + p2p
                } else {
                    prev_stage_end + p2p
                };
                let mut t = gate;
                let mut first = true;
                for kern in &self.work.stages[k].bwd {
                    let track = if kern.comm {
                        &mut comm_tracks[k]
                    } else {
                        &mut compute_tracks[k]
                    };
                    let dur = Self::scaled(kern.dur, sc);
                    let (pos, anchor) = track.place(t, dur)?;
                    if first && k == k_n - 1 {
                        eb = pos;
                        first = false;
                    }
                    placements.push(KernelPlacement {
                        pipeline: j,
                        enc_stage: k as u32,
                        microbatch: mb,
                        dir: Dir::Bwd,
                        llm_stage: self.host(j, k as u32),
                        start: pos,
                        end: pos + dur,
                        comm: kern.comm,
                        label: kern.label,
                        anchor,
                    });
                    t = pos + dur;
                }
                prev_stage_end = t;
            }
            ebs.push(eb);
        }
        Some(ebs)
    }

    /// Schedules one microbatch partition (Algorithm 2 body). Returns `None`
    /// when the partition is structurally impossible.
    #[allow(clippy::needless_range_loop)]
    pub fn schedule_partition(&self, partition: &[u32], fine: bool) -> Option<ScheduleOutcome> {
        let m = self.layout.pipelines_per_llm_pipeline();
        if partition.len() != m as usize
            || partition.iter().sum::<u32>() != self.profile.n_microbatches()
        {
            return None;
        }
        let k_n = self.n_stages();
        let makespan = self.profile.makespan;

        // Per-pipeline packing tracks over its exclusive devices.
        let mut compute_tracks: Vec<Vec<Track>> = (0..m)
            .map(|j| (0..k_n).map(|k| self.interior_track(j, k as u32)).collect())
            .collect();
        let mut comm_tracks: Vec<Vec<Track>> = (0..m)
            .map(|j| (0..k_n).map(|k| self.window_track(j, k as u32)).collect())
            .collect();

        let mut relocated_f = vec![0u32; m as usize];
        let mut done_f = vec![false; m as usize];
        let mut fronts: Vec<FrontResult> = (0..m)
            .map(|j| self.front_schedule(partition, j, partition[j as usize]))
            .collect();
        let mut fwd_placements: Vec<Vec<KernelPlacement>> = vec![Vec::new(); m as usize];
        let mut fwd_efs: Vec<Vec<Ts>> = vec![Vec::new(); m as usize];

        let collect_ef = |fronts: &[FrontResult], fwd_efs: &[Vec<Ts>]| -> Vec<Ts> {
            let mut all = Vec::new();
            for j in 0..m as usize {
                all.extend_from_slice(&fronts[j].ef);
                all.extend_from_slice(&fwd_efs[j]);
            }
            all
        };

        // Fine-grained forward optimisation (OptimizeSchedule, FWD).
        if fine {
            loop {
                let critical = (0..m as usize)
                    .filter(|&j| !done_f[j] && relocated_f[j] < partition[j])
                    .max_by_key(|&j| fronts[j].prefix);
                let Some(j) = critical else { break };
                if fronts[j].prefix <= 0 {
                    break;
                }
                // Snapshot pipeline j's state.
                let snap_comp = compute_tracks[j].clone();
                let snap_comm = comm_tracks[j].clone();
                let try_count = relocated_f[j] + 1;
                // Repack pipeline j's relocated set from pristine tracks.
                for k in 0..k_n {
                    compute_tracks[j][k] = self.interior_track(j as u32, k as u32);
                    comm_tracks[j][k] = self.window_track(j as u32, k as u32);
                }
                let mut new_placements = Vec::new();
                let packed = self.pack_fwd(
                    partition,
                    j as u32,
                    try_count,
                    partition[j],
                    &mut compute_tracks[j],
                    &mut comm_tracks[j],
                    &mut new_placements,
                );
                let accepted = match packed {
                    Some(efs) => {
                        let new_front =
                            self.front_schedule(partition, j as u32, partition[j] - try_count);
                        let mut all_fronts: Vec<&FrontResult> = fronts.iter().collect();
                        let _ = &mut all_fronts;
                        // Tentative EF set.
                        let mut ef_all = Vec::new();
                        for jj in 0..m as usize {
                            if jj == j {
                                ef_all.extend_from_slice(&new_front.ef);
                                ef_all.extend_from_slice(&efs);
                            } else {
                                ef_all.extend_from_slice(&fronts[jj].ef);
                                ef_all.extend_from_slice(&fwd_efs[jj]);
                            }
                        }
                        // Backward starts unchanged at this phase; a
                        // conservative check uses only the forward half.
                        let mut ef_sorted = ef_all.clone();
                        ef_sorted.sort_unstable();
                        let mut f = self.profile.f_points.clone();
                        f.sort_unstable();
                        let ok = ef_sorted.len() == f.len()
                            && ef_sorted.iter().zip(&f).all(|(e, fp)| e <= fp);
                        if ok {
                            relocated_f[j] = try_count;
                            fronts[j] = new_front;
                            fwd_efs[j] = efs;
                            fwd_placements[j] = new_placements;
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                };
                if !accepted {
                    compute_tracks[j] = snap_comp;
                    comm_tracks[j] = snap_comm;
                    done_f[j] = true;
                }
            }
        }

        // Fine-grained backward optimisation (OptimizeSchedule, BWD).
        let mut relocated_b = vec![0u32; m as usize];
        let mut done_b = vec![false; m as usize];
        let mut backs: Vec<BackResult> = (0..m)
            .map(|j| self.back_schedule(partition, j, 0, partition[j as usize]))
            .collect();
        let mut bwd_placements: Vec<Vec<KernelPlacement>> = vec![Vec::new(); m as usize];
        let mut bwd_ebs: Vec<Vec<Ts>> = vec![Vec::new(); m as usize];
        let mut b_sorted = self.profile.b_points.clone();
        b_sorted.sort_unstable();

        // Post-forward snapshots: backward repacking restores to these.
        let post_fwd_comp: Vec<Vec<Track>> = compute_tracks.clone();
        let post_fwd_comm: Vec<Vec<Track>> = comm_tracks.clone();

        // Global shift to satisfy backward dependency points for the coarse
        // back blocks (always feasible — the trailing region is unbounded).
        let back_shift = |backs: &[BackResult], bwd_ebs: &[Vec<Ts>]| -> Ts {
            let p2p = self.p2p();
            let mut eb_all: Vec<Ts> = Vec::new();
            for j in 0..m as usize {
                eb_all.extend_from_slice(&bwd_ebs[j]);
            }
            let relocated_count = eb_all.len();
            let mut coarse: Vec<Ts> = Vec::new();
            for b in backs {
                coarse.extend_from_slice(&b.eb_raw);
            }
            coarse.sort_unstable();
            // Relocated backwards claim the earliest B slots (they start
            // earliest); coarse ones take the rest in sorted order.
            let mut shift = 0i64;
            for (idx, &e) in coarse.iter().enumerate() {
                let b = b_sorted[relocated_count + idx] + p2p;
                shift = shift.max(b - e);
            }
            shift
        };

        if fine {
            loop {
                let shift = back_shift(&backs, &bwd_ebs);
                let suffix_of = |j: usize, backs: &[BackResult]| -> Ts {
                    (backs[j].max_end + shift - makespan).max(0)
                };
                let critical = (0..m as usize)
                    .filter(|&j| !done_b[j] && relocated_b[j] < partition[j])
                    .max_by_key(|&j| suffix_of(j, &backs));
                let Some(j) = critical else { break };
                if suffix_of(j, &backs) <= 0 {
                    break;
                }
                let snap_comp = compute_tracks[j].clone();
                let snap_comm = comm_tracks[j].clone();
                let try_count = relocated_b[j] + 1;
                compute_tracks[j] = post_fwd_comp[j].clone();
                comm_tracks[j] = post_fwd_comm[j].clone();
                let mut new_placements = Vec::new();
                let hint: Vec<Ts> = (0..try_count as usize)
                    .map(|r| b_sorted[r.min(b_sorted.len() - 1)])
                    .collect();
                let packed = self.pack_bwd(
                    partition,
                    j as u32,
                    try_count,
                    &hint,
                    &mut compute_tracks[j],
                    &mut comm_tracks[j],
                    &mut new_placements,
                );
                let accepted = match packed {
                    Some(ebs) => {
                        let new_back =
                            self.back_schedule(partition, j as u32, try_count, partition[j]);
                        // Full dependency check with tentative state.
                        let mut eb_all: Vec<Ts> = Vec::new();
                        for jj in 0..m as usize {
                            if jj == j {
                                eb_all.extend_from_slice(&ebs);
                            } else {
                                eb_all.extend_from_slice(&bwd_ebs[jj]);
                            }
                        }
                        let mut backs_t: Vec<&BackResult> = Vec::new();
                        for jj in 0..m as usize {
                            backs_t.push(if jj == j { &new_back } else { &backs[jj] });
                        }
                        // Shift for tentative coarse sets.
                        let mut coarse: Vec<Ts> = Vec::new();
                        for b in &backs_t {
                            coarse.extend_from_slice(&b.eb_raw);
                        }
                        coarse.sort_unstable();
                        let p2p = self.p2p();
                        let reloc = eb_all.len();
                        let feasible_slots = reloc + coarse.len() == b_sorted.len();
                        // Relocated backwards must satisfy their matched B
                        // points directly (they cannot be shifted).
                        let mut eb_sorted = eb_all.clone();
                        eb_sorted.sort_unstable();
                        let reloc_ok = feasible_slots
                            && eb_sorted
                                .iter()
                                .enumerate()
                                .all(|(i, &e)| e >= b_sorted[i] + p2p);
                        if reloc_ok {
                            relocated_b[j] = try_count;
                            backs[j] = new_back;
                            bwd_ebs[j] = ebs;
                            bwd_placements[j] = new_placements;
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                };
                if !accepted {
                    compute_tracks[j] = snap_comp;
                    comm_tracks[j] = snap_comm;
                    done_b[j] = true;
                }
            }
        }

        // Final assembly.
        let shift = back_shift(&backs, &bwd_ebs);
        let prefix = fronts.iter().map(|f| f.prefix).max().unwrap_or(0).max(0);
        let suffix = backs
            .iter()
            .map(|b| (b.max_end + shift - makespan).max(0))
            .max()
            .unwrap_or(0);

        let mut blocks = Vec::new();
        let mut lost = 0i64;
        for f in &fronts {
            blocks.extend_from_slice(&f.blocks);
            lost += f.lost_compute;
        }
        for b in &backs {
            for blk in &b.blocks {
                let mut blk = *blk;
                blk.start += shift;
                blk.end += shift;
                if blk.end > blk.start && blk.end > makespan {
                    let over = (blk.end - makespan).min(blk.end - blk.start);
                    lost += (blk.compute_work as f64 * over as f64 / (blk.end - blk.start) as f64)
                        as Ts;
                }
                blocks.push(blk);
            }
        }

        let mut placements = Vec::new();
        for j in 0..m as usize {
            placements.extend_from_slice(&fwd_placements[j]);
            placements.extend_from_slice(&bwd_placements[j]);
        }

        let total_compute: Ts = (0..m as usize)
            .map(|j| {
                (0..partition[j])
                    .map(|i| {
                        Self::scaled(
                            self.work.compute_per_microbatch(),
                            self.scale(partition, j as u32, i),
                        )
                    })
                    .sum::<Ts>()
            })
            .sum();
        let in_bubble = (total_compute - lost).max(0);

        let ef = collect_ef(&fronts, &fwd_efs);
        let mut eb = Vec::new();
        for j in 0..m as usize {
            eb.extend_from_slice(&bwd_ebs[j]);
            eb.extend(backs[j].eb_raw.iter().map(|e| e + shift));
        }

        // Sanity: the final schedule must satisfy the dependency check.
        if !self.check_dep(&ef, &eb) {
            return None;
        }

        let mb_scales = self
            .mb_scales
            .clone()
            .unwrap_or_else(|| vec![1.0; self.profile.n_microbatches() as usize]);
        Some(ScheduleOutcome {
            partition: partition.to_vec(),
            prefix,
            suffix,
            latency: prefix + makespan + suffix,
            blocks,
            placements,
            ef,
            eb,
            in_bubble_compute: in_bubble,
            total_compute,
            relocated: (relocated_f.iter().sum(), relocated_b.iter().sum()),
            mb_scales,
        })
    }

    /// Candidate microbatch partitions: the full composition space when it
    /// is small enough, otherwise the balanced partition plus a
    /// deterministic seeded-random sample (the paper enumerates all
    /// `O(N_mb^{m-1})` options; at large `m` that is intractable and the
    /// balanced region contains the optimum in practice).
    /// The enumeration is pure and deterministic, so parallel search
    /// workers can recompute it per work item and slice into it by index;
    /// its length is `partition_count(n_mb, m, max_partitions)`.
    pub fn candidate_partitions(
        &self,
        max_partitions: usize,
    ) -> Result<Vec<Vec<u32>>, OptimusError> {
        use optimus_detrand as rand;
        use rand::{RngExt, SeedableRng};
        let m = self.layout.pipelines_per_llm_pipeline();
        let n_mb = self.profile.n_microbatches();
        if n_mb < m {
            return Err(OptimusError::Infeasible(format!(
                "{n_mb} microbatches cannot feed {m} encoder pipelines"
            )));
        }
        let count = partition_count(n_mb, m, max_partitions);
        if count as u128 == optimus_parallel::composition_count(n_mb, m) {
            return Ok(optimus_parallel::Compositions::new(n_mb, m)
                .map_err(|e| OptimusError::Infeasible(e.to_string()))?
                .collect());
        }
        let mut out = vec![optimus_parallel::Compositions::balanced(n_mb, m)
            .map_err(|e| OptimusError::Infeasible(e.to_string()))?];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0971_0055);
        let mut seen: std::collections::HashSet<Vec<u32>> = out.iter().cloned().collect();
        while out.len() < count {
            // Random composition: m−1 distinct cut points in 1..n_mb.
            let mut cuts: Vec<u32> = (0..m - 1).map(|_| rng.random_range(1..n_mb)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            if cuts.len() != (m - 1) as usize {
                continue;
            }
            let mut parts = Vec::with_capacity(m as usize);
            let mut prev = 0;
            for &c in &cuts {
                parts.push(c - prev);
                prev = c;
            }
            parts.push(n_mb - prev);
            if seen.insert(parts.clone()) {
                out.push(parts);
            }
        }
        Ok(out)
    }

    /// Best schedule over a slice of partitions; latency ties keep the
    /// earliest partition in the slice, so concatenating slice results in
    /// enumeration order reproduces a full sequential sweep exactly.
    pub fn schedule_slice(&self, partitions: &[Vec<u32>], fine: bool) -> Option<ScheduleOutcome> {
        let mut best: Option<ScheduleOutcome> = None;
        for partition in partitions {
            if let Some(outcome) = self.schedule_partition(partition, fine) {
                if best
                    .as_ref()
                    .map(|b| outcome.latency < b.latency)
                    .unwrap_or(true)
                {
                    best = Some(outcome);
                }
            }
        }
        best
    }

    /// Algorithm 2 outer loop: evaluates candidate microbatch partitions and
    /// returns the schedule with the shortest latency.
    pub fn schedule(
        &self,
        max_partitions: usize,
        fine: bool,
    ) -> Result<ScheduleOutcome, OptimusError> {
        let partitions = self.candidate_partitions(max_partitions)?;
        self.schedule_slice(&partitions, fine)
            .ok_or_else(|| OptimusError::Infeasible("no feasible bubble schedule".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_baselines::common::SystemContext;
    use optimus_modeling::{MllmConfig, Workload};
    use optimus_parallel::ParallelPlan;

    fn setup() -> (LlmProfile, EncoderWork, ColocationLayout) {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let llm_plan = ParallelPlan::new(2, 2, 2).unwrap();
        let enc_plan = ParallelPlan::new(4, 1, 2).unwrap();
        let ctx = SystemContext::hopper(8).unwrap();
        let profile = LlmProfile::build(&w, &llm_plan, &ctx).unwrap();
        let work = EncoderWork::build(&w.mllm, &enc_plan, 1, &ctx).unwrap();
        let layout = ColocationLayout::new(llm_plan, enc_plan).unwrap();
        (profile, work, layout)
    }

    #[test]
    fn partition_count_is_the_enumeration_length() {
        // Every layout the planner offers for 16 microbatches, applied to
        // profiles with fewer microbatches too, so that `m > n_mb` (no
        // partition), the full composition space and the sampled regime
        // (`C(n_mb - 1, m - 1) > max`) all occur.
        let llm_plan = ParallelPlan::new(2, 2, 2).unwrap();
        let ctx = SystemContext::hopper(8).unwrap();
        let w16 = Workload::new(MllmConfig::small(), 8, 32, 1);
        let cands = crate::planner::plan_model(&w16, &llm_plan, u64::MAX)
            .unwrap()
            .candidates;
        let works: Vec<EncoderWork> = (cands.iter())
            .map(|c| EncoderWork::build(&w16.mllm, &c.plan, 1, &ctx).unwrap())
            .collect();
        let (mut infeasible, mut sampled) = (0, 0);
        for global_batch in [2u32, 6, 16, 32] {
            let w = Workload::new(MllmConfig::small(), 8, global_batch, 1);
            let profile = LlmProfile::build(&w, &llm_plan, &ctx).unwrap();
            let n_mb = profile.n_microbatches();
            for (c, work) in cands.iter().zip(&works) {
                let sched = BubbleScheduler::new(&profile, work, &c.layout).unwrap();
                let m = c.layout.pipelines_per_llm_pipeline();
                for max in [0usize, 1, 2, 3, 7, 8, 64] {
                    let count = partition_count(n_mb, m, max);
                    match sched.candidate_partitions(max) {
                        Ok(parts) => assert_eq!(count, parts.len(), "n_mb={n_mb} m={m} max={max}"),
                        Err(_) => {
                            assert_eq!(count, 0, "n_mb={n_mb} m={m} max={max}");
                            infeasible += 1;
                        }
                    }
                    if optimus_parallel::composition_count(n_mb, m) > max.max(1) as u128 {
                        sampled += 1;
                    }
                }
            }
        }
        assert!(infeasible > 0 && sampled > 0, "{infeasible} {sampled}");
    }

    #[test]
    fn coarse_schedule_always_exists() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let out = s.schedule(64, false).unwrap();
        assert!(out.latency >= p.makespan);
        assert!(out.prefix >= 0 && out.suffix >= 0);
        assert!(out.efficiency() > 0.0 && out.efficiency() <= 1.0);
    }

    #[test]
    fn fine_no_worse_than_coarse() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let coarse = s.schedule(64, false).unwrap();
        let fine = s.schedule(64, true).unwrap();
        assert!(
            fine.latency <= coarse.latency,
            "fine {} coarse {}",
            fine.latency,
            coarse.latency
        );
        assert!(fine.efficiency() >= coarse.efficiency() - 1e-9);
    }

    #[test]
    fn dependency_check_holds_on_output() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let out = s.schedule(64, true).unwrap();
        assert!(s.check_dep(&out.ef, &out.eb));
        assert_eq!(out.ef.len() as u32, p.n_microbatches());
        assert_eq!(out.eb.len() as u32, p.n_microbatches());
    }

    #[test]
    fn placements_respect_stage_and_microbatch_order() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let out = s.schedule(64, true).unwrap();
        // Within one (pipeline, stage, direction), starts are nondecreasing
        // in placement order (monotone floor).
        for j in 0..l.pipelines_per_llm_pipeline() {
            for k in 0..w.n_stages() {
                let seq: Vec<&KernelPlacement> = out
                    .placements
                    .iter()
                    .filter(|pl| pl.pipeline == j && pl.enc_stage == k && !pl.comm)
                    .collect();
                for pair in seq.windows(2) {
                    assert!(pair[0].end <= pair[1].start + 1, "{pair:?}");
                }
            }
        }
    }

    #[test]
    fn placements_fit_inside_interior_bubbles() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let out = s.schedule(64, true).unwrap();
        for pl in out.placements.iter().filter(|pl| !pl.comm) {
            let dev = &p.devices[pl.llm_stage as usize];
            let inside = dev
                .interior
                .iter()
                .any(|iv| pl.start >= iv.start && pl.end <= iv.end);
            assert!(inside, "{pl:?}");
        }
    }

    #[test]
    fn comm_kernels_in_compute_windows_only() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        let out = s.schedule(64, true).unwrap();
        for pl in out.placements.iter().filter(|pl| pl.comm) {
            let dev = &p.devices[pl.llm_stage as usize];
            let inside = dev
                .comm_windows
                .iter()
                .any(|iv| pl.start >= iv.start && pl.end <= iv.end);
            assert!(inside, "{pl:?}");
            // Never inside a TP bubble.
            let in_tp_bubble = dev
                .interior
                .iter()
                .filter(|iv| iv.tp)
                .any(|iv| pl.start < iv.end && iv.start < pl.end);
            assert!(!in_tp_bubble, "{pl:?}");
        }
    }

    #[test]
    fn unbalanced_partition_changes_latency() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        // n_mb = 8 for this workload (batch 16, dp 2, microbatch 1).
        let balanced = s.schedule_partition(&[4, 4], true).unwrap();
        let skewed = s.schedule_partition(&[1, 7], true).unwrap();
        // Both are valid schedules; the search keeps the better one.
        assert!(balanced.latency > 0 && skewed.latency > 0);
        let best = s.schedule(64, true).unwrap();
        assert!(best.latency <= balanced.latency.min(skewed.latency));
    }

    #[test]
    fn uniform_scales_match_default() {
        let (p, w, l) = setup();
        let plain = BubbleScheduler::new(&p, &w, &l).unwrap();
        let scaled = BubbleScheduler::new(&p, &w, &l)
            .unwrap()
            .with_scales(vec![1.0; 8])
            .unwrap();
        let a = plain.schedule_partition(&[4, 4], true).unwrap();
        let b = scaled.schedule_partition(&[4, 4], true).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.placements.len(), b.placements.len());
    }

    #[test]
    fn skewed_scales_shift_work() {
        let (p, w, l) = setup();
        // First half of the stream is 1.8x heavier.
        let mut scales = vec![1.8; 4];
        scales.extend(vec![0.2; 4]);
        let sched = BubbleScheduler::new(&p, &w, &l)
            .unwrap()
            .with_scales(scales)
            .unwrap();
        let best = sched.schedule(64, true).unwrap();
        // Pipeline 0 (heavy microbatches) should receive fewer of them.
        assert!(
            best.partition[0] <= best.partition[1],
            "partition {:?}",
            best.partition
        );
        assert!(sched.check_dep(&best.ef, &best.eb));
    }

    #[test]
    fn bad_scales_rejected() {
        let (p, w, l) = setup();
        assert!(BubbleScheduler::new(&p, &w, &l)
            .unwrap()
            .with_scales(vec![1.0; 3])
            .is_err());
        assert!(BubbleScheduler::new(&p, &w, &l)
            .unwrap()
            .with_scales(vec![0.0; 8])
            .is_err());
    }

    #[test]
    fn load_scale_generator_normalised() {
        let s1 = sample_load_scales(32, 0.5, 42);
        let s2 = sample_load_scales(32, 0.5, 42);
        assert_eq!(s1, s2, "deterministic in seed");
        assert_eq!(s1.len(), 32);
        let mean = s1.iter().sum::<f64>() / 32.0;
        assert!((mean - 1.0).abs() < 1e-12, "mean {mean}");
        assert!(s1.iter().all(|&x| x > 0.0));
        // Zero spread is exactly uniform.
        assert!(sample_load_scales(8, 0.0, 1)
            .iter()
            .all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn wrong_partition_shape_rejected() {
        let (p, w, l) = setup();
        let s = BubbleScheduler::new(&p, &w, &l).unwrap();
        assert!(s.schedule_partition(&[16], true).is_none()); // wrong m
        assert!(s.schedule_partition(&[2, 2], true).is_none()); // sums to 4 ≠ 8
    }
}
