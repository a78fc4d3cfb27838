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

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

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

/// Per-(pipeline, stage) packing track: one device's free intervals,
/// borrowed from the profile, plus a monotone floor guaranteeing kernel
/// order on the device. It is `Copy`, so a tentative packing works on a copy
/// and commits by assignment.
#[derive(Debug, Clone, Copy)]
struct Track<'a> {
    intervals: &'a [FreeInterval],
    floor: Ts,
    /// First interval that may still have room (all earlier ones end at or
    /// before the floor, or are emptied by the margin). Valid because the
    /// floor is monotone.
    hint: usize,
    /// Per-kernel slack reservation (see [`BubbleScheduler::with_slack`]):
    /// each placement additionally reserves `ceil(slack · dur)` after the
    /// kernel, inside the same interval, without claiming it.
    slack: f64,
    /// Safety margin (see [`BubbleScheduler::with_margin`]): when positive,
    /// each interval keeps `1 − margin` of its length and one that keeps
    /// nothing does not exist. A NaN margin is no margin.
    margin: f64,
}

impl<'a> Track<'a> {
    fn new(intervals: &'a [FreeInterval], slack: f64, margin: f64) -> Track<'a> {
        Track {
            intervals,
            floor: Ts::MIN / 4,
            hint: 0,
            slack,
            margin,
        }
    }

    /// End of `iv` after the margin, or `None` when the margin empties it.
    fn usable_end(&self, iv: &FreeInterval) -> Option<Ts> {
        if self.margin > 0.0 {
            let end = iv.start + ((iv.end - iv.start) as f64 * (1.0 - self.margin)) as Ts;
            (end > iv.start).then_some(end)
        } else {
            Some(iv.end)
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
        while let Some(iv) = self.intervals.get(self.hint) {
            match self.usable_end(iv) {
                Some(end) if end > self.floor => break,
                _ => self.hint += 1,
            }
        }
        for iv in &self.intervals[self.hint..] {
            let Some(end) = self.usable_end(iv) else {
                continue;
            };
            let pos = t.max(iv.start);
            if pos + dur + pad <= end {
                self.floor = pos + dur + pad;
                return Some((pos, iv.anchor));
            }
        }
        None
    }
}

/// Pipeline `j`'s packing tracks, indexed `[encoder stage][comm as usize]`.
type Tracks<'a> = Vec<[Track<'a>; 2]>;

/// Where a pipeline's microbatches sit in the global stream: `(offset,
/// length)` under `mb_scales`, `(0, 0)` under uniform load, where the
/// position changes no duration.
type Stream = (u32, u32);

/// Chain packings of the fine pass, shared by every partition a scheduler
/// scores (see [`BubbleScheduler::score_partition`]).
///
/// Each packing is a pure function of a short key:
/// - forward `(pipeline, relocated count, stream)`: the pipeline's last
///   `count` forwards, packed from pristine tracks;
/// - backward `(pipeline, forward count, step, stream)`: microbatch `step`,
///   packed onto the tracks that the forward pass and backward steps
///   `0..step` left. Those steps were all accepted, since a rejected step
///   ends the pipeline's backward pass.
///
/// A value is the packing's result (`None` when a kernel fits nowhere) and
/// the tracks after it: borrowed intervals plus each track's cursor (floor,
/// hint). It never holds placements, so only scoring reads the memo. Because
/// values are pure, the order in which workers fill it cannot change an
/// answer.
#[derive(Debug, Default)]
struct PackMemo<'a> {
    fwd: Mutex<HashMap<(u32, u32, Stream), FwdPacking<'a>>>,
    bwd: Mutex<HashMap<(u32, u32, u32, Stream), BwdPacking<'a>>>,
}

/// Encoder-forward finishes of the packed chains and the tracks after them.
type FwdPacking<'a> = Option<(Vec<Ts>, Tracks<'a>)>;

/// The packed chain's (first start, end) and the tracks after it.
type BwdPacking<'a> = Option<((Ts, Ts), Tracks<'a>)>;

/// The value of `key` in `map`, computed by `compute` on a miss. The lock is
/// not held while computing, so two workers may compute the same value; it
/// is pure, so either insert is the same.
fn memoised<K: Hash + Eq, V: Clone>(
    map: &Mutex<HashMap<K, V>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> V {
    const POISONED: &str = "a worker panicked while holding the pack memo";
    if let Some(v) = map.lock().expect(POISONED).get(&key) {
        return v.clone();
    }
    let v = compute();
    map.lock().expect(POISONED).entry(key).or_insert(v).clone()
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
///
/// Its inputs are read-only once built (set through `new` and the `with_*`
/// builders), because the fine pass's packing memo is only valid for them.
#[derive(Debug)]
pub struct BubbleScheduler<'a> {
    profile: &'a LlmProfile,
    work: &'a EncoderWork,
    layout: &'a ColocationLayout,
    margin: f64,
    slack: f64,
    mb_scales: Option<Vec<f64>>,
    /// The profile's forward dependency points, sorted once for
    /// `CheckEncLLMDep`.
    pub(crate) f_sorted: Vec<Ts>,
    /// The profile's backward dependency points, sorted once.
    pub(crate) b_sorted: Vec<Ts>,
    memo: PackMemo<'a>,
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
        let sorted = |points: &[Ts]| {
            let mut v = points.to_vec();
            v.sort_unstable();
            v
        };
        Ok(BubbleScheduler {
            profile,
            work,
            layout,
            margin: 0.0,
            slack: 0.0,
            mb_scales: None,
            f_sorted: sorted(&profile.f_points),
            b_sorted: sorted(&profile.b_points),
            memo: PackMemo::default(),
        })
    }

    /// LLM bubble profile.
    pub fn profile(&self) -> &'a LlmProfile {
        self.profile
    }

    /// Encoder workload under the candidate plan.
    pub fn work(&self) -> &'a EncoderWork {
        self.work
    }

    /// Encoder-over-LLM tiling.
    pub fn layout(&self) -> &'a ColocationLayout {
        self.layout
    }

    /// Fraction of every interior bubble reserved as safety margin against
    /// kernel-runtime jitter (§6 mitigation); `0.0` uses bubbles fully.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Per-claim slack: every bubble-insert claim keeps headroom for a
    /// `(1 + slack)×` runtime stretch before escaping its proven-idle
    /// interval or colliding with a neighbour; `0.0` packs exactly.
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Per-microbatch encoder load scales (heterogeneous data: variable
    /// images per sample). `None` means uniform load. One per microbatch;
    /// microbatches are assigned to pipelines contiguously in partition
    /// order.
    pub fn mb_scales(&self) -> Option<&[f64]> {
        self.mb_scales.as_deref()
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
        self.memo = PackMemo::default();
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
        self.memo = PackMemo::default();
        self
    }

    /// Sets the per-claim slack (clamped to `[0, 0.9]`): every insert claim
    /// keeps room for a `(1 + slack)×` runtime stretch. Unlike `margin`
    /// (which shrinks whole intervals up front), slack scales with each
    /// placed kernel, so small kernels pay small reservations. `0.0` keeps
    /// the historical exact packing bit-identically.
    pub fn with_slack(mut self, slack: f64) -> BubbleScheduler<'a> {
        self.slack = slack.clamp(0.0, 0.9);
        self.memo = PackMemo::default();
        self
    }

    /// Pristine packing tracks of pipeline `j`: per encoder stage, its host
    /// device's interior bubbles (margin applied) and its LLM compute
    /// windows, indexed by `EncKernel::comm as usize`.
    fn tracks(&self, j: u32) -> Vec<[Track<'a>; 2]> {
        (0..self.n_stages() as u32)
            .map(|k| {
                let dev = &self.profile.devices[self.host(j, k) as usize];
                [
                    Track::new(&dev.interior, self.slack, self.margin),
                    Track::new(&dev.comm_windows, self.slack, 0.0),
                ]
            })
            .collect()
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

    /// Forward half of `CheckEncLLMDep` (§4.3): sorts `ef` in place and
    /// matches it one to one against the sorted forward points — each
    /// encoder forward must finish by its point.
    fn fwd_dep_ok(&self, ef: &mut [Ts]) -> bool {
        ef.sort_unstable();
        ef.len() == self.f_sorted.len() && ef.iter().zip(&self.f_sorted).all(|(e, f)| e <= f)
    }

    /// Backward half of `CheckEncLLMDep`: sorts `eb` in place and matches it
    /// against the sorted backward points from slot `first` on — each encoder
    /// backward must start `p2p` after its point. Returns the smallest shift
    /// `≥ 0` of `eb` that meets every match, so `0` means they all hold.
    fn bwd_shift(&self, eb: &mut [Ts], first: usize) -> Ts {
        eb.sort_unstable();
        let p2p = self.p2p();
        (eb.iter().zip(&self.b_sorted[first..])).fold(0, |shift, (e, b)| shift.max(b + p2p - e))
    }

    /// `CheckEncLLMDep` on a whole schedule: both halves, one point per
    /// microbatch.
    fn check_dep(&self, ef: &[Ts], eb: &[Ts]) -> bool {
        self.fwd_dep_ok(&mut ef.to_vec())
            && eb.len() == self.b_sorted.len()
            && self.bwd_shift(&mut eb.to_vec(), 0) == 0
    }

    /// Packs microbatch `mb` of pipeline `j` into interior bubbles at kernel
    /// granularity: its stages in dataflow order (forward `0..K`, backward
    /// `K..0`), each stage's kernels back to back on that stage's tracks, the
    /// first stage no earlier than `gate` and each later one `p2p` after its
    /// predecessor ends. Returns the start of the first stage's first kernel
    /// (`0` when it has none) and the end of the last stage, or `None` when
    /// a kernel fits nowhere. Records the kernels into `placements` if given.
    #[allow(clippy::too_many_arguments)]
    fn pack_chain(
        &self,
        partition: &[u32],
        j: u32,
        mb: u32,
        dir: Dir,
        gate: Ts,
        tracks: &mut [[Track<'a>; 2]],
        mut placements: Option<&mut Vec<KernelPlacement>>,
    ) -> Option<(Ts, Ts)> {
        let k_n = self.n_stages();
        let sc = self.scale(partition, j, mb);
        let mut first_start = None;
        let mut t = gate;
        for i in 0..k_n {
            let (k, kernels) = if dir == Dir::Fwd {
                (i, &self.work.stages[i].fwd)
            } else {
                (k_n - 1 - i, &self.work.stages[k_n - 1 - i].bwd)
            };
            if i > 0 {
                t += self.p2p();
            }
            for kern in kernels {
                let dur = Self::scaled(kern.dur, sc);
                let (pos, anchor) = tracks[k][kern.comm as usize].place(t, dur)?;
                if i == 0 {
                    first_start.get_or_insert(pos);
                }
                if let Some(placements) = placements.as_deref_mut() {
                    placements.push(KernelPlacement {
                        pipeline: j,
                        enc_stage: k as u32,
                        microbatch: mb,
                        dir,
                        llm_stage: self.host(j, k as u32),
                        start: pos,
                        end: pos + dur,
                        comm: kern.comm,
                        label: kern.label,
                        anchor,
                    });
                }
                t = pos + dur;
            }
        }
        Some((first_start.unwrap_or(0), t))
    }

    /// Pipeline `j`'s place in the microbatch stream, as far as it changes a
    /// packing (see [`Stream`]).
    fn stream(&self, partition: &[u32], j: u32) -> Stream {
        match self.mb_scales {
            None => (0, 0),
            Some(_) => (partition[..j as usize].iter().sum(), partition[j as usize]),
        }
    }

    /// Packs pipeline `j`'s last `count` forwards into fresh tracks, each
    /// chain ungated. Recording packs afresh; scoring reads the memo.
    fn fwd_packing(
        &self,
        partition: &[u32],
        j: u32,
        count: u32,
        mut placements: Option<&mut Vec<KernelPlacement>>,
    ) -> FwdPacking<'a> {
        let record = placements.is_some();
        let mut pack = || {
            let mut fresh = self.tracks(j);
            let n = partition[j as usize];
            let ef = (n - count..n)
                .map(|mb| {
                    let chain = self.pack_chain(
                        partition,
                        j,
                        mb,
                        Dir::Fwd,
                        Ts::MIN / 4,
                        &mut fresh,
                        placements.as_deref_mut(),
                    );
                    chain.map(|(_, end)| end + self.p2p())
                })
                .collect::<Option<Vec<Ts>>>()?;
            Some((ef, fresh))
        };
        if record {
            return pack();
        }
        let key = (j, count, self.stream(partition, j));
        memoised(&self.memo.fwd, key, pack)
    }

    /// Packs pipeline `j`'s backward of microbatch `mb` onto a copy of its
    /// `tracks`, gated by the `mb`-th sorted backward point. `fwd_count` is
    /// the pipeline's relocated forward count, which with `mb` fixes the
    /// tracks (see [`PackMemo`]). Recording packs afresh; scoring reads the
    /// memo.
    fn bwd_packing(
        &self,
        partition: &[u32],
        j: u32,
        (fwd_count, mb): (u32, u32),
        tracks: &Tracks<'a>,
        placements: Option<&mut Vec<KernelPlacement>>,
    ) -> BwdPacking<'a> {
        let record = placements.is_some();
        let pack = || {
            let mut next = tracks.clone();
            let gate = self.b_sorted[(mb as usize).min(self.b_sorted.len() - 1)] + self.p2p();
            let span = self.pack_chain(partition, j, mb, Dir::Bwd, gate, &mut next, placements)?;
            Some((span, next))
        };
        if record {
            return pack();
        }
        let key = (j, fwd_count, mb, self.stream(partition, j));
        memoised(&self.memo.bwd, key, pack)
    }

    /// Schedules one microbatch partition (Algorithm 2 body), recording
    /// every relocated kernel's placement. Returns `None` when the partition
    /// is structurally impossible.
    pub fn schedule_partition(&self, partition: &[u32], fine: bool) -> Option<ScheduleOutcome> {
        self.run_partition(partition, fine, true)
    }

    /// [`BubbleScheduler::schedule_partition`] without the placements: every
    /// other field is the same. The fine pass's chain packings come from a
    /// memo shared by every partition this scheduler scores, which makes
    /// scoring a sweep much cheaper than recording it.
    pub fn score_partition(&self, partition: &[u32], fine: bool) -> Option<ScheduleOutcome> {
        self.run_partition(partition, fine, false)
    }

    fn run_partition(
        &self,
        partition: &[u32],
        fine: bool,
        record: bool,
    ) -> Option<ScheduleOutcome> {
        let m = self.layout.pipelines_per_llm_pipeline() as usize;
        let n_mb = self.profile.n_microbatches();
        if partition.len() != m || partition.iter().sum::<u32>() != n_mb {
            return None;
        }
        let makespan = self.profile.makespan;

        // Per-pipeline packing tracks over its exclusive devices.
        let mut tracks: Vec<Tracks<'a>> = (0..m as u32).map(|j| self.tracks(j)).collect();

        let mut relocated_f = vec![0u32; m];
        let mut done_f = vec![false; m];
        let mut fronts: Vec<FrontResult> = (0..m)
            .map(|j| self.front_schedule(partition, j as u32, partition[j]))
            .collect();
        let mut fwd_placements: Vec<Vec<KernelPlacement>> = vec![Vec::new(); m];
        let mut fwd_efs: Vec<Vec<Ts>> = vec![Vec::new(); m];

        // Fine-grained forward optimisation (OptimizeSchedule, FWD).
        if fine {
            loop {
                let critical = (0..m)
                    .filter(|&j| !done_f[j] && relocated_f[j] < partition[j])
                    .max_by_key(|&j| fronts[j].prefix);
                let Some(j) = critical else { break };
                if fronts[j].prefix <= 0 {
                    break;
                }
                // Relocating c forwards packs the *last* c microbatches, so
                // c + 1 packs one more ahead of them, and it can push every
                // later one elsewhere: not an extension of c. Repack into
                // fresh tracks, which replace pipeline j's only on success.
                let try_count = relocated_f[j] + 1;
                let mut new_placements = Vec::new();
                let packed = self.fwd_packing(
                    partition,
                    j as u32,
                    try_count,
                    record.then_some(&mut new_placements),
                );
                // Backward starts are unchanged in this phase, so the forward
                // half of the dependency check decides.
                let accepted = packed.and_then(|(efs, fresh)| {
                    let front = self.front_schedule(partition, j as u32, partition[j] - try_count);
                    let mut ef_all: Vec<Ts> = (0..m)
                        .filter(|&jj| jj != j)
                        .flat_map(|jj| fronts[jj].ef.iter().chain(&fwd_efs[jj]))
                        .chain(front.ef.iter().chain(&efs))
                        .copied()
                        .collect();
                    self.fwd_dep_ok(&mut ef_all).then_some((front, efs, fresh))
                });
                match accepted {
                    Some((front, efs, fresh)) => {
                        relocated_f[j] = try_count;
                        fronts[j] = front;
                        fwd_efs[j] = efs;
                        fwd_placements[j] = new_placements;
                        tracks[j] = fresh;
                    }
                    None => done_f[j] = true,
                }
            }
        }

        // Fine-grained backward optimisation (OptimizeSchedule, BWD).
        let mut relocated_b = vec![0u32; m];
        let mut done_b = vec![false; m];
        let mut backs: Vec<BackResult> = (0..m)
            .map(|j| self.back_schedule(partition, j as u32, 0, partition[j]))
            .collect();
        let mut bwd_placements: Vec<Vec<KernelPlacement>> = vec![Vec::new(); m];
        let mut bwd_ebs: Vec<Vec<Ts>> = vec![Vec::new(); m];

        // Global shift to satisfy backward dependency points for the coarse
        // back blocks (always feasible — the trailing region is unbounded).
        // Relocated backwards claim the earliest B slots (they start
        // earliest); coarse ones take the rest in sorted order.
        let back_shift = |backs: &[BackResult], relocated_b: &[u32]| -> Ts {
            let mut coarse: Vec<Ts> = backs.iter().flat_map(|b| &b.eb_raw).copied().collect();
            self.bwd_shift(&mut coarse, relocated_b.iter().sum::<u32>() as usize)
        };

        if fine {
            loop {
                let shift = back_shift(&backs, &relocated_b);
                let suffix_of = |j: usize| (backs[j].max_end + shift - makespan).max(0);
                let critical = (0..m)
                    .filter(|&j| !done_b[j] && relocated_b[j] < partition[j])
                    .max_by_key(|&j| suffix_of(j));
                let Some(j) = critical else { break };
                if suffix_of(j) <= 0 {
                    break;
                }
                // Relocating c backwards packs microbatches 0..c in order
                // from the post-forward tracks, the r-th gated by the r-th
                // sorted B point, so c + 1 is c plus microbatch c: pack only
                // that one, onto a copy of pipeline j's tracks.
                let mb = relocated_b[j];
                let mut new_placements = Vec::new();
                let packed = self.bwd_packing(
                    partition,
                    j as u32,
                    (relocated_f[j], mb),
                    &tracks[j],
                    record.then_some(&mut new_placements),
                );
                // Relocated backwards cannot be shifted: they must meet the
                // earliest B slots directly.
                let accepted = packed.filter(|&((eb, _), _)| {
                    let mut eb_all: Vec<Ts> =
                        bwd_ebs.iter().flatten().copied().chain([eb]).collect();
                    self.b_sorted.len() == n_mb as usize && self.bwd_shift(&mut eb_all, 0) == 0
                });
                match accepted {
                    Some(((eb, _), next)) => {
                        relocated_b[j] = mb + 1;
                        backs[j] = self.back_schedule(partition, j as u32, mb + 1, partition[j]);
                        bwd_ebs[j].push(eb);
                        bwd_placements[j].append(&mut new_placements);
                        tracks[j] = next;
                    }
                    None => done_b[j] = true,
                }
            }
        }

        // Final assembly.
        let shift = back_shift(&backs, &relocated_b);
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

        let placements: Vec<KernelPlacement> = (fwd_placements.into_iter())
            .zip(bwd_placements)
            .flat_map(|(f, b)| f.into_iter().chain(b))
            .collect();

        let total_compute: Ts = (0..m)
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

        let ef: Vec<Ts> = (0..m)
            .flat_map(|j| fronts[j].ef.iter().chain(&fwd_efs[j]))
            .copied()
            .collect();
        let mut eb = Vec::new();
        for j in 0..m {
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
            .unwrap_or_else(|| vec![1.0; n_mb as usize]);
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
    /// The enumeration is pure and deterministic: the plan search builds it
    /// once per candidate and its work items slice into that one list by
    /// index. Its length is `partition_count(n_mb, m, max_partitions)`.
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

    /// Best scored schedule (see [`BubbleScheduler::score_partition`]) over a
    /// slice of partitions, without placements; latency ties keep the
    /// earliest partition in the slice, so concatenating slice results in
    /// enumeration order reproduces a full sequential sweep exactly.
    pub(crate) fn score_slice(
        &self,
        partitions: &[Vec<u32>],
        fine: bool,
    ) -> Option<ScheduleOutcome> {
        let mut best: Option<ScheduleOutcome> = None;
        for partition in partitions {
            if let Some(outcome) = self.score_partition(partition, fine) {
                if best.as_ref().is_none_or(|b| outcome.latency < b.latency) {
                    best = Some(outcome);
                }
            }
        }
        best
    }

    /// Best schedule over a slice of partitions, with its placements: the
    /// slice is scored and only the winner is recorded. Latency ties keep
    /// the earliest partition in the slice, so concatenating slice results
    /// in enumeration order reproduces a full sequential sweep exactly.
    pub fn schedule_slice(&self, partitions: &[Vec<u32>], fine: bool) -> Option<ScheduleOutcome> {
        let best = self.score_slice(partitions, fine)?;
        self.schedule_partition(&best.partition, fine)
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
