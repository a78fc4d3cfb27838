//! Differential oracle for the bubble scheduler's packing.
//!
//! `Oracle` below is the reference implementation of Algorithm 2 that the
//! scheduler is pinned to: per-(pipeline, stage) tracks that own a copy of
//! their free intervals (margin applied by shrinking and dropping them up
//! front), a forward fine step that repacks from pristine tracks and
//! restores a snapshot on rejection, a backward fine step that repacks the
//! whole relocated prefix from a post-forward snapshot, and a dependency
//! check that re-sorts the F/B points on every call. It keeps no memo and
//! reads only the scheduler's public accessors.
//!
//! The tests assert, for every candidate partition of the 8-GPU workloads,
//! in the fine and the coarse pass, under a grid of margins (NaN included:
//! it means no margin), slacks and load scales, that
//! `BubbleScheduler::schedule_partition` returns the same `ScheduleOutcome`,
//! field for field, as the oracle, and that `score_partition` (the memoised
//! scoring path) returns it without the placements. A scheduler's memo is
//! shared by every partition it scores, so the tests also sweep chunks of
//! partitions in reverse and interleaved order on one scheduler and compare
//! each chunk's `schedule_slice` with the oracle's best and with a fresh
//! scheduler's.

use optimus_baselines::common::SystemContext;
use optimus_core::{
    plan_model, sample_load_scales, BubbleScheduler, CoarseBlock, EncoderWork, FreeInterval,
    KernelPlacement, LlmProfile, ScheduleOutcome, Ts,
};
use optimus_modeling::{MllmConfig, Workload};
use optimus_parallel::{ColocationLayout, ParallelPlan};
use optimus_pipeline::Dir;

/// Per-(pipeline, stage) packing track: free intervals plus a monotone floor
/// guaranteeing kernel order on the device.
#[derive(Debug, Clone)]
struct Track {
    intervals: Vec<FreeInterval>,
    floor: Ts,
    /// First interval that may still have room (all earlier ones end at or
    /// before the floor). Valid because the floor is monotone.
    hint: usize,
    /// Per-kernel slack reservation: each placement additionally reserves
    /// `ceil(slack · dur)` after the kernel, inside the same interval,
    /// without claiming it.
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
    eb_raw: Vec<Ts>,
    blocks: Vec<CoarseBlock>,
    max_end: Ts,
}

/// The reference scheduler, built from a `BubbleScheduler`'s public accessors.
struct Oracle<'a> {
    profile: &'a LlmProfile,
    work: &'a EncoderWork,
    layout: &'a ColocationLayout,
    margin: f64,
    slack: f64,
    mb_scales: Option<Vec<f64>>,
}

impl<'a> Oracle<'a> {
    fn of(s: &BubbleScheduler<'a>) -> Oracle<'a> {
        Oracle {
            profile: s.profile(),
            work: s.work(),
            layout: s.layout(),
            margin: s.margin(),
            slack: s.slack(),
            mb_scales: s.mb_scales().map(<[f64]>::to_vec),
        }
    }

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
        let mut shift = Ts::MIN / 4;
        for k in 0..k_n {
            let deadline = self.profile.devices[self.host(j, k as u32) as usize].leading_end;
            let pad = (self.slack * (end[k][n - 1] - first_start[k]) as f64).ceil() as Ts;
            shift = shift.max(end[k][n - 1] + pad - deadline);
        }
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

    #[allow(clippy::needless_range_loop)]
    fn schedule_partition(&self, partition: &[u32], fine: bool) -> Option<ScheduleOutcome> {
        let m = self.layout.pipelines_per_llm_pipeline();
        if partition.len() != m as usize
            || partition.iter().sum::<u32>() != self.profile.n_microbatches()
        {
            return None;
        }
        let k_n = self.n_stages();
        let makespan = self.profile.makespan;

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

        if fine {
            loop {
                let critical = (0..m as usize)
                    .filter(|&j| !done_f[j] && relocated_f[j] < partition[j])
                    .max_by_key(|&j| fronts[j].prefix);
                let Some(j) = critical else { break };
                if fronts[j].prefix <= 0 {
                    break;
                }
                let snap_comp = compute_tracks[j].clone();
                let snap_comm = comm_tracks[j].clone();
                let try_count = relocated_f[j] + 1;
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

        let mut relocated_b = vec![0u32; m as usize];
        let mut done_b = vec![false; m as usize];
        let mut backs: Vec<BackResult> = (0..m)
            .map(|j| self.back_schedule(partition, j, 0, partition[j as usize]))
            .collect();
        let mut bwd_placements: Vec<Vec<KernelPlacement>> = vec![Vec::new(); m as usize];
        let mut bwd_ebs: Vec<Vec<Ts>> = vec![Vec::new(); m as usize];
        let mut b_sorted = self.profile.b_points.clone();
        b_sorted.sort_unstable();

        let post_fwd_comp: Vec<Vec<Track>> = compute_tracks.clone();
        let post_fwd_comm: Vec<Vec<Track>> = comm_tracks.clone();

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
                        let mut coarse: Vec<Ts> = Vec::new();
                        for b in &backs_t {
                            coarse.extend_from_slice(&b.eb_raw);
                        }
                        coarse.sort_unstable();
                        let p2p = self.p2p();
                        let reloc = eb_all.len();
                        let feasible_slots = reloc + coarse.len() == b_sorted.len();
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
}

/// Margins of the grid: NaN clamps to NaN, which the scheduler treats as no
/// margin.
const MARGINS: [f64; 4] = [0.0, 0.3, 0.9, f64::NAN];
const SLACKS: [f64; 2] = [0.0, 0.2];

/// Partitions per chunk of the interleaved sweeps: the plan search's own
/// work-item size.
const CHUNK: usize = 8;

/// What one workload contributed, so the tests can insist that the grid
/// really exercises the fine pass's relocations and the shared memo.
#[derive(Debug, Default)]
struct Coverage {
    compared: usize,
    feasible: usize,
    relocated_fwd: usize,
    relocated_bwd: usize,
    /// Chunks swept on a shared scheduler after another chunk of the
    /// same scheduler.
    shared_chunks: usize,
}

/// The oracle's best over one chunk's outcomes by the scheduler's tie rule:
/// the earliest partition of least latency.
fn oracle_best(outcomes: &[Option<ScheduleOutcome>]) -> Option<ScheduleOutcome> {
    let mut best: Option<&ScheduleOutcome> = None;
    for out in outcomes.iter().flatten() {
        if best.is_none_or(|b| out.latency < b.latency) {
            best = Some(out);
        }
    }
    best.cloned()
}

/// Chunk indices `0..n` in reverse, and interleaved from both ends.
fn chunk_orders(n: usize) -> [Vec<usize>; 2] {
    let reverse = (0..n).rev().collect();
    let interleaved = (0..n.div_ceil(2))
        .flat_map(|i| [i, n - 1 - i])
        .take(n)
        .collect();
    [reverse, interleaved]
}

/// Compares the scheduler against the oracle on every candidate partition of
/// every candidate plan of the 8-GPU small model at `global_batch`, over the
/// whole margin × slack × scales × pass grid.
fn compare_workload(llm_plan: ParallelPlan, global_batch: u32) -> Coverage {
    let ctx = SystemContext::hopper(8).unwrap();
    let w = Workload::new(MllmConfig::small(), 8, global_batch, 1);
    let profile = LlmProfile::build(&w, &llm_plan, &ctx).unwrap();
    let n_mb = profile.n_microbatches();
    let skewed = sample_load_scales(n_mb, 0.5, 17);
    let mut cov = Coverage::default();
    for cand in plan_model(&w, &llm_plan, u64::MAX).unwrap().candidates {
        let work = EncoderWork::build(&w.mllm, &cand.plan, 1, &ctx).unwrap();
        let base = BubbleScheduler::new(&profile, &work, &cand.layout).unwrap();
        let Ok(partitions) = base.candidate_partitions(128) else {
            continue;
        };
        for scales in [None, Some(&skewed)] {
            for margin in MARGINS {
                for slack in SLACKS {
                    let build = || {
                        let sched = BubbleScheduler::new(&profile, &work, &cand.layout)
                            .unwrap()
                            .with_margin(margin)
                            .with_slack(slack);
                        match scales {
                            Some(sc) => sched.with_scales(sc.clone()).unwrap(),
                            None => sched,
                        }
                    };
                    let sched = build();
                    let oracle = Oracle::of(&sched);
                    let case = |partition: &[u32], fine: bool| {
                        format!(
                            "{llm_plan} batch {global_batch} enc {} partition {partition:?} \
                             fine {fine} margin {margin} slack {slack} skewed {}",
                            cand.plan,
                            scales.is_some()
                        )
                    };
                    let mut fine_wants = Vec::with_capacity(partitions.len());
                    for partition in &partitions {
                        for fine in [false, true] {
                            let want = oracle.schedule_partition(partition, fine);
                            let got = sched.schedule_partition(partition, fine);
                            assert_eq!(got, want, "{}", case(partition, fine));
                            let scored = sched.score_partition(partition, fine);
                            let unplaced = want.clone().map(|mut o| {
                                o.placements.clear();
                                o
                            });
                            assert_eq!(scored, unplaced, "scored {}", case(partition, fine));
                            cov.compared += 1;
                            if let Some(out) = &want {
                                cov.feasible += 1;
                                cov.relocated_fwd += usize::from(out.relocated.0 > 0);
                                cov.relocated_bwd += usize::from(out.relocated.1 > 0);
                            }
                            if fine {
                                fine_wants.push(want);
                            }
                        }
                    }
                    let chunks: Vec<&[Vec<u32>]> = partitions.chunks(CHUNK).collect();
                    let wants: Vec<&[Option<ScheduleOutcome>]> = fine_wants.chunks(CHUNK).collect();
                    for order in chunk_orders(chunks.len()) {
                        let shared = build();
                        for (swept, &c) in order.iter().enumerate() {
                            let got = shared.schedule_slice(chunks[c], true);
                            let want = oracle_best(wants[c]);
                            assert_eq!(got, want, "chunk {c} of {order:?}: {}", case(&[], true));
                            let fresh = build().schedule_slice(chunks[c], true);
                            assert_eq!(got, fresh, "chunk {c} of {order:?}: {}", case(&[], true));
                            cov.shared_chunks += usize::from(swept > 0);
                        }
                    }
                }
            }
        }
    }
    cov
}

/// The 8-microbatch workload most scheduler tests build: 1F1B, DP=PP=TP=2.
#[test]
fn matches_oracle_on_one_f_one_b() {
    let cov = compare_workload(ParallelPlan::new(2, 2, 2).unwrap(), 16);
    assert!(
        cov.feasible > 0 && cov.relocated_fwd > 0 && cov.shared_chunks > 0,
        "{cov:?}"
    );
}

/// The CLI's `--model small` default: interleaved 1F1B with two chunks.
#[test]
fn matches_oracle_on_interleaved() {
    let cov = compare_workload(ParallelPlan::with_vpp(2, 2, 2, 2).unwrap(), 16);
    assert!(
        cov.feasible > 0 && cov.relocated_fwd > 0 && cov.shared_chunks > 0,
        "{cov:?}"
    );
}

/// The multi-lane LLM plan of the static-lint tests (PP=2, TP=4) at 8
/// microbatches, whose schedules also relocate backwards.
#[test]
fn matches_oracle_on_multi_lane() {
    let cov = compare_workload(ParallelPlan::new(1, 2, 4).unwrap(), 8);
    assert!(
        cov.feasible > 0 && cov.relocated_fwd > 0 && cov.relocated_bwd > 0 && cov.shared_chunks > 0,
        "{cov:?}"
    );
}
