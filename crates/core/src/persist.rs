//! Schedule persistence.
//!
//! Computing a bubble schedule is "a one-time cost" (§4.2) — a production
//! deployment computes it offline and ships it to the training job. This
//! module serialises a chosen schedule (plans, partition, placements,
//! coarse blocks, dependency metadata) to JSON and validates on load that
//! it matches the workload it is applied to.
//!
//! In memory a schedule keeps its placements — thousands per plan — as one
//! canonical varint byte stream (`PackedPlacements`), about a tenth of
//! the decoded size. Only JSON output and [`SavedSchedule::to_outcome`]
//! decode it, and only bytes this module encoded ever reach the decoder.
//!
//! Serialisation is hand-rolled over [`optimus_json`] so the workspace
//! builds with no registry dependencies.

use std::io::{Read, Write};

use optimus_json::{Json, JsonError};
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;
use optimus_pipeline::Dir;

use crate::error::OptimusError;
use crate::optimus::OptimusRun;
use crate::profile::Ts;
use crate::scheduler::{CoarseBlock, KernelPlacement, ScheduleOutcome};

/// On-disk format version.
///
/// v1 carried only the workload shape (model name, GPU count, batching).
/// v2 adds content fingerprints (`topology_fp`, `model_fp`, `trace_fp`) so a
/// plan cache can key entries by *content* rather than by name. v1 files
/// still load; their fingerprint fields default to empty strings.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest on-disk format version [`SavedSchedule::load`] still accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;

fn dir_name(d: Dir) -> &'static str {
    match d {
        Dir::Fwd => "fwd",
        Dir::Bwd => "bwd",
        Dir::Wgrad => "wgrad",
    }
}

fn dir_from(name: &str) -> Result<Dir, JsonError> {
    match name {
        "fwd" => Ok(Dir::Fwd),
        "bwd" => Ok(Dir::Bwd),
        "wgrad" => Ok(Dir::Wgrad),
        other => Err(JsonError(format!("unknown direction `{other}`"))),
    }
}

fn ts_json(t: Ts) -> Json {
    Json::from(t)
}

fn plan_json(p: &PlanDto) -> Json {
    Json::obj(vec![
        ("dp", Json::from(p.dp)),
        ("pp", Json::from(p.pp)),
        ("tp", Json::from(p.tp)),
        ("vpp", Json::from(p.vpp)),
    ])
}

fn plan_from(v: &Json) -> Result<PlanDto, JsonError> {
    Ok(PlanDto {
        dp: v.field("dp")?.as_u32()?,
        pp: v.field("pp")?.as_u32()?,
        tp: v.field("tp")?.as_u32()?,
        vpp: v.field("vpp")?.as_u32()?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanDto {
    dp: u32,
    pp: u32,
    tp: u32,
    vpp: u32,
}

impl From<ParallelPlan> for PlanDto {
    fn from(p: ParallelPlan) -> PlanDto {
        PlanDto {
            dp: p.dp,
            pp: p.pp,
            tp: p.tp,
            vpp: p.vpp,
        }
    }
}

impl TryFrom<PlanDto> for ParallelPlan {
    type Error = OptimusError;
    fn try_from(p: PlanDto) -> Result<ParallelPlan, OptimusError> {
        ParallelPlan::with_vpp(p.dp, p.pp, p.tp, p.vpp)
            .map_err(|e| OptimusError::Setup(e.to_string()))
    }
}

/// Kernel labels the scheduler emits. A placement whose label is one of
/// them stores its index, so a saved schedule holds no string per placement.
const KERNEL_LABELS: [&str; 28] = [
    "tp_allgather_attn",
    "layernorm1",
    "qkv_proj",
    "attn_score",
    "attn_context",
    "out_proj",
    "tp_reducescatter_attn",
    "tp_allgather_mlp",
    "layernorm2",
    "fc1",
    "act_fn",
    "fc2",
    "tp_reducescatter_mlp",
    "tp_allgather_mlp_bwd",
    "fc2_bwd",
    "act_fn_bwd",
    "fc1_bwd",
    "layernorm2_bwd",
    "tp_reducescatter_mlp_bwd",
    "tp_allgather_attn_bwd",
    "out_proj_bwd",
    "attn_context_bwd",
    "attn_score_bwd",
    "qkv_proj_bwd",
    "layernorm1_bwd",
    "tp_reducescatter_attn_bwd",
    "adapter_bwd",
    "enc_kernel",
];

/// `label` as the scheduler's own `&'static` string, if it is one.
fn known_label(label: &str) -> Option<&'static str> {
    KERNEL_LABELS.iter().find(|&&l| l == label).copied()
}

/// One placement, decoded. Known labels are `&'static`; unknown ones borrow
/// from the JSON document or from [`PackedPlacements::unknown`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlacementDto<'a> {
    pipeline: u32,
    enc_stage: u32,
    microbatch: u32,
    dir: Dir,
    llm_stage: u32,
    start: Ts,
    end: Ts,
    comm: bool,
    label: &'a str,
    anchor: u32,
}

impl<'a> PlacementDto<'a> {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("pipeline", Json::from(self.pipeline)),
            ("enc_stage", Json::from(self.enc_stage)),
            ("microbatch", Json::from(self.microbatch)),
            ("dir", Json::from(dir_name(self.dir))),
            ("llm_stage", Json::from(self.llm_stage)),
            ("start", ts_json(self.start)),
            ("end", ts_json(self.end)),
            ("comm", Json::from(self.comm)),
            ("label", Json::from(self.label)),
            ("anchor", Json::from(self.anchor)),
        ])
    }

    fn from_json(v: &'a Json) -> Result<PlacementDto<'a>, JsonError> {
        Ok(PlacementDto {
            pipeline: v.field("pipeline")?.as_u32()?,
            enc_stage: v.field("enc_stage")?.as_u32()?,
            microbatch: v.field("microbatch")?.as_u32()?,
            dir: dir_from(v.field("dir")?.as_str()?)?,
            llm_stage: v.field("llm_stage")?.as_u32()?,
            start: v.field("start")?.as_i64()?,
            end: v.field("end")?.as_i64()?,
            comm: v.field("comm")?.as_bool()?,
            label: v.field("label")?.as_str()?,
            anchor: v.field("anchor")?.as_u32()?,
        })
    }

    fn chain(&self) -> Chain {
        (
            self.pipeline,
            self.enc_stage,
            self.microbatch,
            self.dir,
            self.llm_stage,
        )
    }
}

/// The fields consecutive placements of one kernel chain share: pipeline,
/// encoder stage, microbatch, direction and LLM stage.
type Chain = (u32, u32, u32, Dir, u32);

/// Placements packed as one canonical varint byte stream.
///
/// Each placement is a varint head `label << 2 | comm << 1 | new_chain`.
/// When its chain differs from the previous placement's, the five chain
/// fields follow. Then come zigzag varints of the start minus the previous
/// end, of the duration and of the anchor minus the previous anchor, all
/// with wrapping arithmetic, so every `i64` and `u32` round-trips. `label`
/// indexes [`KERNEL_LABELS`]; past it, [`Self::unknown`]. The bytes are a
/// function of the placement list, so `==` here is `==` on the placements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PackedPlacements {
    /// Number of placements.
    len: usize,
    bytes: Vec<u8>,
    /// Labels outside [`KERNEL_LABELS`], once each, in first-use order.
    unknown: Vec<String>,
}

/// The state each placement is encoded against: the previous placement's
/// chain, end and anchor.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    chain: Option<Chain>,
    end: Ts,
    anchor: u32,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn take_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    v
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Directions by their code in the packed stream.
const DIRS: [Dir; 3] = [Dir::Fwd, Dir::Bwd, Dir::Wgrad];

impl PackedPlacements {
    fn pack<'a>(placements: impl IntoIterator<Item = PlacementDto<'a>>) -> PackedPlacements {
        let mut packed = PackedPlacements::default();
        let mut at = Cursor::default();
        for p in placements {
            let label = match KERNEL_LABELS.iter().position(|&l| l == p.label) {
                Some(i) => i,
                None => {
                    let unknown = &mut packed.unknown;
                    let i = (unknown.iter().position(|l| l == p.label)).unwrap_or_else(|| {
                        unknown.push(p.label.to_string());
                        unknown.len() - 1
                    });
                    KERNEL_LABELS.len() + i
                }
            };
            let chain = p.chain();
            let new_chain = at.chain != Some(chain);
            let head = (label as u64) << 2 | u64::from(p.comm) << 1 | u64::from(new_chain);
            put_varint(&mut packed.bytes, head);
            if new_chain {
                let dir = DIRS.iter().position(|&d| d == p.dir).expect("every Dir") as u32;
                for v in [p.pipeline, p.enc_stage, p.microbatch, dir, p.llm_stage] {
                    put_varint(&mut packed.bytes, v.into());
                }
            }
            for d in [
                p.start.wrapping_sub(at.end),
                p.end.wrapping_sub(p.start),
                i64::from(p.anchor) - i64::from(at.anchor),
            ] {
                put_varint(&mut packed.bytes, zigzag(d));
            }
            at = Cursor {
                chain: Some(chain),
                end: p.end,
                anchor: p.anchor,
            };
            packed.len += 1;
        }
        packed.bytes.shrink_to_fit();
        packed
    }

    fn iter(&self) -> Unpack<'_> {
        Unpack {
            packed: self,
            pos: 0,
            left: self.len,
            at: Cursor::default(),
        }
    }
}

/// Decodes a [`PackedPlacements`] in order.
struct Unpack<'a> {
    packed: &'a PackedPlacements,
    pos: usize,
    left: usize,
    at: Cursor,
}

impl<'a> Iterator for Unpack<'a> {
    type Item = PlacementDto<'a>;

    fn next(&mut self) -> Option<PlacementDto<'a>> {
        self.left = self.left.checked_sub(1)?;
        let (packed, at) = (self.packed, &mut self.at);
        let mut next = || take_varint(&packed.bytes, &mut self.pos);
        let head = next();
        if head & 1 == 1 {
            let mut field = || next() as u32;
            let (pipeline, enc_stage, microbatch) = (field(), field(), field());
            let dir = DIRS[field() as usize];
            at.chain = Some((pipeline, enc_stage, microbatch, dir, field()));
        }
        let (pipeline, enc_stage, microbatch, dir, llm_stage) =
            at.chain.expect("the first placement opens a chain");
        let start = at.end.wrapping_add(unzigzag(next()));
        let end = start.wrapping_add(unzigzag(next()));
        let anchor = (i64::from(at.anchor) + unzigzag(next())) as u32;
        at.end = end;
        at.anchor = anchor;
        let code = (head >> 2) as usize;
        let label: &str = match KERNEL_LABELS.get(code) {
            Some(&l) => l,
            None => &packed.unknown[code - KERNEL_LABELS.len()],
        };
        Some(PlacementDto {
            pipeline,
            enc_stage,
            microbatch,
            dir,
            llm_stage,
            start,
            end,
            comm: head & 2 != 0,
            label,
            anchor,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Unpack<'_> {}

#[derive(Debug, Clone, PartialEq)]
struct BlockDto {
    pipeline: u32,
    enc_stage: u32,
    llm_stage: u32,
    start: Ts,
    end: Ts,
    compute_work: Ts,
    microbatches: u32,
    dir: Dir,
}

impl BlockDto {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pipeline", Json::from(self.pipeline)),
            ("enc_stage", Json::from(self.enc_stage)),
            ("llm_stage", Json::from(self.llm_stage)),
            ("start", ts_json(self.start)),
            ("end", ts_json(self.end)),
            ("compute_work", ts_json(self.compute_work)),
            ("microbatches", Json::from(self.microbatches)),
            ("dir", Json::from(dir_name(self.dir))),
        ])
    }

    fn from_json(v: &Json) -> Result<BlockDto, JsonError> {
        Ok(BlockDto {
            pipeline: v.field("pipeline")?.as_u32()?,
            enc_stage: v.field("enc_stage")?.as_u32()?,
            llm_stage: v.field("llm_stage")?.as_u32()?,
            start: v.field("start")?.as_i64()?,
            end: v.field("end")?.as_i64()?,
            compute_work: v.field("compute_work")?.as_i64()?,
            microbatches: v.field("microbatches")?.as_u32()?,
            dir: dir_from(v.field("dir")?.as_str()?)?,
        })
    }
}

/// A serialised bubble schedule with the context needed to validate reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSchedule {
    /// Format version.
    pub version: u32,
    /// Model name the schedule was computed for.
    pub model: String,
    /// Cluster size.
    pub num_gpus: u32,
    /// Global batch size.
    pub global_batch: u32,
    /// Microbatch size.
    pub microbatch_size: u32,
    /// LLM plan.
    llm_plan: PlanDto,
    /// Chosen encoder plan.
    enc_plan: PlanDto,
    /// Microbatch partition across encoder pipelines.
    pub partition: Vec<u32>,
    /// Latency estimate in nanoseconds.
    pub latency_ns: Ts,
    /// Iteration prefix / suffix extensions.
    pub prefix_ns: Ts,
    /// Suffix extension.
    pub suffix_ns: Ts,
    /// Scheduling efficiency.
    pub efficiency: f64,
    /// Per-microbatch load scales.
    pub mb_scales: Vec<f64>,
    /// Cluster-topology content fingerprint (32 hex chars; empty if unknown).
    pub topology_fp: String,
    /// Model/config content fingerprint (32 hex chars; empty if unknown).
    pub model_fp: String,
    /// Trace/calibration content fingerprint (32 hex chars; empty if unknown).
    pub trace_fp: String,
    /// Encoder forward finish times.
    ef: Vec<Ts>,
    /// Encoder backward start times.
    eb: Vec<Ts>,
    placements: PackedPlacements,
    blocks: Vec<BlockDto>,
}

impl SavedSchedule {
    /// Captures a run's chosen schedule.
    pub fn capture(run: &OptimusRun, w: &Workload) -> SavedSchedule {
        let o = &run.outcome;
        SavedSchedule {
            version: FORMAT_VERSION,
            model: w.mllm.name.clone(),
            num_gpus: w.num_gpus,
            global_batch: w.global_batch,
            microbatch_size: w.microbatch_size,
            llm_plan: run.profile.llm_plan.into(),
            enc_plan: run.enc_plan.into(),
            partition: o.partition.clone(),
            latency_ns: o.latency,
            prefix_ns: o.prefix,
            suffix_ns: o.suffix,
            efficiency: o.efficiency(),
            mb_scales: o.mb_scales.clone(),
            topology_fp: String::new(),
            model_fp: String::new(),
            trace_fp: String::new(),
            ef: o.ef.clone(),
            eb: o.eb.clone(),
            placements: PackedPlacements::pack(o.placements.iter().map(|p| PlacementDto {
                pipeline: p.pipeline,
                enc_stage: p.enc_stage,
                microbatch: p.microbatch,
                dir: p.dir,
                llm_stage: p.llm_stage,
                start: p.start,
                end: p.end,
                comm: p.comm,
                label: p.label,
                anchor: p.anchor,
            })),
            blocks: o
                .blocks
                .iter()
                .map(|b| BlockDto {
                    pipeline: b.pipeline,
                    enc_stage: b.enc_stage,
                    llm_stage: b.llm_stage,
                    start: b.start,
                    end: b.end,
                    compute_work: b.compute_work,
                    microbatches: b.microbatches,
                    dir: b.dir,
                })
                .collect(),
        }
    }

    /// Attaches content fingerprints (hex strings) to the schedule.
    ///
    /// Fingerprints are opaque at this layer — the plan-cache keys entries
    /// by them and re-verifies them on every hit.
    pub fn with_fingerprints(
        mut self,
        topology_fp: String,
        model_fp: String,
        trace_fp: String,
    ) -> SavedSchedule {
        self.topology_fp = topology_fp;
        self.model_fp = model_fp;
        self.trace_fp = trace_fp;
        self
    }

    fn to_json(&self) -> Json {
        let ts_arr = |v: &[Ts]| Json::Arr(v.iter().map(|&t| ts_json(t)).collect());
        Json::obj(vec![
            ("version", Json::from(self.version)),
            ("model", Json::from(self.model.as_str())),
            ("num_gpus", Json::from(self.num_gpus)),
            ("global_batch", Json::from(self.global_batch)),
            ("microbatch_size", Json::from(self.microbatch_size)),
            ("llm_plan", plan_json(&self.llm_plan)),
            ("enc_plan", plan_json(&self.enc_plan)),
            (
                "partition",
                Json::Arr(self.partition.iter().map(|&p| Json::from(p)).collect()),
            ),
            ("latency_ns", ts_json(self.latency_ns)),
            ("prefix_ns", ts_json(self.prefix_ns)),
            ("suffix_ns", ts_json(self.suffix_ns)),
            ("efficiency", Json::from(self.efficiency)),
            (
                "mb_scales",
                Json::Arr(self.mb_scales.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("topology_fp", Json::from(self.topology_fp.as_str())),
            ("model_fp", Json::from(self.model_fp.as_str())),
            ("trace_fp", Json::from(self.trace_fp.as_str())),
            ("ef", ts_arr(&self.ef)),
            ("eb", ts_arr(&self.eb)),
            (
                "placements",
                Json::Arr(self.placements.iter().map(|p| p.to_json()).collect()),
            ),
            (
                "blocks",
                Json::Arr(self.blocks.iter().map(|b| b.to_json()).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<SavedSchedule, JsonError> {
        let ts_vec = |v: &Json| -> Result<Vec<Ts>, JsonError> {
            v.as_arr()?.iter().map(|t| t.as_i64()).collect()
        };
        let version = v.field("version")?.as_u32()?;
        // Fingerprint fields are mandatory from v2 on; v1 files predate them.
        let fp = |name: &str| -> Result<String, JsonError> {
            if version >= 2 {
                Ok(v.field(name)?.as_str()?.to_string())
            } else {
                Ok(String::new())
            }
        };
        Ok(SavedSchedule {
            version,
            model: v.field("model")?.as_str()?.to_string(),
            num_gpus: v.field("num_gpus")?.as_u32()?,
            global_batch: v.field("global_batch")?.as_u32()?,
            microbatch_size: v.field("microbatch_size")?.as_u32()?,
            llm_plan: plan_from(v.field("llm_plan")?)?,
            enc_plan: plan_from(v.field("enc_plan")?)?,
            partition: v
                .field("partition")?
                .as_arr()?
                .iter()
                .map(|p| p.as_u32())
                .collect::<Result<_, _>>()?,
            latency_ns: v.field("latency_ns")?.as_i64()?,
            prefix_ns: v.field("prefix_ns")?.as_i64()?,
            suffix_ns: v.field("suffix_ns")?.as_i64()?,
            efficiency: v.field("efficiency")?.as_f64()?,
            mb_scales: v
                .field("mb_scales")?
                .as_arr()?
                .iter()
                .map(|s| s.as_f64())
                .collect::<Result<_, _>>()?,
            topology_fp: fp("topology_fp")?,
            model_fp: fp("model_fp")?,
            trace_fp: fp("trace_fp")?,
            ef: ts_vec(v.field("ef")?)?,
            eb: ts_vec(v.field("eb")?)?,
            placements: PackedPlacements::pack(
                (v.field("placements")?.as_arr()?.iter())
                    .map(PlacementDto::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            blocks: v
                .field("blocks")?
                .as_arr()?
                .iter()
                .map(BlockDto::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Writes the schedule as JSON.
    pub fn save<W: Write>(&self, mut out: W) -> Result<(), OptimusError> {
        let json = self.to_json().to_pretty();
        out.write_all(json.as_bytes())
            .map_err(|e| OptimusError::Setup(format!("write: {e}")))
    }

    /// Reads a schedule from JSON.
    pub fn load<R: Read>(mut input: R) -> Result<SavedSchedule, OptimusError> {
        let mut buf = String::new();
        input
            .read_to_string(&mut buf)
            .map_err(|e| OptimusError::Setup(format!("read: {e}")))?;
        let doc = Json::parse(&buf).map_err(|e| OptimusError::Setup(format!("parse: {e}")))?;
        let saved = SavedSchedule::from_json(&doc)
            .map_err(|e| OptimusError::Setup(format!("parse: {e}")))?;
        if saved.version < MIN_FORMAT_VERSION || saved.version > FORMAT_VERSION {
            return Err(OptimusError::Setup(format!(
                "schedule format v{} unsupported (expected v{MIN_FORMAT_VERSION}..=v{FORMAT_VERSION})",
                saved.version
            )));
        }
        Ok(saved)
    }

    /// Validates that the schedule was computed for this workload/plan.
    pub fn validate_for(&self, w: &Workload, llm_plan: &ParallelPlan) -> Result<(), OptimusError> {
        let mismatch = |what: &str| {
            Err(OptimusError::Infeasible(format!(
                "saved schedule does not match {what}"
            )))
        };
        if self.model != w.mllm.name {
            return mismatch("model");
        }
        if self.num_gpus != w.num_gpus
            || self.global_batch != w.global_batch
            || self.microbatch_size != w.microbatch_size
        {
            return mismatch("workload shape");
        }
        if PlanDto::from(*llm_plan) != self.llm_plan {
            return mismatch("LLM plan");
        }
        Ok(())
    }

    /// The LLM plan the schedule was computed for.
    pub fn llm_plan(&self) -> Result<ParallelPlan, OptimusError> {
        self.llm_plan.try_into()
    }

    /// The chosen encoder plan.
    pub fn enc_plan(&self) -> Result<ParallelPlan, OptimusError> {
        self.enc_plan.try_into()
    }

    /// Reconstructs a [`ScheduleOutcome`] (labels are interned as static
    /// strings via leak-free lookup into the known kernel-name table; unknown
    /// labels map to `"enc_kernel"`).
    pub fn to_outcome(&self) -> ScheduleOutcome {
        ScheduleOutcome {
            partition: self.partition.clone(),
            prefix: self.prefix_ns,
            suffix: self.suffix_ns,
            latency: self.latency_ns,
            blocks: self
                .blocks
                .iter()
                .map(|b| CoarseBlock {
                    pipeline: b.pipeline,
                    enc_stage: b.enc_stage,
                    llm_stage: b.llm_stage,
                    start: b.start,
                    end: b.end,
                    compute_work: b.compute_work,
                    microbatches: b.microbatches,
                    dir: b.dir,
                })
                .collect(),
            placements: (self.placements.iter())
                .map(|p| KernelPlacement {
                    pipeline: p.pipeline,
                    enc_stage: p.enc_stage,
                    microbatch: p.microbatch,
                    dir: p.dir,
                    llm_stage: p.llm_stage,
                    start: p.start,
                    end: p.end,
                    comm: p.comm,
                    label: known_label(p.label).unwrap_or("enc_kernel"),
                    anchor: p.anchor,
                })
                .collect(),
            ef: self.ef.clone(),
            eb: self.eb.clone(),
            in_bubble_compute: 0,
            total_compute: 0,
            relocated: (0, 0),
            mb_scales: self.mb_scales.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimus::{run_optimus, OptimusConfig};
    use optimus_baselines::common::SystemContext;
    use optimus_detrand::rngs::StdRng;
    use optimus_detrand::{RngExt, SeedableRng};
    use optimus_modeling::MllmConfig;

    fn run() -> (OptimusRun, Workload) {
        let w = Workload::new(MllmConfig::small(), 8, 16, 1);
        let ctx = SystemContext::hopper(8).unwrap();
        let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
        (run_optimus(&w, &cfg, &ctx).unwrap(), w)
    }

    #[test]
    fn roundtrip_preserves_schedule() {
        let (r, w) = run();
        let saved = SavedSchedule::capture(&r, &w);
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        let loaded = SavedSchedule::load(buf.as_slice()).unwrap();
        assert_eq!(saved, loaded);
        let outcome = loaded.to_outcome();
        assert_eq!(outcome.latency, r.outcome.latency);
        assert_eq!(outcome.partition, r.outcome.partition);
        assert_eq!(outcome.placements.len(), r.outcome.placements.len());
        for (a, b) in outcome.placements.iter().zip(&r.outcome.placements) {
            assert_eq!(
                (a.start, a.end, a.anchor, a.dir),
                (b.start, b.end, b.anchor, b.dir)
            );
        }
    }

    #[test]
    fn validation_detects_mismatch() {
        let (r, w) = run();
        let saved = SavedSchedule::capture(&r, &w);
        saved.validate_for(&w, &r.profile.llm_plan).unwrap();
        let other = Workload::new(MllmConfig::model_a(), 64, 32, 1);
        assert!(saved.validate_for(&other, &r.profile.llm_plan).is_err());
        let other_plan = ParallelPlan::new(1, 4, 2).unwrap();
        assert!(saved.validate_for(&w, &other_plan).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let (r, w) = run();
        let mut saved = SavedSchedule::capture(&r, &w);
        saved.version = 99;
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        assert!(SavedSchedule::load(buf.as_slice()).is_err());
        saved.version = 0;
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        assert!(SavedSchedule::load(buf.as_slice()).is_err());
    }

    #[test]
    fn fingerprints_roundtrip() {
        let (r, w) = run();
        let saved = SavedSchedule::capture(&r, &w).with_fingerprints(
            "00112233445566778899aabbccddeeff".into(),
            "ffeeddccbbaa99887766554433221100".into(),
            "0123456789abcdef0123456789abcdef".into(),
        );
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        let loaded = SavedSchedule::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, saved);
        assert_eq!(loaded.topology_fp, "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn v1_files_without_fingerprints_still_load() {
        let (r, w) = run();
        let mut saved = SavedSchedule::capture(&r, &w);
        saved.version = 1;
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        // Rewrite the document to the true v1 shape: no fingerprint fields.
        let text = String::from_utf8(buf).unwrap();
        let v1: String = text
            .lines()
            .filter(|l| !l.contains("topology_fp") && !l.contains("model_fp"))
            .filter(|l| !l.contains("trace_fp"))
            .collect::<Vec<_>>()
            .join("\n");
        let loaded = SavedSchedule::load(v1.as_bytes()).unwrap();
        assert_eq!(loaded.version, 1);
        assert!(loaded.topology_fp.is_empty());
        assert!(loaded.model_fp.is_empty());
        assert!(loaded.trace_fp.is_empty());
        assert_eq!(loaded.latency_ns, saved.latency_ns);
        assert_eq!(loaded.placements, saved.placements);
    }

    #[test]
    fn labels_borrow_known_names_and_keep_unknown_ones() {
        let (r, w) = run();
        let saved = SavedSchedule::capture(&r, &w);
        assert!(saved.placements.len > 1);
        // Known labels hold no heap string: they are table indices.
        assert!(saved.placements.unknown.is_empty());
        let mut list: Vec<PlacementDto<'_>> = saved.placements.iter().collect();
        list[0].label = "custom_kernel";
        let saved = SavedSchedule {
            placements: PackedPlacements::pack(list),
            ..saved
        };
        let mut first = Vec::new();
        saved.save(&mut first).unwrap();
        let loaded = SavedSchedule::load(first.as_slice()).unwrap();
        assert_eq!(loaded, saved);
        let labels: Vec<&str> = loaded.placements.iter().map(|p| p.label).collect();
        assert_eq!(labels[0], "custom_kernel");
        // The unknown label is the only string the schedule holds; every
        // other label decodes to an entry of the known-label table.
        assert_eq!(loaded.placements.unknown, ["custom_kernel"]);
        assert!(labels[1..].iter().all(|l| KERNEL_LABELS.contains(l)));
        // An unknown label survives save -> load -> save byte for byte.
        let mut second = Vec::new();
        loaded.save(&mut second).unwrap();
        assert_eq!(first, second);
    }

    fn pick(rng: &mut StdRng, n: u32) -> u32 {
        rng.random_range(0..n)
    }

    /// A timestamp near `base`, earlier or later, or an `i64` extreme.
    fn ts(rng: &mut StdRng, base: Ts) -> Ts {
        match pick(rng, 6) {
            0 => Ts::MIN,
            1 => Ts::MAX,
            2 => base.saturating_sub(pick(rng, 1_000_000).into()),
            _ => base.saturating_add(pick(rng, 40_000).into()),
        }
    }

    /// A small chain field, or `u32::MAX`.
    fn field(rng: &mut StdRng) -> u32 {
        match pick(rng, 8) {
            0 => u32::MAX,
            _ => pick(rng, 4),
        }
    }

    /// Seeded placement lists over every field's extremes: negative start
    /// deltas, `i64::MIN`/`i64::MAX` starts and ends, `u32::MAX` anchors and
    /// chain fields, every `Dir`, `comm` both ways and repeated unknown
    /// labels. Also returns the unknown labels in first-use order.
    fn seeded_placements(seed: u64) -> (Vec<PlacementDto<'static>>, Vec<&'static str>) {
        const UNKNOWN: [&str; 3] = ["custom_a", "custom_b", "custom \"quoted\" é"];
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut out: Vec<PlacementDto<'static>> = Vec::new();
        let mut unknown = Vec::new();
        for _ in 0..pick(rng, 200) {
            let mut p = match out.last() {
                Some(&p) if pick(rng, 3) != 0 => p,
                _ => PlacementDto {
                    pipeline: field(rng),
                    enc_stage: field(rng),
                    microbatch: field(rng),
                    dir: DIRS[pick(rng, 3) as usize],
                    llm_stage: field(rng),
                    start: 0,
                    end: 0,
                    comm: false,
                    label: "",
                    anchor: 0,
                },
            };
            p.start = ts(rng, out.last().map_or(0, |q| q.end));
            p.end = ts(rng, p.start.saturating_add(1));
            p.comm = pick(rng, 2) == 0;
            p.label = match pick(rng, 4) {
                0 => UNKNOWN[pick(rng, 3) as usize],
                _ => KERNEL_LABELS[pick(rng, KERNEL_LABELS.len() as u32) as usize],
            };
            p.anchor = match pick(rng, 5) {
                0 => u32::MAX,
                1 => 0,
                _ => pick(rng, 5_000),
            };
            if UNKNOWN.contains(&p.label) && !unknown.contains(&p.label) {
                unknown.push(p.label);
            }
            out.push(p);
        }
        (out, unknown)
    }

    #[test]
    fn packed_placements_round_trip_seeded_extremes() {
        let (mut negative, mut extremes, mut max_anchor, mut repeated) = (0, 0, 0, 0);
        let mut dirs = [0; 3];
        let mut comm = [0; 2];
        for seed in 0..400 {
            let (list, unknown) = seeded_placements(seed);
            let packed = PackedPlacements::pack(list.iter().copied());
            assert_eq!(packed.len, list.len());
            assert_eq!(packed.iter().len(), list.len());
            assert_eq!(packed.iter().collect::<Vec<_>>(), list, "seed {seed}");
            assert_eq!(packed.unknown, unknown, "seed {seed}: side table");
            assert_eq!(packed.bytes.is_empty(), list.is_empty());
            for w in list.windows(2) {
                negative += usize::from(w[1].start < w[0].end);
            }
            for p in &list {
                extremes += usize::from([Ts::MIN, Ts::MAX].contains(&p.start));
                max_anchor += usize::from(p.anchor == u32::MAX);
                dirs[DIRS.iter().position(|&d| d == p.dir).unwrap()] += 1;
                comm[usize::from(p.comm)] += 1;
            }
            let unknown_uses = list.iter().filter(|p| unknown.contains(&p.label)).count();
            repeated += usize::from(unknown_uses > unknown.len());
        }
        for (what, n) in [
            ("negative start deltas", negative),
            ("i64 extremes", extremes),
            ("u32::MAX anchors", max_anchor),
            ("fwd", dirs[0]),
            ("bwd", dirs[1]),
            ("wgrad", dirs[2]),
            ("compute", comm[0]),
            ("comm", comm[1]),
            ("repeated unknown labels", repeated),
        ] {
            assert!(n >= 50, "only {n} cases of {what}");
        }
    }

    #[test]
    fn packed_equality_is_placement_equality() {
        let mut pairs = [0; 2];
        for seed in 0..200 {
            let (a, _) = seeded_placements(seed);
            // A copy that differs in at most one field of one placement.
            let mut b = a.clone();
            let rng = &mut StdRng::seed_from_u64(!seed);
            if !b.is_empty() {
                let p = &mut b[pick(rng, a.len() as u32) as usize];
                match pick(rng, 11) {
                    0 => p.pipeline ^= 1,
                    1 => p.enc_stage ^= 1,
                    2 => p.microbatch ^= 1,
                    3 => p.dir = DIRS[pick(rng, 3) as usize],
                    4 => p.llm_stage ^= 1,
                    5 => p.start = p.start.wrapping_add(1),
                    6 => p.end = p.end.wrapping_sub(1),
                    7 => p.comm = !p.comm,
                    8 => p.label = "custom_c",
                    9 => p.anchor ^= 1,
                    _ => {}
                }
            }
            let (pa, pb) = (
                PackedPlacements::pack(a.clone()),
                PackedPlacements::pack(b.clone()),
            );
            assert_eq!(pa == pb, a == b, "seed {seed}");
            pairs[usize::from(a == b)] += 1;
        }
        assert!(pairs[0] >= 50 && pairs[1] >= 10, "{pairs:?}");
    }

    #[test]
    fn v1_fixture_loads_and_saves_its_own_bytes() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/saved_schedule_v1.json"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let saved = SavedSchedule::load(text.as_bytes()).unwrap();
        assert!(saved.placements.len > 0 && saved.placements.unknown.is_empty());
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        // v1 files carry no fingerprint fields; the rest is `save`'s bytes.
        let v1: Vec<&str> = std::str::from_utf8(&buf)
            .unwrap()
            .lines()
            .filter(|l| {
                !["topology_fp", "model_fp", "trace_fp"]
                    .iter()
                    .any(|f| l.contains(f))
            })
            .collect();
        assert_eq!(v1.join("\n"), text);
    }

    #[test]
    fn garbage_input_rejected() {
        assert!(SavedSchedule::load(&b"not json"[..]).is_err());
    }
}
