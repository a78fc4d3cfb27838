//! `optimus` — command-line front end for the simulator and scheduler.
//!
//! ```text
//! optimus simulate --model d --gpus 512 --batch 256 --dp 8 --pp 8 --tp 8 --vpp 12
//! optimus simulate --model small --gpus 8 --batch 16 --dp 2 --pp 2 --tp 2 --system all --timeline
//! optimus plans    --model b --gpus 128 --batch 64 --dp 4 --pp 4 --tp 8 --vpp 6
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use optimus::baselines::common::SystemContext;
use optimus::baselines::{megatron_balanced, megatron_lm};
use optimus::core::{plan_model, run_optimus, LlmScheduleKind, OptimusConfig};
use optimus::modeling::{MllmConfig, StepReport, TraceConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::sim::BubbleBreakdown;
use optimus::trace::{bubble_table, render_timeline, TextTable};

const USAGE: &str = "\
optimus — MLLM bubble-exploitation simulator

USAGE:
    optimus simulate [OPTIONS]   simulate one training step under one or more systems
    optimus plans    [OPTIONS]   show the model planner's encoder-plan search
    optimus schedule [OPTIONS]   inspect a saved schedule (--load-schedule)
    optimus help                 print this help

OPTIONS:
    --model <a|b|c|d|small|dual11-5|dual22-5|dual22-11>   MLLM preset (default: small)
    --gpus <N>          cluster size (default: model-appropriate)
    --batch <N>         global batch size
    --microbatch <N>    sequences per microbatch (default: 1)
    --dp --pp --tp      LLM 3D-parallel degrees
    --vpp <V>           interleaved model chunks per rank (default: 1)
    --system <megatron|balanced|optimus|all>   (simulate; default: all)
    --frozen            frozen-encoder (adapter-only backward) training
    --zero-bubble       run the LLM under the zero-bubble schedule (vpp=1)
    --margin <F>        interior-bubble safety margin, 0.0-0.9
    --timeline          print an ASCII timeline (megatron baseline)
    --data <uniform|llava|web>   synthetic data mix (per-microbatch encoder load)
    --save-schedule <path>   persist Optimus's chosen schedule as JSON
    --load-schedule <path>   validate and summarise a saved schedule
";

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Opts {
    model: String,
    gpus: Option<u32>,
    batch: Option<u32>,
    microbatch: u32,
    dp: Option<u32>,
    pp: Option<u32>,
    tp: Option<u32>,
    vpp: u32,
    system: String,
    frozen: bool,
    zero_bubble: bool,
    margin: f64,
    timeline: bool,
    save_schedule: Option<String>,
    load_schedule: Option<String>,
    data: String,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            model: "small".into(),
            gpus: None,
            batch: None,
            microbatch: 1,
            dp: None,
            pp: None,
            tp: None,
            vpp: 1,
            system: "all".into(),
            frozen: false,
            zero_bubble: false,
            margin: 0.0,
            timeline: false,
            save_schedule: None,
            load_schedule: None,
            data: "uniform".into(),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "--frozen" => opts.frozen = true,
            "--zero-bubble" => opts.zero_bubble = true,
            "--timeline" => opts.timeline = true,
            flag if flag.starts_with("--") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                kv.insert(flag.trim_start_matches("--").to_string(), value.clone());
                i += 1;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let parse_u32 = |kv: &HashMap<String, String>, key: &str| -> Result<Option<u32>, String> {
        kv.get(key)
            .map(|v| {
                v.parse::<u32>()
                    .map_err(|_| format!("--{key} expects an integer, got '{v}'"))
            })
            .transpose()
    };
    if let Some(m) = kv.get("model") {
        opts.model = m.clone();
    }
    opts.gpus = parse_u32(&kv, "gpus")?;
    opts.batch = parse_u32(&kv, "batch")?;
    opts.microbatch = parse_u32(&kv, "microbatch")?.unwrap_or(1);
    opts.dp = parse_u32(&kv, "dp")?;
    opts.pp = parse_u32(&kv, "pp")?;
    opts.tp = parse_u32(&kv, "tp")?;
    opts.vpp = parse_u32(&kv, "vpp")?.unwrap_or(1);
    if let Some(s) = kv.get("system") {
        opts.system = s.clone();
    }
    if let Some(d) = kv.get("data") {
        opts.data = d.clone();
    }
    opts.save_schedule = kv.get("save-schedule").cloned();
    opts.load_schedule = kv.get("load-schedule").cloned();
    if let Some(m) = kv.get("margin") {
        opts.margin = m
            .parse::<f64>()
            .ok()
            .filter(|v| (0.0..=0.9).contains(v))
            .ok_or_else(|| format!("--margin expects a float in 0.0-0.9, got '{m}'"))?;
    }
    Ok(opts)
}

/// Resolves model preset plus per-model defaults (gpus, batch, plan, vpp).
fn resolve(opts: &Opts) -> Result<(Workload, ParallelPlan), String> {
    let (mllm, d_gpus, d_batch, d_plan, d_vpp) = match opts.model.as_str() {
        "a" => (MllmConfig::model_a(), 64, 32, (2, 4, 8), 6),
        "b" => (MllmConfig::model_b(), 128, 64, (4, 4, 8), 6),
        "c" => (MllmConfig::model_c(), 256, 128, (4, 8, 8), 12),
        "d" => (MllmConfig::model_d(), 512, 256, (8, 8, 8), 12),
        "small" => (MllmConfig::small(), 8, 16, (2, 2, 2), 2),
        "dual11-5" => (MllmConfig::dual_enc_11_5(), 512, 256, (8, 8, 8), 12),
        "dual22-5" => (MllmConfig::dual_enc_22_5(), 512, 256, (8, 8, 8), 12),
        "dual22-11" => (MllmConfig::dual_enc_22_11(), 512, 256, (8, 8, 8), 12),
        other => return Err(format!("unknown model '{other}' (see `optimus help`)")),
    };
    let gpus = opts.gpus.unwrap_or(d_gpus);
    let batch = opts.batch.unwrap_or(d_batch);
    let dp = opts.dp.unwrap_or(d_plan.0);
    let pp = opts.pp.unwrap_or(d_plan.1);
    let tp = opts.tp.unwrap_or(d_plan.2);
    let vpp = if opts.zero_bubble {
        1
    } else if opts.vpp > 1 {
        opts.vpp
    } else {
        d_vpp
    };
    let plan = ParallelPlan::with_vpp(dp, pp, tp, vpp).map_err(|e| e.to_string())?;
    if plan.num_gpus() != gpus {
        return Err(format!(
            "plan {plan} needs {} GPUs but --gpus is {gpus}",
            plan.num_gpus()
        ));
    }
    Ok((Workload::new(mllm, gpus, batch, opts.microbatch), plan))
}

fn report_row(t: &mut TextTable, r: &StepReport) {
    t.row(vec![
        r.system.clone(),
        if r.oom {
            "OOM".into()
        } else {
            format!("{:.3}", r.iteration_secs)
        },
        format!("{:.1}%", r.mfu * 100.0),
        format!("{:.1}", r.aggregate_pflops),
        format!("{:.1}", r.peak_memory_gib),
    ]);
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let (w, plan) = resolve(opts)?;
    let ctx = SystemContext::hopper(w.num_gpus).map_err(|e| e.to_string())?;
    println!(
        "model {} | {} GPUs | batch {} | microbatch {} | LLM plan {}\n",
        w.mllm.name, w.num_gpus, w.global_batch, w.microbatch_size, plan
    );
    let mut t = TextTable::new(vec!["system", "iter (s)", "MFU", "PFlops/s", "peak GiB"]);
    let run_meg = matches!(opts.system.as_str(), "megatron" | "all");
    let run_bal = matches!(opts.system.as_str(), "balanced" | "all");
    let run_opt = matches!(opts.system.as_str(), "optimus" | "all");
    if !(run_meg || run_bal || run_opt) {
        return Err(format!("unknown --system '{}'", opts.system));
    }

    let mut timeline = None;
    if run_meg {
        let m = megatron_lm(&w, (plan.dp, plan.pp, plan.tp), &ctx).map_err(|e| e.to_string())?;
        report_row(&mut t, &m.report);
        if opts.timeline {
            let bd = BubbleBreakdown::measure(&m.lowered.graph, &m.result);
            timeline = Some((
                bubble_table(&bd),
                render_timeline(&m.lowered.graph, &m.result, 100),
            ));
        }
    }
    if run_bal && w.mllm.encoders.len() == 1 {
        let b = megatron_balanced(&w, (plan.dp, plan.pp, plan.tp), plan.vpp.max(2), &ctx)
            .map_err(|e| e.to_string())?;
        report_row(&mut t, &b.report);
    }
    if run_opt {
        let mut cfg = OptimusConfig::new(plan);
        cfg.frozen_encoder = opts.frozen;
        cfg.bubble_margin = opts.margin;
        if opts.zero_bubble {
            cfg.llm_schedule = LlmScheduleKind::ZeroBubble;
        }
        let n_mb = w
            .microbatches(plan.dp)
            .ok_or_else(|| format!("batch {} not divisible by dp {}", w.global_batch, plan.dp))?;
        cfg.mb_scales = match opts.data.as_str() {
            "uniform" => None,
            "llava" => Some(
                TraceConfig::llava_style()
                    .microbatch_scales(n_mb, w.microbatch_size, 17)
                    .map_err(|e| e.to_string())?,
            ),
            "web" => Some(
                TraceConfig::web_interleaved()
                    .microbatch_scales(n_mb, w.microbatch_size, 17)
                    .map_err(|e| e.to_string())?,
            ),
            other => return Err(format!("unknown --data '{other}'")),
        };
        let o = run_optimus(&w, &cfg, &ctx).map_err(|e| e.to_string())?;
        report_row(&mut t, &o.report);
        if let Some(path) = &opts.save_schedule {
            let saved = optimus::core::SavedSchedule::capture(&o, &w);
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            saved.save(file).map_err(|e| e.to_string())?;
            println!("schedule saved to {path}");
        }
        println!("{}", t.render());
        println!(
            "Optimus: encoder plan {} | partition {:?} | Eff coarse {:.1}% fine {:.1}% | relocated {}F/{}B",
            o.enc_plan,
            o.outcome.partition,
            o.eff_coarse * 100.0,
            o.eff_fine * 100.0,
            o.outcome.relocated.0,
            o.outcome.relocated.1
        );
    } else {
        println!("{}", t.render());
    }
    if let Some((table, bar)) = timeline {
        println!("\n{table}");
        println!("{bar}");
    }
    Ok(())
}

fn cmd_plans(opts: &Opts) -> Result<(), String> {
    let (w, plan) = resolve(opts)?;
    let ctx = SystemContext::hopper(w.num_gpus).map_err(|e| e.to_string())?;
    let out = plan_model(&w, &plan, ctx.topo.gpu.hbm_capacity).map_err(|e| e.to_string())?;
    println!(
        "LLM plan {plan}: {} feasible encoder plan(s), {} pruned by memory\n",
        out.candidates.len(),
        out.pruned
    );
    let mut t = TextTable::new(vec![
        "encoder plan",
        "pipelines/llm-pipeline",
        "memory (GiB)",
    ]);
    for c in &out.candidates {
        t.row(vec![
            c.plan.to_string(),
            c.layout.pipelines_per_llm_pipeline().to_string(),
            format!("{:.1}", c.memory_bytes as f64 / (1u64 << 30) as f64),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn cmd_schedule(opts: &Opts) -> Result<(), String> {
    let Some(path) = &opts.load_schedule else {
        return Err("schedule needs --load-schedule <path>".into());
    };
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let saved = optimus::core::SavedSchedule::load(file).map_err(|e| e.to_string())?;
    let (w, plan) = resolve(opts)?;
    match saved.validate_for(&w, &plan) {
        Ok(()) => println!("schedule valid for {} on {} GPUs", w.mllm.name, w.num_gpus),
        Err(e) => println!("schedule NOT applicable: {e}"),
    }
    println!(
        "model {} | {} GPUs | batch {} | LLM plan {} | encoder plan {}\n\
         latency {:.4}s (prefix {:.2}ms, suffix {:.2}ms) | efficiency {:.1}% | partition {:?}\n\
         {} fine-grained placements, {} coarse blocks",
        saved.model,
        saved.num_gpus,
        saved.global_batch,
        saved.llm_plan().map_err(|e| e.to_string())?,
        saved.enc_plan().map_err(|e| e.to_string())?,
        saved.latency_ns as f64 / 1e9,
        saved.prefix_ns as f64 / 1e6,
        saved.suffix_ns as f64 / 1e6,
        saved.efficiency * 100.0,
        saved.partition,
        saved.to_outcome().placements.len(),
        saved.to_outcome().blocks.len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    let result = match cmd {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "schedule" => match parse_opts(&rest) {
            Ok(opts) => cmd_schedule(&opts),
            Err(e) => Err(e),
        },
        "simulate" | "plans" => match parse_opts(&rest) {
            Ok(opts) => match cmd {
                "simulate" => cmd_simulate(&opts),
                _ => cmd_plans(&opts),
            },
            Err(e) => Err(e),
        },
        other => Err(format!("unknown command '{other}' (see `optimus help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_and_values() {
        let o = parse_opts(&args(
            "--model d --gpus 512 --batch 256 --dp 8 --pp 8 --tp 8 --vpp 12 --frozen",
        ))
        .unwrap();
        assert_eq!(o.model, "d");
        assert_eq!(o.gpus, Some(512));
        assert_eq!(o.vpp, 12);
        assert!(o.frozen);
        assert!(!o.zero_bubble);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_opts(&args("--gpus many")).is_err());
        assert!(parse_opts(&args("--gpus")).is_err());
        assert!(parse_opts(&args("positional")).is_err());
        for bad in ["x", "NaN", "inf", "-inf", "5", "-0.1", "0.91"] {
            let err = parse_opts(&args(&format!("--margin {bad}"))).unwrap_err();
            assert!(err.contains("0.0-0.9"), "{bad}: {err}");
        }
        for good in ["0", "0.15", "0.9"] {
            let o = parse_opts(&args(&format!("--margin {good}"))).unwrap();
            assert_eq!(o.margin, good.parse::<f64>().unwrap());
        }
    }

    #[test]
    fn resolve_applies_model_defaults() {
        let o = parse_opts(&args("--model b")).unwrap();
        let (w, plan) = resolve(&o).unwrap();
        assert_eq!(w.num_gpus, 128);
        assert_eq!(plan.to_string(), "(DP=4, PP=4, TP=8, V=6)");
    }

    #[test]
    fn resolve_checks_gpu_consistency() {
        let o = parse_opts(&args("--model b --gpus 64")).unwrap();
        assert!(resolve(&o).is_err());
    }

    #[test]
    fn zero_bubble_forces_vpp_one() {
        let o = parse_opts(&args("--model small --zero-bubble")).unwrap();
        let (_w, plan) = resolve(&o).unwrap();
        assert_eq!(plan.vpp, 1);
    }
}
