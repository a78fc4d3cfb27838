//! `--repro <config>`: plans one configuration that `verify` is known to
//! reject with `adjust_dep_points = false`, and prints the verdict. These
//! configurations are kept out of `resim-robust` until the splice is fixed
//! (NOTES.md, "Known failure").

use std::process::ExitCode;

use optimus_baselines::common::SystemContext;
use optimus_core::{run_optimus, verify, OptimusConfig};
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;

/// `(name, weak scaling?, index into that list)`.
const CONFIGS: [(&str, bool, usize); 3] = [
    ("weak-c-256", true, 2),
    ("strong-d-1536", false, 0),
    ("strong-d-2048", false, 1),
];

pub fn run(which: Option<&str>) -> ExitCode {
    let Some(&(name, weak, idx)) = CONFIGS.iter().find(|c| Some(c.0) == which) else {
        let names: Vec<&str> = CONFIGS.iter().map(|c| c.0).collect();
        eprintln!("usage: --repro <{}>", names.join("|"));
        return ExitCode::from(2);
    };
    let list = if weak {
        Workload::weak_scaling()
    } else {
        Workload::strong_scaling()
    };
    let (w, (dp, pp, tp), vpp) = list[idx].clone();
    let ctx = SystemContext::hopper(w.num_gpus).expect("cluster");
    let mut cfg = OptimusConfig::new(ParallelPlan::with_vpp(dp, pp, tp, vpp).expect("LLM plan"));
    cfg.adjust_dep_points = false;
    let run = match run_optimus(&w, &cfg, &ctx) {
        Ok(r) => r,
        Err(e) => {
            println!("{name}: planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match verify(&run, &w, &ctx, 0.10) {
        Ok(rep) => {
            println!(
                "{name}: verify passed (rel error {:.4}); the known failure no longer reproduces",
                rep.rel_error
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{name}: verify rejected the chosen schedule: {e}");
            ExitCode::FAILURE
        }
    }
}
