//! Bubble anatomy: simulate a Megatron-LM MLLM step, classify every bubble
//! (Table 1 / Fig. 2), render an ASCII timeline, and export a Chrome trace
//! for Perfetto.
//!
//! Run with: `cargo run --release --example bubble_anatomy`

use std::fs::File;

use optimus_baselines::{common::SystemContext, megatron_lm};
use optimus_modeling::{MllmConfig, Workload};
use optimus_sim::BubbleBreakdown;
use optimus_trace::{bubble_table, render_timeline, write_chrome_trace};

fn main() {
    // ViT-22B + GPT-175B at a reduced 512-GPU scale (Model D weak-scaling
    // point) so the example runs in seconds.
    let workload = Workload::new(MllmConfig::model_d(), 512, 256, 1);
    let ctx = SystemContext::hopper(workload.num_gpus).expect("cluster setup");
    let run = megatron_lm(&workload, (8, 8, 8), &ctx).expect("megatron run");

    let breakdown = BubbleBreakdown::measure(&run.lowered.graph, &run.result);
    println!("{}", bubble_table(&breakdown));
    println!("{}", render_timeline(&run.lowered.graph, &run.result, 100));

    let path = std::env::temp_dir().join("optimus_bubble_anatomy.json");
    let file = File::create(&path).expect("create trace file");
    write_chrome_trace(&run.lowered.graph, &run.result, &[], &[], &[], file).expect("write trace");
    println!(
        "chrome trace written to {} — open it in Perfetto / chrome://tracing",
        path.display()
    );
}
