//! Figure 3: zoom-in on TP bubbles during two GPT-175B layer forwards.
//!
//! Paper observation: the compute stream idles during the per-layer
//! all-gather / reduce-scatter kernels; TP bubbles average ≈300 µs.

use optimus_cluster::{ClusterTopology, ProcessGroup};
use optimus_modeling::{layer_kernels, KernelTimer, Pass, TransformerConfig};
use optimus_trace::TextTable;

/// Runs the Fig. 3 reproduction; returns (report, mean TP-bubble µs).
pub fn run() -> (String, f64) {
    let topo = ClusterTopology::hopper_cluster(8).expect("cluster");
    let timer = KernelTimer::new(topo, ProcessGroup::contiguous(0, 8).unwrap());
    let cfg = TransformerConfig::gpt_175b();
    let kernels = layer_kernels(&cfg, 2, 2048, 8, Pass::Forward);

    let mut out = String::from(
        "== Figure 3: kernel timeline of one GPT-175B layer forward (TP=8, microbatch 2) ==\n\n",
    );
    let mut t = TextTable::new(vec!["kernel", "stream", "duration (us)"]);
    let mut tp_total = 0.0;
    let mut tp_count = 0u32;
    for k in &kernels {
        let d = timer.duration(k).as_micros_f64();
        let stream = if k.is_compute() { "compute" } else { "tp-comm" };
        if !k.is_compute() {
            tp_total += d;
            tp_count += 1;
        }
        t.row(vec![
            k.name.to_string(),
            stream.to_string(),
            format!("{d:.1}"),
        ]);
    }
    out.push_str(&t.render());
    let mean = tp_total / f64::from(tp_count.max(1));
    out.push_str(&format!(
        "\nmean TP collective duration: {mean:.0} us (paper: TP bubbles average ≈300 us)\n\
         two layer forwards issue {} TP collectives ({} compute kernels each layer)\n",
        2 * tp_count,
        kernels.iter().filter(|k| k.is_compute()).count(),
    ));
    (out, mean)
}
