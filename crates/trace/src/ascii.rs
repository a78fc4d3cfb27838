//! Terminal timeline rendering: one bar per device compute stream, with
//! busy/bubble segments — a quick textual version of the paper's Fig. 2.

use optimus_sim::{device_bubbles, BubbleKind, SimResult, Stream, TaskGraph};

fn glyph(kind: BubbleKind) -> char {
    match kind {
        BubbleKind::DpAllGather => 'a',
        BubbleKind::DpReduceScatter => 'r',
        BubbleKind::PpWarmup => 'w',
        BubbleKind::PpCooldown => 'c',
        BubbleKind::PpOther => 'p',
        BubbleKind::Tp => 't',
    }
}

/// Renders each device's compute stream as a fixed-width bar: `#` for busy
/// time, letters for classified bubbles (`a`/`r` DP, `w`/`c`/`p` PP, `t` TP).
pub fn render_timeline(graph: &TaskGraph, result: &SimResult, width: usize) -> String {
    let width = width.max(10);
    let makespan = result.makespan().as_secs_f64().max(1e-12);
    let mut out = String::new();
    out.push_str("legend: #=compute a=dp-allgather r=dp-reducescatter w=pp-warmup c=pp-cooldown p=pp-other t=tp\n");
    for d in 0..graph.num_devices() {
        let mut row = vec!['#'; width];
        for b in device_bubbles(graph, result, d) {
            let s = (b.start.as_secs_f64() / makespan * width as f64) as usize;
            let e = ((b.end.as_secs_f64() / makespan * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(e).skip(s.min(width)) {
                *cell = glyph(b.kind);
            }
        }
        // Blank out regions with no compute at all beyond bubbles (idle
        // devices are fully covered by bubbles already).
        if result.busy_time(graph, d, Stream::Compute).is_zero() {
            for c in &mut row {
                if *c == '#' {
                    *c = '.';
                }
            }
        }
        out.push_str(&format!("dev{d:>3} |{}|\n", row.iter().collect::<String>()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_sim::{simulate, TaskGraph, TaskKind};

    #[test]
    fn renders_one_row_per_device() {
        let mut g = TaskGraph::new(3);
        g.push(
            "a",
            0,
            Stream::Compute,
            DurNs(100),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let s = render_timeline(&g, &r, 40);
        assert_eq!(s.lines().count(), 4); // legend + 3 devices
        assert!(s.contains("dev  0 |"));
    }

    #[test]
    fn bubble_glyphs_appear() {
        let mut g = TaskGraph::new(1);
        let c = g.push(
            "tp",
            0,
            Stream::TpComm,
            DurNs(50),
            TaskKind::LlmTpComm,
            vec![],
        );
        g.push(
            "k",
            0,
            Stream::Compute,
            DurNs(50),
            TaskKind::Generic,
            vec![c],
        );
        let r = simulate(&g).unwrap();
        let s = render_timeline(&g, &r, 20);
        // Leading gap (warmup-classified) then compute.
        assert!(s.contains('w') || s.contains('t'), "{s}");
        assert!(s.contains('#'), "{s}");
    }
}
