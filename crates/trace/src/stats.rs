//! Tabular reporting helpers used by the benchmark harness, plus the shared
//! quantile function every percentile report in the workspace goes through.

use std::time::Duration;

use optimus_parallel::WorkerLoad;
use optimus_sim::{BubbleBreakdown, BubbleKind};

use crate::chrome::TraceAnnotation;

/// Nearest-rank quantile of an **ascending-sorted** slice.
///
/// `q` is clamped to `[0, 1]`; `q = 0.5` is the median, `q = 0.95` the p95.
/// Returns `NaN` on an empty slice. This is the one quantile definition the
/// workspace uses (robustness reports, bench medians) so percentiles are
/// comparable across reports.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Renders fault/annotation events as a table (the textual companion of the
/// chrome-trace fault track).
pub fn fault_table(annotations: &[TraceAnnotation]) -> String {
    let mut t = TextTable::new(vec!["Event", "Device", "At (us)", "Detail"]);
    for a in annotations {
        t.row(vec![
            a.label.clone(),
            a.device.to_string(),
            format!("{:.1}", a.at_us),
            a.detail.clone(),
        ]);
    }
    t.render()
}

/// Renders fault *and* recovery-lifecycle events as one merged table, sorted
/// by time, with a Track column distinguishing the chrome-trace track each
/// event lands on (`fault` vs `recovery`).
pub fn fault_table_with_recovery(
    faults: &[TraceAnnotation],
    recovery: &[TraceAnnotation],
) -> String {
    let mut rows: Vec<(&'static str, &TraceAnnotation)> = faults
        .iter()
        .map(|a| ("fault", a))
        .chain(recovery.iter().map(|a| ("recovery", a)))
        .collect();
    rows.sort_by(|(_, a), (_, b)| a.at_us.total_cmp(&b.at_us));
    let mut t = TextTable::new(vec!["Track", "Event", "Device", "At (us)", "Detail"]);
    for (track, a) in rows {
        t.row(vec![
            track.to_string(),
            a.label.clone(),
            a.device.to_string(),
            format!("{:.1}", a.at_us),
            a.detail.clone(),
        ]);
    }
    t.render()
}

/// Renders a static-analysis report as a table: one row per diagnostic
/// with its code, severity, message, and first witness. `"lint: clean"`
/// when the report is empty.
pub fn lint_table(report: &optimus_lint::LintReport) -> String {
    if report.is_clean() {
        return "lint: clean".into();
    }
    let mut t = TextTable::new(vec!["Code", "Severity", "Message", "Witness"]);
    for d in &report.diagnostics {
        t.row(vec![
            d.code.code().to_string(),
            d.severity.label().to_string(),
            d.message.clone(),
            d.witness
                .first()
                .map(|w| w.detail.clone())
                .unwrap_or_default(),
        ]);
    }
    t.render()
}

/// Renders a [`BubbleBreakdown`] in the layout of the paper's Table 1.
pub fn bubble_table(bd: &BubbleBreakdown) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>14}\n",
        "Bubble types", "Percentage", "Total time (s)"
    ));
    for kind in BubbleKind::ALL {
        out.push_str(&format!(
            "{:<28} {:>9.1}% {:>14.3}\n",
            kind.label(),
            bd.fraction(kind) * 100.0,
            bd.time(kind).as_secs_f64()
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>9.1}% {:>14.3}\n",
        "total",
        bd.total_fraction() * 100.0,
        bd.step_time.as_secs_f64() * bd.total_fraction()
    ));
    out.push_str(&format!(
        "step time: {:.3}s over {} devices\n",
        bd.step_time.as_secs_f64(),
        bd.num_devices
    ));
    out
}

/// Renders a planner-search timing report: one row per pool worker plus a
/// throughput/utilisation summary line.
pub fn planner_search_table(
    candidates: usize,
    wall: Duration,
    per_worker: &[WorkerLoad],
) -> String {
    let wall_us = wall.as_secs_f64() * 1e6;
    let mut t = TextTable::new(vec!["Worker", "Items", "Busy (ms)", "Util"]);
    for w in per_worker {
        let busy_us = w.busy.as_secs_f64() * 1e6;
        t.row(vec![
            w.worker.to_string(),
            w.items.to_string(),
            format!("{:.2}", busy_us / 1e3),
            if wall_us > 0.0 {
                format!("{:.0}%", 100.0 * busy_us / wall_us)
            } else {
                "-".to_string()
            },
        ]);
    }
    let mut out = t.render();
    let throughput = if wall_us > 0.0 {
        candidates as f64 / (wall_us / 1e6)
    } else {
        0.0
    };
    out.push_str(&format!(
        "{} candidates in {:.2} ms over {} workers ({:.1} candidates/s)\n",
        candidates,
        wall_us / 1e3,
        per_worker.len(),
        throughput
    ));
    out
}

/// A minimal fixed-width table builder for experiment output.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut TextTable {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        // (5-1)*0.95 = 3.8 → rounds to index 4.
        assert_eq!(quantile(&v, 0.95), 5.0);
        // (5-1)*0.6 = 2.4 → rounds to index 2.
        assert_eq!(quantile(&v, 0.6), 3.0);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
        assert!(quantile(&[], 0.5).is_nan());
        // Out-of-range q clamps instead of panicking.
        assert_eq!(quantile(&v, 2.0), 5.0);
        assert_eq!(quantile(&v, -1.0), 1.0);
    }

    #[test]
    fn fault_table_lists_events() {
        let ann = [
            TraceAnnotation {
                label: "straggler_device".into(),
                device: 3,
                at_us: 0.0,
                detail: "slowdown 2.00x".into(),
            },
            TraceAnnotation {
                label: "fail_stop".into(),
                device: 1,
                at_us: 1234.5,
                detail: "restart 5.000ms".into(),
            },
        ];
        let s = fault_table(&ann);
        assert!(s.contains("straggler_device"));
        assert!(s.contains("1234.5"));
        assert!(s.contains("restart 5.000ms"));
    }

    #[test]
    fn merged_recovery_table_sorts_by_time_with_track_column() {
        let faults = [TraceAnnotation {
            label: "fail_stop".into(),
            device: 1,
            at_us: 100.0,
            detail: "restart 5ms".into(),
        }];
        let recovery = [
            TraceAnnotation {
                label: "replay_done".into(),
                device: 1,
                at_us: 300.0,
                detail: "4 microbatches".into(),
            },
            TraceAnnotation {
                label: "detection".into(),
                device: 1,
                at_us: 150.0,
                detail: "heartbeat".into(),
            },
        ];
        let s = fault_table_with_recovery(&faults, &recovery);
        assert!(s.contains("Track"), "{s}");
        let fault_line = s.lines().position(|l| l.contains("fail_stop")).unwrap();
        let det_line = s.lines().position(|l| l.contains("detection")).unwrap();
        let replay_line = s.lines().position(|l| l.contains("replay_done")).unwrap();
        assert!(fault_line < det_line && det_line < replay_line, "{s}");
        assert!(s
            .lines()
            .nth(det_line)
            .unwrap()
            .trim_start()
            .starts_with("recovery"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Method", "Time (s)"]);
        t.row(vec!["Megatron-LM", "3.42"]);
        t.row(vec!["Optimus", "2.78"]);
        let s = t.render();
        assert!(s.contains("Megatron-LM  3.42"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn lint_table_renders_report() {
        use optimus_lint::{DiagCode, Diagnostic, LintReport, Witness};
        assert_eq!(lint_table(&LintReport::default()), "lint: clean");
        let report = LintReport {
            diagnostics: vec![Diagnostic::new(
                DiagCode::StreamFifoInversion,
                "queue order contradicts dependency order",
                vec![Witness::note("task 3 waits for task 5 behind it")],
            )],
        };
        let s = lint_table(&report);
        assert!(s.contains("OPT002"), "{s}");
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("task 3 waits"), "{s}");
    }

    #[test]
    fn search_table_reports_throughput() {
        let timings = [
            WorkerLoad {
                worker: 0,
                items: 3,
                busy: Duration::from_micros(900),
            },
            WorkerLoad {
                worker: 1,
                items: 2,
                busy: Duration::from_micros(850),
            },
        ];
        let s = planner_search_table(5, Duration::from_micros(1000), &timings);
        assert!(s.contains("5 candidates in 1.00 ms over 2 workers"));
        assert!(s.contains("5000.0 candidates/s"));
        assert!(s.contains("90%"));
    }

    #[test]
    fn search_table_handles_zero_wall() {
        let s = planner_search_table(0, Duration::ZERO, &[]);
        assert!(s.contains("0 candidates"));
        assert!(s.contains("0.0 candidates/s"));
    }
}
