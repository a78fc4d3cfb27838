//! Observability for simulated training steps: Chrome-trace export (Perfetto
//! / `chrome://tracing` visualisation of the Fig. 2 / Fig. 3 views), ASCII
//! timelines, and the Table 1 bubble-breakdown formatter.
//!
//! # Examples
//!
//! ```
//! use optimus_cluster::DurNs;
//! use optimus_sim::{simulate, Stream, TaskGraph, TaskKind};
//! use optimus_trace::render_timeline;
//!
//! let mut g = TaskGraph::new(1);
//! g.push("k", 0, Stream::Compute, DurNs(100), TaskKind::Generic, vec![]);
//! let r = simulate(&g).unwrap();
//! let bar = render_timeline(&g, &r, 40);
//! assert!(bar.contains("dev  0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod chrome;
pub mod compact;
pub mod stats;

pub use ascii::render_timeline;
pub use chrome::{
    write_chrome_trace, write_fault_event_trace, FillTraceSpan, TraceAnnotation, FILL_TID,
    RECOVERY_TID, TRACK_CATEGORIES,
};
pub use compact::compact_timeline;
pub use stats::{
    bubble_table, fault_table, fault_table_with_recovery, lint_table, planner_search_table,
    quantile, TextTable,
};
