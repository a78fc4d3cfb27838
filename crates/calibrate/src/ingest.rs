//! Chrome-trace ingestion: parse a trace JSON array back into per-device,
//! per-stream busy timelines.
//!
//! The ingester accepts any trace in the subset of the Chrome-trace format
//! that `optimus_trace::write_chrome_trace` emits — complete
//! (`"ph":"X"`) duration events on stream tracks plus thread-scoped instant
//! (`"ph":"i"`) events on the annotation track — and is the round-trip
//! inverse of that writer: timestamps are µs floats in the file and are
//! recovered to the exact integer nanosecond (for any timeline shorter than
//! ~26 days, `round(ns/1000.0 * 1000.0) == ns` in f64).
//!
//! Malformed input returns a typed [`CalibrateError`] instead of panicking:
//! truncated JSON, non-array roots, missing fields, unknown phases, negative
//! timestamps, and per-track timestamp inversions are all rejected.

use std::collections::BTreeMap;

use optimus_core::{DeviceProfile, Ts};
use optimus_json::Json;
use optimus_sim::{SimResult, Stream, TaskGraph};

use crate::error::{format_err, CalibrateError};

/// One busy span recovered from a trace, in integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestedSpan {
    /// Event name (the task label).
    pub label: String,
    /// Event category (the stream name, e.g. `"compute"`).
    pub cat: String,
    /// Span start in nanoseconds.
    pub start: Ts,
    /// Span end in nanoseconds.
    pub end: Ts,
}

impl IngestedSpan {
    /// Span length.
    pub fn len(&self) -> Ts {
        self.end - self.start
    }

    /// True for zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// One instant annotation recovered from a trace's fault or recovery track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestedAnnotation {
    /// Annotation label.
    pub label: String,
    /// Event category (`"fault"`, `"recovery"`; empty on traces written
    /// before the recovery track existed).
    pub cat: String,
    /// Device the annotation is attached to.
    pub device: u32,
    /// Instant in nanoseconds.
    pub at: Ts,
    /// Detail text from the event's `args`.
    pub detail: String,
}

/// A reconstructed timeline: busy spans per `(device, track)` in track
/// (FIFO issue) order, plus instant annotations.
///
/// Track ids follow the writer's convention: `0..Stream::COUNT` are the
/// stream tracks ([`Stream::index`]), `Stream::COUNT` is the annotation
/// track.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestedTrace {
    /// Busy spans keyed by `(device, tid)`, each list in issue order.
    pub tracks: BTreeMap<(u32, u32), Vec<IngestedSpan>>,
    /// Instant annotations in file order.
    pub annotations: Vec<IngestedAnnotation>,
}

/// Converts a trace timestamp in microseconds to integer nanoseconds.
fn ns(us: f64) -> Ts {
    (us * 1000.0).round() as Ts
}

fn get_f64(ev: &Json, key: &str, index: usize) -> Result<f64, CalibrateError> {
    ev.field(key)
        .and_then(|v| v.as_f64())
        .map_err(|e| CalibrateError::Format {
            context: format!("event {index}: {e}"),
        })
}

fn get_u32(ev: &Json, key: &str, index: usize) -> Result<u32, CalibrateError> {
    ev.field(key)
        .and_then(|v| v.as_u32())
        .map_err(|e| CalibrateError::Format {
            context: format!("event {index}: {e}"),
        })
}

fn get_str(ev: &Json, key: &str, index: usize) -> Result<String, CalibrateError> {
    ev.field(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .map_err(|e| CalibrateError::Format {
            context: format!("event {index}: {e}"),
        })
}

impl IngestedTrace {
    /// Parses a Chrome-trace JSON array (the format written by
    /// `optimus_trace::write_chrome_trace`).
    pub fn parse_chrome(text: &str) -> Result<IngestedTrace, CalibrateError> {
        let root = Json::parse(text)?;
        let events = root.as_arr().map_err(|_| CalibrateError::Format {
            context: "trace root must be a JSON array of events".into(),
        })?;
        let mut trace = IngestedTrace::default();
        for (index, ev) in events.iter().enumerate() {
            let phase = get_str(ev, "ph", index)?;
            match phase.as_str() {
                "X" => {
                    let ts = get_f64(ev, "ts", index)?;
                    let dur = get_f64(ev, "dur", index)?;
                    if ts < 0.0 || dur < 0.0 || !ts.is_finite() || !dur.is_finite() {
                        return format_err(format!(
                            "event {index}: ts/dur must be finite and non-negative \
                             (ts {ts}, dur {dur})"
                        ));
                    }
                    let device = get_u32(ev, "pid", index)?;
                    let tid = get_u32(ev, "tid", index)?;
                    let span = IngestedSpan {
                        label: get_str(ev, "name", index)?,
                        cat: get_str(ev, "cat", index)?,
                        start: ns(ts),
                        end: ns(ts) + ns(dur),
                    };
                    let track = trace.tracks.entry((device, tid)).or_default();
                    if let Some(prev) = track.last() {
                        if span.start < prev.end {
                            return Err(CalibrateError::OutOfOrder {
                                device,
                                tid,
                                index,
                                prev_end_ns: prev.end,
                                start_ns: span.start,
                            });
                        }
                    }
                    track.push(span);
                }
                "i" => {
                    let ts = get_f64(ev, "ts", index)?;
                    if ts < 0.0 || !ts.is_finite() {
                        return format_err(format!(
                            "event {index}: instant ts must be finite and non-negative ({ts})"
                        ));
                    }
                    let detail = ev
                        .get("args")
                        .and_then(|a| a.get("detail"))
                        .and_then(|d| d.as_str().ok())
                        .unwrap_or_default()
                        .to_string();
                    // Lenient: traces written before the recovery track
                    // carried no meaningful instant category.
                    let cat = ev
                        .get("cat")
                        .and_then(|c| c.as_str().ok())
                        .unwrap_or_default()
                        .to_string();
                    trace.annotations.push(IngestedAnnotation {
                        label: get_str(ev, "name", index)?,
                        cat,
                        device: get_u32(ev, "pid", index)?,
                        at: ns(ts),
                        detail,
                    });
                }
                other => {
                    return Err(CalibrateError::UnknownPhase {
                        phase: other.to_string(),
                        index,
                    });
                }
            }
        }
        Ok(trace)
    }

    /// Builds the timeline directly from a simulation — the ground truth the
    /// chrome round-trip is checked against, and the cheap path when the
    /// graph is already in memory (fidelity comparisons).
    pub fn from_simulation(graph: &TaskGraph, result: &SimResult) -> IngestedTrace {
        let dag = graph.dag();
        let mut trace = IngestedTrace::default();
        for device in 0..graph.num_devices() {
            for stream in Stream::ALL {
                let queue = dag.queue(device, stream);
                if queue.is_empty() {
                    continue;
                }
                let tid = stream.index() as u32;
                let spans = queue.iter().map(|&id| {
                    let span = result.span(id);
                    IngestedSpan {
                        label: graph.task(id).label.to_string(),
                        cat: stream_name(tid).to_string(),
                        start: span.start.0 as Ts,
                        end: span.end.0 as Ts,
                    }
                });
                trace.tracks.insert((device, tid), spans.collect());
            }
        }
        trace
    }

    /// Total number of busy spans across all tracks.
    pub fn num_spans(&self) -> usize {
        self.tracks.values().map(Vec::len).sum()
    }

    /// Busy spans of one `(device, tid)` track, if present.
    pub fn track(&self, device: u32, tid: u32) -> &[IngestedSpan] {
        self.tracks
            .get(&(device, tid))
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Devices present in the trace, ascending.
    pub fn devices(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.tracks.keys().map(|&(d, _)| d).collect();
        out.dedup();
        out
    }

    /// End of the last span on any track — the step makespan.
    pub fn makespan(&self) -> Ts {
        self.tracks
            .values()
            .flat_map(|spans| spans.iter().map(|s| s.end))
            .max()
            .unwrap_or(0)
    }

    /// Reconstructs one device's bubble profile from its compute and TP-comm
    /// tracks with the planner's own builder ([`DeviceProfile::from_spans`]),
    /// so the profile equals what `optimus_core` extracts from a simulation.
    pub fn device_profile(&self, device: u32, makespan: Ts) -> DeviceProfile {
        let spans = |stream: Stream| -> Vec<(Ts, Ts)> {
            let mut v: Vec<(Ts, Ts)> = (self.track(device, stream.index() as u32).iter())
                .map(|s| (s.start, s.end))
                .collect();
            v.sort_unstable();
            v
        };
        DeviceProfile::from_spans(&spans(Stream::Compute), &spans(Stream::TpComm), makespan)
    }
}

/// Stream/track display name used in trace categories and fidelity tables:
/// the writer's category of track `tid` ([`optimus_trace::TRACK_CATEGORIES`]),
/// `"other"` past them.
pub fn stream_name(tid: u32) -> &'static str {
    optimus_trace::TRACK_CATEGORIES
        .get(tid as usize)
        .copied()
        .unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_sim::{simulate, TaskKind};

    fn two_device_graph() -> (TaskGraph, SimResult) {
        let mut g = TaskGraph::new(2);
        let a = g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(1_000),
            TaskKind::Generic,
            vec![],
        );
        let b = g.push(
            "recv",
            1,
            Stream::P2p,
            DurNs(500),
            TaskKind::Generic,
            vec![a],
        );
        g.push(
            "bwd",
            1,
            Stream::Compute,
            DurNs(2_000),
            TaskKind::Generic,
            vec![b],
        );
        let r = simulate(&g).unwrap();
        (g, r)
    }

    #[test]
    fn round_trips_own_chrome_output() {
        let (g, r) = two_device_graph();
        let mut buf = Vec::new();
        optimus_trace::write_chrome_trace(&g, &r, &[], &[], &[], &mut buf).unwrap();
        let parsed = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, IngestedTrace::from_simulation(&g, &r));
        assert_eq!(parsed.num_spans(), g.len());
        assert_eq!(parsed.makespan(), r.makespan().0 as Ts);
    }

    #[test]
    fn truncated_json_is_a_typed_error() {
        let (g, r) = two_device_graph();
        let mut buf = Vec::new();
        optimus_trace::write_chrome_trace(&g, &r, &[], &[], &[], &mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        let truncated = &text[..text.len() - 10];
        assert!(matches!(
            IngestedTrace::parse_chrome(truncated),
            Err(CalibrateError::Json(_))
        ));
    }

    #[test]
    fn unknown_phase_is_a_typed_error() {
        let text = r#"[{"name":"x","cat":"compute","ph":"B","ts":0,"pid":0,"tid":0}]"#;
        match IngestedTrace::parse_chrome(text) {
            Err(CalibrateError::UnknownPhase { phase, index }) => {
                assert_eq!(phase, "B");
                assert_eq!(index, 0);
            }
            other => panic!("expected UnknownPhase, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_track_is_a_typed_error() {
        let text = r#"[
            {"name":"a","cat":"compute","ph":"X","ts":5,"dur":2,"pid":0,"tid":0},
            {"name":"b","cat":"compute","ph":"X","ts":1,"dur":1,"pid":0,"tid":0}
        ]"#;
        match IngestedTrace::parse_chrome(text) {
            Err(CalibrateError::OutOfOrder {
                device,
                tid,
                index,
                prev_end_ns,
                start_ns,
            }) => {
                assert_eq!((device, tid, index), (0, 0, 1));
                assert_eq!(prev_end_ns, 7_000);
                assert_eq!(start_ns, 1_000);
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }

    #[test]
    fn different_tracks_may_interleave() {
        // Out-of-order is per-track: a later event on a *different* track may
        // start earlier.
        let text = r#"[
            {"name":"a","cat":"compute","ph":"X","ts":5,"dur":2,"pid":0,"tid":0},
            {"name":"b","cat":"tp_comm","ph":"X","ts":1,"dur":1,"pid":0,"tid":1},
            {"name":"c","cat":"compute","ph":"X","ts":3,"dur":1,"pid":1,"tid":0}
        ]"#;
        let t = IngestedTrace::parse_chrome(text).unwrap();
        assert_eq!(t.num_spans(), 3);
        assert_eq!(t.track(0, 1)[0].start, 1_000);
    }

    #[test]
    fn negative_and_missing_fields_are_format_errors() {
        let neg = r#"[{"name":"a","cat":"c","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]"#;
        assert!(matches!(
            IngestedTrace::parse_chrome(neg),
            Err(CalibrateError::Format { .. })
        ));
        let missing = r#"[{"name":"a","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]"#;
        assert!(matches!(
            IngestedTrace::parse_chrome(missing),
            Err(CalibrateError::Format { .. })
        ));
        let root = r#"{"not":"an array"}"#;
        assert!(matches!(
            IngestedTrace::parse_chrome(root),
            Err(CalibrateError::Format { .. })
        ));
    }

    #[test]
    fn annotations_are_recovered_with_detail() {
        let (g, r) = two_device_graph();
        let ann = [optimus_trace::TraceAnnotation {
            label: "straggler".into(),
            device: 1,
            at_us: 0.75,
            detail: "slowdown 1.5x".into(),
        }];
        let mut buf = Vec::new();
        optimus_trace::write_chrome_trace(&g, &r, &ann, &[], &[], &mut buf).unwrap();
        let t = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(t.annotations.len(), 1);
        let a = &t.annotations[0];
        assert_eq!(a.label, "straggler");
        assert_eq!(a.cat, "fault");
        assert_eq!(a.device, 1);
        assert_eq!(a.at, 750);
        assert_eq!(a.detail, "slowdown 1.5x");
    }

    #[test]
    fn recovery_instants_keep_their_category() {
        let (g, r) = two_device_graph();
        let faults = [optimus_trace::TraceAnnotation {
            label: "fail_stop".into(),
            device: 0,
            at_us: 0.1,
            detail: "restart".into(),
        }];
        let recovery = [optimus_trace::TraceAnnotation {
            label: "rollback".into(),
            device: 0,
            at_us: 0.3,
            detail: "to ckpt 2".into(),
        }];
        let mut buf = Vec::new();
        optimus_trace::write_chrome_trace(&g, &r, &faults, &recovery, &[], &mut buf).unwrap();
        let t = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        let cats: Vec<&str> = t.annotations.iter().map(|a| a.cat.as_str()).collect();
        assert_eq!(cats, vec!["fault", "recovery"]);
        // A category-less instant (pre-recovery trace) still parses.
        let legacy = r#"[{"name":"x","ph":"i","s":"t","ts":1,"pid":0,"tid":5}]"#;
        let t = IngestedTrace::parse_chrome(legacy).unwrap();
        assert_eq!(t.annotations[0].cat, "");
        assert_eq!(stream_name(5), "fault");
        assert_eq!(stream_name(6), "recovery");
    }

    #[test]
    fn zero_duration_spans_survive() {
        let text = r#"[
            {"name":"a","cat":"compute","ph":"X","ts":1,"dur":0,"pid":0,"tid":0},
            {"name":"b","cat":"compute","ph":"X","ts":1,"dur":2,"pid":0,"tid":0}
        ]"#;
        let t = IngestedTrace::parse_chrome(text).unwrap();
        assert_eq!(t.num_spans(), 2);
        assert!(t.track(0, 0)[0].is_empty());
        assert_eq!(t.track(0, 0)[1].len(), 2_000);
    }
}
