//! Chrome-trace (about://tracing, Perfetto) export of simulation timelines.
//!
//! Events are written straight into one pre-sized buffer with
//! `optimus-json`'s own string and number formatters, so the bytes are those
//! of the equivalent `Json` tree's `to_compact`, and task labels and
//! annotation text containing quotes, backslashes or control characters are
//! escaped rather than corrupting the trace.

use std::fmt::Write as _;
use std::io::Write;

use optimus_json::{write_num, write_str};
use optimus_sim::{SimResult, Stream, TaskGraph};

/// A point event overlaid on the timeline — fault occurrences, drift alarms,
/// re-plan decisions. Rendered as a Chrome-trace *instant* event on a
/// dedicated track above the five stream tracks of the device.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnnotation {
    /// Event label (e.g. a fault scenario name).
    pub label: String,
    /// Device the event is attached to.
    pub device: u32,
    /// Instant in microseconds on the simulation clock.
    pub at_us: f64,
    /// Free-form detail shown in the event's args.
    pub detail: String,
}

/// Track id for annotation events: one past the per-stream tracks.
const ANNOTATION_TID: u32 = Stream::COUNT as u32;

/// Track id for recovery-lifecycle events (detection, rollback, replay-done,
/// checkpoint-durable): one past the fault track.
pub const RECOVERY_TID: u32 = Stream::COUNT as u32 + 1;

/// Track id for bubble-fill busy spans (fill-job loads, compute chunks and
/// evictions placed in proven-idle bubbles): one past the recovery track.
pub const FILL_TID: u32 = Stream::COUNT as u32 + 2;

/// A busy span on the dedicated fill track — a fill-job load, compute chunk
/// or eviction the bubble-fill planner placed inside a proven-idle bubble.
/// Rendered as a Chrome-trace *duration* event (`"ph":"X"`, category `fill`)
/// on track [`FILL_TID`] of its device, above the recovery track.
#[derive(Debug, Clone, PartialEq)]
pub struct FillTraceSpan {
    /// Span label (e.g. `"fill eval-suite chunk3"`).
    pub label: String,
    /// Device the span occupies.
    pub device: u32,
    /// Start in microseconds on the simulation clock.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Chrome-trace category of each track, indexed by tid: the per-stream
/// tracks in [`Stream::index`] order, then the fault, recovery and fill
/// tracks.
pub const TRACK_CATEGORIES: [&str; Stream::COUNT + 3] = [
    "compute", "tp_comm", "p2p", "dp_comm", "enc_p2p", "fault", "recovery", "fill",
];

/// A Chrome-trace JSON array under construction.
struct Events(String);

impl Events {
    /// Room for `n` events of typical size, so writing rarely reallocates.
    fn with_capacity(n: usize) -> Events {
        let mut out = String::with_capacity(2 + n * 112);
        out.push('[');
        Events(out)
    }

    /// Opens an event object: its name, its track's category and phase.
    fn open(&mut self, name: &str, tid: u32, ph: &str) -> &mut String {
        let out = &mut self.0;
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(out, name);
        out.push_str(",\"cat\":");
        write_str(out, TRACK_CATEGORIES[tid as usize]);
        out.push_str(",\"ph\":");
        write_str(out, ph);
        out
    }

    /// A complete (`"ph":"X"`) duration event.
    fn span(&mut self, name: &str, pid: u32, tid: u32, ts_us: f64, dur_us: f64) {
        let out = self.open(name, tid, "X");
        out.push_str(",\"ts\":");
        write_num(out, ts_us);
        out.push_str(",\"dur\":");
        write_num(out, dur_us);
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}}}");
    }

    /// Thread-scoped instant events (`"ph":"i"`, rendered as a marker on
    /// their track) with the detail text in `args`.
    fn instants(&mut self, tid: u32, anns: &[TraceAnnotation]) {
        for a in anns {
            let out = self.open(&a.label, tid, "i");
            out.push_str(",\"s\":\"t\",\"ts\":");
            write_num(out, a.at_us);
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{tid},\"args\":{{\"detail\":",
                a.device
            );
            write_str(out, &a.detail);
            out.push_str("}}");
        }
    }

    fn finish<W: Write>(mut self, mut out: W) -> std::io::Result<()> {
        self.0.push(']');
        out.write_all(self.0.as_bytes())
    }
}

/// Serialises a simulated task graph as a Chrome-trace JSON array, with
/// three optional overlay tracks per device (pass empty slices for none).
///
/// `pid` is the simulated device, `tid` the stream. Load the output in
/// Perfetto or `chrome://tracing` to inspect bubbles visually (the Fig. 2 /
/// Fig. 3 views). Above the stream tracks:
/// - each of `faults` is an instant event (category `fault`) on track
///   `Stream::COUNT`;
/// - each of `recovery` (detection, rollback, replay-done,
///   checkpoint-durable) is an instant event (category `recovery`) on track
///   [`RECOVERY_TID`];
/// - each [`FillTraceSpan`] is a duration event (category `fill`) on track
///   [`FILL_TID`]. Fill spans are emitted per device in ascending start
///   order regardless of input order, so the output stays ingestible by
///   `optimus-calibrate` (which rejects out-of-order tracks).
pub fn write_chrome_trace<W: Write>(
    graph: &TaskGraph,
    result: &SimResult,
    faults: &[TraceAnnotation],
    recovery: &[TraceAnnotation],
    fill: &[FillTraceSpan],
    out: W,
) -> std::io::Result<()> {
    let mut events =
        Events::with_capacity(graph.len() + faults.len() + recovery.len() + fill.len());
    for t in graph.tasks() {
        let span = result.span(t.id);
        events.span(
            t.label,
            t.device,
            t.stream.index() as u32,
            span.start.as_micros_f64(),
            span.duration().as_micros_f64(),
        );
    }
    events.instants(ANNOTATION_TID, faults);
    events.instants(RECOVERY_TID, recovery);
    let mut ordered: Vec<&FillTraceSpan> = fill.iter().collect();
    ordered.sort_by(|a, b| {
        a.device
            .cmp(&b.device)
            .then(a.start_us.total_cmp(&b.start_us))
    });
    for s in ordered {
        events.span(&s.label, s.device, FILL_TID, s.start_us, s.dur_us);
    }
    events.finish(out)
}

/// Serialises a *fault-event trace*: instant events only, no task graph.
///
/// Fleet-scale failure streams span hours to months — far beyond any single
/// step's task timeline — so this writer emits just the fault track
/// (category `fault`, track `Stream::COUNT`) and optionally the recovery
/// track ([`RECOVERY_TID`], category `recovery`). The output is the same
/// Chrome-trace subset [`write_chrome_trace`] produces, so
/// `optimus-calibrate` ingests it unchanged — that round trip is how MTBF
/// fits are tested against planted truth rates.
pub fn write_fault_event_trace<W: Write>(
    faults: &[TraceAnnotation],
    recovery: &[TraceAnnotation],
    out: W,
) -> std::io::Result<()> {
    let mut events = Events::with_capacity(faults.len() + recovery.len());
    events.instants(ANNOTATION_TID, faults);
    events.instants(RECOVERY_TID, recovery);
    events.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_cluster::DurNs;
    use optimus_json::Json;
    use optimus_sim::{simulate, TaskKind};

    /// The writers' output as a `Json` tree rendered by `to_compact`: the
    /// construction the direct writers replaced, kept as their reference.
    fn tree_trace(
        graph: Option<(&TaskGraph, &SimResult)>,
        faults: &[TraceAnnotation],
        recovery: &[TraceAnnotation],
        fill: &[FillTraceSpan],
    ) -> String {
        let mut events = Vec::new();
        if let Some((g, r)) = graph {
            for t in g.tasks() {
                let span = r.span(t.id);
                let tid = t.stream.index();
                events.push(Json::obj(vec![
                    ("name", Json::from(t.label)),
                    ("cat", Json::from(TRACK_CATEGORIES[tid])),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(span.start.as_micros_f64())),
                    ("dur", Json::from(span.duration().as_micros_f64())),
                    ("pid", Json::from(t.device)),
                    ("tid", Json::from(tid as u32)),
                ]));
            }
        }
        for (tid, anns) in [(ANNOTATION_TID, faults), (RECOVERY_TID, recovery)] {
            for a in anns {
                events.push(Json::obj(vec![
                    ("name", Json::from(a.label.clone())),
                    ("cat", Json::from(TRACK_CATEGORIES[tid as usize])),
                    ("ph", Json::from("i")),
                    ("s", Json::from("t")),
                    ("ts", Json::from(a.at_us)),
                    ("pid", Json::from(a.device)),
                    ("tid", Json::from(tid)),
                    (
                        "args",
                        Json::obj(vec![("detail", Json::from(a.detail.clone()))]),
                    ),
                ]));
            }
        }
        let mut ordered: Vec<&FillTraceSpan> = fill.iter().collect();
        ordered.sort_by(|a, b| {
            a.device
                .cmp(&b.device)
                .then(a.start_us.total_cmp(&b.start_us))
        });
        for s in ordered {
            events.push(Json::obj(vec![
                ("name", Json::from(s.label.clone())),
                ("cat", Json::from(TRACK_CATEGORIES[FILL_TID as usize])),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_us)),
                ("dur", Json::from(s.dur_us)),
                ("pid", Json::from(s.device)),
                ("tid", Json::from(FILL_TID)),
            ]));
        }
        Json::Arr(events).to_compact()
    }

    #[test]
    fn direct_writers_match_the_json_tree_byte_for_byte() {
        let mut g = TaskGraph::new(3);
        let mut prev = vec![];
        for (i, label) in ["fwd \"q\" \\ é\u{1}", "b", "recv\t"].iter().enumerate() {
            let stream = [Stream::Compute, Stream::TpComm, Stream::P2p][i];
            let t = g.push(
                label,
                i as u32,
                stream,
                DurNs(1_234 * i as u64 + 7),
                TaskKind::Generic,
                prev,
            );
            prev = vec![t];
        }
        g.push("z", 2, Stream::DpComm, DurNs(0), TaskKind::Generic, vec![]);
        let r = simulate(&g).unwrap();
        let ann = |label: &str, device: u32, at_us: f64, detail: &str| TraceAnnotation {
            label: label.into(),
            device,
            at_us,
            detail: detail.into(),
        };
        let faults = [
            ann("fail\"stop", 0, 0.1, "path\\with\nnewline\u{1f}"),
            ann("gpu", 7, 3.6e12, "month-long"),
            ann("host", 2, 1e16, ""),
            ann("neg", 1, -2.5, "ü€𝄞"),
        ];
        let recovery = [ann("rollback", 0, 0.4, "to ckpt 3"), ann("", 1, 0.0, "x")];
        let fill = [
            FillTraceSpan {
                label: "fill eval chunk1".into(),
                device: 1,
                start_us: 0.6,
                dur_us: 0.2,
            },
            FillTraceSpan {
                label: "fill \"load\"".into(),
                device: 0,
                start_us: 1.0 / 3.0,
                dur_us: 12345.0,
            },
        ];
        for (f, rc, fl) in [
            (&[][..], &[][..], &[][..]),
            (&faults[..], &[][..], &[][..]),
            (&faults[..], &recovery[..], &fill[..]),
        ] {
            let mut buf = Vec::new();
            write_chrome_trace(&g, &r, f, rc, fl, &mut buf).unwrap();
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                tree_trace(Some((&g, &r)), f, rc, fl)
            );
            let mut buf = Vec::new();
            write_fault_event_trace(f, rc, &mut buf).unwrap();
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                tree_trace(None, f, rc, &[])
            );
        }
    }

    #[test]
    fn trace_is_valid_json_with_all_tasks() {
        let mut g = TaskGraph::new(2);
        let a = g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(1000),
            TaskKind::Generic,
            vec![],
        );
        g.push(
            "recv",
            1,
            Stream::P2p,
            DurNs(500),
            TaskKind::Generic,
            vec![a],
        );
        let r = simulate(&g).unwrap();
        let mut buf = Vec::new();
        write_chrome_trace(&g, &r, &[], &[], &[], &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].field("name").unwrap().as_str().unwrap(), "fwd");
        // The recv starts at 1 µs, after the 1000 ns fwd.
        assert_eq!(arr[1].field("ts").unwrap().as_f64().unwrap(), 1.0);
    }

    #[test]
    fn annotations_land_on_the_fault_track() {
        let mut g = TaskGraph::new(1);
        g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(1000),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let ann = [TraceAnnotation {
            label: "straggler_device".into(),
            device: 0,
            at_us: 0.5,
            detail: "slowdown 1.50x".into(),
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&g, &r, &ann, &[], &[], &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        let ev = &arr[1];
        assert_eq!(ev.field("ph").unwrap().as_str().unwrap(), "i");
        assert_eq!(ev.field("cat").unwrap().as_str().unwrap(), "fault");
        assert_eq!(
            ev.field("tid").unwrap().as_f64().unwrap(),
            Stream::COUNT as f64
        );
        assert_eq!(
            ev.field("args")
                .unwrap()
                .field("detail")
                .unwrap()
                .as_str()
                .unwrap(),
            "slowdown 1.50x"
        );
    }

    #[test]
    fn recovery_events_land_on_their_own_track() {
        let mut g = TaskGraph::new(1);
        g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(1000),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let faults = [TraceAnnotation {
            label: "fail_stop".into(),
            device: 0,
            at_us: 0.2,
            detail: "restart 5ms".into(),
        }];
        let recovery = [TraceAnnotation {
            label: "rollback".into(),
            device: 0,
            at_us: 0.4,
            detail: "to ckpt 3".into(),
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&g, &r, &faults, &recovery, &[], &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        let fault = &arr[1];
        assert_eq!(fault.field("cat").unwrap().as_str().unwrap(), "fault");
        assert_eq!(
            fault.field("tid").unwrap().as_f64().unwrap(),
            Stream::COUNT as f64
        );
        let rec = &arr[2];
        assert_eq!(rec.field("cat").unwrap().as_str().unwrap(), "recovery");
        assert_eq!(
            rec.field("tid").unwrap().as_f64().unwrap(),
            RECOVERY_TID as f64
        );
        assert_eq!(rec.field("name").unwrap().as_str().unwrap(), "rollback");
    }

    #[test]
    fn fill_spans_land_on_their_own_track_in_start_order() {
        let mut g = TaskGraph::new(1);
        g.push(
            "fwd",
            0,
            Stream::Compute,
            DurNs(1000),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        // Deliberately out of order: the writer must sort per device.
        let fill = [
            FillTraceSpan {
                label: "fill eval chunk1".into(),
                device: 0,
                start_us: 0.6,
                dur_us: 0.2,
            },
            FillTraceSpan {
                label: "fill eval load".into(),
                device: 0,
                start_us: 0.1,
                dur_us: 0.3,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&g, &r, &[], &[], &fill, &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        let first = &arr[1];
        assert_eq!(first.field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(first.field("cat").unwrap().as_str().unwrap(), "fill");
        assert_eq!(
            first.field("tid").unwrap().as_f64().unwrap(),
            FILL_TID as f64
        );
        assert_eq!(
            first.field("name").unwrap().as_str().unwrap(),
            "fill eval load"
        );
        assert_eq!(first.field("ts").unwrap().as_f64().unwrap(), 0.1);
        assert_eq!(
            arr[2].field("name").unwrap().as_str().unwrap(),
            "fill eval chunk1"
        );
    }

    #[test]
    fn fault_event_trace_is_graphless_instants() {
        let faults = [
            TraceAnnotation {
                label: "gpu".into(),
                device: 3,
                at_us: 120.0,
                detail: "transient restart".into(),
            },
            TraceAnnotation {
                label: "host".into(),
                device: 7,
                at_us: 950.5,
                detail: "permanent repair".into(),
            },
        ];
        let recovery = [TraceAnnotation {
            label: "rollback".into(),
            device: 3,
            at_us: 130.0,
            detail: "to ckpt 1".into(),
        }];
        let mut buf = Vec::new();
        write_fault_event_trace(&faults, &recovery, &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr
            .iter()
            .all(|ev| ev.field("ph").unwrap().as_str().unwrap() == "i"));
        assert_eq!(arr[0].field("cat").unwrap().as_str().unwrap(), "fault");
        assert_eq!(arr[0].field("name").unwrap().as_str().unwrap(), "gpu");
        assert_eq!(arr[2].field("cat").unwrap().as_str().unwrap(), "recovery");
        assert_eq!(
            arr[2].field("tid").unwrap().as_f64().unwrap(),
            RECOVERY_TID as f64
        );
    }

    #[test]
    fn hostile_strings_are_escaped() {
        let mut g = TaskGraph::new(1);
        g.push(
            r#"fwd "quoted" \ back"#,
            0,
            Stream::Compute,
            DurNs(1000),
            TaskKind::Generic,
            vec![],
        );
        let r = simulate(&g).unwrap();
        let ann = [TraceAnnotation {
            label: "fail\"stop".into(),
            device: 0,
            at_us: 0.1,
            detail: "path\\with\nnewline".into(),
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&g, &r, &ann, &[], &[], &mut buf).unwrap();
        // The emitted bytes must survive a JSON round-trip with content intact.
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(
            arr[0].field("name").unwrap().as_str().unwrap(),
            r#"fwd "quoted" \ back"#
        );
        assert_eq!(
            arr[1].field("name").unwrap().as_str().unwrap(),
            "fail\"stop"
        );
        assert_eq!(
            arr[1]
                .field("args")
                .unwrap()
                .field("detail")
                .unwrap()
                .as_str()
                .unwrap(),
            "path\\with\nnewline"
        );
    }
}
