//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! library's public functions; nothing inside the library is instrumented.
//! Each span has a name, a start and end relative to the recorder's origin,
//! the span that caused it, and the thread that ran it. Spans stay in memory
//! until the run ends, when [`Tracer::write_chrome`] writes them out and
//! [`Tracer::summary`] reduces them to per-name inclusive and self time.
//!
//! A disabled recorder hands out inert guards, so untraced code paths pay
//! one branch per span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Identifier of a recorded span; `0` is "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Record {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans from any thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
    threads: Mutex<Vec<ThreadId>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// The span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        let thread = self.tracer.thread_index();
        let rec = Record {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned lock means another span panicked mid-push; the run is
        // already failing, so dropping this span is the right outcome.
        if let Ok(mut records) = self.tracer.records.lock() {
            records.push(rec);
        }
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations, ms.
    pub inclusive_ms: f64,
    /// Sum of span durations minus the part of each span's interval its
    /// children cover, ms.
    pub self_ms: f64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn thread_index(&self) -> usize {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("thread registry lock");
        match threads.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                threads.push(me);
                threads.len() - 1
            }
        }
    }

    /// Opens a span named `name` caused by `parent` (`0` for a root).
    pub fn span(&self, name: &'static str, parent: SpanId) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("span lock").len()
    }

    /// Reduces every span to per-name totals. A span's self time is its
    /// duration minus the union of its children's intervals clipped to it,
    /// so concurrent children (search workers) are not double-subtracted.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let records = self.records.lock().expect("span lock");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for r in records.iter() {
            if r.parent != 0 {
                children
                    .entry(r.parent)
                    .or_default()
                    .push((r.start_ns, r.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for r in records.iter() {
            let dur = r.end_ns.saturating_sub(r.start_ns);
            let covered = children
                .get(&r.id)
                .map_or(0, |c| union_within(c, r.start_ns, r.end_ns));
            let t = out.entry(r.name).or_default();
            t.calls += 1;
            t.inclusive_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one complete event per span, one `tid` per thread.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let records = self.records.lock().expect("span lock");
        let mut sorted: Vec<&Record> = records.iter().collect();
        sorted.sort_by_key(|r| (r.start_ns, r.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"traceEvents\":[")?;
        for (i, r) in sorted.iter().enumerate() {
            let sep = if i + 1 == sorted.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                r.name,
                r.thread,
                r.start_ns as f64 / 1e3,
                r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3,
                r.id,
                r.parent
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_within(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let root = t.span("root", 0);
            let _child = t.span("child", root.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = t.summary();
        assert_eq!(s["root"].calls, 1);
        assert!(s["root"].self_ms < s["root"].inclusive_ms);
        assert!((s["child"].self_ms - s["child"].inclusive_ms).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", 0));
        assert_eq!(t.len(), 0);
    }
}
