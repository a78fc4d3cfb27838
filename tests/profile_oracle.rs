//! Differential test: `DeviceProfile::from_spans` (binary search over the
//! running maximum of TP-span ends) against the quadratic definition it
//! replaced, which tests every TP span against every gap and compute span.
//!
//! Inputs: seeded span sets with overlapping, nested, touching, duplicate
//! and zero-length TP spans, devices without TP traffic, single and empty
//! compute lists; the real LLM profiles of three schedules; and the same
//! spans read back through `calibrate`'s Chrome-trace ingestion
//! (`IngestedTrace::device_profile`), which sorts each track itself.

use optimus::baselines::common::SystemContext;
use optimus::calibrate::IngestedTrace;
use optimus::core::{DeviceProfile, FreeInterval, LlmProfile, LlmScheduleKind, Ts};
use optimus::modeling::{MllmConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::sim::{Stream, TaskKind};
use optimus_detrand::rngs::StdRng;
use optimus_detrand::{RngExt, SeedableRng};
use optimus_json::Json;

/// The quadratic definition, as `from_spans` computed it before the
/// binary search.
fn oracle(compute: &[(Ts, Ts)], tp: &[(Ts, Ts)], makespan: Ts) -> DeviceProfile {
    let (Some(&(leading_end, _)), Some(&(_, trailing_start))) = (compute.first(), compute.last())
    else {
        return DeviceProfile {
            leading_end: makespan,
            trailing_start: makespan,
            interior: Vec::new(),
            comm_windows: Vec::new(),
        };
    };
    let overlaps_tp = |a: Ts, b: Ts| tp.iter().any(|&(s, e)| s < b && a < e);
    let tp_anchor = |t: Ts| tp.partition_point(|&(s, _)| s < t) as u32;

    let mut interior = Vec::new();
    for (i, w) in compute.windows(2).enumerate() {
        let (a, b) = (w[0].1, w[1].0);
        if b > a {
            interior.push(FreeInterval {
                start: a,
                end: b,
                tp: overlaps_tp(a, b),
                anchor: (i + 1) as u32,
            });
        }
    }

    let mut comm_windows = Vec::new();
    for &(start, b) in compute {
        let mut a = start;
        for &(ts, te) in tp {
            if te <= a || ts >= b {
                continue;
            }
            if ts > a {
                comm_windows.push(FreeInterval {
                    start: a,
                    end: ts,
                    tp: false,
                    anchor: tp_anchor(a),
                });
            }
            a = a.max(te);
        }
        if b > a {
            comm_windows.push(FreeInterval {
                start: a,
                end: b,
                tp: false,
                anchor: tp_anchor(a),
            });
        }
    }

    DeviceProfile {
        leading_end,
        trailing_start,
        interior,
        comm_windows,
    }
}

fn range(rng: &mut StdRng, lo: Ts, hi: Ts) -> Ts {
    lo + rng.random_range(0..=(hi - lo) as u64) as Ts
}

/// Compute spans in queue order: ascending, touching, gapped or
/// zero-length; one set in eight is unordered and overlapping, which
/// `from_spans` must handle like the definition does.
fn compute_spans(rng: &mut StdRng, horizon: Ts) -> Vec<(Ts, Ts)> {
    let n = match rng.random_range(0u32..8) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2usize..24),
    };
    if rng.random_range(0u32..8) == 0 {
        return (0..n)
            .map(|_| {
                let s = range(rng, 0, horizon);
                (s, s + range(rng, 0, 30))
            })
            .collect();
    }
    let mut t = range(rng, 0, 10);
    (0..n)
        .map(|_| {
            if rng.random_range(0u32..3) != 0 {
                t += range(rng, 0, 12);
            }
            let s = t;
            t += range(rng, 0, 20);
            (s, t)
        })
        .collect()
}

/// Shapes a TP-span set contains, counted so the test can require each.
#[derive(Default)]
struct Shapes {
    empty: usize,
    overlapping: usize,
    nested: usize,
    touching: usize,
    zero_length: usize,
}

/// TP spans sorted by start, built from each shape in turn relative to the
/// previous span.
fn tp_spans(rng: &mut StdRng, horizon: Ts, shapes: &mut Shapes) -> Vec<(Ts, Ts)> {
    let n = match rng.random_range(0u32..6) {
        0 => 0,
        _ => rng.random_range(1usize..32),
    };
    let mut v: Vec<(Ts, Ts)> = Vec::with_capacity(n);
    for _ in 0..n {
        let span = match (v.last().copied(), rng.random_range(0u32..7)) {
            (Some((s, e)), 1) if e > s => {
                let a = range(rng, s, e);
                (a, range(rng, a, e))
            }
            (Some((s, e)), 2) if e > s => {
                let a = range(rng, s, e);
                (a, e + range(rng, 1, 10))
            }
            (Some((_, e)), 3) => (e, e + range(rng, 0, 15)),
            (Some(p), 4) => p,
            (_, 5) => {
                let a = range(rng, 0, horizon);
                (a, a)
            }
            _ => {
                let a = range(rng, 0, horizon);
                (a, a + range(rng, 0, 25))
            }
        };
        v.push(span);
    }
    v.sort_unstable();
    shapes.empty += usize::from(v.is_empty());
    let pairs = || {
        v.iter()
            .enumerate()
            .flat_map(|(i, x)| v[i + 1..].iter().map(move |y| (*x, *y)))
    };
    shapes.overlapping += usize::from(pairs().any(|(x, y)| y.0 > x.0 && y.0 < x.1 && y.1 > x.1));
    shapes.nested += usize::from(pairs().any(|(x, y)| y.0 >= x.0 && y.1 <= x.1 && y.1 > y.0));
    shapes.touching += usize::from(pairs().any(|(x, y)| y.0 == x.1));
    shapes.zero_length += usize::from(v.iter().any(|&(s, e)| s == e));
    v
}

#[test]
fn seeded_span_sets_match_the_quadratic_definition() {
    let mut shapes = Shapes::default();
    let (mut single, mut no_compute, mut tp_gaps, mut plain_gaps, mut windows) = (0, 0, 0, 0, 0);
    for seed in 0..2_000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = range(&mut rng, 20, 400);
        let compute = compute_spans(&mut rng, horizon);
        let tp = tp_spans(&mut rng, horizon, &mut shapes);
        let makespan = horizon + 50;
        let want = oracle(&compute, &tp, makespan);
        assert_eq!(
            DeviceProfile::from_spans(&compute, &tp, makespan),
            want,
            "seed {seed}: compute {compute:?} tp {tp:?}"
        );
        single += usize::from(compute.len() == 1);
        no_compute += usize::from(compute.is_empty());
        tp_gaps += want.interior.iter().filter(|i| i.tp).count();
        plain_gaps += want.interior.iter().filter(|i| !i.tp).count();
        windows += want.comm_windows.len();
    }
    for (what, n) in [
        ("no TP spans", shapes.empty),
        ("overlapping TP spans", shapes.overlapping),
        ("nested TP spans", shapes.nested),
        ("touching TP spans", shapes.touching),
        ("zero-length TP spans", shapes.zero_length),
        ("a single compute span", single),
        ("no compute span", no_compute),
        ("TP-tagged gaps", tp_gaps),
        ("untagged gaps", plain_gaps),
        ("comm windows", windows),
    ] {
        assert!(n >= 50, "only {n} inputs with {what}");
    }
}

type Spans = Vec<(Ts, Ts)>;

/// The spans `core` extracts a device's profile from: compute in queue
/// order, TP collectives sorted.
fn device_spans(p: &LlmProfile, device: u32) -> (Spans, Spans) {
    let g = &p.lowered.graph;
    let compute = (p.result.stream_spans(g, device, Stream::Compute).iter())
        .map(|s| (s.start.0 as Ts, s.end.0 as Ts))
        .collect();
    let mut tp: Spans = (g.dag().device_tasks(device).iter())
        .filter(|&&t| g.task(t).kind == TaskKind::LlmTpComm)
        .map(|&t| {
            let s = p.result.span(t);
            (s.start.0 as Ts, s.end.0 as Ts)
        })
        .collect();
    tp.sort_unstable();
    (compute, tp)
}

#[test]
fn real_profiles_match_the_quadratic_definition_directly_and_ingested() {
    let w = Workload::new(MllmConfig::small(), 8, 4, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let one = ParallelPlan::new(2, 2, 2).unwrap();
    for (plan, kind) in [
        (one, LlmScheduleKind::OneFOneB),
        (
            ParallelPlan::with_vpp(2, 2, 2, 2).unwrap(),
            LlmScheduleKind::OneFOneB,
        ),
        (one, LlmScheduleKind::ZeroBubble),
    ] {
        let p = LlmProfile::build_full(&w, &plan, &ctx, false, kind).unwrap();
        let mut buf = Vec::new();
        optimus::trace::write_chrome_trace(&p.lowered.graph, &p.result, &[], &[], &[], &mut buf)
            .unwrap();
        let trace = IngestedTrace::parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        for (d, got) in p.devices.iter().enumerate() {
            let (compute, tp) = device_spans(&p, d as u32);
            assert!(!tp.is_empty(), "{kind:?} vpp {}: no TP traffic", plan.vpp);
            let want = oracle(&compute, &tp, p.makespan);
            assert_eq!(got, &want, "{kind:?} vpp {} device {d}", plan.vpp);
            assert_eq!(trace.device_profile(d as u32, p.makespan), want);
        }
    }
}

/// One Chrome-trace duration event on `tid` of device 0.
fn event(tid: u32, (s, e): (Ts, Ts)) -> Json {
    Json::obj(vec![
        ("name", Json::from("k")),
        (
            "cat",
            Json::from(optimus::trace::TRACK_CATEGORIES[tid as usize]),
        ),
        ("ph", Json::from("X")),
        ("ts", Json::from(s as f64 / 1000.0)),
        ("dur", Json::from((e - s) as f64 / 1000.0)),
        ("pid", Json::from(0u32)),
        ("tid", Json::from(tid)),
    ])
}

/// A track the ingester accepts: ascending, each span starting at or after
/// the previous end (touching and zero-length spans included).
fn track(rng: &mut StdRng, n: usize) -> Vec<(Ts, Ts)> {
    let mut t = range(rng, 0, 2_000);
    (0..n)
        .map(|_| {
            if rng.random_range(0u32..3) != 0 {
                t += range(rng, 0, 1_500);
            }
            let s = t;
            if rng.random_range(0u32..5) != 0 {
                t += range(rng, 1, 2_500);
            }
            (s, t)
        })
        .collect()
}

#[test]
fn ingested_tracks_match_the_quadratic_definition() {
    let (mut tp_gaps, mut windows) = (0, 0);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n_compute, n_tp) = (rng.random_range(0usize..16), rng.random_range(0usize..24));
        let compute = track(&mut rng, n_compute);
        let tp = track(&mut rng, n_tp);
        let events: Vec<Json> = (compute.iter().map(|&s| event(0, s)))
            .chain(tp.iter().map(|&s| event(1, s)))
            .collect();
        let trace = IngestedTrace::parse_chrome(&Json::Arr(events).to_compact()).unwrap();
        let makespan = trace.makespan();
        let want = oracle(&compute, &tp, makespan);
        assert_eq!(trace.device_profile(0, makespan), want, "seed {seed}");
        tp_gaps += want.interior.iter().filter(|i| i.tp).count();
        windows += want.comm_windows.len();
    }
    assert!(
        tp_gaps >= 50 && windows >= 50,
        "{tp_gaps} TP gaps, {windows} windows"
    );
}
