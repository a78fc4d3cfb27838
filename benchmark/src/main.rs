//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table7|plansvc-stream|resim-robust|fleet-month> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up, measures its
//! operations (for `--seconds` where it loops), checks every output, and
//! prints a human report on stderr. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed`, and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans as a Chrome trace under `.bench_out/`. The process
//! exits non-zero when any output check failed.
//!
//! `--repro <config>` instead plans one known-failing configuration and
//! prints what `verify` says about it (see NOTES.md).

mod decompose;
mod fleet;
mod layers;
mod outcome;
mod plansvc;
mod repro;
mod resim;
mod span;
mod table7;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use outcome::{quantile, Outcome};
use span::Tracer;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads for search and fleet fan-outs: one per core.
    pub workers: usize,
}

const WORKLOADS: [&str; 4] = ["table7", "plansvc-stream", "resim-robust", "fleet-month"];

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        workers,
    })
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the running executable, so persisted counters are only ever
/// compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares this run's deterministic counters with an earlier run of the
/// same build, workload, seed and mode, or records them for the next one.
fn check_counters(out: &mut Outcome, args: &Args) {
    let dir = PathBuf::from(".bench_out").join("counters");
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace),
        build_id()
    ));
    let text: String = out
        .counters
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let same = previous == text;
            out.check(same, || {
                format!(
                    "counters differ from an earlier run with seed {}: {}",
                    args.seed,
                    path.display()
                )
            });
            if same {
                out.note("counters: identical to an earlier run with this seed".into());
            }
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
            if let Err(e) = written {
                eprintln!("note: counters not recorded ({e})");
            }
        }
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--repro") {
        return repro::run(argv.get(1).map(String::as_str));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "table7" => table7::run(&args, &tr),
        "plansvc-stream" => plansvc::run(&args, &tr),
        "resim-robust" => resim::run(&args, &tr),
        _ => fleet::run(&args, &tr),
    };
    check_counters(&mut out, &args);

    let n_ops = out.ops_ms.len();
    let p50 = quantile(&out.ops_ms, 0.5);
    let p90 = quantile(&out.ops_ms, 0.9);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        out.layer("trace.spans", tr.len() as f64);
        out.layer("trace.op_p50_ms", p50);
        for &(name, unit) in layers::PER_LAYER {
            metrics.push((name, out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = PathBuf::from(".bench_out")
            .join("trace")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match tr.write_chrome(&path) {
            Ok(()) => eprintln!("spans: {} written to {}", tr.len(), path.display()),
            Err(e) => eprintln!("note: spans not written ({e})"),
        }
        eprintln!(
            "{:<28} {:>12} {:>12} {:>8}",
            "span", "incl ms", "self ms", "calls"
        );
        for (name, t) in tr.summary() {
            eprintln!(
                "{name:<28} {:>12.3} {:>12.3} {:>8}",
                t.inclusive_ms, t.self_ms, t.calls
            );
        }
    } else {
        let setup = quantile(&out.setup_s, 0.5);
        let per_s = if out.measured_s > 0.0 {
            n_ops as f64 / out.measured_s
        } else {
            0.0
        };
        for (&(name, unit), value) in END_TO_END
            .iter()
            .zip([setup, peak_rss_mb(), p50, p90, per_s])
        {
            metrics.push((name, value, unit));
        }
    }
    out.check(n_ops > 0, || "no operation completed".into());
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            out.check(false, || format!("metric {name} is not a finite number"));
        }
    }

    eprintln!(
        "== {} seed {} ({}; {} workers) ==",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.workers
    );
    for line in &out.notes {
        eprintln!("{line}");
    }
    eprintln!(
        "operations: {n_ops} measured in {:.2} s; set-ups: {:?} s",
        out.measured_s, out.setup_s
    );
    for (k, v) in &out.counters {
        eprintln!("counter {k} = {v}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:<28} {value:>16.6} {unit}");
    }
    let correct = out.failed == 0;
    let metrics: Vec<(&str, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
