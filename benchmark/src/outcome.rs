//! What a workload run hands back to the driver loop in `main`: attempted
//! and failed operations, raw timings, per-layer values and deterministic
//! work counters.

use std::collections::BTreeMap;
use std::time::Instant;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// Seconds taken by each set-up the run performed.
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation, ms.
    pub ops_ms: Vec<f64>,
    /// Wall-clock seconds of the measured section.
    pub measured_s: f64,
    /// Per-layer values (traced run), by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Deterministic work counters: a pure function of the seed and the
    /// code, so two runs of one build with one seed must agree exactly.
    pub counters: BTreeMap<&'static str, u64>,
    /// Lines for the human-readable report on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; logs and counts it as failed unless
    /// `ok`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {}", what());
        }
        ok
    }

    /// Counts one operation that returned `res`; an `Err` is a failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, res: Result<T, E>) -> Option<T> {
        match res {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds to a deterministic counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Adds a line to the stderr report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// How often an untraced run repeats its set-up; the reported `setup_s` is
/// the median of the repetitions.
#[derive(Clone, Copy, Debug)]
pub struct SetupReps {
    /// Repetitions at least.
    pub min_reps: usize,
    /// Seconds of repetitions at least, so a set-up of a few milliseconds
    /// is timed hundreds of times.
    pub min_secs: f64,
}

/// For set-ups well under a second: at least 5 repetitions and 2 s.
pub const CHEAP_SETUP: SetupReps = SetupReps {
    min_reps: 5,
    min_secs: 2.0,
};

/// One set-up only (traced runs).
pub const ONE_SETUP: SetupReps = SetupReps {
    min_reps: 1,
    min_secs: 0.0,
};

/// Runs `setup` until both floors of `reps` are met (at least once);
/// returns the last result and each run's duration in seconds.
pub fn timed_setups<T>(reps: SetupReps, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < reps.min_reps.max(1) || secs.iter().sum::<f64>() < reps.min_secs {
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), secs)
}

/// Nearest-rank quantile of unsorted values (`NaN` when empty), through the
/// workspace's one quantile definition.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    optimus_trace::quantile(&v, q)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
