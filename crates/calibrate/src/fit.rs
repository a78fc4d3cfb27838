//! Deterministic least-squares fitting of hardware-model parameters.
//!
//! Every fitted parameter enters its cost model *linearly* once the model is
//! algebraically inverted, so each fit is a closed-form normal-equation
//! solve — no iterative optimiser, no randomness, no tolerance knobs:
//!
//! * **Compute efficiencies** — the roofline charges
//!   `d = overhead + max(flops/(peak·eff), bytes/(hbm_bw·membw_eff))`.
//!   For samples where the compute term dominates, `d − overhead = flops·x`
//!   with `x = 1/(peak·eff)`; least squares gives `x = Σf·y / Σf²` and
//!   `eff = 1/(peak·x)`. Memory-bound samples fit `membw_eff` the same way
//!   with bytes in place of FLOPs. Dominance is decided against the current
//!   estimate and the solve repeated once, so a badly mis-set default cannot
//!   misroute samples. `kernel_overhead` is taken from the base profile
//!   (it is not identifiable separately from a pure-rate term with the
//!   sample shapes a profiler emits, and it is a launch constant, not a
//!   hardware health parameter).
//!
//! * **Link α–β** — a ring collective costs
//!   `d = passes·(α·(g−1) + bytes·(g−1)/(g·β))` and a P2P transfer
//!   `d = α + bytes/β`; both are linear in `(α, 1/β)`, so each link class is
//!   one 2×2 normal-equation solve over its samples. When the samples cannot
//!   separate latency from bandwidth (all the same shape — singular normal
//!   matrix), α is pinned to the base profile and bandwidth fitted alone.
//!
//! Determinism: sample order is the log's record order, every accumulation
//! is a sequential `f64` fold, and no threading is involved — identical
//! inputs produce bit-identical parameters on every run, independent of the
//! planner's `search_workers` setting.

use optimus_baselines::common::SystemContext;
use optimus_cluster::{
    ClusterTopology, Fingerprint, FpHasher, GpuProfile, KernelClass, LinkClass, LinkProfile,
};
use optimus_json::Json;
use optimus_trace::TextTable;

use crate::error::CalibrateError;
use crate::samples::{CommOp, KernelLog};

/// One fitted parameter with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedParam {
    /// Stable parameter name (e.g. `"matmul_efficiency"`).
    pub name: &'static str,
    /// The fitted value (equal to `base` when no samples informed it).
    pub value: f64,
    /// The base-model value the fit started from.
    pub base: f64,
    /// Number of samples that informed the fit.
    pub samples: usize,
}

impl FittedParam {
    /// Relative change of the fitted value against the base model.
    pub fn rel_change(&self) -> f64 {
        if self.base == 0.0 {
            return 0.0;
        }
        (self.value - self.base).abs() / self.base.abs()
    }
}

/// The result of fitting: a calibrated hardware model plus the parameter
/// vector with provenance, in a fixed order (the golden-regression contract).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// GPU profile with fitted efficiency factors.
    pub gpu: GpuProfile,
    /// Fitted intra-node link profile.
    pub nvlink: LinkProfile,
    /// Fitted inter-node link profile.
    pub rdma: LinkProfile,
    /// Every fitted parameter, in stable order.
    pub params: Vec<FittedParam>,
}

impl Calibration {
    /// Applies the calibration to a base topology: same shape (node count,
    /// GPUs per node), calibrated GPU and link profiles.
    pub fn topology(&self, base: &ClusterTopology) -> ClusterTopology {
        let mut t = base
            .with_link_profile(LinkClass::NvLink, self.nvlink)
            .with_link_profile(LinkClass::Rdma, self.rdma);
        t.gpu = self.gpu.clone();
        t
    }

    /// Applies the calibration to a system context, rebinding its
    /// communication model to the calibrated topology with a fresh cost
    /// cache — the calibrated context plugs straight into `run_optimus`
    /// and the adaptive re-planning loop.
    pub fn context(&self, base: &SystemContext) -> SystemContext {
        base.with_topology(self.topology(&base.topo))
    }

    /// Canonical content fingerprint of the fitted parameter vector: names
    /// and exact f64 bit patterns in the stable golden order. Two
    /// calibrations with the same fingerprint price every kernel and link
    /// identically, so a plan cached under one is valid under the other.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new("calibration/v1");
        h.fold_u64(self.params.len() as u64);
        for p in &self.params {
            h.fold_str(p.name).fold_f64(p.value);
        }
        h.finish()
    }

    /// The parameter vector as `(name, value)` pairs in stable order.
    pub fn param_vector(&self) -> Vec<(&'static str, f64)> {
        self.params.iter().map(|p| (p.name, p.value)).collect()
    }

    /// Byte-stable text encoding of the parameter vector: one
    /// `name <f64-bit-pattern-hex> <decimal>` line per parameter. The hex
    /// bit pattern makes golden comparisons exact; the decimal is for the
    /// human reviewing a regen diff.
    pub fn golden_text(&self) -> String {
        let mut out = String::new();
        for p in &self.params {
            out.push_str(&format!(
                "{} {:016x} {:e}\n",
                p.name,
                p.value.to_bits(),
                p.value
            ));
        }
        out
    }

    /// The calibration as a JSON document (parameters with provenance).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "params",
            Json::Arr(
                self.params
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::from(p.name)),
                            ("value", Json::Num(p.value)),
                            ("base", Json::Num(p.base)),
                            ("samples", Json::from(p.samples as u64)),
                            ("rel_change", Json::Num(p.rel_change())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Rendered parameter table.
    pub fn table(&self) -> String {
        let mut t = TextTable::new(vec!["Parameter", "Base", "Fitted", "Change", "Samples"]);
        for p in &self.params {
            t.row(vec![
                p.name.to_string(),
                format!("{:.4e}", p.base),
                format!("{:.4e}", p.value),
                format!("{:+.2}%", (p.value / p.base - 1.0) * 100.0),
                p.samples.to_string(),
            ]);
        }
        t.render()
    }
}

/// Least-squares slope through the origin: `y ≈ a·x` → `a = Σx·y / Σx²`.
/// Returns `None` when the inputs cannot determine a positive slope.
fn slope_through_origin(rows: &[(f64, f64)]) -> Option<f64> {
    let sxx: f64 = rows.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = rows.iter().map(|(x, y)| x * y).sum();
    if sxx <= 0.0 || sxy <= 0.0 {
        return None;
    }
    Some(sxy / sxx)
}

fn fit_efficiency(est: &GpuProfile, log: &KernelLog, class: KernelClass) -> (Option<f64>, usize) {
    // Rows (work, observed duration net of overhead) for samples of `class`
    // where the relevant roofline term dominates under the current estimate.
    let o = est.kernel_overhead.as_secs_f64();
    let mut rows = Vec::new();
    for k in &log.kernels {
        if k.class != class {
            continue;
        }
        let compute_s = k.flops / est.effective_flops(class);
        let memory_s = k.bytes / (est.hbm_bandwidth * est.membw_efficiency);
        let (work, dominant) = match class {
            KernelClass::MemoryBound => (k.bytes, memory_s >= compute_s),
            _ => (k.flops, compute_s >= memory_s),
        };
        if dominant && work > 0.0 {
            rows.push((work, (k.dur.as_secs_f64() - o).max(0.0)));
        }
    }
    let n = rows.len();
    // The slope is x = 1/(ceiling·eff); invert against the class's ceiling.
    let ceiling = match class {
        KernelClass::MemoryBound => est.hbm_bandwidth,
        _ => est.peak_flops,
    };
    let eff = slope_through_origin(&rows).map(|x| (1.0 / (ceiling * x)).clamp(1e-6, 1.0));
    (eff, n)
}

fn fit_link(base: LinkProfile, rows: &[(f64, f64, f64)]) -> Option<LinkProfile> {
    // Rows are (a, b, d) with model d = α·a + (1/β)·b. Solve the 2×2 normal
    // equations; fall back to pinning α at the base latency when the samples
    // cannot separate the two terms.
    if rows.is_empty() {
        return None;
    }
    let (mut saa, mut sab, mut sbb, mut sad, mut sbd) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(a, b, d) in rows {
        saa += a * a;
        sab += a * b;
        sbb += b * b;
        sad += a * d;
        sbd += b * d;
    }
    let det = saa * sbb - sab * sab;
    if det > 1e-9 * saa * sbb {
        let alpha = (sad * sbb - sbd * sab) / det;
        let binv = (sbd * saa - sad * sab) / det;
        if alpha >= 0.0 && binv > 0.0 {
            return Some(LinkProfile {
                bandwidth: 1.0 / binv,
                latency: alpha,
            });
        }
    }
    // Degenerate sample shapes: fit bandwidth only, α from the base profile.
    let residual_rows: Vec<(f64, f64)> = rows
        .iter()
        .map(|&(a, b, d)| (b, (d - base.latency * a).max(0.0)))
        .collect();
    slope_through_origin(&residual_rows).map(|binv| LinkProfile {
        bandwidth: 1.0 / binv,
        latency: base.latency,
    })
}

fn link_rows(log: &KernelLog, class: LinkClass) -> Vec<(f64, f64, f64)> {
    log.comms
        .iter()
        .filter(|c| c.link == class)
        .map(|c| {
            let d = c.dur.as_secs_f64();
            match c.op {
                CommOp::P2p => (1.0, c.bytes as f64, d),
                _ => {
                    let g = f64::from(c.group);
                    let p = c.op.passes();
                    (p * (g - 1.0), p * c.bytes as f64 * (g - 1.0) / g, d)
                }
            }
        })
        .collect()
}

/// Fits hardware-model parameters from a kernel log, starting from the base
/// topology's parameters. Parameters with no informing samples keep their
/// base values (reported with `samples: 0`).
///
/// The fit is deterministic: identical logs produce bit-identical
/// calibrations across runs and worker counts.
pub fn fit(base: &ClusterTopology, log: &KernelLog) -> Result<Calibration, CalibrateError> {
    if log.is_empty() {
        return Err(CalibrateError::NoSamples {
            what: "kernel or comm samples".into(),
        });
    }

    // Two dominance-classification passes: the first against the base
    // profile, the second against the first pass's estimate.
    let mut gpu = base.gpu.clone();
    let mut counts = [0usize; 3];
    for _ in 0..2 {
        let (m, nm) = fit_efficiency(&gpu, log, KernelClass::Matmul);
        let (a, na) = fit_efficiency(&gpu, log, KernelClass::Attention);
        let (b, nb) = fit_efficiency(&gpu, log, KernelClass::MemoryBound);
        if let Some(v) = m {
            gpu.matmul_efficiency = v;
        }
        if let Some(v) = a {
            gpu.attention_efficiency = v;
        }
        if let Some(v) = b {
            gpu.membw_efficiency = v;
        }
        counts = [nm, na, nb];
    }

    let nv_rows = link_rows(log, LinkClass::NvLink);
    let rd_rows = link_rows(log, LinkClass::Rdma);
    let nvlink = fit_link(base.nvlink, &nv_rows).unwrap_or(base.nvlink);
    let rdma = fit_link(base.rdma, &rd_rows).unwrap_or(base.rdma);

    let params = vec![
        FittedParam {
            name: "matmul_efficiency",
            value: gpu.matmul_efficiency,
            base: base.gpu.matmul_efficiency,
            samples: counts[0],
        },
        FittedParam {
            name: "attention_efficiency",
            value: gpu.attention_efficiency,
            base: base.gpu.attention_efficiency,
            samples: counts[1],
        },
        FittedParam {
            name: "membw_efficiency",
            value: gpu.membw_efficiency,
            base: base.gpu.membw_efficiency,
            samples: counts[2],
        },
        FittedParam {
            name: "nvlink_bandwidth",
            value: nvlink.bandwidth,
            base: base.nvlink.bandwidth,
            samples: nv_rows.len(),
        },
        FittedParam {
            name: "nvlink_latency",
            value: nvlink.latency,
            base: base.nvlink.latency,
            samples: nv_rows.len(),
        },
        FittedParam {
            name: "rdma_bandwidth",
            value: rdma.bandwidth,
            base: base.rdma.bandwidth,
            samples: rd_rows.len(),
        },
        FittedParam {
            name: "rdma_latency",
            value: rdma.latency,
            base: base.rdma.latency,
            samples: rd_rows.len(),
        },
    ];

    Ok(Calibration {
        gpu,
        nvlink,
        rdma,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{CommSample, KernelSample};
    use optimus_cluster::DurNs;

    fn base() -> ClusterTopology {
        ClusterTopology::hopper_cluster(16).unwrap()
    }

    /// Synthesises noiseless kernel samples from a known profile and checks
    /// the fit inverts them exactly (up to integer-ns duration rounding).
    #[test]
    fn recovers_known_efficiencies() {
        let mut truth = base();
        truth.gpu.matmul_efficiency = 0.61;
        truth.gpu.attention_efficiency = 0.24;
        truth.gpu.membw_efficiency = 0.66;
        let mut log = KernelLog::default();
        for i in 1..=20u32 {
            let flops = 1e10 * f64::from(i);
            log.kernels.push(KernelSample {
                class: KernelClass::Matmul,
                flops,
                bytes: 0.0,
                dur: truth.gpu.kernel_time(KernelClass::Matmul, flops, 0.0),
            });
            log.kernels.push(KernelSample {
                class: KernelClass::Attention,
                flops: flops / 4.0,
                bytes: 0.0,
                dur: truth
                    .gpu
                    .kernel_time(KernelClass::Attention, flops / 4.0, 0.0),
            });
            let bytes = 2e8 * f64::from(i);
            log.kernels.push(KernelSample {
                class: KernelClass::MemoryBound,
                flops: 0.0,
                bytes,
                dur: truth.gpu.kernel_time(KernelClass::MemoryBound, 0.0, bytes),
            });
        }
        let cal = fit(&base(), &log).unwrap();
        assert!((cal.gpu.matmul_efficiency - 0.61).abs() / 0.61 < 1e-4);
        assert!((cal.gpu.attention_efficiency - 0.24).abs() / 0.24 < 1e-4);
        assert!((cal.gpu.membw_efficiency - 0.66).abs() / 0.66 < 1e-4);
        // Links had no samples: base values, zero sample count.
        let nv = cal
            .params
            .iter()
            .find(|p| p.name == "nvlink_bandwidth")
            .unwrap();
        assert_eq!(nv.value, base().nvlink.bandwidth);
        assert_eq!(nv.samples, 0);
    }

    #[test]
    fn recovers_known_link_profile() {
        let truth = LinkProfile {
            bandwidth: 273e9,
            latency: 5.5e-6,
        };
        let mut log = KernelLog::default();
        for i in 0..24u32 {
            let bytes = 1u64 << (10 + i % 16);
            let group = [2u32, 4, 8][(i % 3) as usize];
            let op = [CommOp::AllGather, CommOp::AllReduce, CommOp::P2p][(i % 3) as usize];
            let g = f64::from(group);
            let secs = match op {
                CommOp::P2p => truth.latency + bytes as f64 / truth.bandwidth,
                _ => {
                    op.passes()
                        * (truth.latency * (g - 1.0)
                            + bytes as f64 * (g - 1.0) / (g * truth.bandwidth))
                }
            };
            log.comms.push(CommSample {
                op,
                bytes,
                group,
                link: LinkClass::NvLink,
                dur: DurNs::from_secs_f64(secs),
            });
        }
        let cal = fit(&base(), &log).unwrap();
        assert!(
            (cal.nvlink.bandwidth - truth.bandwidth).abs() / truth.bandwidth < 1e-3,
            "bw {}",
            cal.nvlink.bandwidth
        );
        assert!(
            (cal.nvlink.latency - truth.latency).abs() / truth.latency < 1e-3,
            "lat {}",
            cal.nvlink.latency
        );
        assert_eq!(cal.rdma, base().rdma);
    }

    #[test]
    fn degenerate_link_samples_pin_latency() {
        // Every sample has the same (group, bytes) shape: α and β cannot be
        // separated, so α stays at base and bandwidth absorbs the rest.
        let mut log = KernelLog::default();
        for _ in 0..8 {
            log.comms.push(CommSample {
                op: CommOp::AllGather,
                bytes: 1 << 24,
                group: 8,
                link: LinkClass::Rdma,
                dur: DurNs(5_000_000),
            });
        }
        let cal = fit(&base(), &log).unwrap();
        assert_eq!(cal.rdma.latency, base().rdma.latency);
        assert!(cal.rdma.bandwidth > 0.0);
    }

    #[test]
    fn empty_log_is_a_typed_error() {
        assert!(matches!(
            fit(&base(), &KernelLog::default()),
            Err(CalibrateError::NoSamples { .. })
        ));
    }

    #[test]
    fn fit_is_deterministic() {
        let mut log = KernelLog::default();
        for i in 1..=10u32 {
            let flops = 3.3e10 * f64::from(i);
            log.kernels.push(KernelSample {
                class: KernelClass::Matmul,
                flops,
                bytes: 1e7,
                dur: DurNs(100_000 * u64::from(i) + 17),
            });
        }
        let a = fit(&base(), &log).unwrap();
        let b = fit(&base(), &log).unwrap();
        assert_eq!(a.golden_text(), b.golden_text());
        for (x, y) in a.param_vector().iter().zip(b.param_vector()) {
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        // The fingerprint is as exact as the golden text.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.params[0].value += 1e-12;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn calibrated_context_plans_against_fitted_links() {
        let mut log = KernelLog::default();
        for i in 0..12u32 {
            let bytes = 1u64 << (12 + i);
            // A link at half the default NVLink bandwidth.
            let secs = 3e-6 + bytes as f64 / 200e9;
            log.comms.push(CommSample {
                op: CommOp::P2p,
                bytes,
                group: 2,
                link: LinkClass::NvLink,
                dur: DurNs::from_secs_f64(secs),
            });
        }
        let cal = fit(&base(), &log).unwrap();
        let ctx = SystemContext::hopper(16).unwrap();
        let cctx = cal.context(&ctx);
        assert!((cctx.topo.nvlink.bandwidth - 200e9).abs() / 200e9 < 1e-2);
    }
}
