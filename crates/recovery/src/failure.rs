//! Deterministic multi-failure traces.
//!
//! A [`FailureTrace`] is the recovery engine's input: a time-sorted list of
//! fail-stop events, each either *transient* (the process crashes, the
//! device comes back after a restart delay) or *permanent* (the device is
//! lost until a repair/replacement arrives). Traces come from four places:
//! hand-built lists, the [`optimus_faults::FaultModel`] scenarios a run is
//! already being studied under, the seeded single-class generator
//! ([`FailureTrace::generate`], inter-arrival [`Hazard`] of choice), or the
//! fleet-level multi-class generator ([`ClassedTrace::generate`]) that
//! superposes per-[`Component`] streams (GPU fail-stop, NIC/link fault,
//! host loss), each with its own MTBF, hazard, and recovery delay. All
//! draws go through [`optimus_detrand`] — including the exponential and
//! Weibull hazards, whose `ln`/`powf` come from `optimus_detrand::math`
//! rather than platform libm — so the same seed is bit-identical on every
//! platform.

use optimus_cluster::{DurNs, TimeNs};
use optimus_detrand::{math, rngs::StdRng, Rng, RngExt, SeedableRng};
use optimus_faults::{Component, FaultModel, FaultScenario};

use crate::error::RecoveryError;

/// Inter-arrival distribution for seeded failure generation, parameterized
/// by the mean time between failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hazard {
    /// Uniform gaps in `[0.5, 1.5) · MTBF` — the original ad-hoc draw,
    /// kept as the default so existing golden traces stay byte-identical.
    Uniform,
    /// Memoryless exponential gaps (constant hazard rate): the standard
    /// fleet-failure model, exact under superposition of many independent
    /// components.
    Exponential,
    /// Weibull gaps: `shape < 1` models infant mortality (bursty early
    /// failures), `shape > 1` wear-out. Mean is normalised to the MTBF via
    /// `Γ(1 + 1/shape)`.
    Weibull {
        /// Weibull shape parameter, finite and `> 0`.
        shape: f64,
    },
}

impl Hazard {
    /// Validates the hazard's parameters.
    pub fn validate(&self) -> Result<(), RecoveryError> {
        if let Hazard::Weibull { shape } = *self {
            if !(shape > 0.0 && shape.is_finite()) {
                return Err(RecoveryError::Invalid(format!(
                    "weibull shape {shape} must be finite and > 0"
                )));
            }
        }
        Ok(())
    }

    /// Short stable name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Hazard::Uniform => "uniform",
            Hazard::Exponential => "exponential",
            Hazard::Weibull { .. } => "weibull",
        }
    }

    /// Draws one inter-arrival gap with mean `mtbf_ns`, consuming exactly
    /// one `next_f64` from `rng`. The uniform arm reproduces the historic
    /// draw bit-for-bit; the exponential and Weibull arms invert the CDF
    /// with deterministic `math::ln`/`math::powf` so they too are
    /// platform-stable.
    pub fn sample_gap<R: Rng + ?Sized>(&self, rng: &mut R, mtbf_ns: u64) -> u64 {
        let u = rng.next_f64();
        let gap = match *self {
            Hazard::Uniform => mtbf_ns as f64 * (0.5 + u),
            // -ln(1-u) is Exp(1); u ∈ [0, 1) keeps the argument in (0, 1].
            Hazard::Exponential => mtbf_ns as f64 * -math::ln(1.0 - u),
            Hazard::Weibull { shape } => {
                // Scale λ chosen so the mean is exactly the MTBF:
                // E = λ·Γ(1 + 1/shape).
                let lambda = mtbf_ns as f64 / math::gamma(1.0 + 1.0 / shape);
                lambda * math::powf(-math::ln(1.0 - u), 1.0 / shape)
            }
        };
        // Clamp into u64 range; the generator loop applies `.max(1)`.
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }
}

/// How a failed device comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Process-level fail-stop: the device restarts after `restart`.
    Transient {
        /// Process restart delay.
        restart: DurNs,
    },
    /// Device loss: the hardware is gone until a repair lands `repair`
    /// after the failure instant.
    Permanent {
        /// Repair/replacement lead time.
        repair: DurNs,
    },
}

/// One failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    /// Failure instant on the training wall clock.
    pub at: TimeNs,
    /// Failed device.
    pub device: u32,
    /// Transient restart or permanent loss.
    pub kind: FailureKind,
}

/// A time-sorted failure trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureTrace {
    failures: Vec<Failure>,
}

/// Seeded-generation parameters for [`FailureTrace::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureTraceConfig {
    /// Generator seed.
    pub seed: u64,
    /// Generate failures in `[0, horizon_ns)`.
    pub horizon_ns: u64,
    /// Mean time between failures.
    pub mtbf_ns: u64,
    /// Devices to draw the failing rank from.
    pub num_devices: u32,
    /// Restart delay for transient failures.
    pub restart: DurNs,
    /// Repair lead time for permanent failures.
    pub repair: DurNs,
    /// Every `permanent_every`-th failure is a permanent device loss
    /// (`0` = all transient).
    pub permanent_every: u32,
    /// Inter-arrival distribution for the gaps.
    pub hazard: Hazard,
}

impl FailureTrace {
    /// Builds a trace from explicit events, sorting by time and validating
    /// that delays are non-zero.
    pub fn new(mut failures: Vec<Failure>) -> Result<FailureTrace, RecoveryError> {
        for f in &failures {
            let delay = match f.kind {
                FailureKind::Transient { restart } => restart,
                FailureKind::Permanent { repair } => repair,
            };
            if delay.0 == 0 {
                return Err(RecoveryError::Invalid(format!(
                    "failure on device {} at {} ns has a zero restart/repair delay",
                    f.device, f.at.0
                )));
            }
        }
        failures.sort_by_key(|f| (f.at.0, f.device));
        Ok(FailureTrace { failures })
    }

    /// Extracts the fail-stop events of a fault model: `FailStop` scenarios
    /// become transient failures, `DeviceLoss` scenarios permanent ones.
    /// Degradation scenarios (stragglers, jitter, link faults) have no
    /// fail-stop semantics and are ignored here.
    pub fn from_model(model: &FaultModel) -> FailureTrace {
        let mut failures = Vec::new();
        for s in model.scenarios() {
            match *s {
                FaultScenario::FailStop {
                    device,
                    at,
                    restart,
                } => failures.push(Failure {
                    at,
                    device,
                    kind: FailureKind::Transient { restart },
                }),
                FaultScenario::DeviceLoss { device, at, repair } => failures.push(Failure {
                    at,
                    device,
                    kind: FailureKind::Permanent { repair },
                }),
                _ => {}
            }
        }
        failures.sort_by_key(|f| (f.at.0, f.device));
        FailureTrace { failures }
    }

    /// Seeded multi-failure generator. Interarrival gaps follow the
    /// config's [`Hazard`] (uniform, exponential, or Weibull around the
    /// MTBF — all via [`optimus_detrand`], so the draw is bit-identical
    /// across platforms); failing devices are drawn uniformly.
    pub fn generate(cfg: &FailureTraceConfig) -> Result<FailureTrace, RecoveryError> {
        if cfg.mtbf_ns == 0 || cfg.num_devices == 0 {
            return Err(RecoveryError::Invalid(
                "failure generation needs mtbf > 0 and num_devices > 0".into(),
            ));
        }
        if cfg.restart.0 == 0 || cfg.repair.0 == 0 {
            return Err(RecoveryError::Invalid(
                "restart and repair delays must be non-zero".into(),
            ));
        }
        cfg.hazard.validate()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut failures = Vec::new();
        let mut t: u64 = 0;
        let mut i: u32 = 0;
        loop {
            let gap = cfg.hazard.sample_gap(&mut rng, cfg.mtbf_ns);
            t = t.saturating_add(gap.max(1));
            if t >= cfg.horizon_ns {
                break;
            }
            i += 1;
            let device = rng.random_range(0..cfg.num_devices);
            let kind = if cfg.permanent_every > 0 && i.is_multiple_of(cfg.permanent_every) {
                FailureKind::Permanent { repair: cfg.repair }
            } else {
                FailureKind::Transient {
                    restart: cfg.restart,
                }
            };
            failures.push(Failure {
                at: TimeNs(t),
                device,
                kind,
            });
        }
        Ok(FailureTrace { failures })
    }

    /// The events, sorted by time.
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// True when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One component class in a fleet-level failure mix: its per-device MTBF,
/// inter-arrival hazard, and how the job recovers when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpec {
    /// The hardware component class.
    pub component: Component,
    /// Mean time between failures *of one device of this class*. The
    /// fleet-level rate scales with the device count (superposition).
    pub mtbf_device_ns: u64,
    /// Inter-arrival distribution for this class's fleet-level stream.
    pub hazard: Hazard,
    /// Recovery semantics when a failure of this class fires.
    pub kind: FailureKind,
}

impl ComponentSpec {
    /// The mean gap of this class's fleet-level stream over `num_devices`
    /// devices (`> 0`), floor 1 ns: one device fails every
    /// `mtbf_device_ns` on average, so `num_devices` of them fail
    /// `num_devices`× as often. Together with the seed, the horizon and the
    /// hazard, it is all [`ClassedTrace::generate`] reads to place a
    /// class's failure times; the device count enters otherwise only
    /// through the device ids drawn.
    pub fn fleet_gap_ns(&self, num_devices: u32) -> u64 {
        (self.mtbf_device_ns / u64::from(num_devices)).max(1)
    }

    /// A conventional three-class fleet mix: GPU fail-stop (dominant rate,
    /// process restart), NIC/link faults (rarer, slower restart — the
    /// communicator must re-initialise), host loss (rarest, permanent until
    /// a replacement joins). `mtbf_gpu_ns` anchors the mix; the other
    /// classes derive from field-observed ratios (links ~4× rarer, hosts
    /// ~12× rarer than GPUs).
    pub fn standard_mix(mtbf_gpu_ns: u64, restart: DurNs, repair: DurNs) -> Vec<ComponentSpec> {
        vec![
            ComponentSpec {
                component: Component::Gpu,
                mtbf_device_ns: mtbf_gpu_ns,
                hazard: Hazard::Exponential,
                kind: FailureKind::Transient { restart },
            },
            ComponentSpec {
                component: Component::NicLink,
                mtbf_device_ns: mtbf_gpu_ns.saturating_mul(4),
                hazard: Hazard::Exponential,
                // Communicator re-init is slower than a process restart.
                kind: FailureKind::Transient {
                    restart: DurNs(restart.0.saturating_mul(3)),
                },
            },
            ComponentSpec {
                component: Component::Host,
                mtbf_device_ns: mtbf_gpu_ns.saturating_mul(12),
                hazard: Hazard::Exponential,
                kind: FailureKind::Permanent { repair },
            },
        ]
    }
}

/// One failure event tagged with the component class that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassedFailure {
    /// The component class whose stream produced the event.
    pub component: Component,
    /// The failure itself.
    pub failure: Failure,
}

/// A time-sorted multi-class failure trace: the superposition of one
/// seeded stream per [`ComponentSpec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassedTrace {
    events: Vec<ClassedFailure>,
}

impl ClassedTrace {
    /// Generates the fleet-level superposition of per-class streams over
    /// `[0, horizon_ns)` across `num_devices` devices.
    ///
    /// Each class draws from its own [`optimus_detrand`] stream, salted
    /// from `seed` by the class index, with fleet-level mean gap
    /// `mtbf_device_ns / num_devices` — exact for exponential hazards
    /// (superposition of independent Poisson processes is Poisson at the
    /// summed rate) and a standard approximation for the others. The
    /// failing device is drawn uniformly after each gap. Streams are
    /// merged and sorted by `(time, device)`; the result is a pure
    /// function of `(seed, horizon, devices, specs)` and bit-identical on
    /// every platform.
    pub fn generate(
        seed: u64,
        horizon_ns: u64,
        num_devices: u32,
        specs: &[ComponentSpec],
    ) -> Result<ClassedTrace, RecoveryError> {
        if num_devices == 0 || specs.is_empty() {
            return Err(RecoveryError::Invalid(
                "classed generation needs num_devices > 0 and at least one component spec".into(),
            ));
        }
        let mut events = Vec::new();
        for (ci, spec) in specs.iter().enumerate() {
            if spec.mtbf_device_ns == 0 {
                return Err(RecoveryError::Invalid(format!(
                    "component {} has mtbf 0",
                    spec.component.label()
                )));
            }
            let delay = match spec.kind {
                FailureKind::Transient { restart } => restart,
                FailureKind::Permanent { repair } => repair,
            };
            if delay.0 == 0 {
                return Err(RecoveryError::Invalid(format!(
                    "component {} has a zero restart/repair delay",
                    spec.component.label()
                )));
            }
            spec.hazard.validate()?;
            let fleet_mtbf = spec.fleet_gap_ns(num_devices);
            // Salt the seed per class so streams are independent and a
            // class's draws don't shift when another class is added.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut t: u64 = 0;
            loop {
                let gap = spec.hazard.sample_gap(&mut rng, fleet_mtbf);
                t = t.saturating_add(gap.max(1));
                if t >= horizon_ns {
                    break;
                }
                let device = rng.random_range(0..num_devices);
                events.push(ClassedFailure {
                    component: spec.component,
                    failure: Failure {
                        at: TimeNs(t),
                        device,
                        kind: spec.kind,
                    },
                });
            }
        }
        events.sort_by_key(|e| (e.failure.at.0, e.failure.device, e.component));
        Ok(ClassedTrace { events })
    }

    /// The classed events, sorted by time.
    pub fn events(&self) -> &[ClassedFailure] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one component class, in time order.
    pub fn of_component(&self, c: Component) -> impl Iterator<Item = &ClassedFailure> {
        self.events.iter().filter(move |e| e.component == c)
    }

    /// Drops the class tags, yielding the plain [`FailureTrace`] the
    /// lifecycle ledger consumes. Validates like [`FailureTrace::new`].
    pub fn merged(&self) -> Result<FailureTrace, RecoveryError> {
        FailureTrace::new(self.events.iter().map(|e| e.failure).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_rejects_zero_delays() {
        let t = FailureTrace::new(vec![
            Failure {
                at: TimeNs(200),
                device: 1,
                kind: FailureKind::Transient { restart: DurNs(10) },
            },
            Failure {
                at: TimeNs(100),
                device: 0,
                kind: FailureKind::Permanent { repair: DurNs(50) },
            },
        ])
        .expect("trace");
        assert_eq!(t.failures()[0].at, TimeNs(100));
        assert!(FailureTrace::new(vec![Failure {
            at: TimeNs(1),
            device: 0,
            kind: FailureKind::Transient { restart: DurNs(0) },
        }])
        .is_err());
    }

    #[test]
    fn from_model_keeps_only_fail_stop_semantics() {
        let model = FaultModel::new(7)
            .with(FaultScenario::KernelJitter { eps: 0.05 })
            .expect("scenario")
            .with(FaultScenario::DeviceLoss {
                device: 2,
                at: TimeNs(500),
                repair: DurNs(1000),
            })
            .expect("scenario")
            .with(FaultScenario::FailStop {
                device: 1,
                at: TimeNs(100),
                restart: DurNs(50),
            })
            .expect("scenario");
        let t = FailureTrace::from_model(&model);
        assert_eq!(t.len(), 2);
        assert_eq!(t.failures()[0].device, 1);
        assert!(matches!(
            t.failures()[1].kind,
            FailureKind::Permanent {
                repair: DurNs(1000)
            }
        ));
    }

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let cfg = FailureTraceConfig {
            seed: 42,
            horizon_ns: 10_000_000,
            mtbf_ns: 1_000_000,
            num_devices: 4,
            restart: DurNs(5_000),
            repair: DurNs(50_000),
            permanent_every: 3,
            hazard: Hazard::Uniform,
        };
        let a = FailureTrace::generate(&cfg).expect("trace");
        let b = FailureTrace::generate(&cfg).expect("trace");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.failures().iter().all(|f| f.at.0 < cfg.horizon_ns));
        assert!(a.failures().iter().all(|f| f.device < 4));
        // Every third failure is permanent.
        assert!(a
            .failures()
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Permanent { .. })));
        let c = FailureTrace::generate(&FailureTraceConfig { seed: 43, ..cfg }).expect("trace");
        assert_ne!(a, c);
    }

    #[test]
    fn hazard_means_track_the_mtbf() {
        // Empirical mean gap of each hazard should land near the MTBF.
        let mtbf = 1_000_000u64;
        for hazard in [
            Hazard::Uniform,
            Hazard::Exponential,
            Hazard::Weibull { shape: 1.5 },
            Hazard::Weibull { shape: 0.7 },
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let n = 20_000;
            let sum: f64 = (0..n)
                .map(|_| hazard.sample_gap(&mut rng, mtbf) as f64)
                .sum();
            let mean = sum / f64::from(n);
            let rel = (mean - mtbf as f64).abs() / mtbf as f64;
            assert!(rel < 0.05, "{}: mean {mean} vs mtbf {mtbf}", hazard.label());
        }
    }

    #[test]
    fn hazard_draws_are_deterministic() {
        for hazard in [Hazard::Exponential, Hazard::Weibull { shape: 2.0 }] {
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            for _ in 0..100 {
                assert_eq!(
                    hazard.sample_gap(&mut a, 1_000_000),
                    hazard.sample_gap(&mut b, 1_000_000)
                );
            }
        }
    }

    #[test]
    fn hazard_validation_rejects_bad_shapes() {
        assert!(Hazard::Weibull { shape: 0.0 }.validate().is_err());
        assert!(Hazard::Weibull { shape: f64::NAN }.validate().is_err());
        assert!(Hazard::Weibull { shape: 1.5 }.validate().is_ok());
        let cfg = FailureTraceConfig {
            seed: 1,
            horizon_ns: 1_000_000,
            mtbf_ns: 100_000,
            num_devices: 2,
            restart: DurNs(1),
            repair: DurNs(1),
            permanent_every: 0,
            hazard: Hazard::Weibull { shape: -1.0 },
        };
        assert!(FailureTrace::generate(&cfg).is_err());
    }

    #[test]
    fn exponential_generator_is_sorted_and_bounded() {
        let cfg = FailureTraceConfig {
            seed: 5,
            horizon_ns: 50_000_000,
            mtbf_ns: 1_000_000,
            num_devices: 8,
            restart: DurNs(5_000),
            repair: DurNs(50_000),
            permanent_every: 0,
            hazard: Hazard::Exponential,
        };
        let t = FailureTrace::generate(&cfg).expect("trace");
        assert!(!t.is_empty());
        assert!(t.failures().windows(2).all(|w| w[0].at.0 <= w[1].at.0));
        assert!(t.failures().iter().all(|f| f.at.0 < cfg.horizon_ns));
    }

    #[test]
    fn classed_trace_superposes_per_component_streams() {
        let specs = ComponentSpec::standard_mix(
            80_000_000, // per-GPU MTBF
            DurNs(5_000),
            DurNs(500_000),
        );
        let t = ClassedTrace::generate(2026, 200_000_000, 16, &specs).expect("classed trace");
        assert!(!t.is_empty());
        // Deterministic.
        let u = ClassedTrace::generate(2026, 200_000_000, 16, &specs).expect("classed trace");
        assert_eq!(t, u);
        // Sorted and bounded.
        assert!(t
            .events()
            .windows(2)
            .all(|w| w[0].failure.at.0 <= w[1].failure.at.0));
        assert!(t.events().iter().all(|e| e.failure.at.0 < 200_000_000));
        // GPU events dominate (highest rate in the standard mix).
        let gpus = t.of_component(Component::Gpu).count();
        let hosts = t.of_component(Component::Host).count();
        assert!(gpus > hosts, "gpu {gpus} vs host {hosts}");
        // Host events carry permanent kind.
        assert!(t
            .of_component(Component::Host)
            .all(|e| matches!(e.failure.kind, FailureKind::Permanent { .. })));
        // Merged trace is consumable by the ledger.
        let merged = t.merged().expect("merged");
        assert_eq!(merged.len(), t.len());
    }

    #[test]
    fn classed_trace_rejects_degenerate_specs() {
        assert!(ClassedTrace::generate(1, 1_000, 0, &[]).is_err());
        assert!(ClassedTrace::generate(1, 1_000, 4, &[]).is_err());
        let bad = ComponentSpec {
            component: Component::Gpu,
            mtbf_device_ns: 0,
            hazard: Hazard::Exponential,
            kind: FailureKind::Transient { restart: DurNs(1) },
        };
        assert!(ClassedTrace::generate(1, 1_000, 4, &[bad]).is_err());
    }
}
