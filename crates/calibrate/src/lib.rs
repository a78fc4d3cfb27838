//! optimus-calibrate — trace ingestion, hardware-model calibration, and
//! simulator-fidelity validation.
//!
//! Every planning decision in this workspace rides on two analytic cost
//! models: the roofline [`GpuProfile`](optimus_cluster::GpuProfile) and the
//! α–β ring [`CommCostModel`](optimus_cluster::CommCostModel). This crate
//! closes the loop between those models and observed executions in three
//! layers:
//!
//! 1. **Ingestion** ([`ingest`], [`samples`]) — parse Chrome-trace JSON
//!    (round-tripping the traces `optimus-trace` writes, or profiler output
//!    shaped the same way) into per-device busy/idle timelines compatible
//!    with the planner's [`DeviceProfile`](optimus_core::DeviceProfile)
//!    view, and parse JSONL kernel logs pairing each observation with its
//!    workload footprint. All malformed input maps to typed
//!    [`CalibrateError`]s.
//! 2. **Fitting** ([`fit`](mod@fit)) — closed-form deterministic least squares that
//!    recovers per-kernel-class efficiencies and per-link-class α–β
//!    parameters, producing a [`Calibration`] whose
//!    [`context`](Calibration::context) plugs straight into `run_optimus`
//!    and the adaptive re-planning loop.
//! 3. **Fidelity validation** ([`fidelity`]) — re-simulate under a model
//!    and compare against the observed timeline: per-stream makespan error,
//!    per-interval overlap error, and bubble-structure agreement, reported
//!    as JSON or a rendered table.
//! 4. **MTBF fitting** ([`mtbf`]) — recover per-component failure rates
//!    (GPU fail-stop, NIC/link fault, host loss) from the fault-event
//!    track via the censored-exponential MLE, feeding the fleet-scale
//!    resilience what-if engine.
//!
//! [`synth`] provides the deterministic ground-truth generator used by the
//! closed-loop recovery tests and the `calibrate_fidelity` bench.

pub mod error;
pub mod fidelity;
pub mod fit;
pub mod ingest;
pub mod mtbf;
pub mod samples;
pub mod synth;

pub use error::CalibrateError;
pub use fidelity::{DeviceBubbles, FidelityReport, StreamFidelity};
pub use fit::{fit, Calibration, FittedParam};
pub use ingest::{IngestedAnnotation, IngestedSpan, IngestedTrace};
pub use mtbf::{fit_mtbf, ComponentRate, MtbfCalibration};
pub use samples::{CommOp, CommSample, KernelLog, KernelSample};
pub use synth::{apply_profiles, closed_loop_input, perturb_topology, synth_log};
