//! Typed errors for the fleet what-if engine.

use std::fmt;

use optimus_recovery::RecoveryError;

/// Everything that can go wrong running a fleet what-if study.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Invalid scenario or study configuration.
    Invalid(String),
    /// An underlying recovery primitive (trace generation, parameter
    /// validation, the lifecycle ledger and its audit) rejected its input.
    Recovery(RecoveryError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Invalid(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Recovery(e) => write!(f, "recovery primitive failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<RecoveryError> for FleetError {
    fn from(e: RecoveryError) -> FleetError {
        FleetError::Recovery(e)
    }
}

/// Shorthand for `Err(FleetError::Invalid(...))`.
pub(crate) fn invalid<T>(msg: impl Into<String>) -> Result<T, FleetError> {
    Err(FleetError::Invalid(msg.into()))
}
