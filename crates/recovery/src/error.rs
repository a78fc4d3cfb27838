//! Typed errors for the recovery engine.

use std::fmt;

/// Everything that can go wrong planning checkpoints or simulating the
/// failure lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Invalid configuration (zero interval, empty horizon, bad factors).
    Invalid(String),
    /// The planner/scheduler failed while pricing a degraded configuration.
    Plan(String),
    /// A lifecycle ledger does not balance (`wall != useful + lost`). This
    /// is a bug, never a data-dependent condition.
    Audit(String),
    /// The combined bubble claims (encoder inserts + checkpoint shards)
    /// failed static analysis — the placement itself is unsound.
    Lint(Vec<String>),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Invalid(msg) => write!(f, "invalid recovery config: {msg}"),
            RecoveryError::Plan(msg) => write!(f, "degraded-plan pricing failed: {msg}"),
            RecoveryError::Audit(msg) => write!(f, "ledger audit failed: {msg}"),
            RecoveryError::Lint(diags) => {
                write!(f, "checkpoint placement failed lint: {}", diags.join("; "))
            }
        }
    }
}

impl std::error::Error for RecoveryError {}
