//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::task::TaskId;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The schedule deadlocked: some tasks can never start because a stream's
    /// FIFO head waits (transitively) on a task queued behind another blocked
    /// head.
    Deadlock {
        /// Tasks that never executed.
        stuck: Vec<TaskId>,
        /// Label of the first stuck task, for diagnostics.
        first_label: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck, first_label } => write!(
                f,
                "schedule deadlock: {} tasks never executed (first: {first_label})",
                stuck.len()
            ),
        }
    }
}

impl Error for SimError {}
