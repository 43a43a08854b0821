//! [`SweepError`]: the one error type of the evaluation API.
//!
//! Every fallible operation in the sweep crate — scenario checks,
//! workload resolution, evaluator failures, cache I/O, and wire-format
//! checks — reports a `SweepError`. The enum is serde-backed so errors
//! travel losslessly through [`crate::api::EvalResponse`] envelopes and
//! cached reports, and every variant carries enough context to act on
//! without a backtrace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What went wrong, and where.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepError {
    /// The evaluator rejected a scenario: an impossible design point, a
    /// design override on a baseline accelerator, bad attention dimensions.
    InvalidScenario {
        /// Display id of the offending scenario (`design-point` when the
        /// design point itself failed to resolve).
        scenario: String,
        /// Human-readable cause.
        reason: String,
    },
    /// A workload spec did not resolve to concrete GEMMs.
    WorkloadResolution {
        /// The workload label that failed to resolve.
        workload: String,
        /// Human-readable cause.
        reason: String,
    },
    /// The evaluator itself failed on a valid-looking scenario.
    Evaluation {
        /// Display id of the failing cell.
        scenario: String,
        /// Human-readable cause.
        reason: String,
    },
    /// The result cache could not be read, written, or collected.
    CacheIo {
        /// Path of the entry or directory involved.
        path: String,
        /// The underlying I/O error.
        reason: String,
    },
    /// A payload, envelope, or descriptor did not match the expected
    /// schema (wrong API version, undecodable cached payload, malformed
    /// request line, bad shard descriptor).
    SchemaMismatch {
        /// What was being decoded.
        context: String,
        /// Human-readable cause.
        reason: String,
    },
    /// A grid name was not recognized by [`crate::grids::resolve`].
    UnknownGrid {
        /// The name that failed to resolve.
        name: String,
        /// Known alternatives, for the error message.
        known: String,
    },
    /// The server's admission queue is full; nothing was evaluated.
    /// Protocol-v1 clients receive this inside a request-level refusal,
    /// v2 clients as a `Busy` frame.
    Busy {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl SweepError {
    /// Convenience constructor for [`SweepError::InvalidScenario`].
    pub fn invalid(scenario: impl Into<String>, reason: impl fmt::Display) -> Self {
        SweepError::InvalidScenario {
            scenario: scenario.into(),
            reason: reason.to_string(),
        }
    }

    /// Convenience constructor for [`SweepError::WorkloadResolution`].
    pub fn workload(workload: impl Into<String>, reason: impl fmt::Display) -> Self {
        SweepError::WorkloadResolution {
            workload: workload.into(),
            reason: reason.to_string(),
        }
    }

    /// Convenience constructor for [`SweepError::Evaluation`].
    pub fn evaluation(scenario: impl Into<String>, reason: impl fmt::Display) -> Self {
        SweepError::Evaluation {
            scenario: scenario.into(),
            reason: reason.to_string(),
        }
    }

    /// Convenience constructor for [`SweepError::CacheIo`].
    pub fn cache_io(path: impl Into<String>, reason: impl fmt::Display) -> Self {
        SweepError::CacheIo {
            path: path.into(),
            reason: reason.to_string(),
        }
    }

    /// Convenience constructor for [`SweepError::SchemaMismatch`].
    pub fn schema(context: impl Into<String>, reason: impl fmt::Display) -> Self {
        SweepError::SchemaMismatch {
            context: context.into(),
            reason: reason.to_string(),
        }
    }

    /// Short machine-readable category name (stable across reworded
    /// messages; used by reports and logs).
    pub fn category(&self) -> &'static str {
        match self {
            SweepError::InvalidScenario { .. } => "invalid-scenario",
            SweepError::WorkloadResolution { .. } => "workload-resolution",
            SweepError::Evaluation { .. } => "evaluation",
            SweepError::CacheIo { .. } => "cache-io",
            SweepError::SchemaMismatch { .. } => "schema-mismatch",
            SweepError::UnknownGrid { .. } => "unknown-grid",
            SweepError::Busy { .. } => "busy",
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidScenario { scenario, reason } => {
                write!(f, "invalid scenario `{scenario}`: {reason}")
            }
            SweepError::WorkloadResolution { workload, reason } => {
                write!(f, "workload `{workload}` did not resolve: {reason}")
            }
            SweepError::Evaluation { scenario, reason } => {
                write!(f, "evaluation of `{scenario}` failed: {reason}")
            }
            SweepError::CacheIo { path, reason } => {
                write!(f, "cache I/O on `{path}` failed: {reason}")
            }
            SweepError::SchemaMismatch { context, reason } => {
                write!(f, "schema mismatch in {context}: {reason}")
            }
            SweepError::UnknownGrid { name, known } => {
                write!(f, "unknown grid `{name}` (try one of: {known})")
            }
            SweepError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SweepError::workload("qdqbert", "not in the zoo");
        assert_eq!(
            e.to_string(),
            "workload `qdqbert` did not resolve: not in the zoo"
        );
        assert_eq!(e.category(), "workload-resolution");
    }

    #[test]
    fn errors_round_trip_through_json() {
        let all = vec![
            SweepError::invalid("yoco/x", "zero tiles"),
            SweepError::workload("m", "unknown"),
            SweepError::evaluation("study/fig6a", "sim diverged"),
            SweepError::cache_io("/tmp/x.json", "permission denied"),
            SweepError::schema("request", "bad version"),
            SweepError::UnknownGrid {
                name: "nope".into(),
                known: "fig8, fig10".into(),
            },
            SweepError::Busy {
                retry_after_ms: 250,
            },
        ];
        let text = serde_json::to_string(&all).unwrap();
        let back: Vec<SweepError> = serde_json::from_str(&text).unwrap();
        assert_eq!(all, back);
    }
}
