//! The evaluation API: the crate's primary, versioned, typed interface.
//!
//! Everything a frontend needs lives here:
//!
//! * [`SweepError`] — the structured error enum every fallible operation
//!   in the crate returns (no more `Result<_, String>`);
//! * [`Metrics`] — typed cell payloads
//!   ([`Gemm`](Metrics::Gemm)/[`Attention`](Metrics::Attention)/[`Study`](Metrics::Study));
//! * [`EvalRequest`]/[`EvalResponse`] (framed by [`Request`]/[`Response`])
//!   — the versioned NDJSON wire format `yoco-serve` speaks;
//! * [`Shard`] — deterministic grid slicing for CI matrices and
//!   multi-host runs sharing one cache.
//!
//! The server side of one exchange runs in process through
//! [`Runtime::handle_line`](crate::serve::Runtime::handle_line), with a
//! `Vec<Response>` collecting the reply frames. Cells are built with the
//! [`Scenario`] constructors and checked where they are evaluated: an
//! invalid cell comes back `Failed` with a typed [`SweepError`], next to
//! its batch's good cells.
//!
//! ```
//! use yoco_sweep::api::{CellStatus, EvalRequest, Request, Response};
//! use yoco_sweep::{
//!     AcceleratorKind, DesignPoint, Engine, Runtime, Scenario, ServeConfig, StudyId, WorkloadSpec,
//! };
//!
//! let resnet18 = || WorkloadSpec::Zoo { model: "resnet18".into() };
//! let half_chip = DesignPoint { tiles: Some(2), ..Default::default() };
//! let batch = vec![
//!     Scenario::gemm(AcceleratorKind::Yoco, half_chip, resnet18()),
//!     Scenario::study(StudyId::Table2),
//!     // Design overrides only apply to the YOCO chip:
//!     Scenario::gemm(AcceleratorKind::Isaac, half_chip, resnet18()),
//! ];
//! let line = serde_json::to_string(&Request::Eval(EvalRequest::new("r-1", batch))).unwrap();
//! let runtime = Runtime::new(Engine::ephemeral(), ServeConfig::default());
//! let mut frames: Vec<Response> = Vec::new();
//! runtime.handle_line(&line, &mut frames).unwrap();
//! let [Response::Eval(response)] = &frames[..] else {
//!     unreachable!("a v1 request gets one buffered Eval response");
//! };
//! assert_eq!(response.cells.len(), 3);
//! assert_eq!(response.cells[1].status, CellStatus::Computed);
//! let bad = &response.cells[2];
//! assert_eq!(bad.status, CellStatus::Failed);
//! assert_eq!(bad.error.as_ref().unwrap().category(), "invalid-scenario");
//! ```

mod builder;
mod error;
mod metrics;
mod wire;

pub use error::SweepError;
pub use metrics::Metrics;
pub use wire::{
    CellOutcome, CellStatus, EvalRequest, EvalResponse, Request, Response, StatusReport, API_V1,
    API_V2, API_VERSION,
};

pub use crate::telemetry::MetricsReport;

use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};

/// A deterministic `i/n` slice of a scenario list.
///
/// Shard `i` of `n` takes every scenario whose position is congruent to
/// `i − 1` modulo `n` (1-based, round-robin — so long-running cells
/// spread evenly instead of clustering in one shard). Shards of the same
/// grid are disjoint and their union is the grid; hosts sharing a result
/// cache can run shards independently and any later whole-grid run
/// assembles entirely from hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// 1-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/n` (e.g. `2/4`), requiring `1 ≤ i ≤ n`.
    pub fn parse(text: &str) -> Result<Self, SweepError> {
        let bad = |reason: &str| SweepError::schema(format!("shard descriptor `{text}`"), reason);
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| bad("expected the form i/n, e.g. 2/4"))?;
        let index: usize = i.trim().parse().map_err(|_| bad("index is not a number"))?;
        let count: usize = n.trim().parse().map_err(|_| bad("count is not a number"))?;
        if count == 0 {
            return Err(bad("count must be at least 1"));
        }
        if index == 0 || index > count {
            return Err(bad("index must be in 1..=count"));
        }
        Ok(Self { index, count })
    }

    /// The positions (into a list of length `len`) this shard owns, in
    /// ascending order — the round-robin rule itself, shared by
    /// [`Shard::select`] and the cluster coordinator's fan-out
    /// partitioning so the two cannot drift.
    pub fn select_indices(&self, len: usize) -> Vec<usize> {
        (0..len)
            .filter(|i| i % self.count == self.index - 1)
            .collect()
    }

    /// The scenarios this shard owns, in original order.
    pub fn select(&self, scenarios: &[Scenario]) -> Vec<Scenario> {
        self.select_indices(scenarios.len())
            .into_iter()
            .map(|i| scenarios[i].clone())
            .collect()
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StudyId;

    #[test]
    fn shard_parse_accepts_valid_and_rejects_degenerate_forms() {
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, count: 4 });
        assert_eq!(Shard::parse("1/1").unwrap(), Shard { index: 1, count: 1 });
        for bad in ["", "3", "0/4", "5/4", "a/4", "2/0", "2/b"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn shards_partition_the_grid() {
        let grid: Vec<Scenario> = StudyId::ALL.into_iter().map(Scenario::study).collect();
        let n = 4;
        let mut seen = Vec::new();
        for index in 1..=n {
            let shard = Shard { index, count: n };
            let part = shard.select(&grid);
            // Round-robin: shard sizes differ by at most one.
            assert!(part.len() >= grid.len() / n);
            assert!(part.len() <= grid.len().div_ceil(n));
            seen.extend(part);
        }
        assert_eq!(seen.len(), grid.len(), "disjoint and complete");
        for s in &grid {
            assert!(seen.contains(s), "{} missing", s.id);
        }
        // 1/1 is the whole grid, in order.
        assert_eq!(Shard { index: 1, count: 1 }.select(&grid), grid);
    }
}
