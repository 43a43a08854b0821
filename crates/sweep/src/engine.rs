//! The experiment engine: cache lookup → parallel evaluation → ordered
//! assembly, with typed payloads and structured errors end-to-end.

use crate::api::{Metrics, SweepError};
use crate::cache::ResultCache;
use crate::eval;
use crate::executor;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// Result of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The scenario that produced this cell.
    pub scenario: Scenario,
    /// Content-addressed cache key.
    pub key: String,
    /// Whether the payload came from the cache.
    pub cached: bool,
    /// Evaluation error, if the cell failed.
    pub error: Option<SweepError>,
    /// The computed payload (`None` exactly when `error` is set).
    pub metrics: Option<Metrics>,
}

/// Assembled results of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Cells in scenario order (independent of execution schedule).
    pub cells: Vec<CellResult>,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed fresh.
    pub misses: usize,
    /// Wall-clock of the run, milliseconds.
    pub elapsed_ms: u64,
}

impl SweepReport {
    /// The typed payload for a cell id, if it succeeded.
    pub fn metrics(&self, id: &str) -> Option<&Metrics> {
        self.cells
            .iter()
            .find(|c| c.scenario.id == id && c.error.is_none())
            .and_then(|c| c.metrics.as_ref())
    }

    /// Ids and errors of failed cells.
    pub fn errors(&self) -> Vec<(String, SweepError)> {
        self.cells
            .iter()
            .filter_map(|c| c.error.clone().map(|e| (c.scenario.id.clone(), e)))
            .collect()
    }

    /// Canonical JSON of the *content* of the run: scenarios, keys, and
    /// cache-form payloads, excluding schedule-dependent metadata
    /// (`cached`, timing). Two runs of the same grid — serial or
    /// parallel, cold or warm, sharded or whole — produce byte-identical
    /// canonical JSON for the same cells.
    pub fn canonical_json(&self) -> String {
        let content: Vec<(&Scenario, &str, Value)> = self
            .cells
            .iter()
            .map(|c| {
                let payload = c
                    .metrics
                    .as_ref()
                    .map(Metrics::cache_value)
                    .unwrap_or(Value::Null);
                (&c.scenario, c.key.as_str(), payload)
            })
            .collect();
        serde_json::to_string_pretty(&content).expect("report serialization is infallible")
    }

    /// One-line cache summary for CLI output.
    pub fn cache_summary(&self) -> String {
        format!(
            "{} cells: {} cache hits, {} computed, {} ms",
            self.cells.len(),
            self.hits,
            self.misses,
            self.elapsed_ms
        )
    }
}

/// Execution policy: cache location (or none) and parallelism.
#[derive(Debug, Clone)]
pub struct Engine {
    cache: Option<ResultCache>,
    jobs: usize,
    force: bool,
}

impl Engine {
    /// No cache, serial execution: a pure in-memory evaluation, used by
    /// library callers (e.g. `fig8_table()`) and as the determinism
    /// reference.
    pub fn ephemeral() -> Self {
        Self {
            cache: None,
            jobs: 1,
            force: false,
        }
    }

    /// The production policy: workspace cache, one worker per core.
    pub fn cached() -> Self {
        Self {
            cache: Some(ResultCache::default_location()),
            jobs: executor::default_jobs(),
            force: false,
        }
    }

    /// Replaces the cache location.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Disables the cache.
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Sets the worker count (`1` = serial). The calling thread is one of
    /// the workers. The same count also bounds the threads inside one
    /// cell: fig6d spreads its Monte-Carlo instances over up to `jobs`
    /// threads, the engine worker that runs it included.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Recomputes every cell, refreshing (but not consulting) the cache.
    pub fn force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }

    /// The cache in use, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Runs a scenario grid.
    pub fn run(&self, scenarios: &[Scenario]) -> SweepReport {
        self.run_with(scenarios, |_, _| {})
    }

    /// Runs a scenario grid, calling `observe(index, &cell)` as each cell
    /// completes — in completion order, on the worker thread that
    /// computed it. This is the hook streaming frontends use to emit
    /// per-cell frames while the batch is still in flight; the returned
    /// report is identical to [`Engine::run`]'s (assembled in scenario
    /// order, independent of the schedule).
    pub fn run_with<O>(&self, scenarios: &[Scenario], observe: O) -> SweepReport
    where
        O: Fn(usize, &CellResult) + Sync,
    {
        let start = Instant::now();
        let cells = executor::run_indexed_observed(
            scenarios.len(),
            self.jobs,
            |i| self.run_cell(&scenarios[i]),
            observe,
        );
        let hits = cells.iter().filter(|c| c.cached).count();
        let misses = cells.len() - hits;
        SweepReport {
            cells,
            hits,
            misses,
            elapsed_ms: start.elapsed().as_millis() as u64,
        }
    }

    fn run_cell(&self, scenario: &Scenario) -> CellResult {
        // Hash, store, and compare the canonical form so differently
        // spelled but semantically identical scenarios share one entry.
        let kind = scenario.kind.normalized();
        let key = kind.cache_key();
        if !self.force {
            if let Some(cache) = &self.cache {
                if let Some(payload) = cache.lookup(&key, &kind) {
                    // An entry whose stored shape no longer decodes is a
                    // stale schema, not an error: fall through and
                    // recompute (the store below refreshes it).
                    if let Ok(metrics) = Metrics::from_cache_value(&kind, &payload) {
                        return CellResult {
                            scenario: scenario.clone(),
                            key,
                            cached: true,
                            error: None,
                            metrics: Some(metrics),
                        };
                    }
                }
            }
        }
        match eval::evaluate(&kind, self.jobs) {
            Ok(metrics) => {
                if let Some(cache) = &self.cache {
                    if let Err(e) = cache.store(&key, &kind, &metrics.cache_value()) {
                        eprintln!("warning: could not cache {}: {e}", scenario.id);
                    }
                }
                CellResult {
                    scenario: scenario.clone(),
                    key,
                    cached: false,
                    error: None,
                    metrics: Some(metrics),
                }
            }
            Err(e) => CellResult {
                scenario: scenario.clone(),
                key,
                cached: false,
                error: Some(e),
                metrics: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, WorkloadSpec};
    use yoco_arch::workload::LayerKind;

    fn small_grid() -> Vec<Scenario> {
        AcceleratorKind::ALL
            .into_iter()
            .flat_map(|acc| {
                [(4u64, 256u64), (16, 512)].into_iter().map(move |(m, k)| {
                    Scenario::gemm(
                        acc,
                        DesignPoint::paper(),
                        WorkloadSpec::Gemm {
                            name: format!("g{m}x{k}"),
                            m,
                            k,
                            n: k,
                            kind: LayerKind::Linear,
                        },
                    )
                })
            })
            .collect()
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let grid = vec![
            Scenario::gemm(
                AcceleratorKind::Yoco,
                DesignPoint::paper(),
                WorkloadSpec::Zoo {
                    model: "no-such-model".into(),
                },
            ),
            small_grid().remove(0),
        ];
        let report = Engine::ephemeral().run(&grid);
        assert_eq!(report.cells.len(), 2);
        let errors = report.errors();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].1.to_string().contains("no-such-model"));
        assert_eq!(errors[0].1.category(), "workload-resolution");
        assert!(report.cells[1].error.is_none());
        assert!(report.cells[1].metrics.is_some());
        assert!(report.cells[0].metrics.is_none());
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        let grid = small_grid();
        let serial = Engine::ephemeral().run(&grid);
        let parallel = Engine::ephemeral().jobs(8).run(&grid);
        assert_eq!(serial.canonical_json(), parallel.canonical_json());
    }

    #[test]
    fn run_with_observes_every_cell_and_matches_run() {
        use std::sync::Mutex;
        let grid = small_grid();
        let plain = Engine::ephemeral().run(&grid);
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let observed = Engine::ephemeral().jobs(4).run_with(&grid, |_, cell| {
            seen.lock().unwrap().push(cell.scenario.id.clone());
        });
        assert_eq!(plain.canonical_json(), observed.canonical_json());
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let mut expected: Vec<String> = grid.iter().map(|s| s.id.clone()).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected, "one observation per cell");
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = Engine::ephemeral().run(&small_grid());
        let text = serde_json::to_string(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
    }
}
