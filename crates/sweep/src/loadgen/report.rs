//! Latency aggregation and the persisted loadgen trajectory.
//!
//! * [`LatencyHistogram`] — re-exported from [`crate::telemetry::hist`],
//!   where the HDR-style log-linear histogram now lives so the server's
//!   metrics registry and this client-side aggregation share one bucket
//!   layout (and one `merge`).
//! * [`Summary`] — one run boiled down: achieved-vs-offered rate,
//!   Busy/error/deadline shares, the latency percentiles, and the
//!   per-mix-entry breakdown ([`EntrySummary`]).
//! * [`LoadgenRecord`] / history helpers — the append-only
//!   `results/loadgen_history.json` rows (method × config × timestamp),
//!   the `loadgen report` trajectory table, and the CI p99 gate.

pub use crate::telemetry::hist::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How one issued request ended, as the driver saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The exchange completed (all cells delivered).
    Ok,
    /// The server answered `Busy` (admission queue full or deadline
    /// expired in queue).
    Busy,
    /// A transport or protocol error (connection lost, undecodable
    /// frame, per-cell evaluation failure).
    Error,
}

/// One run summarized: counts, rates, and percentiles.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Arrivals the schedule offered.
    pub offered: usize,
    /// Requests actually issued (== offered unless the run was cut).
    pub sent: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests answered `Busy`.
    pub busy: usize,
    /// Requests that failed in transport or evaluation.
    pub errors: usize,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Offered arrival rate (requests/s).
    pub offered_rps: f64,
    /// Completed requests per wall-clock second.
    pub achieved_rps: f64,
    /// Latency of *successful* requests, measured from the scheduled
    /// send instant (coordinated-omission-aware: queueing behind a
    /// stalled connection counts against the server).
    pub latency: LatencyHistogram,
    /// The same run sliced per mix entry, in mix order — one histogram
    /// per entry, so a tail regression attributes to the grid /
    /// protocol / cache-temperature combination that caused it.
    pub entries: Vec<EntrySummary>,
}

/// One mix entry's slice of a run: its own counts and latency
/// histogram. The entry histograms merge back into [`Summary::latency`]
/// exactly (same buckets, disjoint samples).
#[derive(Debug, Clone)]
pub struct EntrySummary {
    /// The entry's canonical label ([`super::MixEntry::label`]).
    pub label: String,
    /// Requests issued for this entry.
    pub sent: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests answered `Busy`.
    pub busy: usize,
    /// Requests that failed in transport or evaluation.
    pub errors: usize,
    /// Latency of this entry's successful requests.
    pub latency: LatencyHistogram,
}

impl Summary {
    /// `Busy` share of issued requests (`0.0..=1.0`).
    pub fn busy_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.busy as f64 / self.sent as f64
    }

    /// Error share of issued requests (`0.0..=1.0`).
    pub fn error_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.errors as f64 / self.sent as f64
    }
}

/// Schema tag of one history row.
pub const LOADGEN_SCHEMA: &str = "yoco-loadgen/v1";
/// Schema tag of the history envelope.
pub const LOADGEN_HISTORY_SCHEMA: &str = "yoco-loadgen-history/v1";

/// One persisted loadgen run: method × config × outcome × timestamp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenRecord {
    /// Always [`LOADGEN_SCHEMA`].
    pub schema: String,
    /// What was driven: `serve`, `coordinator`, or `cluster` (free-form
    /// label; gate comparisons group by it).
    pub target: String,
    /// Canonical mix label ([`super::Mix::label`]).
    pub mix: String,
    /// Arrival-kind label ([`super::ArrivalKind::label`]).
    pub arrivals: String,
    /// Offered arrival rate (requests/s).
    pub rate: f64,
    /// Configured run duration in milliseconds.
    pub duration_ms: u64,
    /// Driver connections.
    pub connections: usize,
    /// Arrivals the schedule offered.
    pub offered: usize,
    /// Requests issued.
    pub sent: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests answered `Busy`.
    pub busy: usize,
    /// Requests failed (transport/evaluation).
    pub errors: usize,
    /// Completed requests per wall-clock second.
    pub achieved_rps: f64,
    /// `Busy` share of issued requests.
    pub busy_rate: f64,
    /// Latency percentiles (successful requests, scheduled-instant
    /// based), milliseconds.
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Maximum latency, milliseconds.
    pub max_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Unix timestamp of the run.
    pub recorded_at_unix_s: u64,
    /// Per-mix-entry breakdown, in mix order. `None` for rows recorded
    /// before the breakdown existed (older history files still parse).
    pub entries: Option<Vec<EntryRecord>>,
}

/// One mix entry's persisted slice of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntryRecord {
    /// The entry's canonical label (e.g. `fig9a:v1=3`).
    pub label: String,
    /// Requests issued for this entry.
    pub sent: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests answered `Busy`.
    pub busy: usize,
    /// Requests failed (transport/evaluation).
    pub errors: usize,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
}

/// The configuration labels identifying one loadgen run: everything
/// about a row that was chosen up front rather than measured.
#[derive(Debug, Clone)]
pub struct RunShape {
    /// What was driven (`serve`, `coordinator`, `cluster`, ...).
    pub target: String,
    /// Request mix label.
    pub mix: String,
    /// Arrival schedule label.
    pub arrivals: String,
    /// Offered rate, requests/second.
    pub rate: f64,
    /// Run window.
    pub duration: Duration,
    /// Driver connections.
    pub connections: usize,
}

impl LoadgenRecord {
    /// Builds a row from a run summary plus its configuration labels.
    pub fn from_summary(summary: &Summary, shape: &RunShape, recorded_at_unix_s: u64) -> Self {
        Self {
            schema: LOADGEN_SCHEMA.to_owned(),
            target: shape.target.clone(),
            mix: shape.mix.clone(),
            arrivals: shape.arrivals.clone(),
            rate: shape.rate,
            duration_ms: shape.duration.as_millis() as u64,
            connections: shape.connections,
            offered: summary.offered,
            sent: summary.sent,
            completed: summary.completed,
            busy: summary.busy,
            errors: summary.errors,
            achieved_rps: summary.achieved_rps,
            busy_rate: summary.busy_rate(),
            p50_ms: summary.latency.quantile_ms(0.50),
            p90_ms: summary.latency.quantile_ms(0.90),
            p99_ms: summary.latency.quantile_ms(0.99),
            p999_ms: summary.latency.quantile_ms(0.999),
            max_ms: summary.latency.max_ms(),
            mean_ms: summary.latency.mean_ms(),
            recorded_at_unix_s,
            entries: Some(
                summary
                    .entries
                    .iter()
                    .map(|e| EntryRecord {
                        label: e.label.clone(),
                        sent: e.sent,
                        completed: e.completed,
                        busy: e.busy,
                        errors: e.errors,
                        p50_ms: e.latency.quantile_ms(0.50),
                        p99_ms: e.latency.quantile_ms(0.99),
                        p999_ms: e.latency.quantile_ms(0.999),
                    })
                    .collect(),
            ),
        }
    }

    /// The grouping key for trajectory comparison: two rows with equal
    /// keys measured the same thing and may be gated against each
    /// other.
    pub fn config_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.target, self.mix, self.arrivals, self.rate, self.connections
        )
    }
}

/// The on-disk envelope of `results/loadgen_history.json`.
#[derive(Debug, Serialize, Deserialize)]
pub struct LoadgenHistory {
    /// Always [`LOADGEN_HISTORY_SCHEMA`].
    pub schema: String,
    /// Append-only rows, oldest first.
    pub runs: Vec<LoadgenRecord>,
}

/// Reads a history file; a missing file is an empty history.
pub fn read_history(path: &str) -> Result<Vec<LoadgenRecord>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let history: LoadgenHistory =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a loadgen history: {e}"))?;
    Ok(history.runs)
}

/// Appends one row and rewrites the history file, creating its
/// directory if needed (`results/` is not part of a fresh checkout).
pub fn append_history(path: &str, record: LoadgenRecord) -> Result<usize, String> {
    let mut runs = read_history(path)?;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    runs.push(record);
    let history = LoadgenHistory {
        schema: LOADGEN_HISTORY_SCHEMA.to_owned(),
        runs,
    };
    let json = serde_json::to_string_pretty(&history)
        .map_err(|e| format!("cannot serialize loadgen history: {e}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(history.runs.len())
}

/// Renders the `results.md`-style trajectory table: one row per run,
/// oldest first, grouped by nothing — the timestamp column *is* the
/// trajectory.
pub fn render_table(runs: &[LoadgenRecord]) -> String {
    let mut out = String::new();
    out.push_str(
        "| recorded (unix) | target | mix | arrivals | rate | conns | achieved | busy% | p50 ms | p99 ms | p999 ms |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in runs {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.0}/s | {} | {:.1}/s | {:.1} | {:.2} | {:.2} | {:.2} |\n",
            r.recorded_at_unix_s,
            r.target,
            r.mix,
            r.arrivals,
            r.rate,
            r.connections,
            r.achieved_rps,
            r.busy_rate * 100.0,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
        ));
        // Per-mix-entry sub-rows: only worth a line when the mix has
        // more than one entry (a single entry repeats the run row).
        if let Some(entries) = r.entries.as_deref().filter(|e| e.len() > 1) {
            for e in entries {
                let busy_pct = if e.sent > 0 {
                    e.busy as f64 * 100.0 / e.sent as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "| | ↳ {} | | | | | {}/{} ok | {:.1} | {:.2} | {:.2} | {:.2} |\n",
                    e.label, e.completed, e.sent, busy_pct, e.p50_ms, e.p99_ms, e.p999_ms,
                ));
            }
        }
    }
    out
}

/// The CI regression gate over the latest row of each config key:
/// fails when a latest p99 exceeds `factor` × the best earlier p99 for
/// the same key, or `max_p99_ms` when set. Keys with a single row pass
/// (nothing to regress against) unless they break the absolute floor.
/// Returns a human-readable verdict per gated key, or the first
/// failure.
pub fn gate(
    runs: &[LoadgenRecord],
    factor: f64,
    max_p99_ms: Option<f64>,
) -> Result<Vec<String>, String> {
    if runs.is_empty() {
        return Err("loadgen history is empty — nothing to gate".into());
    }
    let mut verdicts = Vec::new();
    let mut seen_keys: Vec<String> = Vec::new();
    for (i, latest) in runs.iter().enumerate() {
        let key = latest.config_key();
        // Gate only each key's latest row.
        if runs[i + 1..].iter().any(|r| r.config_key() == key) {
            continue;
        }
        if seen_keys.contains(&key) {
            continue;
        }
        seen_keys.push(key.clone());
        if let Some(floor) = max_p99_ms {
            if latest.p99_ms > floor {
                return Err(format!(
                    "{key}: p99 {:.2} ms exceeds the absolute floor {floor:.2} ms",
                    latest.p99_ms
                ));
            }
        }
        let best_prior = runs[..i]
            .iter()
            .filter(|r| r.config_key() == key)
            .map(|r| r.p99_ms)
            .fold(f64::INFINITY, f64::min);
        if best_prior.is_finite() {
            let limit = best_prior * factor;
            if latest.p99_ms > limit {
                return Err(format!(
                    "{key}: p99 regressed to {:.2} ms (best prior {:.2} ms, limit {:.2} ms = \
                     {factor}x)",
                    latest.p99_ms, best_prior, limit
                ));
            }
            verdicts.push(format!(
                "{key}: p99 {:.2} ms within {factor}x of best prior {:.2} ms",
                latest.p99_ms, best_prior
            ));
        } else {
            verdicts.push(format!(
                "{key}: p99 {:.2} ms (first row for this config)",
                latest.p99_ms
            ));
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(target: &str, p99: f64, at: u64) -> LoadgenRecord {
        LoadgenRecord {
            schema: LOADGEN_SCHEMA.into(),
            target: target.into(),
            mix: "fig9a".into(),
            arrivals: "fixed".into(),
            rate: 100.0,
            duration_ms: 1000,
            connections: 4,
            offered: 100,
            sent: 100,
            completed: 100,
            busy: 0,
            errors: 0,
            achieved_rps: 99.0,
            busy_rate: 0.0,
            p50_ms: p99 / 2.0,
            p90_ms: p99 / 1.5,
            p99_ms: p99,
            p999_ms: p99 * 1.2,
            max_ms: p99 * 1.5,
            mean_ms: p99 / 2.0,
            recorded_at_unix_s: at,
            entries: None,
        }
    }

    #[test]
    fn gate_passes_within_factor_and_rejects_regressions() {
        let runs = vec![row("serve", 2.0, 1), row("serve", 3.0, 2)];
        assert!(gate(&runs, 2.0, None).is_ok(), "1.5x within a 2x factor");
        let runs = vec![row("serve", 2.0, 1), row("serve", 5.0, 2)];
        let err = gate(&runs, 2.0, None).expect_err("2.5x beyond a 2x factor");
        assert!(err.contains("regressed"), "{err}");
        // Only the latest row per key is gated: a past spike that later
        // recovered passes.
        let runs = vec![
            row("serve", 2.0, 1),
            row("serve", 9.0, 2),
            row("serve", 2.1, 3),
        ];
        assert!(gate(&runs, 2.0, None).is_ok());
        // Distinct targets gate independently.
        let runs = vec![row("serve", 2.0, 1), row("cluster", 50.0, 2)];
        assert!(gate(&runs, 2.0, None).is_ok());
        // The absolute floor applies even to first rows.
        let err = gate(&[row("serve", 30.0, 1)], 2.0, Some(10.0)).expect_err("absolute floor");
        assert!(err.contains("absolute floor"), "{err}");
        assert!(gate(&[], 2.0, None).is_err(), "empty history fails loudly");
    }

    #[test]
    fn history_round_trips_and_renders() {
        let dir = std::env::temp_dir().join(format!("loadgen-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The first append creates the missing directory.
        let path = dir.join("results").join("history.json");
        let path = path.to_str().unwrap();
        assert_eq!(read_history(path).unwrap().len(), 0);
        assert_eq!(append_history(path, row("serve", 2.0, 1)).unwrap(), 1);
        assert_eq!(append_history(path, row("cluster", 4.0, 2)).unwrap(), 2);
        let runs = read_history(path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].target, "serve");
        let table = render_table(&runs);
        assert!(table.contains("| serve |") && table.contains("| cluster |"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn multi_entry_mixes_render_per_entry_sub_rows() {
        let entry = |label: &str, sent: usize, p99: f64| EntryRecord {
            label: label.into(),
            sent,
            completed: sent,
            busy: 0,
            errors: 0,
            p50_ms: p99 / 2.0,
            p99_ms: p99,
            p999_ms: p99 * 1.1,
        };
        let mut run = row("serve", 2.0, 1);
        run.mix = "fig9a=9,fig9a:v1=1".into();
        run.entries = Some(vec![entry("fig9a=9", 90, 1.8), entry("fig9a:v1", 10, 4.2)]);
        let table = render_table(std::slice::from_ref(&run));
        assert!(table.contains("| | ↳ fig9a=9 |"), "{table}");
        assert!(table.contains("| | ↳ fig9a:v1 |"), "{table}");
        assert!(table.contains("90/90 ok"), "{table}");

        // A single-entry mix keeps the table to one row per run.
        run.entries = Some(vec![entry("fig9a", 100, 2.0)]);
        let table = render_table(std::slice::from_ref(&run));
        assert!(!table.contains('↳'), "{table}");

        // Legacy rows (no `entries` key at all) still parse.
        let serde_json::Value::Object(full) = serde_json::to_value(&row("serve", 2.0, 1)) else {
            panic!("a record serializes as an object");
        };
        let mut legacy = serde_json::Map::new();
        for (key, value) in full.iter().filter(|(k, _)| k.as_str() != "entries") {
            legacy.insert(key.clone(), value.clone());
        }
        let back: LoadgenRecord =
            serde_json::from_value(&serde_json::Value::Object(legacy)).unwrap();
        assert!(back.entries.is_none());
    }
}
