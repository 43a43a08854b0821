//! Request-scoped stage tracing: span ids and NDJSON span records.
//!
//! When a server starts with `--trace-dir DIR`, every evaluation
//! request gets a **span id** minted at admission (`PID-SEQ`, both
//! hex), and each stage it passes through — `queued` (receipt →
//! admission), `eval` (engine run), `flush` (eval end → terminal frame
//! ready to send) — appends one [`SpanRecord`] line to
//! `DIR/spans-<pid>.ndjson`. Every record is written before the
//! request's terminal frame leaves, so a client that has its answer can
//! read all of its spans.
//!
//! ## Cross-host stitching
//!
//! A tracing cluster coordinator embeds its span in the sub-request ids
//! it fans out (`{id}#t{span}r{round}w{worker}`); a worker *adopts* an
//! embedded span instead of minting its own, so the coordinator's and
//! workers' span files — collected into one directory — stitch into a
//! single trace under one span id. Span ids live only in server-bound
//! request ids and server-local span files, never in a response frame:
//! the client-visible bytes are identical with tracing on or off.
//!
//! `sweep trace report` aggregates a directory of span files into the
//! per-grid stage-breakdown table ([`render_stage_table`]).

use super::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// One stage of one traced request, as written to the span file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The span id (`PID-SEQ` hex; shared across hosts via embedding).
    pub span: String,
    /// The request id the span belongs to (the sub-request id on a
    /// cluster worker).
    pub id: String,
    /// Grid proxy: the first scenario id of the batch.
    pub grid: String,
    /// `queued`, `eval`, or `flush`.
    pub stage: String,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// Cells in the batch (0 for stages that don't know).
    pub cells: usize,
}

/// The live trace sink: one append-only NDJSON file per process.
struct Tracer {
    writer: Mutex<BufWriter<File>>,
    seq: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Enables tracing for this process, appending span records to
/// `dir/spans-<pid>.ndjson`. Idempotent: a second call (same or
/// different directory) keeps the first sink.
pub fn init(dir: &Path) -> io::Result<()> {
    if TRACER.get().is_some() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}.ndjson", std::process::id()));
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let _ = TRACER.set(Tracer {
        writer: Mutex::new(BufWriter::new(file)),
        seq: AtomicU64::new(0),
    });
    Ok(())
}

/// Whether this process writes span records.
pub fn enabled() -> bool {
    TRACER.get().is_some()
}

/// The span id for a request: the one embedded in a coordinator-minted
/// sub-request id if present, a fresh mint otherwise. `None` when
/// tracing is disabled — callers skip all span bookkeeping.
pub fn span_for_request(id: &str) -> Option<String> {
    let tracer = TRACER.get()?;
    if let Some(embedded) = embedded_span(id) {
        return Some(embedded.to_owned());
    }
    Some(format!(
        "{:x}-{:x}",
        std::process::id(),
        tracer.seq.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Extracts the span embedded in a sub-request id of the form
/// `…#t<span>r<round>w<worker>`. Span ids are hex-and-dash only, so the
/// scan stops exactly at the `r` of the round counter.
pub fn embedded_span(id: &str) -> Option<&str> {
    let (_, tail) = id.rsplit_once("#t")?;
    let end = tail
        .find(|c: char| !c.is_ascii_hexdigit() && c != '-')
        .unwrap_or(tail.len());
    (end > 0).then(|| &tail[..end])
}

/// Appends one stage record for `span`. A no-op when tracing is off;
/// write errors are swallowed (observability must not fail requests).
pub fn record(span: &str, id: &str, grid: &str, stage: &str, dur: Duration, cells: usize) {
    let Some(tracer) = TRACER.get() else {
        return;
    };
    let record = SpanRecord {
        span: span.to_owned(),
        id: id.to_owned(),
        grid: grid.to_owned(),
        stage: stage.to_owned(),
        dur_us: dur.as_micros().min(u128::from(u64::MAX)) as u64,
        cells,
    };
    let Ok(line) = serde_json::to_string(&record) else {
        return;
    };
    let mut writer = tracer.writer.lock().unwrap();
    // Flush per record so scrapers and the e2e read a live server's
    // spans without waiting for shutdown.
    let _ = writeln!(writer, "{line}");
    let _ = writer.flush();
}

/// Reads every `*.ndjson` span file under `dir` (one per traced
/// process), oldest-path-first for determinism. A missing directory is
/// an empty trace; an undecodable line is an error naming the file.
pub fn read_spans(dir: &Path) -> Result<Vec<SpanRecord>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ndjson"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record: SpanRecord = serde_json::from_str(line)
                .map_err(|e| format!("{}: bad span line: {e}", path.display()))?;
            records.push(record);
        }
    }
    Ok(records)
}

/// Renders the stage-breakdown table: per grid, one row per stage with
/// span count and p50/p99/max — the answer to "is that p99 queueing,
/// eval, or write-flush?".
pub fn render_stage_table(records: &[SpanRecord]) -> String {
    let mut grids: Vec<&str> = Vec::new();
    for r in records {
        if !grids.contains(&r.grid.as_str()) {
            grids.push(&r.grid);
        }
    }
    grids.sort_unstable();
    let mut out = String::from(
        "| grid | stage | spans | p50 ms | p99 ms | max ms |\n|---|---|---|---|---|---|\n",
    );
    for grid in grids {
        for stage in ["queued", "eval", "flush"] {
            let mut hist = LatencyHistogram::default();
            for r in records {
                if r.grid == grid && r.stage == stage {
                    hist.record_us(r.dur_us);
                }
            }
            if hist.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "| {grid} | {stage} | {} | {:.3} | {:.3} | {:.3} |\n",
                hist.count(),
                hist.quantile_ms(0.50),
                hist.quantile_ms(0.99),
                hist.max_ms(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spans_parse_out_of_sub_request_ids() {
        assert_eq!(embedded_span("req-1#t3f2a-7r0w2"), Some("3f2a-7"));
        assert_eq!(embedded_span("req-1#tdeadbeef-0r12w0"), Some("deadbeef-0"));
        // Plain ids, and degenerate tails, carry no span.
        assert_eq!(embedded_span("req-1"), None);
        assert_eq!(embedded_span("req-1#r0w2"), None);
        assert_eq!(embedded_span("req#t"), None);
        // A span at the very end of the id (no round suffix) still parses.
        assert_eq!(embedded_span("req#tab-1"), Some("ab-1"));
    }

    #[test]
    fn span_records_round_trip_and_tabulate() {
        let mk = |grid: &str, stage: &str, dur_us: u64| SpanRecord {
            span: "1f-0".into(),
            id: "r-1".into(),
            grid: grid.into(),
            stage: stage.into(),
            dur_us,
            cells: 2,
        };
        let records = vec![
            mk("study/fig9a", "queued", 50),
            mk("study/fig9a", "eval", 2_000),
            mk("study/fig9a", "flush", 30),
            mk("study/table2", "eval", 900),
        ];
        for r in &records {
            let text = serde_json::to_string(r).unwrap();
            let back: SpanRecord = serde_json::from_str(&text).unwrap();
            assert_eq!(*r, back);
        }
        let table = render_stage_table(&records);
        assert!(table.contains("| study/fig9a | queued | 1 |"));
        assert!(table.contains("| study/fig9a | eval | 1 |"));
        assert!(table.contains("| study/fig9a | flush | 1 |"));
        assert!(table.contains("| study/table2 | eval | 1 |"));
        assert!(
            !table.contains("| study/table2 | queued |"),
            "stages with no spans are omitted"
        );
    }

    #[test]
    fn reading_a_missing_directory_is_an_empty_trace() {
        let dir = std::env::temp_dir().join(format!("yoco-no-such-trace-{}", std::process::id()));
        assert_eq!(read_spans(&dir).unwrap(), Vec::new());
    }

    #[test]
    fn span_files_read_back_from_a_directory() {
        let dir = std::env::temp_dir().join(format!("yoco-trace-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = SpanRecord {
            span: "aa-1".into(),
            id: "r-9".into(),
            grid: "study/fig9a".into(),
            stage: "eval".into(),
            dur_us: 1234,
            cells: 3,
        };
        let line = serde_json::to_string(&record).unwrap();
        std::fs::write(dir.join("spans-1.ndjson"), format!("{line}\n{line}\n")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let records = read_spans(&dir).unwrap();
        assert_eq!(records, vec![record.clone(), record]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
