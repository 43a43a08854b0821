//! # yoco-telemetry — server-side metrics and request tracing
//!
//! The observability substrate of the serve/cluster runtime: a
//! [`Registry`] of atomic counters, one gauge, and log-linear histograms
//! ([`hist`]), which also writes request-scoped stage records when its
//! server traces ([`Registry::traced`]; [`trace`] reads them back).
//!
//! ## One registry per server
//!
//! Each server — a [`Runtime`](crate::serve::Runtime), single box or
//! coordinator — owns its registry and commits every request to it.
//! Counters and histograms are two tables, each metric one row: `add`
//! moves a counter, and `observe` records a sample plus, for a request
//! stage whose span is open, its span record. The layers that share no
//! other state with the runtime reach the same registry through it: the
//! reactor records its loop passes, reads, fd sheds and slow-reader
//! disconnects via [`Runtime::metrics`](crate::serve::Runtime::metrics),
//! and the cluster fan-out is handed it per request. Two servers in one
//! process therefore never mix their counts or, tracing into separate
//! directories, their spans; `Status` is a view over the registry plus
//! the admission gate, and tests assert absolute values on a fresh
//! instance. Production runs one server per process.
//!
//! ## Exposition
//!
//! [`Registry::snapshot`] freezes everything into a [`MetricsReport`]
//! — the payload of the gate-bypassing `Metrics` control frame (a
//! fully busy server still answers, like `Status`). The report renders
//! as Prometheus-style text via [`MetricsReport::render_prometheus`]
//! for mid-run scraping:
//!
//! ```text
//! $ sweep client metrics
//! # TYPE yoco_requests_total counter
//! yoco_requests_total 512
//! # TYPE yoco_queue_wait_us summary
//! yoco_queue_wait_us{quantile="0.5"} 41
//! yoco_queue_wait_us{quantile="0.99"} 979
//! yoco_queue_wait_us_sum 31337
//! yoco_queue_wait_us_count 512
//! ```
//!
//! Instrumentation must not perturb the data plane: no response frame
//! carries a timestamp or span id, so warm v1 responses stay
//! byte-identical with telemetry (and tracing) enabled — CI diffs them.

pub mod hist;
pub mod trace;

pub use hist::{HistBucket, HistSnapshot, LatencyHistogram};
pub use trace::SpanRecord;

use crate::api::StatusReport;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Schema tag of the [`MetricsReport`] answered to a `Metrics` frame.
pub const METRICS_SCHEMA: &str = "yoco-metrics/v1";

/// A monotone count ([`Registry::add`]), in `COUNTERS` order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    /// Evaluation requests that reached the server, admitted or not.
    Requests,
    /// Evaluation requests completed.
    Served,
    /// Evaluation requests refused at admission (`Busy`).
    Rejected,
    /// Queued requests shed unserved past their deadline.
    DeadlineDrops,
    /// Requests answered from the warm response memo.
    MemoServed,
    /// Cells the completed requests delivered.
    Cells,
    /// Delivered cells the cache (or memo) answered.
    CacheHits,
    /// Delivered cells computed (or failed) fresh.
    CacheMisses,
    /// Accepted connections the reactor shed at the fd limit.
    FdSheds,
    /// Slow readers the reactor disconnected (output buffer overflow).
    SlowReaderDisconnects,
    /// Cells the coordinator requeued off a lost worker.
    ClusterRequeues,
}

/// Each [`Counter`]'s name, in `Counter` order: the one place it is
/// written.
const COUNTERS: [&str; 11] = [
    "requests_total",
    "requests_served_total",
    "requests_rejected_total",
    "deadline_drops_total",
    "memo_served_total",
    "cells_total",
    "cache_hits_total",
    "cache_misses_total",
    "fd_sheds_total",
    "slow_reader_disconnects_total",
    "cluster_requeues_total",
];

/// A latency histogram in µs ([`Registry::observe`]), in `HISTS` order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hist {
    /// One reactor event-loop pass.
    LoopIter,
    /// One readable-socket drain plus line parse.
    ReadParse,
    /// Request stage: receipt → admission.
    Queued,
    /// Request stage: the backend call (a memo replay has none).
    Eval,
    /// Request stage: backend end → terminal frame serialized, before
    /// it leaves.
    Flush,
}

/// Each [`Hist`]'s name and, for a request stage, the stage's name in
/// span records, in `Hist` order: the one place either is written.
const HISTS: [(&str, Option<&str>); 5] = [
    ("loop_iter_us", None),
    ("read_parse_us", None),
    ("queue_wait_us", Some("queued")),
    ("eval_us", Some("eval")),
    ("flush_us", Some("flush")),
];

/// One server's metrics registry, owned by its [`Runtime`](crate::serve::Runtime).
#[derive(Debug, Default)]
pub struct Registry {
    /// One count per [`Counter`].
    counters: [AtomicU64; COUNTERS.len()],
    /// The one gauge: the out-buffer high-water mark in bytes, a
    /// running max.
    outbuf_highwater_bytes: AtomicU64,
    /// One histogram per [`Hist`].
    hists: [Mutex<LatencyHistogram>; HISTS.len()],
    /// Per-worker cluster dispatch latency, keyed by worker address.
    dispatch_us: Mutex<Vec<(String, LatencyHistogram)>>,
    /// A traced server's span file ([`Registry::traced`]).
    span_file: Option<Mutex<File>>,
    /// The sequence this server's own span ids are minted from.
    span_seq: AtomicU64,
}

/// Saturating micros of a duration, the unit every histogram records.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl Registry {
    /// A registry that also writes span records: each stage of a
    /// request whose span is open ([`Registry::span`]) appends one line
    /// to `dir/spans-<pid>.ndjson`, creating `dir`. The file is named by
    /// the process, so two servers in one process trace into separate
    /// directories.
    pub fn traced(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}.ndjson", std::process::id()));
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            span_file: Some(Mutex::new(file)),
            ..Self::default()
        })
    }

    /// Opens request `id`'s span when this registry traces (`None`
    /// otherwise): the span a coordinator embedded in `id`
    /// ([`trace::embedded_span`]), adopted so the two hosts' records
    /// stitch, or else a fresh `PID-SEQ` one (both hex). `batch` names
    /// what the records describe, a grid and a cell count, and runs only
    /// when tracing. The record returned is every stage's, short of the
    /// stage and its duration.
    pub fn span(&self, id: &str, batch: impl FnOnce() -> (String, usize)) -> Option<SpanRecord> {
        self.span_file.as_ref()?;
        let span = match trace::embedded_span(id) {
            Some(embedded) => embedded.to_owned(),
            None => format!(
                "{:x}-{:x}",
                std::process::id(),
                self.span_seq.fetch_add(1, Ordering::Relaxed)
            ),
        };
        let (grid, cells) = batch();
        Some(SpanRecord {
            span,
            id: id.to_owned(),
            grid,
            stage: String::new(),
            dur_us: 0,
            cells,
        })
    }

    /// Adds `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one `hist` sample and, when `hist` is a request stage
    /// and the request's `span` is open, the stage's span record. The
    /// record is written through at once, so a live server's spans are
    /// readable; a write error is swallowed (observability must not
    /// fail requests).
    pub(crate) fn observe(&self, hist: Hist, dur: Duration, span: Option<&SpanRecord>) {
        let dur_us = micros(dur);
        self.hists[hist as usize]
            .lock()
            .expect("histogram lock")
            .record_us(dur_us);
        let stage = HISTS[hist as usize].1;
        if let (Some(stage), Some(file), Some(span)) = (stage, &self.span_file, span) {
            let record = SpanRecord {
                stage: stage.to_owned(),
                dur_us,
                ..span.clone()
            };
            let mut line =
                serde_json::to_string(&record).expect("span serialization is infallible");
            line.push('\n');
            // One write per record, so an append lands whole.
            let mut file = file.lock().expect("span file lock");
            let _ = file.write_all(line.as_bytes());
        }
    }

    /// Raises the out-buffer high-water mark to `bytes` if higher.
    pub fn note_outbuf_depth(&self, bytes: u64) {
        self.outbuf_highwater_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Records one cluster shard dispatch against `worker`.
    pub fn observe_dispatch(&self, worker: &str, d: Duration) {
        let mut per_worker = self.dispatch_us.lock().unwrap();
        match per_worker.iter_mut().find(|(addr, _)| addr == worker) {
            Some((_, hist)) => hist.record_us(micros(d)),
            None => {
                let mut hist = LatencyHistogram::default();
                hist.record_us(micros(d));
                per_worker.push((worker.to_owned(), hist));
            }
        }
    }

    /// Copies the service counters into a [`StatusReport`] (the caller
    /// supplies role, sizing, and the gate's load figures).
    pub fn fill_status(&self, report: &mut StatusReport) {
        let count = |counter: Counter| self.counters[counter as usize].load(Ordering::Relaxed);
        report.served = count(Counter::Served);
        report.cells = count(Counter::Cells);
        report.hits = count(Counter::CacheHits);
        report.misses = count(Counter::CacheMisses);
        report.rejected = count(Counter::Rejected);
        report.fd_sheds = count(Counter::FdSheds);
        report.slow_reader_disconnects = count(Counter::SlowReaderDisconnects);
    }

    /// Freezes every metric into a serializable report, each table in
    /// its order and the dispatch histograms last.
    pub fn snapshot(&self) -> MetricsReport {
        let sample = |name: &str, value: &AtomicU64| MetricSample {
            name: name.to_owned(),
            value: value.load(Ordering::Relaxed),
        };
        let mut hists: Vec<HistSnapshot> = HISTS
            .iter()
            .zip(&self.hists)
            .map(|(&(name, _), hist)| hist.lock().expect("histogram lock").snapshot(name))
            .collect();
        let per_worker = self.dispatch_us.lock().expect("dispatch histogram lock");
        for (worker, hist) in per_worker.iter() {
            hists.push(hist.snapshot(format!("cluster_dispatch_us:{worker}")));
        }
        MetricsReport {
            schema: METRICS_SCHEMA.to_owned(),
            counters: COUNTERS
                .iter()
                .zip(&self.counters)
                .map(|(name, value)| sample(name, value))
                .collect(),
            gauges: vec![sample(
                "outbuf_highwater_bytes",
                &self.outbuf_highwater_bytes,
            )],
            hists,
        }
    }
}

/// One named counter or gauge sample on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (unprefixed; exposition prepends `yoco_`).
    pub name: String,
    /// The sampled value.
    pub value: u64,
}

/// A point-in-time copy of the whole registry — the payload of the
/// `Metrics` control frame. Like `Status`, it bypasses admission
/// control, so a fully busy server still answers a scrape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Always [`METRICS_SCHEMA`].
    pub schema: String,
    /// Monotone counters.
    pub counters: Vec<MetricSample>,
    /// Instantaneous gauges.
    pub gauges: Vec<MetricSample>,
    /// Sparse histogram snapshots.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsReport {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// Looks up a histogram snapshot by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the report as Prometheus-style text exposition:
    /// counters and gauges as single samples, histograms as summaries
    /// (`{quantile="…"}` samples plus `_sum`/`_count`). Per-worker
    /// histogram names (`base:HOST:PORT`) become a `worker` label.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for sample in &self.counters {
            out.push_str(&format!(
                "# TYPE yoco_{n} counter\nyoco_{n} {v}\n",
                n = sample.name,
                v = sample.value
            ));
        }
        for sample in &self.gauges {
            out.push_str(&format!(
                "# TYPE yoco_{n} gauge\nyoco_{n} {v}\n",
                n = sample.name,
                v = sample.value
            ));
        }
        let mut typed: Vec<&str> = Vec::new();
        for snap in &self.hists {
            let (base, worker) = match snap.name.split_once(':') {
                Some((base, worker)) => (base, Some(worker)),
                None => (snap.name.as_str(), None),
            };
            if !typed.contains(&base) {
                typed.push(base);
                out.push_str(&format!("# TYPE yoco_{base} summary\n"));
            }
            let label = |extra: &str| match (worker, extra.is_empty()) {
                (Some(w), true) => format!("{{worker=\"{w}\"}}"),
                (Some(w), false) => format!("{{worker=\"{w}\",{extra}}}"),
                (None, true) => String::new(),
                (None, false) => format!("{{{extra}}}"),
            };
            let hist = LatencyHistogram::from_snapshot(snap);
            for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "yoco_{base}{} {}\n",
                    label(&format!("quantile=\"{tag}\"")),
                    hist.quantile_us(q)
                ));
            }
            out.push_str(&format!("yoco_{base}_sum{} {}\n", label(""), snap.sum_us));
            out.push_str(&format!("yoco_{base}_count{} {}\n", label(""), snap.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_snapshots_absolute_values() {
        let registry = Registry::default();
        let fresh = registry.snapshot();
        assert!(fresh.counters.iter().all(|c| c.value == 0), "{fresh:?}");
        assert_eq!(fresh.hist("queue_wait_us").unwrap().count, 0);

        registry.add(Counter::Requests, 1);
        registry.add(Counter::Requests, 1);
        registry.add(Counter::Rejected, 1);
        registry.add(Counter::Served, 1);
        registry.add(Counter::Cells, 5);
        registry.add(Counter::CacheHits, 3);
        registry.add(Counter::CacheMisses, 2);
        registry.observe(Hist::Queued, Duration::from_micros(250), None);
        let report = registry.snapshot();
        assert_eq!(report.counter("requests_total"), Some(2));
        assert_eq!(report.counter("requests_served_total"), Some(1));
        assert_eq!(report.counter("requests_rejected_total"), Some(1));
        assert_eq!(report.counter("cells_total"), Some(5));
        assert_eq!(report.counter("cache_hits_total"), Some(3));
        assert_eq!(report.counter("cache_misses_total"), Some(2));
        assert_eq!(report.hist("queue_wait_us").unwrap().count, 1);
        assert_eq!(report.schema, METRICS_SCHEMA);

        let mut status = StatusReport::default();
        registry.fill_status(&mut status);
        assert_eq!(
            (status.served, status.cells, status.hits, status.misses),
            (1, 5, 3, 2)
        );
        assert_eq!(status.rejected, 1);
    }

    #[test]
    fn gauges_track_outbuf_highwater() {
        let registry = Registry::default();
        registry.note_outbuf_depth(4096);
        registry.note_outbuf_depth(1024);
        let report = registry.snapshot();
        assert_eq!(report.gauge("outbuf_highwater_bytes"), Some(4096));
    }

    #[test]
    fn report_round_trips_and_renders_prometheus() {
        let registry = Registry::default();
        registry.add(Counter::Requests, 1);
        registry.observe(Hist::Eval, Duration::from_millis(3), None);
        registry.observe_dispatch("127.0.0.1:7177", Duration::from_millis(2));
        let report = registry.snapshot();
        let text = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);

        let prom = report.render_prometheus();
        assert!(prom.contains("# TYPE yoco_requests_total counter"));
        assert!(prom.contains("yoco_requests_total 1"));
        assert!(prom.contains("# TYPE yoco_eval_us summary"));
        assert!(prom.contains("yoco_eval_us_count 1"));
        assert!(prom.contains("yoco_eval_us{quantile=\"0.99\"}"));
        assert!(
            prom.contains("yoco_cluster_dispatch_us_count{worker=\"127.0.0.1:7177\"} 1"),
            "per-worker histograms get a worker label:\n{prom}"
        );
    }

    #[test]
    fn a_snapshot_names_every_metric_in_a_fixed_order() {
        let registry = Registry::default();
        let names = |report: &MetricsReport| {
            let samples =
                |s: &[MetricSample]| -> Vec<String> { s.iter().map(|s| s.name.clone()).collect() };
            let hists: Vec<String> = report.hists.iter().map(|h| h.name.clone()).collect();
            (samples(&report.counters), samples(&report.gauges), hists)
        };
        let (counters, gauges, hists) = names(&registry.snapshot());
        assert_eq!(
            counters,
            [
                "requests_total",
                "requests_served_total",
                "requests_rejected_total",
                "deadline_drops_total",
                "memo_served_total",
                "cells_total",
                "cache_hits_total",
                "cache_misses_total",
                "fd_sheds_total",
                "slow_reader_disconnects_total",
                "cluster_requeues_total",
            ]
        );
        assert_eq!(gauges, ["outbuf_highwater_bytes"]);
        let mut expected = vec![
            "loop_iter_us",
            "read_parse_us",
            "queue_wait_us",
            "eval_us",
            "flush_us",
        ];
        assert_eq!(hists, expected);

        registry.observe_dispatch("a:1", Duration::from_millis(1));
        expected.push("cluster_dispatch_us:a:1");
        let (counters_after, gauges_after, hists) = names(&registry.snapshot());
        assert_eq!((counters_after, gauges_after), (counters, gauges));
        assert_eq!(hists, expected);
    }

    #[test]
    fn each_counter_and_histogram_moves_only_its_own_name() {
        let moved = |registry: &Registry| -> Vec<String> {
            let report = registry.snapshot();
            let counters = report.counters.iter().filter(|c| c.value > 0);
            let hists = report.hists.iter().filter(|h| h.count > 0);
            let counters = counters.map(|c| c.name.clone());
            counters.chain(hists.map(|h| h.name.clone())).collect()
        };
        for (counter, name) in [
            (Counter::Requests, "requests_total"),
            (Counter::Served, "requests_served_total"),
            (Counter::Rejected, "requests_rejected_total"),
            (Counter::DeadlineDrops, "deadline_drops_total"),
            (Counter::MemoServed, "memo_served_total"),
            (Counter::Cells, "cells_total"),
            (Counter::CacheHits, "cache_hits_total"),
            (Counter::CacheMisses, "cache_misses_total"),
            (Counter::FdSheds, "fd_sheds_total"),
            (
                Counter::SlowReaderDisconnects,
                "slow_reader_disconnects_total",
            ),
            (Counter::ClusterRequeues, "cluster_requeues_total"),
        ] {
            let registry = Registry::default();
            registry.add(counter, 1);
            assert_eq!(moved(&registry), [name], "{counter:?}");
        }
        // Traced, so a stage row that names the wrong stage shows too.
        let dir = std::env::temp_dir().join(format!("yoco-telemetry-moves-{}", std::process::id()));
        for (hist, name, stage) in [
            (Hist::LoopIter, "loop_iter_us", None),
            (Hist::ReadParse, "read_parse_us", None),
            (Hist::Queued, "queue_wait_us", Some("queued")),
            (Hist::Eval, "eval_us", Some("eval")),
            (Hist::Flush, "flush_us", Some("flush")),
        ] {
            let dir = dir.join(name);
            let registry = Registry::traced(&dir).expect("trace dir opens");
            let span = registry.span("r-1", || ("study/fig9a".into(), 1));
            registry.observe(hist, Duration::from_micros(7), span.as_ref());
            assert_eq!(moved(&registry), [name], "{hist:?}");
            let records = trace::read_spans(&dir).expect("spans parse");
            let stages: Vec<String> = records.into_iter().map(|r| r.stage).collect();
            assert_eq!(stages, Vec::from_iter(stage), "{hist:?}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn two_client_ids_with_one_span_marker_get_two_minted_spans() {
        let dir =
            std::env::temp_dir().join(format!("yoco-telemetry-client-span-{}", std::process::id()));
        let registry = Registry::traced(&dir).expect("trace dir opens");
        let batch = || ("study/fig9a".to_owned(), 1);
        let a = registry.span("client-a#tbeef", batch).expect("traced").span;
        let b = registry.span("client-b#tbeef", batch).expect("traced").span;
        let minted = format!("{:x}-", std::process::id());
        assert!(a.starts_with(&minted) && b.starts_with(&minted), "{a} {b}");
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dispatch_histograms_accumulate_per_worker() {
        let registry = Registry::default();
        registry.observe_dispatch("a:1", Duration::from_millis(1));
        registry.observe_dispatch("a:1", Duration::from_millis(2));
        registry.observe_dispatch("b:2", Duration::from_millis(3));
        let report = registry.snapshot();
        assert_eq!(report.hist("cluster_dispatch_us:a:1").unwrap().count, 2);
        assert_eq!(report.hist("cluster_dispatch_us:b:2").unwrap().count, 1);
    }
}
