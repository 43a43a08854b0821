//! # yoco-telemetry — server-side metrics and request tracing
//!
//! The observability substrate of the serve/cluster runtime: a
//! [`Registry`] of atomic counters, gauges, and log-linear histograms
//! ([`hist`]), plus request-scoped stage tracing ([`trace`]).
//!
//! ## One registry per server
//!
//! Each server — a [`Runtime`](crate::serve::Runtime), single box or
//! coordinator — owns its registry and commits every request to it.
//! The layers that share no other state with the runtime reach the same
//! registry through it: the reactor records its loop passes, reads, fd
//! sheds and slow-reader disconnects via
//! [`Runtime::metrics`](crate::serve::Runtime::metrics), and the
//! cluster fan-out is handed it per request. Two servers in one process
//! therefore never mix their counts, `Status` is a view over the
//! registry plus the admission gate, and tests assert absolute values
//! on a fresh instance.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Schema tag of the [`MetricsReport`] answered to a `Metrics` frame.
pub const METRICS_SCHEMA: &str = "yoco-metrics/v1";

/// One server's metrics registry, owned by its [`Runtime`](crate::serve::Runtime).
#[derive(Debug, Default)]
pub struct Registry {
    // Counters (monotone).
    requests_total: AtomicU64,
    requests_served_total: AtomicU64,
    requests_rejected_total: AtomicU64,
    deadline_drops_total: AtomicU64,
    memo_served_total: AtomicU64,
    cells_total: AtomicU64,
    cache_hits_total: AtomicU64,
    cache_misses_total: AtomicU64,
    fd_sheds_total: AtomicU64,
    slow_reader_disconnects_total: AtomicU64,
    cluster_requeues_total: AtomicU64,
    // Gauges.
    outbuf_highwater_bytes: AtomicU64,
    // Histograms (µs).
    loop_iter_us: Mutex<LatencyHistogram>,
    read_parse_us: Mutex<LatencyHistogram>,
    queue_wait_us: Mutex<LatencyHistogram>,
    eval_us: Mutex<LatencyHistogram>,
    flush_us: Mutex<LatencyHistogram>,
    /// Per-worker cluster dispatch latency, keyed by worker address.
    dispatch_us: Mutex<Vec<(String, LatencyHistogram)>>,
}

/// Saturating micros of a duration, the unit every histogram records.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl Registry {
    /// One evaluation request reached the server (admitted or not).
    pub fn note_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// One evaluation request was refused at admission (`Busy`).
    pub fn note_rejected(&self) {
        self.requests_rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// One queued request expired its deadline and was shed unserved.
    pub fn note_deadline_drop(&self) {
        self.deadline_drops_total.fetch_add(1, Ordering::Relaxed);
    }

    /// One request was answered from the warm response memo.
    pub fn note_memo_served(&self) {
        self.memo_served_total.fetch_add(1, Ordering::Relaxed);
    }

    /// One evaluation request completed, delivering `cells` cells split
    /// into cache `hits` and `misses`.
    pub fn note_served(&self, cells: u64, hits: u64, misses: u64) {
        self.requests_served_total.fetch_add(1, Ordering::Relaxed);
        self.cells_total.fetch_add(cells, Ordering::Relaxed);
        self.cache_hits_total.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses_total.fetch_add(misses, Ordering::Relaxed);
    }

    /// The reactor shed an accepted connection at the fd limit.
    pub fn note_fd_shed(&self) {
        self.fd_sheds_total.fetch_add(1, Ordering::Relaxed);
    }

    /// The reactor disconnected a slow reader (output buffer overflow).
    pub fn note_slow_reader_disconnect(&self) {
        self.slow_reader_disconnects_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The cluster coordinator requeued `cells` cells off a lost worker.
    pub fn note_requeued_cells(&self, cells: u64) {
        self.cluster_requeues_total
            .fetch_add(cells, Ordering::Relaxed);
    }

    /// Raises the out-buffer high-water mark to `bytes` if higher.
    pub fn note_outbuf_depth(&self, bytes: u64) {
        self.outbuf_highwater_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Records one reactor event-loop pass.
    pub fn observe_loop_iter(&self, d: Duration) {
        self.loop_iter_us.lock().unwrap().record_us(micros(d));
    }

    /// Records one readable-socket drain + line parse.
    pub fn observe_read_parse(&self, d: Duration) {
        self.read_parse_us.lock().unwrap().record_us(micros(d));
    }

    /// Records one request's receipt→admission wait.
    pub fn observe_queue_wait(&self, d: Duration) {
        self.queue_wait_us.lock().unwrap().record_us(micros(d));
    }

    /// Records one request's engine evaluation time.
    pub fn observe_eval(&self, d: Duration) {
        self.eval_us.lock().unwrap().record_us(micros(d));
    }

    /// Records one request's response-flush time: eval end → terminal
    /// frame serialized, just before it is handed to the connection
    /// (the sample commits before the frame leaves).
    pub fn observe_flush(&self, d: Duration) {
        self.flush_us.lock().unwrap().record_us(micros(d));
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
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        report.served = load(&self.requests_served_total);
        report.cells = load(&self.cells_total);
        report.hits = load(&self.cache_hits_total);
        report.misses = load(&self.cache_misses_total);
        report.rejected = load(&self.requests_rejected_total);
        report.fd_sheds = load(&self.fd_sheds_total);
        report.slow_reader_disconnects = load(&self.slow_reader_disconnects_total);
    }

    /// Freezes every metric into a serializable report.
    pub fn snapshot(&self) -> MetricsReport {
        let counter = |name: &str, v: &AtomicU64| MetricSample {
            name: name.to_owned(),
            value: v.load(Ordering::Relaxed),
        };
        let mut hists = vec![
            self.loop_iter_us.lock().unwrap().snapshot("loop_iter_us"),
            self.read_parse_us.lock().unwrap().snapshot("read_parse_us"),
            self.queue_wait_us.lock().unwrap().snapshot("queue_wait_us"),
            self.eval_us.lock().unwrap().snapshot("eval_us"),
            self.flush_us.lock().unwrap().snapshot("flush_us"),
        ];
        for (worker, hist) in self.dispatch_us.lock().unwrap().iter() {
            hists.push(hist.snapshot(format!("cluster_dispatch_us:{worker}")));
        }
        MetricsReport {
            schema: METRICS_SCHEMA.to_owned(),
            counters: vec![
                counter("requests_total", &self.requests_total),
                counter("requests_served_total", &self.requests_served_total),
                counter("requests_rejected_total", &self.requests_rejected_total),
                counter("deadline_drops_total", &self.deadline_drops_total),
                counter("memo_served_total", &self.memo_served_total),
                counter("cells_total", &self.cells_total),
                counter("cache_hits_total", &self.cache_hits_total),
                counter("cache_misses_total", &self.cache_misses_total),
                counter("fd_sheds_total", &self.fd_sheds_total),
                counter(
                    "slow_reader_disconnects_total",
                    &self.slow_reader_disconnects_total,
                ),
                counter("cluster_requeues_total", &self.cluster_requeues_total),
            ],
            gauges: vec![counter(
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

        registry.note_request();
        registry.note_request();
        registry.note_rejected();
        registry.note_served(5, 3, 2);
        registry.observe_queue_wait(Duration::from_micros(250));
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
        registry.note_request();
        registry.observe_eval(Duration::from_millis(3));
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
