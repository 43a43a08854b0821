//! In-memory spans for the traced run, and the statistics the metrics
//! are reduced with.
//!
//! A span is `{name, start, end, parent, op}`; spans nest by call order.
//! Spans stay in memory while the run measures and are written once, at
//! the end, so tracing adds no I/O to the timed path.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are microseconds since the run started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name, e.g. `circuit.vmm` or `op.fig8`.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark op this span belongs to, if any.
    pub op: Option<u64>,
}

/// The span recorder. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, op: Option<u64>) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_us = self.t0.elapsed().as_secs_f64() * 1e6;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name, None);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (µs) of each span named `name`: its duration minus the
    /// time its direct children cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.end_us - s.start_us - child[i])
            .collect()
    }

    /// Writes the spans as NDJSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{:?},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"op\":{}}}\n",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op)
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it:
/// a tail that is a measurement, not one outlier.
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let p = [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| n * (1.0 - p) >= 10.0)
        .unwrap_or(0.5);
    quantile(values, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.enter("op", Some(0));
        t.span("check", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let op = t.self_us("op")[0];
        let check = t.self_us("check")[0];
        assert!(check >= 5000.0);
        let whole = t.spans()[0].end_us - t.spans()[0].start_us;
        assert!((op + check - whole).abs() < 1e-6);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), 990.0);
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
