//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`)
//! and the layer-presence table: which per-layer metrics must be nonzero
//! on which workload, and which must stay at zero.

use std::collections::BTreeMap;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["cold-figures", "warm-serve"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all six.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_share", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("circuit.mismatch_sample_us", "us"),
    ("circuit.array_build_us", "us"),
    ("circuit.vmm_us", "us"),
    ("circuit.mc_instances_per_s", "1/s"),
    ("nn.standin_train_ms", "ms"),
    ("nn.analog_eval_ms", "ms"),
    ("core.evaluate_model_us.resnet18", "us"),
    ("core.evaluate_model_us.qdqbert", "us"),
    ("core.attention_us", "us"),
    ("core.cells", "count"),
    ("studies.fig6d_ms", "ms"),
    ("studies.fig6bc_ms", "ms"),
    ("studies.fig6f_ms", "ms"),
    ("studies.rest_ms", "ms"),
    ("engine.cells", "count"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.busy_s", "s"),
    ("engine.idle_share", "ratio"),
    ("cache.store_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.entries_written", "count"),
    ("api.parse_us.fig8", "us"),
    ("api.parse_us.fig9a", "us"),
    ("api.parse_us.subset", "us"),
    ("api.parse_us.dse-full", "us"),
    ("api.frame_ser_us", "us"),
    ("api.response_decode_us", "us"),
    ("serve.warm_inline_us.fig8", "us"),
    ("serve.warm_inline_us.fig9a", "us"),
    ("serve.warm_inline_us.subset", "us"),
    ("serve.cold_handle_ms", "ms"),
    ("serve.memo_served_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.eval_us_p50", "us"),
    ("serve.flush_us_p50", "us"),
    ("reactor.loop_iter_us_p50", "us"),
    ("reactor.loop_iter_us_p99", "us"),
    ("reactor.read_parse_us_p50", "us"),
    ("reactor.transport_us", "us"),
    ("client.tail_ms", "ms"),
    ("client.tail_samples", "count"),
    ("client.check_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("host.speed_factor", "ratio"),
];

/// Cells of the `all` grid that `cold-figures` computes per op.
pub const ALL_CELLS: f64 = 63.0;

/// What a presence rule requires of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Want {
    Positive,
    Zero,
    Exactly(f64),
}

/// The layer-presence rules of `workload`: `(metric, requirement)`.
///
/// Every rule reads something the program itself reported or wrote during
/// the traced ops: the `sweep` process's summary line and cache entries
/// (`cold-figures`), or the server's `Metrics` frame and cache directory
/// (`warm-serve`). So a workload that stops exercising a layer, or starts
/// exercising one it must not, breaks a rule: a `cold-figures` op served
/// from a cache, or a `warm-serve` op that reaches `eval::evaluate`. The
/// probe timings have no rules: a probe runs on a workload, or reads 0,
/// by construction.
pub fn presence(workload: &str) -> &'static [(&'static str, Want)] {
    match workload {
        "cold-figures" => &[
            ("engine.cells", Want::Exactly(ALL_CELLS)),
            ("engine.misses", Want::Exactly(ALL_CELLS)),
            ("engine.hits", Want::Zero),
            ("cache.entries_written", Want::Exactly(ALL_CELLS)),
            ("core.cells", Want::Positive),
        ],
        "warm-serve" => &[
            ("serve.memo_served_share", Want::Exactly(1.0)),
            ("serve.rejected", Want::Zero),
            ("serve.queue_wait_us_p50", Want::Positive),
            ("serve.eval_us_p50", Want::Zero),
            ("engine.hits", Want::Positive),
            ("engine.misses", Want::Zero),
            ("engine.busy_s", Want::Zero),
            ("reactor.loop_iter_us_p50", Want::Positive),
            ("reactor.read_parse_us_p50", Want::Positive),
            ("cache.entries_written", Want::Zero),
            ("core.cells", Want::Zero),
        ],
        _ => &[],
    }
}

/// Every presence rule `metrics` breaks on `workload`, as messages.
pub fn violations(workload: &str, metrics: &BTreeMap<String, f64>) -> Vec<String> {
    presence(workload)
        .iter()
        .filter_map(|&(name, want)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            let ok = match want {
                Want::Positive => v > 0.0,
                Want::Zero => v == 0.0,
                Want::Exactly(x) => v == x,
            };
            (!ok).then(|| format!("{workload}: {name} = {v}, expected {want:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics that meet every rule of `workload`.
    fn passing(workload: &str) -> BTreeMap<String, f64> {
        let mut m: BTreeMap<String, f64> = PER_LAYER
            .iter()
            .map(|(n, _)| (n.to_string(), 0.0))
            .collect();
        for &(name, want) in presence(workload) {
            let v = match want {
                Want::Positive => 1.0,
                Want::Zero => 0.0,
                Want::Exactly(x) => x,
            };
            m.insert(name.to_string(), v);
        }
        m
    }

    #[test]
    fn rules_name_real_metrics_once() {
        for w in WORKLOADS {
            let rules = presence(w);
            assert!(!rules.is_empty(), "{w} has no rule");
            for (i, (name, _)) in rules.iter().enumerate() {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{w}: {name} is no metric"
                );
                assert!(
                    rules[..i].iter().all(|(n, _)| n != name),
                    "{w}: two rules for {name}"
                );
            }
            assert!(violations(w, &passing(w)).is_empty());
        }
    }

    #[test]
    fn a_warm_op_that_evaluates_is_flagged() {
        let mut m = passing("warm-serve");
        m.insert("engine.misses".into(), 40.0);
        m.insert("serve.memo_served_share".into(), 0.9);
        m.insert("core.cells".into(), 3.0);
        let v = violations("warm-serve", &m);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn a_cold_op_served_from_a_cache_is_flagged() {
        let mut m = passing("cold-figures");
        m.insert("engine.hits".into(), ALL_CELLS);
        m.insert("engine.misses".into(), 0.0);
        m.insert("cache.entries_written".into(), 0.0);
        m.insert("core.cells".into(), 0.0);
        assert_eq!(violations("cold-figures", &m).len(), 4);
    }

    #[test]
    fn all_has_the_cells_the_rules_expect() {
        let cells = yoco_sweep::grids::resolve("all").expect("the all grid");
        assert_eq!(cells.len() as f64, ALL_CELLS);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let at = |v: &'_ serde_json::Value, key: &str| -> serde_json::Value {
            v.as_object().and_then(|m| m.get(key)).cloned().expect(key)
        };
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            at(&spec, key)
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| at(m, f).as_str().expect(f).to_owned())
                        .collect()
                })
                .collect()
        };
        let want = |cat: &[(&str, &str)]| -> Vec<Vec<String>> {
            cat.iter()
                .map(|(n, u)| vec![n.to_string(), u.to_string()])
                .collect()
        };
        assert_eq!(list("end_to_end", &["name", "unit"]), want(&END_TO_END));
        assert_eq!(list("per_layer", &["name", "unit"]), want(&PER_LAYER));
        let workloads: Vec<String> = list("workloads", &["name"]).concat();
        assert_eq!(workloads, WORKLOADS);
    }
}
