//! Layer-presence checks on real traced runs. The traced run applies the
//! presence rules of `src/layers.rs` itself (counts the program reported
//! or wrote: a `warm-serve` op that reaches the evaluator or misses the
//! memo, or a `cold-figures` op served from a cache, breaks one) and
//! reports `correct: false` on a violation; this test also checks the
//! shape of the per-layer figures.
//!
//! Builds the release binaries through `run.sh` into `<checkout>/.bench_build`
//! and runs every workload briefly, so it takes a few minutes:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

fn traced(workload: &str) -> serde_json::Value {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.parent().expect("the benchmark sits in the checkout");
    let out = Command::new("bash")
        .arg(bench.join("run.sh"))
        .args([
            "--workload",
            workload,
            "--seed",
            "2",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .env("CARGO_TARGET_DIR", root.join(".bench_build"))
        .current_dir(root)
        .output()
        .expect("run.sh starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn at<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|m| m.get(key))
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn metric(result: &serde_json::Value, name: &str) -> f64 {
    at(at(at(result, "metrics"), name), "value")
        .as_f64()
        .expect("metric values are numbers")
}

#[test]
fn every_workload_exercises_its_layers_and_only_those() {
    for workload in ["cold-figures", "warm-serve"] {
        let r = traced(workload);
        assert_eq!(at(&r, "correct").as_bool(), Some(true), "{workload}: {r:?}");
        assert_eq!(at(&r, "failed").as_f64(), Some(0.0), "{workload}");
        match workload {
            "cold-figures" => {
                let fig6d = metric(&r, "studies.fig6d_ms");
                for other in ["studies.fig6bc_ms", "studies.fig6f_ms", "studies.rest_ms"] {
                    assert!(
                        fig6d > metric(&r, other),
                        "fig6d is not the largest study: {r:?}"
                    );
                }
            }
            _ => {
                // The evaluator layers are not probed here, and the server
                // evaluated nothing (`engine.misses` = 0 is a rule).
                let metrics = at(&r, "metrics").as_object().expect("an object");
                for (name, _) in metrics.iter() {
                    if ["circuit.", "nn.", "core.", "studies."]
                        .iter()
                        .any(|layer| name.starts_with(layer))
                    {
                        assert_eq!(metric(&r, name), 0.0, "{name} on warm-serve");
                    }
                }
            }
        }
    }
}
