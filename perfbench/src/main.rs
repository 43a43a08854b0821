//! `yoco-perfbench`: runs one benchmark workload against the release
//! `sweep`/`yoco-serve` binaries and the library, checks every op's
//! output, and prints one JSON result line.
//!
//! ```text
//! yoco-perfbench --workload warm-serve --seed 1 --seconds 45 --trace 0 \
//!     --root <checkout> --bins <dir with sweep and yoco-serve>
//! yoco-perfbench --write-reference --root <checkout> --bins <dir>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every op and in-process probe and prints
//! the per-layer metrics. `perfbench/run.sh` builds everything first.

mod calib;
mod layers;
mod probes;
mod refs;
mod sys;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    bins: Option<PathBuf>,
    write_reference: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 45.0,
        trace: false,
        root: PathBuf::from("."),
        bins: None,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--root" => args.root = PathBuf::from(value()?),
            "--bins" => args.bins = Some(PathBuf::from(value()?)),
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// with its unit.
fn result_line(out: &Outcome, trace: bool) -> String {
    let catalogue: &[(&str, &str)] = if trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(*name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = args.root.canonicalize().unwrap_or(args.root.clone());
    let bins = args
        .bins
        .clone()
        .unwrap_or_else(|| root.join(".bench_build/release"));
    let work = bins.join("perfbench");
    let name = args.workload.clone().unwrap_or_default();
    let ctx = Ctx {
        run_dir: work.join(format!("run-{}", std::process::id())),
        spans_out: work.join(format!("spans-{name}-seed{}.ndjson", args.seed)),
        refs: root.join("perfbench/reference"),
        bins,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = if args.write_reference {
        workloads::write_reference(&ctx).map(|()| None)
    } else if args.workload.is_none() {
        Err("--workload is required".into())
    } else {
        workloads::run(&ctx, &name).map(Some)
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match result {
        Ok(Some(out)) => {
            for p in &out.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            if args.trace {
                eprintln!("perfbench: spans written to {}", ctx.spans_out.display());
            }
            println!("{}", result_line(&out, args.trace));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
