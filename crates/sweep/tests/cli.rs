//! The argument errors of `sweep` and `yoco-serve`, byte for byte: each
//! bad invocation must exit with its code and print its one-line error
//! first on stderr. Every case fails before touching a server or the
//! cache, except the refused connections to port 1, which fail at once
//! (a `status --watch` loop prints the refusal and ends on closed stdin).

use std::path::Path;
use std::process::Command;

/// `(arguments, exit code, first stderr line)`.
type Case = (&'static [&'static str], i32, &'static str);

const SWEEP: &[Case] = &[
    (&[], 1, "usage:"),
    (&["bogus"], 1, "usage:"),
    // run
    (&["run", "--file"], 1, "error: --file needs a path"),
    (&["run", "--report"], 1, "error: --report needs a path"),
    (
        &["run", "--shard"],
        1,
        "error: --shard needs a descriptor like 2/4",
    ),
    (
        &["run", "fig9a", "--shard", "3/2"],
        1,
        "error: schema mismatch in shard descriptor `3/2`: index must be in 1..=count",
    ),
    (
        &["run", "fig9a", "--shard", "x"],
        1,
        "error: schema mismatch in shard descriptor `x`: expected the form i/n, e.g. 2/4",
    ),
    (
        &["run", "--jobs"],
        1,
        "error: --jobs needs a positive integer",
    ),
    (
        &["run", "fig9a", "--jobs", "0"],
        1,
        "error: --jobs needs a positive integer",
    ),
    (
        &["run", "fig9a", "--jobs", "x"],
        1,
        "error: --jobs needs a positive integer",
    ),
    (&["run", "--bogus"], 1, "error: unknown flag `--bogus`"),
    (
        &["run", "fig9a", "fig10"],
        1,
        "error: only one grid per run",
    ),
    (
        &["run"],
        1,
        "error: nothing to run — pass a grid name or --file",
    ),
    (
        &["run", "fig9a", "--file", "grid.json"],
        1,
        "error: pass a grid name or --file, not both",
    ),
    (
        &["run", "nosuchgrid"],
        1,
        "error: unknown grid `nosuchgrid` (try one of: fig8, fig10, ablations, figures, \
         studies, all, dse-tiles, dse-stack, dse-ima-mix, dse-activity, dse-full, a study \
         name, or accelerator/model)",
    ),
    // cache
    (
        &["cache", "bogus"],
        1,
        "error: unknown cache subcommand `bogus`",
    ),
    (
        &["cache", "gc"],
        1,
        "error: cache gc needs --max-age-days and/or --max-bytes",
    ),
    (
        &["cache", "gc", "--max-age-days"],
        1,
        "error: --max-age-days needs a non-negative number",
    ),
    (
        &["cache", "gc", "--max-age-days", "-1"],
        1,
        "error: --max-age-days needs a non-negative number",
    ),
    // A value whose seconds overflow a `Duration` is rejected, not a panic.
    (
        &["cache", "gc", "--max-age-days", "inf"],
        1,
        "error: --max-age-days needs a non-negative number",
    ),
    (
        &["cache", "gc", "--max-age-days", "1e300"],
        1,
        "error: --max-age-days needs a non-negative number",
    ),
    (
        &["cache", "gc", "--max-bytes"],
        1,
        "error: --max-bytes needs a size like 1048576 or 64m",
    ),
    (
        &["cache", "gc", "--max-bytes", "12q"],
        1,
        "error: --max-bytes needs a size like 1048576 or 64m",
    ),
    (
        &["cache", "gc", "--bogus"],
        1,
        "error: unknown cache gc flag `--bogus`",
    ),
    // client
    (
        &["client"],
        1,
        "error: client needs an action: ping, status, metrics, shutdown, or run",
    ),
    (
        &["client", "bogus"],
        1,
        "error: client needs an action: ping, status, metrics, shutdown, or run",
    ),
    // `--addr` is read first, wherever it stands, before the action.
    (
        &["client", "bogus", "--addr"],
        1,
        "error: --addr needs HOST:PORT",
    ),
    (
        &["client", "ping", "--addr"],
        1,
        "error: --addr needs HOST:PORT",
    ),
    (
        &["client", "run", "--file", "--addr", "127.0.0.1:1"],
        1,
        "error: --file needs a path",
    ),
    (
        &["client", "ping", "--addr", "127.0.0.1:1"],
        1,
        "error: cannot connect to 127.0.0.1:1: Connection refused (os error 111)",
    ),
    (
        &["client", "ping", "--bogus", "--addr", "127.0.0.1:1"],
        1,
        "error: unknown ping flag `--bogus`",
    ),
    (
        &["client", "shutdown", "--bogus", "--addr", "127.0.0.1:1"],
        1,
        "error: unknown shutdown flag `--bogus`",
    ),
    (
        &["client", "status", "--watch"],
        1,
        "error: --watch needs a positive number of seconds",
    ),
    (
        &["client", "status", "--watch", "0"],
        1,
        "error: --watch needs a positive number of seconds",
    ),
    (
        &["client", "status", "--watch", "inf"],
        1,
        "error: --watch needs a positive number of seconds",
    ),
    // A period too long to add to an `Instant` still waits for q/EOF
    // (stdin is closed here) instead of panicking after the first probe.
    (
        &[
            "client",
            "status",
            "--watch",
            "1e19",
            "--addr",
            "127.0.0.1:1",
        ],
        0,
        "cannot connect to 127.0.0.1:1: Connection refused (os error 111)",
    ),
    (
        &["client", "status", "--bogus"],
        1,
        "error: unknown status flag `--bogus`",
    ),
    (
        &["client", "metrics", "--bogus"],
        1,
        "error: unknown metrics flag `--bogus`",
    ),
    (&["client", "run", "--id"], 1, "error: --id needs a value"),
    (
        &["client", "run", "--file"],
        1,
        "error: --file needs a path",
    ),
    (
        &["client", "run", "--bogus"],
        1,
        "error: unknown flag `--bogus`",
    ),
    (
        &["client", "run", "fig9a", "fig10"],
        1,
        "error: only one grid per run",
    ),
    (
        &["client", "run"],
        1,
        "error: nothing to run — pass a grid name or --file",
    ),
    // loadgen (a leading flag is an implicit `run`)
    (
        &["loadgen"],
        1,
        "error: loadgen needs an action: run (or its flags directly), report, or gate",
    ),
    (
        &["loadgen", "bogus"],
        1,
        "error: loadgen needs an action: run (or its flags directly), report, or gate",
    ),
    (&["loadgen", "--addr"], 1, "error: --addr needs HOST:PORT"),
    (
        &["loadgen", "--target"],
        1,
        "error: --target needs a label (serve, coordinator, cluster)",
    ),
    (
        &["loadgen", "--rate", "inf"],
        1,
        "error: --rate needs a positive requests/s",
    ),
    (
        &["loadgen", "run", "--rate", "0"],
        1,
        "error: --rate needs a positive requests/s",
    ),
    (
        &["loadgen", "--duration"],
        1,
        "error: --duration needs a value (e.g. 10s)",
    ),
    (
        &["loadgen", "--duration", "10x"],
        1,
        "error: unparseable duration `10x` (try 10s, 500ms, 2m)",
    ),
    (
        &["loadgen", "--duration", "1e300s"],
        1,
        "error: unparseable duration `1e300s` (try 10s, 500ms, 2m)",
    ),
    (
        &["loadgen", "--connections", "0"],
        1,
        "error: --connections needs a positive integer",
    ),
    (
        &["loadgen", "--mix"],
        1,
        "error: --mix needs a spec (e.g. fig9a=9,fig10:v1=1)",
    ),
    (&["loadgen", "--mix", ""], 1, "error: empty mix spec"),
    (
        &["loadgen", "--arrivals"],
        1,
        "error: --arrivals needs fixed, poisson, or burstN",
    ),
    (
        &["loadgen", "--arrivals", "bogus"],
        1,
        "error: unknown arrival kind `bogus` (expected fixed, poisson, bursty, or burstN)",
    ),
    (
        &["loadgen", "--seed", "x"],
        1,
        "error: --seed needs an integer",
    ),
    (
        &["loadgen", "--deadline-ms", "0"],
        1,
        "error: --deadline-ms needs a positive integer",
    ),
    (&["loadgen", "--out"], 1, "error: --out needs a path"),
    (
        &["loadgen", "--bogus"],
        1,
        "error: unknown loadgen flag `--bogus`",
    ),
    (
        &[
            "loadgen",
            "--mix",
            "fig9a:cold",
            "--rate",
            "1e12",
            "--duration",
            "10s",
            "--no-out",
        ],
        1,
        "error: rate × duration offers 10000000000000 arrivals, over the 10000000 a run may \
         hold — lower one of them",
    ),
    (
        &["loadgen", "report", "--out"],
        1,
        "error: --out needs a path",
    ),
    (
        &["loadgen", "report", "--bogus"],
        1,
        "error: unknown report flag `--bogus`",
    ),
    (
        &["loadgen", "gate", "--out"],
        1,
        "error: --out needs a path",
    ),
    (
        &["loadgen", "gate", "--factor", "0.5"],
        1,
        "error: --factor needs a number ≥ 1.0",
    ),
    (
        &["loadgen", "gate", "--max-p99-ms", "0"],
        1,
        "error: --max-p99-ms needs a positive number",
    ),
    (
        &["loadgen", "gate", "--bogus"],
        1,
        "error: unknown gate flag `--bogus`",
    ),
    // trace
    (&["trace"], 1, "error: trace needs an action: report"),
    (
        &["trace", "report", "--dir"],
        1,
        "error: --dir needs a path",
    ),
    (
        &["trace", "report", "--bogus"],
        1,
        "error: unknown trace report flag `--bogus`",
    ),
];

const SERVE: &[Case] = &[
    (&["--addr"], 1, "error: --addr needs HOST:PORT"),
    (&["--jobs"], 1, "error: --jobs needs a positive integer"),
    (
        &["--jobs", "0"],
        1,
        "error: --jobs needs a positive integer",
    ),
    (
        &["--queue-depth", "x"],
        1,
        "error: --queue-depth needs a non-negative integer (0 rejects every evaluation)",
    ),
    (&["--cache-dir"], 1, "error: --cache-dir needs a path"),
    (&["--trace-dir"], 1, "error: --trace-dir needs a path"),
    // The trace dir opens before the bind, so no ready line precedes this.
    (
        &["--trace-dir", "/dev/null/spans"],
        1,
        "error: cannot open trace dir /dev/null/spans: Not a directory (os error 20)",
    ),
    (&["--worker"], 1, "error: --worker needs HOST:PORT"),
    (&["--bogus"], 1, "error: unknown flag `--bogus`"),
    (&["--threaded"], 1, "error: unknown flag `--threaded`"),
    (
        &["--coordinator"],
        1,
        "error: --coordinator needs at least one --worker HOST:PORT",
    ),
    (
        &["--worker", "127.0.0.1:1"],
        1,
        "error: --worker only makes sense with --coordinator",
    ),
    (
        &[
            "--coordinator",
            "--worker",
            "127.0.0.1:1",
            "--jobs",
            "2",
            "--no-cache",
        ],
        1,
        "error: --jobs/--no-cache configure the single-box engine; a --coordinator evaluates \
         nothing itself (set them on the workers instead)",
    ),
];

/// Runs every case with the results root in a fresh temp dir, and fails
/// once with every mismatch listed.
fn check(bin: &str, tag: &str, cases: &[Case]) {
    let root = std::env::temp_dir().join(format!("yoco-cli-{tag}-{}", std::process::id()));
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(args, code, first)| {
            let got = run(bin, &root, args);
            (got != (Some(code), first.to_owned()))
                .then(|| format!("{args:?}: want ({code}, {first:?}), got {got:?}"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The exit code and first stderr line of one invocation.
fn run(bin: &str, root: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("YOCO_WORKSPACE_ROOT", root)
        .output()
        .expect("binary spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    (
        out.status.code(),
        stderr.lines().next().unwrap_or_default().to_owned(),
    )
}

#[test]
fn sweep_argument_errors_keep_their_bytes() {
    check(env!("CARGO_BIN_EXE_sweep"), "sweep", SWEEP);
}

#[test]
fn serve_argument_errors_keep_their_bytes() {
    check(env!("CARGO_BIN_EXE_yoco-serve"), "serve", SERVE);
}
