//! The argument errors of `yoco-dse`, byte for byte: each bad invocation
//! must exit with its code and print its one-line error first on stderr.
//! Every case fails before the engine runs.

use std::process::Command;

/// `(arguments, exit code, first stderr line)`.
type Case = (&'static [&'static str], i32, &'static str);

const DSE: &[Case] = &[
    (&[], 1, "usage:"),
    (&["bogus"], 1, "usage:"),
    (&["run", "--grid"], 1, "error: --grid needs a name"),
    (
        &["run", "--objectives"],
        1,
        "error: --objectives needs a comma-separated list",
    ),
    (&["run", "--driver"], 1, "error: --driver needs a name"),
    (
        &["run", "--budget", "0"],
        1,
        "error: --budget needs a positive integer",
    ),
    (
        &["run", "--budget", "x"],
        1,
        "error: --budget needs a positive integer",
    ),
    (
        &["run", "--seed", "-1"],
        1,
        "error: --seed needs an unsigned integer",
    ),
    (&["run", "--report"], 1, "error: --report needs a path"),
    (&["run", "--csv"], 1, "error: --csv needs a path"),
    (
        &["run", "--jobs", "0"],
        1,
        "error: --jobs needs a positive integer",
    ),
    (&["run", "--bogus"], 1, "error: unknown argument `--bogus`"),
    (
        &["run", "dse-tiles"],
        1,
        "error: unknown argument `dse-tiles`",
    ),
    (&["run"], 1, "error: nothing to run — pass --grid <name>"),
    (
        &["run", "--grid", "nope"],
        1,
        "error: unknown DSE grid `nope` (known: dse-tiles, dse-stack, dse-ima-mix, \
         dse-activity, dse-full)",
    ),
    (
        &["run", "--grid", "dse-tiles", "--objectives", "bogus"],
        1,
        "error: invalid scenario `objectives`: unknown objective `bogus` (known: tops, \
         tops-per-watt, energy, latency, power, area)",
    ),
    (
        &["run", "--grid", "dse-tiles", "--driver", "bogus"],
        1,
        "error: invalid scenario `driver`: unknown driver `bogus` (known: exhaustive, \
         random, climb)",
    ),
];

#[test]
fn dse_argument_errors_keep_their_bytes() {
    let root = std::env::temp_dir().join(format!("yoco-dse-cli-{}", std::process::id()));
    let mismatches: Vec<String> = DSE
        .iter()
        .filter_map(|&(args, code, first)| {
            let out = Command::new(env!("CARGO_BIN_EXE_yoco-dse"))
                .args(args)
                .env("YOCO_WORKSPACE_ROOT", &root)
                .output()
                .expect("yoco-dse spawns");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let got = (out.status.code(), stderr.lines().next().unwrap_or_default());
            (got != (Some(code), first))
                .then(|| format!("{args:?}: want ({code}, {first:?}), got {got:?}"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
