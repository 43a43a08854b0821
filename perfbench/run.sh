#!/usr/bin/env bash
# Builds the system under test (`sweep`, `yoco-serve`) and the benchmark
# binary from source, then runs one workload:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 45 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root); the last stdout line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/sweep" || ! -d "$root/vendor" ]]; then
    echo "perfbench: $root is not a yoco checkout (no Cargo.toml, crates/sweep, vendor/)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p yoco-sweep --bin sweep --bin yoco-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/yoco-perfbench" --root "$root" --bins "$target/release" "$@"
