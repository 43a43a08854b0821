#!/usr/bin/env bash
# Runs one yoco-sweep integration test binary 20 times while nproc
# busy-loop hogs compete for every CPU, and fails on the first red run:
#
#   bash .github/scripts/hog-loop.sh serve_smoke
set -euo pipefail

test="$1"
# Build first so the hogs slow the tests, not the compiler.
cargo test -q -p yoco-sweep --test "$test" --no-run
HOGS=()
for _ in $(seq 1 "$(nproc)"); do
  bash -c 'while :; do :; done' &
  HOGS+=($!)
done
trap 'kill "${HOGS[@]}" 2>/dev/null' EXIT
for i in $(seq 1 20); do
  if ! cargo test -q -p yoco-sweep --test "$test"; then
    echo "$test failed on run $i of 20 under $(nproc) hogs"
    exit 1
  fi
done
