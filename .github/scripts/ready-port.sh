#!/usr/bin/env bash
# Waits for a yoco-serve ready line ("yoco-serve listening on HOST:PORT")
# in LOG and prints PORT. A server that is not ready within 10 s fails
# the caller here, with its log on stderr, instead of leaving it an
# empty port:
#
#   PORT=$(bash .github/scripts/ready-port.sh serve.log)
set -euo pipefail

log="$1"
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log" 2>/dev/null | head -1) || true
  if [ -n "$port" ]; then
    echo "$port"
    exit 0
  fi
  sleep 0.1
done
echo "no yoco-serve ready line in $log after 10 s; the log:" >&2
cat "$log" >&2 || true
exit 1
