#!/usr/bin/env bash
# Build `ditico` and the `e2e` harness (release), then run the harness.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one result line (BENCHMARK.json)
#   benchmark/run.sh --seed N [--smoke] [--out FILE]                 all workloads, text + JSON
#   benchmark/run.sh compare A.json… [-- B.json…]                    regression check
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Cargo reads a relative CARGO_TARGET_DIR against the directory it runs
# in; fix it once so both builds and the harness agree on one place.
target="${CARGO_TARGET_DIR:-$root/target}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin ditico >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2
if [ "${1:-}" = compare ]; then
    exec "$CARGO_TARGET_DIR/release/e2e" "$@"
fi
exec "$CARGO_TARGET_DIR/release/e2e" \
    --ditico "$CARGO_TARGET_DIR/release/ditico" \
    --work "$CARGO_TARGET_DIR/e2e-work" \
    --git-rev "$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "$@"
