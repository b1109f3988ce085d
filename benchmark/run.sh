#!/usr/bin/env bash
# The repo benchmark. Builds the release `weber` binary and the harness,
# then runs the harness.
#
#   benchmark/run.sh [--seed N]              every workload, untraced then traced;
#                                            prints every metric by name with its unit
#   benchmark/run.sh --smoke                 the same on tiny sizes (under 30 s, oracle
#                                            on, bounds off); writes benchmark/out/smoke/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one run; the last line of stdout is the result
#   benchmark/run.sh --repeat N              N untraced sets; spread beside bound
#
# Run it from anywhere. It needs the whole checkout: in a directory that
# holds only BENCHMARK.json and benchmark/ the build fails and it exits
# non-zero without printing a result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"

# One target directory for both builds when the caller names one (a
# relative name is relative to the checkout); cargo's defaults otherwise.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    weber_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    weber_target="$root/target"
    bench_target="$bench/target"
fi

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin weber >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2

exec "$bench_target/release/weber-benchmark" \
    --weber "$weber_target/release/weber" --benchmark-dir "$bench" "$@"
