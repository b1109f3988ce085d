#!/usr/bin/env bash
# Guard against results drift: re-run every archived experiment (one
# per results/*.txt, named after its binary) and diff its payload
# against the archive.
#
# Manifest lines (the `#`-prefixed header and stage-timing footer the
# binaries emit) are stripped from both sides before diffing — they carry
# the git revision and wall times, which legitimately change run to run.
# The experiment payload is seeded and deterministic, so any payload diff
# means code changed behaviour without results/ being regenerated.
#
# Usage: scripts/results_check.sh
# Exits nonzero and prints the diff on drift.
set -euo pipefail
cd "$(dirname "$0")/.."

BINARIES=()
for archive in results/*.txt; do
    BINARIES+=("$(basename "$archive" .txt)")
done

echo "==> building release experiment binaries"
cargo build --release -p weber-bench --bins 2>/dev/null || cargo build --release -p weber-bench --bins

strip_manifest() {
    grep -v '^#' "$1" || true
}

status=0
for bin in "${BINARIES[@]}"; do
    archive="results/${bin}.txt"
    if [[ ! -x "./target/release/${bin}" ]]; then
        echo "ORPHAN: $archive has no experiment binary named ${bin}"
        status=1
        continue
    fi
    echo "==> re-running $bin"
    fresh="$(mktemp)"
    "./target/release/${bin}" > "$fresh"
    if diff -u <(strip_manifest "$archive") <(strip_manifest "$fresh") > /dev/null; then
        echo "OK: $archive matches a fresh run"
    else
        echo "DRIFT: $archive no longer matches a fresh run of $bin:"
        diff -u <(strip_manifest "$archive") <(strip_manifest "$fresh") | head -60 || true
        status=1
    fi
    rm -f "$fresh"
done

if [[ $status -ne 0 ]]; then
    echo "results drift detected — regenerate results/*.txt from current main"
    echo "(cargo run --release -p weber-bench --bin <name> > results/<name>.txt)"
fi
exit $status
