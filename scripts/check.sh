#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build/test cycle.
# Run from anywhere; operates on the repository root.
# --full additionally re-runs the headline experiments and diffs them
# against the archived results/ (scripts/results_check.sh).
# Needs jq for the docs check.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Every NDJSON example in the operator's guide must parse, and every
# request line must name an op the protocol actually has — so the runbook
# cannot rot silently when the wire format moves.
echo "==> docs: NDJSON examples in docs/OPERATIONS.md"
grep '^{' docs/OPERATIONS.md | jq -e 'type == "object"' >/dev/null \
    || { echo "docs check: an example line in docs/OPERATIONS.md is not valid JSON" >&2; exit 1; }
known='health|seed|ingest|resolve|entities|same_as|constraint|snapshot|metrics|persist|restore|flush|shutdown|topology'
bad=$(grep '^{' docs/OPERATIONS.md | jq -r '.op // empty' | grep -vE "^($known)$" || true)
[[ -z "$bad" ]] || { echo "docs check: unknown op in docs/OPERATIONS.md examples: $bad" >&2; exit 1; }
ops=$(grep '^{' docs/OPERATIONS.md | jq -r 'select(has("op") and (has("ok") | not)) | .op' | wc -l)
[[ "$ops" -ge 3 ]] || { echo "docs check: expected at least 3 request examples, found $ops" >&2; exit 1; }

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace units: cargo test -q --workspace --release"
cargo test -q --workspace --release

echo "==> router smoke: scripts/route_smoke.sh"
scripts/route_smoke.sh

echo "==> entity smoke: scripts/entity_smoke.sh"
scripts/entity_smoke.sh

echo "==> blocking smoke: scripts/block_smoke.sh"
scripts/block_smoke.sh

# The repo benchmark is the only performance gate. Its harness is a
# workspace of its own that compiles against the crates' public API, so
# a break shows here, not in a benchmark run. Any harness build rewrites
# the stale benchmark/Cargo.lock, and benchmark/ may not be edited: put
# the committed file back whether the smoke passes or fails.
echo "==> benchmark smoke: bash benchmark/run.sh --smoke"
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
bash benchmark/run.sh --smoke

if [[ $FULL -eq 1 ]]; then
    echo "==> results drift: scripts/results_check.sh"
    scripts/results_check.sh
fi

echo "All checks passed."
