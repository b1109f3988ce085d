#!/usr/bin/env bash
# Event-loop front-end smoke: one `weber serve` TCP daemon driven by
# `weber loadgen` over many persistent connections.
#
# 64 open-loop connections for a couple of seconds — every reply must
# arrive, in order, with zero errors, zero early closes and zero
# unanswered requests (the loadgen engine attributes replies to requests
# FIFO per connection, so a single reordered reply shows up as a latency
# anomaly or error).  Used by scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

WEBER=target/release/weber
if [[ ! -x "$WEBER" ]]; then
    echo "==> building release binary for serve smoke"
    cargo build --release --quiet
fi

WORK="$(mktemp -d)"
PID=""
cleanup() {
    [[ -n "$PID" ]] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

pick_port() {
    local candidate=$((20000 + RANDOM % 20000))
    while ! port_free "$candidate"; do
        candidate=$((candidate + 1))
    done
    echo "$candidate"
}

wait_up() {
    local port=$1 log=$2
    for _ in $(seq 1 100); do
        if ! port_free "$port"; then
            return 0
        fi
        sleep 0.1
    done
    echo "serve smoke: daemon on port $port never came up" >&2
    cat "$log" >&2 || true
    exit 1
}

shutdown_daemon() {
    local port=$1
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '{"op":"shutdown"}\n' >&3
    head -n1 <&3 >/dev/null || true
    exec 3>&- 3<&-
}

fail() {
    echo "serve smoke: $1" >&2
    cat "$WORK"/*.log >&2 2>/dev/null || true
    [[ -f "$WORK/report.json" ]] && cat "$WORK/report.json" >&2
    exit 1
}

gate_report() {
    local report=$1
    for field in errors setup_errors closed_early unanswered; do
        local v
        v=$(jq ".$field" "$report")
        [[ "$v" == "0" ]] || fail "$field = $v (expected 0)"
    done
    local measured
    measured=$(jq ".measured" "$report")
    [[ "$measured" -gt 0 ]] || fail "no measured replies"
}

PORT=$(pick_port)
"$WEBER" serve --listen "127.0.0.1:$PORT" \
    --max-connections 256 >"$WORK/serve.log" 2>&1 &
PID=$!
wait_up "$PORT" "$WORK/serve.log"

"$WEBER" loadgen --connect "127.0.0.1:$PORT" --connections 64 \
    --duration 2 --warmup 1 --rate 300 --names 16 \
    --out "$WORK/report.json" >"$WORK/loadgen.log" 2>&1 \
    || fail "loadgen run failed"
gate_report "$WORK/report.json"

shutdown_daemon "$PORT"
for _ in $(seq 1 100); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$PID" 2>/dev/null && fail "daemon still alive after shutdown"
PID=""

echo "serve smoke passed ($(jq .throughput_ops_s "$WORK/report.json") ops/s)."
