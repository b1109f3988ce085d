#!/usr/bin/env bash
# Multi-backend router smoke: three `weber serve` TCP backends behind a
# stdio `weber route` front end. Seeds and ingests a couple of names,
# takes a merged snapshot, and shuts the whole tier down through the
# router. Then repeats the exercise with `--replication 2` and one
# backend killed: every name must still resolve ok and the router must
# report failover reads. Finally fronts a fresh pair of backends with a
# TCP router: health/seed/ingest/resolve must round-trip, a routed
# resolve must be the owning backend's own reply line with only the
# router's shard tag spliced in, and the routed shutdown must stop the
# whole tier. Fails on any unexpected response line. Used by
# scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

WEBER=target/release/weber
if [[ ! -x "$WEBER" ]]; then
    echo "==> building release binary for route smoke"
    cargo build --release --quiet
fi

WORK="$(mktemp -d)"
PIDS=()
PIDS2=()
cleanup() {
    for pid in "${PIDS[@]:-}" "${PIDS2[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Pick three free ports by binding-and-releasing through the daemon is
# overkill; probe candidate ports with /dev/tcp instead.
port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

PORTS=()
candidate=$((20000 + RANDOM % 20000))
while [[ ${#PORTS[@]} -lt 3 ]]; do
    if port_free "$candidate"; then
        PORTS+=("$candidate")
    fi
    candidate=$((candidate + 1))
done

mkdir -p "$WORK/state"
BACKENDS=""
for port in "${PORTS[@]}"; do
    "$WEBER" serve --listen "127.0.0.1:$port" --state-dir "$WORK/state" \
        >"$WORK/serve-$port.log" 2>&1 &
    PIDS+=($!)
    BACKENDS="${BACKENDS:+$BACKENDS,}127.0.0.1:$port"
done

# Wait for every backend to accept connections.
for port in "${PORTS[@]}"; do
    for _ in $(seq 1 100); do
        if ! port_free "$port"; then
            continue 2
        fi
        sleep 0.1
    done
    echo "route smoke: backend on port $port never came up" >&2
    cat "$WORK/serve-$port.log" >&2 || true
    exit 1
done

REQUESTS="$WORK/requests.ndjson"
cat >"$REQUESTS" <<'EOF'
{"op":"health"}
{"op":"seed","name":"cohen","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
{"op":"seed","name":"smith","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
{"op":"seed","name":"jones","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
{"op":"ingest","name":"cohen","text":"a new page about databases"}
{"op":"ingest","name":"smith","text":"roses and gardening at home"}
{"op":"flush"}
{"op":"snapshot"}
{"op":"metrics"}
{"op":"shutdown"}
EOF

OUT="$WORK/responses.ndjson"
"$WEBER" route --backends "$BACKENDS" --probe-interval 1 <"$REQUESTS" >"$OUT"

fail() {
    echo "route smoke: $1" >&2
    echo "--- responses ---" >&2
    cat "$OUT" >&2
    exit 1
}

expected=$(wc -l <"$REQUESTS")
got=$(wc -l <"$OUT")
[[ "$got" -eq "$expected" ]] || fail "expected $expected response lines, got $got"

grep -q '"ok":false' "$OUT" && fail "found a failed response"
grep -q '"degraded":true' "$OUT" && fail "healthy tier reported degraded"
grep -q '"op":"health"' "$OUT" || fail "missing health response"
[[ "$(grep -c '"op":"seed"' "$OUT")" -eq 3 ]] || fail "expected 3 seed responses"
grep '"op":"ingest"' "$OUT" | grep -vq '"shard":' && fail "ingest reply missing shard tag"
grep -q '"op":"snapshot"' "$OUT" || fail "missing snapshot response"
snapshot_names=$(grep '"op":"snapshot"' "$OUT" | grep -o '"name":"[a-z]*"' | sort -u | wc -l)
[[ "$snapshot_names" -eq 3 ]] || fail "snapshot should list 3 names, saw $snapshot_names"
grep -q 'route\.requests' "$OUT" || fail "metrics missing router counters"
grep -q 'shard0\.stream\.' "$OUT" || fail "metrics missing namespaced backend counters"
grep -q '"op":"shutdown"' "$OUT" || fail "missing shutdown ack"

# The routed shutdown must have stopped every backend.
for pid in "${PIDS[@]}"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || continue 2
        sleep 0.1
    done
    fail "backend pid $pid still alive after routed shutdown"
done
PIDS=()

echo "==> route smoke phase 1 passed (backends: $BACKENDS)."

# --- Phase 2: R=2 replication with one backend down -----------------------

PORTS2=()
while [[ ${#PORTS2[@]} -lt 3 ]]; do
    if port_free "$candidate"; then
        PORTS2+=("$candidate")
    fi
    candidate=$((candidate + 1))
done

mkdir -p "$WORK/state2"
BACKENDS2=""
for port in "${PORTS2[@]}"; do
    "$WEBER" serve --listen "127.0.0.1:$port" --state-dir "$WORK/state2" \
        >"$WORK/serve2-$port.log" 2>&1 &
    PIDS2+=($!)
    BACKENDS2="${BACKENDS2:+$BACKENDS2,}127.0.0.1:$port"
done

for port in "${PORTS2[@]}"; do
    for _ in $(seq 1 100); do
        if ! port_free "$port"; then
            continue 2
        fi
        sleep 0.1
    done
    echo "route smoke: replicated backend on port $port never came up" >&2
    cat "$WORK/serve2-$port.log" >&2 || true
    exit 1
done

# Seed through an R=2 router while everyone is up; the shard tag on each
# reply tells us which backend is each name's primary.
SEED_OUT="$WORK/replicated-seeds.ndjson"
"$WEBER" route --backends "$BACKENDS2" --replication 2 --probe-interval 1 \
    >"$SEED_OUT" <<'EOF'
{"op":"seed","name":"cohen","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
{"op":"seed","name":"smith","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
{"op":"seed","name":"jones","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}
EOF

fail2() {
    echo "route smoke (replicated): $1" >&2
    echo "--- seed responses ---" >&2
    cat "$SEED_OUT" >&2
    echo "--- responses ---" >&2
    cat "${OUT2:-/dev/null}" >&2 || true
    exit 1
}

grep -q '"ok":false' "$SEED_OUT" && fail2 "a replicated seed failed"
[[ "$(grep -c '"acked":2' "$SEED_OUT")" -eq 3 ]] \
    || fail2 "expected every seed acked by both replicas"

# Kill cohen's primary; with R=2 every name must stay readable.
primary=$(grep '"name":"cohen"' "$SEED_OUT" | grep -o '"shard":[0-9]*' | head -n1)
primary="${primary##*:}"
[[ -n "$primary" ]] || fail2 "could not find cohen's primary shard"
kill "${PIDS2[$primary]}"
wait "${PIDS2[$primary]}" 2>/dev/null || true

OUT2="$WORK/replicated-responses.ndjson"
"$WEBER" route --backends "$BACKENDS2" --replication 2 --probe-interval 1 \
    >"$OUT2" <<'EOF'
{"op":"resolve","name":"cohen"}
{"op":"resolve","name":"smith"}
{"op":"resolve","name":"jones"}
{"op":"ingest","name":"cohen","text":"a new page about databases"}
{"op":"snapshot"}
{"op":"metrics"}
{"op":"shutdown"}
EOF

[[ "$(wc -l <"$OUT2")" -eq 7 ]] || fail2 "expected 7 response lines"
[[ "$(grep -c '"op":"resolve"' "$OUT2")" -eq 3 ]] || fail2 "expected 3 resolve responses"
grep '"op":"resolve"' "$OUT2" | grep -q '"ok":false' && fail2 "a resolve failed"
grep '"op":"resolve"' "$OUT2" | grep -q 'unreachable' && fail2 "a read hit unreachable"
grep '"op":"resolve"' "$OUT2" | grep '"name":"cohen"' | grep -q '"failover":true' \
    || fail2 "cohen's resolve did not fail over to the replica"
grep '"op":"ingest"' "$OUT2" | grep -q '"ok":true' || fail2 "degraded-primary ingest failed"
grep '"op":"ingest"' "$OUT2" | grep -q '"repair_pending":true' \
    || fail2 "degraded-primary ingest did not queue a repair"
snapshot_line=$(grep '"op":"snapshot"' "$OUT2")
[[ -n "$snapshot_line" ]] || fail2 "missing snapshot response"
echo "$snapshot_line" | grep -q '"ok":true' || fail2 "snapshot failed"
echo "$snapshot_line" | grep -q '"degraded"' \
    && fail2 "one death below R degraded the snapshot"
snapshot_names=$(echo "$snapshot_line" | grep -o '"name":"[a-z]*"' | sort -u | wc -l)
[[ "$snapshot_names" -eq 3 ]] || fail2 "snapshot should list 3 names, saw $snapshot_names"
failovers=$(grep -o '"route.failover_reads":[0-9]*' "$OUT2" | head -n1)
failovers="${failovers##*:}"
[[ -n "$failovers" && "$failovers" -gt 0 ]] \
    || fail2 "route.failover_reads should be nonzero, saw '${failovers:-missing}'"
grep -q '"op":"shutdown"' "$OUT2" || fail2 "missing shutdown ack"

# The routed shutdown must have stopped the two surviving backends.
for i in 0 1 2; do
    [[ "$i" -eq "$primary" ]] && continue
    pid="${PIDS2[$i]}"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || continue 2
        sleep 0.1
    done
    fail2 "backend pid $pid still alive after routed shutdown"
done
PIDS2=()

echo "==> route smoke phase 2 passed (replicated: $BACKENDS2)."

# --- Phase 3: TCP front end ------------------------------------------------

MPORTS=()
MPIDS=()
while [[ ${#MPORTS[@]} -lt 2 ]]; do
    if port_free "$candidate"; then
        MPORTS+=("$candidate")
    fi
    candidate=$((candidate + 1))
done
mkdir -p "$WORK/state-tcp"
MBACKENDS=""
for port in "${MPORTS[@]}"; do
    "$WEBER" serve --listen "127.0.0.1:$port" --state-dir "$WORK/state-tcp" \
        >"$WORK/serve-tcp-$port.log" 2>&1 &
    MPIDS+=($!)
    PIDS+=($!)
    MBACKENDS="${MBACKENDS:+$MBACKENDS,}127.0.0.1:$port"
done
for port in "${MPORTS[@]}"; do
    for _ in $(seq 1 100); do
        if ! port_free "$port"; then
            continue 2
        fi
        sleep 0.1
    done
    echo "route smoke: tcp-phase backend on port $port never came up" >&2
    cat "$WORK/serve-tcp-$port.log" >&2 || true
    exit 1
done

while ! port_free "$candidate"; do candidate=$((candidate + 1)); done
RPORT=$candidate
candidate=$((candidate + 1))
"$WEBER" route --backends "$MBACKENDS" --listen "127.0.0.1:$RPORT" \
    >"$WORK/route-tcp.log" 2>&1 &
RPID=$!
PIDS+=("$RPID")
for _ in $(seq 1 100); do
    if ! port_free "$RPORT"; then
        break
    fi
    sleep 0.1
done
if port_free "$RPORT"; then
    echo "route smoke: tcp router never came up" >&2
    cat "$WORK/route-tcp.log" >&2 || true
    exit 1
fi

OUT3="$WORK/tcp.ndjson"
exec 4<>"/dev/tcp/127.0.0.1/$RPORT"
routed() {
    local reply
    printf '%s\n' "$1" >&4
    IFS= read -r reply <&4
    printf '%s\n' "$reply" >>"$OUT3"
    ROUTED="$reply"
}
routed '{"op":"health"}'
routed '{"op":"seed","name":"cohen","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}'
routed '{"op":"ingest","name":"cohen","text":"a new page about databases"}'
# The relay check: ask cohen's owning backend directly, then the router.
owner=$(grep -o '"shard":[0-9]*' <<<"$ROUTED" | head -n1)
owner="${owner##*:}"
DIRECT=""
if [[ -n "$owner" ]]; then
    exec 5<>"/dev/tcp/127.0.0.1/${MPORTS[$owner]}"
    printf '%s\n' '{"op":"resolve","name":"cohen"}' >&5
    IFS= read -r DIRECT <&5
    exec 5>&- 5<&-
fi
routed '{"op":"resolve","name":"cohen"}'
RESOLVED="$ROUTED"
routed '{"op":"shutdown"}'
exec 4>&- 4<&-

fail3() {
    echo "route smoke (tcp): $1" >&2
    echo "--- responses ---" >&2
    cat "$OUT3" >&2 || true
    cat "$WORK/route-tcp.log" >&2 || true
    exit 1
}

[[ "$(wc -l <"$OUT3")" -eq 5 ]] || fail3 "expected 5 response lines"
grep -q '"ok":false' "$OUT3" && fail3 "found a failed response"
grep -q '"op":"health"' "$OUT3" || fail3 "missing health response"
grep '"op":"ingest"' "$OUT3" | grep -vq '"shard":' && fail3 "ingest reply missing shard tag"
grep '"op":"resolve"' "$OUT3" | grep -vq '"shard":' && fail3 "resolve reply missing shard tag"
[[ -n "$owner" ]] || fail3 "could not find cohen's owning shard"
[[ "$DIRECT" == '{"ok":true,"op":"resolve",'*'}' ]] \
    || fail3 "the owning backend's resolve was not ok: $DIRECT"
# The router relays the backend's bytes: no re-encoding, no reordering,
# only its tag in front of the final brace.
[[ "$RESOLVED" == "${DIRECT%\}},\"shard\":$owner}" ]] \
    || fail3 "routed resolve is not the backend's line plus its shard tag:
  direct: $DIRECT
  routed: $RESOLVED"
grep -q '"op":"shutdown"' "$OUT3" || fail3 "missing shutdown ack"

for pid in "$RPID" "${MPIDS[@]}"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || continue 2
        sleep 0.1
    done
    fail3 "pid $pid still alive after routed shutdown"
done
echo "==> route smoke phase 3 passed (tcp front end: $MBACKENDS)."
PIDS=()

echo "route smoke passed (plain: $BACKENDS; replicated: $BACKENDS2; tcp: $MBACKENDS)."
