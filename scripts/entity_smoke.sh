#!/usr/bin/env bash
# Canonical-entity-layer smoke: one `weber serve` daemon with a state
# directory, driven over raw NDJSON.  Exercises the whole entity surface
# an operator touches — materialize (`entities`), constraint-aware
# splitting (`constraint`), reversible merges (`same_as`) — and then
# restarts the daemon to prove the entity table (IDs, constraints) comes
# back from disk.  Then checks that back-to-back reads return the same
# bytes, and that a name evicted under --max-names 1 comes back with its
# entity IDs.  Used by scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

WEBER=target/release/weber
if [[ ! -x "$WEBER" ]]; then
    echo "==> building release binary for entity smoke"
    cargo build --release --quiet
fi

WORK="$(mktemp -d)"
STATE="$WORK/state"
PID=""
cleanup() {
    [[ -n "$PID" ]] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "entity smoke: $1" >&2
    cat "$WORK"/*.log >&2 2>/dev/null || true
    exit 1
}

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
    fail "daemon on port $port never came up ($(cat "$log" 2>/dev/null))"
}

# Send one request line on the open fd-3 connection, echo the reply.
ask() {
    printf '%s\n' "$1" >&3
    head -n1 <&3
}

start_daemon() {
    local port=$1 log=$2
    shift 2
    "$WEBER" serve --listen "127.0.0.1:$port" --state-dir "$STATE" "$@" \
        >"$log" 2>&1 &
    PID=$!
    wait_up "$port" "$log"
    exec 3<>"/dev/tcp/127.0.0.1/$port"
}

stop_daemon() {
    ask '{"op":"shutdown"}' >/dev/null
    exec 3>&- 3<&-
    for _ in $(seq 1 100); do
        kill -0 "$PID" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$PID" 2>/dev/null && fail "daemon still alive after shutdown"
    PID=""
}

SEED='{"op":"seed","name":"cohen","docs":[{"text":"databases are fun and databases are important","label":0},{"text":"databases are hard but databases pay well","label":0},{"text":"gardening tips for growing roses","label":1},{"text":"gardening advice on pruning roses","label":1}]}'

# --- Lifetime 1: seed, materialize, constrain, merge, persist --------------
PORT=$(pick_port)
start_daemon "$PORT" "$WORK/serve-1.log"

echo "$(ask "$SEED")" | jq -e '.ok == true' >/dev/null || fail "seed refused"

reply=$(ask '{"op":"entities","name":"cohen"}')
echo "$reply" | jq -e '.ok == true and (.entities | length) == 2' >/dev/null \
    || fail "expected 2 entities after seeding: $reply"

reply=$(ask '{"op":"constraint","name":"cohen","add":{"kind":"cannot-link","a":0,"b":1}}')
echo "$reply" | jq -e '.ok == true and .added == true' >/dev/null \
    || fail "constraint add refused: $reply"

reply=$(ask '{"op":"entities","name":"cohen"}')
echo "$reply" | jq -e '.ok == true and (.entities | length) == 3 and .constraints == 1' >/dev/null \
    || fail "cannot-link did not split the cluster: $reply"

# Merge the two gardening-side fragments?  No — merge across the split is
# vetoed; instead link the two databases fragments and watch the veto
# surface without dropping the link.
A=$(echo "$reply" | jq -r '[.entities[] | select(.mentions | index(0))][0].id')
B=$(echo "$reply" | jq -r '[.entities[] | select(.mentions | index(1))][0].id')
reply=$(ask "{\"op\":\"same_as\",\"name\":\"cohen\",\"a\":$A,\"b\":$B}")
echo "$reply" | jq -e '.ok == true and .active == true and .vetoed_links == 1' >/dev/null \
    || fail "constraint did not veto the conflicting SAME_AS union: $reply"

reply=$(ask "{\"op\":\"same_as\",\"name\":\"cohen\",\"a\":$A,\"b\":$B,\"retract\":true}")
echo "$reply" | jq -e '.ok == true and .active == false and .links == 0' >/dev/null \
    || fail "retract did not remove the link: $reply"

reply=$(ask '{"op":"same_as","name":"cohen","a":0,"b":99999}')
echo "$reply" | jq -e '.ok == false and .kind == "unknown-entity"' >/dev/null \
    || fail "unknown entity id not rejected with a stable kind: $reply"

IDS_BEFORE=$(ask '{"op":"entities","name":"cohen"}' | jq -c '[.entities[].id] | sort')
echo "$(ask '{"op":"persist"}')" | jq -e '.ok == true' >/dev/null || fail "persist refused"
stop_daemon
echo "==> entity smoke: lifetime 1 passed (entities/constraint/same_as)"

# --- Lifetime 2: restart, the table restores on first touch ----------------
PORT=$(pick_port)
start_daemon "$PORT" "$WORK/serve-2.log"

reply=$(ask '{"op":"entities","name":"cohen"}')
echo "$reply" | jq -e '.ok == true and .constraints == 1 and .fresh_ids == 0' >/dev/null \
    || fail "restart lost the entity table: $reply"
IDS_AFTER=$(echo "$reply" | jq -c '[.entities[].id] | sort')
[[ "$IDS_BEFORE" == "$IDS_AFTER" ]] \
    || fail "entity IDs changed across restart: $IDS_BEFORE -> $IDS_AFTER"

# A read after a read with no write between them serves the same bytes.
ask '{"op":"entities","name":"cohen"}' >/dev/null
second=$(ask '{"op":"entities","name":"cohen"}')
third=$(ask '{"op":"entities","name":"cohen"}')
[[ "$second" == "$third" ]] \
    || fail "back-to-back entities reads differ: $second -> $third"

stop_daemon
echo "==> entity smoke: lifetime 2 passed (restore, repeat reads)"

# --- Lifetime 3: one live name; eviction takes the entity table along ------
PORT=$(pick_port)
start_daemon "$PORT" "$WORK/serve-3.log" --max-names 1

ask '{"op":"entities","name":"cohen"}' | jq -e '.ok == true' >/dev/null \
    || fail "cohen unreadable under --max-names 1"
reply=$(ask '{"op":"seed","name":"smith","docs":[{"text":"violin concerto recording","label":0},{"text":"piano sonata recording","label":1}]}')
echo "$reply" | jq -e '.ok == true' >/dev/null || fail "second name refused: $reply"
reply=$(ask '{"op":"entities","name":"smith"}')
echo "$reply" | jq -e '.ok == true' >/dev/null || fail "entities of the second name: $reply"
reply=$(ask '{"op":"entities","name":"cohen"}')
echo "$reply" | jq -e '.ok == true and .constraints == 1 and .fresh_ids == 0' >/dev/null \
    || fail "eviction lost cohen's entity table: $reply"
IDS_EVICTED=$(echo "$reply" | jq -c '[.entities[].id] | sort')
[[ "$IDS_BEFORE" == "$IDS_EVICTED" ]] \
    || fail "entity IDs changed across eviction: $IDS_BEFORE -> $IDS_EVICTED"

stop_daemon
echo "entity smoke passed."
