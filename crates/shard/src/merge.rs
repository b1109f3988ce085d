//! Merging fan-out responses into one well-formed reply.
//!
//! Fan-out ops (`snapshot`, `metrics`, `persist`, `restore`, `flush`,
//! `shutdown`) are broadcast to every backend; the per-shard outcomes come
//! back here to be folded into a single response line. A dead backend
//! degrades the answer instead of failing it: the merged reply stays
//! `ok:true`, carries what the reachable shards returned, and marks
//! itself with `"degraded":true` plus the list of unreachable shards.
//! The snapshot merge is additionally replica-aware: duplicate copies of
//! a name collapse to the preferred replica's entry, and fewer backend
//! failures than the replication factor do not degrade the reply at all
//! (see [`merge_snapshot`]).

use serde::Value;
use weber_obs::{BucketCount, HistogramSnapshot, MetricsSnapshot};

use crate::ring::HashRing;

/// One backend's contribution to a fan-out: either its parsed reply or a
/// transport-level error message.
pub struct ShardOutcome {
    /// Ring index of the backend.
    pub index: usize,
    /// Backend address, for the unreachable list.
    pub addr: String,
    /// Parsed reply, or why the shard could not answer.
    pub result: Result<Value, String>,
}

/// Append a field to a JSON object value (no-op on non-objects).
pub fn push_field(value: &mut Value, key: &str, field: Value) {
    if let Value::Object(entries) = value {
        entries.push((key.to_string(), field));
    }
}

pub(crate) fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("merged responses serialise")
}

pub(crate) fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A backend reply counts as usable only when it parsed and says
/// `ok:true`; an explicit error reply (e.g. `persist` without a state
/// dir) degrades the merge the same way a dead socket does.
fn failure_of(outcome: &ShardOutcome) -> Option<String> {
    match &outcome.result {
        Err(e) => Some(e.clone()),
        Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => None,
        Ok(v) => Some(
            v.get("error")
                .and_then(Value::as_str)
                .unwrap_or("backend returned a malformed reply")
                .to_string(),
        ),
    }
}

/// `degraded` / `unreachable` markers for a merged reply; empty when every
/// shard answered.
pub(crate) fn degraded_fields(outcomes: &[ShardOutcome]) -> Vec<(&'static str, Value)> {
    let unreachable: Vec<Value> = outcomes
        .iter()
        .filter_map(|o| {
            failure_of(o).map(|error| {
                object(vec![
                    ("shard", Value::Number(o.index as f64)),
                    ("addr", Value::String(o.addr.clone())),
                    ("error", Value::String(error)),
                ])
            })
        })
        .collect();
    if unreachable.is_empty() {
        Vec::new()
    } else {
        vec![
            ("degraded", Value::Bool(true)),
            ("unreachable", Value::Array(unreachable)),
        ]
    }
}

/// Merge `snapshot` replies: concatenate the per-name entries, tag each
/// with its reporting shard, sort by name for deterministic output.
///
/// Replica-aware on two counts. First, under replication (and after
/// topology changes) several shards may report the same name; each name
/// keeps exactly one entry — the copy from the shard earliest in the
/// name's replica set ([`HashRing::successors`]), falling back to the
/// lowest shard index for stale copies outside the current set. Second,
/// the merged reply is only marked `degraded` when the number of failed
/// shards reaches `replication`: below that, the replica invariant
/// guarantees every name still has a live copy in the merge, so the
/// snapshot is complete even though a backend is down.
pub fn merge_snapshot(outcomes: &[ShardOutcome], ring: &HashRing, replication: usize) -> String {
    merge_named_fanout("snapshot", outcomes, ring, replication)
}

/// Merge name-less `entities` replies: the same replica-aware fold as
/// [`merge_snapshot`] — one entity table per name (the preferred
/// replica's copy, so a tier running below R never emits a name's
/// entities twice), sorted by name, degraded only at `replication`
/// failures.
pub fn merge_entities(outcomes: &[ShardOutcome], ring: &HashRing, replication: usize) -> String {
    merge_named_fanout("entities", outcomes, ring, replication)
}

/// The shared replica-aware merge behind [`merge_snapshot`] and
/// [`merge_entities`]: both ops fan out to every backend and come back
/// as a `names` array of per-name objects, so the dedup-by-replica-rank
/// and degraded-only-at-R logic is one piece of code.
fn merge_named_fanout(
    op: &str,
    outcomes: &[ShardOutcome],
    ring: &HashRing,
    replication: usize,
) -> String {
    let replication = replication.clamp(1, ring.len());
    let mut entries: Vec<(String, usize, Value)> = Vec::new();
    for outcome in outcomes {
        if failure_of(outcome).is_some() {
            continue;
        }
        let Ok(reply) = &outcome.result else { continue };
        let Some(names) = reply.get("names").and_then(Value::as_array) else {
            continue;
        };
        for entry in names {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let mut entry = entry.clone();
            push_field(&mut entry, "shard", Value::Number(outcome.index as f64));
            entries.push((name, outcome.index, entry));
        }
    }
    // Preference of a copy: its shard's position in the name's replica
    // set, then the shard index as a stable tie-break for copies a
    // topology change stranded outside the set.
    let rank = |name: &str, shard: usize| {
        let set = ring.successors(name, replication);
        (
            set.iter()
                .position(|&idx| idx == shard)
                .unwrap_or(set.len()),
            shard,
        )
    };
    entries.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| rank(&a.0, a.1).cmp(&rank(&b.0, b.1)))
    });
    entries.dedup_by(|b, a| a.0 == b.0);
    let names: Vec<Value> = entries.into_iter().map(|(_, _, entry)| entry).collect();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String(op.into())),
        ("names", Value::Array(names)),
    ];
    let failed = outcomes.iter().filter(|o| failure_of(o).is_some()).count();
    if failed >= replication {
        fields.extend(degraded_fields(outcomes));
    }
    render(&object(fields))
}

/// Merge `persist` / `restore` replies: sum the per-shard name counts.
pub fn merge_count(op: &str, outcomes: &[ShardOutcome]) -> String {
    let total: u64 = outcomes
        .iter()
        .filter(|o| failure_of(o).is_none())
        .filter_map(|o| o.result.as_ref().ok())
        .filter_map(|v| v.get("names").and_then(Value::as_u64))
        .sum();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String(op.into())),
        ("names", Value::Number(total as f64)),
    ];
    fields.extend(degraded_fields(outcomes));
    render(&object(fields))
}

/// Merge `flush` / `shutdown` replies: a plain acknowledgement, degraded
/// when some shard never acknowledged.
pub fn merge_plain(op: &str, outcomes: &[ShardOutcome]) -> String {
    let mut fields = vec![("ok", Value::Bool(true)), ("op", Value::String(op.into()))];
    fields.extend(degraded_fields(outcomes));
    render(&object(fields))
}

/// Merge `metrics` replies: parse each backend's snapshot back into a
/// [`MetricsSnapshot`], namespace it under `shard<i>.`, fold all of them
/// plus the router's own metrics into one reply.
pub fn merge_metrics(router_own: MetricsSnapshot, outcomes: &[ShardOutcome]) -> String {
    let mut merged = router_own;
    for outcome in outcomes {
        if failure_of(outcome).is_some() {
            continue;
        }
        let Ok(reply) = &outcome.result else { continue };
        merged.merge_namespaced(
            &format!("shard{}", outcome.index),
            snapshot_from_wire(reply),
        );
    }
    let mut body = weber_stream::protocol::metrics_value(&merged);
    for (key, value) in degraded_fields(outcomes) {
        push_field(&mut body, key, value);
    }
    render(&body)
}

/// Reconstruct a [`MetricsSnapshot`] from a backend's `metrics` reply (the
/// inverse of [`weber_stream::protocol::metrics_value`]). Unparseable
/// entries are skipped — a version-skewed backend degrades its own
/// metrics, not the whole merge.
pub fn snapshot_from_wire(reply: &Value) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::default();
    if let Some(counters) = reply.get("counters").and_then(Value::as_object) {
        for (name, v) in counters {
            if let Some(n) = v.as_u64() {
                snapshot.counters.push((name.clone(), n));
            }
        }
    }
    if let Some(gauges) = reply.get("gauges").and_then(Value::as_object) {
        for (name, v) in gauges {
            if let Some(n) = v.as_f64() {
                snapshot.gauges.push((name.clone(), n as i64));
            }
        }
    }
    if let Some(histograms) = reply.get("histograms").and_then(Value::as_object) {
        for (name, h) in histograms {
            let (Some(count), Some(sum)) = (
                h.get("count").and_then(Value::as_u64),
                h.get("sum").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let mut buckets = Vec::new();
            for bucket in h.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
                let Some(n) = bucket.get("count").and_then(Value::as_u64) else {
                    continue;
                };
                let bound = match bucket.get("le").and_then(Value::as_str) {
                    Some("+Inf") => BucketCount::Overflow,
                    Some(le) => match le.parse::<u64>() {
                        Ok(b) => BucketCount::Le(b),
                        Err(_) => continue,
                    },
                    None => continue,
                };
                buckets.push((bound, n));
            }
            snapshot.histograms.push(HistogramSnapshot {
                name: name.clone(),
                count,
                sum,
                min: h.get("min").and_then(Value::as_u64).unwrap_or(0),
                max: h.get("max").and_then(Value::as_u64).unwrap_or(0),
                buckets,
            });
        }
    }
    snapshot
}

/// A router-originated error reply carrying the same `ok`/`error`/`kind`
/// contract the backends use, plus any routing context fields.
pub fn err_with_kind(message: &str, kind: &str, extra: Vec<(&str, Value)>) -> String {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String(message.to_string())),
        ("kind", Value::String(kind.to_string())),
    ];
    fields.extend(extra);
    render(&object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_outcome(index: usize, json: &str) -> ShardOutcome {
        ShardOutcome {
            index,
            addr: format!("127.0.0.1:{}", 7000 + index),
            result: Ok(serde_json::parse_value(json).unwrap()),
        }
    }

    fn dead_outcome(index: usize) -> ShardOutcome {
        ShardOutcome {
            index,
            addr: format!("127.0.0.1:{}", 7000 + index),
            result: Err("connect: connection refused".into()),
        }
    }

    fn ring(n: usize) -> HashRing {
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
        HashRing::new(&addrs, 64)
    }

    #[test]
    fn snapshot_merge_concatenates_sorts_and_tags() {
        let merged = merge_snapshot(
            &[
                ok_outcome(
                    0,
                    r#"{"ok":true,"op":"snapshot","names":[{"name":"smith","docs":2}]}"#,
                ),
                ok_outcome(
                    1,
                    r#"{"ok":true,"op":"snapshot","names":[{"name":"cohen","docs":3}]}"#,
                ),
            ],
            &ring(2),
            1,
        );
        let v = serde_json::parse_value(&merged).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("degraded").is_none(), "all shards answered: {merged}");
        let names = v.get("names").unwrap().as_array().unwrap();
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].get("name").unwrap().as_str(), Some("cohen"));
        assert_eq!(names[0].get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(names[1].get("name").unwrap().as_str(), Some("smith"));
        assert_eq!(names[1].get("shard").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn snapshot_merge_dedupes_replicated_names_by_ring_preference() {
        let ring = ring(3);
        let set = ring.successors("cohen", 2);
        // Both replicas report the name; the merged snapshot must keep
        // exactly one copy — the primary's — and stay non-degraded.
        let merged = merge_snapshot(
            &[
                ok_outcome(
                    set[0],
                    r#"{"ok":true,"op":"snapshot","names":[{"name":"cohen","docs":5}]}"#,
                ),
                ok_outcome(
                    set[1],
                    r#"{"ok":true,"op":"snapshot","names":[{"name":"cohen","docs":5}]}"#,
                ),
            ],
            &ring,
            2,
        );
        let v = serde_json::parse_value(&merged).unwrap();
        let names = v.get("names").unwrap().as_array().unwrap();
        assert_eq!(names.len(), 1, "one entry per name: {merged}");
        assert_eq!(
            names[0].get("shard").unwrap().as_u64(),
            Some(set[0] as u64),
            "the primary's copy wins"
        );
    }

    #[test]
    fn entities_merge_keeps_one_table_per_name_under_replication() {
        let ring = ring(3);
        let set = ring.successors("cohen", 2);
        let table = r#"{"ok":true,"op":"entities","names":[{"name":"cohen","docs":4,"entities":[{"id":1,"mentions":[0,1]}]}]}"#;
        // Both replicas hold the name's entity table; the fan-out must
        // emit it once, from the preferred replica, and op stays
        // `entities`.
        let merged = merge_entities(
            &[ok_outcome(set[0], table), ok_outcome(set[1], table)],
            &ring,
            2,
        );
        let v = serde_json::parse_value(&merged).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("entities"));
        let names = v.get("names").unwrap().as_array().unwrap();
        assert_eq!(names.len(), 1, "{merged}");
        assert_eq!(names[0].get("shard").unwrap().as_u64(), Some(set[0] as u64));
        // One replica down stays non-degraded below R.
        let merged = merge_entities(&[ok_outcome(set[1], table), dead_outcome(set[0])], &ring, 2);
        let v = serde_json::parse_value(&merged).unwrap();
        assert!(v.get("degraded").is_none(), "{merged}");
        assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn snapshot_merge_suppresses_degraded_below_the_replication_factor() {
        let ring = ring(3);
        let set = ring.successors("cohen", 2);
        let entry = r#"{"ok":true,"op":"snapshot","names":[{"name":"cohen","docs":5}]}"#;
        // Primary dead, replica answering: with R=2 the replica invariant
        // says coverage is still complete, so no degraded marker …
        let merged = merge_snapshot(&[ok_outcome(set[1], entry), dead_outcome(set[0])], &ring, 2);
        let v = serde_json::parse_value(&merged).unwrap();
        assert!(v.get("degraded").is_none(), "{merged}");
        assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);
        // … but R failures can lose names, and must degrade the reply.
        let merged = merge_snapshot(&[dead_outcome(set[0]), dead_outcome(set[1])], &ring, 2);
        let v = serde_json::parse_value(&merged).unwrap();
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true), "{merged}");
    }

    #[test]
    fn dead_shards_degrade_the_merge_instead_of_failing_it() {
        let merged = merge_snapshot(
            &[
                ok_outcome(
                    0,
                    r#"{"ok":true,"op":"snapshot","names":[{"name":"smith","docs":2}]}"#,
                ),
                dead_outcome(1),
            ],
            &ring(2),
            1,
        );
        let v = serde_json::parse_value(&merged).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        let unreachable = v.get("unreachable").unwrap().as_array().unwrap();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(
            unreachable[0].get("error").unwrap().as_str(),
            Some("connect: connection refused")
        );
        assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn explicit_error_replies_also_degrade() {
        let merged = merge_count(
            "persist",
            &[
                ok_outcome(0, r#"{"ok":true,"op":"persist","names":4}"#),
                ok_outcome(
                    1,
                    r#"{"ok":false,"error":"persistence: no state dir","kind":"persistence"}"#,
                ),
            ],
        );
        let v = serde_json::parse_value(&merged).unwrap();
        assert_eq!(v.get("names").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        let unreachable = v.get("unreachable").unwrap().as_array().unwrap();
        assert_eq!(
            unreachable[0].get("error").unwrap().as_str(),
            Some("persistence: no state dir")
        );
    }

    #[test]
    fn count_and_plain_merges_sum_and_acknowledge() {
        let outcomes = vec![
            ok_outcome(0, r#"{"ok":true,"op":"restore","names":2}"#),
            ok_outcome(1, r#"{"ok":true,"op":"restore","names":5}"#),
        ];
        let v = serde_json::parse_value(&merge_count("restore", &outcomes)).unwrap();
        assert_eq!(v.get("names").unwrap().as_u64(), Some(7));
        let v = serde_json::parse_value(&merge_plain("flush", &outcomes)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("flush"));
    }

    #[test]
    fn metrics_roundtrip_through_the_wire_format() {
        let registry = weber_obs::Registry::new();
        registry.counter("stream.ingested").add(9);
        registry.gauge("net.queue_depth").set(-1);
        registry.histogram("stream.ingest_us").record(1_500);
        let wire =
            serde_json::parse_value(&weber_stream::protocol::ok_metrics(&registry.snapshot()))
                .unwrap();
        let back = snapshot_from_wire(&wire);
        assert_eq!(back.counter("stream.ingested"), Some(9));
        assert_eq!(back.gauge("net.queue_depth"), Some(-1));
        let hist = back.histogram("stream.ingest_us").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 1_500);
        assert_eq!(hist.buckets.last().unwrap().0, BucketCount::Overflow);
    }

    #[test]
    fn metrics_merge_namespaces_backend_snapshots() {
        let backend = weber_obs::Registry::new();
        backend.counter("stream.ingested").add(3);
        let wire = weber_stream::protocol::ok_metrics(&backend.snapshot());
        let router = weber_obs::Registry::new();
        router.counter("route.requests").add(11);
        let merged = merge_metrics(
            router.snapshot(),
            &[
                ShardOutcome {
                    index: 0,
                    addr: "a:1".into(),
                    result: Ok(serde_json::parse_value(&wire).unwrap()),
                },
                dead_outcome(1),
            ],
        );
        let v = serde_json::parse_value(&merged).unwrap();
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("route.requests").unwrap().as_u64(), Some(11));
        assert_eq!(
            counters.get("shard0.stream.ingested").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn err_with_kind_carries_context_fields() {
        let line = err_with_kind(
            "shard 2 (127.0.0.1:7002) is unreachable: connection refused",
            "unreachable",
            vec![
                ("shard", Value::Number(2.0)),
                ("degraded", Value::Bool(true)),
            ],
        );
        let v = serde_json::parse_value(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(2));
    }
}
