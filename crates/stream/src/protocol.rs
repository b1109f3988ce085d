//! The NDJSON wire protocol of `weber serve`.
//!
//! One JSON object per line in, one JSON object per line out, dispatched on
//! the `"op"` field:
//!
//! ```text
//! {"op":"seed","name":"cohen","docs":[{"text":"…","url":"…","label":0},…]}
//! {"op":"ingest","name":"cohen","text":"…","url":"…"}
//! {"op":"resolve","name":"cohen"}
//! {"op":"entities","name":"cohen"}
//! {"op":"entities"}
//! {"op":"same_as","name":"cohen","a":1,"b":2}
//! {"op":"same_as","name":"cohen","a":1,"b":2,"retract":true}
//! {"op":"constraint","name":"cohen","add":{"kind":"cannot-link","a":0,"b":3}}
//! {"op":"constraint","name":"cohen","clear":true}
//! {"op":"snapshot"}
//! {"op":"metrics"}
//! {"op":"health"}
//! {"op":"persist"}
//! {"op":"restore"}
//! {"op":"flush"}
//! {"op":"shutdown"}
//! ```
//!
//! Every response carries `"ok"` and echoes the request's `"op"`; failures
//! carry `"error"` instead of result fields. Responses are emitted in
//! admission order, so a `flush` response proves every earlier request has
//! been answered.

use serde::Value;

use crate::error::StreamError;
use crate::resolver::{SeedDocument, SeedSummary};
use crate::snapshot::Snapshot;
use crate::state::ClusterAssignment;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Train a name on a labelled batch.
    Seed {
        /// The ambiguous name.
        name: String,
        /// The labelled documents.
        docs: Vec<SeedDocument>,
    },
    /// Ingest one document for a seeded name.
    Ingest {
        /// The ambiguous name.
        name: String,
        /// Page text.
        text: String,
        /// Page URL, when known.
        url: Option<String>,
    },
    /// Read one name's current state summary (docs, clusters, model).
    /// The per-name read: it routes to the same worker as the name's
    /// writes, so a `resolve` admitted after an `ingest` sees it applied.
    Resolve {
        /// The ambiguous name.
        name: String,
    },
    /// Materialize and read a name's canonical entity table: stable IDs,
    /// member mentions with provenance, active `SAME_AS` links, and the
    /// constraint report of the pass. With no name: every seeded name's
    /// table (the routing tier fans this out across shards).
    Entities {
        /// The ambiguous name, or `None` for every name.
        name: Option<String>,
    },
    /// Assert (or, with `retract`, withdraw) a reversible `SAME_AS` link
    /// between two canonical entity IDs of one name.
    SameAs {
        /// The ambiguous name.
        name: String,
        /// One endpoint entity ID.
        a: u64,
        /// The other endpoint entity ID.
        b: u64,
        /// True to withdraw the link instead of asserting it.
        retract: bool,
    },
    /// Register one global constraint for a name, or clear them all.
    Constraint {
        /// The ambiguous name.
        name: String,
        /// What to do with the name's constraint set.
        action: ConstraintAction,
    },
    /// Report per-name state summaries.
    Snapshot,
    /// Report the daemon's metrics: counters, gauges and latency
    /// histograms.
    Metrics,
    /// Liveness probe: uptime, live names and queue depth. Cheap, never
    /// load-shed, and answered at admission without touching the worker
    /// queues — a saturated daemon still answers its probes.
    Health,
    /// Write every live name's state to the configured state directory.
    Persist,
    /// Load every on-disk name that is not already live.
    Restore,
    /// Ordering barrier: answered after every earlier request.
    Flush,
    /// Stop the service after answering.
    Shutdown,
}

/// What a `constraint` request does to a name's constraint set.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintAction {
    /// Register one constraint (deduplicated).
    Add(weber_entity::Constraint),
    /// Drop every registered constraint.
    Clear,
}

impl Request {
    /// The op label a response should echo.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Seed { .. } => "seed",
            Request::Ingest { .. } => "ingest",
            Request::Resolve { .. } => "resolve",
            Request::Entities { .. } => "entities",
            Request::SameAs { .. } => "same_as",
            Request::Constraint { .. } => "constraint",
            Request::Snapshot => "snapshot",
            Request::Metrics => "metrics",
            Request::Health => "health",
            Request::Persist => "persist",
            Request::Restore => "restore",
            Request::Flush => "flush",
            Request::Shutdown => "shutdown",
        }
    }
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, StreamError> {
    obj.get(key)
        .ok_or_else(|| StreamError::InvalidRequest(format!("missing field '{key}'")))
}

fn string_field(obj: &Value, key: &str) -> Result<String, StreamError> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| StreamError::InvalidRequest(format!("field '{key}' must be a string")))
}

fn optional_string(obj: &Value, key: &str) -> Result<Option<String>, StreamError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| StreamError::InvalidRequest(format!("field '{key}' must be a string"))),
    }
}

fn u64_field(obj: &Value, key: &str) -> Result<u64, StreamError> {
    field(obj, key)?.as_u64().ok_or_else(|| {
        StreamError::InvalidRequest(format!("field '{key}' must be an unsigned integer"))
    })
}

fn optional_bool(obj: &Value, key: &str) -> Result<bool, StreamError> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) if v.is_null() => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| StreamError::InvalidRequest(format!("field '{key}' must be a boolean"))),
    }
}

/// A `{"<doc-index>":"<value>",…}` object, as `(doc, value)` pairs.
fn doc_value_map(obj: &Value, key: &str) -> Result<Vec<(usize, String)>, StreamError> {
    let entries = field(obj, key)?.as_object().ok_or_else(|| {
        StreamError::InvalidRequest(format!(
            "field '{key}' must be an object mapping document indices to strings"
        ))
    })?;
    if entries.is_empty() {
        return Err(StreamError::InvalidRequest(format!(
            "field '{key}' must not be empty"
        )));
    }
    let mut pairs = Vec::with_capacity(entries.len());
    for (doc, value) in entries {
        let doc = doc.parse::<usize>().map_err(|_| {
            StreamError::InvalidRequest(format!("key '{doc}' in '{key}' is not a document index"))
        })?;
        let value = value.as_str().ok_or_else(|| {
            StreamError::InvalidRequest(format!("values of '{key}' must be strings"))
        })?;
        pairs.push((doc, value.to_string()));
    }
    Ok(pairs)
}

/// The `add` spec of a `constraint` request, dispatched on its `kind`.
fn parse_constraint(spec: &Value) -> Result<weber_entity::Constraint, StreamError> {
    let kind = string_field(spec, "kind")?;
    let as_doc = |v: u64| -> Result<usize, StreamError> {
        usize::try_from(v)
            .map_err(|_| StreamError::InvalidRequest(format!("document index {v} is out of range")))
    };
    match kind.as_str() {
        "cannot-link" => Ok(weber_entity::Constraint::CannotLink {
            a: as_doc(u64_field(spec, "a")?)?,
            b: as_doc(u64_field(spec, "b")?)?,
        }),
        "one-to-one" => Ok(weber_entity::Constraint::OneToOne {
            key: string_field(spec, "key")?,
            values: doc_value_map(spec, "values")?,
        }),
        "type" => Ok(weber_entity::Constraint::TypeBoundary {
            types: doc_value_map(spec, "types")?,
        }),
        other => Err(StreamError::InvalidRequest(format!(
            "unknown constraint kind '{other}' (expected cannot-link, one-to-one or type)"
        ))),
    }
}

/// Parse one NDJSON request line.
pub fn parse_request(line: &str) -> Result<Request, StreamError> {
    let value = serde_json::parse_value(line).map_err(|e| StreamError::Parse(e.to_string()))?;
    let op = string_field(&value, "op")?;
    match op.as_str() {
        "seed" => {
            let name = string_field(&value, "name")?;
            let docs_value = field(&value, "docs")?;
            let entries = docs_value.as_array().ok_or_else(|| {
                StreamError::InvalidRequest("field 'docs' must be an array".into())
            })?;
            let mut docs = Vec::with_capacity(entries.len());
            for entry in entries {
                let label = field(entry, "label")?.as_u64().ok_or_else(|| {
                    StreamError::InvalidRequest("field 'label' must be an integer".into())
                })?;
                // Labels are u32 downstream; reject out-of-range values
                // here instead of silently truncating them (which would
                // alias distinct entities).
                let label = u32::try_from(label).map_err(|_| {
                    StreamError::InvalidRequest(format!(
                        "label {label} is out of range (max {})",
                        u32::MAX
                    ))
                })?;
                docs.push(SeedDocument {
                    text: string_field(entry, "text")?,
                    url: optional_string(entry, "url")?,
                    label,
                });
            }
            Ok(Request::Seed { name, docs })
        }
        "ingest" => Ok(Request::Ingest {
            name: string_field(&value, "name")?,
            text: string_field(&value, "text")?,
            url: optional_string(&value, "url")?,
        }),
        "resolve" => Ok(Request::Resolve {
            name: string_field(&value, "name")?,
        }),
        "entities" => Ok(Request::Entities {
            name: optional_string(&value, "name")?,
        }),
        "same_as" => Ok(Request::SameAs {
            name: string_field(&value, "name")?,
            a: u64_field(&value, "a")?,
            b: u64_field(&value, "b")?,
            retract: optional_bool(&value, "retract")?,
        }),
        "constraint" => {
            let name = string_field(&value, "name")?;
            let action = match (value.get("add"), optional_bool(&value, "clear")?) {
                (Some(spec), false) => ConstraintAction::Add(parse_constraint(spec)?),
                (None, true) => ConstraintAction::Clear,
                (Some(_), true) => {
                    return Err(StreamError::InvalidRequest(
                        "'add' and 'clear' are mutually exclusive".into(),
                    ))
                }
                (None, false) => {
                    return Err(StreamError::InvalidRequest(
                        "constraint needs an 'add' spec or 'clear':true".into(),
                    ))
                }
            };
            Ok(Request::Constraint { name, action })
        }
        "snapshot" => Ok(Request::Snapshot),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "persist" => Ok(Request::Persist),
        "restore" => Ok(Request::Restore),
        "flush" => Ok(Request::Flush),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(StreamError::InvalidRequest(format!("unknown op '{other}'"))),
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("protocol values serialise")
}

/// Response to a successful `seed`.
pub fn ok_seed(name: &str, summary: &SeedSummary) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("seed".into())),
        ("name", Value::String(name.to_string())),
        ("docs", Value::Number(summary.docs as f64)),
        ("clusters", Value::Number(summary.clusters as f64)),
        ("function", Value::String(summary.function.clone())),
        ("criterion", Value::String(summary.criterion.clone())),
        ("accuracy", Value::Number(summary.accuracy)),
    ]))
}

/// Response to a successful `ingest`.
pub fn ok_ingest(name: &str, a: &ClusterAssignment) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("ingest".into())),
        ("name", Value::String(name.to_string())),
        ("doc", Value::Number(a.doc as f64)),
        ("cluster", Value::Number(a.cluster as f64)),
        ("new_cluster", Value::Bool(a.is_new_cluster)),
        ("cluster_size", Value::Number(a.cluster_size as f64)),
        ("linked_members", Value::Number(a.linked_members as f64)),
    ]))
}

/// Response to a successful `resolve`: the same summary shape one entry
/// of the `snapshot` reply carries, for a single name, plus `members` —
/// the member mention ids of each live cluster (ascending within a
/// cluster, clusters ordered by smallest member).
pub fn ok_resolve(summary: &crate::snapshot::NameSnapshot) -> String {
    let members = summary
        .members
        .iter()
        .map(|cluster| {
            Value::Array(
                cluster
                    .iter()
                    .map(|&doc| Value::Number(doc as f64))
                    .collect(),
            )
        })
        .collect();
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("resolve".into())),
        ("name", Value::String(summary.name.clone())),
        ("docs", Value::Number(summary.docs as f64)),
        ("clusters", Value::Number(summary.clusters as f64)),
        ("function", Value::String(summary.function.clone())),
        ("criterion", Value::String(summary.criterion.clone())),
        ("accuracy", Value::Number(summary.accuracy)),
        ("members", Value::Array(members)),
    ]))
}

/// Response to `snapshot`.
pub fn ok_snapshot(snapshot: &Snapshot) -> String {
    let names = snapshot
        .names
        .iter()
        .map(|n| {
            object(vec![
                ("name", Value::String(n.name.clone())),
                ("docs", Value::Number(n.docs as f64)),
                ("clusters", Value::Number(n.clusters as f64)),
                ("function", Value::String(n.function.clone())),
                ("criterion", Value::String(n.criterion.clone())),
                ("accuracy", Value::Number(n.accuracy)),
            ])
        })
        .collect();
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("snapshot".into())),
        ("names", Value::Array(names)),
    ]))
}

/// One name's canonical entity table as a JSON value: the body shared by
/// the single-name and all-names `entities` responses, and the shape the
/// routing tier's fan-out merge works on.
pub fn entity_table_value(table: &crate::resolver::EntityTable) -> Value {
    use weber_entity::{MentionOrigin, Via};
    let entities = table
        .entities
        .iter()
        .map(|e| {
            let provenance = e
                .provenance
                .iter()
                .map(|p| {
                    let mut fields = vec![
                        ("doc", Value::Number(p.doc as f64)),
                        (
                            "source",
                            Value::String(
                                match p.origin {
                                    MentionOrigin::Seed { .. } => "seed",
                                    MentionOrigin::Ingest => "ingest",
                                }
                                .into(),
                            ),
                        ),
                    ];
                    if let MentionOrigin::Seed { label } = p.origin {
                        fields.push(("label", Value::Number(label as f64)));
                    }
                    fields.push(("via", Value::String(p.via.token().into())));
                    if let Via::SameAs { a, b } = p.via {
                        fields.push((
                            "link",
                            Value::Array(vec![Value::Number(a as f64), Value::Number(b as f64)]),
                        ));
                    }
                    object(fields)
                })
                .collect();
            object(vec![
                ("id", Value::Number(e.id as f64)),
                (
                    "mentions",
                    Value::Array(
                        e.mentions
                            .iter()
                            .map(|&m| Value::Number(m as f64))
                            .collect(),
                    ),
                ),
                ("provenance", Value::Array(provenance)),
            ])
        })
        .collect();
    let links = table
        .links
        .iter()
        .map(|l| {
            object(vec![
                ("a", Value::Number(l.a as f64)),
                ("b", Value::Number(l.b as f64)),
            ])
        })
        .collect();
    object(vec![
        ("name", Value::String(table.name.clone())),
        ("docs", Value::Number(table.docs as f64)),
        ("entities", Value::Array(entities)),
        ("links", Value::Array(links)),
        ("constraints", Value::Number(table.constraints as f64)),
        ("splits", Value::Number(table.report.splits as f64)),
        ("violations", Value::Number(table.report.violations as f64)),
        (
            "vetoed_links",
            Value::Number(table.report.vetoed_links as f64),
        ),
        (
            "retained_ids",
            Value::Number(table.report.retained_ids as f64),
        ),
        (
            "resurrected_ids",
            Value::Number(table.report.resurrected_ids as f64),
        ),
        ("fresh_ids", Value::Number(table.report.fresh_ids as f64)),
    ])
}

/// Response to a per-name `entities`: the table body with `ok`/`op`
/// prepended.
pub fn ok_entities(table: &crate::resolver::EntityTable) -> String {
    let Value::Object(fields) = entity_table_value(table) else {
        unreachable!("entity_table_value builds an object");
    };
    let mut all = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::String("entities".into())),
    ];
    all.extend(fields);
    render(&Value::Object(all))
}

/// Response to a name-less `entities`: every seeded name's table under
/// `names`, sorted by name.
pub fn ok_entities_all(tables: &[crate::resolver::EntityTable]) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("entities".into())),
        (
            "names",
            Value::Array(tables.iter().map(entity_table_value).collect()),
        ),
    ]))
}

/// Response to a successful `same_as` (assert or retract): echoes the
/// link, reports whether it is now active, and summarises the re-
/// materialized table — `entities`/`links` are counts here, and the
/// violation tallies surface what the pass found (a vetoed link means
/// the union was refused by a constraint but the link remains for
/// retraction).
pub fn ok_same_as(
    table: &crate::resolver::EntityTable,
    a: u64,
    b: u64,
    retract: bool,
    active: bool,
) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("same_as".into())),
        ("name", Value::String(table.name.clone())),
        ("a", Value::Number(a as f64)),
        ("b", Value::Number(b as f64)),
        ("retract", Value::Bool(retract)),
        ("active", Value::Bool(active)),
        ("entities", Value::Number(table.entities.len() as f64)),
        ("links", Value::Number(table.links.len() as f64)),
        ("violations", Value::Number(table.report.violations as f64)),
        (
            "vetoed_links",
            Value::Number(table.report.vetoed_links as f64),
        ),
    ]))
}

/// Response to a successful `constraint`: whether the set grew (an `add`
/// of a duplicate reports `added:false`; a `clear` always reports
/// `added:false`), the resulting set size, and the re-materialized
/// table's summary.
pub fn ok_constraint(table: &crate::resolver::EntityTable, added: bool) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("constraint".into())),
        ("name", Value::String(table.name.clone())),
        ("added", Value::Bool(added)),
        ("constraints", Value::Number(table.constraints as f64)),
        ("entities", Value::Number(table.entities.len() as f64)),
        ("splits", Value::Number(table.report.splits as f64)),
        ("violations", Value::Number(table.report.violations as f64)),
    ]))
}

/// Response to `flush` / `shutdown` (plain acknowledgements).
pub fn ok_plain(op: &str) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String(op.to_string())),
    ]))
}

/// Response to `health`: uptime in (fractional) seconds plus the live
/// name count and current admission-queue depth.
pub fn ok_health(report: &crate::resolver::HealthReport) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("health".into())),
        ("uptime_s", Value::Number(report.uptime.as_secs_f64())),
        ("names", Value::Number(report.names as f64)),
        ("queue_depth", Value::Number(report.queue_depth as f64)),
        ("workers", Value::Number(report.workers as f64)),
        (
            "queue_capacity",
            Value::Number(report.queue_capacity as f64),
        ),
    ]))
}

/// Response to `persist` / `restore`: how many names were written or
/// loaded.
pub fn ok_count(op: &str, names: usize) -> String {
    render(&object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String(op.to_string())),
        ("names", Value::Number(names as f64)),
    ]))
}

/// The `metrics` response body as a JSON value. Split out from
/// [`ok_metrics`] so the routing tier can append shard metadata (degraded
/// markers, unreachable backends) before rendering.
pub fn metrics_value(snapshot: &weber_obs::MetricsSnapshot) -> Value {
    let counters = Value::Object(
        snapshot
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), Value::Number(*v as f64)))
            .collect(),
    );
    let gauges = Value::Object(
        snapshot
            .gauges
            .iter()
            .map(|(name, v)| (name.clone(), Value::Number(*v as f64)))
            .collect(),
    );
    let histograms = Value::Object(
        snapshot
            .histograms
            .iter()
            .map(|h| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(bound, count)| {
                        object(vec![
                            ("le", Value::String(bound.to_string())),
                            ("count", Value::Number(*count as f64)),
                        ])
                    })
                    .collect();
                let body = object(vec![
                    ("count", Value::Number(h.count as f64)),
                    ("sum", Value::Number(h.sum as f64)),
                    ("min", Value::Number(h.min as f64)),
                    ("max", Value::Number(h.max as f64)),
                    ("mean", Value::Number(h.mean())),
                    ("buckets", Value::Array(buckets)),
                ]);
                (h.name.clone(), body)
            })
            .collect(),
    );
    object(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::String("metrics".into())),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Response to `metrics`: counters and gauges as flat objects keyed by
/// metric name, histograms as objects with summary stats and per-bucket
/// counts (`le` is the inclusive upper bound in microseconds, `"+Inf"`
/// for the overflow bucket).
pub fn ok_metrics(snapshot: &weber_obs::MetricsSnapshot) -> String {
    render(&metrics_value(snapshot))
}

/// Error response: a human-readable `error` message plus the stable
/// machine-readable `kind` token ([`StreamError::kind`]). Clients match
/// on `kind` (`"overloaded"` means back off and retry); the `error` text
/// may change wording between versions, `kind` may not.
pub fn err_response(error: &StreamError) -> String {
    render(&object(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String(error.to_string())),
        ("kind", Value::String(error.kind().to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let seed = parse_request(
            r#"{"op":"seed","name":"cohen","docs":[{"text":"a","label":0},{"text":"b","url":"http://x.example.com","label":1}]}"#,
        )
        .unwrap();
        match seed {
            Request::Seed { name, docs } => {
                assert_eq!(name, "cohen");
                assert_eq!(docs.len(), 2);
                assert_eq!(docs[0].url, None);
                assert_eq!(docs[1].url.as_deref(), Some("http://x.example.com"));
                assert_eq!(docs[1].label, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"ingest","name":"cohen","text":"hello"}"#).unwrap(),
            Request::Ingest {
                name: "cohen".into(),
                text: "hello".into(),
                url: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"resolve","name":"cohen"}"#).unwrap(),
            Request::Resolve {
                name: "cohen".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"snapshot"}"#).unwrap(),
            Request::Snapshot
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"op":"entities","name":"cohen"}"#).unwrap(),
            Request::Entities {
                name: Some("cohen".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"entities"}"#).unwrap(),
            Request::Entities { name: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"same_as","name":"cohen","a":1,"b":2}"#).unwrap(),
            Request::SameAs {
                name: "cohen".into(),
                a: 1,
                b: 2,
                retract: false
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"same_as","name":"cohen","a":2,"b":1,"retract":true}"#).unwrap(),
            Request::SameAs {
                name: "cohen".into(),
                a: 2,
                b: 1,
                retract: true
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"constraint","name":"cohen","add":{"kind":"cannot-link","a":0,"b":3}}"#
            )
            .unwrap(),
            Request::Constraint {
                name: "cohen".into(),
                action: ConstraintAction::Add(weber_entity::Constraint::CannotLink { a: 0, b: 3 })
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"constraint","name":"cohen","add":{"kind":"one-to-one","key":"affiliation","values":{"0":"acme","2":"globex"}}}"#
            )
            .unwrap(),
            Request::Constraint {
                name: "cohen".into(),
                action: ConstraintAction::Add(weber_entity::Constraint::OneToOne {
                    key: "affiliation".into(),
                    values: vec![(0, "acme".into()), (2, "globex".into())]
                })
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"constraint","name":"cohen","add":{"kind":"type","types":{"1":"person"}}}"#
            )
            .unwrap(),
            Request::Constraint {
                name: "cohen".into(),
                action: ConstraintAction::Add(weber_entity::Constraint::TypeBoundary {
                    types: vec![(1, "person".into())]
                })
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"constraint","name":"cohen","clear":true}"#).unwrap(),
            Request::Constraint {
                name: "cohen".into(),
                action: ConstraintAction::Clear
            }
        );
        assert_eq!(parse_request(r#"{"op":"flush"}"#).unwrap(), Request::Flush);
        assert_eq!(
            parse_request(r#"{"op":"persist"}"#).unwrap(),
            Request::Persist
        );
        assert_eq!(
            parse_request(r#"{"op":"restore"}"#).unwrap(),
            Request::Restore
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        // Not JSON at all: a Parse error with the documented prefix.
        let err = parse_request("not json").unwrap_err();
        assert!(matches!(err, StreamError::Parse(_)), "{err:?}");
        assert!(err.to_string().starts_with("parse: "), "{err}");
        // Well-formed JSON with a bad shape: InvalidRequest.
        let err = parse_request(r#"{"name":"cohen"}"#).unwrap_err();
        assert!(matches!(err, StreamError::InvalidRequest(_)), "{err:?}");
        assert!(parse_request(r#"{"op":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"op":"ingest","name":"cohen"}"#).is_err());
        assert!(
            parse_request(r#"{"op":"resolve"}"#).is_err(),
            "resolve needs a name"
        );
        assert!(
            parse_request(r#"{"op":"seed","name":"c","docs":[{"text":"a"}]}"#).is_err(),
            "label is required"
        );
        // Entity-op shapes that must be refused.
        assert!(
            parse_request(r#"{"op":"same_as","name":"c","a":1}"#).is_err(),
            "same_as needs both endpoints"
        );
        assert!(
            parse_request(r#"{"op":"same_as","name":"c","a":"x","b":2}"#).is_err(),
            "endpoints are unsigned integers"
        );
        assert!(
            parse_request(r#"{"op":"constraint","name":"c"}"#).is_err(),
            "constraint needs add or clear"
        );
        assert!(
            parse_request(
                r#"{"op":"constraint","name":"c","add":{"kind":"cannot-link","a":0,"b":1},"clear":true}"#
            )
            .is_err(),
            "add and clear are exclusive"
        );
        assert!(
            parse_request(r#"{"op":"constraint","name":"c","add":{"kind":"frob","a":0}}"#).is_err(),
            "unknown constraint kind"
        );
        assert!(
            parse_request(
                r#"{"op":"constraint","name":"c","add":{"kind":"one-to-one","key":"k","values":{}}}"#
            )
            .is_err(),
            "empty value map"
        );
        assert!(
            parse_request(
                r#"{"op":"constraint","name":"c","add":{"kind":"type","types":{"x":"person"}}}"#
            )
            .is_err(),
            "non-numeric document key"
        );
    }

    #[test]
    fn out_of_range_labels_are_rejected_not_truncated() {
        // 2^32 truncates to label 0 under `as u32`; it must be an error.
        let line = r#"{"op":"seed","name":"c","docs":[{"text":"a","label":4294967296}]}"#;
        let err = parse_request(line).unwrap_err();
        assert!(matches!(err, StreamError::InvalidRequest(msg) if msg.contains("out of range")));
        // The boundary value itself is fine.
        let line = r#"{"op":"seed","name":"c","docs":[{"text":"a","label":4294967295}]}"#;
        match parse_request(line).unwrap() {
            Request::Seed { docs, .. } => assert_eq!(docs[0].label, u32::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_are_parseable_json() {
        for line in [
            ok_plain("flush"),
            ok_count("persist", 3),
            err_response(&StreamError::Overloaded),
            ok_snapshot(&Snapshot { names: Vec::new() }),
        ] {
            let v = serde_json::parse_value(&line).unwrap();
            assert!(v.get("ok").is_some(), "{line}");
        }
        let v = serde_json::parse_value(&err_response(&StreamError::Overloaded)).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("overloaded"));
        let v = serde_json::parse_value(&err_response(&StreamError::Parse("junk".into()))).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("parse"));
    }

    #[test]
    fn resolve_response_mirrors_a_snapshot_entry() {
        let summary = crate::snapshot::NameSnapshot {
            name: "cohen".into(),
            docs: 5,
            clusters: 2,
            function: "F8".into(),
            criterion: "threshold".into(),
            accuracy: 1.0,
            members: vec![vec![0, 1, 4], vec![2, 3]],
        };
        let v = serde_json::parse_value(&ok_resolve(&summary)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("resolve"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("cohen"));
        assert_eq!(v.get("docs").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("clusters").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("function").unwrap().as_str(), Some("F8"));
        let members = v.get("members").unwrap().as_array().unwrap();
        assert_eq!(members.len(), 2);
        let first: Vec<u64> = members[0]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.as_u64().unwrap())
            .collect();
        assert_eq!(first, vec![0, 1, 4]);
    }

    #[test]
    fn health_response_carries_uptime_and_queue_depth() {
        let report = crate::resolver::HealthReport {
            uptime: std::time::Duration::from_millis(1_500),
            names: 3,
            queue_depth: 2,
            workers: 4,
            queue_capacity: 64,
        };
        let v = serde_json::parse_value(&ok_health(&report)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("health"));
        assert_eq!(v.get("uptime_s").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("names").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("queue_capacity").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn metrics_response_carries_counters_and_histograms() {
        let registry = weber_obs::Registry::new();
        registry.counter("stream.cache.hits").add(7);
        registry.gauge("net.queue_depth").set(2);
        registry.histogram("stream.ingest_us").record(1_500);
        let line = ok_metrics(&registry.snapshot());
        let v = serde_json::parse_value(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("metrics"));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("stream.cache.hits").unwrap().as_u64(), Some(7));
        let gauges = v.get("gauges").unwrap();
        assert_eq!(gauges.get("net.queue_depth").unwrap().as_u64(), Some(2));
        let hist = v
            .get("histograms")
            .unwrap()
            .get("stream.ingest_us")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(1_500));
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert!(!buckets.is_empty());
        let total: u64 = buckets
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 1, "bucket counts are non-cumulative");
        assert_eq!(
            buckets.last().unwrap().get("le").unwrap().as_str(),
            Some("+Inf")
        );
    }
}
