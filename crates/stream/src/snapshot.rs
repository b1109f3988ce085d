//! Serialisable summaries of the live streaming state, and the on-disk
//! per-name state records `persist`/`restore` round-trip through.
//!
//! # On-disk format
//!
//! One JSON file per name, named `<hex(name)>.state.json` inside the
//! configured state directory (hex-encoding the name keeps arbitrary
//! names filesystem-safe and reversible). Every file starts with a
//! versioned header — `magic` and `version` fields — that is validated
//! *before* the typed decode, so a stale or foreign file is rejected with
//! an explicit [`StreamError::SnapshotRejected`] instead of being
//! misread.
//!
//! A version-2 record holds the name's live state: the fitted model, the
//! partition's union-find forest, the next checkpoint size and a
//! fingerprint of the configuration all of it was computed under
//! ([`LiveState`]). Next to it are the raw documents (seed batch first, in
//! block order), the seed labels, and the selected function, criterion
//! and canonical partition labels. The file ends with a `digest`: a 64-bit
//! FNV-1a over everything else it holds, checked before the typed decode,
//! so a truncated or bit-flipped file is rejected rather than misread.
//!
//! Restore *adopts* a version-2 record: it re-extracts the documents,
//! rebuilds the block in one shot and takes the model and forest as
//! stored. A version-1 record has no live state, and a version-2 record
//! whose fingerprint or model does not match the running configuration
//! cannot be adopted; both are *replayed* through the deterministic
//! seed/ingest pipeline instead and verified against the recorded
//! function, criterion and partition (see
//! [`StreamResolver`](crate::resolver::StreamResolver)).
//!
//! Writes are atomic and durable per file ([`write_atomic`]): the record
//! is written to a `.tmp` sibling, synced, renamed into place, and the
//! directory is synced, so neither a crash nor a power loss leaves a
//! truncated `.state.json` behind.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};
use weber_core::decision::FittedDecision;

use crate::error::StreamError;

/// Magic string identifying a weber-stream state file.
pub const STATE_FILE_MAGIC: &str = "weber-stream-state";
/// Current on-disk format version. Version-1 files are still read (and
/// replayed); any other version is rejected.
pub const STATE_FILE_VERSION: u32 = 2;
/// File-name suffix of per-name state records.
pub const STATE_FILE_SUFFIX: &str = ".state.json";

/// Summary of one name's streaming state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameSnapshot {
    /// The ambiguous name.
    pub name: String,
    /// Documents held (seed + ingested).
    pub docs: usize,
    /// Live cluster count.
    pub clusters: usize,
    /// Name of the best-graph-selected similarity function.
    pub function: String,
    /// Label of the selected decision criterion.
    pub criterion: String,
    /// Training accuracy of the selected layer.
    pub accuracy: f64,
    /// Member mention (document) ids of each live cluster, each ascending,
    /// ordered by smallest member. The `resolve` op puts these on the wire
    /// (entity materialization needs them); the `snapshot` op keeps its
    /// summary shape and leaves them off.
    pub members: Vec<Vec<usize>>,
}

/// Summary of the whole service state, one entry per seeded name,
/// sorted by name for deterministic output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Per-name summaries.
    pub names: Vec<NameSnapshot>,
}

impl Snapshot {
    /// Total documents across names.
    pub fn total_docs(&self) -> usize {
        self.names.iter().map(|n| n.docs).sum()
    }

    /// Total clusters across names.
    pub fn total_clusters(&self) -> usize {
        self.names.iter().map(|n| n.clusters).sum()
    }
}

/// One raw document retained for persistence: the exact text and URL the
/// feature extractor saw, which is the durable (extractor-independent)
/// form of per-document state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredDocument {
    /// Page text.
    pub text: String,
    /// Page URL, when known.
    pub url: Option<String>,
}

/// The fitted model of a name's selected layer, as persisted. The
/// function and criterion it belongs to are the record's own `function`
/// and `criterion`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredModel {
    /// The fitted decision (threshold, region model or input cells).
    pub fitted: FittedDecision,
    /// Training accuracy of the selected layer.
    pub accuracy: f64,
    /// Training-Fp selection score of the selected layer.
    pub selection_score: f64,
}

/// A partition's union-find forest, as persisted. Storing the forest
/// rather than labels keeps every later `cluster` (a union-find root) that
/// an `ingest` reports identical to a daemon that never stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredForest {
    /// Each document's parent pointer (roots point at themselves).
    pub parent: Vec<u32>,
    /// Each document's union-by-rank rank.
    pub rank: Vec<u8>,
}

/// What a version-2 record adds to a version-1 one: the live state restore
/// adopts instead of replaying the history that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveState {
    /// The fitted model of the selected layer.
    pub model: StoredModel,
    /// The live partition's union-find forest.
    pub forest: StoredForest,
    /// Block size at which the next checkpoint retrain runs.
    pub retrain_at: usize,
    /// Hex FNV-1a of the configuration the state was computed under; a
    /// record from another configuration is replayed, not adopted.
    pub config_fingerprint: String,
}

/// The persisted record of one name's full streaming state.
///
/// `documents` holds every document in block order, the first
/// `seed_labels.len()` of which form the labelled seed batch.
/// `function`, `criterion` and `partition` record what the live state
/// looked like at persist time: an adopted record's forest must label the
/// documents exactly as `partition` does, and a replayed record must
/// reproduce all three.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameRecord {
    /// File-format magic ([`STATE_FILE_MAGIC`]).
    pub magic: String,
    /// File-format version ([`STATE_FILE_VERSION`], or 1 for a record
    /// written before live state was stored).
    pub version: u32,
    /// The ambiguous name.
    pub name: String,
    /// Entity labels of the seed batch (documents `0..seed_labels.len()`).
    pub seed_labels: Vec<u32>,
    /// Every document in block order, seed batch first.
    pub documents: Vec<StoredDocument>,
    /// Selected similarity function at persist time.
    pub function: String,
    /// Selected decision criterion at persist time.
    pub criterion: String,
    /// Canonical partition labels at persist time.
    pub partition: Vec<u32>,
    /// The live state; `None` in a version-1 record.
    pub live: Option<LiveState>,
}

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a 64-bit FNV-1a state.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fold a length-prefixed byte string, so adjacent strings cannot run
/// into each other.
fn fnv1a_str(state: u64, bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(state, &(bytes.len() as u64).to_le_bytes()), bytes)
}

/// Fold a value tree: a tag per node, numbers by their bits, strings and
/// containers length-prefixed. Two trees hash alike only if they hold the
/// same content, however the JSON text spelled it.
fn fnv1a_value(state: u64, value: &Value) -> u64 {
    match value {
        Value::Null => fnv1a(state, b"n"),
        Value::Bool(b) => fnv1a(state, if *b { b"t" } else { b"f" }),
        Value::Number(n) => fnv1a(fnv1a(state, b"#"), &n.to_bits().to_le_bytes()),
        Value::String(s) => fnv1a_str(fnv1a(state, b"s"), s.as_bytes()),
        Value::Array(items) => items.iter().fold(
            fnv1a(fnv1a(state, b"["), &(items.len() as u64).to_le_bytes()),
            fnv1a_value,
        ),
        Value::Object(entries) => entries.iter().fold(
            fnv1a(fnv1a(state, b"{"), &(entries.len() as u64).to_le_bytes()),
            |h, (key, v)| fnv1a_value(fnv1a_str(h, key.as_bytes()), v),
        ),
    }
}

/// Hex FNV-1a over length-prefixed parts: the configuration fingerprint a
/// version-2 record carries.
pub fn fingerprint(parts: &[&str]) -> String {
    let hash = parts
        .iter()
        .fold(FNV_OFFSET, |h, part| fnv1a_str(h, part.as_bytes()));
    format!("{hash:016x}")
}

/// The record digest: FNV-1a over every top-level field but `digest`.
fn content_digest(fields: &[(String, Value)]) -> String {
    let hash = fields
        .iter()
        .filter(|(key, _)| key != "digest")
        .fold(FNV_OFFSET, |h, (key, v)| {
            fnv1a_value(fnv1a_str(h, key.as_bytes()), v)
        });
    format!("{hash:016x}")
}

fn rejected(msg: impl Into<String>) -> StreamError {
    StreamError::SnapshotRejected(msg.into())
}

impl NameRecord {
    /// Serialise to the on-disk JSON form, sealed with its digest.
    pub fn to_json(&self) -> String {
        let Value::Object(mut fields) = self.to_value() else {
            unreachable!("a record serialises to an object")
        };
        let digest = content_digest(&fields);
        fields.push(("digest".into(), Value::String(digest)));
        serde_json::to_string(&Value::Object(fields)).expect("state records serialise")
    }

    /// Parse and validate an on-disk record. The header (magic + version)
    /// and, from version 2 on, the digest are checked against the raw
    /// value tree before the typed decode, so files written by anything
    /// else — by an unknown format version, or damaged after writing —
    /// fail with [`StreamError::SnapshotRejected`], never a misread.
    pub fn from_json(json: &str) -> Result<Self, StreamError> {
        let value =
            serde_json::parse_value(json).map_err(|e| rejected(format!("not valid JSON: {e}")))?;
        match value.get("magic").and_then(|m| m.as_str()) {
            Some(STATE_FILE_MAGIC) => {}
            Some(other) => {
                return Err(rejected(format!(
                    "wrong magic '{other}' (expected '{STATE_FILE_MAGIC}')"
                )))
            }
            None => return Err(rejected("missing 'magic' header field")),
        }
        let version = match value.get("version").and_then(|v| v.as_u64()) {
            Some(v @ 1..=2) => v,
            Some(v) => {
                return Err(rejected(format!(
                    "unsupported version {v} (this build reads versions 1 to {STATE_FILE_VERSION})"
                )))
            }
            None => return Err(rejected("missing 'version' header field")),
        };
        if version >= 2 {
            let fields = value.as_object().unwrap_or_default();
            let stored = value.get("digest").and_then(|d| d.as_str());
            let digest = content_digest(fields);
            if stored != Some(digest.as_str()) {
                return Err(rejected(format!(
                    "digest mismatch: the file says {stored:?}, its content hashes to {digest}"
                )));
            }
        }
        let mut record: NameRecord = serde_json::from_value(&value)
            .map_err(|e| rejected(format!("malformed record: {e}")))?;
        if record.seed_labels.is_empty() || record.seed_labels.len() > record.documents.len() {
            return Err(rejected(format!(
                "inconsistent record: {} seed labels over {} documents",
                record.seed_labels.len(),
                record.documents.len()
            )));
        }
        match (version, &record.live) {
            // A version-1 record predates live state: it is replayed.
            (1, _) => record.live = None,
            (_, None) => return Err(rejected("version-2 record without live state")),
            _ => {}
        }
        Ok(record)
    }
}

/// Hex-encode a name into its filesystem-safe state-file name.
pub fn state_file_name(name: &str) -> String {
    let mut hex = String::with_capacity(name.len() * 2 + STATE_FILE_SUFFIX.len());
    for b in name.bytes() {
        hex.push_str(&format!("{b:02x}"));
    }
    hex.push_str(STATE_FILE_SUFFIX);
    hex
}

/// Recover the name a state file was written for; `None` when the file
/// name is not a well-formed `<hex>.state.json`.
pub fn name_from_state_file(file_name: &str) -> Option<String> {
    let hex = file_name.strip_suffix(STATE_FILE_SUFFIX)?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for i in (0..hex.len()).step_by(2) {
        bytes.push(u8::from_str_radix(&hex[i..i + 2], 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

/// Path of `name`'s state file inside `dir`.
pub fn state_file_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(state_file_name(name))
}

/// Write `bytes` to `path` atomically and durably: write a `.tmp`
/// sibling, sync it, rename it into place, then sync the directory so the
/// rename itself survives a power loss. A failure leaves no temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StreamError> {
    let tmp = path.with_extension("json.tmp");
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(StreamError::Persistence(format!(
            "cannot write {}: {e}",
            tmp.display()
        )));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StreamError::Persistence(format!("cannot rename into {}: {e}", path.display()))
    })?;
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StreamError::Persistence(format!("cannot sync {}: {e}", dir.display())))
}

/// Create `dir` if needed.
fn ensure_dir(dir: &Path) -> Result<(), StreamError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        StreamError::Persistence(format!("cannot create state dir {}: {e}", dir.display()))
    })
}

/// Write a record into `dir` (creating the directory if needed) through
/// [`write_atomic`]. Returns the final path.
pub fn write_record(dir: &Path, record: &NameRecord) -> Result<PathBuf, StreamError> {
    ensure_dir(dir)?;
    let path = state_file_path(dir, &record.name);
    write_atomic(&path, record.to_json().as_bytes())?;
    Ok(path)
}

/// Read and validate `name`'s record from `dir`; `Ok(None)` when no file
/// exists for the name.
pub fn read_record(dir: &Path, name: &str) -> Result<Option<NameRecord>, StreamError> {
    let path = state_file_path(dir, name);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(StreamError::Persistence(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let json = String::from_utf8(bytes).map_err(|e| rejected(format!("not UTF-8: {e}")))?;
    let record = NameRecord::from_json(&json)?;
    if record.name != name {
        return Err(StreamError::SnapshotRejected(format!(
            "file for '{name}' records state of '{}'",
            record.name
        )));
    }
    Ok(Some(record))
}

/// File-name suffix of per-name entity-table records, written next to
/// the `.state.json` clustering records.
pub const ENTITY_FILE_SUFFIX: &str = ".entity.json";

/// Path of `name`'s entity-table file inside `dir`
/// (`<hex(name)>.entity.json`, same hex encoding as the state file).
pub fn entity_file_path(dir: &Path, name: &str) -> PathBuf {
    let state = state_file_name(name);
    let hex = state.strip_suffix(STATE_FILE_SUFFIX).unwrap_or(&state);
    dir.join(format!("{hex}{ENTITY_FILE_SUFFIX}"))
}

/// Write one name's entity table into `dir` (creating the directory if
/// needed) through [`write_atomic`]. Returns the final path.
pub fn write_entity_record(
    dir: &Path,
    table: &weber_entity::TableState,
) -> Result<PathBuf, StreamError> {
    ensure_dir(dir)?;
    let path = entity_file_path(dir, &table.name);
    let json = serde_json::to_string(table)
        .map_err(|e| StreamError::Persistence(format!("cannot encode entity table: {e}")))?;
    write_atomic(&path, json.as_bytes())?;
    Ok(path)
}

/// Read and validate `name`'s entity-table record from `dir`; `Ok(None)`
/// when no file exists. A file with the wrong magic, version, or name is
/// rejected with [`StreamError::SnapshotRejected`], never misread.
pub fn read_entity_record(
    dir: &Path,
    name: &str,
) -> Result<Option<weber_entity::TableState>, StreamError> {
    let path = entity_file_path(dir, name);
    let json = match std::fs::read_to_string(&path) {
        Ok(json) => json,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(StreamError::Persistence(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let table: weber_entity::TableState = serde_json::from_str(&json)
        .map_err(|e| StreamError::SnapshotRejected(format!("malformed entity table: {e}")))?;
    if table.magic != weber_entity::ENTITY_FILE_MAGIC
        || table.version != weber_entity::ENTITY_FILE_VERSION
    {
        return Err(StreamError::SnapshotRejected(format!(
            "not a version-{} entity table: magic {:?} version {}",
            weber_entity::ENTITY_FILE_VERSION,
            table.magic,
            table.version
        )));
    }
    if table.name != name {
        return Err(StreamError::SnapshotRejected(format!(
            "entity file for '{name}' records table of '{}'",
            table.name
        )));
    }
    Ok(Some(table))
}

/// Names with a state file inside `dir`, sorted; an absent directory is
/// simply empty.
pub fn stored_names(dir: &Path) -> Result<Vec<String>, StreamError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(StreamError::Persistence(format!(
                "cannot list state dir {}: {e}",
                dir.display()
            )))
        }
    };
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| {
            StreamError::Persistence(format!("cannot list state dir {}: {e}", dir.display()))
        })?;
        if let Some(name) = entry.file_name().to_str().and_then(name_from_state_file) {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> Snapshot {
        Snapshot {
            names: vec![
                NameSnapshot {
                    name: "cohen".into(),
                    docs: 5,
                    clusters: 2,
                    function: "F8".into(),
                    criterion: "thr".into(),
                    accuracy: 0.9,
                    members: vec![vec![0, 1, 4], vec![2, 3]],
                },
                NameSnapshot {
                    name: "smith".into(),
                    docs: 3,
                    clusters: 3,
                    function: "F4".into(),
                    criterion: "eq10".into(),
                    accuracy: 0.8,
                    members: vec![vec![0], vec![1], vec![2]],
                },
            ],
        }
    }

    fn record() -> NameRecord {
        NameRecord {
            magic: STATE_FILE_MAGIC.into(),
            version: STATE_FILE_VERSION,
            name: "cohen".into(),
            seed_labels: vec![0, 0, 1],
            documents: vec![
                StoredDocument {
                    text: "databases".into(),
                    url: None,
                },
                StoredDocument {
                    text: "more databases".into(),
                    url: Some("http://db.example.com".into()),
                },
                StoredDocument {
                    text: "gardening".into(),
                    url: None,
                },
                StoredDocument {
                    text: "streamed later".into(),
                    url: None,
                },
            ],
            function: "F8".into(),
            criterion: "thr".into(),
            partition: vec![0, 0, 1, 0],
            live: Some(LiveState {
                model: StoredModel {
                    fitted: FittedDecision::Threshold {
                        fit: weber_ml::ThresholdFit {
                            threshold: 1.0f64.next_up(),
                            training_accuracy: 2.0 / 3.0,
                        },
                    },
                    accuracy: 2.0 / 3.0,
                    selection_score: 0.1 + 0.2,
                },
                forest: StoredForest {
                    parent: vec![0, 0, 2, 0],
                    rank: vec![1, 0, 0, 0],
                },
                retrain_at: 6,
                config_fingerprint: fingerprint(&["config"]),
            }),
        }
    }

    #[test]
    fn totals_sum_over_names() {
        let s = snapshot();
        assert_eq!(s.total_docs(), 8);
        assert_eq!(s.total_clusters(), 5);
    }

    #[test]
    fn json_roundtrip() {
        let s = snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let r = record();
        let back = NameRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected_not_misread() {
        let mut r = record();
        r.magic = "not-a-weber-file".into();
        assert!(matches!(
            NameRecord::from_json(&r.to_json()),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("magic")
        ));
        let mut r = record();
        r.version = STATE_FILE_VERSION + 1;
        assert!(matches!(
            NameRecord::from_json(&r.to_json()),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("version")
        ));
        assert!(matches!(
            NameRecord::from_json("{}"),
            Err(StreamError::SnapshotRejected(_))
        ));
        assert!(matches!(
            NameRecord::from_json("garbage"),
            Err(StreamError::SnapshotRejected(_))
        ));
    }

    #[test]
    fn the_digest_seals_the_content() {
        let json = record().to_json();
        assert!(json.contains(r#""version":2"#), "{json}");
        assert!(json.contains(r#""digest":""#), "{json}");
        // Same length, different content: a flipped label.
        let tampered = json.replacen(r#""partition":[0,0,1,0]"#, r#""partition":[0,0,1,1]"#, 1);
        assert_ne!(tampered, json);
        assert!(matches!(
            NameRecord::from_json(&tampered),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("digest")
        ));
        let unsealed = json[..json.rfind(r#","digest""#).unwrap()].to_string() + "}";
        assert!(matches!(
            NameRecord::from_json(&unsealed),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("digest")
        ));
    }

    #[test]
    fn version_one_records_are_read_without_live_state() {
        let mut r = record();
        r.version = 1;
        let v1 = r.to_json();
        let unsealed = v1[..v1.rfind(r#","digest""#).unwrap()].to_string() + "}";
        for json in [v1, unsealed] {
            let back = NameRecord::from_json(&json).unwrap();
            assert_eq!(back.version, 1);
            assert_eq!(back.live, None, "a version-1 record is always replayed");
            assert_eq!(back.partition, r.partition);
        }
        // A version-2 record must carry its live state.
        let mut r = record();
        r.live = None;
        assert!(matches!(
            NameRecord::from_json(&r.to_json()),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("live state")
        ));
    }

    #[test]
    fn fingerprints_separate_their_parts() {
        assert_eq!(fingerprint(&["ab", "c"]), fingerprint(&["ab", "c"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    #[test]
    fn inconsistent_seed_counts_are_rejected() {
        let mut r = record();
        r.seed_labels = vec![0; r.documents.len() + 1];
        assert!(matches!(
            NameRecord::from_json(&r.to_json()),
            Err(StreamError::SnapshotRejected(msg)) if msg.contains("seed labels")
        ));
        let mut r = record();
        r.seed_labels.clear();
        assert!(NameRecord::from_json(&r.to_json()).is_err());
    }

    #[test]
    fn file_names_roundtrip_arbitrary_names() {
        for name in ["cohen", "name with spaces", "päivi/δ:*?", ""] {
            let file = state_file_name(name);
            assert!(file.ends_with(STATE_FILE_SUFFIX));
            assert!(!file.trim_end_matches(STATE_FILE_SUFFIX).contains('/'));
            assert_eq!(name_from_state_file(&file).as_deref(), Some(name));
        }
        assert_eq!(name_from_state_file("nope.json"), None);
        assert_eq!(name_from_state_file("xyz.state.json"), None);
    }

    #[test]
    fn entity_records_roundtrip_next_to_state_files() {
        let dir = std::env::temp_dir().join(format!(
            "weber_entity_record_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = weber_entity::EntityStore::new("cohen");
        store.materialize(
            &[vec![0, 1], vec![2]],
            &[
                weber_entity::MentionOrigin::Seed { label: 0 },
                weber_entity::MentionOrigin::Seed { label: 0 },
                weber_entity::MentionOrigin::Ingest,
            ],
        );
        let table = weber_entity::TableState::capture(&store);
        let path = write_entity_record(&dir, &table).unwrap();
        assert!(path.to_string_lossy().ends_with(ENTITY_FILE_SUFFIX));
        // The entity file sits next to (not on top of) the state file.
        assert_ne!(path, state_file_path(&dir, "cohen"));
        let back = read_entity_record(&dir, "cohen").unwrap().unwrap();
        assert_eq!(back, table);
        assert_eq!(read_entity_record(&dir, "nobody").unwrap(), None);
        // A tampered header is rejected, not misread.
        let mut bad = table.clone();
        bad.version = 99;
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        assert!(matches!(
            read_entity_record(&dir, "cohen"),
            Err(StreamError::SnapshotRejected(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_read_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!(
            "weber_snapshot_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let r = record();
        let path = write_record(&dir, &r).unwrap();
        assert!(path.exists());
        // No temp residue once the write has landed.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(residue.is_empty());
        assert_eq!(read_record(&dir, "cohen").unwrap().unwrap(), r);
        assert_eq!(read_record(&dir, "nobody").unwrap(), None);
        assert_eq!(stored_names(&dir).unwrap(), vec!["cohen".to_string()]);
        assert_eq!(
            stored_names(&dir.join("missing")).unwrap(),
            Vec::<String>::new()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_in_place_and_leaves_no_residue() {
        let dir = std::env::temp_dir().join(format!(
            "weber_write_atomic_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.state.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A missing parent directory: the write fails cleanly.
        assert!(matches!(
            write_atomic(&dir.join("missing").join("y.state.json"), b"z"),
            Err(StreamError::Persistence(_))
        ));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
