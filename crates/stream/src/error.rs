//! Error type for the streaming resolution service.

use weber_core::CoreError;

/// Errors surfaced by the streaming resolver and service.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A request line that is not valid JSON at all. Distinct from
    /// [`InvalidRequest`](Self::InvalidRequest) (well-formed JSON with a
    /// bad shape) so transports and routers can tell a framing problem
    /// from a semantic one.
    Parse(String),
    /// An ingest referenced a name that was never seeded.
    UnknownName(String),
    /// A seed batch carried no documents (nothing to train on).
    EmptySeed(String),
    /// A seed batch's parallel arrays disagree in length (e.g. more
    /// features than labels). Rejected eagerly: in release builds a
    /// mismatched batch would otherwise mistrain or panic later.
    SeedMismatch {
        /// The name being seeded.
        name: String,
        /// Number of documents / feature rows supplied.
        docs: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// Training the decision model on the seed batch failed.
    Training(CoreError),
    /// A malformed protocol request (bad JSON, missing fields, unknown op).
    InvalidRequest(String),
    /// The admission queue is full; the request was rejected, not queued.
    Overloaded,
    /// Reading or writing persisted state failed (I/O, missing state
    /// directory, unparseable file).
    Persistence(String),
    /// A persisted state file was recognisably wrong — bad magic, wrong
    /// version, a digest that does not match its content, a forest that
    /// disagrees with its labels, or a replay that did not reproduce the
    /// recorded partition — and was rejected rather than misread.
    SnapshotRejected(String),
    /// A `same_as` operation referenced an entity or link that does not
    /// exist in the name's canonical entity table.
    Entity(weber_entity::EntityError),
}

impl StreamError {
    /// A stable machine-readable token classifying the error, carried as
    /// the `"kind"` field of wire error responses. Routers and clients
    /// dispatch on this instead of parsing the human-readable message:
    /// `overloaded` means back off and retry, `parse`/`invalid-request`
    /// mean the request itself is wrong (retrying verbatim cannot help),
    /// `unknown-name` means the name was never seeded on this backend,
    /// and the rest are server-side state problems.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamError::Parse(_) => "parse",
            StreamError::UnknownName(_) => "unknown-name",
            StreamError::EmptySeed(_) => "empty-seed",
            StreamError::SeedMismatch { .. } => "seed-mismatch",
            StreamError::Training(_) => "training",
            StreamError::InvalidRequest(_) => "invalid-request",
            StreamError::Overloaded => "overloaded",
            StreamError::Persistence(_) => "persistence",
            StreamError::SnapshotRejected(_) => "snapshot-rejected",
            // "unknown-entity" / "unknown-link"
            StreamError::Entity(e) => e.kind(),
        }
    }

    /// True when retrying the same request later can succeed without any
    /// change to the request (today: only backpressure).
    pub fn is_retryable(&self) -> bool {
        matches!(self, StreamError::Overloaded)
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse(msg) => write!(f, "parse: {msg}"),
            StreamError::UnknownName(name) => {
                write!(f, "name '{name}' has not been seeded")
            }
            StreamError::EmptySeed(name) => {
                write!(f, "seed batch for '{name}' has no documents")
            }
            StreamError::SeedMismatch { name, docs, labels } => {
                write!(
                    f,
                    "seed batch for '{name}' is inconsistent: {docs} documents but {labels} labels"
                )
            }
            StreamError::Training(e) => write!(f, "training failed: {e}"),
            StreamError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            StreamError::Overloaded => write!(f, "overloaded"),
            StreamError::Persistence(msg) => write!(f, "persistence failed: {msg}"),
            StreamError::SnapshotRejected(msg) => write!(f, "state file rejected: {msg}"),
            StreamError::Entity(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Training(e) => Some(e),
            StreamError::Entity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for StreamError {
    fn from(e: CoreError) -> Self {
        StreamError::Training(e)
    }
}

impl From<weber_entity::EntityError> for StreamError {
    fn from(e: weber_entity::EntityError) -> Self {
        StreamError::Entity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(StreamError::UnknownName("cohen".into())
            .to_string()
            .contains("cohen"));
        assert!(StreamError::Overloaded.to_string().contains("overloaded"));
        let mismatch = StreamError::SeedMismatch {
            name: "cohen".into(),
            docs: 4,
            labels: 3,
        };
        assert!(mismatch.to_string().contains('4'));
        assert!(mismatch.to_string().contains('3'));
        assert!(StreamError::SnapshotRejected("bad version".into())
            .to_string()
            .contains("rejected"));
        assert!(StreamError::Training(CoreError::NoFunctions)
            .to_string()
            .contains("similarity"));
    }

    #[test]
    fn core_errors_convert() {
        let e: StreamError = CoreError::NoCriteria.into();
        assert!(matches!(e, StreamError::Training(_)));
    }

    #[test]
    fn parse_errors_use_the_documented_prefix() {
        let e = StreamError::Parse("unexpected 'g' at byte 0".into());
        assert!(e.to_string().starts_with("parse: "), "{e}");
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn kinds_are_stable_tokens() {
        // The wire contract: kinds are kebab-case, never empty, and only
        // `overloaded` invites a verbatim retry.
        let all = [
            StreamError::Parse("x".into()),
            StreamError::UnknownName("n".into()),
            StreamError::EmptySeed("n".into()),
            StreamError::SeedMismatch {
                name: "n".into(),
                docs: 1,
                labels: 2,
            },
            StreamError::Training(CoreError::NoFunctions),
            StreamError::InvalidRequest("x".into()),
            StreamError::Overloaded,
            StreamError::Persistence("x".into()),
            StreamError::SnapshotRejected("x".into()),
            StreamError::Entity(weber_entity::EntityError::UnknownEntity(7)),
            StreamError::Entity(weber_entity::EntityError::UnknownLink(1, 2)),
        ];
        for e in &all {
            let kind = e.kind();
            assert!(!kind.is_empty());
            assert!(
                kind.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{kind}"
            );
            assert_eq!(e.is_retryable(), kind == "overloaded");
        }
    }
}
