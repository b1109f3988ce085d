//! Configuration of the streaming resolver. The TCP front end's pool is
//! sized by [`TcpOptions`](crate::TcpOptions) alone.

use weber_core::resolver::ResolverConfig;

/// How an arriving document is assigned to a cluster. There is one way:
/// transitive closure, which [`NameState`](crate::NameState) applies
/// directly. The type is kept only because the repo benchmark passes it to
/// [`NameState::seed`](crate::NameState::seed): one of the harness-pinned
/// forwards, removed when the harness moves to the new names.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AssignmentPolicy {
    /// Union with every linked member (the paper's transitive-closure
    /// semantics, applied online).
    #[default]
    TransitiveClosure,
}

/// Configuration of a [`StreamResolver`](crate::StreamResolver). The
/// default trains with [`ResolverConfig::default`] and persists nothing.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// The batch resolver configuration used to train each name's decision
    /// model on its seed batch (functions, criteria, combination, clustering).
    pub resolver: ResolverConfig,
    /// Directory per-name state records persist into (and restore from).
    /// `None` disables persistence: `persist`/`restore` become no-ops and
    /// eviction is unavailable.
    pub state_dir: Option<std::path::PathBuf>,
    /// Upper bound on names held live in memory; exceeding it
    /// persists-then-drops the least-recently-touched name, which is
    /// transparently restored on its next touch. Requires `state_dir`.
    /// `None` (the default) keeps every seeded name live.
    pub max_names: Option<usize>,
}

impl StreamConfig {
    /// Enable persistence into the given state directory.
    pub fn with_state_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Bound the number of live names (clamped to at least 1); the
    /// coldest name beyond the bound is persisted and dropped.
    pub fn with_max_names(mut self, max_names: usize) -> Self {
        self.max_names = Some(max_names.max(1));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp() {
        let c = StreamConfig::default().with_max_names(0);
        assert_eq!(c.max_names, Some(1));
    }

    #[test]
    fn persistence_is_off_by_default() {
        let c = StreamConfig::default();
        assert_eq!(c.state_dir, None);
        assert_eq!(c.max_names, None);
        let c = c.with_state_dir("/tmp/weber-state");
        assert!(c.state_dir.is_some());
    }
}
