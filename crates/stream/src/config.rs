//! Configuration of the streaming resolver and its front end.

use weber_core::resolver::ResolverConfig;
use weber_graph::incremental::Linkage;
use weber_simfun::block::WordVectorScheme;

/// How an arriving document is assigned to a cluster once its pairwise
/// link decisions against existing members are known.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AssignmentPolicy {
    /// Union with every linked member (the paper's transitive-closure
    /// semantics, applied online): one arrival may merge several existing
    /// clusters. Matches what batch transitive closure produces over the
    /// same pairwise decisions.
    #[default]
    TransitiveClosure,
    /// Greedy incremental clustering: combine per-member link
    /// probabilities into one score per existing cluster with the given
    /// linkage rule, join the best-scoring cluster if it clears
    /// `threshold`, otherwise found a new cluster. Never merges existing
    /// clusters (the related-work baseline of §VI, applied online).
    Linkage {
        /// The member-score combination rule.
        linkage: Linkage,
        /// Minimum combined score to join a cluster.
        threshold: f64,
    },
}

/// Configuration of a [`StreamResolver`](crate::StreamResolver) and the
/// front end wrapped around it.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The batch resolver configuration used to train each name's decision
    /// model on its seed batch (functions, criteria, input partitioning).
    pub resolver: ResolverConfig,
    /// Word-vector weighting for the per-name blocks.
    pub scheme: WordVectorScheme,
    /// Cluster-assignment policy for arriving documents.
    pub assignment: AssignmentPolicy,
    /// Per-worker admission-queue capacity of the TCP front end, as the
    /// `health` op reports it; a full queue rejects data-plane requests
    /// with an `overloaded` response instead of blocking.
    pub queue_capacity: usize,
    /// Worker threads of the TCP front end, as the `health` op reports
    /// them.
    pub workers: usize,
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

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            resolver: ResolverConfig::default(),
            scheme: WordVectorScheme::default(),
            assignment: AssignmentPolicy::default(),
            queue_capacity: 64,
            workers: 2,
            state_dir: None,
            max_names: None,
        }
    }
}

impl StreamConfig {
    /// Override the assignment policy.
    pub fn with_assignment(mut self, assignment: AssignmentPolicy) -> Self {
        self.assignment = assignment;
        self
    }

    /// Override the admission-queue capacity (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

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
    fn defaults_are_sane() {
        let c = StreamConfig::default();
        assert_eq!(c.assignment, AssignmentPolicy::TransitiveClosure);
        assert!(c.queue_capacity >= 1);
        assert!(c.workers >= 1);
    }

    #[test]
    fn builders_clamp() {
        let c = StreamConfig::default()
            .with_queue_capacity(0)
            .with_workers(0)
            .with_max_names(0);
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.workers, 1);
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
