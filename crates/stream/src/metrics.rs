//! The streaming resolver's metrics bundle: pre-registered handles for
//! everything the hot paths record, plus the merged read-out the `metrics`
//! protocol op and `--metrics-file` serve.
//!
//! Ownership: each [`StreamResolver`](crate::resolver::StreamResolver)
//! owns one [`StreamMetrics`] with its own private
//! [`Registry`] — two resolvers in one process (tests, embedders) never
//! share counts. The batch pipeline's per-stage timings live in the
//! process-global registry ([`Registry::global`]) because they are
//! recorded deep inside `weber-core` where no resolver handle exists;
//! [`StreamMetrics::merged_snapshot`] folds them into the report, so a
//! `metrics` response shows both halves.
//!
//! Recording is relaxed-atomic on pre-registered handles — the registry
//! lock is never taken per request, honouring the zero-cost-when-unread
//! contract of `weber-obs`.

use std::sync::Arc;

use weber_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use weber_simfun::block::CacheStats;

/// Pre-registered metric handles for one streaming resolver.
#[derive(Debug)]
pub struct StreamMetrics {
    registry: Arc<Registry>,
    /// Wall time of one `ingest` (extraction + scoring + partition), µs.
    pub ingest_us: Arc<Histogram>,
    /// Wall time of one `seed` (extraction + training + closure), µs.
    pub seed_us: Arc<Histogram>,
    /// Documents ingested successfully.
    pub ingests: Arc<Counter>,
    /// Seed batches applied successfully.
    pub seeds: Arc<Counter>,
    /// Checkpoint retrains triggered by ingests (doubling schedule).
    pub retrains: Arc<Counter>,
    /// Names evicted to disk by the LRU bound.
    pub evictions: Arc<Counter>,
    /// Names restored from disk (lazy touch or explicit `restore`),
    /// counted once per state the resolver actually serves.
    pub restores: Arc<Counter>,
    /// The subset of `restores` that replayed a record's history instead
    /// of adopting its live state (version-1 records, or records written
    /// under another configuration).
    pub restore_replays: Arc<Counter>,
    /// Name records written to the state directory.
    pub persists: Arc<Counter>,
    /// Request lines queued for the TCP front end's workers and not yet
    /// picked up: [`weber_net::QUEUE_DEPTH_GAUGE`], which the `weber-net`
    /// worker pool keeps in this same registry. Reads 0 when no listener
    /// runs on this resolver (stdio, embedders).
    pub queue_depth: Arc<Gauge>,
    /// Worker threads of the running TCP pool:
    /// [`weber_net::WORKERS_GAUGE`], set by `weber-net` while a listener
    /// runs on this resolver, 0 otherwise.
    pub workers: Arc<Gauge>,
    /// Per-worker queue slots of the running TCP pool:
    /// [`weber_net::QUEUE_CAPACITY_GAUGE`], 0 when no listener runs.
    pub queue_capacity: Arc<Gauge>,
    /// Wall time of one entity-table materialization (constraint-aware
    /// splitting + stable-ID matching + `SAME_AS` unions), µs.
    pub entity_materialize_us: Arc<Histogram>,
    /// Entity-table materializations run (every `entities`, `same_as`
    /// and `constraint` op rebuilds the touched name's table).
    pub entity_materializations: Arc<Counter>,
    /// Extra fragments produced by constraint-aware cluster splitting.
    pub entity_splits: Arc<Counter>,
    /// Constraint violations found during materialization (forbidden
    /// pairs, vetoed `SAME_AS` unions, unmet one-to-one merges).
    pub entity_constraint_violations: Arc<Counter>,
    /// Similarity-graph cache counters, shared across every block the
    /// resolver owns (counts survive eviction and re-seeding).
    pub cache: Arc<CacheStats>,
}

impl Default for StreamMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamMetrics {
    /// A fresh bundle over a private registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let s = registry.scope("stream");
        let e = registry.scope("entity");
        Self {
            entity_materialize_us: e.histogram("materialize_us"),
            entity_materializations: e.counter("materializations"),
            entity_splits: e.counter("splits"),
            entity_constraint_violations: e.counter("constraint_violations"),
            ingest_us: s.histogram("ingest_us"),
            seed_us: s.histogram("seed_us"),
            ingests: s.counter("ingests"),
            seeds: s.counter("seeds"),
            retrains: s.counter("retrains"),
            evictions: s.counter("evictions"),
            restores: s.counter("restores"),
            restore_replays: s.counter("restore_replays"),
            persists: s.counter("persists"),
            queue_depth: registry.gauge(weber_net::QUEUE_DEPTH_GAUGE),
            workers: registry.gauge(weber_net::WORKERS_GAUGE),
            queue_capacity: registry.gauge(weber_net::QUEUE_CAPACITY_GAUGE),
            cache: Arc::new(CacheStats::new()),
            registry,
        }
    }

    /// The private registry behind the handles.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One merged snapshot: the resolver's own metrics, the shared
    /// similarity-cache counters (as `stream.cache.*`), and the
    /// process-global registry (the batch pipeline's `core.stage.*`
    /// timings, recorded during seeding and checkpoint retrains).
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(MetricsSnapshot {
            counters: vec![
                ("stream.cache.hits".into(), self.cache.hits()),
                ("stream.cache.misses".into(), self.cache.misses()),
                ("stream.cache.grows".into(), self.cache.grows()),
                ("stream.cache.rebuilds".into(), self.cache.rebuilds()),
                (
                    "stream.cache.invalidations".into(),
                    self.cache.invalidations(),
                ),
            ],
            ..MetricsSnapshot::default()
        });
        snap.merge(Registry::global().snapshot());
        snap
    }

    /// The merged snapshot rendered as plain text (the `--metrics-file`
    /// format).
    pub fn render_text(&self) -> String {
        self.merged_snapshot().render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_snapshot_includes_cache_counters() {
        let m = StreamMetrics::new();
        m.ingests.add(3);
        m.entity_splits.add(2);
        let snap = m.merged_snapshot();
        assert_eq!(snap.counter("stream.ingests"), Some(3));
        assert_eq!(snap.counter("stream.cache.hits"), Some(0));
        assert!(snap.histogram("stream.ingest_us").is_some());
        assert_eq!(snap.counter("entity.splits"), Some(2));
        assert_eq!(snap.counter("entity.constraint_violations"), Some(0));
        assert!(snap.histogram("entity.materialize_us").is_some());
    }

    #[test]
    fn two_bundles_do_not_share_counts() {
        let a = StreamMetrics::new();
        let b = StreamMetrics::new();
        a.seeds.inc();
        assert_eq!(b.merged_snapshot().counter("stream.seeds"), Some(0));
    }

    #[test]
    fn render_text_carries_every_section() {
        let m = StreamMetrics::new();
        m.ingest_us.record(42);
        let text = m.render_text();
        assert!(text.contains("stream.ingests 0\n"), "{text}");
        assert!(text.contains("net.queue_depth 0\n"), "{text}");
        assert!(text.contains("stream.ingest_us_count 1\n"), "{text}");
        assert!(text.contains("stream.cache.hits 0\n"), "{text}");
    }
}
