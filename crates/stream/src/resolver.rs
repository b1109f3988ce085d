//! The streaming resolver: thread-safe per-name state behind one façade,
//! with optional disk persistence and LRU eviction of cold names.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use weber_core::resolver::Resolver;
use weber_entity::{Constraint, EntityStore, MaterializeReport, MentionOrigin, TableState};
use weber_extract::gazetteer::Gazetteer;
use weber_extract::pipeline::Extractor;
use weber_graph::Partition;

use crate::config::StreamConfig;
use crate::error::StreamError;
use crate::metrics::StreamMetrics;
use crate::snapshot::{
    self, NameRecord, NameSnapshot, Snapshot, StoredDocument, STATE_FILE_MAGIC, STATE_FILE_VERSION,
};
use crate::state::{ClusterAssignment, NameState};

/// What one entity materialization pass reads out of a name's state:
/// the live clusters, each doc's origin, and the doc count.
type ClusterView = (Vec<Vec<usize>>, Vec<MentionOrigin>, usize);

/// One labelled document of a seed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedDocument {
    /// Page text.
    pub text: String,
    /// Page URL, when known.
    pub url: Option<String>,
    /// Entity label within the batch (documents with equal labels are the
    /// same person).
    pub label: u32,
}

/// A cheap liveness read-out: what the `health` protocol op reports.
/// Everything here comes from atomics or a brief read lock — no per-name
/// state lock is taken, so a busy resolver still answers instantly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Time since the resolver was constructed.
    pub uptime: std::time::Duration,
    /// Names currently live in memory.
    pub names: usize,
    /// Request lines queued for the TCP front end's workers right now
    /// (not counting the ones executing).
    pub queue_depth: i64,
    /// Configured worker threads.
    pub workers: usize,
    /// Configured per-worker admission-queue capacity.
    pub queue_capacity: usize,
}

/// What seeding a name produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSummary {
    /// Documents trained on.
    pub docs: usize,
    /// Clusters in the initial partition.
    pub clusters: usize,
    /// Selected similarity function.
    pub function: String,
    /// Selected decision criterion label.
    pub criterion: String,
    /// Training accuracy of the selected layer.
    pub accuracy: f64,
}

/// A read-out of one name's canonical entity table, produced by one
/// materialization pass: what the `entities`/`same_as`/`constraint`
/// protocol ops put on the wire.
#[derive(Debug, Clone)]
pub struct EntityTable {
    /// The ambiguous name.
    pub name: String,
    /// Documents in the name's block at materialization time.
    pub docs: usize,
    /// The live entities (stable IDs, mentions, provenance).
    pub entities: Vec<weber_entity::Entity>,
    /// Active `SAME_AS` links.
    pub links: Vec<weber_entity::SameAsLink>,
    /// Registered constraints.
    pub constraints: usize,
    /// What the materialization pass did.
    pub report: MaterializeReport,
}

/// A name's live state plus its LRU stamp.
struct NameEntry {
    state: Mutex<NameState>,
    /// Logical time of the last touch (monotone ticket from the resolver's
    /// clock); the eviction victim is the entry with the smallest stamp.
    touched: AtomicU64,
}

impl NameEntry {
    fn new(state: NameState, stamp: u64) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(state),
            touched: AtomicU64::new(stamp),
        })
    }
}

/// A thread-safe streaming resolver over many ambiguous names.
///
/// Each name is seeded once with a labelled batch — which trains that
/// name's decision model via the batch resolver's best-graph selection —
/// and then grows one document at a time via [`ingest`](Self::ingest).
/// Names are independently locked, so ingests for different names run in
/// parallel; the feature extractor is shared (its vocabulary is global).
///
/// # Persistence and eviction
///
/// With a state directory configured ([`StreamConfig::with_state_dir`]),
/// per-name state survives restarts: [`persist_all`](Self::persist_all)
/// writes one atomic versioned record per name, and a later
/// [`restore_all`](Self::restore_all) — or any touch of a name that is on
/// disk but not in memory — replays it back. With
/// [`StreamConfig::with_max_names`] additionally set, the resolver keeps
/// at most that many names live, persisting-then-dropping the
/// least-recently-touched when the bound is exceeded; evicted names
/// restore transparently on their next touch.
///
/// Restore *replays* the recorded documents through the deterministic
/// seed/ingest pipeline rather than deserialising model internals (term
/// ids are interned in a process-global vocabulary, so raw vectors would
/// not survive a restart), then verifies the replayed partition and model
/// selection against the record; any divergence — config drift, a stale
/// or foreign file — rejects the file with
/// [`StreamError::SnapshotRejected`].
///
/// # Locking discipline
///
/// Two lock levels: the names map (`RwLock`) and each entry's state
/// (`Mutex`). No path holds a *map guard* while blocking on a state lock
/// (handles are cloned out first), so holding a state lock while briefly
/// taking the map lock — which the stale-entry re-check and the evictor
/// both do — cannot deadlock.
pub struct StreamResolver {
    extractor: Extractor,
    resolver: Resolver,
    config: StreamConfig,
    names: RwLock<HashMap<String, Arc<NameEntry>>>,
    /// Monotone source of LRU stamps.
    clock: AtomicU64,
    /// Construction time; the `health` op reports the elapsed span.
    started: std::time::Instant,
    /// Counters, gauges and latency histograms over this resolver's
    /// traffic; every block shares `metrics.cache` so similarity-cache
    /// counts survive eviction and re-seeding.
    metrics: StreamMetrics,
    /// Per-name canonical entity tables, built lazily on the first entity
    /// op that touches a name (restored from disk when a record exists).
    /// One mutex over the map: entity ops are orders of magnitude rarer
    /// than ingests, and the per-name state lock is never held while this
    /// one is taken (clusters are snapshotted out first), so the two lock
    /// levels cannot deadlock.
    entity_tables: Mutex<HashMap<String, EntityStore>>,
}

impl std::fmt::Debug for StreamResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamResolver")
            .field("config", &self.config)
            .field("names", &self.names().len())
            .finish()
    }
}

impl StreamResolver {
    /// Create a resolver over the given gazetteer (the dictionary feature
    /// extraction recognises concepts and entities with).
    ///
    /// Rejects a configuration with `max_names` but no `state_dir`:
    /// eviction persists state before dropping it, and without a state
    /// directory evicted names would simply be lost.
    pub fn new(config: StreamConfig, gazetteer: &Gazetteer) -> Result<Self, StreamError> {
        if config.max_names.is_some() && config.state_dir.is_none() {
            return Err(StreamError::Persistence(
                "max_names (eviction) requires a state_dir to evict into".into(),
            ));
        }
        let resolver = Resolver::new(config.resolver.clone())?;
        Ok(Self {
            extractor: Extractor::new(gazetteer),
            resolver,
            config,
            names: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            started: std::time::Instant::now(),
            metrics: StreamMetrics::new(),
            entity_tables: Mutex::new(HashMap::new()),
        })
    }

    /// Time since this resolver was constructed.
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// The cheap liveness read-out behind the `health` protocol op. Does
    /// not count as a touch for eviction purposes and takes no per-name
    /// lock.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            uptime: self.uptime(),
            names: self.names.read().len(),
            queue_depth: self.metrics.queue_depth.get(),
            workers: self.config.workers,
            queue_capacity: self.config.queue_capacity,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The resolver's metrics bundle (read by the `metrics` protocol op
    /// and the `--metrics-file` dumper).
    pub fn metrics(&self) -> &StreamMetrics {
        &self.metrics
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Seed (or re-seed, replacing all state for) one name from a labelled
    /// batch. Trains the name's decision model and builds its initial
    /// partition.
    pub fn seed(&self, name: &str, docs: &[SeedDocument]) -> Result<SeedSummary, StreamError> {
        let start = std::time::Instant::now();
        let documents: Vec<StoredDocument> = docs
            .iter()
            .map(|d| StoredDocument {
                text: d.text.clone(),
                url: d.url.clone(),
            })
            .collect();
        let features = docs
            .iter()
            .map(|d| self.extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        let labels: Vec<u32> = docs.iter().map(|d| d.label).collect();
        let state = NameState::seed_observed(
            name,
            documents,
            features,
            &labels,
            &self.resolver,
            self.config.scheme,
            self.config.assignment,
            Some(Arc::clone(&self.metrics.cache)),
        )?;
        let summary = SeedSummary {
            docs: state.len(),
            clusters: state.cluster_count(),
            function: state.model().function_name().to_string(),
            criterion: state.model().criterion().label(),
            accuracy: state.model().accuracy,
        };
        self.names
            .write()
            .insert(name.to_string(), NameEntry::new(state, self.tick()));
        self.maybe_evict(name)?;
        self.metrics.seeds.inc();
        self.metrics.seed_us.record_since(start);
        Ok(summary)
    }

    /// Ingest one document for a seeded name, returning where it landed.
    ///
    /// If the name's state was evicted to disk it is transparently
    /// restored first. The apply is raced-checked: locking the state and
    /// *then* re-checking the map entry guarantees the mutation lands in
    /// the state the map currently serves — a concurrent re-seed or
    /// eviction between lookup and lock makes this attempt retry against
    /// the fresh entry instead of mutating an orphan.
    pub fn ingest(
        &self,
        name: &str,
        text: &str,
        url: Option<&str>,
    ) -> Result<ClusterAssignment, StreamError> {
        // Extraction happens outside any lock (the extractor is
        // thread-safe); only block growth and scoring are serialised.
        let start = std::time::Instant::now();
        let features = self.extractor.extract(text, url);
        let document = StoredDocument {
            text: text.to_string(),
            url: url.map(str::to_string),
        };
        loop {
            let entry = self.lookup_or_restore(name)?;
            if let Some(assignment) = self.try_apply(name, &entry, |state| {
                state.ingest(document.clone(), features.clone())
            }) {
                self.metrics.ingests.inc();
                if assignment.retrained {
                    self.metrics.retrains.inc();
                }
                self.metrics.ingest_us.record_since(start);
                return Ok(assignment);
            }
            // Lost the race (entry replaced or evicted after lookup):
            // loop and apply to whatever the map serves now.
        }
    }

    /// Lock `entry`'s state and, *under that lock*, re-check that the map
    /// still serves this exact entry for `name`. Applies `f` and returns
    /// its result only if so; `None` means the caller raced a re-seed or
    /// eviction and must retry. Because every mutation goes through this
    /// check, an evictor that observes the entry current while holding its
    /// state lock knows the state can no longer change behind its back.
    fn try_apply<T>(
        &self,
        name: &str,
        entry: &Arc<NameEntry>,
        f: impl FnOnce(&mut NameState) -> T,
    ) -> Option<T> {
        let mut state = entry.state.lock();
        let is_current = matches!(
            self.names.read().get(name), Some(current) if Arc::ptr_eq(current, entry)
        );
        if !is_current {
            return None;
        }
        entry.touched.store(self.tick(), Ordering::Relaxed);
        Some(f(&mut state))
    }

    /// The live entry for `name`, restoring it from disk on a miss when a
    /// state directory is configured.
    fn lookup_or_restore(&self, name: &str) -> Result<Arc<NameEntry>, StreamError> {
        if let Some(entry) = self.names.read().get(name).cloned() {
            entry.touched.store(self.tick(), Ordering::Relaxed);
            return Ok(entry);
        }
        let Some(dir) = self.config.state_dir.as_deref() else {
            return Err(StreamError::UnknownName(name.to_string()));
        };
        let Some(record) = snapshot::read_record(dir, name)? else {
            return Err(StreamError::UnknownName(name.to_string()));
        };
        let state = self.replay(&record)?;
        self.metrics.restores.inc();
        let restored = NameEntry::new(state, self.tick());
        let entry = Arc::clone(
            self.names
                .write()
                .entry(name.to_string())
                // A concurrent seed/restore won the insert: keep theirs.
                .or_insert(restored),
        );
        self.maybe_evict(name)?;
        Ok(entry)
    }

    /// Rebuild a name's state from its persisted record by replaying the
    /// recorded documents through the deterministic seed/ingest pipeline,
    /// then verify the replay reproduced the recorded partition and model
    /// selection exactly. The resolution pipeline is deterministic given
    /// the same documents and configuration, so a divergence means the
    /// record was written under a different configuration (or corrupted)
    /// and must not be served.
    fn replay(&self, record: &NameRecord) -> Result<NameState, StreamError> {
        let seed_count = record.seed_labels.len();
        let seed_docs: Vec<StoredDocument> = record.documents[..seed_count].to_vec();
        let features = seed_docs
            .iter()
            .map(|d| self.extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        let mut state = NameState::seed_observed(
            &record.name,
            seed_docs,
            features,
            &record.seed_labels,
            &self.resolver,
            self.config.scheme,
            self.config.assignment,
            Some(Arc::clone(&self.metrics.cache)),
        )?;
        for doc in &record.documents[seed_count..] {
            let features = self.extractor.extract(&doc.text, doc.url.as_deref());
            state.ingest(doc.clone(), features);
        }
        if state.partition().labels() != record.partition.as_slice() {
            return Err(StreamError::SnapshotRejected(format!(
                "replayed partition for '{}' diverges from the recorded one \
                 (was the record written under a different configuration?)",
                record.name
            )));
        }
        let function = state.model().function_name();
        let criterion = state.model().criterion().label();
        if function != record.function || criterion != record.criterion {
            return Err(StreamError::SnapshotRejected(format!(
                "replayed model for '{}' selected {function}/{criterion} but the \
                 record expects {}/{}",
                record.name, record.function, record.criterion
            )));
        }
        Ok(state)
    }

    /// Write one name's state to the configured directory.
    fn persist_state(&self, name: &str, state: &NameState) -> Result<(), StreamError> {
        let dir = self
            .config
            .state_dir
            .as_deref()
            .ok_or_else(|| StreamError::Persistence("no state directory configured".into()))?;
        let record = NameRecord {
            magic: STATE_FILE_MAGIC.to_string(),
            version: STATE_FILE_VERSION,
            name: name.to_string(),
            seed_labels: state.seed_labels().to_vec(),
            documents: state.documents().to_vec(),
            function: state.model().function_name().to_string(),
            criterion: state.model().criterion().label(),
            partition: state.partition().labels().to_vec(),
        };
        snapshot::write_record(dir, &record)?;
        self.metrics.persists.inc();
        Ok(())
    }

    /// Persist every live name to the state directory; returns how many
    /// records were written. Entries replaced concurrently (re-seeded
    /// mid-walk) are skipped — the replacement is newer than anything we
    /// could write for them.
    pub fn persist_all(&self) -> Result<usize, StreamError> {
        let mut written = 0;
        for name in self.names() {
            let Some(entry) = self.names.read().get(&name).cloned() else {
                continue;
            };
            let state = entry.state.lock();
            let is_current = matches!(
                self.names.read().get(&name), Some(current) if Arc::ptr_eq(current, &entry)
            );
            if !is_current {
                continue;
            }
            self.persist_state(&name, &state)?;
            written += 1;
        }
        // Entity tables ride along: one versioned record per touched
        // table, next to the name's clustering record (not counted in
        // the returned name count).
        if let Some(dir) = self.config.state_dir.as_deref() {
            let tables = self.entity_tables.lock();
            for store in tables.values() {
                snapshot::write_entity_record(dir, &TableState::capture(store))?;
            }
        }
        Ok(written)
    }

    /// Restore every name recorded in the state directory that is not
    /// already live; returns how many were restored. A resolver without a
    /// state directory restores nothing.
    pub fn restore_all(&self) -> Result<usize, StreamError> {
        let Some(dir) = self.config.state_dir.as_deref() else {
            return Ok(0);
        };
        let mut restored = 0;
        for name in snapshot::stored_names(dir)? {
            if self.names.read().contains_key(&name) {
                continue;
            }
            let Some(record) = snapshot::read_record(dir, &name)? else {
                continue;
            };
            let state = self.replay(&record)?;
            self.names
                .write()
                .entry(name.clone())
                .or_insert_with(|| NameEntry::new(state, self.tick()));
            self.metrics.restores.inc();
            restored += 1;
            self.maybe_evict(&name)?;
        }
        Ok(restored)
    }

    /// Enforce the `max_names` bound: while the map is over it, persist
    /// and drop the least-recently-touched name (never `protect`, the name
    /// that was just touched).
    ///
    /// Ordering is persist-*then*-remove, both while holding the victim's
    /// state lock: the lock plus the currency re-check mean no mutation
    /// can land between what the record captures and the removal, and any
    /// toucher that misses the map afterwards restores from a file that is
    /// already complete.
    fn maybe_evict(&self, protect: &str) -> Result<(), StreamError> {
        let Some(max_names) = self.config.max_names else {
            return Ok(());
        };
        loop {
            let victim = {
                let map = self.names.read();
                if map.len() <= max_names {
                    return Ok(());
                }
                map.iter()
                    .filter(|(name, _)| name.as_str() != protect)
                    .min_by_key(|(_, entry)| entry.touched.load(Ordering::Relaxed))
                    .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            };
            let Some((name, entry)) = victim else {
                // Only the protected name is live; nothing evictable.
                return Ok(());
            };
            let state = entry.state.lock();
            let is_current = matches!(
                self.names.read().get(&name), Some(current) if Arc::ptr_eq(current, &entry)
            );
            if !is_current {
                // Re-seeded while we were choosing it; pick a new victim.
                continue;
            }
            // With the state lock held and the entry current, no mutation
            // can slip in (every apply re-checks currency under this very
            // lock), so the record is complete when the entry disappears.
            self.persist_state(&name, &state)?;
            let mut map = self.names.write();
            if let Some(current) = map.get(&name) {
                if Arc::ptr_eq(current, &entry) {
                    map.remove(&name);
                    self.metrics.evictions.inc();
                }
            }
        }
    }

    /// The live partition of a seeded name (restored from disk first if it
    /// was evicted); `None` when the name is unknown or unreadable.
    pub fn partition(&self, name: &str) -> Option<Partition> {
        let entry = self.lookup_or_restore(name).ok()?;
        let state = entry.state.lock();
        Some(state.partition())
    }

    /// Run a read-only closure against a name's live state (restored from
    /// disk first if it was evicted). Errors when the name is unknown or
    /// its stored record is unreadable.
    pub fn with_state<R>(
        &self,
        name: &str,
        f: impl FnOnce(&NameState) -> R,
    ) -> Result<R, StreamError> {
        let entry = self.lookup_or_restore(name)?;
        let state = entry.state.lock();
        Ok(f(&state))
    }

    /// One name's current summary — the per-name read behind the
    /// `resolve` protocol op (restored from disk first if it was
    /// evicted). Errors when the name is unknown or its stored record is
    /// unreadable.
    pub fn resolve_name(&self, name: &str) -> Result<NameSnapshot, StreamError> {
        self.with_state(name, |state| NameSnapshot {
            name: name.to_string(),
            docs: state.len(),
            clusters: state.cluster_count(),
            function: state.model().function_name().to_string(),
            criterion: state.model().criterion().label(),
            accuracy: state.model().accuracy,
            members: state.partition().clusters(),
        })
    }

    /// Seeded names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.names.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Summaries of every seeded name, sorted by name. Does not count as a
    /// touch for eviction purposes.
    pub fn snapshot(&self) -> Snapshot {
        let handles: Vec<(String, Arc<NameEntry>)> = {
            let map = self.names.read();
            let mut v: Vec<_> = map
                .iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let names = handles
            .into_iter()
            .map(|(name, entry)| {
                let state = entry.state.lock();
                NameSnapshot {
                    name,
                    docs: state.len(),
                    clusters: state.cluster_count(),
                    function: state.model().function_name().to_string(),
                    criterion: state.model().criterion().label(),
                    accuracy: state.model().accuracy,
                    // The snapshot keeps its summary shape; the per-name
                    // `resolve` read carries the cluster members.
                    members: Vec::new(),
                }
            })
            .collect();
        Snapshot { names }
    }

    /// The clusters and per-mention origins one materialization pass
    /// needs, snapshotted under the name's state lock (and released
    /// before the entity-table lock is taken).
    fn cluster_view(&self, name: &str) -> Result<ClusterView, StreamError> {
        self.with_state(name, |state| {
            let clusters = state.partition().clusters();
            let seeds = state.seed_labels();
            let origins = (0..state.len())
                .map(|doc| match seeds.get(doc) {
                    Some(&label) => MentionOrigin::Seed { label },
                    None => MentionOrigin::Ingest,
                })
                .collect();
            (clusters, origins, state.len())
        })
    }

    /// The in-memory entity store for `name`, created on first touch —
    /// restored from a persisted `.entity.json` record when one exists.
    /// The caller holds the table-map lock.
    fn entity_store<'a>(
        &self,
        tables: &'a mut HashMap<String, EntityStore>,
        name: &str,
    ) -> Result<&'a mut EntityStore, StreamError> {
        if !tables.contains_key(name) {
            let store = match self.config.state_dir.as_deref() {
                Some(dir) => match snapshot::read_entity_record(dir, name)? {
                    Some(record) => record.restore().map_err(StreamError::SnapshotRejected)?,
                    None => EntityStore::new(name),
                },
                None => EntityStore::new(name),
            };
            tables.insert(name.to_string(), store);
        }
        Ok(tables.get_mut(name).expect("just inserted"))
    }

    /// Run one materialization pass and read the resulting table out.
    fn materialize_pass(
        &self,
        store: &mut EntityStore,
        clusters: &[Vec<usize>],
        origins: &[MentionOrigin],
        docs: usize,
    ) -> EntityTable {
        let start = std::time::Instant::now();
        let report = store.materialize(clusters, origins);
        self.metrics.entity_materializations.inc();
        self.metrics.entity_materialize_us.record_since(start);
        self.metrics.entity_splits.add(report.splits);
        self.metrics
            .entity_constraint_violations
            .add(report.violations);
        EntityTable {
            name: store.name().to_string(),
            docs,
            entities: store.entities().to_vec(),
            links: store.links().to_vec(),
            constraints: store.constraints().len(),
            report,
        }
    }

    /// Materialize and read one name's canonical entity table (the
    /// `entities` protocol op). The name's state is restored from disk
    /// first if it was evicted; the entity table is restored from its own
    /// record on first touch.
    pub fn entities(&self, name: &str) -> Result<EntityTable, StreamError> {
        let (clusters, origins, docs) = self.cluster_view(name)?;
        let mut tables = self.entity_tables.lock();
        let store = self.entity_store(&mut tables, name)?;
        Ok(self.materialize_pass(store, &clusters, &origins, docs))
    }

    /// Materialize every live name's entity table, sorted by name (the
    /// name-less `entities` op). A name evicted mid-walk is skipped.
    pub fn entities_all(&self) -> Result<Vec<EntityTable>, StreamError> {
        let mut out = Vec::new();
        for name in self.names() {
            match self.entities(&name) {
                Ok(table) => out.push(table),
                Err(StreamError::UnknownName(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Assert (or retract) a `SAME_AS` link between two canonical entity
    /// IDs of `name`, then re-materialize and return the updated table.
    /// The table is brought up to date with the current partition *before*
    /// the IDs are validated, so a link can reference entities created by
    /// ingests since the last entity op.
    pub fn same_as(
        &self,
        name: &str,
        a: u64,
        b: u64,
        retract: bool,
    ) -> Result<EntityTable, StreamError> {
        let (clusters, origins, docs) = self.cluster_view(name)?;
        let mut tables = self.entity_tables.lock();
        let store = self.entity_store(&mut tables, name)?;
        self.materialize_pass(store, &clusters, &origins, docs);
        if retract {
            store.retract_link(a, b)?;
        } else {
            store.assert_link(a, b)?;
        }
        Ok(self.materialize_pass(store, &clusters, &origins, docs))
    }

    /// Register one constraint for `name` (or clear them all), then
    /// re-materialize and return the updated table plus whether the
    /// constraint set grew (`false` for a duplicate or a clear).
    pub fn constrain(
        &self,
        name: &str,
        action: &crate::protocol::ConstraintAction,
    ) -> Result<(bool, EntityTable), StreamError> {
        let (clusters, origins, docs) = self.cluster_view(name)?;
        let mut tables = self.entity_tables.lock();
        let store = self.entity_store(&mut tables, name)?;
        let added = match action {
            crate::protocol::ConstraintAction::Add(constraint) => {
                store.add_constraint(constraint.clone())
            }
            crate::protocol::ConstraintAction::Clear => {
                store.clear_constraints();
                false
            }
        };
        Ok((
            added,
            self.materialize_pass(store, &clusters, &origins, docs),
        ))
    }

    /// Register a constraint directly (embedders and tests; the wire path
    /// goes through [`constrain`](Self::constrain)).
    pub fn add_constraint(&self, name: &str, constraint: Constraint) -> Result<bool, StreamError> {
        let mut tables = self.entity_tables.lock();
        let store = self.entity_store(&mut tables, name)?;
        Ok(store.add_constraint(constraint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gazetteer() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        g
    }

    fn seed_docs() -> Vec<SeedDocument> {
        [
            ("databases are fun and databases are important", 0),
            ("databases are hard but databases pay well", 0),
            ("gardening tips for growing roses", 1),
            ("gardening advice on pruning roses", 1),
        ]
        .iter()
        .map(|&(t, l)| SeedDocument {
            text: t.to_string(),
            url: None,
            label: l,
        })
        .collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "weber_resolver_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seed_then_ingest() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        let summary = r.seed("cohen", &seed_docs()).unwrap();
        assert_eq!(summary.docs, 4);
        assert!(!summary.function.is_empty());
        let a = r
            .ingest("cohen", "databases are fun and databases are hard", None)
            .unwrap();
        assert_eq!(a.doc, 4);
        assert_eq!(r.partition("cohen").unwrap().len(), 5);
    }

    #[test]
    fn unknown_name_is_rejected() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        assert!(matches!(
            r.ingest("nobody", "text", None),
            Err(StreamError::UnknownName(_))
        ));
        assert!(r.partition("nobody").is_none());
    }

    #[test]
    fn names_are_independent() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        r.seed("smith", &seed_docs()).unwrap();
        r.ingest("cohen", "databases again", None).unwrap();
        assert_eq!(r.partition("cohen").unwrap().len(), 5);
        assert_eq!(r.partition("smith").unwrap().len(), 4);
        assert_eq!(r.names(), vec!["cohen".to_string(), "smith".to_string()]);
    }

    #[test]
    fn resolve_name_reports_the_live_summary() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        r.ingest("cohen", "databases once more", None).unwrap();
        let summary = r.resolve_name("cohen").unwrap();
        assert_eq!(summary.name, "cohen");
        assert_eq!(summary.docs, 5);
        assert!(summary.clusters >= 1);
        assert!(!summary.function.is_empty());
        assert!(matches!(
            r.resolve_name("nobody"),
            Err(StreamError::UnknownName(_))
        ));
    }

    #[test]
    fn snapshot_covers_every_name() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        r.seed("smith", &seed_docs()).unwrap();
        let s = r.snapshot();
        assert_eq!(s.names.len(), 2);
        assert_eq!(s.names[0].name, "cohen");
        assert_eq!(s.total_docs(), 8);
    }

    #[test]
    fn concurrent_ingests_across_names() {
        let r = Arc::new(StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap());
        r.seed("cohen", &seed_docs()).unwrap();
        r.seed("smith", &seed_docs()).unwrap();
        std::thread::scope(|scope| {
            for name in ["cohen", "smith"] {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..5 {
                        r.ingest(name, &format!("databases text number {i}"), None)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(r.partition("cohen").unwrap().len(), 9);
        assert_eq!(r.partition("smith").unwrap().len(), 9);
    }

    /// White-box regression for the stale-state ingest race: an apply
    /// against an entry the map no longer serves must be refused, leaving
    /// the orphaned state untouched.
    #[test]
    fn apply_to_replaced_entry_is_refused() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        // Simulate the racer: grab the entry handle the way ingest does...
        let orphan = r.names.read().get("cohen").cloned().unwrap();
        // ...then a concurrent seed replaces the map entry.
        r.seed("cohen", &seed_docs()).unwrap();
        let text = "databases between lookup and lock";
        let features = r.extractor.extract(text, None);
        let refused = r.try_apply("cohen", &orphan, |state| {
            state.ingest(
                StoredDocument {
                    text: text.to_string(),
                    url: None,
                },
                features.clone(),
            )
        });
        assert!(
            refused.is_none(),
            "apply must not land in an orphaned state"
        );
        assert_eq!(orphan.state.lock().len(), 4, "orphan must be untouched");
        // The public path retries and lands in the current entry.
        r.ingest("cohen", text, None).unwrap();
        assert_eq!(r.partition("cohen").unwrap().len(), 5);
    }

    /// Stress the seed/ingest interleaving on one name: every ingest must
    /// either land in the state the map serves or be retried — never
    /// applied to an orphan — so after the dust settles the live document
    /// count is exactly seed + ingests-since-last-seed.
    #[test]
    fn interleaved_seed_and_ingest_on_one_name() {
        let r = Arc::new(StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap());
        r.seed("cohen", &seed_docs()).unwrap();
        let ingested = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let reseeder = {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..5 {
                        r.seed("cohen", &seed_docs()).unwrap();
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                })
            };
            for _ in 0..2 {
                let r = Arc::clone(&r);
                let ingested = Arc::clone(&ingested);
                scope.spawn(move || {
                    for i in 0..10 {
                        r.ingest("cohen", &format!("databases stress {i}"), None)
                            .unwrap();
                        ingested.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            reseeder.join().unwrap();
        });
        assert_eq!(ingested.load(Ordering::Relaxed), 20);
        // Whatever interleaving happened, the live state is consistent:
        // 4 seed docs plus however many ingests landed after the final
        // re-seed, which is at most 20.
        let live = r.partition("cohen").unwrap().len();
        assert!((4..=24).contains(&live), "live count {live} out of range");
        assert_eq!(r.snapshot().names.len(), 1);
    }

    #[test]
    fn health_reports_uptime_and_names() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        let h = r.health();
        assert_eq!(h.names, 1);
        assert_eq!(h.queue_depth, 0);
        assert!(h.workers >= 1 && h.queue_capacity >= 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(r.health().uptime > h.uptime);
    }

    #[test]
    fn eviction_requires_a_state_dir() {
        let config = StreamConfig::default().with_max_names(2);
        assert!(matches!(
            StreamResolver::new(config, &gazetteer()),
            Err(StreamError::Persistence(_))
        ));
    }

    #[test]
    fn persist_restore_roundtrip_reproduces_the_partition() {
        let dir = temp_dir("roundtrip");
        let config = StreamConfig::default().with_state_dir(&dir);
        let before = {
            let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
            r.seed("cohen", &seed_docs()).unwrap();
            r.seed("smith", &seed_docs()).unwrap();
            for i in 0..3 {
                r.ingest(
                    "cohen",
                    &format!("databases are important number {i}"),
                    None,
                )
                .unwrap();
            }
            assert_eq!(r.persist_all().unwrap(), 2);
            (r.partition("cohen").unwrap(), r.partition("smith").unwrap())
        };
        // A fresh resolver (fresh process stand-in: nothing in memory).
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        assert_eq!(r.restore_all().unwrap(), 2);
        assert_eq!(r.partition("cohen").unwrap(), before.0);
        assert_eq!(r.partition("smith").unwrap(), before.1);
        assert_eq!(r.snapshot().total_docs(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touching_a_name_on_disk_restores_it_transparently() {
        let dir = temp_dir("lazy");
        let config = StreamConfig::default().with_state_dir(&dir);
        {
            let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
            r.seed("cohen", &seed_docs()).unwrap();
            r.persist_all().unwrap();
        }
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        assert!(r.names().is_empty());
        // No restore_all: the first ingest touch restores from disk.
        let a = r.ingest("cohen", "databases once more", None).unwrap();
        assert_eq!(a.doc, 4);
        assert_eq!(r.partition("cohen").unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_names_are_evicted_and_restored_on_touch() {
        let dir = temp_dir("evict");
        let config = StreamConfig::default()
            .with_state_dir(&dir)
            .with_max_names(1);
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        // Seeding a second name evicts the colder first one to disk.
        r.seed("smith", &seed_docs()).unwrap();
        assert_eq!(r.names(), vec!["smith".to_string()]);
        assert!(snapshot::read_record(&dir, "cohen").unwrap().is_some());
        // Touching the evicted name restores it (and evicts the other).
        let a = r.ingest("cohen", "databases resurface", None).unwrap();
        assert_eq!(a.doc, 4);
        assert_eq!(r.names(), vec!["cohen".to_string()]);
        assert!(snapshot::read_record(&dir, "smith").unwrap().is_some());
        // The evicted-and-restored partition kept every document.
        assert_eq!(r.partition("cohen").unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_name_carries_cluster_members() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        let summary = r.resolve_name("cohen").unwrap();
        assert_eq!(summary.members.len(), summary.clusters);
        let mut all: Vec<usize> = summary.members.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![0, 1, 2, 3],
            "every document in exactly one cluster"
        );
        // The summary snapshot keeps its light shape.
        assert!(r.snapshot().names[0].members.is_empty());
    }

    #[test]
    fn entities_materialize_with_stable_ids_and_seed_provenance() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        let table = r.entities("cohen").unwrap();
        assert_eq!(table.docs, 4);
        assert_eq!(table.entities.len(), 2);
        assert_eq!(table.report.fresh_ids, 2);
        let seeded: Vec<_> = table.entities[0]
            .provenance
            .iter()
            .map(|p| p.origin)
            .collect();
        assert!(seeded
            .iter()
            .all(|o| matches!(o, MentionOrigin::Seed { .. })));
        // A second pass over an unchanged partition keeps every ID.
        let again = r.entities("cohen").unwrap();
        assert_eq!(again.report.retained_ids, 2);
        assert_eq!(again.report.fresh_ids, 0);
        assert_eq!(
            again.entities.iter().map(|e| e.id).collect::<Vec<_>>(),
            table.entities.iter().map(|e| e.id).collect::<Vec<_>>()
        );
        assert!(matches!(
            r.entities("nobody"),
            Err(StreamError::UnknownName(_))
        ));
    }

    #[test]
    fn same_as_and_constraints_round_trip_through_the_resolver() {
        let r = StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        let table = r.entities("cohen").unwrap();
        let (a, b) = (table.entities[0].id, table.entities[1].id);
        // The two seed clusters carry different labels, so the union is
        // vetoed by the implicit cannot-link — but the link stays.
        let vetoed = r.same_as("cohen", a, b, false).unwrap();
        assert_eq!(vetoed.entities.len(), 2);
        assert_eq!(vetoed.report.vetoed_links, 1);
        assert_eq!(vetoed.links.len(), 1);
        let back = r.same_as("cohen", a, b, true).unwrap();
        assert!(back.links.is_empty());
        assert!(matches!(
            r.same_as("cohen", a, 99, false),
            Err(StreamError::Entity(
                weber_entity::EntityError::UnknownEntity(99)
            ))
        ));
        // An explicit constraint splits a seed cluster.
        let (added, constrained) = r
            .constrain(
                "cohen",
                &crate::protocol::ConstraintAction::Add(Constraint::CannotLink { a: 0, b: 1 }),
            )
            .unwrap();
        assert!(added);
        assert_eq!(constrained.constraints, 1);
        assert!(constrained.entities.len() >= 3);
        assert!(constrained.report.splits >= 1);
        let (added_again, _) = r
            .constrain(
                "cohen",
                &crate::protocol::ConstraintAction::Add(Constraint::CannotLink { a: 1, b: 0 }),
            )
            .unwrap();
        assert!(!added_again, "duplicates are ignored");
        let (_, cleared) = r
            .constrain("cohen", &crate::protocol::ConstraintAction::Clear)
            .unwrap();
        assert_eq!(cleared.constraints, 0);
        assert_eq!(cleared.entities.len(), 2);
    }

    #[test]
    fn entity_tables_persist_and_restore_on_touch() {
        let dir = temp_dir("entity_roundtrip");
        let config = StreamConfig::default().with_state_dir(&dir);
        let (ids_before, links_before) = {
            let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
            r.seed("cohen", &seed_docs()).unwrap();
            r.entities("cohen").unwrap();
            r.add_constraint("cohen", Constraint::CannotLink { a: 0, b: 2 })
                .unwrap();
            let table = r.entities("cohen").unwrap();
            r.persist_all().unwrap();
            (
                table.entities.iter().map(|e| e.id).collect::<Vec<_>>(),
                table.links.len(),
            )
        };
        // A fresh resolver: the first entity touch restores the table —
        // same stable IDs, same constraint set.
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        let table = r.entities("cohen").unwrap();
        assert_eq!(
            table.entities.iter().map(|e| e.id).collect::<Vec<_>>(),
            ids_before
        );
        assert_eq!(table.links.len(), links_before);
        assert_eq!(table.constraints, 1);
        assert_eq!(table.report.retained_ids, ids_before.len());
        assert_eq!(table.report.fresh_ids, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_records_are_rejected_on_restore() {
        let dir = temp_dir("tamper");
        let config = StreamConfig::default().with_state_dir(&dir);
        {
            let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
            r.seed("cohen", &seed_docs()).unwrap();
            r.persist_all().unwrap();
        }
        // Corrupt the recorded partition: replay will not reproduce it.
        let mut record = snapshot::read_record(&dir, "cohen").unwrap().unwrap();
        for label in &mut record.partition {
            *label = 9;
        }
        snapshot::write_record(&dir, &record).unwrap();
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        assert!(matches!(
            r.restore_all(),
            Err(StreamError::SnapshotRejected(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
