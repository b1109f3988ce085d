//! The streaming resolver: thread-safe per-name state behind one façade,
//! with optional disk persistence and LRU eviction of cold names.
//!
//! Restoring a name costs O(documents), not O(history). A version-2
//! record written under the running configuration is *adopted*: its
//! documents are re-extracted into a block built in one shot, and the
//! fitted model and partition forest are taken as stored. Only a
//! version-1 record, or one whose configuration fingerprint or model does
//! not match, is *replayed* through seed and every ingest and then
//! verified. Similarity graphs are not warmed on either path: the selected
//! function's graph builds on the name's first arrival after the restore.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};

use weber_core::resolver::Resolver;
use weber_entity::{Constraint, EntityStore, MaterializeReport, MentionOrigin, TableState};
use weber_extract::gazetteer::Gazetteer;
use weber_extract::pipeline::Extractor;
use weber_graph::{OnlinePartition, Partition};
use weber_simfun::block::{PreparedBlock, WordVectorScheme};

use crate::config::StreamConfig;
use crate::error::StreamError;
use crate::metrics::StreamMetrics;
use crate::snapshot::{
    self, LiveState, NameRecord, NameSnapshot, Snapshot, StoredDocument, StoredForest, StoredModel,
    STATE_FILE_MAGIC, STATE_FILE_VERSION,
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
    /// Worker threads of the running TCP pool; 0 when no listener runs
    /// on this resolver (stdio, in-process).
    pub workers: usize,
    /// Per-worker admission-queue capacity of the running TCP pool; 0
    /// when no listener runs.
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

/// The guard of a lock result, even when a previous holder panicked. The
/// network pool catches a panicking request; poisoning would turn that one
/// failure into an error on every later request that takes the same lock.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
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
/// Restore adopts a record's stored model and partition forest and
/// re-extracts its documents (term ids are interned in a per-resolver
/// vocabulary, so stored vectors would not survive a restart). A record it
/// cannot adopt — version 1, or written under another configuration — is
/// *replayed* through the deterministic seed/ingest pipeline and verified
/// against the recorded partition and model selection. A record that is
/// damaged, inconsistent, or whose replay diverges is rejected with
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
    /// Hex FNV-1a over the resolver configuration, the word-vector scheme
    /// and the gazetteer: the live state of a record carrying another
    /// fingerprint was computed differently and is replayed, not adopted.
    fingerprint: String,
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
    /// op that touches a name (restored from disk when a record exists)
    /// and persisted-then-dropped when the name is evicted. One mutex over
    /// the map: entity ops are orders of magnitude rarer than ingests, and
    /// the per-name state lock is never held while this one is taken
    /// (clusters are snapshotted out first, and eviction releases the
    /// victim's state lock before it drops the table), so the two lock
    /// levels cannot deadlock.
    entity_tables: Mutex<HashMap<String, LiveTable>>,
}

/// A live entity table, with the digest of its on-disk record once that
/// record was read or written: a table whose encoding still has that
/// digest is not written again (see [`snapshot::write_entity_record`]).
struct LiveTable {
    store: EntityStore,
    recorded: Option<u64>,
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
        let gazetteer_json = serde_json::to_string(gazetteer)
            .map_err(|e| StreamError::Persistence(format!("cannot encode the gazetteer: {e}")))?;
        let fingerprint = snapshot::fingerprint(&[
            &format!("{:?}", config.resolver),
            &format!("{:?}", WordVectorScheme::default()),
            &gazetteer_json,
        ]);
        Ok(Self {
            extractor: Extractor::new(gazetteer),
            resolver,
            config,
            fingerprint,
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
            names: unpoisoned(self.names.read()).len(),
            queue_depth: self.metrics.queue_depth.get(),
            workers: self.metrics.workers.get().max(0) as usize,
            queue_capacity: self.metrics.queue_capacity.get().max(0) as usize,
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
            WordVectorScheme::default(),
            Some(Arc::clone(&self.metrics.cache)),
        )?;
        let summary = SeedSummary {
            docs: state.len(),
            clusters: state.cluster_count(),
            function: state.model().function_name().to_string(),
            criterion: state.model().criterion().label(),
            accuracy: state.model().accuracy,
        };
        unpoisoned(self.names.write()).insert(name.to_string(), NameEntry::new(state, self.tick()));
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
        let mut state = unpoisoned(entry.state.lock());
        let is_current = matches!(
            unpoisoned(self.names.read()).get(name), Some(current) if Arc::ptr_eq(current, entry)
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
        if let Some(entry) = unpoisoned(self.names.read()).get(name).cloned() {
            entry.touched.store(self.tick(), Ordering::Relaxed);
            return Ok(entry);
        }
        let Some(dir) = self.config.state_dir.as_deref() else {
            return Err(StreamError::UnknownName(name.to_string()));
        };
        let Some(record) = snapshot::read_record(dir, name)? else {
            return Err(StreamError::UnknownName(name.to_string()));
        };
        Ok(self.install_restored(&record)?.0)
    }

    /// Restore `record` — adopt its live state when it can be, replay its
    /// history otherwise — and serve it under its name, unless a
    /// concurrent seed or restore inserted the name first, in which case
    /// theirs is kept. Returns the entry the map serves and whether it is
    /// this restore's; only then does the restore count.
    fn install_restored(&self, record: &NameRecord) -> Result<(Arc<NameEntry>, bool), StreamError> {
        let (state, replayed) = match self.adopt(record)? {
            Some(state) => (state, false),
            None => (self.replay(record)?, true),
        };
        let restored = NameEntry::new(state, self.tick());
        let entry = Arc::clone(
            unpoisoned(self.names.write())
                .entry(record.name.clone())
                .or_insert_with(|| Arc::clone(&restored)),
        );
        let installed = Arc::ptr_eq(&entry, &restored);
        if installed {
            self.metrics.restores.inc();
            if replayed {
                self.metrics.restore_replays.inc();
            }
        }
        self.maybe_evict(&record.name)?;
        Ok((entry, installed))
    }

    /// Adopt a version-2 record's live state: validate the forest against
    /// the documents and the recorded labels, re-extract the documents,
    /// build the block in one shot, and take model, forest and checkpoint
    /// schedule as stored. `Ok(None)` when the record must be replayed
    /// instead: it has no live state (version 1), it was written under
    /// another configuration, or its model is not one this configuration
    /// can produce.
    fn adopt(&self, record: &NameRecord) -> Result<Option<NameState>, StreamError> {
        let Some(live) = &record.live else {
            return Ok(None);
        };
        if live.config_fingerprint != self.fingerprint {
            return Ok(None);
        }
        let Some(model) = self.resolver.restore_model(
            &record.function,
            &record.criterion,
            live.model.fitted.clone(),
            live.model.accuracy,
            live.model.selection_score,
        ) else {
            return Ok(None);
        };
        let rejected = |why: String| {
            StreamError::SnapshotRejected(format!("record for '{}': {why}", record.name))
        };
        let n = record.documents.len();
        let partition =
            OnlinePartition::from_forest(live.forest.parent.clone(), live.forest.rank.clone())
                .map_err(rejected)?;
        if partition.len() != n {
            return Err(rejected(format!(
                "a forest over {} documents for {n} documents",
                partition.len()
            )));
        }
        if partition.partition().labels() != record.partition.as_slice() {
            return Err(rejected(
                "the forest's clusters differ from the recorded partition".into(),
            ));
        }
        if live.retrain_at <= n {
            return Err(rejected(format!(
                "next checkpoint at {} documents, but {n} are held",
                live.retrain_at
            )));
        }
        let features = record
            .documents
            .iter()
            .map(|d| self.extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        let mut block =
            PreparedBlock::with_scheme(&record.name, features, WordVectorScheme::default());
        block.set_cache_stats(Arc::clone(&self.metrics.cache));
        Ok(Some(NameState::adopt(
            block,
            model,
            partition,
            record.documents.clone(),
            record.seed_labels.clone(),
            &self.resolver,
            live.retrain_at,
        )))
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
            WordVectorScheme::default(),
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
        let model = state.model();
        let (parent, rank) = state.forest();
        let record = NameRecord {
            magic: STATE_FILE_MAGIC.to_string(),
            version: STATE_FILE_VERSION,
            name: name.to_string(),
            seed_labels: state.seed_labels().to_vec(),
            documents: state.documents().to_vec(),
            function: model.function_name().to_string(),
            criterion: model.criterion().label(),
            partition: state.partition().labels().to_vec(),
            live: Some(LiveState {
                model: StoredModel {
                    fitted: model.fitted().clone(),
                    accuracy: model.accuracy,
                    selection_score: model.selection_score,
                },
                forest: StoredForest {
                    parent: parent.to_vec(),
                    rank: rank.to_vec(),
                },
                retrain_at: state.retrain_at(),
                config_fingerprint: self.fingerprint.clone(),
            }),
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
            let Some(entry) = unpoisoned(self.names.read()).get(&name).cloned() else {
                continue;
            };
            let state = unpoisoned(entry.state.lock());
            let is_current = matches!(
                unpoisoned(self.names.read()).get(&name), Some(current) if Arc::ptr_eq(current, &entry)
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
            let mut tables = unpoisoned(self.entity_tables.lock());
            for table in tables.values_mut() {
                table.recorded = Some(snapshot::write_entity_record(
                    dir,
                    &TableState::capture(&table.store),
                    table.recorded,
                )?);
            }
        }
        Ok(written)
    }

    /// Restore every name recorded in the state directory that is not
    /// already live; returns how many were restored (the
    /// `stream.restore_replays` counter says how many of those replayed).
    /// A resolver without a state directory restores nothing. Sequential:
    /// extraction holds the analyzer's vocabulary lock, so restoring names
    /// in parallel would not overlap the work.
    pub fn restore_all(&self) -> Result<usize, StreamError> {
        let Some(dir) = self.config.state_dir.as_deref() else {
            return Ok(0);
        };
        let mut restored = 0;
        for name in snapshot::stored_names(dir)? {
            if unpoisoned(self.names.read()).contains_key(&name) {
                continue;
            }
            let Some(record) = snapshot::read_record(dir, &name)? else {
                continue;
            };
            if self.install_restored(&record)?.1 {
                restored += 1;
            }
        }
        Ok(restored)
    }

    /// Enforce the `max_names` bound: while the map is over it, persist
    /// and drop the least-recently-touched name (never `protect`, the name
    /// that was just touched): its state, then its entity table.
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
                let map = unpoisoned(self.names.read());
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
            let state = unpoisoned(entry.state.lock());
            let is_current = matches!(
                unpoisoned(self.names.read()).get(&name), Some(current) if Arc::ptr_eq(current, &entry)
            );
            if !is_current {
                // Re-seeded while we were choosing it; pick a new victim.
                continue;
            }
            // With the state lock held and the entry current, no mutation
            // can slip in (every apply re-checks currency under this very
            // lock), so the record is complete when the entry disappears.
            self.persist_state(&name, &state)?;
            let mut map = unpoisoned(self.names.write());
            if let Some(current) = map.get(&name) {
                if Arc::ptr_eq(current, &entry) {
                    map.remove(&name);
                    self.metrics.evictions.inc();
                }
            }
            drop(map);
            drop(state);
            self.evict_entity_table(&name)?;
        }
    }

    /// Persist and drop `name`'s entity table, if one is live; the next
    /// entity op on the name restores it ([`entity_store`](Self::entity_store)).
    /// Called with no state lock held: no path holds the table lock while
    /// it takes a state lock. Writing and removing under one hold of the
    /// table lock means no pass on the table can fall between the two; it
    /// also means entity ops on every name wait for the write, which is
    /// skipped when the file already holds the table.
    fn evict_entity_table(&self, name: &str) -> Result<(), StreamError> {
        let mut tables = unpoisoned(self.entity_tables.lock());
        if let (Some(table), Some(dir)) = (tables.get(name), self.config.state_dir.as_deref()) {
            snapshot::write_entity_record(dir, &TableState::capture(&table.store), table.recorded)?;
            tables.remove(name);
        }
        Ok(())
    }

    /// The live partition of a seeded name (restored from disk first if it
    /// was evicted); `None` when the name is unknown or unreadable.
    pub fn partition(&self, name: &str) -> Option<Partition> {
        let entry = self.lookup_or_restore(name).ok()?;
        let state = unpoisoned(entry.state.lock());
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
        let state = unpoisoned(entry.state.lock());
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
        let mut names: Vec<String> = unpoisoned(self.names.read()).keys().cloned().collect();
        names.sort();
        names
    }

    /// Summaries of every seeded name, sorted by name. Does not count as a
    /// touch for eviction purposes.
    pub fn snapshot(&self) -> Snapshot {
        let handles: Vec<(String, Arc<NameEntry>)> = {
            let map = unpoisoned(self.names.read());
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
                let state = unpoisoned(entry.state.lock());
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
        tables: &'a mut HashMap<String, LiveTable>,
        name: &str,
    ) -> Result<&'a mut EntityStore, StreamError> {
        if !tables.contains_key(name) {
            let record = match self.config.state_dir.as_deref() {
                Some(dir) => snapshot::read_entity_record(dir, name)?,
                None => None,
            };
            let table = match record {
                Some((record, digest)) => LiveTable {
                    store: record.restore().map_err(StreamError::SnapshotRejected)?,
                    recorded: Some(digest),
                },
                None => LiveTable {
                    store: EntityStore::new(name),
                    recorded: None,
                },
            };
            tables.insert(name.to_string(), table);
        }
        Ok(&mut tables.get_mut(name).expect("just inserted").store)
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
        let mut tables = unpoisoned(self.entity_tables.lock());
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
        let mut tables = unpoisoned(self.entity_tables.lock());
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
        let mut tables = unpoisoned(self.entity_tables.lock());
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
        let mut tables = unpoisoned(self.entity_tables.lock());
        let store = self.entity_store(&mut tables, name)?;
        Ok(store.add_constraint(constraint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_still_lock_after_a_holder_panicked() {
        let mutex = Arc::new(Mutex::new(1));
        let rwlock = Arc::new(RwLock::new(1));
        let (m, r) = (Arc::clone(&mutex), Arc::clone(&rwlock));
        let panicked = std::thread::spawn(move || {
            let _m = m.lock().unwrap();
            let _r = r.write().unwrap();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());
        *unpoisoned(mutex.lock()) += 1;
        assert_eq!(*unpoisoned(mutex.lock()), 2);
        *unpoisoned(rwlock.write()) += 1;
        assert_eq!(*unpoisoned(rwlock.read()), 2);
    }

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
        let orphan = unpoisoned(r.names.read()).get("cohen").cloned().unwrap();
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
        assert_eq!(
            unpoisoned(orphan.state.lock()).len(),
            4,
            "orphan must be untouched"
        );
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
        // No listener runs on this resolver, so there is no pool to report.
        assert_eq!((h.queue_depth, h.workers, h.queue_capacity), (0, 0, 0));
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

    /// Eviction bounds entity tables as well as states: each evicted
    /// name's table is written to disk and dropped, and comes back with
    /// every ID on the name's next entity read. A table changed after it
    /// was read back is written again when it is next evicted.
    #[test]
    fn eviction_drops_entity_tables_and_a_touch_restores_their_ids() {
        let dir = temp_dir("evict_tables");
        let config = StreamConfig::default()
            .with_state_dir(&dir)
            .with_max_names(2);
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        let names: Vec<String> = (0..10).map(|i| format!("name{i}")).collect();
        let ids = |table: &EntityTable| table.entities.iter().map(|e| e.id).collect::<Vec<_>>();
        let mut first = Vec::new();
        for name in &names {
            r.seed(name, &seed_docs()).unwrap();
            r.ingest(name, "databases resurface", None).unwrap();
            first.push(ids(&r.entities(name).unwrap()));
            assert!(unpoisoned(r.entity_tables.lock()).len() <= 3);
        }
        for (name, before) in names.iter().zip(&first) {
            let table = r.entities(name).unwrap();
            assert_eq!(&ids(&table), before, "{name}");
            assert_eq!(table.report.fresh_ids, 0, "{name}");
            assert!(unpoisoned(r.entity_tables.lock()).len() <= 3);
            r.add_constraint(name, Constraint::CannotLink { a: 0, b: 3 })
                .unwrap();
        }
        for name in &names {
            assert_eq!(r.entities(name).unwrap().constraints, 1, "{name}");
        }
        assert!(r.names().len() <= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An evicted table reads back whole: two type constraints stay two.
    /// A record that merged their tags into one constraint would forbid
    /// the pairs across them and split both entities after the touch.
    #[test]
    fn an_evicted_table_with_two_type_constraints_reads_back_unchanged() {
        let dir = temp_dir("evict_types");
        let config = StreamConfig::default()
            .with_state_dir(&dir)
            .with_max_names(1);
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        r.seed("cohen", &seed_docs()).unwrap();
        let table = r.entities("cohen").unwrap();
        let (a, b) = (&table.entities[0].mentions, &table.entities[1].mentions);
        let tag = |doc: usize, value: &str| (doc, value.to_string());
        for types in [
            vec![tag(a[0], "person"), tag(b[0], "org")],
            vec![tag(a[1], "org"), tag(b[1], "person")],
        ] {
            r.add_constraint("cohen", Constraint::TypeBoundary { types })
                .unwrap();
        }
        let before = r.entities("cohen").unwrap();
        let report = &before.report;
        assert_eq!(
            (before.constraints, report.violations, report.splits),
            (2, 0, 0)
        );
        r.seed("levy", &seed_docs()).unwrap();
        assert!(!unpoisoned(r.entity_tables.lock()).contains_key("cohen"));
        let after = r.entities("cohen").unwrap();
        assert_eq!(after.entities, before.entities);
        assert_eq!(after.constraints, 2);
        assert_eq!(
            format!("{:?}", after.report),
            format!("{:?}", before.report)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a repeat read returns (the part of read stability that holds
    /// today): two `entities` reads with no write between them serve the
    /// same entities and links, the second mints no ID, and
    /// every read after it is byte-identical to it. The counts describe
    /// the pass that served the read, so the first read after a write may
    /// differ in them. With no accepted `SAME_AS` union the second read
    /// retains every ID; an accepted union hands the absorbed ID back and
    /// merges it again on every pass, so each one reports it as
    /// resurrected (until an accepted union holds across passes).
    #[test]
    fn a_repeat_read_mints_no_id_and_then_reads_the_same_bytes() {
        let dataset = weber_corpus::generate(&weber_corpus::presets::tiny(4));
        let block = &dataset.blocks[0];
        let name = block.query_name.as_str();
        let r = StreamResolver::new(StreamConfig::default(), &dataset.gazetteer).unwrap();
        let seeds: Vec<SeedDocument> = (0..8)
            .map(|i| SeedDocument {
                text: block.documents[i].text.clone(),
                url: block.documents[i].url.clone(),
                label: block.truth_labels[i],
            })
            .collect();
        r.seed(name, &seeds).unwrap();
        let ingest = |doc: usize| {
            let d = &block.documents[doc];
            r.ingest(name, &d.text, d.url.as_deref()).unwrap();
        };
        let repeat_reads = |unions: usize| {
            let first = r.entities(name).unwrap();
            let second = r.entities(name).unwrap();
            assert_eq!(second.entities, first.entities);
            assert_eq!(second.links, first.links);
            let report = second.report;
            assert_eq!(report.fresh_ids, 0);
            assert_eq!(report.resurrected_ids, unions);
            assert_eq!(
                report.retained_ids + report.resurrected_ids,
                second.entities.len() + unions
            );
            let bytes = crate::protocol::ok_entities(&second);
            for _ in 0..2 {
                assert_eq!(
                    crate::protocol::ok_entities(&r.entities(name).unwrap()),
                    bytes
                );
            }
            second
        };
        repeat_reads(0);
        for doc in 8..block.len() {
            ingest(doc);
            if doc % 4 == 0 {
                repeat_reads(0);
            }
        }
        // Link the first two entities a constraint lets merge.
        let ids: Vec<u64> = repeat_reads(0).entities.iter().map(|e| e.id).collect();
        let accepted = ids.iter().enumerate().find_map(|(i, &a)| {
            ids[i + 1..].iter().find_map(|&b| {
                let linked = r.same_as(name, a, b, false).unwrap();
                if linked.report.vetoed_links == 0 {
                    return Some(());
                }
                r.same_as(name, a, b, true).unwrap();
                None
            })
        });
        assert!(accepted.is_some(), "some pair of entities may merge");
        let merged = repeat_reads(1);
        assert_eq!(merged.entities.len(), ids.len() - 1);
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

    /// Adoption takes as stored what a replay recomputes: both paths reach
    /// the same forest, selection and model bits from one record.
    #[test]
    fn adopt_and_replay_of_one_record_agree() {
        let dataset = weber_corpus::generate(&weber_corpus::presets::tiny(8));
        let block = &dataset.blocks[0];
        let name = block.query_name.as_str();
        let dir = temp_dir("adopt_vs_replay");
        let config = StreamConfig::default().with_state_dir(&dir);
        let fresh = || StreamResolver::new(config.clone(), &dataset.gazetteer).unwrap();
        {
            let r = fresh();
            let seed: Vec<SeedDocument> = (0..8)
                .map(|i| SeedDocument {
                    text: block.documents[i].text.clone(),
                    url: block.documents[i].url.clone(),
                    label: block.truth_labels[i],
                })
                .collect();
            r.seed(name, &seed).unwrap();
            let retrains = (8..block.len())
                .filter(|&i| {
                    let d = &block.documents[i];
                    r.ingest(name, &d.text, d.url.as_deref()).unwrap().retrained
                })
                .count();
            assert_eq!(retrains, 1, "the record is past a checkpoint");
            r.persist_all().unwrap();
        }
        let record = snapshot::read_record(&dir, name).unwrap().unwrap();
        let adopted = fresh()
            .adopt(&record)
            .unwrap()
            .expect("a record of the same configuration adopts");
        let replayed = fresh().replay(&record).unwrap();
        assert_eq!(adopted.partition().labels(), record.partition.as_slice());
        assert_eq!(adopted.forest(), replayed.forest());
        assert_eq!(adopted.retrain_at(), replayed.retrain_at());
        let (a, b) = (adopted.model(), replayed.model());
        assert_eq!(a.function_name(), b.function_name());
        assert_eq!(a.criterion(), b.criterion());
        assert_eq!(a.fitted(), b.fitted());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(a.selection_score.to_bits(), b.selection_score.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A restore that loses the insert race to a concurrent seed or
    /// restore serves the winner's state and is not counted.
    #[test]
    fn only_the_served_restore_is_counted() {
        let dir = temp_dir("restore_count");
        let config = StreamConfig::default().with_state_dir(&dir);
        {
            let r = StreamResolver::new(config.clone(), &gazetteer()).unwrap();
            r.seed("cohen", &seed_docs()).unwrap();
            r.persist_all().unwrap();
        }
        let r = StreamResolver::new(config, &gazetteer()).unwrap();
        let record = snapshot::read_record(&dir, "cohen").unwrap().unwrap();
        // The winner: a seed lands between the record read and the insert.
        r.seed("cohen", &seed_docs()[..3]).unwrap();
        let (entry, installed) = r.install_restored(&record).unwrap();
        assert!(!installed);
        assert_eq!(unpoisoned(entry.state.lock()).len(), 3, "the seed is kept");
        assert_eq!(r.metrics.restores.get(), 0);
        assert_eq!(r.restore_all().unwrap(), 0, "a live name is not restored");
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
