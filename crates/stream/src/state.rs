//! Per-name streaming state: the grown block, the trained decision model,
//! and the live partition.

use std::collections::HashMap;

use weber_core::resolver::Resolver;
use weber_core::supervision::Supervision;
use weber_core::TrainedModel;
use weber_extract::features::PageFeatures;
use weber_graph::{OnlinePartition, Partition};
use weber_simfun::block::{PreparedBlock, WordVectorScheme};

use crate::config::AssignmentPolicy;
use crate::error::StreamError;
use crate::snapshot::StoredDocument;

/// Where an arriving document landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAssignment {
    /// Index of the document within its name's block.
    pub doc: usize,
    /// Cluster representative (the smallest-rooted member index; stable
    /// until a later arrival merges the cluster).
    pub cluster: usize,
    /// True when the document founded a new singleton cluster.
    pub is_new_cluster: bool,
    /// Size of the cluster after assignment.
    pub cluster_size: usize,
    /// How many existing members the document linked to.
    pub linked_members: usize,
    /// True when this arrival hit the doubling schedule and triggered a
    /// full checkpoint retrain before being placed.
    pub retrained: bool,
}

/// All streaming state for one ambiguous name.
///
/// Seeded once from a labelled batch (which trains the decision model via
/// best-graph selection), then grown one document at a time: each arrival
/// joins the block-local index, is scored against every existing member
/// with the trained model, and is folded into the live partition by
/// transitive closure: it joins every cluster it links to, which may merge
/// several existing clusters, exactly as batch closure over the same
/// decisions would.
#[derive(Debug)]
pub struct NameState {
    block: PreparedBlock,
    model: TrainedModel,
    partition: OnlinePartition,
    /// The seed labels, retained so the model can be re-calibrated as the
    /// block's document frequencies drift away from the seed statistics.
    supervision: Supervision,
    /// The batch resolver, retained for checkpoint re-training.
    resolver: Resolver,
    /// Block size at which the next checkpoint rebuild runs.
    retrain_at: usize,
    /// The raw documents, in block order (seed batch first). Retained as
    /// the durable form of the features: feature vectors reference term
    /// ids interned in the resolver's own vocabulary, so persistence
    /// stores the documents and restore re-extracts them.
    documents: Vec<StoredDocument>,
    /// The seed batch's entity labels (documents `0..seed_labels.len()`).
    seed_labels: Vec<u32>,
    /// Word-vector generation of the block at the last (re)fit of the
    /// model. Per-arrival re-calibration only matters when the similarity
    /// values on the seed pairs can have moved, i.e. when the selected
    /// function reads the word-vector space *and* the vectors actually
    /// changed; feature-based functions are immutable per document, so
    /// their refit is a fixed point and is skipped.
    last_refit_generation: u64,
}

/// The seed labels as supervision over documents `0..labels.len()`.
fn seed_supervision(labels: &[u32]) -> Supervision {
    Supervision::new(
        labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (i, l))
            .collect::<HashMap<_, _>>(),
    )
}

/// Transitive closure of the model's pairwise decisions over the whole
/// block, with the supervision's known same-entity pairs merged on top
/// (seed labels are ground truth for their documents).
///
/// Reads the pairwise values from the model's similarity graph — a handle
/// to the graph in the block's incremental cache, so a closure rebuild
/// right after training reuses the graph the scoring pass already built.
fn closure_partition(
    block: &PreparedBlock,
    model: &TrainedModel,
    supervision: &Supervision,
) -> OnlinePartition {
    let sims = model.similarity_graph(block);
    let mut partition = OnlinePartition::new();
    for i in 0..block.len() {
        let links: Vec<usize> = (sims.column(i).iter().enumerate())
            .filter(|&(_, &value)| model.fitted().decide(value))
            .map(|(j, _)| j)
            .collect();
        partition.insert(links);
    }
    for (i, j, link) in supervision.pairs() {
        if link {
            partition.merge(i, j);
        }
    }
    partition
}

impl NameState {
    /// Train on a labelled seed batch and build the initial partition.
    ///
    /// The partition over the seed documents is the transitive closure of
    /// the trained model's pairwise decisions, with same-label pairs merged
    /// on top (the seed labels are ground truth for their documents).
    ///
    /// The last argument is the one-variant [`AssignmentPolicy`], kept only
    /// because the repo benchmark passes it: one of the harness-pinned
    /// forwards, removed when the harness moves to the new names.
    pub fn seed(
        name: &str,
        documents: Vec<StoredDocument>,
        features: Vec<PageFeatures>,
        labels: &[u32],
        resolver: &Resolver,
        scheme: WordVectorScheme,
        _: AssignmentPolicy,
    ) -> Result<Self, StreamError> {
        Self::seed_observed(name, documents, features, labels, resolver, scheme, None)
    }

    /// [`seed`](Self::seed) with optional shared similarity-cache counters
    /// attached to the block *before* training, so the seed's own layer
    /// builds are already accounted. The streaming resolver passes one
    /// instance shared across all its names.
    pub fn seed_observed(
        name: &str,
        documents: Vec<StoredDocument>,
        features: Vec<PageFeatures>,
        labels: &[u32],
        resolver: &Resolver,
        scheme: WordVectorScheme,
        cache_stats: Option<std::sync::Arc<weber_simfun::block::CacheStats>>,
    ) -> Result<Self, StreamError> {
        if features.is_empty() {
            return Err(StreamError::EmptySeed(name.to_string()));
        }
        // A mismatched batch must fail loudly in every build: proceeding
        // would mistrain (labels attached to the wrong documents) or panic
        // later inside supervision pair enumeration.
        if features.len() != labels.len() || documents.len() != features.len() {
            return Err(StreamError::SeedMismatch {
                name: name.to_string(),
                docs: documents.len().max(features.len()),
                labels: labels.len(),
            });
        }
        let mut block = PreparedBlock::with_scheme(name, features, scheme);
        if let Some(stats) = cache_stats {
            block.set_cache_stats(stats);
        }
        let supervision = seed_supervision(labels);
        let model = resolver.train(&block, &supervision)?;
        let partition = closure_partition(&block, &model, &supervision);
        // Training left a word-vector graph in the block's cache for every
        // function it scored; the next checkpoint finds the vectors
        // re-weighted and rebuilds them, so only the selected one is kept.
        block.retain_word_vector_graph(model.function_name());
        let retrain_at = block.len() * 2;
        let seed_labels = labels.to_vec();
        let last_refit_generation = block.vector_generation();
        Ok(Self {
            block,
            model,
            partition,
            supervision,
            resolver: resolver.clone(),
            retrain_at,
            documents,
            seed_labels,
            last_refit_generation,
        })
    }

    /// Resume a persisted state without replaying the history that
    /// produced it: `block` is rebuilt in one shot from the stored
    /// documents, and `model`, `partition` and `retrain_at` are taken as
    /// stored. Valid because everything the next arrival reads is a
    /// function of the documents (the block's vectors equal an
    /// incrementally grown block's bit for bit) or is stored exactly. The
    /// model counts as fitted at the block's current vector generation,
    /// which is where the live state last refitted it.
    ///
    /// The caller has checked that block, documents and partition agree
    /// in length and that the seed labels cover a prefix of the block.
    /// No similarity graph is warmed: the selected function's builds on
    /// the first arrival.
    pub fn adopt(
        block: PreparedBlock,
        model: TrainedModel,
        partition: OnlinePartition,
        documents: Vec<StoredDocument>,
        seed_labels: Vec<u32>,
        resolver: &Resolver,
        retrain_at: usize,
    ) -> Self {
        debug_assert_eq!(block.len(), partition.len());
        debug_assert_eq!(block.len(), documents.len());
        let last_refit_generation = block.vector_generation();
        Self {
            block,
            model,
            partition,
            supervision: seed_supervision(&seed_labels),
            resolver: resolver.clone(),
            retrain_at,
            documents,
            seed_labels,
            last_refit_generation,
        }
    }

    /// Checkpoint: re-run full best-graph training on the grown block and
    /// rebuild the partition from the new model's decision closure.
    ///
    /// The seed model was selected on seed-only statistics, where a
    /// threshold layer can look perfect (a handful of labelled documents is
    /// easy to separate) yet over-link badly on the unlabelled stream. The
    /// batch resolver never has this problem because its layers are built
    /// over *all* documents — unlabelled ones participate in the closure, so
    /// over-linking layers get punished at selection time. Re-training at
    /// doubling block sizes restores that selection pressure: total rebuild
    /// cost is a geometric series dominated by the final rebuild, i.e. the
    /// same order as one batch resolution.
    fn checkpoint(&mut self) {
        if let Ok(model) = self.resolver.train(&self.block, &self.supervision) {
            self.model = model;
        } else {
            // Training can only fail on invalid supervision, which seed()
            // already validated; fall back to re-calibration just in case.
            self.model.refit(&self.block, &self.supervision);
        }
        self.partition = closure_partition(&self.block, &self.model, &self.supervision);
        self.block
            .retain_word_vector_graph(self.model.function_name());
        self.retrain_at = self.block.len() * 2;
        self.last_refit_generation = self.block.vector_generation();
    }

    /// Ingest one document: grow the block, re-calibrate the model's fit
    /// on the retained seed labels (document frequencies just shifted),
    /// score against every existing member, update the partition.
    ///
    /// The state additionally re-trains and rebuilds at doubling block
    /// sizes (see [`NameState::checkpoint`]); the per-arrival path below
    /// handles every document in between.
    pub fn ingest(
        &mut self,
        document: StoredDocument,
        features: PageFeatures,
    ) -> ClusterAssignment {
        self.documents.push(document);
        // Defer the word-vector refresh: the push only re-weights vectors
        // when the selected function actually reads them (or a checkpoint
        // is about to re-train over every function). Feature-based models
        // never touch the vector space, so their arrivals skip the O(block)
        // TF-IDF rebuild entirely.
        let doc = self.block.push_deferred(features);
        let checkpoint_due = self.block.len() >= self.retrain_at;
        if checkpoint_due || self.model.uses_word_vectors() {
            self.block.ensure_vectors();
        }
        if checkpoint_due {
            self.checkpoint();
            let row = self.model.similarity_row(&self.block, doc);
            let linked_members = (0..doc)
                .filter(|&j| self.model.fitted().decide(row[j]))
                .count();
            let cluster_size = self.partition.members_of(doc).len();
            return ClusterAssignment {
                doc,
                cluster: self.partition.representative(doc),
                is_new_cluster: cluster_size == 1,
                cluster_size,
                linked_members,
                retrained: true,
            };
        }
        // Re-calibrate only when the seed-pair similarity values can have
        // moved: a push shifts block-local document frequencies, but that
        // reaches the model only through the word-vector space. For
        // feature-based functions the refit is a fixed point; for
        // word-vector functions the store's generation says whether any
        // already-built vector actually changed.
        if self.model.uses_word_vectors()
            && self.block.vector_generation() != self.last_refit_generation
        {
            self.model.refit(&self.block, &self.supervision);
            self.last_refit_generation = self.block.vector_generation();
        }
        let row = self.model.similarity_row(&self.block, doc);
        let links: Vec<usize> = (0..doc)
            .filter(|&j| self.model.fitted().decide(row[j]))
            .collect();
        let linked_members = links.len();
        let id = self.partition.insert(links);
        debug_assert_eq!(id, doc);
        let cluster_size = self.partition.members_of(doc).len();
        ClusterAssignment {
            doc,
            cluster: self.partition.representative(doc),
            is_new_cluster: cluster_size == 1,
            cluster_size,
            linked_members,
            retrained: false,
        }
    }

    /// Number of documents (seed + ingested).
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// A seeded state always has documents.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.partition.cluster_count()
    }

    /// Snapshot of the live partition (canonical first-occurrence labels).
    pub fn partition(&self) -> Partition {
        self.partition.partition()
    }

    /// The live partition's union-find forest, as `(parent, rank)`.
    pub fn forest(&self) -> (&[u32], &[u8]) {
        self.partition.forest()
    }

    /// Block size at which the next checkpoint retrain runs.
    pub fn retrain_at(&self) -> usize {
        self.retrain_at
    }

    /// The trained decision model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The grown block.
    pub fn block(&self) -> &PreparedBlock {
        &self.block
    }

    /// The raw documents in block order (seed batch first).
    pub fn documents(&self) -> &[StoredDocument] {
        &self.documents
    }

    /// The seed batch's entity labels.
    pub fn seed_labels(&self) -> &[u32] {
        &self.seed_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_core::resolver::ResolverConfig;
    use weber_extract::gazetteer::Gazetteer;
    use weber_extract::pipeline::Extractor;

    fn extractor() -> Extractor {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        Extractor::new(&g)
    }

    fn stored(text: &str) -> StoredDocument {
        StoredDocument {
            text: text.to_string(),
            url: None,
        }
    }

    fn seeded() -> (NameState, Extractor) {
        let e = extractor();
        let texts = [
            "databases are fun and databases are important",
            "databases are hard but databases pay well",
            "gardening tips for growing roses",
            "gardening advice on pruning roses",
        ];
        let documents: Vec<StoredDocument> = texts.iter().map(|t| stored(t)).collect();
        let features: Vec<PageFeatures> = texts.iter().map(|t| e.extract(t, None)).collect();
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let state = NameState::seed(
            "cohen",
            documents,
            features,
            &[0, 0, 1, 1],
            &resolver,
            WordVectorScheme::default(),
            AssignmentPolicy::TransitiveClosure,
        )
        .unwrap();
        (state, e)
    }

    #[test]
    fn seed_trains_and_partitions() {
        let (state, _) = seeded();
        assert_eq!(state.len(), 4);
        // Same-label pairs are merged in the seed partition.
        let p = state.partition();
        assert!(p.same_cluster(0, 1));
        assert!(p.same_cluster(2, 3));
        assert!(!p.same_cluster(0, 2));
    }

    #[test]
    fn seeding_keeps_no_word_vector_graph_but_the_selected_functions() {
        let (state, _) = seeded();
        let stats = std::sync::Arc::clone(state.block().cache_stats());
        for f in weber_simfun::functions::standard_suite() {
            let (hits, rebuilds) = (stats.hits(), stats.rebuilds());
            state.block().similarity_graph(f.as_ref());
            if f.uses_word_vectors() && f.name() != state.model().function_name() {
                assert_eq!(stats.rebuilds(), rebuilds + 1, "{} was dropped", f.name());
            } else {
                assert_eq!(stats.hits(), hits + 1, "{} was kept", f.name());
            }
        }
        assert_eq!(stats.invalidations(), 0);
    }

    #[test]
    fn empty_seed_is_rejected() {
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let err = NameState::seed(
            "cohen",
            Vec::new(),
            Vec::new(),
            &[],
            &resolver,
            WordVectorScheme::default(),
            AssignmentPolicy::TransitiveClosure,
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::EmptySeed(_)));
    }

    #[test]
    fn mismatched_seed_batch_is_rejected_in_release_builds_too() {
        let e = extractor();
        let texts = ["databases one", "databases two", "gardening three"];
        let documents: Vec<StoredDocument> = texts.iter().map(|t| stored(t)).collect();
        let features: Vec<PageFeatures> = texts.iter().map(|t| e.extract(t, None)).collect();
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let err = NameState::seed(
            "cohen",
            documents,
            features,
            &[0, 1], // one label short
            &resolver,
            WordVectorScheme::default(),
            AssignmentPolicy::TransitiveClosure,
        )
        .unwrap_err();
        assert_eq!(
            err,
            StreamError::SeedMismatch {
                name: "cohen".into(),
                docs: 3,
                labels: 2,
            }
        );
    }

    #[test]
    fn ingest_grows_the_block_and_partition() {
        let (mut state, e) = seeded();
        let text = "databases are fun and databases are hard";
        let a = state.ingest(stored(text), e.extract(text, None));
        assert_eq!(a.doc, 4);
        assert_eq!(state.len(), 5);
        assert_eq!(state.partition().len(), 5);
        assert_eq!(state.documents().len(), 5);
        assert_eq!(state.seed_labels(), &[0, 0, 1, 1]);
    }

    #[test]
    fn dissimilar_document_founds_a_new_cluster() {
        let (mut state, e) = seeded();
        let text = "zebra xylophone quantum baseball";
        let a = state.ingest(stored(text), e.extract(text, None));
        assert!(a.is_new_cluster, "{a:?}");
        assert_eq!(a.cluster_size, 1);
        assert_eq!(a.linked_members, 0);
    }
}
