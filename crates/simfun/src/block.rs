//! A prepared block: the documents sharing one ambiguous name, with TF-IDF
//! vectors materialised over a block-local index.
//!
//! The paper applies "a basic blocking technique, so essentially we only
//! compute the similarity values between documents, which are about a
//! person with the same name". TF-IDF statistics (document frequencies) are
//! therefore block-local, exactly as a per-name Lucene index would be.
//!
//! Beyond the vectors, the block owns the *similarity cache*: one shared
//! [`WeightedGraph`] handle per function, grown by
//! appending one row per new document instead of recomputing all
//! `n·(n−1)/2` pairs. Entry validity is structural — a cached graph is
//! current when it covers every document and (for word-vector functions)
//! was computed at the current vector
//! [generation](PreparedBlock::vector_generation) — so the cache needs no
//! explicit invalidation calls and stays bit-identical to a from-scratch
//! computation. Callers get an `Arc` to the cached graph, never a copy: at
//! 1,000 documents one graph is 4 MB, and training reads ten of them.
//!
//! The word-vector functions F8–F10 share one kernel. Their measures differ
//! only in an O(1) [finish](WordVectorMeasure::finish) over a pair's dot
//! product and the two vectors' cached moments, so a cold build sweeps the
//! block column by column. Document `j`'s vector is scattered into a dense
//! scratch indexed by block-local term slots, every `i < j` is gathered
//! against it once, and the three values go to three graphs that enter the
//! cache together. A streaming row is the same kernel for one column. Both
//! equal [`PreparedBlock::pair_similarity`] bit for bit.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use weber_extract::features::PageFeatures;
use weber_graph::weighted::WeightedGraph;
use weber_textindex::incremental::VectorStore;
use weber_textindex::index::CorpusIndex;
use weber_textindex::minhash::MinHasher;
use weber_textindex::sparse::SparseVector;
use weber_textindex::tfidf::TfIdf;

use crate::functions::{word_vector_function, SimilarityFunction, WordVectorMeasure};
use crate::string_sim::{char_bigrams_sorted, jaro_winkler};

pub use weber_textindex::incremental::WordVectorScheme;

/// Cache key: the name `f`'s graph is cached under — its own, or for a
/// word-vector measure the paper's function for that measure, so every
/// function computing one measure shares one graph.
type CacheKey = &'static str;

fn cache_key(f: &dyn SimilarityFunction) -> CacheKey {
    f.word_vector_measure()
        .map_or(f.name(), |m| word_vector_function(m).name())
}

/// A similarity value sanitised into `[0, 1]`, NaN ↦ 0.
fn sanitise(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(0.0, 1.0)
    }
}

/// Per-document features derived once at indexing time, so the name- and
/// URL-based similarity functions (F2, F3, F6, F7) compare precomputed
/// values instead of re-deriving (and re-allocating) them on every one of
/// the `n·(n−1)/2` pairs.
#[derive(Debug, Clone)]
pub struct DerivedFeatures {
    /// Lowercased person names except the block's query name — F6's
    /// "other person-names on the page".
    pub other_persons_lower: BTreeSet<String>,
    /// Lowercased person name closest (Jaro–Winkler) to the query name,
    /// ties broken towards the lexicographically smaller name — F7's
    /// feature.
    pub closest_person_lower: Option<String>,
    /// Lowercased most frequent person name — F3's feature.
    pub most_frequent_person_lower: Option<String>,
    /// Sorted, `u64`-encoded character bigrams of the normalised URL — the
    /// precomputable half of F2's bigram Dice. Empty when the page has no
    /// URL or the normalised URL is shorter than two characters (F2 then
    /// falls back to exact equality, matching `ngram_dice`).
    pub url_bigrams: Vec<u64>,
}

fn derive_features(query_name: &str, features: &PageFeatures) -> DerivedFeatures {
    let q = query_name.to_lowercase();
    DerivedFeatures {
        other_persons_lower: features
            .other_person_names(query_name)
            .into_iter()
            .map(str::to_lowercase)
            .collect(),
        closest_person_lower: features
            .person_names()
            .map(|n| n.to_lowercase())
            .max_by(|a, b| {
                jaro_winkler(a, &q)
                    .total_cmp(&jaro_winkler(b, &q))
                    .then_with(|| b.cmp(a))
            }),
        most_frequent_person_lower: features.most_frequent_person().map(str::to_lowercase),
        url_bigrams: features
            .url
            .as_ref()
            .map(|u| char_bigrams_sorted(&u.normalized))
            .unwrap_or_default(),
    }
}

/// Counters over the block's similarity-graph cache, incremented inside
/// [`PreparedBlock::similarity_graph`]. Plain relaxed atomics — no
/// dependency on any metrics framework — so observers (the streaming
/// resolver's metrics report) can share one instance across many blocks
/// via [`PreparedBlock::set_cache_stats`] and read totals that survive
/// block replacement or eviction.
///
/// Counts are per request. A word-vector request that misses builds the
/// F8–F10 family in one sweep: that is one rebuild (and at most one
/// invalidation), and it fills up to three entries, so the other members'
/// next requests are hits.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    grows: AtomicU64,
    rebuilds: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests served entirely from a cached graph (full coverage, no
    /// recomputation).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests served by growing a cached prefix graph row-by-row.
    pub fn grows(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }

    /// Requests that rebuilt the graph from scratch (cold or stale); a
    /// word-vector family build counts once.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Rebuilds that discarded an existing cached entry because its word
    /// vectors went stale (generation mismatch) — the subset of
    /// [`rebuilds`](Self::rebuilds) where cached work was thrown away.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Everything that was not a pure hit (grows + rebuilds).
    pub fn misses(&self) -> u64 {
        self.grows() + self.rebuilds()
    }
}

#[derive(Debug, Clone)]
struct CachedGraph {
    /// Shared with every caller that asked for it; the cache extends it in
    /// place when it holds the only handle.
    graph: Arc<WeightedGraph>,
    /// The vector generation a word-vector function's graph was computed
    /// at; `None` for feature functions, whose values never go stale.
    generation: Option<u64>,
}

/// Blocks at or above this size use every available core to fill a
/// similarity graph that cannot be grown row-by-row from the cache.
const PARALLEL_BUILD_LEN: usize = 256;

/// Worker threads for a from-scratch graph build over `n` documents.
fn build_threads(n: usize) -> usize {
    if n >= PARALLEL_BUILD_LEN {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        1
    }
}

/// A block of documents about one ambiguous person name, ready for
/// similarity computation.
///
/// Blocks can be built in one shot ([`new`](Self::new) /
/// [`with_scheme`](Self::with_scheme)) or grown one document at a time
/// ([`push`](Self::push)) for streaming ingestion; both paths produce
/// identical vectors because the block-local index is retained and word
/// vectors are refreshed — incrementally, via dirty-term tracking in
/// [`VectorStore`] — whenever document frequencies change.
#[derive(Debug)]
pub struct PreparedBlock {
    /// The ambiguous query name this block was retrieved for.
    query_name: String,
    /// Extracted features, one per document.
    features: Vec<PageFeatures>,
    /// Precomputed per-document name features, aligned with `features`.
    derived: Vec<DerivedFeatures>,
    /// The block-local term index word vectors are derived from (kept so
    /// the block can grow incrementally).
    index: CorpusIndex,
    /// Incrementally maintained word vectors with dirty-term tracking.
    store: VectorStore,
    /// The shingle hasher (fixed parameters, kept for incremental growth).
    hasher: MinHasher,
    /// MinHash signatures over 3-token shingles, aligned with `features`
    /// (near-duplicate / mirror detection).
    minhash: Vec<Vec<u64>>,
    /// Dimensionality of the word-vector space (block vocabulary size);
    /// needed by Pearson correlation (F9).
    vocab_dim: usize,
    /// True when documents were pushed with [`push_deferred`](Self::push_deferred)
    /// and the word vectors have not been re-synced yet.
    vectors_stale: bool,
    /// Per-function similarity graphs. Interior-mutable so
    /// read paths (`&self`) can populate it; computation happens outside
    /// the lock, which is only held to hand out a handle or to take an
    /// entry out and put it back.
    sim_cache: Mutex<HashMap<CacheKey, CachedGraph>>,
    /// Hit/grow/rebuild counters over `sim_cache`. Block-private by
    /// default; [`set_cache_stats`](Self::set_cache_stats) swaps in a
    /// shared instance.
    cache_stats: Arc<CacheStats>,
}

impl PreparedBlock {
    /// Prepare a block: build the block-local TF-IDF index from each page's
    /// analyzed tokens.
    pub fn new(query_name: impl Into<String>, features: Vec<PageFeatures>, scheme: TfIdf) -> Self {
        Self::with_scheme(query_name, features, WordVectorScheme::TfIdf(scheme))
    }

    /// Prepare a block under an explicit word-vector weighting scheme.
    pub fn with_scheme(
        query_name: impl Into<String>,
        features: Vec<PageFeatures>,
        scheme: WordVectorScheme,
    ) -> Self {
        let query_name = query_name.into();
        let mut index = CorpusIndex::new();
        for f in &features {
            index.add_document(&f.tokens);
        }
        let hasher = MinHasher::new(64, 3, 0xD0C5);
        let minhash = features
            .iter()
            .map(|f| hasher.signature(&f.tokens))
            .collect();
        let derived = features
            .iter()
            .map(|f| derive_features(&query_name, f))
            .collect();
        let mut store = VectorStore::new(scheme);
        store.sync(&index);
        let vocab_dim = index.vocabulary_size();
        Self {
            query_name,
            features,
            derived,
            index,
            store,
            hasher,
            minhash,
            vocab_dim,
            vectors_stale: false,
            sim_cache: Mutex::new(HashMap::new()),
            cache_stats: Arc::new(CacheStats::new()),
        }
    }

    /// Replace the block's cache counters with a shared instance, so one
    /// observer can aggregate cache behaviour across many blocks (and
    /// across re-seeds of the same name). Counts already accumulated on
    /// the old instance are not migrated.
    pub fn set_cache_stats(&mut self, stats: Arc<CacheStats>) {
        self.cache_stats = stats;
    }

    /// The block's similarity-cache counters.
    pub fn cache_stats(&self) -> &Arc<CacheStats> {
        &self.cache_stats
    }

    /// An empty block ready for incremental growth via [`push`](Self::push).
    pub fn empty(query_name: impl Into<String>, scheme: WordVectorScheme) -> Self {
        Self::with_scheme(query_name, Vec::new(), scheme)
    }

    /// Append one document to the block; returns its index.
    ///
    /// The document's tokens join the block-local index, its MinHash
    /// signature is computed once, and word vectors are refreshed so that
    /// inverse-document-frequency weights reflect the grown corpus. The
    /// refresh is incremental: only vectors holding a term whose idf factor
    /// actually changed are rewritten (in place), and the result is
    /// bit-identical to a from-scratch rebuild.
    pub fn push(&mut self, features: PageFeatures) -> usize {
        let id = self.push_deferred(features);
        self.ensure_vectors();
        id
    }

    /// Append one document *without* refreshing word vectors; returns its
    /// index. Callers that don't read word vectors between arrivals (e.g. a
    /// streaming resolver whose selected model only looks at names, URLs or
    /// entity sets) batch many deferred pushes and pay for one vector sync
    /// at [`ensure_vectors`](Self::ensure_vectors) time.
    ///
    /// Until `ensure_vectors` runs, [`tfidf`](Self::tfidf),
    /// [`vocab_dim`](Self::vocab_dim) and [`vector_generation`](Self::vector_generation)
    /// reflect the last synced state and must not be used for scoring.
    pub fn push_deferred(&mut self, features: PageFeatures) -> usize {
        let id = self.features.len();
        self.index.add_document(&features.tokens);
        self.minhash.push(self.hasher.signature(&features.tokens));
        self.derived
            .push(derive_features(&self.query_name, &features));
        self.features.push(features);
        self.vectors_stale = true;
        id
    }

    /// Bring word vectors up to date after [`push_deferred`](Self::push_deferred).
    /// A no-op when they already are.
    pub fn ensure_vectors(&mut self) {
        if self.vectors_stale {
            self.store.sync(&self.index);
            self.vocab_dim = self.index.vocabulary_size();
            self.vectors_stale = false;
        }
    }

    /// True when word vectors reflect every pushed document.
    pub fn vectors_current(&self) -> bool {
        !self.vectors_stale
    }

    /// The ambiguous name the block is about.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True for a block with no documents.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Features of document `i`.
    pub fn features(&self, i: usize) -> &PageFeatures {
        &self.features[i]
    }

    /// All features.
    pub fn all_features(&self) -> &[PageFeatures] {
        &self.features
    }

    /// Precomputed name features of document `i`.
    pub fn derived(&self, i: usize) -> &DerivedFeatures {
        &self.derived[i]
    }

    /// TF-IDF vector of document `i`.
    pub fn tfidf(&self, i: usize) -> &SparseVector {
        debug_assert!(
            !self.vectors_stale,
            "word vectors read after push_deferred without ensure_vectors"
        );
        self.store.vector(i)
    }

    /// Word-vector space dimensionality.
    pub fn vocab_dim(&self) -> usize {
        self.vocab_dim
    }

    /// A counter that advances exactly when an already-materialised word
    /// vector changed value during a refresh. Cached similarity graphs for
    /// word-vector functions are valid only at the generation they were
    /// computed at; feature-function graphs ignore it.
    pub fn vector_generation(&self) -> u64 {
        self.store.generation()
    }

    /// MinHash signature of document `i` (64 hashes over 3-token
    /// shingles) — the substrate for near-duplicate detection.
    pub fn minhash_signature(&self, i: usize) -> &[u64] {
        &self.minhash[i]
    }

    fn cache(&self) -> MutexGuard<'_, HashMap<CacheKey, CachedGraph>> {
        self.sim_cache
            .lock()
            .expect("no code that can panic runs under the similarity-cache lock")
    }

    /// The similarity of documents `i` and `j` under `f`, sanitised into
    /// `[0, 1]` (NaN ↦ 0). This is the single definition of a pairwise
    /// value: graphs, rows and model replay all route through it or, for
    /// F8–F10, through the sweep that equals it bit for bit.
    pub fn pair_similarity(&self, f: &dyn SimilarityFunction, i: usize, j: usize) -> f64 {
        sanitise(f.compare(self, i, j))
    }

    /// The full pairwise similarity graph of `f` over the block, served
    /// from the block's cache as a shared handle.
    ///
    /// Cache policy:
    /// - a cached graph covering all `n` documents is returned as-is (a
    ///   reference-count bump);
    /// - a cached graph covering a prefix of the documents is *grown* by
    ///   appending one row per missing document (valid for feature
    ///   functions always, and for word-vector functions when the vector
    ///   generation is unchanged — earlier pairs' values are immutable in
    ///   both cases);
    /// - otherwise the graph is rebuilt from scratch, fanning column runs
    ///   across all cores for blocks of ≥ 256 documents. A word-vector
    ///   measure rebuilds the whole F8–F10 family in one sweep, unless
    ///   another member is still current (one kept by
    ///   [`retain_word_vector_graph`](Self::retain_word_vector_graph)); then
    ///   only the requested graph is built.
    ///
    /// An entry that needs work is taken out of the map, so the lock is
    /// not held while pairs are scored and a grow extends the graph in
    /// place: it is copied first only if a caller still holds a handle to
    /// the shorter graph (which that caller keeps, unchanged). A stale
    /// entry is freed before its replacement is built. A second request
    /// for a key that is out finds no entry and rebuilds — correct, but a
    /// request for F9 while F8's sweep builds the family would build it
    /// twice. Layer scoring therefore requests the family once before it
    /// fans out over functions, and a name's stream is serialised.
    pub fn similarity_graph(&self, f: &dyn SimilarityFunction) -> Arc<WeightedGraph> {
        let n = self.len();
        let word = f.uses_word_vectors();
        debug_assert!(
            !(word && self.vectors_stale),
            "word-vector graph requested after push_deferred without ensure_vectors"
        );
        let generation = word.then(|| self.store.generation());
        let current = |c: &CachedGraph| c.generation == generation && c.graph.len() == n;
        let key = cache_key(f);
        let mut cache = self.cache();
        let taken = match cache.get(&key) {
            Some(c) if current(c) => {
                self.cache_stats.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&c.graph);
            }
            _ => cache.remove(&key),
        };
        let built: Vec<(CacheKey, Arc<WeightedGraph>)> = match taken {
            Some(c) if c.generation == generation => {
                drop(cache);
                self.cache_stats.grows.fetch_add(1, Ordering::Relaxed);
                let mut graph = c.graph;
                let g = Arc::make_mut(&mut graph);
                for j in g.len()..n {
                    g.push_node(&self.compute_row(f, j));
                }
                vec![(key, graph)]
            }
            stale => {
                self.cache_stats.rebuilds.fetch_add(1, Ordering::Relaxed);
                // An entry that existed but could not be used had its word
                // vectors re-weighted since it was computed.
                let mut invalidated = stale.is_some();
                drop(stale);
                let built = match f.word_vector_measure() {
                    Some(measure) => {
                        let family_key = |m: WordVectorMeasure| word_vector_function(m).name();
                        let measures = if WordVectorMeasure::ALL
                            .iter()
                            .any(|&m| cache.get(&family_key(m)).is_some_and(current))
                        {
                            vec![measure]
                        } else {
                            WordVectorMeasure::ALL.to_vec()
                        };
                        for &m in &measures {
                            if let Some(c) = cache.remove(&family_key(m)) {
                                invalidated |= c.generation != generation;
                            }
                        }
                        drop(cache);
                        let graphs = self.word_vector_graphs(&measures, build_threads(n));
                        measures
                            .into_iter()
                            .map(family_key)
                            .zip(graphs.into_iter().map(Arc::new))
                            .collect()
                    }
                    None => {
                        drop(cache);
                        let graph = WeightedGraph::from_fn_par(n, build_threads(n), |i, j| {
                            self.pair_similarity(f, i, j)
                        });
                        vec![(key, Arc::new(graph))]
                    }
                };
                if invalidated {
                    self.cache_stats
                        .invalidations
                        .fetch_add(1, Ordering::Relaxed);
                }
                built
            }
        };
        let mut cache = self.cache();
        let mut requested = None;
        for (k, graph) in built {
            if k == key {
                requested = Some(Arc::clone(&graph));
            }
            cache.insert(k, CachedGraph { graph, generation });
        }
        requested.expect("every path builds the requested graph")
    }

    /// The similarity row of document `doc` against documents `0..doc`
    /// under `f` — the values a streaming resolver needs to place one new
    /// arrival.
    ///
    /// For feature functions the row is read from the cached graph (growing
    /// it in place on the way, so the work is reused by the next
    /// checkpoint). For word-vector functions the row is computed directly
    /// — for F8–F10 as one column of the sweep: their cached graphs go
    /// stale on almost every push, and caching a row that the next arrival
    /// invalidates would just add a full-matrix rebuild per ingest.
    pub fn similarity_row(&self, f: &dyn SimilarityFunction, doc: usize) -> Vec<f64> {
        if f.uses_word_vectors() {
            self.compute_row(f, doc)
        } else {
            self.similarity_graph(f).column(doc).to_vec()
        }
    }

    /// [`similarity_graph`](Self::similarity_graph) under its old name,
    /// kept only because the repo benchmark calls it; ROADMAP item 1
    /// removes it. The MinHash prefilter is gone, so `prefilter` must be
    /// `None`.
    pub fn similarity_graph_with(
        &self,
        f: &dyn SimilarityFunction,
        prefilter: Option<f64>,
    ) -> Arc<WeightedGraph> {
        assert!(prefilter.is_none(), "the word-vector prefilter was removed");
        self.similarity_graph(f)
    }

    /// Column `doc` of `f`'s graph, computed afresh: one column of the
    /// word-vector sweep for F8–F10, one `pair_similarity` per member
    /// otherwise.
    fn compute_row(&self, f: &dyn SimilarityFunction, doc: usize) -> Vec<f64> {
        match f.word_vector_measure() {
            Some(m) => {
                let mut row = vec![0.0; doc];
                self.word_vector_columns(&[m], doc..doc + 1, &mut [&mut row[..]]);
                row
            }
            None => (0..doc).map(|i| self.pair_similarity(f, i, doc)).collect(),
        }
    }

    /// The graphs of `measures` over the whole block, in one column sweep
    /// split into `threads` runs.
    fn word_vector_graphs(
        &self,
        measures: &[WordVectorMeasure],
        threads: usize,
    ) -> Vec<WeightedGraph> {
        WeightedGraph::from_column_runs(self.len(), measures.len(), threads, |columns, runs| {
            self.word_vector_columns(measures, columns, runs)
        })
    }

    /// Columns `columns` of the graphs of `measures`, written into `runs`
    /// (one colex run per measure). Each column scatters its document's
    /// vector once; each pair is one gather plus one finish per measure.
    /// The values are `pair_similarity`'s bit for bit: the gather adds the
    /// same products in the same order as the merge join
    /// ([`SparseVector::gather`]), and the finish is the measure's one
    /// formula.
    fn word_vector_columns(
        &self,
        measures: &[WordVectorMeasure],
        columns: Range<usize>,
        runs: &mut [&mut [f64]],
    ) {
        let slots: Vec<Cow<'_, [u32]>> = (0..columns.end)
            .map(|doc| self.store.vector_slots(doc))
            .collect();
        let mut scratch = vec![0.0; self.store.slot_count()];
        let mut k = 0;
        for j in columns {
            let b = self.tfidf(j);
            b.scatter(&slots[j], &mut scratch);
            for (i, a_slots) in slots[..j].iter().enumerate() {
                let a = self.tfidf(i);
                let dot = a.gather(a_slots, &scratch);
                for (m, run) in measures.iter().zip(runs.iter_mut()) {
                    run[k] = sanitise(m.finish(dot, a, b, self.vocab_dim));
                }
                k += 1;
            }
            b.unscatter(&slots[j], &mut scratch);
        }
    }

    /// Drop every cached word-vector graph except `keep`'s. A word-vector
    /// graph is valid only at the vector generation it was computed at,
    /// and a streaming block's generation has always moved by the time
    /// anything asks again, so once training has picked its function the
    /// others' graphs are block-sized allocations that can never hit.
    /// Feature-function graphs stay: their prefixes are grown, not rebuilt.
    pub fn retain_word_vector_graph(&self, keep: &str) {
        self.cache()
            .retain(|&name, c| c.generation.is_none() || name == keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{standard_suite, NearDuplicateSimilarity, TfIdfCosine};
    use weber_extract::gazetteer::{EntityKind, Gazetteer};
    use weber_extract::pipeline::Extractor;
    use weber_textindex::tfidf::{IdfScheme, TfScheme};

    fn extractor() -> Extractor {
        let mut g = Gazetteer::new();
        g.add_phrases(EntityKind::Concept, ["databases"]);
        Extractor::new(&g)
    }

    fn block(texts: &[&str]) -> PreparedBlock {
        let e = extractor();
        let features = texts.iter().map(|t| e.extract(t, None)).collect();
        PreparedBlock::new("cohen", features, TfIdf::default())
    }

    const TEXTS: &[&str] = &[
        "databases are fun",
        "databases are hard",
        "gardening tips",
        "fun databases for gardening",
        "hard tips about databases",
    ];

    #[test]
    fn builds_aligned_tfidf_vectors() {
        let b = block(&["databases are fun", "databases are hard", "gardening tips"]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.query_name(), "cohen");
        assert!(b.tfidf(0).cosine(b.tfidf(1)) > b.tfidf(0).cosine(b.tfidf(2)));
    }

    #[test]
    fn vocab_dim_counts_block_vocabulary() {
        let b = block(&["alpha beta", "beta gamma"]);
        assert_eq!(b.vocab_dim(), 3);
    }

    #[test]
    fn bm25_scheme_produces_comparable_vectors() {
        let e = extractor();
        let features: Vec<_> = ["databases are fun", "databases are hard", "gardening tips"]
            .iter()
            .map(|t| e.extract(t, None))
            .collect();
        let b = PreparedBlock::with_scheme("cohen", features, WordVectorScheme::bm25());
        assert!(b.tfidf(0).cosine(b.tfidf(1)) > b.tfidf(0).cosine(b.tfidf(2)));
    }

    #[test]
    fn minhash_signatures_flag_identical_documents() {
        let b = block(&[
            "databases are fun to study",
            "databases are fun to study",
            "totally different page text here",
        ]);
        let same = MinHasher::estimated_jaccard(b.minhash_signature(0), b.minhash_signature(1));
        let diff = MinHasher::estimated_jaccard(b.minhash_signature(0), b.minhash_signature(2));
        assert_eq!(same, 1.0);
        assert!(diff < 0.3, "{diff}");
    }

    #[test]
    fn empty_block() {
        let b = block(&[]);
        assert!(b.is_empty());
        assert_eq!(b.vocab_dim(), 0);
    }

    #[test]
    fn pushed_block_equals_batch_block() {
        let batch = block(TEXTS);
        let e = extractor();
        let mut grown = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for (i, t) in TEXTS.iter().enumerate() {
            assert_eq!(grown.push(e.extract(t, None)), i);
        }

        assert_eq!(grown.len(), batch.len());
        assert_eq!(grown.vocab_dim(), batch.vocab_dim());
        for i in 0..batch.len() {
            assert_eq!(grown.minhash_signature(i), batch.minhash_signature(i));
            // Vectors are refreshed incrementally on the grown path and
            // built in one shot on the batch path: bit-identical.
            assert_eq!(grown.tfidf(i), batch.tfidf(i));
        }
        // And the full similarity engine agrees bit for bit, for every
        // function: a restored stream builds in one shot the block a live
        // one grew, and must score every later arrival identically.
        let suite = standard_suite();
        assert_eq!(suite.len(), 10);
        for f in suite {
            let gg = grown.similarity_graph(f.as_ref());
            let bg = batch.similarity_graph(f.as_ref());
            for (i, j, w) in bg.edges() {
                assert_eq!(
                    gg.get(i, j).to_bits(),
                    w.to_bits(),
                    "{} diverged at ({i},{j})",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn deferred_pushes_match_eager_pushes_after_sync() {
        let e = extractor();
        let mut eager = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let mut deferred = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for t in TEXTS {
            eager.push(e.extract(t, None));
            deferred.push_deferred(e.extract(t, None));
        }
        assert!(!deferred.vectors_current());
        deferred.ensure_vectors();
        assert!(deferred.vectors_current());
        assert_eq!(deferred.vocab_dim(), eager.vocab_dim());
        for i in 0..eager.len() {
            assert_eq!(deferred.tfidf(i), eager.tfidf(i));
        }
    }

    #[test]
    fn push_updates_df_weights_of_earlier_documents() {
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let g = Gazetteer::new();
        let e = Extractor::new(&g);
        b.push(e.extract("alpha beta", None));
        b.push(e.extract("gamma delta", None));
        // "alpha" is rare (df=1): weight positive in doc 0.
        let before = b.tfidf(0).norm();
        // A third doc repeating doc 0's words raises their df, shrinking
        // doc 0's idf weights — proof that old vectors are refreshed.
        b.push(e.extract("alpha beta", None));
        let after = b.tfidf(0).norm();
        assert!(
            after < before,
            "idf must drop as df rises: {after} vs {before}"
        );
    }

    #[test]
    fn cached_feature_graph_grows_by_rows_and_stays_exact() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let f = NearDuplicateSimilarity;
        for t in TEXTS {
            b.push(e.extract(t, None));
            let g = b.similarity_graph(&f);
            assert_eq!(g.len(), b.len());
            // Values always match a fresh, cache-free computation.
            for (i, j, w) in g.edges() {
                assert!((w - b.pair_similarity(&f, i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cached_word_vector_graph_tracks_the_generation() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let f = TfIdfCosine;
        for t in &TEXTS[..3] {
            b.push(e.extract(t, None));
        }
        let before = b.similarity_graph(&f);
        assert_eq!(before.len(), 3);
        // Pushing a document changes idf weights: the cached graph must not
        // be served stale.
        b.push(e.extract(TEXTS[3], None));
        let after = b.similarity_graph(&f);
        assert_eq!(after.len(), 4);
        for (i, j, _) in after.edges() {
            assert!(
                (after.get(i, j) - b.pair_similarity(&f, i, j)).abs() < 1e-12,
                "stale value served at ({i},{j})"
            );
        }
    }

    #[test]
    fn similarity_rows_match_the_graph_for_every_function() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for t in TEXTS {
            b.push(e.extract(t, None));
        }
        let doc = b.len() - 1;
        for f in standard_suite() {
            let row = b.similarity_row(f.as_ref(), doc);
            assert_eq!(row.len(), doc);
            for (i, &v) in row.iter().enumerate() {
                assert!(
                    (v - b.pair_similarity(f.as_ref(), i, doc)).abs() < 1e-12,
                    "{} row diverged at {i}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn cache_stats_track_hits_grows_and_invalidations() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let stats = Arc::new(CacheStats::new());
        b.set_cache_stats(Arc::clone(&stats));
        for t in &TEXTS[..3] {
            b.push(e.extract(t, None));
        }
        // Cold: one rebuild, no prior entry to invalidate.
        let f = NearDuplicateSimilarity;
        b.similarity_graph(&f);
        assert_eq!((stats.hits(), stats.rebuilds()), (0, 1));
        assert_eq!(stats.invalidations(), 0);
        // Same size again: pure hit.
        b.similarity_graph(&f);
        assert_eq!(stats.hits(), 1);
        // Grown block, feature function: row-append grow, not a rebuild.
        b.push(e.extract(TEXTS[3], None));
        b.similarity_graph(&f);
        assert_eq!(stats.grows(), 1);
        assert_eq!(stats.rebuilds(), 1);
        // Word-vector function: one rebuild builds the F8–F10 family, so
        // F9 and F10 are hits.
        let family = WordVectorMeasure::ALL.map(word_vector_function);
        b.similarity_graph(family[0]);
        assert_eq!(stats.rebuilds(), 2);
        b.similarity_graph(family[1]);
        b.similarity_graph(family[2]);
        assert_eq!((stats.hits(), stats.rebuilds()), (3, 2));
        // Push (vectors re-weight) and rebuild: three stale entries are
        // discarded by one family build, which counts one invalidation.
        b.push(e.extract(TEXTS[4], None));
        b.similarity_graph(family[1]);
        assert_eq!((stats.rebuilds(), stats.invalidations()), (3, 1));
        b.similarity_graph(family[0]);
        b.similarity_graph(family[2]);
        assert_eq!((stats.hits(), stats.rebuilds()), (5, 3));
        assert_eq!(stats.misses(), stats.grows() + stats.rebuilds());
    }

    #[test]
    fn repeated_requests_share_one_graph() {
        let b = block(TEXTS);
        let f = NearDuplicateSimilarity;
        let first = b.similarity_graph(&f);
        let second = b.similarity_graph(&f);
        assert!(Arc::ptr_eq(&first, &second), "a hit must not copy");
        assert_eq!((b.cache_stats().rebuilds(), b.cache_stats().hits()), (1, 1));
    }

    #[test]
    fn the_benchmark_forward_is_the_cached_graph() {
        let b = block(TEXTS);
        for f in standard_suite() {
            let graph = b.similarity_graph(f.as_ref());
            let hits = b.cache_stats().hits();
            let forwarded = b.similarity_graph_with(f.as_ref(), None);
            assert!(Arc::ptr_eq(&graph, &forwarded), "{}", f.name());
            assert_eq!(b.cache_stats().hits(), hits + 1, "{}", f.name());
        }
    }

    #[test]
    #[should_panic(expected = "was removed")]
    fn the_benchmark_forward_rejects_a_threshold() {
        block(TEXTS).similarity_graph_with(&TfIdfCosine, Some(0.5));
    }

    #[test]
    fn a_held_handle_survives_growth_unchanged() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for t in &TEXTS[..3] {
            b.push(e.extract(t, None));
        }
        let f = NearDuplicateSimilarity;
        let held = b.similarity_graph(&f);
        b.push(e.extract(TEXTS[3], None));
        let row = b.similarity_row(&f, 3);
        // Copy-on-write: the cache grew its own graph, the caller's handle
        // still is the three-document graph it was given.
        assert_eq!(held.len(), 3);
        let grown = b.similarity_graph(&f);
        assert_eq!(grown.len(), 4);
        assert!(!Arc::ptr_eq(&held, &grown));
        assert_eq!(grown.column(3), &row[..]);
        for (i, j, w) in held.edges() {
            assert_eq!(grown.get(i, j), w);
        }
    }

    #[test]
    fn an_unshared_graph_grows_in_place() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for t in &TEXTS[..3] {
            b.push(e.extract(t, None));
        }
        let f = NearDuplicateSimilarity;
        let before = Arc::as_ptr(&b.similarity_graph(&f));
        for t in &TEXTS[3..] {
            let doc = b.push(e.extract(t, None));
            let grows = b.cache_stats().grows();
            let row = b.similarity_row(&f, doc);
            assert_eq!(b.cache_stats().grows(), grows + 1);
            assert_eq!(row.len(), doc);
            for (i, &v) in row.iter().enumerate() {
                assert_eq!(v, b.pair_similarity(&f, i, doc), "member {i}");
            }
        }
        // Nobody held a handle across the pushes, so the cache extended
        // the one allocation it had.
        let after = b.similarity_graph(&f);
        assert_eq!(after.len(), TEXTS.len());
        assert_eq!(Arc::as_ptr(&after), before);
    }

    #[test]
    fn only_the_kept_word_vector_graph_survives_a_prune() {
        let b = block(TEXTS);
        for f in standard_suite() {
            b.similarity_graph(f.as_ref());
        }
        let stats = b.cache_stats();
        // Seven feature graphs and one F8–F10 family build; F9 and F10 hit.
        assert_eq!((stats.rebuilds(), stats.hits()), (8, 2));
        let kept = b.similarity_graph(&TfIdfCosine);
        b.retain_word_vector_graph("F8");
        for f in standard_suite() {
            let (rebuilds, hits) = (stats.rebuilds(), stats.hits());
            let graph = b.similarity_graph(f.as_ref());
            if f.uses_word_vectors() && f.name() != "F8" {
                // F8 is still current, so each dropped member is rebuilt
                // alone when asked for.
                assert_eq!(stats.rebuilds(), rebuilds + 1, "{} was dropped", f.name());
            } else {
                assert_eq!(stats.hits(), hits + 1, "{} was kept", f.name());
            }
            if f.name() == "F8" {
                assert!(Arc::ptr_eq(&graph, &kept));
            }
        }
        // A dropped entry is a cold build, not a discarded stale one.
        assert_eq!(stats.invalidations(), 0);
    }

    fn assert_bitwise(got: &WeightedGraph, want: &WeightedGraph, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (g, w)) in got
            .weight_values()
            .iter()
            .zip(want.weight_values())
            .enumerate()
        {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: edge {k}: {g} vs {w}");
        }
    }

    /// Every sweep-built F8–F10 graph of `b` equals the pair-by-pair graph,
    /// bit for bit, for every thread split and through the cache.
    fn assert_sweep_matches_pairs(b: &PreparedBlock, what: &str) {
        let pairwise: Vec<WeightedGraph> = WordVectorMeasure::ALL
            .iter()
            .map(|&m| {
                WeightedGraph::from_fn(b.len(), |i, j| {
                    b.pair_similarity(word_vector_function(m), i, j)
                })
            })
            .collect();
        for threads in [1, 3] {
            let swept = b.word_vector_graphs(&WordVectorMeasure::ALL, threads);
            for ((m, got), want) in WordVectorMeasure::ALL.iter().zip(&swept).zip(&pairwise) {
                assert_bitwise(got, want, &format!("{what} {m:?} threads={threads}"));
            }
        }
        for (&m, want) in WordVectorMeasure::ALL.iter().zip(&pairwise) {
            let cached = b.similarity_graph(word_vector_function(m));
            assert_bitwise(&cached, want, &format!("{what} {m:?} cached"));
        }
    }

    /// TEXTS plus pages with no words, which give empty vectors.
    const SWEEP_TEXTS: &[&str] = &[
        "databases are fun",
        "the the the",
        "databases are hard and databases are fun",
        "gardening tips",
        "",
        "fun databases for gardening, fun gardening for databases",
        "hard tips about databases",
        "tips tips tips gardening",
    ];

    #[test]
    fn word_vector_sweep_is_bit_identical_for_every_scheme() {
        let mut schemes = vec![WordVectorScheme::bm25()];
        for tf in [
            TfScheme::Raw,
            TfScheme::Log,
            TfScheme::MaxNormalized,
            TfScheme::Binary,
        ] {
            for idf in [
                IdfScheme::None,
                IdfScheme::Plain,
                IdfScheme::Smooth,
                IdfScheme::Probabilistic,
            ] {
                schemes.push(WordVectorScheme::TfIdf(TfIdf::new(tf, idf)));
            }
        }
        let e = extractor();
        for scheme in schemes {
            let features = SWEEP_TEXTS.iter().map(|t| e.extract(t, None)).collect();
            let b = PreparedBlock::with_scheme("cohen", features, scheme);
            assert!((0..b.len()).any(|i| b.tfidf(i).is_empty()));
            assert_sweep_matches_pairs(&b, &format!("{scheme:?}"));
        }
    }

    /// A block of `n` pages drawn from a small vocabulary with a fixed
    /// linear congruential generator, every 17th page empty.
    fn synthetic_block(n: usize) -> PreparedBlock {
        const WORDS: &[&str] = &[
            "databases",
            "gardening",
            "roses",
            "query",
            "index",
            "pruning",
            "soil",
            "join",
            "transaction",
            "compost",
            "schema",
            "seeds",
            "tuning",
            "bloom",
            "cache",
            "water",
            "lock",
            "spring",
            "replica",
            "weeds",
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize % bound
        };
        let e = extractor();
        let features = (0..n)
            .map(|doc| {
                let len = if doc % 17 == 0 { 0 } else { 3 + next(12) };
                let text: Vec<&str> = (0..len).map(|_| WORDS[next(WORDS.len())]).collect();
                e.extract(&text.join(" "), None)
            })
            .collect();
        PreparedBlock::new("cohen", features, TfIdf::default())
    }

    #[test]
    fn word_vector_sweep_is_bit_identical_on_a_parallel_sized_block() {
        let b = synthetic_block(PARALLEL_BUILD_LEN + 44);
        assert_sweep_matches_pairs(&b, "parallel-sized block");
    }

    #[test]
    fn streamed_word_vector_rows_equal_the_graph_columns_bitwise() {
        let e = extractor();
        let mut b = PreparedBlock::empty("cohen", WordVectorScheme::default());
        for t in SWEEP_TEXTS.iter().chain(TEXTS) {
            let doc = b.push(e.extract(t, None));
            for m in WordVectorMeasure::ALL {
                let f = word_vector_function(m);
                let row = b.similarity_row(f, doc);
                let graph = b.similarity_graph(f);
                assert_eq!(row.len(), doc);
                for (i, (&r, &g)) in row.iter().zip(graph.column(doc)).enumerate() {
                    let pair = b.pair_similarity(f, i, doc);
                    assert_eq!(r.to_bits(), g.to_bits(), "{m:?} ({i}, {doc})");
                    assert_eq!(r.to_bits(), pair.to_bits(), "{m:?} ({i}, {doc})");
                }
            }
        }
    }
}
