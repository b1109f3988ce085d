//! Incremental word-vector materialisation with dirty-term tracking.
//!
//! A growing block invalidates TF-IDF weights in a very structured way: the
//! weight of term `t` in document `d` is `tf_part(t, d) · idf_factor(t)`,
//! where the tf part depends only on `d` itself (fixed once the document is
//! indexed) and the idf factor depends only on the corpus-wide `(df, N)`
//! statistics. [`VectorStore`] exploits that split: it caches each
//! document's tf parts forever, keeps the idf factor table from the last
//! sync, and on [`sync`](VectorStore::sync) refreshes only the vectors
//! whose terms' idf factors actually changed — in place, via
//! [`SparseVector::refill`]. The refreshed weights are the *same f64
//! products* a from-scratch [`CorpusIndex::tfidf_vectors`] build computes,
//! so incremental and batch materialisation are bit-identical, not merely
//! close.
//!
//! Every term gets a dense block-local *slot* the first time a document
//! carrying it is synced. The idf table is indexed by slot, so a refresh
//! does no hashing, and [`vector_slots`](VectorStore::vector_slots) hands
//! the scatter/gather kernel ([`SparseVector::scatter`] /
//! [`SparseVector::gather`]) a scratch address for every vector entry.
//!
//! The store also exposes a monotone [`generation`](VectorStore::generation)
//! counter that advances exactly when some *existing* vector changed value.
//! Downstream caches (per-function similarity graphs) key on it to decide
//! whether previously computed pairwise values are still valid.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::index::CorpusIndex;
use crate::sparse::SparseVector;
use crate::tfidf::TfIdf;
use crate::vocab::TermId;

/// How word vectors for the TF-IDF based similarity functions are weighted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WordVectorScheme {
    /// A TF-IDF scheme (the paper's choice).
    TfIdf(TfIdf),
    /// BM25 weighting (length-normalised, saturating; extension).
    Bm25 {
        /// Term-frequency saturation parameter (standard: 1.2).
        k1: f64,
        /// Length-normalisation strength (standard: 0.75).
        b: f64,
    },
}

impl Default for WordVectorScheme {
    fn default() -> Self {
        WordVectorScheme::TfIdf(TfIdf::default())
    }
}

impl WordVectorScheme {
    /// Standard BM25 parameters.
    pub fn bm25() -> Self {
        WordVectorScheme::Bm25 { k1: 1.2, b: 0.75 }
    }
}

/// Incrementally maintained word vectors over a [`CorpusIndex`].
///
/// Call [`sync`](VectorStore::sync) after adding documents to the index;
/// vectors then match a batch materialisation of the same index exactly.
#[derive(Debug, Default)]
pub struct VectorStore {
    scheme: WordVectorScheme,
    /// Per document: the slot of each of its terms, in term order.
    slots: Vec<Vec<u32>>,
    /// Per document: the tf part of each term, aligned with `slots`,
    /// computed once when the document first appears (TF-IDF schemes;
    /// empty under BM25).
    tf_parts: Vec<Vec<f64>>,
    /// Per slot: its term and its idf factor as of the last sync (the
    /// factor is unused under BM25).
    slot_terms: Vec<(TermId, f64)>,
    /// The slot of every term seen, assigned on first sight.
    slot_of: HashMap<TermId, u32>,
    /// Materialised vectors, aligned with the index's documents.
    vectors: Vec<SparseVector>,
    /// Advances exactly when a sync changes an already-materialised vector.
    generation: u64,
}

/// A document's weights, `tf part · idf factor` per term, in term order.
fn weights<'a>(
    slots: &'a [u32],
    tf_parts: &'a [f64],
    slot_terms: &'a [(TermId, f64)],
) -> impl Iterator<Item = (TermId, f64)> + 'a {
    slots.iter().zip(tf_parts).map(|(&slot, &tf)| {
        let (term, idf) = slot_terms[slot as usize];
        (term, tf * idf)
    })
}

impl VectorStore {
    /// An empty store under `scheme`.
    pub fn new(scheme: WordVectorScheme) -> Self {
        Self {
            scheme,
            ..Self::default()
        }
    }

    /// The weighting scheme vectors are materialised under.
    pub fn scheme(&self) -> WordVectorScheme {
        self.scheme
    }

    /// Number of materialised vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if no vectors are materialised.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vector of document `i` (as of the last sync).
    pub fn vector(&self, i: usize) -> &SparseVector {
        &self.vectors[i]
    }

    /// All vectors, in document order (as of the last sync).
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// Number of term slots: one per distinct term synced, so a dense
    /// scratch this long addresses every term of every vector.
    pub fn slot_count(&self) -> usize {
        self.slot_terms.len()
    }

    /// The slot of each entry of document `i`'s vector, aligned with
    /// [`SparseVector::entries`]: what [`SparseVector::scatter`] and
    /// [`SparseVector::gather`] take. Borrowed, unless the vector dropped a
    /// term whose weight is 0 (an idf factor of 0, which `Plain` and
    /// `Probabilistic` idf give a term in most documents).
    pub fn vector_slots(&self, i: usize) -> Cow<'_, [u32]> {
        let (entries, slots) = (self.vectors[i].entries(), &self.slots[i]);
        if entries.len() == slots.len() {
            return Cow::Borrowed(slots);
        }
        let mut kept = entries.iter().map(|&(term, _)| term).peekable();
        Cow::Owned(
            slots
                .iter()
                .copied()
                .filter(|&slot| kept.next_if_eq(&self.slot_terms[slot as usize].0).is_some())
                .collect(),
        )
    }

    /// A counter that advances exactly when a sync changed the value of an
    /// already-materialised vector. Appending documents whose terms leave
    /// every existing idf factor untouched (e.g. under
    /// [`IdfScheme::None`](crate::tfidf::IdfScheme::None)) does not advance
    /// it, so similarity values cached against earlier documents stay valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bring the store up to date with `index`: materialise vectors for
    /// newly added documents and refresh existing vectors whose terms' idf
    /// factors changed. Equivalent — bit for bit — to rebuilding every
    /// vector from scratch under the store's scheme.
    pub fn sync(&mut self, index: &CorpusIndex) {
        debug_assert!(
            index.len() >= self.vectors.len(),
            "index shrank under the store"
        );
        let old_len = self.vectors.len();
        let old_slots = self.slot_terms.len();
        for doc in old_len..index.len() {
            let (counts, max_tf) = index.doc_counts(doc);
            let slots = counts.iter().map(|&(term, _)| self.slot(term)).collect();
            self.slots.push(slots);
            self.tf_parts.push(match self.scheme {
                WordVectorScheme::TfIdf(t) => counts
                    .iter()
                    .map(|&(_, tf)| t.tf_weight(tf, max_tf))
                    .collect(),
                WordVectorScheme::Bm25 { .. } => Vec::new(),
            });
        }
        match self.scheme {
            WordVectorScheme::TfIdf(t) => self.sync_tfidf(index, t, old_len, old_slots),
            WordVectorScheme::Bm25 { k1, b } => {
                // BM25 weights depend on avgdl and N in a non-separable way;
                // fall back to a full rebuild.
                self.vectors = index.bm25_vectors(k1, b);
                if old_len > 0 && index.len() > old_len {
                    self.generation += 1;
                }
            }
        }
    }

    /// The slot of `term`, assigning the next one on first sight.
    fn slot(&mut self, term: TermId) -> u32 {
        let next = u32::try_from(self.slot_terms.len()).expect("fewer than 2^32 terms in a block");
        *self.slot_of.entry(term).or_insert_with(|| {
            self.slot_terms.push((term, 0.0));
            next
        })
    }

    fn sync_tfidf(&mut self, index: &CorpusIndex, t: TfIdf, old_len: usize, old_slots: usize) {
        // Refresh the idf factor table, recording which factors changed.
        // Terms seen for the first time cannot occur in older documents, so
        // their slots are never marked dirty.
        let n_docs = index.len() as u32;
        let mut dirty = vec![false; old_slots];
        let mut dirty_count = 0usize;
        for (term, &df) in index.df_table() {
            let slot = self.slot_of[term] as usize;
            let factor = t.idf_weight(df, n_docs);
            let cached = &mut self.slot_terms[slot].1;
            if *cached != factor {
                *cached = factor;
                if slot < old_slots {
                    dirty[slot] = true;
                    dirty_count += 1;
                }
            }
        }
        let all_dirty = old_slots > 0 && dirty_count == old_slots;
        // Refill existing vectors that carry a dirty term; the tf parts are
        // strictly positive, so a changed factor always changes the weight.
        let mut changed_existing = false;
        for doc in 0..old_len {
            let slots = &self.slots[doc];
            if slots.is_empty() {
                continue;
            }
            if all_dirty || slots.iter().any(|&slot| dirty[slot as usize]) {
                self.vectors[doc].refill(weights(slots, &self.tf_parts[doc], &self.slot_terms));
                changed_existing = true;
            }
        }
        if changed_existing {
            self.generation += 1;
        }
        // Materialise vectors for the new documents.
        for doc in old_len..index.len() {
            self.vectors
                .push(weights(&self.slots[doc], &self.tf_parts[doc], &self.slot_terms).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::{IdfScheme, TfScheme};
    use crate::Analyzer;

    const TEXTS: &[&str] = &[
        "entity resolution on the web",
        "web document collections and resolution",
        "gardening tips for spring",
        "entity linking for web entities",
        "the the the", // all stopwords -> empty document
        "spring gardening with databases",
    ];

    fn all_tfidf_schemes() -> Vec<TfIdf> {
        let mut out = Vec::new();
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
                out.push(TfIdf::new(tf, idf));
            }
        }
        out
    }

    #[test]
    fn incremental_sync_is_bit_identical_to_batch_for_every_scheme() {
        for scheme in all_tfidf_schemes() {
            let analyzer = Analyzer::english();
            let mut index = CorpusIndex::new();
            let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
            for text in TEXTS {
                index.add_document(&analyzer.analyze(text));
                store.sync(&index);
                let batch = index.tfidf_vectors(scheme);
                assert_eq!(store.len(), batch.len());
                for (got, want) in store.vectors().iter().zip(&batch) {
                    assert_eq!(got, want, "scheme {scheme:?} diverged from batch");
                }
            }
        }
    }

    #[test]
    fn sync_handles_multiple_documents_per_call() {
        let scheme = TfIdf::default();
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        for text in &TEXTS[1..] {
            index.add_document(&analyzer.analyze(text));
        }
        store.sync(&index);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
    }

    #[test]
    fn generation_advances_only_when_existing_vectors_change() {
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::default());
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        // First sync materialises vectors but changes no existing one.
        assert_eq!(store.generation(), 0);
        index.add_document(&analyzer.analyze(TEXTS[1]));
        store.sync(&index);
        // Smooth idf depends on N, so every factor (and doc 0) changed.
        assert_eq!(store.generation(), 1);
        // A sync with nothing new is a no-op.
        store.sync(&index);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn constant_idf_never_advances_the_generation() {
        let scheme = TfIdf::new(TfScheme::Log, IdfScheme::None);
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        for text in TEXTS {
            index.add_document(&analyzer.analyze(text));
            store.sync(&index);
        }
        // idf factors are constant 1.0: old vectors never change value.
        assert_eq!(store.generation(), 0);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
    }

    #[test]
    fn plain_idf_drops_ubiquitous_terms_like_a_batch_build() {
        // With Plain idf and df == N the factor is 0; the refreshed vector
        // must drop the entry exactly as `from_pairs` would.
        let scheme = TfIdf::new(TfScheme::Raw, IdfScheme::Plain);
        let analyzer = Analyzer::plain();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::TfIdf(scheme));
        index.add_document(&analyzer.analyze("shared rare"));
        store.sync(&index);
        index.add_document(&analyzer.analyze("shared other"));
        store.sync(&index);
        assert_eq!(store.vectors(), index.tfidf_vectors(scheme).as_slice());
        let shared = analyzer.vocabulary().get("shared").unwrap();
        assert_eq!(store.vector(0).get(shared), 0.0);
    }

    #[test]
    fn vector_slots_address_every_entry_for_every_scheme() {
        let mut schemes: Vec<WordVectorScheme> = all_tfidf_schemes()
            .into_iter()
            .map(WordVectorScheme::TfIdf)
            .collect();
        schemes.push(WordVectorScheme::bm25());
        for scheme in schemes {
            let analyzer = Analyzer::english();
            let mut index = CorpusIndex::new();
            let mut store = VectorStore::new(scheme);
            for text in TEXTS {
                index.add_document(&analyzer.analyze(text));
                store.sync(&index);
            }
            assert_eq!(store.slot_count(), index.vocabulary_size());
            for i in 0..store.len() {
                let slots = store.vector_slots(i);
                let entries = store.vector(i).entries();
                assert_eq!(slots.len(), entries.len(), "{scheme:?} doc {i}");
                for (&slot, &(term, _)) in slots.iter().zip(entries) {
                    assert_eq!(store.slot_terms[slot as usize].0, term, "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn bm25_falls_back_to_full_rebuild() {
        let analyzer = Analyzer::english();
        let mut index = CorpusIndex::new();
        let mut store = VectorStore::new(WordVectorScheme::bm25());
        index.add_document(&analyzer.analyze(TEXTS[0]));
        store.sync(&index);
        assert_eq!(store.generation(), 0);
        index.add_document(&analyzer.analyze(TEXTS[1]));
        store.sync(&index);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.vectors(), index.bm25_vectors(1.2, 0.75).as_slice());
    }
}
