//! The similarity-function suite of Table I.
//!
//! | Fn  | Feature                              | Measure                     |
//! |-----|--------------------------------------|-----------------------------|
//! | F1  | Weighted concept vector              | Cosine similarity           |
//! | F2  | URL of the page                      | String similarity           |
//! | F3  | Most frequent name on the page       | String similarity           |
//! | F4  | Concepts vector                      | Overlapping concepts        |
//! | F5  | Organization entities on the page    | Overlapping organizations   |
//! | F6  | Other person-names on the page       | Overlapping persons         |
//! | F7  | The name closest to the search key   | String similarity           |
//! | F8  | TF-IDF words vector                  | Cosine similarity           |
//! | F9  | TF-IDF words vector                  | Pearson correlation         |
//! | F10 | TF-IDF words vector                  | Extended Jaccard similarity |
//!
//! All functions are symmetric, return values in `[0, 1]`, and score 0 when
//! either page is missing the required feature (missing information is not
//! evidence of similarity).

use std::sync::Arc;

use crate::block::PreparedBlock;
use crate::set_sim::overlap_coefficient;
use crate::string_sim::{dice_sorted_bigrams, jaro_winkler};

pub use weber_textindex::sparse::WordVectorMeasure;

/// Identifier of a similarity function in the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FunctionId {
    /// Weighted concept vector, cosine.
    F1,
    /// Page URL, string similarity.
    F2,
    /// Most frequent name, string similarity.
    F3,
    /// Concept set overlap.
    F4,
    /// Organization set overlap.
    F5,
    /// Other person-name overlap.
    F6,
    /// Name closest to the search keyword, string similarity.
    F7,
    /// TF-IDF vector, cosine.
    F8,
    /// TF-IDF vector, Pearson correlation.
    F9,
    /// TF-IDF vector, extended Jaccard.
    F10,
}

impl FunctionId {
    /// All ten ids in order.
    pub const ALL: [FunctionId; 10] = [
        FunctionId::F1,
        FunctionId::F2,
        FunctionId::F3,
        FunctionId::F4,
        FunctionId::F5,
        FunctionId::F6,
        FunctionId::F7,
        FunctionId::F8,
        FunctionId::F9,
        FunctionId::F10,
    ];

    /// The paper's label, e.g. `"F3"`.
    pub fn label(&self) -> &'static str {
        match self {
            FunctionId::F1 => "F1",
            FunctionId::F2 => "F2",
            FunctionId::F3 => "F3",
            FunctionId::F4 => "F4",
            FunctionId::F5 => "F5",
            FunctionId::F6 => "F6",
            FunctionId::F7 => "F7",
            FunctionId::F8 => "F8",
            FunctionId::F9 => "F9",
            FunctionId::F10 => "F10",
        }
    }
}

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A pairwise similarity function over documents of a prepared block.
///
/// The ten functions of Table I implement this, and so can any downstream
/// user function — the resolver accepts arbitrary `SimilarityFunction`
/// trait objects (see the `custom_similarity` example).
pub trait SimilarityFunction: Send + Sync {
    /// Short unique name, e.g. `"F3"` or `"my-location-overlap"`.
    fn name(&self) -> &'static str;

    /// Human-readable description (feature + measure, as in Table I).
    fn description(&self) -> &'static str;

    /// Similarity of documents `i` and `j` of `block`, in `[0, 1]`.
    /// Implementations must be symmetric and return 0 when either page
    /// lacks the required feature.
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64;

    /// True if [`compare`](Self::compare) reads the block's word vectors
    /// ([`PreparedBlock::tfidf`] / [`PreparedBlock::vocab_dim`]), whose
    /// values shift as the block grows and idf weights move. Functions over
    /// per-document features (names, URLs, entity sets)
    /// return `false`: their pairwise values are immutable once both
    /// documents exist, which lets cached similarity rows be reused
    /// verbatim as a streaming block grows. Only return `false` if every
    /// input of `compare` is immutable after the documents are pushed.
    /// Defaults to whether the function has a
    /// [`word_vector_measure`](Self::word_vector_measure).
    fn uses_word_vectors(&self) -> bool {
        self.word_vector_measure().is_some()
    }

    /// The word-vector measure [`compare`](Self::compare) computes over the
    /// block's TF-IDF vectors, if it is one of them: F8, F9 and F10 return
    /// theirs, everything else the default `None`.
    ///
    /// `Some(m)` promises that `compare(block, i, j)` equals
    /// `m.finish(a.dot(b), a, b, block.vocab_dim())` for `a` and `b` the two
    /// documents' [`tfidf`](PreparedBlock::tfidf) vectors, bit for bit. The
    /// block then computes the function's graphs and streaming rows with
    /// its scatter/gather sweep instead of calling `compare`, builds the
    /// three measures' graphs in one pass, and caches each under the
    /// paper's function for that measure (F8, F9 or F10).
    fn word_vector_measure(&self) -> Option<WordVectorMeasure> {
        None
    }
}

/// The paper's function for word-vector measure `m`: F8, F9 or F10.
pub(crate) fn word_vector_function(m: WordVectorMeasure) -> &'static dyn SimilarityFunction {
    match m {
        WordVectorMeasure::Cosine => &TfIdfCosine,
        WordVectorMeasure::Pearson => &TfIdfPearson,
        WordVectorMeasure::ExtendedJaccard => &TfIdfExtendedJaccard,
    }
}

/// Jaro–Winkler of two lowercased person names, answered without its three
/// allocations when the names are equal. Equal names score exactly 1.0 on
/// the full path too: `jaro(a, a)` is `(1 + 1 + 1) / 3` and the Winkler
/// bonus is scaled by `1 − 1 = 0`.
fn name_string_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        1.0
    } else {
        jaro_winkler(a, b)
    }
}

/// F1: cosine similarity of weighted concept vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct WeightedConceptCosine;

impl SimilarityFunction for WeightedConceptCosine {
    fn name(&self) -> &'static str {
        "F1"
    }
    fn description(&self) -> &'static str {
        "Weighted concept vector / cosine similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        block
            .features(i)
            .weighted_concepts
            .cosine(&block.features(j).weighted_concepts)
    }
}

/// F2: string similarity of page URLs.
///
/// Implemented as bigram Dice over the normalised URL, floored at 0.75 for
/// pages sharing a registrable domain — encoding the paper's observation
/// that pages "on a same webdomain" tend to be about the same person.
#[derive(Debug, Default, Clone, Copy)]
pub struct UrlStringSimilarity;

impl SimilarityFunction for UrlStringSimilarity {
    fn name(&self) -> &'static str {
        "F2"
    }
    fn description(&self) -> &'static str {
        "URL of the page / string similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        match (&block.features(i).url, &block.features(j).url) {
            (Some(a), Some(b)) => {
                let (ga, gb) = (&block.derived(i).url_bigrams, &block.derived(j).url_bigrams);
                let s = if ga.is_empty() && gb.is_empty() {
                    // Both URLs shorter than a bigram: exact equality, as
                    // `ngram_dice` defines it.
                    f64::from(u8::from(a.normalized == b.normalized))
                } else {
                    dice_sorted_bigrams(ga, gb)
                };
                if a.same_domain(b) {
                    s.max(0.75)
                } else {
                    s
                }
            }
            _ => 0.0,
        }
    }
}

/// F3: string similarity (Jaro–Winkler) of the most frequent person name on
/// each page.
#[derive(Debug, Default, Clone, Copy)]
pub struct MostFrequentNameSimilarity;

impl SimilarityFunction for MostFrequentNameSimilarity {
    fn name(&self) -> &'static str {
        "F3"
    }
    fn description(&self) -> &'static str {
        "Most frequent name on the page / string similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        match (
            &block.derived(i).most_frequent_person_lower,
            &block.derived(j).most_frequent_person_lower,
        ) {
            (Some(a), Some(b)) => name_string_similarity(a, b),
            _ => 0.0,
        }
    }
}

/// F4: overlap of the concept sets.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConceptOverlap;

impl SimilarityFunction for ConceptOverlap {
    fn name(&self) -> &'static str {
        "F4"
    }
    fn description(&self) -> &'static str {
        "Concepts vector / number of overlapping concepts"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        overlap_coefficient(&block.features(i).concepts, &block.features(j).concepts)
    }
}

/// F5: overlap of organization entities.
#[derive(Debug, Default, Clone, Copy)]
pub struct OrganizationOverlap;

impl SimilarityFunction for OrganizationOverlap {
    fn name(&self) -> &'static str {
        "F5"
    }
    fn description(&self) -> &'static str {
        "Organization entities on the page / number of overlapping organizations"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        overlap_coefficient(
            &block.features(i).organizations,
            &block.features(j).organizations,
        )
    }
}

/// F6: overlap of the *other* person names (excluding the query name).
#[derive(Debug, Default, Clone, Copy)]
pub struct OtherPersonOverlap;

impl SimilarityFunction for OtherPersonOverlap {
    fn name(&self) -> &'static str {
        "F6"
    }
    fn description(&self) -> &'static str {
        "Other person-names on the page / number of overlapping persons"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        overlap_coefficient(
            &block.derived(i).other_persons_lower,
            &block.derived(j).other_persons_lower,
        )
    }
}

/// F7: pick, on each page, the person name closest to the search keyword,
/// then string-compare the two chosen names.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosestNameSimilarity;

impl SimilarityFunction for ClosestNameSimilarity {
    fn name(&self) -> &'static str {
        "F7"
    }
    fn description(&self) -> &'static str {
        "The name closest to the search keyword / string similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        match (
            &block.derived(i).closest_person_lower,
            &block.derived(j).closest_person_lower,
        ) {
            (Some(a), Some(b)) => name_string_similarity(a, b),
            _ => 0.0,
        }
    }
}

/// F8: cosine similarity of TF-IDF word vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct TfIdfCosine;

impl SimilarityFunction for TfIdfCosine {
    fn name(&self) -> &'static str {
        "F8"
    }
    fn description(&self) -> &'static str {
        "TF-IDF words vector / cosine similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        block.tfidf(i).cosine(block.tfidf(j))
    }

    fn word_vector_measure(&self) -> Option<WordVectorMeasure> {
        Some(WordVectorMeasure::Cosine)
    }
}

/// F9: Pearson correlation of TF-IDF word vectors (rescaled to `[0, 1]`).
#[derive(Debug, Default, Clone, Copy)]
pub struct TfIdfPearson;

impl SimilarityFunction for TfIdfPearson {
    fn name(&self) -> &'static str {
        "F9"
    }
    fn description(&self) -> &'static str {
        "TF-IDF words vector / Pearson correlation similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        // An empty vector has zero variance, so this is 0 when either page
        // has no words.
        block.tfidf(i).pearson(block.tfidf(j), block.vocab_dim())
    }

    fn word_vector_measure(&self) -> Option<WordVectorMeasure> {
        Some(WordVectorMeasure::Pearson)
    }
}

/// F10: extended Jaccard (Tanimoto) similarity of TF-IDF word vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct TfIdfExtendedJaccard;

impl SimilarityFunction for TfIdfExtendedJaccard {
    fn name(&self) -> &'static str {
        "F10"
    }
    fn description(&self) -> &'static str {
        "TF-IDF words vector / extended Jaccard similarity"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        block.tfidf(i).extended_jaccard(block.tfidf(j))
    }

    fn word_vector_measure(&self) -> Option<WordVectorMeasure> {
        Some(WordVectorMeasure::ExtendedJaccard)
    }
}

/// Instantiate one function by id.
pub fn function(id: FunctionId) -> Arc<dyn SimilarityFunction> {
    match id {
        FunctionId::F1 => Arc::new(WeightedConceptCosine),
        FunctionId::F2 => Arc::new(UrlStringSimilarity),
        FunctionId::F3 => Arc::new(MostFrequentNameSimilarity),
        FunctionId::F4 => Arc::new(ConceptOverlap),
        FunctionId::F5 => Arc::new(OrganizationOverlap),
        FunctionId::F6 => Arc::new(OtherPersonOverlap),
        FunctionId::F7 => Arc::new(ClosestNameSimilarity),
        FunctionId::F8 => Arc::new(TfIdfCosine),
        FunctionId::F9 => Arc::new(TfIdfPearson),
        FunctionId::F10 => Arc::new(TfIdfExtendedJaccard),
    }
}

/// All ten functions, F1–F10.
pub fn standard_suite() -> Vec<Arc<dyn SimilarityFunction>> {
    FunctionId::ALL.iter().map(|&id| function(id)).collect()
}

/// The paper's subset `I4 = {F4, F5, F7, F9}` (Table II).
pub fn subset_i4() -> Vec<FunctionId> {
    vec![
        FunctionId::F4,
        FunctionId::F5,
        FunctionId::F7,
        FunctionId::F9,
    ]
}

/// The paper's subset `I7 = {F3, F4, F5, F7, F8, F9, F10}` (Table II).
pub fn subset_i7() -> Vec<FunctionId> {
    vec![
        FunctionId::F3,
        FunctionId::F4,
        FunctionId::F5,
        FunctionId::F7,
        FunctionId::F8,
        FunctionId::F9,
        FunctionId::F10,
    ]
}

/// The paper's subset `I10 = {F1, …, F10}` (Table II).
pub fn subset_i10() -> Vec<FunctionId> {
    FunctionId::ALL.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_extract::gazetteer::{EntityKind, Gazetteer, GazetteerEntry};
    use weber_extract::pipeline::Extractor;
    use weber_textindex::tfidf::TfIdf;

    fn gazetteer() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_phrases(
            EntityKind::Person,
            ["William Cohen", "Don Cohen", "Tom Mitchell", "Jamie Callan"],
        );
        g.add_phrases(
            EntityKind::Organization,
            ["Carnegie Mellon University", "ISI", "Google"],
        );
        g.add(GazetteerEntry::simple("machine learning", EntityKind::Concept).with_weight(0.9));
        g.add(
            GazetteerEntry::simple("information extraction", EntityKind::Concept).with_weight(0.8),
        );
        g.add(GazetteerEntry::simple("genealogy", EntityKind::Concept).with_weight(0.7));
        g
    }

    fn block() -> PreparedBlock {
        let e = Extractor::new(&gazetteer());
        let docs = [
            (
                "William Cohen studies machine learning and information extraction \
                 at Carnegie Mellon University with Tom Mitchell. William Cohen's homepage.",
                Some("http://www.cs.cmu.edu/~wcohen/"),
            ),
            (
                "William Cohen teaches machine learning at Carnegie Mellon University. \
                 Tom Mitchell also teaches there. William Cohen's page.",
                Some("http://www.cs.cmu.edu/afs/cohen/teaching"),
            ),
            (
                "Don Cohen writes about genealogy at ISI. Don Cohen, Don Cohen.",
                Some("http://www.isi.edu/~dcohen"),
            ),
        ];
        let features = docs
            .iter()
            .map(|(text, url)| e.extract(text, *url))
            .collect();
        PreparedBlock::new("Cohen", features, TfIdf::default())
    }

    #[test]
    fn all_functions_are_in_unit_interval_and_symmetric() {
        let b = block();
        for f in standard_suite() {
            for i in 0..b.len() {
                for j in 0..b.len() {
                    if i == j {
                        continue;
                    }
                    let v = f.compare(&b, i, j);
                    assert!((0.0..=1.0).contains(&v), "{}({i},{j}) = {v}", f.name());
                    let w = f.compare(&b, j, i);
                    assert!((v - w).abs() < 1e-12, "{} asymmetric", f.name());
                }
            }
        }
    }

    #[test]
    fn same_person_pages_score_higher_on_every_informative_function() {
        let b = block();
        // Docs 0 and 1 are the CMU William Cohen; doc 2 is Don Cohen at ISI.
        for id in [
            FunctionId::F1,
            FunctionId::F2,
            FunctionId::F4,
            FunctionId::F5,
            FunctionId::F6,
            FunctionId::F8,
            FunctionId::F10,
        ] {
            let f = function(id);
            let same = f.compare(&b, 0, 1);
            let diff = f.compare(&b, 0, 2);
            assert!(
                same > diff,
                "{id}: same-person {same} should exceed different-person {diff}"
            );
        }
    }

    #[test]
    fn f3_compares_most_frequent_names() {
        let b = block();
        let f = MostFrequentNameSimilarity;
        // Doc 1's most frequent person is William Cohen; doc 2's is Don Cohen.
        assert_eq!(f.compare(&b, 0, 1), 1.0);
        assert!(f.compare(&b, 1, 2) < 1.0);
    }

    #[test]
    fn f7_selects_name_closest_to_query() {
        let b = block();
        let f = ClosestNameSimilarity;
        // Closest to "Cohen" on docs 0/1 is "william cohen", on doc 2 "don
        // cohen": high but not 1 across persons.
        let same = f.compare(&b, 0, 1);
        assert_eq!(same, 1.0);
        let cross = f.compare(&b, 0, 2);
        assert!(cross < 1.0 && cross > 0.0);
    }

    #[test]
    fn f2_same_domain_floor() {
        let b = block();
        let f = UrlStringSimilarity;
        assert!(f.compare(&b, 0, 1) >= 0.75);
        assert!(f.compare(&b, 0, 2) < 0.75);
    }

    #[test]
    fn missing_features_score_zero() {
        let e = Extractor::new(&gazetteer());
        let features = vec![
            e.extract("no entities here at all", None),
            e.extract("also nothing relevant", None),
        ];
        let b = PreparedBlock::new("Cohen", features, TfIdf::default());
        for id in [
            FunctionId::F1,
            FunctionId::F2,
            FunctionId::F3,
            FunctionId::F4,
            FunctionId::F5,
            FunctionId::F6,
            FunctionId::F7,
        ] {
            assert_eq!(function(id).compare(&b, 0, 1), 0.0, "{id}");
        }
    }

    #[test]
    fn subsets_match_the_paper() {
        assert_eq!(subset_i4().len(), 4);
        assert_eq!(subset_i7().len(), 7);
        assert_eq!(subset_i10().len(), 10);
        assert!(subset_i7().contains(&FunctionId::F3));
        assert!(!subset_i4().contains(&FunctionId::F1));
        for id in subset_i4() {
            assert!(subset_i7().contains(&id) || id == FunctionId::F9 || id == FunctionId::F4);
        }
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(FunctionId::F10.label(), "F10");
        assert_eq!(format!("{}", FunctionId::F3), "F3");
        assert_eq!(FunctionId::ALL.len(), 10);
    }

    #[test]
    fn only_tfidf_functions_use_word_vectors() {
        for f in standard_suite() {
            let expected = matches!(f.name(), "F8" | "F9" | "F10");
            assert_eq!(f.uses_word_vectors(), expected, "{}", f.name());
        }
    }

    #[test]
    fn word_vector_functions_name_their_measures() {
        for m in WordVectorMeasure::ALL {
            assert_eq!(word_vector_function(m).word_vector_measure(), Some(m));
        }
    }

    #[test]
    fn suite_names_are_distinct_and_ordered() {
        let suite = standard_suite();
        let names: Vec<_> = suite.iter().map(|f| f.name()).collect();
        let labels: Vec<_> = FunctionId::ALL.iter().map(|id| id.label()).collect();
        assert_eq!(names, labels);
        for f in &suite {
            assert!(!f.description().is_empty());
        }
    }
}
