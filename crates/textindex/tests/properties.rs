//! Property-based tests for the text-index substrate.

use proptest::prelude::*;

use weber_textindex::sparse::{SparseVector, WordVectorMeasure};
use weber_textindex::stem::porter_stem;
use weber_textindex::tfidf::{IdfScheme, TfIdf, TfScheme};
use weber_textindex::token::{tokenize, tokenize_words};
use weber_textindex::vocab::{TermId, Vocabulary};
use weber_textindex::{Analyzer, CorpusIndex};

/// Strategy: a sparse vector with non-negative weights over small term ids.
fn nonneg_vector() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..64, 0.0f64..10.0), 0..20).prop_map(|pairs| {
        SparseVector::from_pairs(pairs.into_iter().map(|(i, w)| (TermId(i), w)).collect())
    })
}

/// Strategy: a sparse vector with weights of either sign over small term
/// ids (term id `i` doubles as its own scatter slot).
fn mixed_vector() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..64, -10.0f64..10.0), 0..40).prop_map(|pairs| {
        SparseVector::from_pairs(pairs.into_iter().map(|(i, w)| (TermId(i), w)).collect())
    })
}

fn term_slots(v: &SparseVector) -> Vec<u32> {
    v.entries().iter().map(|&(TermId(i), _)| i).collect()
}

/// The sums the measures read, as the pairwise methods computed them before
/// the vectors cached them.
fn old_sum(v: &SparseVector) -> f64 {
    v.entries().iter().map(|&(_, w)| w).sum()
}

fn old_sumsq(v: &SparseVector) -> f64 {
    v.entries().iter().map(|&(_, w)| w * w).sum::<f64>()
}

fn old_cosine(a: &SparseVector, b: &SparseVector) -> f64 {
    let denom = old_sumsq(a).sqrt() * old_sumsq(b).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (a.dot(b) / denom).clamp(0.0, 1.0)
}

fn old_pearson(a: &SparseVector, b: &SparseVector, dim: usize) -> f64 {
    if dim == 0 {
        return 0.0;
    }
    let n = dim as f64;
    let (sa, sb) = (old_sum(a), old_sum(b));
    let cov = a.dot(b) - sa * sb / n;
    let var_a = old_sumsq(a) - sa * sa / n;
    let var_b = old_sumsq(b) - sb * sb / n;
    if var_a <= 0.0 || var_b <= 0.0 {
        return 0.0;
    }
    let r = (cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0);
    (r + 1.0) / 2.0
}

fn old_extended_jaccard(a: &SparseVector, b: &SparseVector) -> f64 {
    let dot = a.dot(b);
    let denom = old_sumsq(a).sqrt().powi(2) + old_sumsq(b).sqrt().powi(2) - dot;
    if denom <= 0.0 {
        return 0.0;
    }
    (dot / denom).clamp(0.0, 1.0)
}

proptest! {
    #[test]
    fn gather_dot_equals_merge_dot_bitwise(a in mixed_vector(), b in mixed_vector()) {
        let mut scratch = vec![0.0; 64];
        let b_slots = term_slots(&b);
        b.scatter(&b_slots, &mut scratch);
        let gathered = a.gather(&term_slots(&a), &scratch);
        prop_assert_eq!(gathered.to_bits(), a.dot(&b).to_bits(), "{} vs {}", gathered, a.dot(&b));
        b.unscatter(&b_slots, &mut scratch);
        prop_assert!(scratch.iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn each_finish_equals_the_old_method_body(
        a in mixed_vector(),
        b in mixed_vector(),
        dim in 0usize..256,
    ) {
        let dot = a.dot(&b);
        for (measure, old) in [
            (WordVectorMeasure::Cosine, old_cosine(&a, &b)),
            (WordVectorMeasure::Pearson, old_pearson(&a, &b, dim)),
            (WordVectorMeasure::ExtendedJaccard, old_extended_jaccard(&a, &b)),
        ] {
            let new = measure.finish(dot, &a, &b, dim);
            prop_assert_eq!(new.to_bits(), old.to_bits(), "{:?}: {} vs {}", measure, new, old);
        }
    }

    #[test]
    fn tokenizer_output_is_lowercase_alphanumeric(s in ".{0,200}") {
        for tok in tokenize(&s) {
            prop_assert!(!tok.text.is_empty());
            prop_assert!(tok.text.chars().all(|c| c.is_alphanumeric()));
            prop_assert!(tok.text.chars().all(|c| c.to_lowercase().eq(std::iter::once(c))));
            prop_assert!(tok.start < tok.end && tok.end <= s.len());
        }
    }

    #[test]
    fn tokenizer_is_deterministic(s in ".{0,100}") {
        prop_assert_eq!(tokenize_words(&s), tokenize_words(&s));
    }

    #[test]
    fn stemmer_never_grows_ascii_words(w in "[a-z]{1,20}") {
        let stemmed = porter_stem(&w);
        prop_assert!(stemmed.len() <= w.len());
        prop_assert!(!stemmed.is_empty());
        prop_assert!(stemmed.bytes().all(|b| b.is_ascii_lowercase()));
    }

    #[test]
    fn stemmer_is_deterministic(w in "[a-z]{1,20}") {
        prop_assert_eq!(porter_stem(&w), porter_stem(&w));
    }

    #[test]
    fn cosine_bounds_and_symmetry(a in nonneg_vector(), b in nonneg_vector()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((0.0..=1.0).contains(&ab), "cosine {ab}");
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn cosine_self_similarity_is_one(a in nonneg_vector()) {
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extended_jaccard_bounds_and_symmetry(a in nonneg_vector(), b in nonneg_vector()) {
        let ab = a.extended_jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&ab), "ext-jaccard {ab}");
        prop_assert!((ab - b.extended_jaccard(&a)).abs() < 1e-12);
        // Tanimoto <= cosine for non-negative vectors.
        prop_assert!(ab <= a.cosine(&b) + 1e-9);
    }

    #[test]
    fn pearson_bounds_and_symmetry(a in nonneg_vector(), b in nonneg_vector(), dim in 64usize..256) {
        let ab = a.pearson(&b, dim);
        prop_assert!((0.0..=1.0).contains(&ab), "pearson {ab}");
        prop_assert!((ab - b.pearson(&a, dim)).abs() < 1e-9);
    }

    #[test]
    fn dot_is_bilinear_under_scaling(a in nonneg_vector(), b in nonneg_vector(), k in 0.0f64..10.0) {
        let lhs = a.scale(k).dot(&b);
        let rhs = k * a.dot(&b);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn from_pairs_entries_are_sorted_unique_nonzero(a in nonneg_vector()) {
        let entries = a.entries();
        for w in entries.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert!(entries.iter().all(|&(_, w)| w != 0.0));
    }

    #[test]
    fn vocabulary_roundtrip(words in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
        let mut v = Vocabulary::new();
        let ids: Vec<TermId> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.get(w), Some(*id));
            prop_assert_eq!(v.term(*id), Some(w.as_str()));
        }
        prop_assert!(v.len() <= words.len());
    }

    #[test]
    fn tfidf_weights_are_finite_and_nonnegative(
        tf in 0u32..1000, max_tf in 1u32..1000, df in 0u32..100, extra in 0u32..100,
    ) {
        let n_docs = df + extra;
        for tf_scheme in [TfScheme::Raw, TfScheme::Log, TfScheme::MaxNormalized, TfScheme::Binary] {
            for idf_scheme in [IdfScheme::None, IdfScheme::Plain, IdfScheme::Smooth, IdfScheme::Probabilistic] {
                let w = TfIdf::new(tf_scheme, idf_scheme).weight(tf, max_tf, df, n_docs);
                prop_assert!(w.is_finite());
                prop_assert!(w >= 0.0, "{tf_scheme:?}/{idf_scheme:?} gave {w}");
            }
        }
    }

    #[test]
    fn index_doc_lengths_match_analyzed_tokens(
        texts in proptest::collection::vec("[a-z ]{0,80}", 1..10),
    ) {
        let analyzer = Analyzer::plain();
        let mut index = CorpusIndex::new();
        let mut expected = Vec::new();
        for t in &texts {
            let tokens = analyzer.analyze(t);
            expected.push(tokens.len() as u32);
            index.add_document(&tokens);
        }
        for (i, &len) in expected.iter().enumerate() {
            prop_assert_eq!(index.doc_len(weber_textindex::DocId(i as u32)), len);
        }
        prop_assert_eq!(index.len(), texts.len());
    }
}
