//! Active selection of documents to label.
//!
//! The paper labels a *random* 10% of each block ("on each run we randomly
//! choose the training subset") and notes that "the performance of the ER
//! algorithm depends on how well the training set represents the features
//! of the complete dataset". This module implements the natural next step:
//! spend the labelling budget on the documents whose pairs the current
//! model is *least certain* about (uncertainty sampling), instead of
//! uniformly at random. Compared in the `ablation_active` study.

use weber_simfun::block::PreparedBlock;
use weber_simfun::functions::SimilarityFunction;

use crate::layers::similarity_graph;
use crate::supervision::Supervision;

/// Score each document by how uncertain the per-function similarity
/// evidence about its pairs is: the mean over functions and partner
/// documents of `1 − 2·|sim − ½|` (1 at a maximally ambiguous value of
/// 0.5, 0 at a confident 0 or 1).
pub fn uncertainty_scores(
    block: &PreparedBlock,
    functions: &[std::sync::Arc<dyn SimilarityFunction>],
) -> Vec<f64> {
    let n = block.len();
    let mut scores = vec![0.0f64; n];
    if n < 2 || functions.is_empty() {
        return scores;
    }
    for f in functions {
        let sims = similarity_graph(block, f.as_ref());
        for (i, j, w) in sims.edges() {
            let u = 1.0 - 2.0 * (w - 0.5).abs();
            scores[i] += u;
            scores[j] += u;
        }
    }
    let per_doc = (functions.len() * (n - 1)) as f64;
    for s in &mut scores {
        *s /= per_doc;
    }
    scores
}

/// Select `budget` documents to label by uncertainty sampling: the
/// documents with the highest uncertainty scores, excluding any already
/// labelled in `existing`. Ties break toward lower indices (deterministic).
pub fn select_uncertain_docs(
    block: &PreparedBlock,
    functions: &[std::sync::Arc<dyn SimilarityFunction>],
    existing: &Supervision,
    budget: usize,
) -> Vec<usize> {
    let scores = uncertainty_scores(block, functions);
    let mut candidates: Vec<usize> = (0..block.len())
        .filter(|d| !existing.docs().contains(d))
        .collect();
    candidates.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    candidates.truncate(budget);
    candidates.sort_unstable();
    candidates
}

/// Build supervision over `docs` with labels taken from `truth` (the
/// oracle step of an active-learning loop, or a human labeller in
/// practice).
pub fn label_docs(truth: &weber_graph::Partition, docs: &[usize]) -> Supervision {
    Supervision::new(docs.iter().map(|&d| (d, truth.label_of(d))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_corpus::{generate, presets};
    use weber_extract::pipeline::Extractor;
    use weber_graph::Partition;
    use weber_simfun::functions::{function, FunctionId};
    use weber_textindex::tfidf::TfIdf;

    fn prepared() -> (PreparedBlock, Partition) {
        let dataset = generate(&presets::tiny(27));
        let extractor = Extractor::new(&dataset.gazetteer);
        let b = &dataset.blocks[0];
        let features = b
            .documents
            .iter()
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        (
            PreparedBlock::new(b.query_name.clone(), features, TfIdf::default()),
            b.truth(),
        )
    }

    fn suite() -> Vec<std::sync::Arc<dyn SimilarityFunction>> {
        [FunctionId::F4, FunctionId::F8]
            .into_iter()
            .map(function)
            .collect()
    }

    #[test]
    fn uncertainty_scores_are_bounded() {
        let (block, _) = prepared();
        let scores = uncertainty_scores(&block, &suite());
        assert_eq!(scores.len(), block.len());
        for &s in &scores {
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }

    #[test]
    fn selection_respects_budget_and_exclusions() {
        let (block, truth) = prepared();
        let existing = Supervision::sample_from_truth(&truth, 0.2, 1);
        let picked = select_uncertain_docs(&block, &suite(), &existing, 5);
        assert_eq!(picked.len(), 5);
        for d in &picked {
            assert!(!existing.docs().contains(d));
            assert!(*d < block.len());
        }
        // Sorted, distinct.
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn selection_is_deterministic() {
        let (block, truth) = prepared();
        let existing = Supervision::sample_from_truth(&truth, 0.1, 2);
        let a = select_uncertain_docs(&block, &suite(), &existing, 4);
        let b = select_uncertain_docs(&block, &suite(), &existing, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_larger_than_block_takes_everything_unlabelled() {
        let (block, truth) = prepared();
        let existing = Supervision::sample_from_truth(&truth, 0.5, 3);
        let picked = select_uncertain_docs(&block, &suite(), &existing, 10_000);
        assert_eq!(picked.len(), block.len() - existing.len());
    }

    #[test]
    fn label_docs_takes_truth_labels() {
        let (_, truth) = prepared();
        let sup = label_docs(&truth, &[0, 3, 5]);
        assert_eq!(sup.len(), 3);
        assert_eq!(sup.same_entity(0, 3), Some(truth.same_cluster(0, 3)));
    }

    #[test]
    fn degenerate_inputs() {
        let (block, _) = prepared();
        assert!(uncertainty_scores(&block, &[]).iter().all(|&s| s == 0.0));
        let picked = select_uncertain_docs(&block, &suite(), &Supervision::empty(), 0);
        assert!(picked.is_empty());
    }
}
