//! Trained decision models: the selected evidence layer, detached from the
//! batch it was fitted on.
//!
//! Batch resolution fits every (function × criterion) layer, picks the best
//! graph and closes it — then throws the fitted decisions away. A streaming
//! resolver needs to keep them: after training on a seed batch, every
//! arriving document must be scored against existing members with the *same*
//! function and fitted criterion the batch run would have selected.
//! [`TrainedModel`] captures exactly that — one similarity function plus its
//! fitted decision — and [`Resolver::train`] extracts it using the same
//! best-graph selection as [`Resolver::resolve`].

use std::sync::Arc;

use weber_graph::WeightedGraph;
use weber_simfun::block::PreparedBlock;
use weber_simfun::functions::SimilarityFunction;

use crate::combine::select_best;
use crate::decision::{DecisionCriterion, FittedDecision};
use crate::error::CoreError;
use crate::resolver::Resolver;
use crate::supervision::Supervision;

/// The decision model of a best-graph-selected evidence layer: one
/// similarity function and its fitted decision criterion, ready to score
/// unseen document pairs.
#[derive(Clone)]
pub struct TrainedModel {
    function: Arc<dyn SimilarityFunction>,
    fitted: FittedDecision,
    criterion: DecisionCriterion,
    /// Training accuracy `acc(G^i_{D_j})` of the selected layer.
    pub accuracy: f64,
    /// Training-Fp selection score of the selected layer.
    pub selection_score: f64,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("function", &self.function.name())
            .field("criterion", &self.criterion)
            .field("accuracy", &self.accuracy)
            .field("selection_score", &self.selection_score)
            .finish()
    }
}

impl TrainedModel {
    /// Name of the selected similarity function (`"F1"`–`"F10"` or custom).
    pub fn function_name(&self) -> &'static str {
        self.function.name()
    }

    /// The selected decision criterion.
    pub fn criterion(&self) -> DecisionCriterion {
        self.criterion
    }

    /// The fitted decision itself.
    pub fn fitted(&self) -> &FittedDecision {
        &self.fitted
    }

    /// Whether the selected function reads the block's word-vector space —
    /// if not, cached similarity rows survive pushes unchanged and vector
    /// refreshes can be deferred entirely.
    pub fn uses_word_vectors(&self) -> bool {
        self.function.uses_word_vectors()
    }

    /// Similarity value of pair `(i, j)` under the selected function,
    /// sanitised into `[0, 1]` exactly as the batch layers sanitise it
    /// (NaN becomes 0, out-of-range values are clamped).
    pub fn similarity(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        block.pair_similarity(self.function.as_ref(), i, j)
    }

    /// The full similarity graph of the selected function over `block`: a
    /// shared handle served from (and feeding) the block's incremental
    /// similarity cache.
    pub fn similarity_graph(&self, block: &PreparedBlock) -> Arc<WeightedGraph> {
        block.similarity_graph(self.function.as_ref())
    }

    /// Similarities of `doc` against every *earlier* block member: entry
    /// `i < doc` is the pair value of `(i, doc)`, reusing cached rows where
    /// the block's cache allows. This is the per-arrival scan shape — an
    /// arriving document is always the newest, so the earlier members are
    /// the whole block.
    pub fn similarity_row(&self, block: &PreparedBlock, doc: usize) -> Vec<f64> {
        block.similarity_row(self.function.as_ref(), doc)
    }

    /// Link / no-link decision for pair `(i, j)`, matching the decision the
    /// batch layer would have made for the same pair.
    pub fn decide(&self, block: &PreparedBlock, i: usize, j: usize) -> bool {
        self.decide_value(block, i, j, self.similarity(block, i, j))
    }

    /// [`decide`](Self::decide) with the similarity value already in hand
    /// (e.g. read from a cached graph or row).
    pub fn decide_value(&self, block: &PreparedBlock, i: usize, j: usize, value: f64) -> bool {
        if matches!(self.fitted, FittedDecision::InputCells { .. }) {
            self.fitted
                .decide_in_cell(value, self.both_present(block, i, j))
        } else {
            self.fitted.decide(value)
        }
    }

    /// Estimated link probability for pair `(i, j)`.
    pub fn link_probability(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        self.link_probability_value(block, i, j, self.similarity(block, i, j))
    }

    /// [`link_probability`](Self::link_probability) with the similarity
    /// value already in hand.
    pub fn link_probability_value(
        &self,
        block: &PreparedBlock,
        i: usize,
        j: usize,
        value: f64,
    ) -> f64 {
        if matches!(self.fitted, FittedDecision::InputCells { .. }) {
            self.fitted
                .link_probability_in_cell(value, self.both_present(block, i, j))
        } else {
            self.fitted.link_probability(value)
        }
    }

    fn both_present(&self, block: &PreparedBlock, i: usize, j: usize) -> bool {
        self.function.feature_presence(block, i) > 0.5
            && self.function.feature_presence(block, j) > 0.5
    }

    /// Refit the selected criterion's parameters on the given supervision,
    /// keeping the selected function and criterion fixed.
    ///
    /// Streaming blocks grow after training: every push shifts the
    /// block-local document frequencies, which shifts the similarity-value
    /// distribution the original fit was calibrated against. Re-fitting on
    /// the retained seed labels — with values recomputed over the *current*
    /// block — keeps thresholds and region boundaries calibrated as the
    /// block drifts away from its seed statistics.
    pub fn refit(&mut self, block: &PreparedBlock, supervision: &Supervision) {
        use weber_ml::threshold::optimal_threshold;
        use weber_ml::LabeledValue;
        if matches!(self.criterion, DecisionCriterion::InputPartitioned) {
            let mut cell_present: Vec<LabeledValue> = Vec::new();
            let mut cell_missing: Vec<LabeledValue> = Vec::new();
            for (i, j, link) in supervision.pairs() {
                let sample = LabeledValue::new(self.similarity(block, i, j), link);
                if self.both_present(block, i, j) {
                    cell_present.push(sample);
                } else {
                    cell_missing.push(sample);
                }
            }
            let present = optimal_threshold(&cell_present);
            let missing = optimal_threshold(&cell_missing);
            let total = cell_present.len() + cell_missing.len();
            let training_accuracy = if total == 0 {
                0.5
            } else {
                (present.training_accuracy * cell_present.len() as f64
                    + missing.training_accuracy * cell_missing.len() as f64)
                    / total as f64
            };
            self.fitted = FittedDecision::InputCells {
                present,
                missing,
                training_accuracy,
            };
            self.accuracy = training_accuracy;
        } else {
            let samples = supervision.labeled_values(|i, j| self.similarity(block, i, j));
            self.fitted = self.criterion.fit(&samples);
            self.accuracy = self.fitted.training_accuracy();
        }
    }
}

impl Resolver {
    /// Fit and score every configured evidence layer on the block's
    /// supervision, then extract the best-graph-selected layer as a
    /// reusable [`TrainedModel`]. No layer's graphs are materialised: a
    /// model is a fitted decision and two quality estimates, all of which
    /// the scoring pass already holds.
    ///
    /// Selection always uses best-graph (maximal training-Fp selection
    /// score, ties broken by accuracy), regardless of the configured
    /// combination strategy — a single trained layer is the only combination
    /// form a streaming scorer can replay pair-by-pair.
    pub fn train(
        &self,
        block: &PreparedBlock,
        supervision: &Supervision,
    ) -> Result<TrainedModel, CoreError> {
        supervision.validate(block.len())?;
        let mut scores = self.score_layers(block, supervision);
        let idx = select_best(&scores);
        let layer = scores.swap_remove(idx);
        let function = Arc::clone(self.layer_function(idx));
        debug_assert_eq!(function.name(), layer.function);
        Ok(TrainedModel {
            function,
            fitted: layer.fitted,
            criterion: layer.criterion,
            accuracy: layer.accuracy,
            selection_score: layer.selection_score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::CombinationStrategy;
    use crate::layers::build_layers;
    use crate::resolver::ResolverConfig;
    use weber_corpus::{generate, presets};
    use weber_extract::pipeline::Extractor;
    use weber_graph::Partition;
    use weber_simfun::functions::subset_i10;
    use weber_textindex::tfidf::TfIdf;

    fn prepared_block() -> (PreparedBlock, Partition) {
        let dataset = generate(&presets::tiny(21));
        let extractor = Extractor::new(&dataset.gazetteer);
        let block = &dataset.blocks[0];
        let features = block
            .documents
            .iter()
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        (
            PreparedBlock::new(block.query_name.clone(), features, TfIdf::default()),
            block.truth(),
        )
    }

    #[test]
    fn train_matches_resolve_selection() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 7);
        let resolver = Resolver::new(ResolverConfig::accuracy_suite(subset_i10())).unwrap();
        let model = resolver.train(&block, &sup).unwrap();
        let resolution = resolver.resolve(&block, &sup).unwrap();
        let selected = resolution.selected().expect("best graph selects");
        assert_eq!(model.function_name(), selected.function);
        assert_eq!(model.criterion().label(), selected.criterion);
        assert_eq!(model.accuracy, selected.accuracy);
        assert_eq!(model.selection_score, selected.selection_score);
    }

    #[test]
    fn decisions_replay_the_selected_layer() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 3);
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let model = resolver.train(&block, &sup).unwrap();
        // Recompute the selected layer's decision graph pair by pair: the
        // trained model must reproduce it exactly.
        let layers = build_layers(
            &block,
            &resolver.config().functions,
            &resolver.config().criteria,
            &sup,
        );
        let combined = CombinationStrategy::BestGraph.combine(&layers, &sup, block.len());
        let layer = &layers[combined.selected_layer.unwrap()];
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                assert_eq!(
                    model.decide(&block, i, j),
                    layer.decisions.has_edge(i, j),
                    "pair ({i}, {j})"
                );
                assert!(
                    (model.link_probability(&block, i, j) - layer.link_probability.get(i, j)).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn train_supports_input_partitioned_layers() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.4, 5);
        let resolver =
            Resolver::new(ResolverConfig::accuracy_suite(subset_i10()).with_input_partitioning())
                .unwrap();
        let model = resolver.train(&block, &sup).unwrap();
        // Whatever layer won, decide() must be callable on every pair.
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                let p = model.link_probability(&block, i, j);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn train_rejects_out_of_range_supervision() {
        let (block, _) = prepared_block();
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let sup = Supervision::new([(9999, 0)].into_iter().collect());
        assert!(matches!(
            resolver.train(&block, &sup),
            Err(CoreError::SupervisionOutOfRange { .. })
        ));
    }

    #[test]
    fn refit_on_the_training_block_is_a_fixed_point() {
        // Similarity values have not changed, so refitting on the same
        // block must reproduce the original decisions exactly.
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.4, 11);
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let original = resolver.train(&block, &sup).unwrap();
        let mut refitted = original.clone();
        refitted.refit(&block, &sup);
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                assert_eq!(
                    original.decide(&block, i, j),
                    refitted.decide(&block, i, j),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn debug_names_the_selected_function() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 2);
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let model = resolver.train(&block, &sup).unwrap();
        let dbg = format!("{model:?}");
        assert!(dbg.contains(model.function_name()), "{dbg}");
    }
}
