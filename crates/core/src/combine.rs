//! Combination strategies (§IV-B): turning many evidence layers into one
//! combined graph.
//!
//! - **Weighted average** (the paper's `W` column): overlay the decision
//!   graphs as a multigraph, weight edges with the accuracy estimations
//!   "which we consider as estimations of the probability of a link",
//!   average, and threshold — with the threshold itself optimised on the
//!   training set.
//! - **Best graph** (dynamic classifier selection; the `C*`/`I*` columns
//!   take the best decision criterion per function set): "a very simple
//!   method is to estimate the overall accuracy of all G_Dj graphs, and
//!   chose the best one as G_combined. Interestingly, this combination
//!   technique performed the best on our datasets."
//! - **Majority vote** (classifier-fusion baseline from the related work,
//!   used in ablations).

use weber_graph::decision::DecisionGraph;
use weber_graph::multigraph::MultiGraph;
use weber_graph::weighted::WeightedGraph;
use weber_ml::threshold::optimal_threshold;
use weber_ml::LabeledValue;

use crate::layers::{EvidenceLayer, LayerScore};
use crate::supervision::Supervision;

/// How a layer's voting weight is derived for the weighted average.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// The layer's pairwise training accuracy — the paper's choice ("we
    /// weight the edges with the individual accuracy estimations").
    #[default]
    Accuracy,
    /// Accuracy excess over chance, `max(acc − ½, ε)` — layers at chance
    /// get (almost) no vote, sharpening the average (Woods-style local
    /// competence; ablation extension).
    Excess,
    /// The layer's estimated end-to-end quality (training Fp of the closed
    /// graph; ablation extension).
    SelectionScore,
    /// Uniform weights (plain averaging baseline).
    Uniform,
}

impl WeightScheme {
    fn weight(&self, layer: &LayerScore) -> f64 {
        match self {
            WeightScheme::Accuracy => layer.accuracy,
            WeightScheme::Excess => (layer.accuracy - 0.5).max(0.01),
            WeightScheme::SelectionScore => layer.selection_score,
            WeightScheme::Uniform => 1.0,
        }
    }
}

/// How to combine the evidence layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombinationStrategy {
    /// Weighted average of link probabilities, thresholded; the threshold
    /// is fitted on the training pairs (paper's `W`).
    WeightedAverage(WeightScheme),
    /// Select the single layer with the highest estimated accuracy
    /// (paper's best performer, used for the `I*`/`C*` columns).
    #[default]
    BestGraph,
    /// Edge iff more than half of the layers assert it.
    MajorityVote,
}

/// The combined evidence: the decision graph plus the per-pair combined
/// scores (needed by score-based clustering back-ends).
#[derive(Debug, Clone)]
pub struct Combined {
    /// The combined decision graph `G_combined`.
    pub decisions: DecisionGraph,
    /// Per-pair combined link scores in `[0, 1]`.
    pub scores: WeightedGraph,
    /// Which layer was selected, for [`CombinationStrategy::BestGraph`].
    pub selected_layer: Option<usize>,
    /// The combination threshold used, when applicable.
    pub threshold: Option<f64>,
}

impl Combined {
    /// The combined evidence of best-graph selection: the decision and
    /// link-probability graphs of the selected layer, which sits at `index`
    /// of the layer list.
    pub(crate) fn selected(decisions: DecisionGraph, scores: WeightedGraph, index: usize) -> Self {
        Combined {
            decisions,
            scores,
            selected_layer: Some(index),
            threshold: None,
        }
    }
}

/// Best-graph selection: the index of the layer with the highest estimated
/// end-to-end quality (training Fp of the closed graph), tie-broken by
/// pairwise accuracy, then towards the later layer.
///
/// Panics if there are no layers.
pub(crate) fn select_best<'a>(layers: impl IntoIterator<Item = &'a LayerScore>) -> usize {
    layers
        .into_iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.selection_score
                .total_cmp(&b.1.selection_score)
                .then(a.1.accuracy.total_cmp(&b.1.accuracy))
        })
        .map(|(i, _)| i)
        .expect("cannot select from zero layers")
}

impl CombinationStrategy {
    /// Combine `layers` over a block of `n` documents.
    ///
    /// Panics if `layers` is empty (the resolver validates its
    /// configuration before reaching this point).
    pub fn combine(
        &self,
        layers: &[EvidenceLayer],
        supervision: &Supervision,
        n: usize,
    ) -> Combined {
        assert!(!layers.is_empty(), "cannot combine zero layers");
        match self {
            CombinationStrategy::BestGraph => {
                let best = select_best(layers.iter().map(|l| &l.score));
                let layer = &layers[best];
                Combined::selected(
                    layer.decisions.clone(),
                    layer.link_probability.clone(),
                    best,
                )
            }
            CombinationStrategy::WeightedAverage(scheme) => {
                let mut mg = MultiGraph::new();
                for layer in layers {
                    let mut ml = layer.to_multigraph_layer();
                    ml.weight = scheme.weight(&layer.score);
                    mg.add_layer(ml);
                }
                let scores = mg.combined_scores();
                // Optimise the combination threshold on the training pairs.
                let samples: Vec<LabeledValue> =
                    supervision.labeled_values(|i, j| scores.get(i, j));
                let fit = optimal_threshold(&samples);
                let decisions = DecisionGraph::from_weighted(&scores, |s| s >= fit.threshold);
                Combined {
                    decisions,
                    scores,
                    selected_layer: None,
                    threshold: Some(fit.threshold),
                }
            }
            CombinationStrategy::MajorityVote => {
                let half = layers.len() as f64 / 2.0;
                let votes = WeightedGraph::from_fn(n, |i, j| {
                    layers.iter().filter(|l| l.decisions.has_edge(i, j)).count() as f64
                });
                let decisions = DecisionGraph::from_weighted(&votes, |v| v > half);
                let scores =
                    WeightedGraph::from_fn(n, |i, j| votes.get(i, j) / layers.len() as f64);
                Combined {
                    decisions,
                    scores,
                    selected_layer: None,
                    threshold: Some(0.5),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionCriterion, FittedDecision};
    use weber_ml::threshold::ThresholdFit;

    /// A hand-built layer asserting a given edge set with given accuracy.
    fn layer(n: usize, edges: &[(usize, usize)], accuracy: f64) -> EvidenceLayer {
        let mut decisions = DecisionGraph::new(n);
        for &(i, j) in edges {
            decisions.add_edge(i, j);
        }
        let link_probability = WeightedGraph::from_fn(n, |i, j| {
            if decisions.has_edge(i, j) {
                accuracy
            } else {
                1.0 - accuracy
            }
        });
        EvidenceLayer {
            score: LayerScore {
                function: "F1",
                criterion: DecisionCriterion::Threshold,
                fitted: FittedDecision::Threshold {
                    fit: ThresholdFit {
                        threshold: 0.5,
                        training_accuracy: accuracy,
                    },
                },
                accuracy,
                selection_score: accuracy,
                edges: decisions.edge_count(),
            },
            similarities: std::sync::Arc::new(WeightedGraph::new(n)),
            decisions,
            link_probability,
        }
    }

    #[test]
    fn best_graph_selects_highest_accuracy() {
        let layers = vec![
            layer(3, &[(0, 1)], 0.6),
            layer(3, &[(1, 2)], 0.9),
            layer(3, &[(0, 2)], 0.7),
        ];
        let c = CombinationStrategy::BestGraph.combine(&layers, &Supervision::empty(), 3);
        assert_eq!(c.selected_layer, Some(1));
        assert!(c.decisions.has_edge(1, 2));
        assert!(!c.decisions.has_edge(0, 1));
    }

    #[test]
    fn majority_vote_requires_strict_majority() {
        let layers = vec![
            layer(3, &[(0, 1)], 0.8),
            layer(3, &[(0, 1)], 0.8),
            layer(3, &[(1, 2)], 0.8),
        ];
        let c = CombinationStrategy::MajorityVote.combine(&layers, &Supervision::empty(), 3);
        assert!(c.decisions.has_edge(0, 1)); // 2 of 3 votes
        assert!(!c.decisions.has_edge(1, 2)); // 1 of 3
        assert!((c.scores.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn majority_vote_even_split_is_no_edge() {
        let layers = vec![layer(2, &[(0, 1)], 0.9), layer(2, &[], 0.9)];
        let c = CombinationStrategy::MajorityVote.combine(&layers, &Supervision::empty(), 2);
        assert!(!c.decisions.has_edge(0, 1)); // 1 of 2 is not > half
    }

    #[test]
    fn weighted_average_follows_accurate_layers() {
        // Accurate layer: confident link on (0,1), confident no-link
        // elsewhere. Weak layer: asserts (1,2) but with near-chance
        // probability estimates.
        let mut accurate = layer(3, &[(0, 1)], 0.9);
        accurate.link_probability =
            WeightedGraph::from_fn(3, |i, j| if (i, j) == (0, 1) { 0.9 } else { 0.1 });
        let mut weak = layer(3, &[(1, 2)], 0.52);
        weak.link_probability = WeightedGraph::from_fn(3, |_, _| 0.52);
        // Supervision that confirms (0,1) is a link and (1,2) is not.
        let sup = Supervision::new([(0, 0), (1, 0), (2, 1)].into_iter().collect());
        let c = CombinationStrategy::WeightedAverage(WeightScheme::Accuracy).combine(
            &[accurate, weak],
            &sup,
            3,
        );
        assert!(c.scores.get(0, 1) > c.scores.get(1, 2));
        assert!(c.decisions.has_edge(0, 1));
        assert!(!c.decisions.has_edge(1, 2));
        assert!(c.threshold.is_some());
    }

    #[test]
    fn weighted_average_without_supervision_still_produces_scores() {
        let layers = vec![layer(3, &[(0, 1)], 0.8)];
        let c = CombinationStrategy::WeightedAverage(WeightScheme::Accuracy).combine(
            &layers,
            &Supervision::empty(),
            3,
        );
        assert!((c.scores.get(0, 1) - 0.8).abs() < 1e-12);
        // Default threshold 0.5 from the empty fit.
        assert_eq!(c.threshold, Some(0.5));
        assert!(c.decisions.has_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "zero layers")]
    fn combining_nothing_panics() {
        CombinationStrategy::BestGraph.combine(&[], &Supervision::empty(), 3);
    }

    #[test]
    fn weight_schemes_map_accuracy_as_documented() {
        let l = layer(2, &[], 0.8);
        let l = l.score;
        assert_eq!(WeightScheme::Accuracy.weight(&l), 0.8);
        assert!((WeightScheme::Excess.weight(&l) - 0.3).abs() < 1e-12);
        assert_eq!(WeightScheme::SelectionScore.weight(&l), 0.8); // helper sets = accuracy
        assert_eq!(WeightScheme::Uniform.weight(&l), 1.0);
        // Chance-level layers get (almost) no excess vote.
        let chance = layer(2, &[], 0.5);
        assert_eq!(WeightScheme::Excess.weight(&chance.score), 0.01);
        let bad = layer(2, &[], 0.3);
        assert_eq!(WeightScheme::Excess.weight(&bad.score), 0.01);
    }

    #[test]
    fn weighted_average_scheme_changes_scores() {
        // Two layers disagree on (0,1); sharpened weights shift the score
        // toward the accurate layer.
        let strong = layer(2, &[(0, 1)], 0.9);
        let weak = layer(2, &[], 0.55);
        let layers = [strong, weak];
        let acc = CombinationStrategy::WeightedAverage(WeightScheme::Accuracy)
            .combine(&layers, &Supervision::empty(), 2)
            .scores
            .get(0, 1);
        let exc = CombinationStrategy::WeightedAverage(WeightScheme::Excess)
            .combine(&layers, &Supervision::empty(), 2)
            .scores
            .get(0, 1);
        assert!(
            exc > acc,
            "excess weighting should trust the strong layer more: {exc} vs {acc}"
        );
    }
}
