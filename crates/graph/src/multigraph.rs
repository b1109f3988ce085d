//! The combination multigraph.
//!
//! "First we obtain a multi-graph, where the multiple edges between two
//! nodes correspond to the edges from the individual graphs. We weight the
//! edges with the individual accuracy estimations, which we consider as
//! estimations of the probability of a link. Then we compute a weighted
//! average and obtained an optimal threshold […] If the combined value is
//! above this threshold, we add an edge to G_combined." (§IV-B)
//!
//! A [`MultiGraph`] overlays any number of layers; each layer is a decision
//! graph plus a per-edge link-probability weight (the accuracy estimate of
//! the region the similarity value fell into). Absent edges contribute the
//! *complement* of their accuracy as evidence against a link, so the
//! weighted average is taken over all layers, not only the asserting ones.

use crate::decision::DecisionGraph;
use crate::weighted::WeightedGraph;

/// One evidence layer: a decision graph with per-pair link probabilities.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Asserted edges.
    pub decisions: DecisionGraph,
    /// Per-pair probability that a link exists, as estimated by the layer's
    /// accuracy model (complete graph over the same nodes).
    pub link_probability: WeightedGraph,
    /// The layer's overall estimated accuracy (its voting weight).
    pub weight: f64,
}

/// A multigraph combining several decision layers over the same node set.
#[derive(Debug, Clone, Default)]
pub struct MultiGraph {
    layers: Vec<Layer>,
    n: usize,
}

impl MultiGraph {
    /// An empty multigraph; the node count is fixed by the first layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a layer. Panics if its node count differs from prior layers.
    pub fn add_layer(&mut self, layer: Layer) {
        if self.layers.is_empty() {
            self.n = layer.decisions.len();
        } else {
            assert_eq!(
                layer.decisions.len(),
                self.n,
                "all layers must cover the same documents"
            );
        }
        assert_eq!(
            layer.link_probability.len(),
            layer.decisions.len(),
            "probability graph must cover the same documents"
        );
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Number of nodes (0 until the first layer is added).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no layers have been added.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The combined link score for pair `{i, j}`: the weighted average of
    /// the layers' link-probability estimates, weighted by each layer's
    /// overall accuracy (its voting weight).
    ///
    /// The link probabilities are already directional — a layer that
    /// decided "no link" carries a probability below ½ for that pair — so
    /// no complementing is needed here.
    pub fn combined_score(&self, i: usize, j: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for layer in &self.layers {
            num += layer.weight * layer.link_probability.get(i, j);
            den += layer.weight;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Materialise the combined score for every pair as a weighted graph.
    pub fn combined_scores(&self) -> WeightedGraph {
        WeightedGraph::from_fn(self.n, |i, j| self.combined_score(i, j))
    }

    /// The combined decision graph: pairs whose combined score clears
    /// `threshold`.
    pub fn combine(&self, threshold: f64) -> DecisionGraph {
        DecisionGraph::from_weighted(&self.combined_scores(), |s| s >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(n: usize, edges: &[(usize, usize)], prob: f64, weight: f64) -> Layer {
        let mut d = DecisionGraph::new(n);
        for &(i, j) in edges {
            d.add_edge(i, j);
        }
        // Directional probabilities, as FittedDecision produces them: the
        // asserted edges carry `prob`, the rest its complement.
        let link_probability =
            WeightedGraph::from_fn(n, |i, j| if d.has_edge(i, j) { prob } else { 1.0 - prob });
        Layer {
            decisions: d,
            link_probability,
            weight,
        }
    }

    #[test]
    fn single_layer_passes_through() {
        let mut m = MultiGraph::new();
        m.add_layer(layer(3, &[(0, 1)], 0.9, 1.0));
        assert!((m.combined_score(0, 1) - 0.9).abs() < 1e-12);
        assert!((m.combined_score(0, 2) - 0.1).abs() < 1e-12);
        let d = m.combine(0.5);
        assert!(d.has_edge(0, 1));
        assert!(!d.has_edge(0, 2));
    }

    #[test]
    fn agreeing_layers_reinforce() {
        let mut m = MultiGraph::new();
        m.add_layer(layer(3, &[(0, 1)], 0.8, 1.0));
        m.add_layer(layer(3, &[(0, 1)], 0.6, 1.0));
        assert!((m.combined_score(0, 1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn accurate_layer_dominates_weighted_average() {
        let mut m = MultiGraph::new();
        // Accurate layer says link (p=0.9, weight 0.9); weak layer says no
        // link (p=0.5, weight 0.1): evidence = 0.5 complement = 0.5.
        m.add_layer(layer(3, &[(0, 1)], 0.9, 0.9));
        m.add_layer(layer(3, &[], 0.5, 0.1));
        let s = m.combined_score(0, 1);
        assert!((s - (0.9 * 0.9 + 0.1 * 0.5)).abs() < 1e-12);
        assert!(m.combine(0.5).has_edge(0, 1));
    }

    #[test]
    fn empty_multigraph_scores_zero() {
        let m = MultiGraph::new();
        assert!(m.is_empty());
        assert_eq!(m.layer_count(), 0);
    }

    #[test]
    #[should_panic(expected = "same documents")]
    fn mismatched_layer_sizes_panic() {
        let mut m = MultiGraph::new();
        m.add_layer(layer(3, &[], 0.5, 1.0));
        m.add_layer(layer(4, &[], 0.5, 1.0));
    }

    #[test]
    fn zero_total_weight_gives_zero_scores() {
        let mut m = MultiGraph::new();
        m.add_layer(layer(3, &[(0, 1)], 0.9, 0.0));
        assert_eq!(m.combined_score(0, 1), 0.0);
    }
}
