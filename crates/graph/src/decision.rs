//! Decision graphs: unweighted graphs whose edges assert that two documents
//! refer to the same person (`G_{D_j}` in the paper).

use crate::partition::Partition;
use crate::weighted::WeightedGraph;

/// An undirected graph over `n` nodes storing presence/absence of edges as a
/// bitset over the upper triangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionGraph {
    n: usize,
    bits: Vec<u64>,
    edges: usize,
}

impl DecisionGraph {
    /// The empty graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        Self {
            n,
            bits: vec![0; pairs.div_ceil(64)],
            edges: 0,
        }
    }

    /// Derive a decision graph from a weighted graph by a predicate on
    /// `(i, j, weight)`. Pairs are visited in the weighted graph's storage
    /// (colex) order, so the weights are read front to back.
    pub fn from_weighted(
        g: &WeightedGraph,
        mut keep: impl FnMut(usize, usize, f64) -> bool,
    ) -> Self {
        let mut d = Self::new(g.len());
        for j in 1..g.len() {
            for (i, &w) in g.column(j).iter().enumerate() {
                if keep(i, j, w) {
                    d.add_edge(i, j);
                }
            }
        }
        d
    }

    /// The graph containing every intra-cluster edge of `p` (a clique per
    /// cluster) — the entity graph of a known resolution.
    pub fn from_partition(p: &Partition) -> Self {
        let mut d = Self::new(p.len());
        for (i, j) in p.positive_pairs() {
            d.add_edge(i, j);
        }
        d
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a graph over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// True if edge `{i, j}` is present (order-insensitive).
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        self.bits[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Add edge `{i, j}`; returns true if it was new. Self-edges are ignored.
    pub fn add_edge(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        let mask = 1u64 << (idx % 64);
        if self.bits[idx / 64] & mask != 0 {
            return false;
        }
        self.bits[idx / 64] |= mask;
        self.edges += 1;
        true
    }

    /// Remove edge `{i, j}`; returns true if it was present.
    pub fn remove_edge(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        let mask = 1u64 << (idx % 64);
        if self.bits[idx / 64] & mask == 0 {
            return false;
        }
        self.bits[idx / 64] &= !mask;
        self.edges -= 1;
        true
    }

    /// Iterate present edges `(i, j)` with `i < j`, lexicographically.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n)
            .flat_map(move |i| (i + 1..self.n).map(move |j| (i, j)))
            .filter(move |&(i, j)| self.has_edge(i, j))
    }

    /// Neighbours of node `i`.
    pub fn neighbours(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&j| j != i && self.has_edge(i, j))
    }

    /// Fraction of node pairs connected by an edge (0 for n < 2).
    pub fn density(&self) -> f64 {
        let pairs = self.n * self.n.saturating_sub(1) / 2;
        if pairs == 0 {
            0.0
        } else {
            self.edges as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_has() {
        let mut d = DecisionGraph::new(4);
        assert!(d.add_edge(0, 2));
        assert!(!d.add_edge(2, 0)); // symmetric duplicate
        assert!(d.has_edge(2, 0));
        assert_eq!(d.edge_count(), 1);
        assert!(d.remove_edge(0, 2));
        assert!(!d.remove_edge(0, 2));
        assert_eq!(d.edge_count(), 0);
    }

    #[test]
    fn self_edges_are_noops() {
        let mut d = DecisionGraph::new(3);
        assert!(!d.add_edge(1, 1));
        assert!(!d.has_edge(1, 1));
        assert_eq!(d.edge_count(), 0);
    }

    #[test]
    fn from_weighted_applies_threshold() {
        let g = WeightedGraph::from_fn(3, |i, j| if (i, j) == (0, 1) { 0.9 } else { 0.1 });
        let d = DecisionGraph::from_weighted(&g, |_, _, w| w >= 0.5);
        assert!(d.has_edge(0, 1));
        assert!(!d.has_edge(0, 2));
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn from_partition_builds_cliques() {
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1]);
        let d = DecisionGraph::from_partition(&p);
        assert_eq!(d.edge_count(), 4);
        assert!(d.has_edge(0, 2));
        assert!(d.has_edge(3, 4));
        assert!(!d.has_edge(2, 3));
    }

    #[test]
    fn edges_and_neighbours() {
        let mut d = DecisionGraph::new(4);
        d.add_edge(0, 1);
        d.add_edge(1, 3);
        let es: Vec<_> = d.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 3)]);
        let ns: Vec<_> = d.neighbours(1).collect();
        assert_eq!(ns, vec![0, 3]);
    }

    #[test]
    fn density() {
        let mut d = DecisionGraph::new(3);
        assert_eq!(d.density(), 0.0);
        d.add_edge(0, 1);
        assert!((d.density() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(DecisionGraph::new(1).density(), 0.0);
    }

    #[test]
    fn large_graph_bitset_indexing() {
        // Cross the 64-bit word boundary.
        let mut d = DecisionGraph::new(20); // 190 pairs -> 3 words
        for i in 0..20 {
            for j in (i + 1)..20 {
                assert!(d.add_edge(i, j));
            }
        }
        assert_eq!(d.edge_count(), 190);
        assert_eq!(d.edges().count(), 190);
    }
}
