//! Complete weighted graphs over a document block.
//!
//! `G_w^{f_i}` in the paper: nodes are the documents of one block (same
//! ambiguous name), the weight on edge `{i, j}` is the similarity value
//! `f_i(d_i, d_j) ∈ [0, 1]`. Stored as a flat upper-triangular matrix:
//! every pair carries a value, so the dense representation is both the
//! fastest and the simplest. It is not small, though — the paper's blocks
//! are ≈100–150 documents, the benchmark's 300–1,000, and at 1,000
//! documents one graph is 4 MB — so whole-graph passes should walk the
//! buffer in storage order ([`column`](WeightedGraph::column),
//! [`weight_values`](WeightedGraph::weight_values)) and callers should
//! share a graph rather than copy it.
//!
//! The triangle is laid out in *colexicographic* (column-major) order:
//! entry `{i, j}` with `i < j` lives at `j·(j−1)/2 + i`, so all edges of
//! the highest-numbered node form the tail of the buffer. That makes
//! [`push_node`](WeightedGraph::push_node) — appending one node with its
//! row of weights against every existing node — a pure `extend`, which is
//! what lets streaming blocks grow a cached similarity graph by one row
//! per ingested document instead of rebuilding the whole matrix.

use std::ops::Range;

/// A complete undirected weighted graph over `n` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    n: usize,
    /// Upper-triangular weights in colex order: entry for (i, j), i < j,
    /// at `j·(j−1)/2 + i`.
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// A graph over `n` nodes with all weights zero.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            weights: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    /// Build by evaluating `f(i, j)` for every pair `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut weights = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for j in 1..n {
            for i in 0..j {
                weights.push(f(i, j));
            }
        }
        Self { n, weights }
    }

    /// Build by evaluating `f(i, j)` for every pair `i < j`, splitting the
    /// triangle into contiguous column runs of roughly equal edge count and
    /// filling them in parallel ([`from_column_runs`](Self::from_column_runs)).
    ///
    /// The thread count is explicit so callers can match it to their own
    /// scheduling (and tests can exercise the parallel path on any
    /// machine); `threads <= 1` falls back to the sequential build. The
    /// result is identical to [`from_fn`](Self::from_fn) for any pure `f`.
    pub fn from_fn_par(n: usize, threads: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let mut graphs = Self::from_column_runs(n, 1, threads, |columns, runs| {
            let mut edges = runs[0].iter_mut();
            for j in columns {
                for i in 0..j {
                    *edges.next().expect("a run holds its columns' edges") = f(i, j);
                }
            }
        });
        graphs.pop().expect("one graph was asked for")
    }

    /// Build `count` graphs over the same `n` nodes together, column by
    /// column. `fill(columns, runs)` writes columns `columns` of every
    /// graph: `runs[g]` is graph `g`'s colex storage for exactly those
    /// columns, so edge `{i, j}` sits at `i` plus the edge count of the
    /// run's columns before `j`.
    ///
    /// The triangle is split into contiguous column runs of roughly equal
    /// edge count, one per thread; the last run is filled on the calling
    /// thread and the others on scoped workers. `threads <= 1` is one run,
    /// filled in one call.
    pub fn from_column_runs(
        n: usize,
        count: usize,
        threads: usize,
        fill: impl Fn(Range<usize>, &mut [&mut [f64]]) + Sync,
    ) -> Vec<Self> {
        let edge_count = n * n.saturating_sub(1) / 2;
        let target = edge_count.div_ceil(threads.clamp(1, edge_count.max(1)));
        let mut buffers = vec![vec![0.0; edge_count]; count];
        let mut rests: Vec<&mut [f64]> = buffers.iter_mut().map(Vec::as_mut_slice).collect();
        let mut runs = Vec::new();
        let mut first_col = 1usize;
        while first_col < n {
            // Column j holds j edges; take columns until the run reaches
            // the per-thread target.
            let mut end_col = first_col;
            let mut run_len = 0usize;
            while end_col < n && run_len < target {
                run_len += end_col;
                end_col += 1;
            }
            let slices: Vec<&mut [f64]> = rests
                .iter_mut()
                .map(|rest| {
                    let (run, tail) = std::mem::take(rest).split_at_mut(run_len);
                    *rest = tail;
                    run
                })
                .collect();
            runs.push((first_col..end_col, slices));
            first_col = end_col;
        }
        if let Some((last_columns, mut last)) = runs.pop() {
            let fill = &fill;
            std::thread::scope(|scope| {
                for (columns, mut slices) in runs {
                    scope.spawn(move || fill(columns, &mut slices));
                }
                fill(last_columns, &mut last);
            });
        }
        buffers
            .into_iter()
            .map(|weights| Self { n, weights })
            .collect()
    }

    /// Append one node, with `row[i]` the weight of its edge to existing
    /// node `i`. O(n): the new node's edges are the tail of the colex
    /// buffer, so no existing entry moves.
    pub fn push_node(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.n,
            "push_node needs one weight per existing node"
        );
        self.weights.extend_from_slice(row);
        self.n += 1;
    }

    /// A graph with the same nodes and `f` applied to every edge weight.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self {
            n: self.n,
            weights: self.weights.iter().map(|&w| f(w)).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a graph over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (unordered) edges, `n·(n−1)/2`.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "need i < j < n, got ({i}, {j})");
        j * (j - 1) / 2 + i
    }

    /// The weight of edge `{i, j}` (order-insensitive). Panics if `i == j`
    /// or out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-edges in a pairwise similarity graph");
        let (i, j) = (i.min(j), i.max(j));
        self.weights[self.index(i, j)]
    }

    /// Set the weight of edge `{i, j}` (order-insensitive).
    pub fn set(&mut self, i: usize, j: usize, w: f64) {
        assert!(i != j, "no self-edges in a pairwise similarity graph");
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        self.weights[idx] = w;
    }

    /// Iterate `(i, j, weight)` over all pairs `i < j` in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n)
            .flat_map(move |i| (i + 1..self.n).map(move |j| (i, j, self.weights[self.index(i, j)])))
    }

    /// The weights of node `j`'s edges to every lower-numbered node:
    /// `column(j)[i]` is the weight of `{i, j}` for `i < j`. This is the
    /// contiguous run [`push_node`](Self::push_node) appended for `j`, so
    /// walking `column(1)`, `column(2)`, … reads the buffer front to back.
    pub fn column(&self, j: usize) -> &[f64] {
        assert!(j < self.n, "node {j} out of range for {} nodes", self.n);
        let start = j * j.saturating_sub(1) / 2;
        &self.weights[start..start + j]
    }

    /// All edge weights in colex order: pair `(i, j)` with `i < j`, sorted
    /// by `j` then `i` (the storage order; see the type docs).
    pub fn weight_values(&self) -> &[f64] {
        &self.weights
    }

    /// Mean edge weight, or 0 for graphs with fewer than 2 nodes.
    pub fn mean_weight(&self) -> f64 {
        if self.weights.is_empty() {
            0.0
        } else {
            self.weights.iter().sum::<f64>() / self.weights.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_indexing_is_bijective() {
        let n = 7;
        let g = WeightedGraph::new(n);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in i + 1..n {
                assert!(seen.insert(g.index(i, j)), "duplicate index for ({i},{j})");
            }
        }
        assert_eq!(seen.len(), g.edge_count());
        assert_eq!(*seen.iter().max().unwrap(), g.edge_count() - 1);
    }

    #[test]
    fn get_set_symmetry() {
        let mut g = WeightedGraph::new(4);
        g.set(2, 1, 0.75);
        assert_eq!(g.get(1, 2), 0.75);
        assert_eq!(g.get(2, 1), 0.75);
        assert_eq!(g.get(0, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "no self-edges")]
    fn rejects_self_edges() {
        WeightedGraph::new(3).get(1, 1);
    }

    #[test]
    fn from_fn_fills_all_pairs() {
        let g = WeightedGraph::from_fn(4, |i, j| (i + j) as f64);
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(2, 3), 5.0);
        assert_eq!(g.edges().count(), 6);
    }

    #[test]
    fn edges_iterates_lexicographically() {
        let g = WeightedGraph::from_fn(3, |i, j| (10 * i + j) as f64);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 12.0)]);
    }

    #[test]
    fn push_node_matches_batch_build() {
        let weight = |i: usize, j: usize| (100 * i + j) as f64;
        let n = 9;
        let batch = WeightedGraph::from_fn(n, weight);
        let mut grown = WeightedGraph::new(0);
        for j in 0..n {
            let row: Vec<f64> = (0..j).map(|i| weight(i, j)).collect();
            grown.push_node(&row);
        }
        assert_eq!(grown, batch);
    }

    #[test]
    #[should_panic(expected = "one weight per existing node")]
    fn push_node_rejects_wrong_row_length() {
        WeightedGraph::new(3).push_node(&[0.5]);
    }

    #[test]
    fn from_fn_par_matches_sequential_for_any_thread_count() {
        let weight = |i: usize, j: usize| 1.0 / (1.0 + (i * 31 + j) as f64);
        for n in [0usize, 1, 2, 3, 17, 64] {
            let sequential = WeightedGraph::from_fn(n, weight);
            for threads in [1usize, 2, 3, 4, 100] {
                let parallel = WeightedGraph::from_fn_par(n, threads, weight);
                assert_eq!(parallel, sequential, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn column_runs_fill_several_graphs_like_one_each() {
        let weight = |g: usize, i: usize, j: usize| (1000 * g + 31 * i + j) as f64;
        for n in [0usize, 1, 2, 3, 17, 64] {
            for threads in [1usize, 2, 3, 100] {
                let graphs = WeightedGraph::from_column_runs(n, 3, threads, |columns, runs| {
                    for (g, run) in runs.iter_mut().enumerate() {
                        let mut edges = run.iter_mut();
                        for j in columns.clone() {
                            for i in 0..j {
                                *edges.next().unwrap() = weight(g, i, j);
                            }
                        }
                        assert!(edges.next().is_none(), "a run is exactly its columns");
                    }
                });
                assert_eq!(graphs.len(), 3);
                for (g, graph) in graphs.iter().enumerate() {
                    assert_eq!(*graph, WeightedGraph::from_fn(n, |i, j| weight(g, i, j)));
                }
            }
        }
    }

    #[test]
    fn map_transforms_every_weight_in_place_order() {
        let g = WeightedGraph::from_fn(4, |i, j| (i + j) as f64);
        let doubled = g.map(|w| 2.0 * w);
        assert_eq!(doubled.len(), g.len());
        for (i, j, w) in g.edges() {
            assert_eq!(doubled.get(i, j), 2.0 * w);
        }
    }

    #[test]
    fn columns_tile_the_buffer_in_storage_order() {
        let g = WeightedGraph::from_fn(5, |i, j| (10 * i + j) as f64);
        assert!(g.column(0).is_empty());
        let mut walked = Vec::new();
        for j in 0..g.len() {
            let column = g.column(j);
            assert_eq!(column.len(), j);
            for (i, &w) in column.iter().enumerate() {
                assert_eq!(w, g.get(i, j));
            }
            walked.extend_from_slice(column);
        }
        assert_eq!(walked, g.weight_values());
    }

    #[test]
    fn mean_weight() {
        let g = WeightedGraph::from_fn(3, |_, _| 0.5);
        assert!((g.mean_weight() - 0.5).abs() < 1e-12);
        assert_eq!(WeightedGraph::new(1).mean_weight(), 0.0);
        assert_eq!(WeightedGraph::new(0).mean_weight(), 0.0);
    }

    #[test]
    fn tiny_graphs() {
        assert!(WeightedGraph::new(0).is_empty());
        let g = WeightedGraph::new(1);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
