//! Incremental (sequential) clustering.
//!
//! The related-work baseline the paper contrasts itself with: "Many papers
//! suggest (for example \[2\]) incremental clustering-based methods" and the
//! Swoosh line of work (\[5\], \[7\]) that merges records "right away, as they
//! are found to be equivalent". Documents are processed in arrival order;
//! each joins the best-scoring existing cluster if its linkage score clears
//! the threshold, otherwise it founds a new cluster.
//!
//! Provided as an alternative clustering back-end and as the baseline for
//! the `ablation_clustering` study.

use crate::partition::Partition;
use crate::weighted::WeightedGraph;

/// How a document is scored against an existing cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Best single member (single linkage; merge-happy).
    Single,
    /// Mean over members (average linkage).
    Average,
    /// Worst single member (complete linkage; conservative).
    Complete,
}

impl Linkage {
    /// The linkage score of `doc` against a (non-empty) cluster.
    fn score(&self, scores: &WeightedGraph, doc: usize, members: &[usize]) -> f64 {
        debug_assert!(!members.is_empty());
        let values = members.iter().map(|&m| scores.get(doc, m));
        match self {
            Linkage::Single => values.fold(f64::NEG_INFINITY, f64::max),
            Linkage::Complete => values.fold(f64::INFINITY, f64::min),
            Linkage::Average => values.sum::<f64>() / members.len() as f64,
        }
    }
}

/// Greedy sequential clustering over pairwise link scores.
///
/// Documents are visited in index order. Each document joins the existing
/// cluster with the highest linkage score, provided that score is at least
/// `threshold`; otherwise it starts a new cluster. Deterministic; ties go
/// to the earliest-founded cluster.
pub fn incremental_cluster(scores: &WeightedGraph, threshold: f64, linkage: Linkage) -> Partition {
    let n = scores.len();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut labels = Vec::with_capacity(n);
    for doc in 0..n {
        let mut best: Option<(usize, f64)> = None;
        for (c, members) in clusters.iter().enumerate() {
            let s = linkage.score(scores, doc, members);
            if s >= threshold && best.is_none_or(|(_, b)| s > b) {
                best = Some((c, s));
            }
        }
        match best {
            Some((c, _)) => {
                labels.push(c as u32);
                clusters[c].push(doc);
            }
            None => {
                labels.push(clusters.len() as u32);
                clusters.push(vec![doc]);
            }
        }
    }
    Partition::from_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(n: usize, high: &[(usize, usize)]) -> WeightedGraph {
        WeightedGraph::from_fn(n, |i, j| {
            if high.contains(&(i, j)) || high.contains(&(j, i)) {
                0.9
            } else {
                0.1
            }
        })
    }

    #[test]
    fn recovers_clean_clusters_under_all_linkages() {
        let g = scores(5, &[(0, 1), (0, 2), (1, 2), (3, 4)]);
        for linkage in [Linkage::Single, Linkage::Average, Linkage::Complete] {
            let p = incremental_cluster(&g, 0.5, linkage);
            assert_eq!(
                p,
                Partition::from_labels(vec![0, 0, 0, 1, 1]),
                "{linkage:?}"
            );
        }
    }

    #[test]
    fn threshold_one_yields_singletons_when_scores_below() {
        let g = scores(4, &[(0, 1)]);
        let p = incremental_cluster(&g, 0.95, Linkage::Single);
        assert_eq!(p.cluster_count(), 4);
    }

    #[test]
    fn zero_threshold_lumps_everything() {
        let g = scores(4, &[]);
        let p = incremental_cluster(&g, 0.0, Linkage::Single);
        assert_eq!(p.cluster_count(), 1);
    }

    #[test]
    fn linkage_strictness_ordering() {
        // A chain 0-1-2 where (0,2) is low: single linkage merges all,
        // complete linkage keeps 2 out.
        let g = WeightedGraph::from_fn(3, |i, j| match (i, j) {
            (0, 1) | (1, 2) => 0.9,
            _ => 0.1,
        });
        let single = incremental_cluster(&g, 0.5, Linkage::Single);
        let complete = incremental_cluster(&g, 0.5, Linkage::Complete);
        assert_eq!(single.cluster_count(), 1);
        assert_eq!(complete.cluster_count(), 2);
        // Average sits between: (0.9 + 0.1)/2 = 0.5 >= 0.5 -> merges.
        let average = incremental_cluster(&g, 0.5, Linkage::Average);
        assert!(average.cluster_count() <= complete.cluster_count());
    }

    #[test]
    fn order_dependence_is_real_but_deterministic() {
        let g = scores(3, &[(0, 2)]);
        let a = incremental_cluster(&g, 0.5, Linkage::Average);
        let b = incremental_cluster(&g, 0.5, Linkage::Average);
        assert_eq!(a, b);
        assert!(a.same_cluster(0, 2));
        assert!(!a.same_cluster(0, 1));
    }

    #[test]
    fn empty_and_single() {
        assert!(incremental_cluster(&WeightedGraph::new(0), 0.5, Linkage::Single).is_empty());
        let p = incremental_cluster(&WeightedGraph::new(1), 0.5, Linkage::Single);
        assert_eq!(p.cluster_count(), 1);
    }

    #[test]
    fn ties_go_to_earliest_cluster() {
        // Doc 2 scores equally against cluster {0} and cluster {1}.
        let g = WeightedGraph::from_fn(3, |i, j| match (i, j) {
            (0, 2) | (1, 2) => 0.8,
            _ => 0.1,
        });
        let p = incremental_cluster(&g, 0.5, Linkage::Single);
        assert!(p.same_cluster(0, 2));
        assert!(!p.same_cluster(1, 2));
    }
}
