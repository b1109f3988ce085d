//! Online (incrementally grown) partitions.
//!
//! Batch resolution computes the transitive closure of a decision graph in
//! one pass. A streaming resolver cannot: documents arrive one at a time
//! and each arrival may merge existing clusters. [`OnlinePartition`] keeps
//! the live partition in a growable union-find so that one arrival costs
//! amortised near-constant time per asserted link, and the closure
//! invariant (clusters = connected components of all asserted links) holds
//! after every insertion — matching what batch transitive closure would
//! produce over the same link set, regardless of arrival order.

use crate::partition::Partition;
use crate::union_find::UnionFind;

/// A partition that grows one element at a time.
#[derive(Debug, Clone)]
pub struct OnlinePartition {
    uf: UnionFind,
}

impl Default for OnlinePartition {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlinePartition {
    /// An empty partition; elements arrive via [`insert`](Self::insert).
    pub fn new() -> Self {
        Self {
            uf: UnionFind::new(0),
        }
    }

    /// Start from `n` existing singleton elements.
    pub fn with_singletons(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
        }
    }

    /// Start from an existing labelling (e.g. a resolved seed batch):
    /// elements with equal labels share a cluster.
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut uf = UnionFind::new(labels.len());
        let mut first_with: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            match first_with.entry(l) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    uf.union(*e.get(), i);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
        Self { uf }
    }

    /// Resume from a stored union-find forest (see
    /// [`UnionFind::from_forest`] for what is validated). Storing the
    /// forest rather than labels keeps every later
    /// [`representative`](Self::representative) identical to the partition
    /// that was stored.
    pub fn from_forest(parent: Vec<u32>, rank: Vec<u8>) -> Result<Self, String> {
        UnionFind::from_forest(parent, rank).map(|uf| Self { uf })
    }

    /// The union-find forest, as `(parent, rank)`:
    /// [`from_forest`](Self::from_forest) rebuilds it exactly.
    pub fn forest(&self) -> (&[u32], &[u8]) {
        (self.uf.parent(), self.uf.rank())
    }

    /// Number of elements inserted so far.
    pub fn len(&self) -> usize {
        self.uf.len()
    }

    /// True before any element has been inserted.
    pub fn is_empty(&self) -> bool {
        self.uf.is_empty()
    }

    /// Number of clusters currently.
    pub fn cluster_count(&self) -> usize {
        self.uf.set_count()
    }

    /// Insert the next element, asserting links to the given existing
    /// elements; returns the new element's index. The element joins the
    /// union of its link targets' clusters (transitive-closure semantics:
    /// one arrival may merge several clusters). With no links it founds a
    /// new singleton cluster.
    ///
    /// Panics if a link target is out of range (`>=` the pre-insert
    /// length).
    pub fn insert(&mut self, links: impl IntoIterator<Item = usize>) -> usize {
        let id = self.uf.push();
        for target in links {
            assert!(target < id, "link target {target} out of range (< {id})");
            self.uf.union(id, target);
        }
        id
    }

    /// Merge the clusters of two existing elements (late-arriving evidence).
    /// Returns true if they were distinct.
    pub fn merge(&mut self, a: usize, b: usize) -> bool {
        self.uf.union(a, b)
    }

    /// True if `a` and `b` are currently in the same cluster.
    pub fn same_cluster(&self, a: usize, b: usize) -> bool {
        self.uf.find_readonly(a) == self.uf.find_readonly(b)
    }

    /// The current cluster representative of element `i` (stable only until
    /// the next merge).
    pub fn representative(&self, i: usize) -> usize {
        self.uf.find_readonly(i)
    }

    /// Snapshot the current partition with canonical (first-occurrence)
    /// labels.
    pub fn partition(&self) -> Partition {
        self.uf.to_partition()
    }

    /// Current members of `i`'s cluster, ascending (O(n)).
    pub fn members_of(&self, i: usize) -> Vec<usize> {
        let root = self.uf.find_readonly(i);
        (0..self.uf.len())
            .filter(|&j| self.uf.find_readonly(j) == root)
            .collect()
    }

    /// All clusters as member lists, ordered by first member (O(n)).
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let labels = self.partition();
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); labels.cluster_count()];
        for i in 0..labels.len() {
            out[labels.label_of(i) as usize].push(i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_from_empty() {
        let mut p = OnlinePartition::new();
        assert!(p.is_empty());
        assert_eq!(p.insert([]), 0);
        assert_eq!(p.insert([0]), 1);
        assert_eq!(p.insert([]), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.cluster_count(), 2);
        assert!(p.same_cluster(0, 1));
        assert!(!p.same_cluster(0, 2));
    }

    #[test]
    fn insert_with_links_merges_clusters() {
        // 0 and 1 separate; arrival 2 links both -> one cluster of three.
        let mut p = OnlinePartition::with_singletons(2);
        p.insert([0, 1]);
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.members_of(0), vec![0, 1, 2]);
    }

    #[test]
    fn matches_batch_transitive_closure() {
        use crate::components::connected_components;
        use crate::decision::DecisionGraph;
        // Arbitrary link set over 6 docs, inserted in arrival order.
        let links: &[(usize, usize)] = &[(1, 0), (3, 2), (4, 2), (5, 0), (5, 3)];
        let mut g = DecisionGraph::new(6);
        let mut p = OnlinePartition::new();
        for doc in 0..6 {
            let targets: Vec<usize> = links
                .iter()
                .filter(|&&(d, _)| d == doc)
                .map(|&(_, t)| t)
                .collect();
            p.insert(targets.iter().copied());
            for &t in &targets {
                g.add_edge(doc, t);
            }
        }
        assert_eq!(p.partition(), connected_components(&g));
    }

    #[test]
    fn from_labels_reconstructs_clusters() {
        let p = OnlinePartition::from_labels(&[0, 1, 0, 2, 1]);
        assert_eq!(p.cluster_count(), 3);
        assert!(p.same_cluster(0, 2));
        assert!(p.same_cluster(1, 4));
        assert!(!p.same_cluster(0, 3));
        assert_eq!(p.partition().labels(), &[0, 1, 0, 2, 1]);
    }

    #[test]
    fn clusters_lists_members_in_order() {
        let mut p = OnlinePartition::from_labels(&[0, 1, 0]);
        p.insert([1]);
        assert_eq!(p.clusters(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn a_resumed_forest_continues_like_the_original() {
        let mut p = OnlinePartition::new();
        for links in [vec![], vec![0], vec![], vec![2], vec![1, 3], vec![]] {
            p.insert(links);
        }
        let (parent, rank) = p.forest();
        let mut resumed = OnlinePartition::from_forest(parent.to_vec(), rank.to_vec()).unwrap();
        assert_eq!(resumed.partition(), p.partition());
        assert_eq!(resumed.cluster_count(), p.cluster_count());
        for links in [vec![5], vec![], vec![6, 0]] {
            p.insert(links.clone());
            resumed.insert(links);
            let doc = p.len() - 1;
            assert_eq!(resumed.representative(doc), p.representative(doc));
        }
        assert_eq!(resumed.forest(), p.forest());
        assert!(OnlinePartition::from_forest(vec![1, 0], vec![0, 0]).is_err());
    }

    #[test]
    fn merge_joins_existing_elements() {
        let mut p = OnlinePartition::with_singletons(3);
        assert!(p.merge(0, 2));
        assert!(!p.merge(0, 2));
        assert_eq!(p.cluster_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_forward_links() {
        let mut p = OnlinePartition::new();
        p.insert([0]);
    }
}
