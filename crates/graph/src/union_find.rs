//! Disjoint-set forest with path compression and union by rank.

use crate::partition::Partition;

/// A union-find (disjoint-set) structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Rebuild a forest from its `parent` and `rank` arrays, as
    /// [`parent`](Self::parent) and [`rank`](Self::rank) read them out.
    ///
    /// Validates before it builds: equal lengths, every parent in range,
    /// and a rank that strictly grows from every non-root to its parent.
    /// Union by rank and path compression both keep that last invariant,
    /// and it rules out cycles, so [`find`](Self::find) on the result
    /// always terminates.
    pub fn from_forest(parent: Vec<u32>, rank: Vec<u8>) -> Result<Self, String> {
        let n = parent.len();
        if rank.len() != n {
            return Err(format!("{n} parents but {} ranks", rank.len()));
        }
        let mut sets = 0;
        for (i, &p) in parent.iter().enumerate() {
            let p = p as usize;
            if p >= n {
                return Err(format!("parent {p} of element {i} is out of range (< {n})"));
            }
            if p == i {
                sets += 1;
            } else if rank[p] <= rank[i] {
                return Err(format!(
                    "rank {} of element {i} is not below its parent {p}'s rank {}",
                    rank[i], rank[p]
                ));
            }
        }
        Ok(Self { parent, rank, sets })
    }

    /// Each element's parent pointer (roots point at themselves).
    pub fn parent(&self) -> &[u32] {
        &self.parent
    }

    /// Each element's union-by-rank rank.
    pub fn rank(&self) -> &[u8] {
        &self.rank
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when constructed over zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression pass.
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = (ra as u32, rb as u32);
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
        self.sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Append a new element as its own singleton set; returns its index.
    ///
    /// This is the growth primitive for online clustering: arriving
    /// documents join the structure one at a time instead of requiring the
    /// element count up front.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id as u32);
        self.rank.push(0);
        self.sets += 1;
        id
    }

    /// Representative of `x`'s set without path compression (read-only).
    pub fn find_readonly(&self, x: usize) -> usize {
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root as usize
    }

    /// Snapshot of the partition induced by the current sets, with
    /// canonical (first-occurrence) labels. Does not compress paths.
    pub fn to_partition(&self) -> Partition {
        let labels: Vec<u32> = (0..self.parent.len())
            .map(|i| self.find_readonly(i) as u32)
            .collect();
        Partition::from_labels(labels)
    }

    /// Extract the partition induced by the current sets, with canonical
    /// (first-occurrence) labels.
    pub fn into_partition(mut self) -> Partition {
        let n = self.parent.len();
        let labels: Vec<u32> = (0..n).map(|i| self.find(i) as u32).collect();
        Partition::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.find(3), 3);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already merged
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn transitivity_through_chains() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        assert!(uf.connected(0, 7));
    }

    #[test]
    fn into_partition_has_canonical_labels() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4);
        uf.union(0, 2);
        let p = uf.into_partition();
        // first-occurrence labelling: 0->0, 1->1, 2->0, 3->2, 4->2
        assert_eq!(p.labels(), &[0, 1, 0, 2, 2]);
        assert_eq!(p.cluster_count(), 3);
    }

    #[test]
    fn push_grows_with_singletons() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let c = uf.push();
        assert_eq!(c, 2);
        assert_eq!(uf.set_count(), 2);
        assert!(!uf.connected(0, 2));
        uf.union(1, 2);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.push(), 3);
        assert_eq!(uf.len(), 4);
    }

    #[test]
    fn to_partition_matches_into_partition() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let snap = uf.to_partition();
        assert_eq!(uf.find_readonly(3), uf.find(3));
        assert_eq!(snap, uf.into_partition());
    }

    #[test]
    fn forests_roundtrip_and_keep_their_roots() {
        let mut uf = UnionFind::new(7);
        for (a, b) in [(0, 1), (2, 3), (1, 3), (5, 6), (4, 6)] {
            uf.union(a, b);
        }
        uf.find(3);
        let mut back = UnionFind::from_forest(uf.parent().to_vec(), uf.rank().to_vec()).unwrap();
        assert_eq!(back.set_count(), uf.set_count());
        assert_eq!(back.parent(), uf.parent());
        // Later unions pick the same roots on both.
        assert_eq!(back.union(0, 5), uf.union(0, 5));
        assert_eq!(back.parent(), uf.parent());
        assert_eq!(back.rank(), uf.rank());
    }

    #[test]
    fn hostile_forests_are_rejected() {
        let err =
            |parent: Vec<u32>, rank: Vec<u8>| UnionFind::from_forest(parent, rank).unwrap_err();
        assert!(err(vec![0, 0], vec![1]).contains("ranks"));
        assert!(err(vec![0, 2], vec![0, 0]).contains("out of range"));
        // A two-cycle cannot satisfy strictly growing ranks.
        assert!(err(vec![1, 0], vec![0, 1]).contains("rank"));
        assert!(err(vec![0, 0], vec![0, 0]).contains("rank"));
        assert_eq!(UnionFind::from_forest(vec![], vec![]).unwrap().len(), 0);
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.into_partition().labels().is_empty());
    }
}
