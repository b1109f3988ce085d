//! Sparse vectors over term ids, with the similarity measures the paper's
//! TF-IDF based functions use: cosine (F8), Pearson correlation (F9) and
//! extended Jaccard / Tanimoto (F10).
//!
//! Entries are kept sorted by term id so that dot products and merges are
//! linear-time merge joins with no allocation. Each vector also keeps the
//! sum and the sum of squares of its weights, accumulated in entry order as
//! the weights are written, so a measure costs one dot product plus an O(1)
//! [`finish`](WordVectorMeasure::finish).
//!
//! A block that compares many vectors against one another computes the dot
//! product by scatter/gather instead of a merge: one vector is
//! [`scatter`](SparseVector::scatter)ed into a dense scratch indexed by
//! block-local term slots, and every other vector is
//! [`gather`](SparseVector::gather)ed against it. The gather adds the same
//! products in the same term order as [`dot`](SparseVector::dot), so the two
//! are equal bit for bit.

use crate::vocab::TermId;

/// An immutable sparse vector: sorted `(TermId, weight)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
    /// Σw over `entries`, added in entry order.
    sum: f64,
    /// Σw² over `entries`, added in entry order.
    sumsq: f64,
}

/// The word-vector measures of the paper's F8, F9 and F10. Each is a
/// function of the pair's dot product and of the two vectors' cached
/// moments, so one dot product serves all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordVectorMeasure {
    /// Cosine similarity (F8); see [`SparseVector::cosine`].
    Cosine,
    /// Pearson correlation rescaled to `[0, 1]` (F9); see
    /// [`SparseVector::pearson`].
    Pearson,
    /// Extended Jaccard / Tanimoto similarity (F10); see
    /// [`SparseVector::extended_jaccard`].
    ExtendedJaccard,
}

impl WordVectorMeasure {
    /// All three measures, in the paper's order.
    pub const ALL: [WordVectorMeasure; 3] = [
        WordVectorMeasure::Cosine,
        WordVectorMeasure::Pearson,
        WordVectorMeasure::ExtendedJaccard,
    ];

    /// The measure's value for vectors `a` and `b` whose dot product is
    /// `dot`, in a `dim`-dimensional space (only Pearson reads `dim`). This
    /// is the one definition of each formula: the pairwise methods call it
    /// after their merge join, and a block's scatter/gather sweep after its
    /// gather.
    pub fn finish(self, dot: f64, a: &SparseVector, b: &SparseVector, dim: usize) -> f64 {
        match self {
            WordVectorMeasure::Cosine => {
                let denom = a.norm() * b.norm();
                if denom == 0.0 {
                    return 0.0;
                }
                (dot / denom).clamp(0.0, 1.0)
            }
            WordVectorMeasure::Pearson => {
                if dim == 0 {
                    return 0.0;
                }
                let n = dim as f64;
                let (sa, sb) = (a.sum, b.sum);
                // sum((a_i - ma)(b_i - mb)) = dot(a,b) - ma*sb - mb*sa + n*ma*mb
                //                           = dot(a,b) - sa*sb/n.
                let cov = dot - sa * sb / n;
                let var_a = a.sumsq - sa * sa / n;
                let var_b = b.sumsq - sb * sb / n;
                if var_a <= 0.0 || var_b <= 0.0 {
                    return 0.0;
                }
                let r = (cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0);
                (r + 1.0) / 2.0
            }
            WordVectorMeasure::ExtendedJaccard => {
                let denom = a.norm().powi(2) + b.norm().powi(2) - dot;
                if denom <= 0.0 {
                    return 0.0;
                }
                (dot / denom).clamp(0.0, 1.0)
            }
        }
    }
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from possibly unsorted, possibly duplicated `(id, weight)` pairs.
    /// Duplicate ids are summed; zero weights are dropped.
    pub fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        let (mut sum, mut sumsq) = (0.0, 0.0);
        entries.retain(|&(_, w)| {
            if w == 0.0 {
                return false;
            }
            sum += w;
            sumsq += w * w;
            true
        });
        Self {
            entries,
            sum,
            sumsq,
        }
    }

    /// Replace this vector's contents from already-sorted, deduplicated
    /// `(id, weight)` pairs, reusing the existing allocation. Zero weights
    /// are dropped, matching [`from_pairs`](Self::from_pairs), so an
    /// in-place refresh stays indistinguishable from a fresh build.
    pub fn refill(&mut self, pairs: impl IntoIterator<Item = (TermId, f64)>) {
        self.entries.clear();
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for (id, w) in pairs {
            if w != 0.0 {
                sum += w;
                sumsq += w * w;
                self.entries.push((id, w));
            }
        }
        (self.sum, self.sumsq) = (sum, sumsq);
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "refill requires sorted, deduplicated term ids"
        );
    }

    /// Build from raw term counts.
    pub fn from_counts(counts: impl IntoIterator<Item = (TermId, u32)>) -> Self {
        Self::from_pairs(
            counts
                .into_iter()
                .map(|(id, c)| (id, f64::from(c)))
                .collect(),
        )
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True if the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight at `id`, or 0.
    pub fn get(&self, id: TermId) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Sum of all weights.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.sumsq.sqrt()
    }

    /// Dot product via a sorted merge join.
    pub fn dot(&self, other: &Self) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Write each weight into `scratch` at its slot, `slots[k]` being the
    /// slot of entry `k`: the dense side of [`gather`](Self::gather).
    pub fn scatter(&self, slots: &[u32], scratch: &mut [f64]) {
        debug_assert_eq!(slots.len(), self.entries.len());
        for (&(_, w), &slot) in self.entries.iter().zip(slots) {
            scratch[slot as usize] = w;
        }
    }

    /// Zero the slots [`scatter`](Self::scatter) wrote, leaving a scratch
    /// that was all zeros before it all zeros again.
    pub fn unscatter(&self, slots: &[u32], scratch: &mut [f64]) {
        debug_assert_eq!(slots.len(), self.entries.len());
        for &slot in slots {
            scratch[slot as usize] = 0.0;
        }
    }

    /// Dot product against the vector [`scatter`](Self::scatter)ed into an
    /// otherwise all-zero `scratch` through the same slot map, `slots[k]`
    /// being the slot of entry `k`.
    ///
    /// Equal bit for bit to [`dot`](Self::dot) for finite weights. Both add
    /// into an accumulator that starts at +0.0, in term order. The shared
    /// terms contribute the same products in the same order. Every other
    /// term contributes `w · 0.0 = ±0.0`, and adding ±0.0 leaves the
    /// accumulator unchanged: it is never −0.0, because a sum that starts at
    /// +0.0 only reaches zero again by exact cancellation, which rounds to
    /// +0.0.
    pub fn gather(&self, slots: &[u32], scratch: &[f64]) -> f64 {
        debug_assert_eq!(slots.len(), self.entries.len());
        let mut acc = 0.0;
        for (&(_, w), &slot) in self.entries.iter().zip(slots) {
            acc += w * scratch[slot as usize];
        }
        acc
    }

    /// Cosine similarity in `[0, 1]` for non-negative vectors.
    ///
    /// Returns 0 when either vector is empty (the paper treats pages with
    /// missing features as maximally uninformative, i.e. no similarity
    /// evidence).
    pub fn cosine(&self, other: &Self) -> f64 {
        WordVectorMeasure::Cosine.finish(self.dot(other), self, other, 0)
    }

    /// Pearson correlation similarity over a `dim`-dimensional space,
    /// rescaled from `[-1, 1]` to `[0, 1]` so it composes with the other
    /// similarity functions.
    ///
    /// The correlation treats every coordinate outside the union of supports
    /// as zero, so the means are `sum / dim`. Returns 0 if either vector is
    /// constant over the space (zero variance) or `dim == 0`.
    pub fn pearson(&self, other: &Self, dim: usize) -> f64 {
        WordVectorMeasure::Pearson.finish(self.dot(other), self, other, dim)
    }

    /// Extended Jaccard (Tanimoto) similarity:
    /// `dot / (|a|^2 + |b|^2 - dot)`, in `[0, 1]` for non-negative vectors.
    ///
    /// Returns 0 when both vectors are empty.
    pub fn extended_jaccard(&self, other: &Self) -> f64 {
        WordVectorMeasure::ExtendedJaccard.finish(self.dot(other), self, other, 0)
    }

    /// Element-wise sum of two vectors.
    pub fn add(&self, other: &Self) -> Self {
        let mut pairs = self.entries.clone();
        pairs.extend_from_slice(&other.entries);
        Self::from_pairs(pairs)
    }

    /// Scale every weight by `factor`.
    pub fn scale(&self, factor: f64) -> Self {
        Self::from_pairs(
            self.entries
                .iter()
                .map(|&(id, w)| (id, w * factor))
                .collect(),
        )
    }

    /// A unit-norm copy, or an empty vector if the norm is zero.
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            Self::new()
        } else {
            self.scale(1.0 / n)
        }
    }
}

impl FromIterator<(TermId, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (TermId, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    #[test]
    fn from_pairs_sorts_dedups_and_drops_zeros() {
        let a = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0)]);
        assert_eq!(a.entries(), &[(TermId(1), 2.0), (TermId(3), 3.0)]);
    }

    #[test]
    fn refill_replaces_contents_and_drops_zeros() {
        let mut a = v(&[(0, 1.0), (4, 2.0)]);
        a.refill([(TermId(1), 3.0), (TermId(2), 0.0), (TermId(7), 5.0)]);
        assert_eq!(a, v(&[(1, 3.0), (7, 5.0)]));
        a.refill(std::iter::empty());
        assert!(a.is_empty());
    }

    #[test]
    fn dot_matches_dense_computation() {
        let a = v(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(1, 5.0), (2, 4.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 1.0);
    }

    #[test]
    fn cosine_identity_and_orthogonality() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        let b = v(&[(2, 1.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn cosine_hand_computed() {
        let a = v(&[(0, 1.0), (1, 1.0)]);
        let b = v(&[(0, 1.0)]);
        assert!((a.cosine(&b) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = v(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let b = a.scale(2.0);
        // Scaled copies are perfectly correlated -> similarity 1.
        assert!((a.pearson(&b, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_anticorrelation_maps_to_zero() {
        // Over dim=2: a=(1,-1), b=(-1,1) are perfectly anti-correlated.
        let a = v(&[(0, 1.0), (1, -1.0)]);
        let b = v(&[(0, -1.0), (1, 1.0)]);
        assert!((a.pearson(&b, 2) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        let a = v(&[(0, 1.0)]);
        let flat = SparseVector::new();
        assert_eq!(a.pearson(&flat, 5), 0.0);
        assert_eq!(a.pearson(&a, 0), 0.0);
    }

    #[test]
    fn pearson_matches_dense_reference() {
        // Dense reference over dim=4.
        let a = v(&[(0, 2.0), (1, 1.0)]);
        let b = v(&[(0, 1.0), (2, 3.0)]);
        let ad = [2.0, 1.0, 0.0, 0.0];
        let bd = [1.0, 0.0, 3.0, 0.0];
        let n = 4.0;
        let (ma, mb) = (ad.iter().sum::<f64>() / n, bd.iter().sum::<f64>() / n);
        let cov: f64 = ad.iter().zip(&bd).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = ad.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = bd.iter().map(|y| (y - mb) * (y - mb)).sum();
        let expect = (cov / (va.sqrt() * vb.sqrt()) + 1.0) / 2.0;
        assert!((a.pearson(&b, 4) - expect).abs() < 1e-12);
    }

    #[test]
    fn extended_jaccard_identity_and_disjoint() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(5, 3.0)]);
        assert!((a.extended_jaccard(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.extended_jaccard(&b), 0.0);
        assert_eq!(
            SparseVector::new().extended_jaccard(&SparseVector::new()),
            0.0
        );
    }

    #[test]
    fn extended_jaccard_hand_computed() {
        // a=(1,0), b=(1,1): dot=1, |a|²=1, |b|²=2 -> 1/(1+2-1)=0.5.
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 1.0), (1, 1.0)]);
        assert!((a.extended_jaccard(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 3.0), (2, 4.0)]);
        let s = a.add(&b);
        assert_eq!(s.get(TermId(0)), 1.0);
        assert_eq!(s.get(TermId(1)), 5.0);
        assert_eq!(s.get(TermId(2)), 4.0);
        assert_eq!(a.scale(2.0).get(TermId(1)), 4.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert!(SparseVector::new().normalized().is_empty());
    }

    #[test]
    fn get_missing_is_zero() {
        let a = v(&[(2, 7.0)]);
        assert_eq!(a.get(TermId(0)), 0.0);
        assert_eq!(a.get(TermId(2)), 7.0);
    }
}
