//! Partitioning the similarity value space `[0, 1]` into regions.
//!
//! The paper's two schemes (§IV-A):
//!
//! 1. equal-width sub-intervals `[0, 0.1), [0.1, 0.2), …, [0.9, 1]`;
//! 2. 1-D k-means over the training similarity values, "each cluster head
//!    representing a region" — regions are then the Voronoi cells of the
//!    cluster centres, i.e. intervals split at midpoints between
//!    consecutive centres.

use serde::{Deserialize, Serialize};

use crate::kmeans::kmeans_1d;

/// How to carve `[0, 1]` into regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionScheme {
    /// `k` equal-width intervals.
    EqualWidth {
        /// Number of intervals.
        k: usize,
    },
    /// Voronoi cells of 1-D k-means centres fitted to training values.
    KMeans {
        /// Number of clusters (upper bound; duplicates collapse).
        k: usize,
        /// Iteration cap for Lloyd's algorithm.
        max_iters: usize,
    },
}

impl RegionScheme {
    /// The paper's defaults: 10 equal-width intervals.
    pub fn equal_width_10() -> Self {
        Self::EqualWidth { k: 10 }
    }

    /// k-means regions with `k` clusters.
    pub fn kmeans(k: usize) -> Self {
        Self::KMeans { k, max_iters: 100 }
    }

    /// Fit the scheme to training `values`, producing concrete [`Regions`].
    ///
    /// Equal-width regions ignore the values. K-means regions fall back to a
    /// single all-covering region when `values` is empty.
    pub fn fit(&self, values: &[f64]) -> Regions {
        match *self {
            Self::EqualWidth { k } => Regions::equal_width(k.max(1)),
            Self::KMeans { k, max_iters } => match kmeans_1d(values, k.max(1), max_iters) {
                Some(km) => Regions::from_centers(&km.centers),
                None => Regions::equal_width(1),
            },
        }
    }
}

/// A concrete partition of `[0, 1]` into left-closed intervals.
///
/// Region `i` is `[boundaries[i], boundaries[i+1])`, except the last, which
/// is closed on the right so 1.0 is covered. `boundaries` always starts at
/// 0.0 and ends at 1.0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regions {
    boundaries: Vec<f64>,
    /// Representative value per region (interval midpoint or k-means
    /// centre) — used for reporting, e.g. the x-axis of Figure 1.
    representatives: Vec<f64>,
}

impl Regions {
    /// `k` equal-width intervals over `[0, 1]`.
    pub fn equal_width(k: usize) -> Self {
        let k = k.max(1);
        let boundaries: Vec<f64> = (0..=k).map(|i| i as f64 / k as f64).collect();
        let representatives = (0..k)
            .map(|i| (boundaries[i] + boundaries[i + 1]) / 2.0)
            .collect();
        Self {
            boundaries,
            representatives,
        }
    }

    /// Voronoi regions of sorted `centers` within `[0, 1]`.
    pub fn from_centers(centers: &[f64]) -> Self {
        assert!(!centers.is_empty(), "need at least one center");
        debug_assert!(centers.windows(2).all(|w| w[0] <= w[1]));
        let mut boundaries = Vec::with_capacity(centers.len() + 1);
        boundaries.push(0.0);
        for w in centers.windows(2) {
            boundaries.push(((w[0] + w[1]) / 2.0).clamp(0.0, 1.0));
        }
        boundaries.push(1.0);
        Self {
            boundaries,
            representatives: centers.to_vec(),
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Regions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The region index containing `value` (values are clamped to `[0, 1]`).
    pub fn region_of(&self, value: f64) -> usize {
        let v = value.clamp(0.0, 1.0);
        // partition_point over inner boundaries.
        let idx = self.boundaries[1..self.boundaries.len() - 1].partition_point(|&b| b <= v);
        idx.min(self.len() - 1)
    }

    /// The `[lo, hi)` bounds of region `i` (the last region is `[lo, hi]`).
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        (self.boundaries[i], self.boundaries[i + 1])
    }

    /// All interval boundaries, `0.0 ..= 1.0`.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Representative value of each region.
    pub fn representatives(&self) -> &[f64] {
        &self.representatives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_matches_paper_example() {
        let r = Regions::equal_width(10);
        assert_eq!(r.len(), 10);
        assert_eq!(r.bounds(0), (0.0, 0.1));
        assert_eq!(r.bounds(9), (0.9, 1.0));
        assert_eq!(r.region_of(0.0), 0);
        assert_eq!(r.region_of(0.05), 0);
        assert_eq!(r.region_of(0.1), 1);
        assert_eq!(r.region_of(0.95), 9);
        assert_eq!(r.region_of(1.0), 9); // closed on the right
    }

    #[test]
    fn values_outside_unit_interval_are_clamped() {
        let r = Regions::equal_width(4);
        assert_eq!(r.region_of(-3.0), 0);
        assert_eq!(r.region_of(7.0), 3);
    }

    #[test]
    fn from_centers_voronoi_cells() {
        let r = Regions::from_centers(&[0.2, 0.8]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.boundaries(), &[0.0, 0.5, 1.0]);
        assert_eq!(r.region_of(0.49), 0);
        assert_eq!(r.region_of(0.51), 1);
        assert_eq!(r.representatives(), &[0.2, 0.8]);
    }

    #[test]
    fn single_center_covers_everything() {
        let r = Regions::from_centers(&[0.4]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.region_of(0.0), 0);
        assert_eq!(r.region_of(1.0), 0);
    }

    #[test]
    fn scheme_fit_equal_width_ignores_values() {
        let r = RegionScheme::equal_width_10().fit(&[0.5, 0.6]);
        assert_eq!(r, Regions::equal_width(10));
    }

    #[test]
    fn scheme_fit_kmeans_adapts_to_data() {
        let values = [0.05, 0.1, 0.08, 0.9, 0.95, 0.85];
        let r = RegionScheme::kmeans(2).fit(&values);
        assert_eq!(r.len(), 2);
        // Boundary must sit between the two value groups.
        let b = r.boundaries()[1];
        assert!(b > 0.2 && b < 0.8, "boundary {b}");
    }

    #[test]
    fn scheme_fit_kmeans_empty_values_falls_back() {
        let r = RegionScheme::kmeans(5).fit(&[]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn every_value_maps_to_exactly_one_region() {
        for r in [
            Regions::equal_width(7),
            Regions::from_centers(&[0.1, 0.4, 0.45, 0.99]),
        ] {
            for i in 0..=100 {
                let v = i as f64 / 100.0;
                let reg = r.region_of(v);
                let (lo, hi) = r.bounds(reg);
                let in_region = if reg == r.len() - 1 {
                    v >= lo && v <= hi
                } else {
                    v >= lo && v < hi
                };
                assert!(in_region, "value {v} -> region {reg} [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn boundaries_are_monotone_and_span_unit_interval() {
        let r = RegionScheme::kmeans(4).fit(&[0.2, 0.3, 0.6, 0.61, 0.62, 0.9]);
        let b = r.boundaries();
        assert_eq!(b[0], 0.0);
        assert_eq!(*b.last().unwrap(), 1.0);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
