#![warn(missing_docs)]

//! # weber-ml
//!
//! The "simple machine learning techniques" of the paper (§IV-A):
//!
//! - [`kmeans`] — 1-D k-means over similarity values;
//! - [`regions`] — partitioning the value space `[0, 1]` into regions,
//!   either equal-width intervals or k-means-derived cells;
//! - [`accuracy`] — per-region accuracy estimation from a training sample
//!   ("Accuracy for a region is … the percentage of the sample points
//!   representing link existence");
//! - [`threshold`] — choosing the decision threshold that "maximizes the
//!   number of correct decisions" on the training set;
//! - [`sampling`] — seeded random train/test splits (the paper uses 10%
//!   training, averaged over 5 random draws).

pub mod accuracy;
pub mod kmeans;
pub mod regions;
pub mod sampling;
pub mod threshold;

pub use accuracy::AccuracyModel;
pub use kmeans::{kmeans_1d, KMeans1d};
pub use regions::{RegionScheme, Regions};
pub use sampling::train_test_split;
pub use threshold::{optimal_threshold, ThresholdFit};

/// A labelled training observation: a similarity value and whether the
/// document pair truly co-refers ("link existence").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledValue {
    /// Similarity value in `[0, 1]`.
    pub value: f64,
    /// True if the pair refers to the same person.
    pub is_link: bool,
}

impl LabeledValue {
    /// Convenience constructor.
    pub fn new(value: f64, is_link: bool) -> Self {
        Self { value, is_link }
    }
}
