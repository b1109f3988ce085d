//! Decision criteria `D_j` and their fitted forms.
//!
//! A decision criterion turns a similarity value into a link/no-link
//! decision plus a link-probability estimate. The paper's two families:
//!
//! - a plain **threshold** optimised on the training set (§IV-A, first
//!   paragraph) — the `I*` columns of Table II;
//! - **region accuracy**: partition the value space, estimate per-region
//!   link-existence accuracy, decide by region majority — the `C*` columns.

use serde::{Deserialize, Serialize};
use weber_ml::accuracy::AccuracyModel;
use weber_ml::regions::RegionScheme;
use weber_ml::threshold::{optimal_threshold, ThresholdFit};
use weber_ml::LabeledValue;

/// An (unfitted) decision criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionCriterion {
    /// Optimal threshold on the training set.
    Threshold,
    /// Per-region accuracy estimation with the given region scheme.
    RegionAccuracy(RegionScheme),
    /// Input-partitioned thresholds (feature-presence cells). Fitting this
    /// variant needs pair context, so it is built by
    /// [`build_input_partitioned_layers`](crate::layers::build_input_partitioned_layers)
    /// rather than [`fit`](Self::fit); calling `fit` on it falls back to a
    /// plain threshold.
    InputPartitioned,
}

impl DecisionCriterion {
    /// The paper's standard criterion set: threshold, 10 equal-width
    /// regions, and k-means regions with 10 clusters.
    pub fn standard_set() -> Vec<DecisionCriterion> {
        vec![
            DecisionCriterion::Threshold,
            DecisionCriterion::RegionAccuracy(RegionScheme::equal_width_10()),
            DecisionCriterion::RegionAccuracy(RegionScheme::kmeans(10)),
        ]
    }

    /// Short label for reports, e.g. `"thr"`, `"eq10"`, `"km10"`.
    pub fn label(&self) -> String {
        match self {
            DecisionCriterion::Threshold => "thr".to_string(),
            DecisionCriterion::RegionAccuracy(RegionScheme::EqualWidth { k }) => {
                format!("eq{k}")
            }
            DecisionCriterion::RegionAccuracy(RegionScheme::KMeans { k, .. }) => {
                format!("km{k}")
            }
            DecisionCriterion::InputPartitioned => "input".to_string(),
        }
    }

    /// Fit the criterion to a training sample.
    pub fn fit(&self, samples: &[LabeledValue]) -> FittedDecision {
        match self {
            DecisionCriterion::Threshold | DecisionCriterion::InputPartitioned => {
                FittedDecision::Threshold {
                    fit: optimal_threshold(samples),
                }
            }
            DecisionCriterion::RegionAccuracy(scheme) => {
                let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
                let regions = scheme.fit(&values);
                let model = AccuracyModel::fit(regions, samples);
                let training_accuracy = model.training_accuracy(samples);
                FittedDecision::Regions {
                    model,
                    training_accuracy,
                }
            }
        }
    }
}

/// A fitted decision: maps similarity values to decisions and link
/// probabilities.
///
/// Serialises exactly: every fitted value is finite, and a JSON number
/// written by the shortest round-trip `Display` parses back to the same
/// bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedDecision {
    /// Fitted threshold.
    Threshold {
        /// The threshold and its training accuracy.
        fit: ThresholdFit,
    },
    /// Fitted per-region accuracy model.
    Regions {
        /// The accuracy model.
        model: AccuracyModel,
        /// Overall training accuracy of the region decisions.
        training_accuracy: f64,
    },
    /// Input-partitioned thresholds (§IV-A's "regions based on some
    /// properties of the input"): one threshold for pairs where both pages
    /// carry the function's feature, another for pairs where at least one
    /// page lacks it. Built by
    /// [`build_input_partitioned_layers`](crate::layers::build_input_partitioned_layers);
    /// the value-only [`decide`](Self::decide) falls back to the
    /// feature-present fit.
    InputCells {
        /// Fit for pairs where both pages carry the feature.
        present: ThresholdFit,
        /// Fit for pairs where at least one page lacks the feature.
        missing: ThresholdFit,
        /// Overall training accuracy across both cells.
        training_accuracy: f64,
    },
}

impl FittedDecision {
    /// Link / no-link decision for a similarity value.
    pub fn decide(&self, value: f64) -> bool {
        match self {
            FittedDecision::Threshold { fit } => fit.decide(value),
            FittedDecision::Regions { model, .. } => model.decide(value),
            FittedDecision::InputCells { present, .. } => present.decide(value),
        }
    }

    /// Link / no-link decision for a similarity value in a given input
    /// cell (`true` = both pages carry the feature). Identical to
    /// [`decide`](Self::decide) for the value-based criteria.
    pub fn decide_in_cell(&self, value: f64, both_present: bool) -> bool {
        match self {
            FittedDecision::InputCells {
                present, missing, ..
            } => {
                if both_present {
                    present.decide(value)
                } else {
                    missing.decide(value)
                }
            }
            other => other.decide(value),
        }
    }

    /// Link probability for a value in a given input cell.
    pub fn link_probability_in_cell(&self, value: f64, both_present: bool) -> f64 {
        match self {
            FittedDecision::InputCells {
                present, missing, ..
            } => {
                let fit = if both_present { present } else { missing };
                if fit.decide(value) {
                    fit.training_accuracy
                } else {
                    1.0 - fit.training_accuracy
                }
            }
            other => other.link_probability(value),
        }
    }

    /// Estimated probability that a pair with this similarity value is a
    /// link. For the threshold criterion this is the (constant) training
    /// accuracy on the decided side; for regions it is the region's
    /// link-existence rate.
    pub fn link_probability(&self, value: f64) -> f64 {
        match self {
            FittedDecision::Threshold { fit } => {
                if fit.decide(value) {
                    fit.training_accuracy
                } else {
                    1.0 - fit.training_accuracy
                }
            }
            FittedDecision::Regions { model, .. } => model.link_probability(value),
            FittedDecision::InputCells { present, .. } => {
                if present.decide(value) {
                    present.training_accuracy
                } else {
                    1.0 - present.training_accuracy
                }
            }
        }
    }

    /// Overall training accuracy — the paper's `acc(G^i_{D_j})`, used as
    /// the layer weight and by best-graph selection.
    pub fn training_accuracy(&self) -> f64 {
        match self {
            FittedDecision::Threshold { fit } => fit.training_accuracy,
            FittedDecision::Regions {
                training_accuracy, ..
            } => *training_accuracy,
            FittedDecision::InputCells {
                training_accuracy, ..
            } => *training_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Vec<LabeledValue> {
        (0..40)
            .map(|i| LabeledValue::new(i as f64 / 100.0, false))
            .chain((60..100).map(|i| LabeledValue::new(i as f64 / 100.0, true)))
            .collect()
    }

    /// Training data a single threshold cannot classify: links live in a
    /// *band* of mid similarity values, non-links on both sides. (This
    /// happens in practice when missing features deflate true-pair values.)
    fn banded() -> Vec<LabeledValue> {
        let mut v = Vec::new();
        for i in 0..30 {
            v.push(LabeledValue::new(0.05 + i as f64 * 0.003, false));
        }
        for i in 0..30 {
            v.push(LabeledValue::new(0.45 + i as f64 * 0.003, true));
        }
        for i in 0..30 {
            v.push(LabeledValue::new(0.85 + i as f64 * 0.003, false));
        }
        v
    }

    #[test]
    fn threshold_fits_separable_data() {
        let fit = DecisionCriterion::Threshold.fit(&separable());
        assert_eq!(fit.training_accuracy(), 1.0);
        assert!(fit.decide(0.9));
        assert!(!fit.decide(0.1));
        assert!(fit.link_probability(0.9) > fit.link_probability(0.1));
    }

    #[test]
    fn regions_fit_separable_data() {
        let c = DecisionCriterion::RegionAccuracy(RegionScheme::equal_width_10());
        let fit = c.fit(&separable());
        assert_eq!(fit.training_accuracy(), 1.0);
        assert!(fit.decide(0.95));
        assert!(!fit.decide(0.05));
    }

    #[test]
    fn regions_beat_threshold_on_banded_data() {
        let data = banded();
        let thr = DecisionCriterion::Threshold.fit(&data);
        let reg = DecisionCriterion::RegionAccuracy(RegionScheme::equal_width_10()).fit(&data);
        assert!(
            reg.training_accuracy() > thr.training_accuracy(),
            "regions {} must beat threshold {}",
            reg.training_accuracy(),
            thr.training_accuracy()
        );
        // Regions correctly reject the high-similarity non-links.
        assert!(!reg.decide(0.9));
        assert!(reg.decide(0.5));
    }

    #[test]
    fn threshold_link_probability_is_two_sided() {
        let fit = DecisionCriterion::Threshold.fit(&separable());
        let p_hi = fit.link_probability(0.9);
        let p_lo = fit.link_probability(0.1);
        assert!((p_hi + p_lo - 1.0).abs() < 1e-9 || p_hi >= p_lo);
    }

    #[test]
    fn kmeans_regions_fit() {
        let c = DecisionCriterion::RegionAccuracy(RegionScheme::kmeans(4));
        let fit = c.fit(&separable());
        assert!(fit.training_accuracy() > 0.9);
    }

    #[test]
    fn empty_training_set_gives_uninformative_fits() {
        for c in DecisionCriterion::standard_set() {
            let fit = c.fit(&[]);
            assert_eq!(fit.training_accuracy(), 0.5, "{}", c.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<String> = DecisionCriterion::standard_set()
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels, vec!["thr", "eq10", "km10"]);
        assert_eq!(DecisionCriterion::InputPartitioned.label(), "input");
    }

    #[test]
    fn input_cells_decide_per_cell() {
        use weber_ml::threshold::ThresholdFit;
        let fitted = FittedDecision::InputCells {
            present: ThresholdFit {
                threshold: 0.6,
                training_accuracy: 0.9,
            },
            missing: ThresholdFit {
                threshold: 0.2,
                training_accuracy: 0.7,
            },
            training_accuracy: 0.85,
        };
        // Same value, different cells, different decisions.
        assert!(!fitted.decide_in_cell(0.4, true));
        assert!(fitted.decide_in_cell(0.4, false));
        // Value-only decide falls back to the present cell.
        assert!(!fitted.decide(0.4));
        assert!(fitted.decide(0.7));
        // Link probabilities are directional per cell.
        assert!((fitted.link_probability_in_cell(0.7, true) - 0.9).abs() < 1e-12);
        assert!((fitted.link_probability_in_cell(0.1, false) - 0.3).abs() < 1e-12);
        assert_eq!(fitted.training_accuracy(), 0.85);
    }

    #[test]
    fn input_partitioned_fit_falls_back_to_threshold() {
        let fit = DecisionCriterion::InputPartitioned.fit(&separable());
        assert!(matches!(fit, FittedDecision::Threshold { .. }));
        assert_eq!(fit.training_accuracy(), 1.0);
    }

    #[test]
    fn value_criteria_ignore_the_cell() {
        let fit = DecisionCriterion::Threshold.fit(&separable());
        for v in [0.1, 0.5, 0.9] {
            assert_eq!(fit.decide_in_cell(v, true), fit.decide(v));
            assert_eq!(fit.decide_in_cell(v, false), fit.decide(v));
            assert_eq!(
                fit.link_probability_in_cell(v, true),
                fit.link_probability(v)
            );
        }
    }
}
