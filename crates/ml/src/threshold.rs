//! Optimal threshold selection (§IV-A).
//!
//! "For each function we have chosen such a threshold, using the estimates
//! from a small training sample … We have chosen a threshold, which — based
//! on the training set — maximizes the number of correct decisions."

use serde::{Deserialize, Serialize};

use crate::LabeledValue;

/// A fitted threshold and its training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdFit {
    /// Decide "link" iff `value >= threshold`.
    pub threshold: f64,
    /// Fraction of training samples classified correctly at this threshold.
    pub training_accuracy: f64,
}

impl ThresholdFit {
    /// Apply the fitted threshold.
    pub fn decide(&self, value: f64) -> bool {
        value >= self.threshold
    }
}

/// Find the threshold in `[0, 1]` maximising the number of correct
/// link/no-link decisions on `samples`.
///
/// ```
/// use weber_ml::{optimal_threshold, LabeledValue};
///
/// let samples = vec![
///     LabeledValue::new(0.2, false),
///     LabeledValue::new(0.3, false),
///     LabeledValue::new(0.8, true),
///     LabeledValue::new(0.9, true),
/// ];
/// let fit = optimal_threshold(&samples);
/// assert_eq!(fit.training_accuracy, 1.0);
/// assert!(!fit.decide(0.3));
/// assert!(fit.decide(0.8));
/// ```
///
/// Candidate thresholds are 0.0 and the midpoints between consecutive
/// distinct sample values plus a point just above the maximum — sweeping
/// these visits every achievable classification. Ties prefer the *highest*
/// threshold (more conservative linking); the "link nothing" threshold may
/// therefore be the next float above 1.0. An empty training set yields the
/// uninformative threshold 0.5 with accuracy 0.5.
pub fn optimal_threshold(samples: &[LabeledValue]) -> ThresholdFit {
    if samples.is_empty() {
        return ThresholdFit {
            threshold: 0.5,
            training_accuracy: 0.5,
        };
    }
    let mut sorted: Vec<LabeledValue> = samples.to_vec();
    sorted.sort_by(|a, b| a.value.total_cmp(&b.value));
    let total = sorted.len();
    let total_links = sorted.iter().filter(|s| s.is_link).count();

    // Sweep thresholds from low to high. At threshold t, everything with
    // value >= t is predicted "link". Start below the minimum: correct =
    // number of links. Each time the threshold passes a sample, that sample
    // flips to "no link": links lose a correct, non-links gain one.
    let mut correct = total_links;
    let mut best_correct = correct;
    let mut best_threshold = 0.0f64;
    let mut i = 0;
    while i < sorted.len() {
        // Advance over all samples sharing this value.
        let v = sorted[i].value;
        while i < sorted.len() && sorted[i].value == v {
            if sorted[i].is_link {
                correct -= 1;
            } else {
                correct += 1;
            }
            i += 1;
        }
        // Candidate threshold just above v: midpoint to the next distinct
        // value, or the next representable float past the maximum — using
        // the maximum itself would wrongly re-link the values at it (a
        // similarity of exactly 1.0 between pages about different people is
        // common, e.g. identical most-frequent names).
        let candidate = if i < sorted.len() {
            (v + sorted[i].value) / 2.0
        } else {
            v.next_up()
        };
        if correct >= best_correct {
            best_correct = correct;
            best_threshold = candidate;
        }
    }
    ThresholdFit {
        threshold: best_threshold,
        training_accuracy: best_correct as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(value: f64, link: bool) -> LabeledValue {
        LabeledValue::new(value, link)
    }

    #[test]
    fn separable_data_is_classified_perfectly() {
        let samples = vec![
            lv(0.1, false),
            lv(0.2, false),
            lv(0.3, false),
            lv(0.7, true),
            lv(0.8, true),
        ];
        let fit = optimal_threshold(&samples);
        assert_eq!(fit.training_accuracy, 1.0);
        assert!(fit.threshold > 0.3 && fit.threshold <= 0.7);
        assert!(!fit.decide(0.3));
        assert!(fit.decide(0.7));
    }

    #[test]
    fn all_links_gives_zero_threshold() {
        let samples = vec![lv(0.2, true), lv(0.9, true)];
        let fit = optimal_threshold(&samples);
        assert_eq!(fit.training_accuracy, 1.0);
        assert!(fit.decide(0.2));
        assert!(fit.decide(0.05)); // threshold 0 links everything
    }

    #[test]
    fn all_nonlinks_links_nothing() {
        let samples = vec![lv(0.2, false), lv(0.9, false)];
        let fit = optimal_threshold(&samples);
        assert_eq!(fit.training_accuracy, 1.0);
        assert!(!fit.decide(0.9));
        assert!(!fit.decide(0.2));
    }

    #[test]
    fn noisy_data_picks_majority_optimum() {
        // One mislabeled point below; best threshold still splits high/low.
        let samples = vec![
            lv(0.1, false),
            lv(0.15, true), // noise
            lv(0.2, false),
            lv(0.8, true),
            lv(0.9, true),
        ];
        let fit = optimal_threshold(&samples);
        assert!((fit.training_accuracy - 0.8).abs() < 1e-12);
        assert!(fit.threshold > 0.2 && fit.threshold <= 0.8);
    }

    #[test]
    fn duplicate_values_are_atomic() {
        // Threshold cannot split samples sharing a value.
        let samples = vec![lv(0.5, true), lv(0.5, false), lv(0.5, true)];
        let fit = optimal_threshold(&samples);
        // Either all linked (2/3 correct) or none (1/3): must pick 2/3.
        assert!((fit.training_accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert!(fit.decide(0.5));
    }

    #[test]
    fn max_value_nonlinks_are_classified_correctly() {
        // A similarity of exactly 1.0 between different-person pages must
        // be excludable: the fitted threshold lies above 1.0 and the
        // reported accuracy matches the actual decisions.
        let fit = optimal_threshold(&[lv(1.0, false)]);
        assert!(!fit.decide(1.0));
        assert_eq!(fit.training_accuracy, 1.0);
        let fit = optimal_threshold(&[lv(1.0, false), lv(1.0, false), lv(0.2, false)]);
        assert!(!fit.decide(1.0));
        assert_eq!(fit.training_accuracy, 1.0);
    }

    #[test]
    fn empty_training_set_is_uninformative() {
        let fit = optimal_threshold(&[]);
        assert_eq!(fit.threshold, 0.5);
        assert_eq!(fit.training_accuracy, 0.5);
    }

    #[test]
    fn accuracy_is_maximum_over_brute_force() {
        let samples = vec![
            lv(0.12, false),
            lv(0.33, true),
            lv(0.41, false),
            lv(0.55, true),
            lv(0.62, false),
            lv(0.71, true),
            lv(0.93, true),
        ];
        let fit = optimal_threshold(&samples);
        let brute = (0..=100)
            .map(|i| {
                let t = i as f64 / 100.0;
                samples
                    .iter()
                    .filter(|s| (s.value >= t) == s.is_link)
                    .count()
            })
            .max()
            .unwrap();
        assert!((fit.training_accuracy - brute as f64 / samples.len() as f64).abs() < 1e-12);
    }
}
