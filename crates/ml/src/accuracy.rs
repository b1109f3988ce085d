//! Per-region accuracy estimation (§IV-A).
//!
//! "Based on the training set, for each region we compute an accuracy
//! estimate. From the training sample set, each region would contain certain
//! sample points corresponding to link existence and non-existence. Accuracy
//! for a region is then defined as the percentage of the sample points
//! representing link existence. If this value is lower than 0.5 then it
//! suggests that the majority pairs should not be considered as a link."

use serde::{Deserialize, Serialize};

use crate::regions::Regions;
use crate::LabeledValue;

/// A fitted accuracy model: link-existence probability per value region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyModel {
    regions: Regions,
    /// Estimated probability of link existence per region.
    link_rate: Vec<f64>,
    /// Number of training samples per region.
    support: Vec<usize>,
    /// Global link rate, used as a prior for unsupported regions.
    global_rate: f64,
}

impl AccuracyModel {
    /// Fit the model: bucket every training sample into its region and
    /// compute the per-region link-existence rate.
    ///
    /// Regions with no training samples fall back to the global link rate
    /// over the whole training set (or 0.5 when the training set is empty —
    /// maximal uncertainty).
    pub fn fit(regions: Regions, samples: &[LabeledValue]) -> Self {
        let k = regions.len();
        let mut links = vec![0usize; k];
        let mut support = vec![0usize; k];
        let mut total_links = 0usize;
        for s in samples {
            let r = regions.region_of(s.value);
            support[r] += 1;
            if s.is_link {
                links[r] += 1;
                total_links += 1;
            }
        }
        let global_rate = if samples.is_empty() {
            0.5
        } else {
            total_links as f64 / samples.len() as f64
        };
        let link_rate = links
            .iter()
            .zip(&support)
            .map(|(&l, &n)| {
                if n == 0 {
                    global_rate
                } else {
                    l as f64 / n as f64
                }
            })
            .collect();
        Self {
            regions,
            link_rate,
            support,
            global_rate,
        }
    }

    /// Estimated probability that a pair with similarity `value` is a link.
    pub fn link_probability(&self, value: f64) -> f64 {
        self.link_rate[self.regions.region_of(value)]
    }

    /// The decision implied by the model: link iff the region's link rate is
    /// at least 0.5 (the paper: "if this value is lower than 0.5 … the
    /// majority pairs should not be considered as a link").
    pub fn decide(&self, value: f64) -> bool {
        self.link_probability(value) >= 0.5
    }

    /// The decision's *confidence*: how far the region's rate is from the
    /// uninformative 0.5, mapped to `[0.5, 1]` — i.e. the estimated
    /// probability that the decision (whichever way) is correct.
    pub fn decision_accuracy(&self, value: f64) -> f64 {
        let p = self.link_probability(value);
        p.max(1.0 - p)
    }

    /// The fitted regions.
    pub fn regions(&self) -> &Regions {
        &self.regions
    }

    /// Per-region link rates (aligned with `regions()`).
    pub fn link_rates(&self) -> &[f64] {
        &self.link_rate
    }

    /// Training sample count per region.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// The overall link rate of the training sample.
    pub fn global_rate(&self) -> f64 {
        self.global_rate
    }

    /// True when the parts agree in shape: at least one region, one more
    /// boundary than regions, and one rate and one support count per
    /// region. A fitted model always is; a decoded one must be checked
    /// before use, because every lookup indexes by region.
    pub fn is_well_formed(&self) -> bool {
        let k = self.regions.representatives().len();
        k > 0
            && self.regions.boundaries().len() == k + 1
            && self.link_rate.len() == k
            && self.support.len() == k
    }

    /// Overall training accuracy of this model's decisions: the fraction of
    /// training samples its region decisions classify correctly.
    pub fn training_accuracy(&self, samples: &[LabeledValue]) -> f64 {
        if samples.is_empty() {
            return 0.5;
        }
        let correct = samples
            .iter()
            .filter(|s| self.decide(s.value) == s.is_link)
            .count();
        correct as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::RegionScheme;

    fn lv(value: f64, link: bool) -> LabeledValue {
        LabeledValue::new(value, link)
    }

    #[test]
    fn per_region_rates_match_hand_count() {
        let samples = vec![
            lv(0.05, false),
            lv(0.08, false),
            lv(0.09, true),
            lv(0.95, true),
            lv(0.92, true),
            lv(0.98, false),
        ];
        let m = AccuracyModel::fit(Regions::equal_width(10), &samples);
        assert!((m.link_probability(0.07) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.link_probability(0.93) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.support()[0], 3);
        assert_eq!(m.support()[9], 3);
    }

    #[test]
    fn empty_regions_fall_back_to_global_rate() {
        let samples = vec![lv(0.1, true), lv(0.1, false), lv(0.1, false)];
        let m = AccuracyModel::fit(Regions::equal_width(10), &samples);
        // Region [0.5, 0.6) has no samples -> global 1/3.
        assert!((m.link_probability(0.55) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_training_set_is_maximally_uncertain() {
        let m = AccuracyModel::fit(Regions::equal_width(5), &[]);
        assert_eq!(m.link_probability(0.7), 0.5);
        assert_eq!(m.global_rate(), 0.5);
        assert_eq!(m.training_accuracy(&[]), 0.5);
    }

    #[test]
    fn decide_follows_majority() {
        let samples = vec![
            lv(0.2, false),
            lv(0.25, false),
            lv(0.21, true),
            lv(0.8, true),
            lv(0.85, true),
            lv(0.81, false),
        ];
        let m = AccuracyModel::fit(Regions::equal_width(2), &samples);
        assert!(!m.decide(0.3));
        assert!(m.decide(0.7));
    }

    #[test]
    fn decision_accuracy_is_majority_share() {
        let samples = vec![lv(0.1, false), lv(0.12, false), lv(0.13, true)];
        let m = AccuracyModel::fit(Regions::equal_width(10), &samples);
        // rate 1/3 -> decision "no link" with accuracy 2/3.
        assert!((m.decision_accuracy(0.11) - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.decision_accuracy(0.11) >= 0.5);
    }

    #[test]
    fn training_accuracy_perfectly_separable() {
        let samples: Vec<_> = (0..50)
            .map(|i| lv(i as f64 / 100.0, false))
            .chain((51..100).map(|i| lv(i as f64 / 100.0, true)))
            .collect();
        let m = AccuracyModel::fit(Regions::equal_width(10), &samples);
        assert!((m.training_accuracy(&samples) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kmeans_regions_capture_skewed_distribution() {
        // Most mass near 0 with a small high-similarity cluster of links —
        // k-means regions adapt, equal-width would put them all in one bin.
        let mut samples: Vec<LabeledValue> = (0..90)
            .map(|i| lv(0.01 + (i as f64) * 0.001, false))
            .collect();
        samples.extend((0..10).map(|i| lv(0.95 + (i as f64) * 0.001, true)));
        let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
        let regions = RegionScheme::kmeans(4).fit(&values);
        let m = AccuracyModel::fit(regions, &samples);
        assert_eq!(m.link_probability(0.96), 1.0);
        assert_eq!(m.link_probability(0.05), 0.0);
    }

    #[test]
    fn json_roundtrip_is_exact_and_shape_is_checked() {
        let samples: Vec<_> = (0..30)
            .map(|i| lv((i as f64).sqrt() / 6.0, i % 4 == 0))
            .collect();
        let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
        let m = AccuracyModel::fit(RegionScheme::kmeans(5).fit(&values), &samples);
        assert!(m.is_well_formed());
        let back: AccuracyModel =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
        let mut value = serde_json::to_value(&m).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "support");
            fields.push(("support".into(), serde::Value::Array(Vec::new())));
        }
        let short: AccuracyModel = serde_json::from_value(&value).unwrap();
        assert!(!short.is_well_formed());
    }

    #[test]
    fn rates_are_probabilities() {
        let samples: Vec<_> = (0..100)
            .map(|i| lv((i as f64) / 100.0, i % 3 == 0))
            .collect();
        let m = AccuracyModel::fit(Regions::equal_width(10), &samples);
        for &r in m.link_rates() {
            assert!((0.0..=1.0).contains(&r));
        }
    }
}
