//! Property-based tests for the region / accuracy / threshold machinery.

use proptest::prelude::*;

use weber_ml::accuracy::AccuracyModel;
use weber_ml::kmeans::kmeans_1d;
use weber_ml::regions::{RegionScheme, Regions};
use weber_ml::sampling::train_test_split;
use weber_ml::threshold::optimal_threshold;
use weber_ml::LabeledValue;

fn samples() -> impl Strategy<Value = Vec<LabeledValue>> {
    proptest::collection::vec((0.0f64..=1.0, proptest::bool::ANY), 0..60).prop_map(|v| {
        v.into_iter()
            .map(|(x, l)| LabeledValue::new(x, l))
            .collect()
    })
}

proptest! {
    #[test]
    fn regions_cover_unit_interval_disjointly(k in 1usize..20, values in proptest::collection::vec(0.0f64..=1.0, 0..40)) {
        for scheme in [RegionScheme::EqualWidth { k }, RegionScheme::kmeans(k)] {
            let regions = scheme.fit(&values);
            // Boundaries monotone, spanning [0, 1].
            let b = regions.boundaries();
            prop_assert_eq!(b[0], 0.0);
            prop_assert_eq!(*b.last().unwrap(), 1.0);
            for w in b.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            // Every value maps into exactly one region whose bounds contain it.
            for i in 0..=50 {
                let v = i as f64 / 50.0;
                let r = regions.region_of(v);
                prop_assert!(r < regions.len());
                let (lo, hi) = regions.bounds(r);
                prop_assert!(v >= lo - 1e-12);
                prop_assert!(v <= hi + 1e-12);
            }
        }
    }

    #[test]
    fn kmeans_centers_are_sorted_and_within_data_range(
        values in proptest::collection::vec(0.0f64..=1.0, 1..60),
        k in 1usize..10,
    ) {
        let km = kmeans_1d(&values, k, 100).unwrap();
        prop_assert!(!km.centers.is_empty());
        prop_assert!(km.centers.len() <= k);
        for w in km.centers.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        for &c in &km.centers {
            prop_assert!(c >= min - 1e-12 && c <= max + 1e-12);
        }
    }

    #[test]
    fn accuracy_model_rates_are_probabilities(data in samples(), k in 1usize..12) {
        let model = AccuracyModel::fit(Regions::equal_width(k), &data);
        for &r in model.link_rates() {
            prop_assert!((0.0..=1.0).contains(&r));
        }
        for i in 0..=20 {
            let v = i as f64 / 20.0;
            let p = model.link_probability(v);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(model.decision_accuracy(v) >= 0.5);
            prop_assert_eq!(model.decide(v), p >= 0.5);
        }
        prop_assert_eq!(model.support().iter().sum::<usize>(), data.len());
    }

    #[test]
    fn region_decisions_are_at_least_as_accurate_as_majority_class(data in samples()) {
        let model = AccuracyModel::fit(Regions::equal_width(10), &data);
        let acc = model.training_accuracy(&data);
        if !data.is_empty() {
            let links = data.iter().filter(|s| s.is_link).count() as f64;
            let majority = (links / data.len() as f64).max(1.0 - links / data.len() as f64);
            // Region-majority decisions can never do worse than the global
            // majority class on the data they were fitted on.
            prop_assert!(acc >= majority - 1e-9, "acc {acc} < majority {majority}");
        }
    }

    #[test]
    fn optimal_threshold_is_optimal(data in samples()) {
        let fit = optimal_threshold(&data);
        // The "link nothing" threshold may be the next float above 1.0.
        prop_assert!(fit.threshold >= 0.0 && fit.threshold <= 1.0f64.next_up());
        if !data.is_empty() {
            // No candidate threshold does better.
            let eval = |t: f64| {
                data.iter().filter(|s| (s.value >= t) == s.is_link).count() as f64
                    / data.len() as f64
            };
            for i in 0..=100 {
                let t = i as f64 / 100.0;
                prop_assert!(
                    fit.training_accuracy >= eval(t) - 1e-9,
                    "threshold {t} beats fit: {} > {}",
                    eval(t),
                    fit.training_accuracy
                );
            }
            prop_assert!((fit.training_accuracy - eval(fit.threshold)).abs() < 1e-9);
        }
    }

    #[test]
    fn train_test_split_partitions_indices(n in 0usize..200, frac in 0.0f64..=1.0, seed in 0u64..100) {
        let (train, test) = train_test_split(n, frac, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n);
        if n > 0 && frac > 0.0 {
            prop_assert!(!train.is_empty());
        }
    }

    #[test]
    fn split_is_seed_deterministic(n in 1usize..100, seed in 0u64..50) {
        prop_assert_eq!(
            train_test_split(n, 0.3, seed),
            train_test_split(n, 0.3, seed)
        );
    }
}
