//! Property-based tests for string and set similarity measures.

use std::collections::BTreeSet;

use proptest::prelude::*;

use weber_simfun::set_sim::{dice, jaccard, overlap_coefficient};
use weber_simfun::string_sim::{
    jaro, jaro_winkler, levenshtein, ngram_dice, normalized_levenshtein,
};

fn string_set() -> impl Strategy<Value = BTreeSet<String>> {
    proptest::collection::btree_set("[a-c]{1,3}", 0..8)
}

proptest! {
    #[test]
    fn levenshtein_is_a_metric(a in "[a-d]{0,8}", b in "[a-d]{0,8}", c in "[a-d]{0,8}") {
        // Identity of indiscernibles.
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        // Symmetry.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // Triangle inequality.
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_bounded_by_longer_string(a in ".{0,12}", b in ".{0,12}") {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    #[test]
    fn string_similarities_are_bounded_and_symmetric(a in ".{0,15}", b in ".{0,15}") {
        for (name, f) in [
            ("jaro", jaro as fn(&str, &str) -> f64),
            ("jaro_winkler", jaro_winkler as fn(&str, &str) -> f64),
            ("normalized_levenshtein", normalized_levenshtein as fn(&str, &str) -> f64),
        ] {
            let ab = f(&a, &b);
            let ba = f(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab), "{name}: {ab}");
            prop_assert!((ab - ba).abs() < 1e-12, "{name} asymmetric");
        }
        let nd = ngram_dice(&a, &b, 2);
        prop_assert!((0.0..=1.0).contains(&nd));
        prop_assert!((nd - ngram_dice(&b, &a, 2)).abs() < 1e-12);
    }

    #[test]
    fn identical_strings_are_maximally_similar(a in ".{0,15}") {
        prop_assert_eq!(jaro(&a, &a), 1.0);
        prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        prop_assert_eq!(normalized_levenshtein(&a, &a), 1.0);
        prop_assert_eq!(ngram_dice(&a, &a, 2), 1.0);
    }

    /// F3 and F7 answer equal names with 1.0 without running Jaro–Winkler;
    /// this is the value the full computation gives, to the bit.
    #[test]
    fn jaro_winkler_of_a_string_with_itself_is_exactly_one(a in ".{0,24}") {
        prop_assert_eq!(jaro_winkler(&a, &a).to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(jaro_winkler("", "").to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in "[a-f]{0,10}", b in "[a-f]{0,10}") {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn set_similarities_bounded_symmetric(a in string_set(), b in string_set()) {
        for (name, v, w) in [
            ("overlap", overlap_coefficient(&a, &b), overlap_coefficient(&b, &a)),
            ("jaccard", jaccard(&a, &b), jaccard(&b, &a)),
            ("dice", dice(&a, &b), dice(&b, &a)),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "{name}: {v}");
            prop_assert!((v - w).abs() < 1e-12, "{name} asymmetric");
        }
    }

    #[test]
    fn set_similarity_ordering(a in string_set(), b in string_set()) {
        // jaccard <= dice <= overlap coefficient, always.
        let (j, d, o) = (jaccard(&a, &b), dice(&a, &b), overlap_coefficient(&a, &b));
        prop_assert!(j <= d + 1e-12);
        prop_assert!(d <= o + 1e-12);
    }

    #[test]
    fn identical_nonempty_sets_score_one(a in string_set()) {
        if !a.is_empty() {
            prop_assert_eq!(overlap_coefficient(&a, &a), 1.0);
            prop_assert_eq!(jaccard(&a, &a), 1.0);
            prop_assert_eq!(dice(&a, &a), 1.0);
        }
    }

    #[test]
    fn disjoint_sets_score_zero(a in string_set()) {
        let b: BTreeSet<String> = a.iter().map(|s| format!("zz{s}")).collect();
        prop_assert_eq!(overlap_coefficient(&a, &b), 0.0);
        prop_assert_eq!(jaccard(&a, &b), 0.0);
    }
}
