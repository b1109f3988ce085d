//! Extending the suite with a custom similarity function.
//!
//! The paper's framework is open-ended: "we cannot expect that we can
//! design a single similarity function which would perform optimally in
//! all cases". This example adds an eleventh function — location overlap —
//! plugs it into the resolver next to F1–F10, and shows that the
//! per-region accuracy machinery applies to it unchanged.
//!
//! Run with: `cargo run --release --example custom_similarity`

use std::sync::Arc;

use weber::core::blocking::prepare_dataset;
use weber::core::decision::DecisionCriterion;
use weber::core::resolver::{Resolver, ResolverConfig};
use weber::core::supervision::Supervision;
use weber::corpus::{generate, presets};
use weber::eval::MetricSet;
use weber::ml::regions::RegionScheme;
use weber::simfun::block::PreparedBlock;
use weber::simfun::functions::SimilarityFunction;
use weber::simfun::set_sim::overlap_coefficient;
use weber::textindex::TfIdf;

/// Location overlap: two pages are similar if they mention the same places.
#[derive(Debug, Default, Clone, Copy)]
struct LocationOverlap;

impl SimilarityFunction for LocationOverlap {
    fn name(&self) -> &'static str {
        "location-overlap"
    }
    fn description(&self) -> &'static str {
        "Location entities on the page / number of overlapping locations"
    }
    fn compare(&self, block: &PreparedBlock, i: usize, j: usize) -> f64 {
        overlap_coefficient(&block.features(i).locations, &block.features(j).locations)
    }
}

fn main() {
    let dataset = generate(&presets::tiny(5));
    let prepared = prepare_dataset(&dataset, TfIdf::default());
    let nb = &prepared.blocks[0];
    let supervision = Supervision::sample_from_truth(&nb.truth, 0.2, 3);

    // Baseline: the standard ten functions.
    let standard = Resolver::new(ResolverConfig::default()).expect("valid configuration");
    let base = standard
        .resolve(&nb.block, &supervision)
        .expect("resolution");
    let base_metrics = MetricSet::evaluate(&base.partition, &nb.truth);

    // Extended: the same configuration plus our custom function.
    let extended_config = ResolverConfig::default().with_function(Arc::new(LocationOverlap));
    let extended = Resolver::new(extended_config).expect("valid configuration");
    let ext = extended
        .resolve(&nb.block, &supervision)
        .expect("resolution");
    let ext_metrics = MetricSet::evaluate(&ext.partition, &nb.truth);

    println!(
        "block '{}', {} documents",
        nb.block.query_name(),
        nb.block.len()
    );
    println!(
        "standard suite:  Fp {:.3}  (selected layer {})",
        base_metrics.fp,
        base.selected().map(|l| l.function).unwrap_or("-")
    );
    println!(
        "+ custom layer:  Fp {:.3}  (selected layer {})",
        ext_metrics.fp,
        ext.selected().map(|l| l.function).unwrap_or("-")
    );

    // The accuracy-estimation machinery works on the custom function too:
    // fit k-means regions to its similarity values and print per-region
    // link-existence accuracy, exactly as Figure 1 does for F3.
    let sims = nb.block.similarity_graph(&LocationOverlap);
    let samples = supervision.labeled_values(|i, j| sims.get(i, j));
    let criterion = DecisionCriterion::RegionAccuracy(RegionScheme::kmeans(5));
    let fitted = criterion.fit(&samples);
    println!(
        "\ncustom function under region-accuracy criterion: training accuracy {:.3}",
        fitted.training_accuracy()
    );
    for value in [0.0, 0.5, 1.0] {
        println!(
            "  sim {value:.1} -> link? {}  (estimated link probability {:.3})",
            fitted.decide(value),
            fitted.link_probability(value)
        );
    }
}
