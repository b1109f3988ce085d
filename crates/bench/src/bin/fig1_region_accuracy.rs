//! Figure 1: "Accuracy of a similarity function" — per-region accuracy of
//! link existence for k-means-generated regions, for the most-frequent-name
//! function F3 on the "cohen" block of the WWW'05-like dataset.
//!
//! Prints one row per region: its representative (cluster head), its
//! boundaries, training support, and the estimated accuracy of link
//! existence — the series plotted in the paper's Figure 1.

use weber_bench::{fmt, prepared_www05, print_table, DEFAULT_SEED};
use weber_core::supervision::Supervision;
use weber_ml::accuracy::AccuracyModel;
use weber_ml::regions::RegionScheme;
use weber_simfun::functions::{function, FunctionId};

fn main() {
    let _manifest = weber_bench::manifest(
        "fig1_region_accuracy",
        DEFAULT_SEED,
        "F3 on the cohen block, 10 percent training, region accuracy estimates",
    );
    let prepared = prepared_www05(DEFAULT_SEED);
    let target = prepared
        .blocks
        .iter()
        .find(|b| b.block.query_name() == "cohen")
        .expect("the www05-like preset contains a 'cohen' block");

    let sims = target
        .block
        .similarity_graph(function(FunctionId::F3).as_ref());
    let supervision = Supervision::sample_from_truth(&target.truth, 0.1, 1);
    let samples = supervision.labeled_values(|i, j| sims.get(i, j));
    let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
    let regions = RegionScheme::kmeans(10).fit(&values);
    let model = AccuracyModel::fit(regions, &samples);

    println!("Figure 1 — accuracy of link existence per k-means region");
    println!(
        "function F3 (most frequent name), name 'cohen', {} documents, {} training pairs",
        target.block.len(),
        samples.len()
    );
    println!();
    let rows: Vec<Vec<String>> = (0..model.regions().len())
        .map(|r| {
            let (lo, hi) = model.regions().bounds(r);
            vec![
                format!("{r}"),
                fmt(model.regions().representatives()[r]),
                format!("[{}, {})", fmt(lo), fmt(hi)),
                format!("{}", model.support()[r]),
                fmt(model.link_rates()[r]),
            ]
        })
        .collect();
    print_table(
        &["region", "center", "bounds", "support", "accuracy"],
        &rows,
    );
    println!();
    println!(
        "training accuracy of the region decisions: {}",
        fmt(model.training_accuracy(&samples))
    );
    println!(
        "(the variation across regions is the paper's point: a single\n\
         threshold wastes the regions where the function is reliable)"
    );
}
