//! The batch pipeline's layers, timed one public call at a time on whole
//! blocks: `weber-simfun` block preparation and the ten similarity
//! graphs (cold, then served from the block's cache), `weber-core` layer
//! building, combination + clustering, `Resolver::resolve` and
//! `Resolver::train`, and `weber-eval`'s Fp.

use weber_core::layers::{build_layers_with, LayerOptions};
use weber_core::resolver::{Resolver, ResolverConfig};
use weber_core::supervision::Supervision;
use weber_extract::features::PageFeatures;
use weber_extract::pipeline::Extractor;
use weber_graph::Partition;
use weber_simfun::block::{PreparedBlock, WordVectorScheme};

use crate::inputs::{Corpus, NameInput};
use crate::trace::Tracer;

/// Span names of the kernel pass.
pub mod span {
    /// `Extractor::extract` of one page.
    pub const EXTRACT: &str = "extract.extract";
    /// `PreparedBlock::with_scheme` of one block.
    pub const PREPARE: &str = "simfun.block.prepare";
    /// `similarity_graph_with(F_k, None)` on a cold block, k = 1..=10.
    pub const GRAPH: [&str; 10] = [
        "simfun.graph.f1",
        "simfun.graph.f2",
        "simfun.graph.f3",
        "simfun.graph.f4",
        "simfun.graph.f5",
        "simfun.graph.f6",
        "simfun.graph.f7",
        "simfun.graph.f8",
        "simfun.graph.f9",
        "simfun.graph.f10",
    ];
    /// The same call again, served from the block's cache.
    pub const GRAPH_CACHED: &str = "simfun.graph_cached";
    /// `build_layers_with` over the cached graphs.
    pub const LAYERS: &str = "core.layers.build";
    /// `CombinationStrategy::combine` then `ClusteringMethod::cluster`.
    pub const COMBINE_CLUSTER: &str = "core.combine_cluster";
    /// `Resolver::resolve` on a fresh (cold) block.
    pub const RESOLVE: &str = "core.resolver.resolve";
    /// `Resolver::train` on a fresh (cold) block.
    pub const TRAIN: &str = "core.trained.train";
    /// `fp_measure` of one resolution.
    pub const FP: &str = "eval.fp";
    /// Parent of one block's spans.
    pub const BLOCK: &str = "kernels.block";
}

/// Result of the kernel pass.
pub struct KernelPass {
    /// The spans; the op id of a span is the block's index.
    pub tracer: Tracer,
    /// Document pairs scored by the cold graph builds (all ten functions).
    pub pairs: u64,
}

fn block_of(name: &NameInput, features: &[PageFeatures]) -> PreparedBlock {
    PreparedBlock::with_scheme(
        name.name.clone(),
        features.to_vec(),
        WordVectorScheme::default(),
    )
}

/// Time every kernel once per name of `corpus`, on the name's whole
/// block, with the paper's 10 % supervision drawn with `seed`.
pub fn run(corpus: &Corpus, seed: u64) -> KernelPass {
    let extractor = Extractor::new(&corpus.gazetteer);
    let config = ResolverConfig::default();
    let resolver = Resolver::new(config.clone()).expect("the default config is valid");
    let mut tracer = Tracer::new();
    let mut pairs = 0u64;
    for (b, name) in corpus.names.iter().enumerate() {
        tracer.span(span::BLOCK, b, |t| {
            let features: Vec<PageFeatures> = name
                .docs
                .iter()
                .map(|d| {
                    t.span(span::EXTRACT, b, |_| {
                        extractor.extract(&d.text, d.url.as_deref())
                    })
                })
                .collect();
            let truth = Partition::from_labels(name.truth.clone());
            let supervision =
                Supervision::sample_from_truth(&truth, crate::workloads::TRAIN_FRACTION, seed);
            let copy = features.clone();
            let block = t.span(span::PREPARE, b, |_| {
                PreparedBlock::with_scheme(name.name.clone(), copy, WordVectorScheme::default())
            });
            for (f, label) in config.functions.iter().zip(span::GRAPH) {
                std::hint::black_box(
                    t.span(label, b, |_| block.similarity_graph_with(f.as_ref(), None)),
                );
            }
            let n = block.len() as u64;
            pairs += n * n.saturating_sub(1) / 2 * config.functions.len() as u64;
            for f in &config.functions {
                std::hint::black_box(t.span(span::GRAPH_CACHED, b, |_| {
                    block.similarity_graph_with(f.as_ref(), None)
                }));
            }
            let layers = t.span(span::LAYERS, b, |_| {
                build_layers_with(
                    &block,
                    &config.functions,
                    &config.criteria,
                    &supervision,
                    LayerOptions::default(),
                )
            });
            std::hint::black_box(t.span(span::COMBINE_CLUSTER, b, |_| {
                let combined = config
                    .combination
                    .combine(&layers, &supervision, block.len());
                config.clustering.cluster(&combined)
            }));
            let cold = block_of(name, &features);
            let resolution = t
                .span(span::RESOLVE, b, |_| resolver.resolve(&cold, &supervision))
                .expect("sampled supervision is valid");
            let cold = block_of(name, &features);
            std::hint::black_box(
                t.span(span::TRAIN, b, |_| resolver.train(&cold, &supervision))
                    .expect("sampled supervision is valid"),
            );
            std::hint::black_box(t.span(span::FP, b, |_| {
                weber_eval::fp_measure(&resolution.partition, &truth)
            }));
        });
    }
    KernelPass { tracer, pairs }
}
