//! Evidence layers: one per (similarity function, decision criterion).
//!
//! Steps 1–4 of Algorithm 1: compute `G_w^{f_i}`, fit each decision
//! criterion on the training pairs, derive the decision graph `G^i_{D_j}`
//! and its accuracy estimate `acc(G^i_{D_j})`.
//!
//! A layer comes in two parts. What *selection* reads — the fitted
//! decision, its training accuracy, the training Fp of its closure and its
//! edge count — is a [`LayerScore`], computed in one pass over the cached
//! similarity graph into a union-find, with no graph of its own. What
//! *combination and clustering* read — the decision graph and the
//! link-probability graph — is an [`EvidenceLayer`], materialised from a
//! score. Best-graph resolution and training score every layer and
//! materialise at most the winner; the strategies that overlay all layers
//! materialise all of them ([`build_layers`]). Both go through the
//! same per-function routine, so there is one place that fits and scores.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use weber_eval::purity::fp_measure;
use weber_graph::components::connected_components;
use weber_graph::decision::DecisionGraph;
use weber_graph::multigraph::Layer;
use weber_graph::weighted::WeightedGraph;
use weber_graph::{Partition, UnionFind};

use weber_simfun::block::PreparedBlock;
use weber_simfun::functions::SimilarityFunction;

use crate::decision::{DecisionCriterion, FittedDecision};
use crate::supervision::Supervision;

/// What best-graph selection and the layer reports read of a layer: the
/// fitted decision and its quality estimates, with no block-sized graph.
#[derive(Debug, Clone)]
pub struct LayerScore {
    /// Name of the similarity function that produced it (`"F1"`–`"F10"`
    /// for the standard suite, or a custom function's name).
    pub function: &'static str,
    /// Which decision criterion was applied.
    pub criterion: DecisionCriterion,
    /// The fitted decision.
    pub fitted: FittedDecision,
    /// Overall accuracy estimate `acc(G^i_{D_j})` (layer weight).
    pub accuracy: f64,
    /// Estimated end-to-end quality of the layer as a resolution: the
    /// Fp-measure of its transitively closed decision graph, restricted to
    /// the training documents. Best-graph selection uses this — pairwise
    /// accuracy alone is a poor proxy for post-closure quality, because a
    /// few false-positive edges can cascade into large wrong merges.
    pub selection_score: f64,
    /// Number of edges the fitted decision asserts over the block.
    pub edges: usize,
}

/// A materialised evidence layer: a score plus the graphs derived from it.
#[derive(Debug, Clone)]
pub struct EvidenceLayer {
    /// The fitted decision and its quality estimates.
    pub score: LayerScore,
    /// The similarity (weighted) graph, shared with the block's cache and
    /// with the function's other layers.
    pub similarities: Arc<WeightedGraph>,
    /// The decision graph `G^i_{D_j}`.
    pub decisions: DecisionGraph,
    /// Per-pair link-probability graph.
    pub link_probability: WeightedGraph,
}

impl EvidenceLayer {
    /// Derive the graphs of a scored layer from its function's similarity
    /// graph.
    fn materialise(score: LayerScore, similarities: &Arc<WeightedGraph>) -> Self {
        let fitted = &score.fitted;
        let decisions = DecisionGraph::from_weighted(similarities, |w| fitted.decide(w));
        debug_assert_eq!(decisions.edge_count(), score.edges);
        let link_probability = similarities.map(|w| fitted.link_probability(w));
        EvidenceLayer {
            similarities: Arc::clone(similarities),
            decisions,
            link_probability,
            score,
        }
    }

    /// Convert into the combination-multigraph layer form.
    pub fn to_multigraph_layer(&self) -> Layer {
        Layer {
            decisions: self.decisions.clone(),
            link_probability: self.link_probability.clone(),
            weight: self.score.accuracy,
        }
    }
}

/// Fp of a closure restricted to the supervised documents, scored against
/// the training labels; `component_of` names a document's component in the
/// closure. Returns 0.5 (uninformative) when there is no supervision.
fn seed_fp(supervision: &Supervision, component_of: impl FnMut(usize) -> u32) -> f64 {
    if supervision.len() < 2 {
        return 0.5;
    }
    let docs = supervision.docs();
    let predicted = Partition::from_labels(docs.iter().copied().map(component_of).collect());
    // Project the supervision labels onto the same doc order: each entity is
    // relabelled with the position of its first supervised document, in one
    // pass over the docs.
    let mut first_pos: HashMap<u32, u32> = HashMap::with_capacity(docs.len());
    let truth_labels: Vec<u32> = docs
        .iter()
        .zip(0u32..)
        .map(|(&d, pos)| {
            let entity = supervision.label_of(d).expect("supervised doc has a label");
            *first_pos.entry(entity).or_insert(pos)
        })
        .collect();
    let truth = Partition::from_labels(truth_labels);
    fp_measure(&predicted, &truth)
}

/// Estimate a decision graph's quality as a resolution: transitively close
/// it, restrict the resulting partition to the supervised documents, and
/// score Fp against the training labels. Returns 0.5 (uninformative) when
/// there is no supervision.
///
/// This is the definition of a layer's
/// [`selection_score`](LayerScore::selection_score); the scoring pass
/// computes the same number without the graph, closing the decisions in a
/// union-find as it makes them.
pub fn training_fp(decisions: &DecisionGraph, supervision: &Supervision) -> f64 {
    let closed = connected_components(decisions);
    seed_fp(supervision, |d| closed.label_of(d))
}

/// The empty argument of [`build_layers_with`], kept only because the repo
/// benchmark names both: one of the harness-pinned forwards, removed when
/// the harness moves to the new names.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerOptions {}

/// Blocks at or above this size fan per-function layer construction across
/// scoped worker threads (the same pattern `Resolver::resolve_all` uses
/// across blocks). The gate is on block size, not core count, so the
/// parallel path is exercised deterministically everywhere; results are
/// identical to the sequential path because workers are joined in function
/// order and share nothing mutable.
const PARALLEL_BLOCK_LEN: usize = 64;

/// Run `work` once per function — on scoped worker threads for blocks of
/// at least [`PARALLEL_BLOCK_LEN`] documents — and concatenate the results
/// in function order.
fn per_function<T: Send>(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    work: impl Fn(&dyn SimilarityFunction) -> Vec<T> + Sync,
) -> Vec<T> {
    if functions.len() > 1 && block.len() >= PARALLEL_BLOCK_LEN {
        // One sweep builds the F8–F10 graphs together. Asked for here, it
        // runs once and the workers hit; asked for by the workers, each
        // would find its entry missing and build the family itself.
        if let Some(f) = functions.iter().find(|f| f.word_vector_measure().is_some()) {
            block.similarity_graph(f.as_ref());
        }
        let work = &work;
        std::thread::scope(|scope| {
            let workers: Vec<_> = functions
                .iter()
                .map(|f| scope.spawn(move || work(f.as_ref())))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("layer worker panicked"))
                .collect()
        })
    } else {
        functions.iter().flat_map(|f| work(f.as_ref())).collect()
    }
}

/// Score every (function × criterion) layer, function-major, without
/// materialising any graph: each function's similarity graph is borrowed
/// from the block's cache and every criterion's decisions are closed in a
/// union-find as they are made.
pub(crate) fn score_layers(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
) -> Vec<LayerScore> {
    per_function(block, functions, |f| {
        function_layers(block, f, criteria, supervision, |score, _| score)
    })
}

/// Build all evidence layers for the given functions and criteria: every
/// layer is scored, then its graphs are materialised from the score.
///
/// The similarity graph per function is computed once (through the block's
/// cache) and shared across criteria.
pub fn build_layers(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
) -> Vec<EvidenceLayer> {
    per_function(block, functions, |f| {
        function_layers(block, f, criteria, supervision, |score, sims| {
            EvidenceLayer::materialise(score, sims)
        })
    })
}

/// [`build_layers`] under its old signature, kept only because the repo
/// benchmark calls it: one of the harness-pinned forwards, removed when the
/// harness moves to the new names.
pub fn build_layers_with(
    block: &PreparedBlock,
    functions: &[Arc<dyn SimilarityFunction>],
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
    _: LayerOptions,
) -> Vec<EvidenceLayer> {
    build_layers(block, functions, criteria, supervision)
}

/// Apply a fitted decision to every pair of `sims`, in storage order,
/// closing the asserted edges in a union-find as it goes. Connected
/// components do not depend on the order edges arrive in, so the selection
/// score is the number [`training_fp`] gives for the materialised decision
/// graph.
fn score_decisions(
    function: &'static str,
    criterion: DecisionCriterion,
    fitted: FittedDecision,
    sims: &WeightedGraph,
    supervision: &Supervision,
) -> LayerScore {
    let mut closure = UnionFind::new(sims.len());
    let mut edges = 0;
    for j in 1..sims.len() {
        for (i, &w) in sims.column(j).iter().enumerate() {
            if fitted.decide(w) {
                edges += 1;
                closure.union(i, j);
            }
        }
    }
    let selection_score = seed_fp(supervision, |d| closure.find(d) as u32);
    LayerScore {
        function,
        criterion,
        accuracy: fitted.training_accuracy(),
        fitted,
        selection_score,
        edges,
    }
}

/// All layers of one similarity function (one per criterion): fit, score,
/// and hand each score to `finish` together with the function's similarity
/// graph — the identity when only scores are wanted,
/// [`EvidenceLayer::materialise`] when the graphs are.
fn function_layers<T>(
    block: &PreparedBlock,
    f: &dyn SimilarityFunction,
    criteria: &[DecisionCriterion],
    supervision: &Supervision,
    finish: impl Fn(LayerScore, &Arc<WeightedGraph>) -> T,
) -> Vec<T> {
    // Stage timings: region estimation (criterion fitting) is recorded on
    // its own; everything else in this function — similarity graph,
    // decisions, accuracy scoring, materialisation — is the layer-build
    // stage. Both go to global histograms, so the scoped-thread fan-out in
    // `per_function` just records one observation per function.
    let start = Instant::now();
    let mut fit_elapsed = Duration::ZERO;
    let sims = block.similarity_graph(f);
    let samples = supervision.labeled_values(|i, j| sims.get(i, j));
    let layers: Vec<T> = criteria
        .iter()
        .map(|&criterion| {
            let fit_start = Instant::now();
            let fitted = criterion.fit(&samples);
            fit_elapsed += fit_start.elapsed();
            let score = score_decisions(f.name(), criterion, fitted, &sims, supervision);
            finish(score, &sims)
        })
        .collect();
    let registry = weber_obs::Registry::global();
    registry
        .histogram("core.stage.region_estimation_us")
        .record(fit_elapsed.as_micros() as u64);
    registry
        .histogram("core.stage.layer_build_us")
        .record(start.elapsed().saturating_sub(fit_elapsed).as_micros() as u64);
    layers
}

/// Materialise the graphs of one scored layer of `f` — the layer
/// best-graph selection picked, typically. The similarity graph comes back
/// out of the block's cache (the scoring pass left it there), so this costs
/// one decision graph and one link-probability graph and nothing else.
pub(crate) fn materialise_layer(
    block: &PreparedBlock,
    f: &dyn SimilarityFunction,
    score: LayerScore,
) -> EvidenceLayer {
    EvidenceLayer::materialise(score, &block.similarity_graph(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_corpus::{generate, presets};
    use weber_extract::pipeline::Extractor;
    use weber_graph::Partition;
    use weber_simfun::functions::{function, FunctionId};
    use weber_textindex::tfidf::TfIdf;

    fn prepared_block() -> (PreparedBlock, Partition) {
        let dataset = generate(&presets::tiny(11));
        let extractor = Extractor::new(&dataset.gazetteer);
        let block = &dataset.blocks[0];
        let features = block
            .documents
            .iter()
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        (
            PreparedBlock::new(block.query_name.clone(), features, TfIdf::default()),
            block.truth(),
        )
    }

    #[test]
    fn similarity_graph_is_complete_and_bounded() {
        let (block, _) = prepared_block();
        let g = block.similarity_graph(function(FunctionId::F8).as_ref());
        assert_eq!(g.len(), block.len());
        for (_, _, w) in g.edges() {
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn layers_cover_function_criterion_product() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.2, 1);
        let functions = vec![function(FunctionId::F4), function(FunctionId::F8)];
        let criteria = DecisionCriterion::standard_set();
        let layers = build_layers(&block, &functions, &criteria, &sup);
        assert_eq!(layers.len(), functions.len() * criteria.len());
        for layer in &layers {
            assert_eq!(layer.decisions.len(), block.len());
            assert!((0.0..=1.0).contains(&layer.score.accuracy));
        }
    }

    #[test]
    fn informative_function_layers_have_high_training_accuracy() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.5, 2);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F8)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        assert!(
            layers[0].score.accuracy > 0.6,
            "TF-IDF cosine should separate training pairs reasonably: {}",
            layers[0].score.accuracy
        );
    }

    #[test]
    fn decisions_follow_fitted_criterion() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 3);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F8)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        let layer = &layers[0];
        for (i, j, w) in layer.similarities.edges() {
            assert_eq!(layer.decisions.has_edge(i, j), layer.score.fitted.decide(w));
        }
    }

    /// A block grown to PARALLEL_BLOCK_LEN by cycling preset documents, so
    /// the threaded fan-out runs, with the truth the cycling implies.
    fn parallel_block() -> (PreparedBlock, Partition) {
        let dataset = generate(&presets::tiny(11));
        let extractor = Extractor::new(&dataset.gazetteer);
        let b = &dataset.blocks[0];
        let features: Vec<_> = b
            .documents
            .iter()
            .cycle()
            .take(PARALLEL_BLOCK_LEN)
            .map(|d| extractor.extract(&d.text, d.url.as_deref()))
            .collect();
        let block = PreparedBlock::new(b.query_name.clone(), features, TfIdf::default());
        let truth: Vec<u32> = (0..PARALLEL_BLOCK_LEN as u32)
            .map(|i| i % b.documents.len() as u32)
            .collect();
        (block, Partition::from_labels(truth))
    }

    #[test]
    fn parallel_layer_build_matches_sequential() {
        // Check that the threaded fan-out produces exactly the layers the
        // sequential path would, in the same order.
        let (block, truth) = parallel_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 5);
        let functions = vec![
            function(FunctionId::F2),
            function(FunctionId::F4),
            function(FunctionId::F8),
        ];
        let criteria = DecisionCriterion::standard_set();
        assert!(block.len() >= PARALLEL_BLOCK_LEN, "parallel gate must open");
        let parallel = build_layers(&block, &functions, &criteria, &sup);
        let sequential: Vec<EvidenceLayer> = functions
            .iter()
            .flat_map(|f| {
                function_layers(&block, f.as_ref(), &criteria, &sup, |score, sims| {
                    EvidenceLayer::materialise(score, sims)
                })
            })
            .collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.score.function, s.score.function);
            assert_eq!(p.score.criterion, s.score.criterion);
            assert_eq!(p.similarities, s.similarities);
            assert_eq!(p.link_probability, s.link_probability);
            assert_eq!(p.score.accuracy, s.score.accuracy);
            assert_eq!(p.score.selection_score, s.score.selection_score);
            assert_eq!(p.decisions.edge_count(), s.decisions.edge_count());
        }
    }

    #[test]
    fn the_fan_out_builds_the_word_vector_family_once() {
        let (block, truth) = parallel_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 5);
        let functions = weber_simfun::functions::standard_suite();
        let criteria = DecisionCriterion::standard_set();
        score_layers(&block, &functions, &criteria, &sup);
        let stats = block.cache_stats();
        // Seven feature graphs and one F8–F10 sweep; every worker hits.
        assert_eq!(stats.rebuilds(), 8);
        assert_eq!(stats.hits(), 3);
    }

    /// Score every layer and build every layer of the same configuration,
    /// and check each score against the graphs materialised from it.
    fn assert_scores_match_layers(block: &PreparedBlock, sup: &Supervision) {
        let functions = weber_simfun::functions::standard_suite();
        let criteria = DecisionCriterion::standard_set();
        let scores = score_layers(block, &functions, &criteria, sup);
        let layers = build_layers(block, &functions, &criteria, sup);
        assert_eq!(scores.len(), functions.len() * criteria.len());
        assert_eq!(scores.len(), layers.len());
        for (score, layer) in scores.iter().zip(&layers) {
            let what = format!("{} {}", score.function, score.criterion.label());
            assert_eq!(score.function, layer.score.function);
            assert_eq!(score.criterion, layer.score.criterion);
            assert_eq!(
                format!("{:?}", score.fitted),
                format!("{:?}", layer.score.fitted),
                "{what}"
            );
            assert_eq!(
                score.accuracy.to_bits(),
                layer.score.accuracy.to_bits(),
                "{what}"
            );
            assert_eq!(
                score.selection_score.to_bits(),
                layer.score.selection_score.to_bits(),
                "{what}"
            );
            assert_eq!(score.edges, layer.decisions.edge_count(), "{what}");
            // The path that does not go through the scoring pass's
            // union-find: close the materialised decision graph by
            // connected components and score that.
            assert_eq!(
                score.selection_score.to_bits(),
                training_fp(&layer.decisions, sup).to_bits(),
                "{what}: {} from the scoring pass",
                score.selection_score
            );
        }
    }

    #[test]
    fn scores_equal_their_materialised_layers() {
        for seed in [11, 21, 33] {
            let dataset = generate(&presets::tiny(seed));
            let extractor = Extractor::new(&dataset.gazetteer);
            for b in &dataset.blocks {
                let features = b
                    .documents
                    .iter()
                    .map(|d| extractor.extract(&d.text, d.url.as_deref()))
                    .collect();
                let block = PreparedBlock::new(b.query_name.clone(), features, TfIdf::default());
                let sup = Supervision::sample_from_truth(&b.truth(), 0.3, seed);
                assert_scores_match_layers(&block, &sup);
            }
        }
        // And once with the parallel gate open.
        let (block, truth) = parallel_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 5);
        assert_scores_match_layers(&block, &sup);
        assert_scores_match_layers(&block, &Supervision::empty());
    }

    #[test]
    fn materialising_one_score_matches_building_every_layer() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.4, 8);
        let functions = vec![function(FunctionId::F2), function(FunctionId::F8)];
        let criteria = DecisionCriterion::standard_set();
        let scores = score_layers(&block, &functions, &criteria, &sup);
        let layers = build_layers(&block, &functions, &criteria, &sup);
        let function_of = [0, 0, 0, 1, 1, 1];
        for ((score, all), f) in scores.into_iter().zip(&layers).zip(function_of) {
            let one = materialise_layer(&block, functions[f].as_ref(), score);
            assert!(Arc::ptr_eq(&one.similarities, &all.similarities));
            assert_eq!(one.decisions, all.decisions);
            assert_eq!(one.link_probability, all.link_probability);
        }
    }

    #[test]
    fn the_benchmark_forward_builds_the_same_layers() {
        let (block, truth) = parallel_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 5);
        let functions = weber_simfun::functions::standard_suite();
        let criteria = DecisionCriterion::standard_set();
        let direct = build_layers(&block, &functions, &criteria, &sup);
        let forwarded =
            build_layers_with(&block, &functions, &criteria, &sup, LayerOptions::default());
        assert_eq!(direct.len(), forwarded.len());
        for (d, f) in direct.iter().zip(&forwarded) {
            let what = format!("{:?}", d.score);
            assert_eq!(what, format!("{:?}", f.score));
            let (d_score, f_score) = (d.score.selection_score, f.score.selection_score);
            assert_eq!(d_score.to_bits(), f_score.to_bits(), "{what}");
            assert!(Arc::ptr_eq(&d.similarities, &f.similarities), "{what}");
            assert_eq!(d.decisions, f.decisions, "{what}");
            assert_eq!(d.link_probability, f.link_probability, "{what}");
        }
    }

    #[test]
    fn to_multigraph_layer_preserves_weight() {
        let (block, truth) = prepared_block();
        let sup = Supervision::sample_from_truth(&truth, 0.3, 4);
        let layers = build_layers(
            &block,
            &[function(FunctionId::F4)],
            &[DecisionCriterion::Threshold],
            &sup,
        );
        let ml = layers[0].to_multigraph_layer();
        assert_eq!(ml.weight, layers[0].score.accuracy);
        assert_eq!(ml.decisions.edge_count(), layers[0].decisions.edge_count());
    }
}
