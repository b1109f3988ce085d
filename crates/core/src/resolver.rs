//! The resolver: Algorithm 1 end to end.

use std::sync::Arc;

use weber_graph::Partition;
use weber_simfun::block::PreparedBlock;
use weber_simfun::functions::{function, subset_i10, FunctionId, SimilarityFunction};

use crate::clustering::ClusteringMethod;
use crate::combine::{select_best, CombinationStrategy, Combined};
use crate::decision::DecisionCriterion;
use crate::error::CoreError;
use crate::layers::{build_layers, materialise_layer, score_layers, LayerScore};
use crate::supervision::Supervision;

/// Configuration of a resolution run: which functions, which decision
/// criteria, how to combine, how to cluster.
#[derive(Clone)]
pub struct ResolverConfig {
    /// Similarity functions to evaluate: any of the paper's F1–F10 (via
    /// [`function`]) and/or custom [`SimilarityFunction`] implementations.
    pub functions: Vec<Arc<dyn SimilarityFunction>>,
    /// Decision criteria `D_j` to fit per function.
    pub criteria: Vec<DecisionCriterion>,
    /// Combination strategy over the resulting layers.
    pub combination: CombinationStrategy,
    /// Final clustering back-end.
    pub clustering: ClusteringMethod,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        Self::accuracy_suite(subset_i10())
    }
}

impl std::fmt::Debug for ResolverConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolverConfig")
            .field(
                "functions",
                &self.functions.iter().map(|x| x.name()).collect::<Vec<_>>(),
            )
            .field("criteria", &self.criteria)
            .field("combination", &self.combination)
            .field("clustering", &self.clustering)
            .finish()
    }
}

fn instantiate(ids: Vec<FunctionId>) -> Vec<Arc<dyn SimilarityFunction>> {
    ids.into_iter().map(function).collect()
}

impl ResolverConfig {
    /// A single function under a single criterion (the per-function bars of
    /// Figures 2–3 / columns F1–F10 of Table III).
    pub fn individual(id: FunctionId, criterion: DecisionCriterion) -> Self {
        Self {
            functions: vec![function(id)],
            criteria: vec![criterion],
            combination: CombinationStrategy::BestGraph,
            clustering: ClusteringMethod::TransitiveClosure,
        }
    }

    /// Threshold-only decisions over a function set, best graph selected —
    /// the `I*` columns of Table II.
    pub fn threshold_suite(functions: Vec<FunctionId>) -> Self {
        Self {
            functions: instantiate(functions),
            criteria: vec![DecisionCriterion::Threshold],
            combination: CombinationStrategy::BestGraph,
            clustering: ClusteringMethod::TransitiveClosure,
        }
    }

    /// All standard decision criteria (threshold + region accuracy), best
    /// graph selected — the `C*` columns of Table II.
    pub fn accuracy_suite(functions: Vec<FunctionId>) -> Self {
        Self {
            functions: instantiate(functions),
            criteria: DecisionCriterion::standard_set(),
            combination: CombinationStrategy::BestGraph,
            clustering: ClusteringMethod::TransitiveClosure,
        }
    }

    /// Add a custom similarity function to the suite.
    pub fn with_function(mut self, f: Arc<dyn SimilarityFunction>) -> Self {
        self.functions.push(f);
        self
    }

    /// Accuracy-weighted average combination — the `W` column of Table II.
    ///
    /// Uses accuracy-excess layer weights and correlation clustering: the
    /// `ablation_combination` sweep shows that averaged probabilistic
    /// scores need a clustering that penalises inconsistency — under plain
    /// transitive closure a handful of above-threshold false edges cascade
    /// into giant wrong merges (Rand index collapses to ~0.2–0.5), while
    /// correlation clustering over the same scores recovers the paper's
    /// "W between I and C" behaviour.
    pub fn weighted_average(functions: Vec<FunctionId>) -> Self {
        Self {
            functions: instantiate(functions),
            criteria: DecisionCriterion::standard_set(),
            combination: CombinationStrategy::WeightedAverage(crate::combine::WeightScheme::Excess),
            clustering: ClusteringMethod::Correlation(
                weber_graph::correlation::CorrelationConfig::default(),
            ),
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.functions.is_empty() {
            return Err(CoreError::NoFunctions);
        }
        if self.criteria.is_empty() {
            return Err(CoreError::NoCriteria);
        }
        Ok(())
    }
}

/// Diagnostics for one evidence layer of a resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Name of the similarity function.
    pub function: &'static str,
    /// Short label of the decision criterion (`"thr"`, `"eq10"`, `"km10"`).
    pub criterion: String,
    /// Estimated pairwise accuracy `acc(G^i_{D_j})`.
    pub accuracy: f64,
    /// Estimated end-to-end quality (training Fp of the closed graph).
    pub selection_score: f64,
    /// Number of asserted edges in the layer's decision graph.
    pub edges: usize,
}

/// The output of resolving one block.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The final entity resolution.
    pub partition: Partition,
    /// Per-layer diagnostics, in (function × criterion) order.
    pub layers: Vec<LayerReport>,
    /// Index (into `layers`) of the layer best-graph selection chose.
    pub selected_layer: Option<usize>,
    /// The combination threshold, for weighted-average / majority-vote.
    pub combination_threshold: Option<f64>,
}

impl Resolution {
    /// The layer report of the selected layer, if best-graph ran.
    pub fn selected(&self) -> Option<&LayerReport> {
        self.selected_layer.map(|i| &self.layers[i])
    }
}

/// The entity resolver (Algorithm 1).
///
/// ```
/// use weber_core::blocking::prepare_dataset;
/// use weber_core::resolver::{Resolver, ResolverConfig};
/// use weber_core::supervision::Supervision;
/// use weber_corpus::{generate, presets};
/// use weber_textindex::tfidf::TfIdf;
///
/// let prepared = prepare_dataset(&generate(&presets::tiny(7)), TfIdf::default());
/// let resolver = Resolver::new(ResolverConfig::default()).unwrap();
/// let block = &prepared.blocks[0];
/// let supervision = Supervision::sample_from_truth(&block.truth, 0.25, 42);
/// let resolution = resolver.resolve(&block.block, &supervision).unwrap();
/// assert_eq!(resolution.partition.len(), block.block.len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    config: ResolverConfig,
}

impl Resolver {
    /// Create a resolver; fails on an invalid configuration.
    pub fn new(config: ResolverConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Resolve every block of a prepared dataset, drawing each block's
    /// supervision from its ground truth at `train_fraction` with `seed`
    /// (the paper's protocol for one run). Blocks run on scoped worker
    /// threads; results come back in dataset order.
    pub fn resolve_all(
        &self,
        prepared: &crate::blocking::PreparedDataset,
        train_fraction: f64,
        seed: u64,
    ) -> Result<Vec<Resolution>, CoreError> {
        if !(0.0..=1.0).contains(&train_fraction) {
            return Err(CoreError::InvalidTrainFraction(train_fraction));
        }
        let results: Vec<Result<Resolution, CoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = prepared
                .blocks
                .iter()
                .map(|nb| {
                    scope.spawn(move || {
                        let sup = Supervision::sample_from_truth(&nb.truth, train_fraction, seed);
                        self.resolve(&nb.block, &sup)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("resolver worker panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Score every configured layer without materialising any,
    /// function-major (criteria inner).
    pub(crate) fn score_layers(
        &self,
        block: &PreparedBlock,
        supervision: &Supervision,
    ) -> Vec<LayerScore> {
        let config = &self.config;
        score_layers(block, &config.functions, &config.criteria, supervision)
    }

    /// The similarity function behind layer `index` of the
    /// [`score_layers`](Self::score_layers) layout.
    pub(crate) fn layer_function(&self, index: usize) -> &Arc<dyn SimilarityFunction> {
        let config = &self.config;
        &config.functions[index / config.criteria.len()]
    }

    /// Resolve one prepared block with the given supervision.
    ///
    /// Under best-graph combination every layer is scored and only the
    /// selected one is materialised; the other strategies overlay all
    /// layers and so materialise all of them.
    pub fn resolve(
        &self,
        block: &PreparedBlock,
        supervision: &Supervision,
    ) -> Result<Resolution, CoreError> {
        supervision.validate(block.len())?;
        let config = &self.config;
        let best_graph = config.combination == CombinationStrategy::BestGraph;
        // Materialised up front only for the strategies that overlay them.
        let mut layers = Vec::new();
        let scores: Vec<LayerScore> = if best_graph {
            self.score_layers(block, supervision)
        } else {
            layers = build_layers(block, &config.functions, &config.criteria, supervision);
            layers.iter().map(|l| l.score.clone()).collect()
        };
        let (combined, partition) = weber_obs::time_stage("core.stage.clustering_us", || {
            let combined = if best_graph {
                let best = select_best(&scores);
                let function = self.layer_function(best).as_ref();
                let layer = materialise_layer(block, function, scores[best].clone());
                Combined::selected(layer.decisions, layer.link_probability, best)
            } else {
                config
                    .combination
                    .combine(&layers, supervision, block.len())
            };
            let partition = config.clustering.cluster(&combined);
            (combined, partition)
        });
        let reports = scores
            .iter()
            .map(|s| LayerReport {
                function: s.function,
                criterion: s.criterion.label(),
                accuracy: s.accuracy,
                selection_score: s.selection_score,
                edges: s.edges,
            })
            .collect();
        Ok(Resolution {
            partition,
            layers: reports,
            selected_layer: combined.selected_layer,
            combination_threshold: combined.threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weber_corpus::{generate, presets};
    use weber_eval::MetricSet;
    use weber_extract::pipeline::Extractor;
    use weber_textindex::tfidf::TfIdf;

    fn prepared() -> Vec<(PreparedBlock, Partition)> {
        let dataset = generate(&presets::tiny(33));
        let extractor = Extractor::new(&dataset.gazetteer);
        dataset
            .blocks
            .iter()
            .map(|b| {
                let features = b
                    .documents
                    .iter()
                    .map(|d| extractor.extract(&d.text, d.url.as_deref()))
                    .collect();
                (
                    PreparedBlock::new(b.query_name.clone(), features, TfIdf::default()),
                    b.truth(),
                )
            })
            .collect()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ResolverConfig::default();
        c.functions.clear();
        assert_eq!(Resolver::new(c).unwrap_err(), CoreError::NoFunctions);
        let mut c = ResolverConfig::default();
        c.criteria.clear();
        assert_eq!(Resolver::new(c).unwrap_err(), CoreError::NoCriteria);
    }

    #[test]
    fn out_of_range_supervision_is_rejected() {
        let blocks = prepared();
        let (block, _) = &blocks[0];
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let sup = Supervision::new([(9999, 0)].into_iter().collect());
        assert!(matches!(
            resolver.resolve(block, &sup),
            Err(CoreError::SupervisionOutOfRange { .. })
        ));
    }

    #[test]
    fn resolution_covers_every_document() {
        let blocks = prepared();
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        for (block, truth) in &blocks {
            let sup = Supervision::sample_from_truth(truth, 0.2, 5);
            let r = resolver.resolve(block, &sup).unwrap();
            assert_eq!(r.partition.len(), block.len());
            assert!(!r.layers.is_empty());
        }
    }

    #[test]
    fn best_graph_reports_selected_layer() {
        let blocks = prepared();
        let (block, truth) = &blocks[0];
        let resolver = Resolver::new(ResolverConfig::accuracy_suite(subset_i10())).unwrap();
        let sup = Supervision::sample_from_truth(truth, 0.25, 6);
        let r = resolver.resolve(block, &sup).unwrap();
        let sel = r.selected().expect("best-graph selects a layer");
        // The selected layer must have maximal selection score.
        let max = r
            .layers
            .iter()
            .map(|l| l.selection_score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((sel.selection_score - max).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_reports_threshold() {
        let blocks = prepared();
        let (block, truth) = &blocks[0];
        let resolver = Resolver::new(ResolverConfig::weighted_average(subset_i10())).unwrap();
        let sup = Supervision::sample_from_truth(truth, 0.25, 6);
        let r = resolver.resolve(block, &sup).unwrap();
        assert!(r.combination_threshold.is_some());
        assert!(r.selected_layer.is_none());
    }

    #[test]
    fn resolver_beats_singletons_on_tiny_corpus() {
        // End-to-end sanity: the full pipeline should beat the trivial
        // all-singletons baseline on Fp, averaged over blocks.
        let blocks = prepared();
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let mut resolved = 0.0;
        let mut singleton = 0.0;
        for (block, truth) in &blocks {
            let sup = Supervision::sample_from_truth(truth, 0.15, 9);
            let r = resolver.resolve(block, &sup).unwrap();
            resolved += MetricSet::evaluate(&r.partition, truth).fp;
            singleton += MetricSet::evaluate(&Partition::singletons(truth.len()), truth).fp;
        }
        assert!(
            resolved > singleton,
            "pipeline Fp {resolved} must beat singleton baseline {singleton}"
        );
    }

    #[test]
    fn resolve_all_covers_every_block_in_order() {
        use crate::blocking::prepare_dataset;
        use weber_corpus::{generate, presets};
        let prepared = prepare_dataset(&generate(&presets::tiny(66)), TfIdf::default());
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        let all = resolver.resolve_all(&prepared, 0.2, 4).unwrap();
        assert_eq!(all.len(), prepared.blocks.len());
        for (r, nb) in all.iter().zip(&prepared.blocks) {
            assert_eq!(r.partition.len(), nb.block.len());
        }
        // Matches the per-block path exactly.
        let sup = Supervision::sample_from_truth(&prepared.blocks[0].truth, 0.2, 4);
        let single = resolver.resolve(&prepared.blocks[0].block, &sup).unwrap();
        assert_eq!(all[0].partition, single.partition);
    }

    #[test]
    fn resolve_all_rejects_bad_fraction() {
        use crate::blocking::prepare_dataset;
        use weber_corpus::{generate, presets};
        let prepared = prepare_dataset(&generate(&presets::tiny(66)), TfIdf::default());
        let resolver = Resolver::new(ResolverConfig::default()).unwrap();
        assert!(matches!(
            resolver.resolve_all(&prepared, 1.5, 1),
            Err(CoreError::InvalidTrainFraction(_))
        ));
    }

    #[test]
    fn individual_function_resolution_works() {
        let blocks = prepared();
        let (block, truth) = &blocks[0];
        let resolver = Resolver::new(ResolverConfig::individual(
            FunctionId::F8,
            DecisionCriterion::Threshold,
        ))
        .unwrap();
        let sup = Supervision::sample_from_truth(truth, 0.25, 2);
        let r = resolver.resolve(block, &sup).unwrap();
        assert_eq!(r.layers.len(), 1);
        assert_eq!(r.layers[0].function, "F8");
    }
}
