//! The paper's evaluation protocol (§V-A2): "we use 10% of the complete
//! dataset as the training set … we repeated the experiments for 5 runs and
//! the averages of the observed results are presented. On each run we
//! randomly choose the training subset."

use weber_eval::{MetricSet, RunAverage};

use crate::blocking::PreparedDataset;
use crate::error::CoreError;
use crate::resolver::{Resolver, ResolverConfig};
use crate::supervision::Supervision;

/// Protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Fraction of each block used as the training set (paper: 0.1).
    pub train_fraction: f64,
    /// Number of repeated runs with fresh training draws (paper: 5).
    pub runs: u64,
    /// Base seed; run `r` uses `base_seed + r`.
    pub base_seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            train_fraction: 0.1,
            runs: 5,
            base_seed: 0,
        }
    }
}

impl ExperimentConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.train_fraction) {
            return Err(CoreError::InvalidTrainFraction(self.train_fraction));
        }
        Ok(())
    }
}

/// The outcome of one experiment: macro-averaged metrics plus per-name
/// detail (for Table III-style breakdowns).
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Mean metrics over names (each name itself averaged over runs).
    pub mean: MetricSet,
    /// Per-name `(query_name, run-averaged metrics)`.
    pub per_name: Vec<(String, MetricSet)>,
}

/// Run the protocol: for each run seed, resolve every block and score it
/// against ground truth; average per name over runs, then macro-average
/// over names.
///
/// Blocks are independent, so they are resolved on scoped worker threads;
/// the result is bit-identical to the sequential order because every
/// (block, run) cell is seeded independently.
pub fn run_experiment(
    prepared: &PreparedDataset,
    resolver_config: &ResolverConfig,
    experiment: &ExperimentConfig,
) -> Result<ExperimentOutcome, CoreError> {
    experiment.validate()?;
    let resolver = Resolver::new(resolver_config.clone())?;
    let per_block = |nb: &crate::blocking::PreparedNameBlock| -> Result<RunAverage, CoreError> {
        let mut avg = RunAverage::new();
        for run in 0..experiment.runs.max(1) {
            let seed = experiment.base_seed.wrapping_add(run);
            let supervision =
                Supervision::sample_from_truth(&nb.truth, experiment.train_fraction, seed);
            let resolution = resolver.resolve(&nb.block, &supervision)?;
            avg.push(MetricSet::evaluate(&resolution.partition, &nb.truth));
        }
        Ok(avg)
    };
    let results: Vec<Result<RunAverage, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = prepared
            .blocks
            .iter()
            .map(|nb| scope.spawn(|| per_block(nb)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    let mut per_name_avg: Vec<RunAverage> = Vec::with_capacity(results.len());
    for r in results {
        per_name_avg.push(r?);
    }
    let per_name: Vec<(String, MetricSet)> = prepared
        .blocks
        .iter()
        .zip(&per_name_avg)
        .map(|(nb, avg)| {
            (
                nb.block.query_name().to_string(),
                avg.mean().expect("at least one run"),
            )
        })
        .collect();
    let mut overall = RunAverage::new();
    for (_, m) in &per_name {
        overall.push(*m);
    }
    let mean = overall.mean().unwrap_or_default();
    Ok(ExperimentOutcome { mean, per_name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::prepare_dataset;
    use crate::decision::DecisionCriterion;
    use weber_corpus::{generate, presets};
    use weber_simfun::functions::{subset_i10, FunctionId};
    use weber_textindex::tfidf::TfIdf;

    fn prepared() -> PreparedDataset {
        prepare_dataset(&generate(&presets::tiny(55)), TfIdf::default())
    }

    #[test]
    fn experiment_produces_per_name_and_mean() {
        let p = prepared();
        let cfg = ResolverConfig::accuracy_suite(subset_i10());
        let exp = ExperimentConfig {
            train_fraction: 0.2,
            runs: 2,
            base_seed: 1,
        };
        let out = run_experiment(&p, &cfg, &exp).unwrap();
        assert_eq!(out.per_name.len(), p.blocks.len());
        for (_, m) in &out.per_name {
            assert!((0.0..=1.0).contains(&m.fp));
            assert!((0.0..=1.0).contains(&m.f));
            assert!((0.0..=1.0).contains(&m.rand));
        }
        // Mean is the macro-average.
        let fp_mean =
            out.per_name.iter().map(|(_, m)| m.fp).sum::<f64>() / out.per_name.len() as f64;
        assert!((out.mean.fp - fp_mean).abs() < 1e-12);
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        let p = prepared();
        let cfg = ResolverConfig::default();
        let exp = ExperimentConfig {
            train_fraction: 1.5,
            runs: 1,
            base_seed: 0,
        };
        assert!(matches!(
            run_experiment(&p, &cfg, &exp),
            Err(CoreError::InvalidTrainFraction(_))
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = prepared();
        let cfg = ResolverConfig::individual(FunctionId::F8, DecisionCriterion::Threshold);
        let exp = ExperimentConfig {
            train_fraction: 0.2,
            runs: 2,
            base_seed: 3,
        };
        let a = run_experiment(&p, &cfg, &exp).unwrap();
        let b = run_experiment(&p, &cfg, &exp).unwrap();
        assert_eq!(a.mean, b.mean);
    }

    #[test]
    fn combined_is_at_least_as_good_as_weak_functions() {
        // Not a theorem, but on the tiny corpus the combined C-suite should
        // beat the typically weak URL-only function.
        let p = prepared();
        let exp = ExperimentConfig {
            train_fraction: 0.25,
            runs: 3,
            base_seed: 7,
        };
        let combined = run_experiment(&p, &ResolverConfig::accuracy_suite(subset_i10()), &exp)
            .unwrap()
            .mean;
        let url_only = run_experiment(
            &p,
            &ResolverConfig::individual(FunctionId::F2, DecisionCriterion::Threshold),
            &exp,
        )
        .unwrap()
        .mean;
        assert!(
            combined.fp >= url_only.fp,
            "combined {} vs F2-only {}",
            combined.fp,
            url_only.fp
        );
    }
}
