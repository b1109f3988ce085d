#![warn(missing_docs)]

//! # weber-core
//!
//! The entity-resolution framework of the paper (§IV, Algorithm 1):
//!
//! 1. compute the complete weighted graph `G_w^{f_i}` for each similarity
//!    function (per block);
//! 2. obtain the decision criteria `D_j` (threshold, regions, …) from the
//!    training set;
//! 3. apply each decision to the data, computing `G^i_{D_j}` for each
//!    function and criterion;
//! 4. compute the accuracy `acc(G^i_{D_j})`;
//! 5. combine them for all `i, D_j`;
//! 6. apply a clustering algorithm;
//! 7. output the final entity resolution.
//!
//! Modules: [`supervision`] (the labelled training subset), [`decision`]
//! (criteria and their fitted forms), [`layers`] (per-function evidence
//! layers), [`combine`] (weighted average / best graph / majority vote),
//! [`clustering`] (transitive closure / correlation / incremental),
//! [`resolver`] (the orchestrator), [`blocking`] (dataset → prepared
//! blocks), [`experiment`] (the paper's evaluation protocol: 10% training,
//! 5 runs, macro-averaged metrics), [`swoosh`] (merge-based R-Swoosh
//! with data confidences — the related-work baseline of §VI), and
//! [`trained`] (the best-graph-selected layer extracted as a reusable
//! decision model for streaming ingestion).

pub mod active;
pub mod blocking;
pub mod clustering;
pub mod combine;
pub mod decision;
pub mod error;
pub mod experiment;
pub mod layers;
pub mod resolver;
pub mod supervision;
pub mod swoosh;
pub mod trained;

pub use active::{label_docs, select_uncertain_docs, uncertainty_scores};
pub use blocking::{
    key_blocks, prepare_dataset, prepare_dataset_with, sorted_neighborhood, PreparedDataset,
};
pub use clustering::ClusteringMethod;
pub use combine::{CombinationStrategy, WeightScheme};
pub use decision::{DecisionCriterion, FittedDecision};
pub use error::CoreError;
pub use experiment::{run_experiment, ExperimentConfig, ExperimentOutcome};
pub use resolver::{Resolution, Resolver, ResolverConfig};
pub use supervision::Supervision;
pub use swoosh::{r_swoosh, MatchFunction, MergeRecord, ProfileMatcher, SwooshOutcome};
pub use trained::TrainedModel;
