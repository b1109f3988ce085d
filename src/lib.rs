#![warn(missing_docs)]

//! # weber — Web Entity Resolution
//!
//! A reproduction of *"Towards better entity resolution techniques for Web
//! document collections"* (Yerva, Miklós, Aberer; ICDE 2010) as a Rust
//! workspace. This facade crate re-exports every subsystem:
//!
//! - [`textindex`] — tokenizer, Porter stemmer, TF-IDF document vectors
//!   (the Lucene substitute).
//! - [`extract`] — dictionary NER, concept tagging, URL features (the
//!   AlchemyAPI/GATE/OpenCalais/SemanticHacker substitute).
//! - [`simfun`] — string/set/vector similarity measures and the paper's
//!   similarity-function suite F1–F10 (Table I).
//! - [`graph`] — weighted pairwise graphs, decision graphs, transitive
//!   closure, correlation clustering, entity-graph invariants.
//! - [`ml`] — region partitioning of the similarity value space
//!   (equal-width / 1-D k-means), per-region accuracy estimation,
//!   threshold optimisation, train/test sampling.
//! - [`eval`] — purity/inverse-purity/Fp, pairwise P/R/F, Rand index,
//!   B-Cubed.
//! - [`corpus`] — synthetic web-people-search corpus generation
//!   (`www05_like`, `weps_like` presets) with ground truth.
//! - [`core`] — the entity-resolution framework tying it all together
//!   (Algorithm 1 of the paper).
//! - [`stream`] — streaming resolution: per-name decision models trained
//!   on seed batches, incremental ingestion, and the `weber serve` NDJSON
//!   daemon.
//! - [`entity`] — the canonical entity layer above partitioning: stable
//!   entity IDs that survive re-partitioning, reversible `SAME_AS` links,
//!   per-mention provenance, and declarative global constraints enforced
//!   at materialization (`entities`/`same_as`/`constraint` ops).
//! - [`shard`] — the sharded routing tier: a consistent-hash ring over
//!   many `weber serve` backends behind one `weber route` front end, with
//!   pooled connections, health probes, bounded retries and degraded-mode
//!   fan-out merges.
//! - [`block`] — the corpus-scale blocking tier: token blocking,
//!   meta-blocking (block graph + weight-edge pruning) and MinHash/LSH
//!   candidate generation over flat dirty corpora, behind the
//!   `weber block` subcommand.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduced
//! tables/figures.

pub use weber_block as block;
pub use weber_core as core;
pub use weber_corpus as corpus;
pub use weber_entity as entity;
pub use weber_eval as eval;
pub use weber_extract as extract;
pub use weber_graph as graph;
pub use weber_ml as ml;
pub use weber_shard as shard;
pub use weber_simfun as simfun;
pub use weber_stream as stream;
pub use weber_textindex as textindex;
