#![warn(missing_docs)]

//! # weber-simfun
//!
//! Pairwise similarity functions over extracted page features — the heart
//! of §III of the paper ("Each similarity function compares two webpages
//! based on a particular feature (like concepts, urls etc) using a
//! similarity measure (like cosine similarity, number of overlaps etc)").
//!
//! - [`string_sim`] — Levenshtein, Jaro, Jaro–Winkler, n-gram Dice;
//! - [`set_sim`] — overlap coefficient, Jaccard, Dice over entity sets;
//! - [`block`] — [`PreparedBlock`]: a block of
//!   documents with TF-IDF vectors materialised over a shared vocabulary;
//! - [`functions`] — the ten functions F1–F10 of Table I plus the
//!   [`SimilarityFunction`](trait@functions::SimilarityFunction) trait and the
//!   paper's function subsets I4 / I7 / I10.
//!
//! Every similarity is symmetric and maps into `[0, 1]`; missing features
//! score 0 (no evidence of similarity).

pub mod block;
pub mod functions;
pub mod set_sim;
pub mod string_sim;

pub use block::{PreparedBlock, WordVectorScheme};
pub use functions::{
    standard_suite, subset_i10, subset_i4, subset_i7, FunctionId, SimilarityFunction,
};
pub use set_sim::{dice, jaccard, overlap_coefficient};
pub use string_sim::{jaro, jaro_winkler, levenshtein, ngram_dice, normalized_levenshtein};
