#![warn(missing_docs)]

//! # weber-textindex
//!
//! A small, self-contained text indexing substrate: tokenisation, stopword
//! filtering, Porter stemming, vocabulary interning, TF-IDF weighting and
//! sparse document vectors with the three vector similarities used by the
//! paper (cosine, Pearson correlation, extended Jaccard).
//!
//! This crate replaces the role Apache Lucene plays in the original system
//! ("for representing a webpage as document vector we use the services
//! provided by lucene"): it turns raw page text into TF-IDF weighted sparse
//! vectors that the similarity functions F8/F9/F10 consume.
//!
//! ## Quick example
//!
//! ```
//! use weber_textindex::{Analyzer, CorpusIndex, TfIdf};
//!
//! let analyzer = Analyzer::english();
//! let mut index = CorpusIndex::new();
//! let a = index.add_document(&analyzer.analyze("Databases and query processing"));
//! let b = index.add_document(&analyzer.analyze("Query optimisation in databases"));
//! let vectors = index.tfidf_vectors(TfIdf::default());
//! let sim = vectors[a.0 as usize].cosine(&vectors[b.0 as usize]);
//! assert!(sim > 0.0 && sim <= 1.0);
//! ```

pub mod analyzer;
pub mod incremental;
pub mod index;
pub mod minhash;
pub mod sparse;
pub mod stem;
pub mod stopwords;
pub mod tfidf;
pub mod token;
pub mod vocab;

pub use analyzer::Analyzer;
pub use incremental::{VectorStore, WordVectorScheme};
pub use index::{CorpusIndex, DocId};
pub use minhash::MinHasher;
pub use sparse::{SparseVector, WordVectorMeasure};
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use tfidf::{IdfScheme, TfIdf, TfScheme};
pub use token::{normalize_phrase, slug, tokenize};
pub use vocab::{TermId, Vocabulary};
