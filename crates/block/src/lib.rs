#![warn(missing_docs)]

//! # weber-block
//!
//! The corpus-scale blocking tier: everything the rest of the stack does
//! resolves *within* a block already keyed by an exact query name. This
//! crate builds those blocks from a raw dirty corpus — a flat pile of web
//! documents where block membership itself must be discovered (the setting
//! of the blocking/filtering literature: Papadakis et al.'s survey,
//! Efthymiou et al.'s web-entity benchmark).
//!
//! Three strategies, all over one shared df-filtered term index
//! ([`index::build_index`]):
//!
//! - **Token blocking** ([`Strategy::Token`]): documents sharing any kept
//!   normalized token are candidates. Maximum recall, maximum redundancy.
//! - **Meta-blocking** ([`Strategy::Meta`]): build the block graph, weight
//!   edges by CBS or Jaccard evidence, prune below the scaled mean weight
//!   ([`meta`]). Keeps the redundancy-heavy pairs, discards the long tail.
//! - **LSH** ([`Strategy::Lsh`]): MinHash signatures of the term sets cut
//!   into band buckets ([`lsh`]). This is where MinHash filtering belongs:
//!   at the blocking tier, before any block is built.
//!
//! The outcome ([`CandidateBlocks`]) carries the candidate pairs, the
//! connected components of the candidate graph (the blocks a downstream
//! resolver consumes), and comparison-count bookkeeping against the
//! brute-force baseline. Every stage is timed and counted through
//! `weber-obs` (`block.stage.*` histograms, `block.*` counters).

pub mod index;
pub mod lsh;
pub mod meta;

use std::sync::Arc;
use std::time::Instant;

use weber_graph::UnionFind;
use weber_obs::Registry;

pub use index::{build_index, token_pairs, DocRecord, TermIndex};
pub use lsh::{lsh_candidates, LshConfig, LshResult};
pub use meta::{build_block_graph, weight_edge_prune, BlockGraph, WeightScheme};

/// Candidate-generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Plain token blocking.
    Token,
    /// Meta-blocking: block graph + weight-edge pruning.
    #[default]
    Meta,
    /// MinHash/LSH band index.
    Lsh,
}

impl Strategy {
    /// Stable lowercase name (CLI/report key).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Token => "token",
            Strategy::Meta => "meta",
            Strategy::Lsh => "lsh",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "token" => Ok(Strategy::Token),
            "meta" => Ok(Strategy::Meta),
            "lsh" => Ok(Strategy::Lsh),
            other => Err(format!("unknown strategy '{other}' (token|meta|lsh)")),
        }
    }
}

/// Full blocking configuration.
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Candidate-generation strategy.
    pub strategy: Strategy,
    /// Minimum document frequency for a term to form a block (below it a
    /// term can never pair documents; effectively at least 2).
    pub min_df: usize,
    /// Maximum document frequency as a fraction of the corpus; terms above
    /// it are stopword-like and dropped.
    pub max_df_frac: f64,
    /// Meta-blocking edge weighting scheme.
    pub weight: WeightScheme,
    /// Weight-edge pruning threshold factor (× mean edge weight).
    pub prune_factor: f64,
    /// LSH parameters.
    pub lsh: LshConfig,
    /// Worker threads for the parallel stages (0 = available parallelism).
    pub threads: usize,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::default(),
            min_df: 2,
            max_df_frac: 0.2,
            weight: WeightScheme::default(),
            prune_factor: 1.5,
            lsh: LshConfig::default(),
            threads: 0,
        }
    }
}

impl BlockingConfig {
    /// This configuration with another strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Bookkeeping of one blocking run.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingStats {
    /// Documents in the corpus.
    pub docs: usize,
    /// Distinct normalized terms before df filtering.
    pub distinct_terms: usize,
    /// Token blocks (posting lists) surviving the df filter.
    pub token_blocks: usize,
    /// Candidate pairs emitted (the comparisons a downstream resolver
    /// performs).
    pub candidate_pairs: u64,
    /// Distinct pairs that collided in LSH band buckets before
    /// verification (0 for non-LSH strategies).
    pub bucket_pairs: u64,
    /// `n·(n−1)/2` — what resolving without blocking would cost.
    pub brute_force_pairs: u64,
    /// Emitted candidate blocks (connected components with ≥ 2 documents).
    pub blocks_built: usize,
}

impl BlockingStats {
    /// Comparisons avoided versus brute force.
    pub fn comparisons_avoided(&self) -> u64 {
        self.brute_force_pairs.saturating_sub(self.candidate_pairs)
    }

    /// Candidate pairs as a fraction of brute force (0 when the corpus has
    /// fewer than two documents).
    pub fn comparison_frac(&self) -> f64 {
        if self.brute_force_pairs == 0 {
            0.0
        } else {
            self.candidate_pairs as f64 / self.brute_force_pairs as f64
        }
    }
}

/// The outcome of a blocking run.
#[derive(Debug)]
pub struct CandidateBlocks {
    /// Strategy that produced it.
    pub strategy: Strategy,
    /// Candidate pairs, sorted `(i, j)` with `i < j`.
    pub pairs: Vec<(u32, u32)>,
    /// Candidate blocks: connected components of the candidate-pair graph
    /// with at least two documents, each sorted ascending; blocks ordered
    /// by their smallest document id. Documents in no block matched
    /// nothing and stay singletons.
    pub blocks: Vec<Vec<u32>>,
    /// Run bookkeeping.
    pub stats: BlockingStats,
}

impl CandidateBlocks {
    /// Pair recall against ground-truth co-referent pairs: the fraction of
    /// `truth` pairs present in the candidate set.
    pub fn pair_recall(&self, truth: &[(usize, usize)]) -> f64 {
        pair_recall(&self.pairs, truth)
    }
}

/// Pair recall of an arbitrary candidate set against ground-truth pairs
/// (`1.0` for empty truth — nothing to miss).
pub fn pair_recall(candidates: &[(u32, u32)], truth: &[(usize, usize)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<u64> = candidates
        .iter()
        .map(|&(i, j)| (u64::from(i) << 32) | u64::from(j))
        .collect();
    let hit = truth
        .iter()
        .filter(|&&(i, j)| {
            let (a, b) = (i.min(j) as u64, i.max(j) as u64);
            set.contains(&((a << 32) | b))
        })
        .count();
    hit as f64 / truth.len() as f64
}

/// The blocking engine: a configuration plus a metrics registry.
#[derive(Debug)]
pub struct Blocker {
    config: BlockingConfig,
    metrics: Arc<Registry>,
}

impl Blocker {
    /// A blocker with its own private metrics registry.
    pub fn new(config: BlockingConfig) -> Self {
        Self::with_metrics(config, Arc::new(Registry::new()))
    }

    /// A blocker recording into a caller-supplied registry (so one process
    /// can aggregate several runs, or `weber block` can dump them).
    pub fn with_metrics(config: BlockingConfig, metrics: Arc<Registry>) -> Self {
        Self { config, metrics }
    }

    /// The configuration.
    pub fn config(&self) -> &BlockingConfig {
        &self.config
    }

    /// The metrics registry (counters `block.*`, per-stage histograms
    /// `block.stage.*_us`).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Run the configured strategy over `docs` and produce candidate
    /// blocks. Deterministic for any `threads` setting.
    pub fn block(&self, docs: &[DocRecord]) -> CandidateBlocks {
        let total = Instant::now();
        let threads = effective_threads(self.config.threads, docs.len());

        let start = Instant::now();
        let index = build_index(docs, self.config.min_df, self.config.max_df_frac, threads);
        self.metrics
            .histogram("block.stage.index_us")
            .record_since(start);

        let mut bucket_pairs = 0u64;
        let pairs = match self.config.strategy {
            Strategy::Token => {
                let start = Instant::now();
                let pairs = token_pairs(&index);
                self.metrics
                    .histogram("block.stage.token_us")
                    .record_since(start);
                pairs
            }
            Strategy::Meta => {
                let start = Instant::now();
                let graph = build_block_graph(&index, self.config.weight, threads);
                self.metrics
                    .histogram("block.stage.graph_us")
                    .record_since(start);
                let start = Instant::now();
                let pairs = weight_edge_prune(&graph, self.config.prune_factor);
                self.metrics
                    .histogram("block.stage.prune_us")
                    .record_since(start);
                pairs
            }
            Strategy::Lsh => {
                let start = Instant::now();
                let result = lsh_candidates(&index.doc_terms, &self.config.lsh, threads);
                self.metrics
                    .histogram("block.stage.lsh_us")
                    .record_since(start);
                bucket_pairs = result.bucket_pairs;
                result.pairs
            }
        };

        let start = Instant::now();
        let blocks = components(docs.len(), &pairs);
        self.metrics
            .histogram("block.stage.components_us")
            .record_since(start);

        let n = docs.len() as u64;
        let stats = BlockingStats {
            docs: docs.len(),
            distinct_terms: index.distinct_terms,
            token_blocks: index.block_count(),
            candidate_pairs: pairs.len() as u64,
            bucket_pairs,
            brute_force_pairs: n * n.saturating_sub(1) / 2,
            blocks_built: blocks.len(),
        };
        self.metrics.counter("block.docs").add(stats.docs as u64);
        self.metrics
            .counter("block.token_blocks")
            .add(stats.token_blocks as u64);
        self.metrics
            .counter("block.candidate_pairs")
            .add(stats.candidate_pairs);
        self.metrics
            .counter("block.comparisons_avoided")
            .add(stats.comparisons_avoided());
        self.metrics
            .counter("block.blocks_built")
            .add(stats.blocks_built as u64);
        self.metrics
            .histogram("block.stage.total_us")
            .record_since(total);
        CandidateBlocks {
            strategy: self.config.strategy,
            pairs,
            blocks,
            stats,
        }
    }
}

/// Connected components of the candidate-pair graph with at least two
/// members: the blocks a downstream resolver consumes. Each block is
/// sorted; blocks are ordered by smallest member.
pub fn components(n: usize, pairs: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut uf = UnionFind::new(n);
    for &(i, j) in pairs {
        uf.union(i as usize, j as usize);
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for d in 0..n {
        by_root.entry(uf.find(d)).or_default().push(d as u32);
    }
    let mut blocks: Vec<Vec<u32>> = by_root
        .into_values()
        .filter(|members| members.len() >= 2)
        .collect();
    blocks.sort_unstable_by_key(|b| b[0]);
    blocks
}

/// Resolve a thread-count setting: 0 means available parallelism, and no
/// more workers than work items.
pub(crate) fn effective_threads(threads: usize, items: usize) -> usize {
    let chosen = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    };
    chosen.clamp(1, items.max(1))
}

/// Map `f` over `items` on scoped worker threads in contiguous chunks,
/// reassembled in input order — deterministic for any thread count.
pub(crate) fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = effective_threads(threads, items.len());
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("blocking worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records<'a>(texts: &'a [&'a str]) -> Vec<DocRecord<'a>> {
        texts
            .iter()
            .map(|t| DocRecord { text: t, url: None })
            .collect()
    }

    #[test]
    fn strategies_parse_and_name() {
        for s in [Strategy::Token, Strategy::Meta, Strategy::Lsh] {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
        }
        assert!("bogus".parse::<Strategy>().is_err());
    }

    #[test]
    fn token_blocking_end_to_end() {
        let docs = records(&[
            "cohen databases indexing",
            "cohen databases querying",
            "roses gardens watering",
            "roses gardens pruning",
        ]);
        let blocker = Blocker::new(BlockingConfig {
            strategy: Strategy::Token,
            max_df_frac: 1.0,
            threads: 1,
            ..BlockingConfig::default()
        });
        let out = blocker.block(&docs);
        assert_eq!(out.pairs, vec![(0, 1), (2, 3)]);
        assert_eq!(out.blocks, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(out.stats.candidate_pairs, 2);
        assert_eq!(out.stats.brute_force_pairs, 6);
        assert_eq!(out.stats.comparisons_avoided(), 4);
        assert!(out.stats.comparison_frac() < 0.5);
        // Metrics recorded.
        let snap = blocker.metrics().snapshot();
        assert_eq!(snap.counter("block.candidate_pairs"), Some(2));
        assert_eq!(snap.counter("block.blocks_built"), Some(2));
        assert!(snap.histogram("block.stage.total_us").unwrap().count >= 1);
    }

    #[test]
    fn recall_accounts_hits_and_misses() {
        let candidates = vec![(0u32, 1u32), (2, 3)];
        assert_eq!(pair_recall(&candidates, &[(0, 1), (2, 3)]), 1.0);
        assert_eq!(pair_recall(&candidates, &[(1, 0), (0, 2)]), 0.5);
        assert_eq!(pair_recall(&candidates, &[]), 1.0);
        assert_eq!(pair_recall(&[], &[(0, 1)]), 0.0);
    }

    #[test]
    fn components_group_transitively() {
        let blocks = components(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(blocks, vec![vec![0, 1, 2], vec![4, 5]]);
        assert!(components(3, &[]).is_empty());
    }

    #[test]
    fn all_strategies_are_deterministic_across_threads() {
        let texts: Vec<String> = (0..48)
            .map(|i| {
                format!(
                    "person{} writes about subject{} subject{} subject{} in place{}",
                    i % 8,
                    i % 8,
                    (i + 3) % 8,
                    (i + 5) % 8,
                    i % 4
                )
            })
            .collect();
        let docs: Vec<DocRecord> = texts
            .iter()
            .map(|t| DocRecord { text: t, url: None })
            .collect();
        for strategy in [Strategy::Token, Strategy::Meta, Strategy::Lsh] {
            let run = |threads: usize| {
                Blocker::new(BlockingConfig {
                    strategy,
                    max_df_frac: 0.5,
                    threads,
                    ..BlockingConfig::default()
                })
                .block(&docs)
            };
            let a = run(1);
            let b = run(4);
            let c = run(11);
            assert_eq!(a.pairs, b.pairs, "{strategy:?}");
            assert_eq!(b.pairs, c.pairs, "{strategy:?}");
            assert_eq!(a.blocks, b.blocks, "{strategy:?}");
            assert_eq!(a.stats, b.stats, "{strategy:?}");
        }
    }

    #[test]
    fn empty_corpus_yields_empty_outcome() {
        let out = Blocker::new(BlockingConfig::default()).block(&[]);
        assert!(out.pairs.is_empty());
        assert!(out.blocks.is_empty());
        assert_eq!(out.stats.brute_force_pairs, 0);
        assert_eq!(out.stats.comparison_frac(), 0.0);
    }

    #[test]
    fn par_chunks_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        let doubled = par_chunks(&items, 5, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(par_chunks(&empty, 3, |&x: &usize| x).is_empty());
    }
}
