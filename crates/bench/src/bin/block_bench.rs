//! Blocking-quality harness: comparisons avoided vs pair recall.
//!
//! Runs every `weber-block` strategy (token, meta, lsh) over a generated
//! dirty corpus and emits one machine-readable `BENCH_block.json` report:
//! per strategy the candidate-pair count, the fraction of brute-force
//! comparisons it implies, the pair recall against the corpus's global
//! ground truth, and the best wall time over `--reps` repetitions. This is
//! the recall-vs-comparisons trade-off curve of the blocking literature,
//! one point per strategy.
//!
//! `--smoke` switches to the small preset with one rep for CI; `--out FILE`
//! names the report.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use weber_block::{Blocker, BlockingConfig, DocRecord, Strategy};
use weber_corpus::{dirty, dirty_small, generate_dirty, DirtyCorpus};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StrategyReport {
    strategy: String,
    candidate_pairs: u64,
    brute_force_pairs: u64,
    /// `candidate_pairs / brute_force_pairs`.
    comparison_frac: f64,
    comparisons_avoided: u64,
    pair_recall: f64,
    blocks: u64,
    token_blocks: u64,
    /// Best wall time over the reps, seconds.
    wall_seconds: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlockReport {
    scenario: String,
    preset: String,
    seed: u64,
    docs: u64,
    entities: u64,
    truth_pairs: u64,
    reps: u64,
    strategies: Vec<StrategyReport>,
}

struct Options {
    seed: u64,
    reps: usize,
    smoke: bool,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: weber_bench::DEFAULT_SEED,
            reps: 3,
            smoke: false,
            out: "BENCH_block.json".into(),
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: integer"),
            "--reps" => opts.reps = value("--reps").parse::<usize>().expect("--reps").max(1),
            "--out" => opts.out = value("--out"),
            "--smoke" => {
                opts.smoke = true;
                opts.reps = 1;
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    opts
}

fn run_strategy(
    corpus: &DirtyCorpus,
    truth: &[(usize, usize)],
    strategy: Strategy,
    reps: usize,
) -> StrategyReport {
    let docs: Vec<DocRecord> = corpus
        .documents
        .iter()
        .map(|d| DocRecord {
            text: &d.text,
            url: d.url.as_deref(),
        })
        .collect();
    let blocker = Blocker::new(BlockingConfig::default().with_strategy(strategy));
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = blocker.block(&docs);
        best = best.min(start.elapsed().as_secs_f64());
        outcome = Some(out);
    }
    let out = outcome.expect("at least one rep");
    StrategyReport {
        strategy: strategy.name().to_string(),
        candidate_pairs: out.stats.candidate_pairs,
        brute_force_pairs: out.stats.brute_force_pairs,
        comparison_frac: out.stats.comparison_frac(),
        comparisons_avoided: out.stats.comparisons_avoided(),
        pair_recall: out.pair_recall(truth),
        blocks: out.stats.blocks_built as u64,
        token_blocks: out.stats.token_blocks as u64,
        wall_seconds: best,
    }
}

fn main() {
    let opts = parse_args();
    let config = if opts.smoke {
        dirty_small(opts.seed)
    } else {
        dirty(opts.seed)
    };
    let corpus = generate_dirty(&config);
    let truth = corpus.truth_pairs();
    eprintln!(
        "blocking '{}' (seed {}): {} docs, {} entities, {} truth pairs",
        corpus.label,
        corpus.seed,
        corpus.len(),
        corpus.entities,
        truth.len()
    );

    let strategies: Vec<StrategyReport> = [Strategy::Token, Strategy::Meta, Strategy::Lsh]
        .into_iter()
        .map(|s| {
            let r = run_strategy(&corpus, &truth, s, opts.reps);
            eprintln!(
                "  {:5} {:>9} pairs ({:>5.1}% of brute force)  recall {:.4}  {:.3}s",
                r.strategy,
                r.candidate_pairs,
                r.comparison_frac * 100.0,
                r.pair_recall,
                r.wall_seconds
            );
            r
        })
        .collect();

    let report = BlockReport {
        scenario: "block_candidates".into(),
        preset: corpus.label.clone(),
        seed: corpus.seed,
        docs: corpus.len() as u64,
        entities: u64::from(corpus.entities),
        truth_pairs: truth.len() as u64,
        reps: opts.reps as u64,
        strategies,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write(&opts.out, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    eprintln!("wrote {}", opts.out);
}
