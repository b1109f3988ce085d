#![warn(missing_docs)]

//! # weber-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation section (see `DESIGN.md` §4 and `EXPERIMENTS.md`),
//! plus ablation studies and the blocking-quality record `block_bench`.
//! Performance is measured by the repo benchmark in `benchmark/`, not here.
//!
//! Binaries (run with `cargo run -p weber-bench --release --bin <name>`):
//!
//! | binary                 | reproduces                                  |
//! |------------------------|---------------------------------------------|
//! | `fig1_region_accuracy` | Fig. 1 — per-region accuracy of a function  |
//! | `fig2_www05`           | Fig. 2 — WWW'05 per-function metrics        |
//! | `fig3_weps`            | Fig. 3 — WePS per-function metrics          |
//! | `table2_comparison`    | Table II — I4/I7/I10/C4/C7/C10/W            |
//! | `table3_per_name`      | Table III — per-name Fp breakdown           |
//! | `ablation_regions`     | region scheme / count sweep                 |
//! | `ablation_training`    | training-fraction sweep                     |
//! | `ablation_combination` | combination × clustering sweep              |

use weber_core::blocking::{prepare_dataset, PreparedDataset};
use weber_core::experiment::ExperimentConfig;
use weber_corpus::{generate, presets};
use weber_eval::MetricSet;
use weber_textindex::tfidf::TfIdf;

/// Default seed used by every experiment binary, so printed results are
/// reproducible run to run.
pub const DEFAULT_SEED: u64 = 20100301; // ICDE 2010 flavour

/// Generate and prepare the WWW'05-like dataset.
pub fn prepared_www05(seed: u64) -> PreparedDataset {
    prepare_dataset(&generate(&presets::www05_like(seed)), TfIdf::default())
}

/// Generate and prepare the WePS-like dataset.
pub fn prepared_weps(seed: u64) -> PreparedDataset {
    prepare_dataset(&generate(&presets::weps_like(seed)), TfIdf::default())
}

/// The paper's protocol: 10% training, 5 runs.
pub fn paper_protocol() -> ExperimentConfig {
    ExperimentConfig {
        train_fraction: 0.1,
        runs: 5,
        base_seed: 1,
    }
}

/// Format a metric to 4 decimals, as the paper's tables print them.
pub fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

/// The current git revision (short hash, `+dirty` when the tree has local
/// modifications), or `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let output = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match output(&["rev-parse", "--short", "HEAD"]) {
        None => "unknown".to_string(),
        Some(rev) => {
            let dirty = output(&["status", "--porcelain"])
                .map(|s| !s.is_empty())
                .unwrap_or(false);
            if dirty {
                format!("{rev}+dirty")
            } else {
                rev
            }
        }
    }
}

/// Print the run manifest as `#`-prefixed header lines: which binary
/// produced the output, under which seed and configuration, from which
/// git revision and crate version. Archived `results/*.txt` files carry
/// this header so a result can always be traced back to the code that
/// produced it; `scripts/results_check.sh` strips `#` lines before
/// diffing, so the manifest never causes spurious drift.
pub fn print_manifest(binary: &str, seed: u64, config: &str) {
    println!("# manifest: {binary}");
    println!("# seed: {seed}");
    println!("# config: {config}");
    println!("# git-revision: {}", git_revision());
    println!(
        "# crates: weber workspace {} (textindex extract simfun graph ml eval corpus core stream obs bench)",
        env!("CARGO_PKG_VERSION")
    );
}

/// RAII handle returned by [`manifest`]: prints the stage-timing footer
/// when dropped, i.e. when the experiment's `main` returns.
pub struct ManifestGuard {
    _priv: (),
}

impl Drop for ManifestGuard {
    fn drop(&mut self) {
        print_stage_timings();
    }
}

/// Print the manifest header now and the stage-timing footer at scope
/// exit. Experiment binaries call this on the first line of `main`:
///
/// ```ignore
/// let _manifest = weber_bench::manifest("fig2_www05", DEFAULT_SEED, "…");
/// ```
pub fn manifest(binary: &str, seed: u64, config: &str) -> ManifestGuard {
    print_manifest(binary, seed, config);
    ManifestGuard { _priv: () }
}

/// Print the batch pipeline's per-stage wall times as `#`-prefixed footer
/// lines, read from the global metrics registry ([`weber_obs`]). Stages
/// with no observations are omitted; a binary that never ran the pipeline
/// prints nothing.
pub fn print_stage_timings() {
    let snapshot = weber_obs::Registry::global().snapshot();
    let stages: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("core.stage.") && h.count > 0)
        .collect();
    if stages.is_empty() {
        return;
    }
    println!("# stage timings (wall time, microseconds):");
    for h in stages {
        let stage = h
            .name
            .trim_start_matches("core.stage.")
            .trim_end_matches("_us");
        println!(
            "#   {stage}: total={} calls={} mean={:.0} max={}",
            h.sum,
            h.count,
            h.mean(),
            h.max
        );
    }
}

/// Print a markdown-style table: header plus rows of equal arity.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// A row of the three paper metrics.
pub fn metric_cells(m: &MetricSet) -> Vec<String> {
    vec![fmt(m.fp), fmt(m.f), fmt(m.rand)]
}

/// The shared body of Figures 2 and 3: run every individual function under
/// the threshold criterion, then the combined technique (all functions, all
/// criteria, best-graph selection), and print one row per bar group.
pub fn figure_per_function(title: &str, prepared: &PreparedDataset) {
    use weber_core::decision::DecisionCriterion;
    use weber_core::experiment::run_experiment;
    use weber_core::resolver::ResolverConfig;
    use weber_simfun::functions::{subset_i10, FunctionId};

    let protocol = paper_protocol();
    println!("{title}");
    println!(
        "{} names, {} documents, 10% training, {} runs averaged",
        prepared.blocks.len(),
        prepared.blocks.iter().map(|b| b.block.len()).sum::<usize>(),
        protocol.runs
    );
    println!();
    let mut rows = Vec::new();
    for id in FunctionId::ALL {
        let cfg = ResolverConfig::individual(id, DecisionCriterion::Threshold);
        let out = run_experiment(prepared, &cfg, &protocol).expect("valid configuration");
        let mut row = vec![id.label().to_string()];
        row.extend(metric_cells(&out.mean));
        rows.push(row);
    }
    let combined = run_experiment(
        prepared,
        &ResolverConfig::accuracy_suite(subset_i10()),
        &protocol,
    )
    .expect("valid configuration");
    let mut row = vec!["Combined".to_string()];
    row.extend(metric_cells(&combined.mean));
    rows.push(row);
    print_table(&["function", "Fp-measure", "F-measure", "RandIndex"], &rows);

    let best_individual = rows[..rows.len() - 1]
        .iter()
        .map(|r| r[1].parse::<f64>().expect("formatted metric"))
        .fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!(
        "combined Fp {} vs best individual Fp {} -> improvement {:+.4}",
        fmt(combined.mean.fp),
        fmt(best_individual),
        combined.mean.fp - best_individual
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_is_four_decimals() {
        assert_eq!(fmt(0.81277), "0.8128");
        assert_eq!(fmt(1.0), "1.0000");
    }

    #[test]
    fn protocol_matches_paper() {
        let p = paper_protocol();
        assert_eq!(p.train_fraction, 0.1);
        assert_eq!(p.runs, 5);
    }

    #[test]
    fn metric_cells_order_is_fp_f_rand() {
        let m = MetricSet {
            fp: 0.1,
            f: 0.2,
            rand: 0.3,
        };
        assert_eq!(metric_cells(&m), vec!["0.1000", "0.2000", "0.3000"]);
    }
}
