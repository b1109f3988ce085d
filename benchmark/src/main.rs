//! `weber-benchmark` — the repo benchmark's harness.
//!
//! ```text
//! weber-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                 [--smoke] [--corpus-seed N]      one run, one result line
//! weber-benchmark --all [--seed N] [--smoke]       every workload, untraced then traced
//! weber-benchmark --repeat N [--workload NAME]     N untraced sets, spread beside bound
//! ```
//!
//! `benchmark/run.sh` builds `weber` and this binary and passes their
//! locations in `--weber` and `--benchmark-dir`.

mod inputs;
mod kernels;
mod replay;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use report::Metric;
use workloads::{Request, Workload, CORPUS_SEED, RUN_SECONDS};

struct Cli {
    flags: BTreeMap<String, String>,
}

impl Cli {
    /// `--flag value` pairs; `--all` and `--smoke` take no value.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = match name {
                "all" | "smoke" => "1".to_string(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.flags
            .get(name)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing --{name} (start the harness through benchmark/run.sh)"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = Cli::parse(args)?;
    if cli.has("repeat") {
        return repeat(&cli, args);
    }
    if cli.has("all") || !cli.has("workload") {
        return all(&cli, args);
    }
    one(&cli)
}

/// One workload, one run: the driver's entry point.
fn one(cli: &Cli) -> Result<bool, String> {
    let name: String = cli.get("workload", String::new())?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let smoke = cli.has("smoke");
    let benchmark_dir = cli.path("benchmark-dir")?;
    let out_root = benchmark_dir.join("out");
    let out_dir = if smoke {
        out_root.join("smoke")
    } else {
        out_root
    }
    .join(workload.name());
    let req = Request {
        workload,
        seed: cli.get("seed", report::DEFAULT_SEED)?,
        corpus_seed: cli.get("corpus-seed", CORPUS_SEED)?,
        seconds: cli.get("seconds", RUN_SECONDS)?,
        trace: cli.get::<u8>("trace", 0)? != 0,
        smoke,
        weber: cli.path("weber")?,
        out_dir: wire::fresh_dir(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?,
        benchmark_dir,
    };
    let outcome = workloads::run(&req)?;
    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    report::write_result(&req, &outcome, &req.benchmark_dir).map_err(|e| e.to_string())?;
    println!("{}", report::result_line(&outcome, req.trace));
    Ok(outcome.correct)
}

/// The result of one child run: its result line, parsed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Run this binary again for one workload and read its result line.
fn child(args: &[String], workload: Workload, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passed: Vec<&String> = {
        // Everything but the mode flags goes through unchanged.
        let mut keep = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--all" => {}
                "--repeat" | "--seed" | "--workload" => {
                    it.next();
                }
                _ => keep.push(a),
            }
        }
        keep
    };
    let output = Command::new(exe)
        .args(passed)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result", workload.name()))?;
    let value = serde_json::parse_value(line)
        .map_err(|e| format!("{}: unparseable result: {e}", workload.name()))?;
    let number = |k: &str| value.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("a result without metrics")?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Value::as_f64).unwrap_or(0.0),
            )
        })
        .collect();
    Ok(ChildRun {
        correct: value.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
    })
}

fn print_metrics(table: &[Metric], runs: &[(Workload, ChildRun)]) {
    print!("{:<34} {:<8} {:<7}", "metric", "unit", "better");
    for (w, _) in runs {
        print!(" {:>14}", w.name());
    }
    println!();
    for m in table {
        print!("{:<34} {:<8} {:<7}", m.name, m.unit, m.better);
        for (_, run) in runs {
            print!(" {:>14.4}", run.metrics.get(m.name).copied().unwrap_or(0.0));
        }
        println!();
    }
}

/// Every workload untraced for the end-to-end metrics, then traced for
/// the per-layer metrics; every metric printed by name with its unit.
fn all(cli: &Cli, args: &[String]) -> Result<bool, String> {
    let seed = cli.get("seed", report::DEFAULT_SEED)?;
    let mut green = true;
    for trace in [false, true] {
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            eprintln!(
                "running {} (seed {seed}, trace {})",
                workload.name(),
                trace as u8
            );
            let run = child(args, workload, seed, trace)?;
            runs.push((workload, run));
        }
        println!(
            "\n== {} metrics, seed {seed} ==",
            if trace {
                "per-layer (traced run)"
            } else {
                "end-to-end (untraced run)"
            }
        );
        print_metrics(report::table(trace), &runs);
        print!("{:<34} {:<8} {:<7}", "ops attempted / failed", "count", "");
        for (_, run) in &runs {
            print!(" {:>14}", format!("{} / {}", run.attempted, run.failed));
        }
        println!();
        print!("{:<34} {:<8} {:<7}", "oracle", "", "");
        for (_, run) in &runs {
            print!(" {:>14}", if run.correct { "green" } else { "RED" });
            green &= run.correct;
        }
        println!();
    }
    Ok(green)
}

/// `N` untraced sets with seeds `1..=N`: per metric × workload the
/// median, the quartiles and their distance as a share of the median,
/// beside the bound.
fn repeat(cli: &Cli, args: &[String]) -> Result<bool, String> {
    let sets: u64 = cli.get("repeat", 5)?;
    let mut green = true;
    println!(
        "{:<14} {:<18} {:>11} {:>11} {:>11} {:>11} {:>11} {:>7} {:>6}  verdict",
        "workload", "metric", "min", "q1", "median", "q3", "max", "spread", "bound"
    );
    let only: String = cli.get("workload", String::new())?;
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_empty() || w.name() == only)
    {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in 1..=sets {
            eprintln!("running {} (seed {seed} of {sets})", workload.name());
            let run = child(args, workload, seed, false)?;
            green &= run.correct && run.failed == 0.0;
            for m in &report::END_TO_END {
                values
                    .entry(m.name)
                    .or_default()
                    .push(run.metrics.get(m.name).copied().unwrap_or(0.0));
            }
        }
        for m in &report::END_TO_END {
            let (q1, median, q3) = stats::quartiles(&values[m.name]);
            let spread = if median != 0.0 {
                (q3 - q1) / median
            } else {
                0.0
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if m.name == "setup_s" || spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "inside the bound"
            } else {
                green = false;
                "OUTSIDE THE BOUND"
            };
            let min = values[m.name].iter().copied().fold(f64::INFINITY, f64::min);
            let max = values[m.name]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<14} {:<18} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>7.4} {:>6.2}  {verdict}",
                workload.name(),
                m.name,
                min,
                q1,
                median,
                q3,
                max,
                spread,
                bound
            );
        }
    }
    Ok(green)
}
