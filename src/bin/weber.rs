//! `weber` — command-line front end for the entity-resolution library.
//!
//! ```text
//! weber generate --preset www05|weps|small|constrained-small|tiny|
//!                dirty|dirty-small [--seed N] --out FILE
//! weber stats    --dataset FILE
//! weber resolve  --dataset FILE [--train FRAC] [--seed N] [--out FILE]
//! weber experiment --dataset FILE [--train FRAC] [--runs N]
//! weber block    (--corpus FILE | --preset dirty|dirty-small [--seed N])
//!                [--strategy token|meta|lsh] [--out FILE] [--min-df N]
//!                [--max-df FRAC] [--weight cbs|js] [--prune-factor F]
//!                [--hashes N] [--bands N] [--lsh-threshold F] [--threads N]
//!                [--metrics-file FILE]
//! weber serve    [--listen ADDR] [--workers N] [--queue N] [--dataset FILE]
//!                [--max-connections N] [--idle-timeout SECS]
//!                [--state-dir DIR] [--max-names N]
//!                [--metrics-file FILE] [--metrics-interval SECS]
//! weber route    --backends ADDR,ADDR,... [--listen ADDR] [--replication R]
//!                [--retries N] [--probe-interval SECS] [--max-connections N]
//!                [--workers N] [--queue N] [--idle-timeout SECS]
//! ```
//!
//! Each subcommand accepts exactly the flags listed for it (`serve` and
//! `route` also take `--io event`, which means nothing); an unknown or
//! repeated flag is an error.

use std::collections::HashMap;
use std::process::ExitCode;

use weber::block::{Blocker, BlockingConfig, DocRecord, LshConfig, Strategy, WeightScheme};
use weber::core::blocking::prepare_dataset;
use weber::core::experiment::{run_experiment, ExperimentConfig};
use weber::core::resolver::{Resolver, ResolverConfig};
use weber::core::supervision::Supervision;
use weber::corpus::{
    dirty, dirty_small, generate, generate_dirty, presets, CorpusConfig, Dataset, DirtyConfig,
    DirtyCorpus,
};
use weber::eval::MetricSet;
use weber::shard::{route_stdio, route_tcp, spawn_prober, FrontOptions, Router, RouterOptions};
use weber::simfun::functions::subset_i10;
use weber::stream::{serve_stdio, serve_tcp, StreamConfig, StreamResolver, TcpOptions};
use weber::textindex::TfIdf;

const USAGE: &str = "\
weber — entity resolution for web document collections

USAGE:
  weber generate  --preset <www05|weps|small|constrained-small|tiny
                  |dirty|dirty-small> [--seed N] --out FILE
  weber stats     --dataset FILE
  weber resolve   --dataset FILE [--train FRAC] [--seed N] [--out FILE]
  weber experiment --dataset FILE [--train FRAC] [--runs N]
  weber block     (--corpus FILE | --preset dirty|dirty-small [--seed N])
                  [--strategy token|meta|lsh] [--out FILE] [--min-df N]
                  [--max-df FRAC] [--weight cbs|js] [--prune-factor F]
                  [--hashes N] [--bands N] [--lsh-threshold F] [--threads N]
                  [--metrics-file FILE]
  weber serve     [--listen ADDR] [--workers N] [--queue N] [--dataset FILE]
                  [--max-connections N] [--idle-timeout SECS]
                  [--state-dir DIR] [--max-names N]
                  [--metrics-file FILE] [--metrics-interval SECS]
  weber route     --backends ADDR,ADDR,... [--listen ADDR] [--replication R]
                  [--retries N] [--probe-interval SECS] [--max-connections N]
                  [--workers N] [--queue N] [--idle-timeout SECS]
  weber --version | --help

The resolve/experiment commands use the paper's full technique (functions
F1–F10, threshold + region-accuracy criteria, best-graph combination,
transitive closure).

The dirty / dirty-small presets generate a *flat* shuffled web corpus
(documents about all names in one pile, a fraction of surname mentions
misspelled) with global entity ground truth — the input of weber block.

The block command turns such a corpus into candidate blocks: token
blocking over normalized text+URL terms (--strategy token), meta-blocking
over the block graph with CBS or Jaccard edge weights pruned at
--prune-factor × the mean weight (--strategy meta, the default), or
MinHash/LSH banding (--strategy lsh, tuned by --hashes, --bands and the
verification --lsh-threshold). It writes NDJSON to --out (default
stdout): one {\"block\":K,\"docs\":[...]} line per candidate block, then
one {\"summary\":{...}} line with pair/recall accounting; --metrics-file
dumps the stage counters and latency histograms as text.

The serve command runs a streaming resolution daemon speaking NDJSON, one
request per line, over stdin/stdout (default) or a TCP socket (--listen).
Seed a name with a labelled batch, then ingest documents one at a time;
resolve reads back one name's current summary:
  {\"op\":\"seed\",\"name\":\"cohen\",\"docs\":[{\"text\":\"…\",\"label\":0},…]}
  {\"op\":\"ingest\",\"name\":\"cohen\",\"text\":\"…\"}
  {\"op\":\"resolve\",\"name\":\"cohen\"}
Above the partition sits the canonical entity layer (see PROTOCOL.md):
{\"op\":\"entities\",\"name\":...} materializes stable-ID entities with
per-mention provenance, {\"op\":\"same_as\",...} asserts or retracts
reversible merge links, and {\"op\":\"constraint\",...} adds global
cannot-link / one-to-one / type rules enforced at materialization.
--dataset seeds the gazetteer from a generated corpus file. On stdio each
line is answered before the next is read. With --listen the daemon serves
clients concurrently, up to --max-connections at once (default 64): one
epoll reactor thread multiplexes every connection (the open-file soft
limit is raised to the hard limit at startup), and --workers and --queue
size the worker pool and per-worker admission queue behind it (--io
event is still accepted and means nothing). --idle-timeout SECS evicts
silent connections (0 = never, the default). At most 256 pipelined
requests per connection are in flight; past that the reactor stops
reading the socket until replies drain. --state-dir DIR persists
per-name state: existing records are restored at startup, the whole
state is written back at shutdown, and the protocol gains explicit
persist/restore ops. --max-names N (requires
--state-dir) bounds live names, evicting the least-recently-touched to
disk and restoring it transparently on its next touch. The daemon keeps
counters, gauges and latency histograms (ingest latency, queue depth,
similarity-cache hits/misses, evictions, retrains); read them over the
wire with {\"op\":\"metrics\"} or dump them periodically as text with
--metrics-file FILE (every --metrics-interval seconds, default 10; a
final dump is written at shutdown).

The route command runs a sharded routing tier over several serve
backends: it speaks the same NDJSON protocol and consistent-hashes each
request's name onto the backend ring, so a client cannot tell it from a
single (much larger) daemon. With --replication R (default 1) every name
lives on the R distinct backends clockwise from its ring position:
writes (seed/ingest/same_as/constraint) fan out to all R — a replica
that misses a write gets the line buffered and replayed when it
recovers — and the per-name reads ({\"op\":\"resolve\",\"name\":...},
{\"op\":\"entities\",\"name\":...}) fail over across the set, so any
R-1 dead backends leave every name readable. Per-name ops use bounded
retries (--retries, default 2) over an asynchronous outbound pool: one
epoll reactor multiplexes every pooled backend socket (two per
backend), so a stalled backend ties up zero router threads —
its exchanges time out and answer \"unreachable\" while healthy shards
keep serving; snapshot, name-less entities, metrics, persist, restore,
flush and shutdown fan out to every backend and merge, degrading (\"degraded\":true plus the
unreachable shard list) instead of failing when backends are down.
The ring places 64 virtual nodes per backend.
{\"op\":\"health\"} reports the router's own probe-driven view of the
tier; {\"op\":\"topology\",\"backends\":[...]} re-shards at runtime,
persisting the old ring first so names migrate through a shared
--state-dir. Backends are probed every --probe-interval seconds
(default 1) with exponential backoff while down. The front end takes the
same --idle-timeout / --workers / --queue tuning as serve.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `--key value` flags after `command`, each of which must be one of
/// the space-separated `accepted` names and appear at most once.
fn flags(
    command: &str,
    accepted: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument '{key}'"));
        };
        if !accepted.split_whitespace().any(|flag| flag == name) {
            return Err(format!("unknown flag --{name} for '{command}'"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        if out.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("repeated flag --{name} for '{command}'"));
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{name}")),
    }
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = flags
        .get("dataset")
        .ok_or("missing required flag --dataset")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Dataset::from_json(&json).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    type Command = fn(&HashMap<String, String>) -> Result<(), String>;
    // Each subcommand's accepted flags, space-separated.
    let (run, accepted): (Command, &str) = match command.as_str() {
        "generate" => (cmd_generate, "preset seed out"),
        "stats" => (cmd_stats, "dataset"),
        "resolve" => (cmd_resolve, "dataset train seed out"),
        "experiment" => (cmd_experiment, "dataset train runs"),
        "block" => (
            cmd_block,
            "corpus preset seed strategy out min-df max-df weight prune-factor \
             hashes bands lsh-threshold threads metrics-file",
        ),
        "serve" => (
            cmd_serve,
            "listen workers queue dataset max-connections idle-timeout io \
             state-dir max-names metrics-file metrics-interval",
        ),
        "route" => (
            cmd_route,
            "backends listen replication retries probe-interval max-connections \
             workers queue idle-timeout io",
        ),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        "version" | "--version" | "-V" => {
            println!("weber {}", env!("CARGO_PKG_VERSION"));
            return Ok(());
        }
        other => return Err(format!("unknown command '{other}'")),
    };
    run(&flags(command, accepted, &args[1..])?)
}

fn preset_by_name(name: &str, seed: u64) -> Result<CorpusConfig, String> {
    match name {
        "www05" => Ok(presets::www05_like(seed)),
        "weps" => Ok(presets::weps_like(seed)),
        "small" => Ok(presets::small(seed)),
        "constrained-small" => Ok(presets::constrained_small(seed)),
        "tiny" => Ok(presets::tiny(seed)),
        other => Err(format!("unknown preset '{other}'")),
    }
}

fn dirty_preset_by_name(name: &str, seed: u64) -> Option<DirtyConfig> {
    match name {
        "dirty" => Some(dirty(seed)),
        "dirty-small" => Some(dirty_small(seed)),
        _ => None,
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let preset = flags
        .get("preset")
        .ok_or("missing required flag --preset")?;
    let seed: u64 = parse(flags, "seed", 0)?;
    let out = flags.get("out").ok_or("missing required flag --out")?;
    if let Some(config) = dirty_preset_by_name(preset, seed) {
        let corpus = generate_dirty(&config);
        let json = corpus.to_json().map_err(|e| e.to_string())?;
        std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote '{}' dirty corpus: {} documents, {} entities, {} bytes -> {}",
            corpus.label,
            corpus.len(),
            corpus.entities,
            json.len(),
            out
        );
        return Ok(());
    }
    let dataset = generate(&preset_by_name(preset, seed)?);
    let json = dataset.to_json().map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote '{}' corpus: {} names, {} documents, {} bytes -> {}",
        dataset.label,
        dataset.blocks.len(),
        dataset.document_count(),
        json.len(),
        out
    );
    Ok(())
}

fn cmd_block(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = match (flags.get("corpus"), flags.get("preset")) {
        (Some(_), Some(_)) => return Err("--corpus and --preset are mutually exclusive".into()),
        (Some(path), None) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            DirtyCorpus::from_json(&json).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
        (None, Some(preset)) => {
            let seed: u64 = parse(flags, "seed", 0)?;
            let config = dirty_preset_by_name(preset, seed)
                .ok_or_else(|| format!("unknown dirty preset '{preset}' (dirty|dirty-small)"))?;
            generate_dirty(&config)
        }
        (None, None) => return Err("missing required flag --corpus or --preset".into()),
    };

    let strategy: Strategy = parse(flags, "strategy", Strategy::Meta)?;
    let weight: WeightScheme = parse(flags, "weight", WeightScheme::Cbs)?;
    let config = BlockingConfig {
        strategy,
        min_df: parse(flags, "min-df", 2)?,
        max_df_frac: parse(flags, "max-df", 0.2)?,
        weight,
        prune_factor: parse(
            flags,
            "prune-factor",
            BlockingConfig::default().prune_factor,
        )?,
        lsh: LshConfig {
            hashes: parse(flags, "hashes", LshConfig::default().hashes)?,
            bands: parse(flags, "bands", LshConfig::default().bands)?,
            threshold: parse(flags, "lsh-threshold", LshConfig::default().threshold)?,
            ..LshConfig::default()
        },
        threads: parse(flags, "threads", 0)?,
    };

    let blocker = Blocker::new(config);
    let docs: Vec<DocRecord> = corpus
        .documents
        .iter()
        .map(|d| DocRecord {
            text: &d.text,
            url: d.url.as_deref(),
        })
        .collect();
    let outcome = blocker.block(&docs);
    let recall = outcome.pair_recall(&corpus.truth_pairs());

    let mut ndjson = String::new();
    for (k, members) in outcome.blocks.iter().enumerate() {
        ndjson.push_str(&format!(
            "{{\"block\":{k},\"docs\":{}}}\n",
            format_u32_list(members)
        ));
    }
    let stats = &outcome.stats;
    ndjson.push_str(&format!(
        "{{\"summary\":{{\"strategy\":\"{}\",\"docs\":{},\"token_blocks\":{},\
         \"blocks\":{},\"candidate_pairs\":{},\"brute_force_pairs\":{},\
         \"comparison_frac\":{:.6},\"pair_recall\":{:.6}}}}}\n",
        outcome.strategy.name(),
        stats.docs,
        stats.token_blocks,
        stats.blocks_built,
        stats.candidate_pairs,
        stats.brute_force_pairs,
        stats.comparison_frac(),
        recall,
    ));
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, &ndjson).map_err(|e| format!("cannot write {out}: {e}"))?
        }
        None => print!("{ndjson}"),
    }
    if let Some(path) = flags.get("metrics-file") {
        std::fs::write(path, blocker.metrics().render_text())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "blocked '{}' with {}: {} docs -> {} blocks, {} candidate pairs \
         ({:.1}% of brute force), pair recall {:.4}",
        corpus.label,
        outcome.strategy.name(),
        stats.docs,
        stats.blocks_built,
        stats.candidate_pairs,
        stats.comparison_frac() * 100.0,
        recall,
    );
    Ok(())
}

fn format_u32_list(values: &[u32]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let stats = weber::corpus::DatasetStats::compute(&dataset);
    println!(
        "dataset '{}' (seed {}): {} names, {} documents, gazetteer {} entries",
        dataset.label,
        dataset.seed,
        stats.blocks.len(),
        stats.document_count(),
        dataset.gazetteer.len(),
    );
    for b in &stats.blocks {
        println!(
            "  {:12} {:4} docs  {:3} entities (largest {:3})  {:3.0}% with URL  {:3}-{:3} words",
            b.query_name,
            b.documents,
            b.entities,
            b.dominant_size,
            b.url_rate * 100.0,
            b.doc_len.0,
            b.doc_len.2,
        );
    }
    println!(
        "means: {:.1} entities per name, {:.0}% URL coverage",
        stats.mean_entities(),
        stats.mean_url_rate() * 100.0
    );
    Ok(())
}

fn cmd_resolve(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let train: f64 = parse(flags, "train", 0.1)?;
    if !(0.0..=1.0).contains(&train) {
        return Err(format!("--train must be in [0, 1], got {train}"));
    }
    let seed: u64 = parse(flags, "seed", 1)?;
    let prepared = prepare_dataset(&dataset, TfIdf::default());
    let resolver = Resolver::new(ResolverConfig::default()).map_err(|e| e.to_string())?;
    let mut output: Vec<(String, Vec<u32>)> = Vec::new();
    println!(
        "resolving with {:.0}% supervision (seed {seed})",
        train * 100.0
    );
    for nb in &prepared.blocks {
        let sup = Supervision::sample_from_truth(&nb.truth, train, seed);
        let r = resolver
            .resolve(&nb.block, &sup)
            .map_err(|e| e.to_string())?;
        let m = MetricSet::evaluate(&r.partition, &nb.truth);
        println!(
            "  {:12} {:3} entities (truth {:3})  Fp {:.4}  F {:.4}  Rand {:.4}",
            nb.block.query_name(),
            r.partition.cluster_count(),
            nb.truth.cluster_count(),
            m.fp,
            m.f,
            m.rand,
        );
        output.push((
            nb.block.query_name().to_string(),
            r.partition.labels().to_vec(),
        ));
    }
    if let Some(out) = flags.get("out") {
        let json = serde_json_out(&output);
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote resolution labels to {out}");
    }
    Ok(())
}

/// Hand-rolled JSON for the label map (avoids a serde derive on CLI-only
/// output types).
fn serde_json_out(blocks: &[(String, Vec<u32>)]) -> String {
    let mut s = String::from("{\n");
    for (i, (name, labels)) in blocks.iter().enumerate() {
        s.push_str(&format!(
            "  \"{name}\": {:?}{}\n",
            labels,
            if i + 1 < blocks.len() { "," } else { "" }
        ));
    }
    s.push('}');
    s
}

fn cmd_experiment(flags: &HashMap<String, String>) -> Result<(), String> {
    let dataset = load_dataset(flags)?;
    let train: f64 = parse(flags, "train", 0.1)?;
    if !(0.0..=1.0).contains(&train) {
        return Err(format!("--train must be in [0, 1], got {train}"));
    }
    let runs: u64 = parse(flags, "runs", 5)?;
    let prepared = prepare_dataset(&dataset, TfIdf::default());
    let protocol = ExperimentConfig {
        train_fraction: train,
        runs,
        base_seed: 1,
    };
    println!(
        "protocol: {:.0}% training, {} runs averaged",
        train * 100.0,
        runs
    );
    for (label, cfg) in [
        (
            "I10 (threshold only)",
            ResolverConfig::threshold_suite(subset_i10()),
        ),
        (
            "C10 (region accuracy)",
            ResolverConfig::accuracy_suite(subset_i10()),
        ),
        (
            "W (weighted average)",
            ResolverConfig::weighted_average(subset_i10()),
        ),
    ] {
        let out = run_experiment(&prepared, &cfg, &protocol).map_err(|e| e.to_string())?;
        println!(
            "  {:22} Fp {:.4}  F {:.4}  Rand {:.4}",
            label, out.mean.fp, out.mean.f, out.mean.rand
        );
    }
    Ok(())
}

/// Parse the shared front-end tuning flag `--idle-timeout` (seconds,
/// 0 = never). `--io event` is accepted and ignored (the reactor is the
/// only front end; scripts still pass the flag).
fn idle_timeout(flags: &HashMap<String, String>) -> Result<Option<std::time::Duration>, String> {
    match flags.get("io").map(String::as_str) {
        None | Some("event" | "epoll") => {}
        Some(other) => return Err(format!("unknown io mode '{other}' (expected 'event')")),
    }
    let idle_secs: u64 = parse(flags, "idle-timeout", 0)?;
    Ok((idle_secs > 0).then(|| std::time::Duration::from_secs(idle_secs)))
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let workers: usize = parse(flags, "workers", 2)?;
    let queue: usize = parse(flags, "queue", 64)?;
    let max_connections: usize = parse(flags, "max-connections", 64)?;
    let idle_timeout = idle_timeout(flags)?;
    let gazetteer = match flags.get("dataset") {
        Some(_) => load_dataset(flags)?.gazetteer,
        None => weber::extract::gazetteer::Gazetteer::new(),
    };
    let mut config = StreamConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue);
    if let Some(dir) = flags.get("state-dir") {
        config = config.with_state_dir(dir);
    }
    if flags.contains_key("max-names") {
        config = config.with_max_names(parse(flags, "max-names", 1024)?);
    }
    let resolver =
        std::sync::Arc::new(StreamResolver::new(config, &gazetteer).map_err(|e| e.to_string())?);
    if let Some(dir) = flags.get("state-dir") {
        let restored = resolver.restore_all().map_err(|e| e.to_string())?;
        if restored > 0 {
            eprintln!("restored {restored} names from {dir}");
        }
    }
    let dumper = match flags.get("metrics-file") {
        Some(path) => {
            let interval: u64 = parse(flags, "metrics-interval", 10)?;
            if interval == 0 {
                return Err("--metrics-interval must be at least 1 second".into());
            }
            Some(spawn_metrics_dumper(
                resolver.clone(),
                path.clone(),
                std::time::Duration::from_secs(interval),
            ))
        }
        None => None,
    };
    let admitted = match flags.get("listen") {
        Some(addr) => {
            eprintln!(
                "serving NDJSON on {addr} ({workers} workers, queue {queue}, \
                 up to {max_connections} connections)"
            );
            let options = TcpOptions {
                workers,
                queue_capacity: queue,
                max_connections,
                idle_timeout,
            };
            serve_tcp(resolver.clone(), addr, &options).map_err(|e| e.to_string())?
        }
        None => {
            eprintln!("serving NDJSON on stdin/stdout (one request at a time)");
            serve_stdio(resolver.clone()).map_err(|e| e.to_string())?
        }
    };
    if let Some(dir) = flags.get("state-dir") {
        let written = resolver.persist_all().map_err(|e| e.to_string())?;
        eprintln!("persisted {written} names to {dir}");
    }
    if let Some((stop, handle, path)) = dumper {
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = handle.join();
        // One final dump so the file reflects the complete run.
        if let Err(e) = dump_metrics(&resolver, &path) {
            eprintln!("warning: final metrics dump failed: {e}");
        } else {
            eprintln!("wrote metrics to {path}");
        }
    }
    eprintln!("served {admitted} requests");
    Ok(())
}

fn cmd_route(flags: &HashMap<String, String>) -> Result<(), String> {
    let backends: Vec<String> = flags
        .get("backends")
        .ok_or("missing required flag --backends")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let max_connections: usize = parse(flags, "max-connections", 64)?;
    let probe_secs: u64 = parse(flags, "probe-interval", 1)?;
    if probe_secs == 0 {
        return Err("--probe-interval must be at least 1 second".into());
    }
    let replication: usize = parse(flags, "replication", 1)?;
    if replication == 0 {
        return Err("--replication must be at least 1".into());
    }
    if replication > backends.len() {
        eprintln!(
            "warning: --replication {replication} exceeds the {} configured backends; \
             every name will be on every backend",
            backends.len()
        );
    }
    let options = RouterOptions {
        replication,
        retries: parse(flags, "retries", 2)?,
        probe_interval: std::time::Duration::from_secs(probe_secs),
        ..RouterOptions::default()
    };
    let front = FrontOptions {
        workers: parse(flags, "workers", 4)?,
        queue_capacity: parse(flags, "queue", 256)?,
        max_connections,
        idle_timeout: idle_timeout(flags)?,
    };
    let router =
        std::sync::Arc::new(Router::new(backends.clone(), options).map_err(|e| e.to_string())?);
    let prober = spawn_prober(router.clone());
    let handled = match flags.get("listen") {
        Some(addr) => {
            eprintln!(
                "routing NDJSON on {addr} over {} backends ({}), up to {max_connections} connections",
                backends.len(),
                backends.join(", ")
            );
            route_tcp(router.clone(), addr, &front).map_err(|e| e.to_string())?
        }
        None => {
            eprintln!(
                "routing NDJSON on stdin/stdout over {} backends ({})",
                backends.len(),
                backends.join(", ")
            );
            route_stdio(router.clone()).map_err(|e| e.to_string())?
        }
    };
    prober.stop();
    eprintln!("routed {handled} requests");
    Ok(())
}

type DumperHandle = (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
    String,
);

/// Periodically render the resolver's metrics as text into `path`. The
/// write is atomic (temp file + rename) so readers never see a torn dump.
fn spawn_metrics_dumper(
    resolver: std::sync::Arc<StreamResolver>,
    path: String,
    interval: std::time::Duration,
) -> DumperHandle {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread_path = path.clone();
    let handle = std::thread::spawn(move || {
        let tick = std::time::Duration::from_millis(250);
        let mut elapsed = std::time::Duration::ZERO;
        while !stop_flag.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(tick.min(interval));
            elapsed += tick;
            if elapsed >= interval {
                elapsed = std::time::Duration::ZERO;
                if let Err(e) = dump_metrics(&resolver, &thread_path) {
                    eprintln!("warning: metrics dump failed: {e}");
                }
            }
        }
    });
    (stop, handle, path)
}

fn dump_metrics(resolver: &StreamResolver, path: &str) -> Result<(), String> {
    let text = resolver.metrics().merged_snapshot().render_text();
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} -> {path}: {e}"))
}
