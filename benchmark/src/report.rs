//! Metric names, units and bounds (mirrored by `BENCHMARK.json`), the
//! result line the driver reads, and the result files with provenance.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::workloads::{Outcome, Request, Sizes};

/// The seed `benchmark/run.sh` uses when none is given, and the one
/// `expected.json` was recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// The bounds are what this box can resolve, not what one would wish: its
/// speed shifts by 10–25 % for 5–20 s at a time, a run measures 6–9 s,
/// and ten runs of one commit show quartile spreads of 3–6 % in a calm
/// quarter of an hour and 13–24 % in a noisy one (see the README).
pub const END_TO_END: [Metric; 9] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("docs_per_s", "docs/s", "higher", 0.25),
    gated("ingest_p50_us", "us", "lower", 0.25),
    gated("ingest_p99_us", "us", "lower", 0.25),
    gated("resolve_p50_us", "us", "lower", 0.25),
    gated("entities_p50_us", "us", "lower", 0.25),
    gated("restore_s", "s", "lower", 0.25),
    gated("fp_mean", "Fp", "higher", 0.01),
    gated("peak_rss_mb", "MB", "lower", 0.15),
];

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (0 where a workload does not run the layer).
pub const PER_LAYER: [Metric; 69] = [
    layer("wire.resolve_p99_us", "us", "lower"),
    layer("stream.state.checkpoint_ms", "ms", "lower"),
    layer("stream.state.checkpoint_max_ms", "ms", "lower"),
    layer("stream.state.checkpoints", "count", "lower"),
    layer("stream.state.checkpoint_share", "ratio", "lower"),
    layer("stream.state.steady_us", "us", "lower"),
    layer("stream.state.steady_p99_us", "us", "lower"),
    layer("stream.state.steady_ns_per_member", "ns", "lower"),
    layer("stream.state.seed_ms", "ms", "lower"),
    layer("extract.extract_us", "us", "lower"),
    layer("stream.protocol.parse_us", "us", "lower"),
    layer("stream.service.ingest_us", "us", "lower"),
    layer("stream.service.ingest_p99_us", "us", "lower"),
    layer("stream.service.resolve_us", "us", "lower"),
    layer("stream.service.entities_us", "us", "lower"),
    layer("stream.service.self_us", "us", "lower"),
    layer("entity.materialize_us", "us", "lower"),
    layer("stream.snapshot.persist_ms", "ms", "lower"),
    layer("stream.snapshot.restore_ms", "ms", "lower"),
    layer("net.wire_self_us", "us", "lower"),
    layer("net.wire_self_resolve_us", "us", "lower"),
    layer("shard.ring.lookup_ns", "ns", "lower"),
    layer("shard.router.ingest_us", "us", "lower"),
    layer("shard.router.resolve_us", "us", "lower"),
    layer("shard.router.entities_us", "us", "lower"),
    layer("shard.router.hop_us", "us", "lower"),
    layer("shard.front_self_us", "us", "lower"),
    layer("simfun.block.prepare_ms", "ms", "lower"),
    layer("simfun.graph_ms.f1", "ms", "lower"),
    layer("simfun.graph_ms.f2", "ms", "lower"),
    layer("simfun.graph_ms.f3", "ms", "lower"),
    layer("simfun.graph_ms.f4", "ms", "lower"),
    layer("simfun.graph_ms.f5", "ms", "lower"),
    layer("simfun.graph_ms.f6", "ms", "lower"),
    layer("simfun.graph_ms.f7", "ms", "lower"),
    layer("simfun.graph_ms.f8", "ms", "lower"),
    layer("simfun.graph_ms.f9", "ms", "lower"),
    layer("simfun.graph_ms.f10", "ms", "lower"),
    layer("simfun.graph_cached_us", "us", "lower"),
    layer("simfun.pairs_per_s", "pairs/s", "higher"),
    layer("core.layers.build_ms", "ms", "lower"),
    layer("core.combine_cluster_ms", "ms", "lower"),
    layer("core.resolver.resolve_ms", "ms", "lower"),
    layer("core.trained.train_ms", "ms", "lower"),
    layer("eval.fp_us", "us", "lower"),
    layer("corpus.generate_s", "s", "lower"),
    layer("stream.ingests", "count", "higher"),
    layer("stream.seeds", "count", "higher"),
    layer("stream.retrains", "count", "lower"),
    layer("stream.restores", "count", "higher"),
    layer("stream.persists", "count", "higher"),
    layer("stream.cache.hit_ratio", "ratio", "higher"),
    layer("stream.cache.rebuilds", "count", "lower"),
    layer("stream.ingest_us.mean", "us", "lower"),
    layer("net.lines_total", "count", "higher"),
    layer("net.shed_total", "count", "lower"),
    layer("entity.splits", "count", "lower"),
    layer("route.requests", "count", "higher"),
    layer("route.retries", "count", "lower"),
    layer("route.errors", "count", "lower"),
    layer("route.failover_reads", "count", "lower"),
    layer("route.repair_dropped", "count", "lower"),
    layer("route.forward_us.mean", "us", "lower"),
    layer("route.key_skew", "ratio", "lower"),
    layer("net.depth2.completed_share", "ratio", "higher"),
    layer("net.depth2.ingest_p50_us", "us", "lower"),
    layer("shard.r2.completed_share", "ratio", "higher"),
    layer("shard.r2.ingest_p50_us", "us", "lower"),
    layer("trace.span_overhead_ns", "ns", "lower"),
];

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_value(table: &[Metric], values: &BTreeMap<&'static str, f64>) -> Value {
    Value::Object(
        table
            .iter()
            .map(|m| {
                let value = values.get(m.name).copied().unwrap_or(0.0);
                let cell = object(vec![
                    ("value", Value::Number(value)),
                    ("unit", Value::String(m.unit.into())),
                ]);
                (m.name.to_string(), cell)
            })
            .collect(),
    )
}

/// The metrics table of a run: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let values = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let line = object(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Number(outcome.attempted.max(1) as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", metrics_value(table(trace), values)),
    ]);
    serde_json::to_string(&line).expect("a result serialises")
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from: code revision, machine shape, toolchain.
fn provenance(benchmark_dir: &Path) -> Value {
    let text = |v: Option<String>| Value::String(v.unwrap_or_else(|| "unknown".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string());
    let dirty =
        command_line("git", &["status", "--porcelain"], benchmark_dir).map(|s| !s.is_empty());
    object(vec![
        (
            "git_revision",
            text(command_line("git", &["rev-parse", "HEAD"], benchmark_dir)),
        ),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        (
            "nproc",
            Value::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", text(cpu)),
        ("kernel", text(kernel)),
        ("rustc", text(command_line("rustc", &["-V"], benchmark_dir))),
    ])
}

/// Write `<out_dir>/end_to_end.json` or `<out_dir>/per_layer.json`: the
/// metrics with their units, what was checked, and the provenance.
pub fn write_result(req: &Request, outcome: &Outcome, benchmark_dir: &Path) -> std::io::Result<()> {
    let values = if req.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let constants = format!("{:?}", Sizes::new(req.seconds, req.smoke));
    let samples = outcome
        .samples
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
        .collect();
    let file = object(vec![
        ("workload", Value::String(req.workload.name().into())),
        ("seed", Value::Number(req.seed as f64)),
        ("corpus_seed", Value::Number(req.corpus_seed as f64)),
        ("seconds", Value::Number(req.seconds)),
        ("trace", Value::Bool(req.trace)),
        ("smoke", Value::Bool(req.smoke)),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", metrics_value(table(req.trace), values)),
        ("samples", Value::Object(samples)),
        (
            "per_name_fp",
            Value::Array(
                outcome
                    .per_name_fp
                    .iter()
                    .map(|&f| Value::Number(f))
                    .collect(),
            ),
        ),
        (
            "notes",
            Value::Array(outcome.notes.iter().cloned().map(Value::String).collect()),
        ),
        ("constants", Value::String(constants)),
        ("provenance", provenance(benchmark_dir)),
    ]);
    let name = if req.trace {
        "per_layer.json"
    } else {
        "end_to_end.json"
    };
    let json = serde_json::to_string_pretty(&file).expect("a result serialises");
    std::fs::write(req.out_dir.join(name), format!("{json}\n"))
}

/// The committed per-name Fp of `batch_paper` at the default seeds.
pub fn expected_fp(benchmark_dir: &Path) -> Result<Vec<f64>, String> {
    let path = benchmark_dir.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = serde_json::parse_value(&text).map_err(|e| e.to_string())?;
    value
        .get("batch_paper_per_name_fp")
        .and_then(Value::as_array)
        .ok_or("no batch_paper_per_name_fp array")?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| "a non-number in batch_paper_per_name_fp".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let manifest = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        manifest
            .get(section)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k| m.get(k).unwrap().as_str().unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn coded(table: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        table
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_harness_prints() {
        assert_eq!(declared("end_to_end"), coded(&END_TO_END));
        assert_eq!(declared("per_layer"), coded(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_the_four_workloads_and_the_frozen_run_length() {
        let manifest = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = manifest
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let coded: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, coded);
        assert_eq!(
            manifest.get("run_seconds").unwrap().as_f64(),
            Some(crate::workloads::RUN_SECONDS)
        );
    }

    #[test]
    fn the_result_line_has_every_metric_of_its_table() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        outcome.end_to_end.insert("setup_s", 1.25);
        let line = serde_json::parse_value(&result_line(&outcome, false)).unwrap();
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(line.get("attempted").unwrap().as_u64(), Some(3));
        let traced = serde_json::parse_value(&result_line(&outcome, true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
