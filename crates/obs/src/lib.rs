#![warn(missing_docs)]

//! # weber-obs
//!
//! A small, dependency-free metrics registry for the weber stack: atomic
//! [`Counter`]s, [`Gauge`]s and fixed-bucket latency [`Histogram`]s, held
//! by name in a [`Registry`] and read out as plain [`MetricsSnapshot`]
//! structs (or the Prometheus-flavoured text of
//! [`Registry::render_text`]).
//!
//! Design constraints, in order:
//!
//! - **Zero cost when unread.** Recording is a handful of relaxed atomic
//!   operations on pre-registered handles — no locks, no allocation, no
//!   formatting. The registry lock is taken only at registration and
//!   snapshot time, never on the hot path. Holding a handle to a metric
//!   nobody ever snapshots costs nothing but its memory.
//! - **No dependencies.** Everything is `std`. Consumers that speak JSON
//!   (the `weber serve` protocol) convert snapshots themselves.
//! - **Names are the schema.** A metric is identified by its dotted name
//!   (`stream.ingest_us`, `core.stage.layer_build_us`); [`Scope`] prepends
//!   a label segment so per-subsystem names stay consistent.
//!
//! Handles are `Arc`s: registering the same name twice returns the same
//! underlying metric, so independent call sites share one counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, live-entry counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`sub`](Self::sub)).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: 100µs to 60s in
/// roughly 1-2.5-5 steps, wide enough for both a sub-millisecond ingest
/// and a multi-second checkpoint retrain.
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 60_000_000,
];

/// Sentinel used for the min register before the first observation.
const MIN_EMPTY: u64 = u64::MAX;

/// A fixed-bucket histogram: cumulative-style bucket counts over explicit
/// upper bounds, plus count / sum / min / max registers. Values are `u64`
/// (the stack records microseconds, but nothing here is time-specific).
///
/// Recording is lock-free: one `fetch_add` for the bucket, four more for
/// the registers (min/max via compare-exchange loops). Buckets are chosen
/// by linear scan — bound lists are short and the scan is branch-predictor
/// friendly.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds (inclusive), strictly increasing. Values above the
    /// last bound land in the implicit overflow bucket.
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the default latency bounds.
    pub fn new() -> Self {
        Self::with_bounds(DEFAULT_LATENCY_BOUNDS_US)
    }

    /// A histogram over explicit upper bounds (must be non-empty and
    /// strictly increasing).
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(MIN_EMPTY),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record the elapsed time since `start`, in microseconds. Durations
    /// beyond `u64` microseconds (584 millennia) saturate.
    pub fn record_since(&self, start: Instant) {
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record(us);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .bounds
                .iter()
                .map(|&b| BucketCount::Le(b))
                .chain(std::iter::once(BucketCount::Overflow))
                .zip(&self.buckets)
                .map(|(le, c)| (le, c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A bucket's upper bound in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketCount {
    /// Values `<=` this bound (microseconds for latency histograms).
    Le(u64),
    /// Values above every explicit bound.
    Overflow,
}

impl std::fmt::Display for BucketCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketCount::Le(b) => write!(f, "{b}"),
            BucketCount::Overflow => write!(f, "+Inf"),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket (bound, count) pairs, non-cumulative, overflow last.
    pub buckets: Vec<(BucketCount, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter (name, value) pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge (name, value) pairs.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Snapshot of a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Merge another snapshot into this one (disjoint name sets expected;
    /// on a clash both entries are kept) and restore sorted order.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.counters.sort();
        self.gauges.sort();
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Merge another snapshot into this one with every incoming metric
    /// name prefixed by `prefix.` — how an aggregator (the shard router)
    /// folds per-backend snapshots into one report without name clashes:
    /// backend 0's `stream.ingests` becomes `shard0.stream.ingests`.
    pub fn merge_namespaced(&mut self, prefix: &str, other: MetricsSnapshot) {
        self.merge(MetricsSnapshot {
            counters: other
                .counters
                .into_iter()
                .map(|(n, v)| (format!("{prefix}.{n}"), v))
                .collect(),
            gauges: other
                .gauges
                .into_iter()
                .map(|(n, v)| (format!("{prefix}.{n}"), v))
                .collect(),
            histograms: other
                .histograms
                .into_iter()
                .map(|mut h| {
                    h.name = format!("{prefix}.{}", h.name);
                    h
                })
                .collect(),
        });
    }

    /// Render as Prometheus-flavoured plain text, one value per line,
    /// deterministic order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum));
            out.push_str(&format!("{}_min {}\n", h.name, h.min));
            out.push_str(&format!("{}_max {}\n", h.name, h.max));
            for (le, c) in &h.buckets {
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {c}\n", h.name));
            }
        }
        out
    }
}

/// A named collection of metrics. Registration returns shared [`Arc`]
/// handles: asking for the same name twice hands back the same metric, so
/// the registry lock is only a registration/snapshot cost, never a
/// recording cost.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry. Library code that has no natural
    /// owner for its metrics (the batch pipeline's stage timers) records
    /// here; binaries read it out at exit.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram registered under `name` (default latency bounds),
    /// creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, DEFAULT_LATENCY_BOUNDS_US)
    }

    /// The histogram registered under `name`, creating it with `bounds` on
    /// first use (an existing histogram keeps its original bounds).
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_bounds(bounds))),
        )
    }

    /// A [`Scope`] that prepends `prefix.` to every metric name.
    pub fn scope(self: &Arc<Self>, prefix: impl Into<String>) -> Scope {
        Scope {
            registry: Arc::clone(self),
            prefix: prefix.into(),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }

    /// Render every metric as Prometheus-flavoured plain text, one value
    /// per line, deterministic order (what `--metrics-file` dumps).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A labelled view of a registry: every metric name gets `prefix.`
/// prepended, so per-subsystem (or per-stage, per-name) scopes register
/// consistently named metrics without threading string concatenation
/// through call sites.
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Arc<Registry>,
    prefix: String,
}

impl Scope {
    /// The underlying registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A child scope: `parent.child.`-prefixed names.
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: Arc::clone(&self.registry),
            prefix: format!("{}.{prefix}", self.prefix),
        }
    }

    fn qualify(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// The counter `prefix.name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.qualify(name))
    }

    /// The gauge `prefix.name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.qualify(name))
    }

    /// The histogram `prefix.name` (default latency bounds).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.qualify(name))
    }
}

/// Time a closure and record the elapsed microseconds into a histogram
/// from the global registry under `name`. This is the batch pipeline's
/// stage-timing primitive: one global histogram per stage, zero setup for
/// callers, and the closure's result passes straight through.
pub fn time_stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let h = Registry::global().histogram(name);
    let start = Instant::now();
    let out = f();
    h.record_since(start);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = Gauge::new();
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        // On-boundary values land in the bucket they bound.
        h.record(10);
        h.record(100);
        h.record(1000);
        // Interior and overflow values.
        h.record(0);
        h.record(11);
        h.record(1001);
        let s = h.snapshot("t");
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 10 + 100 + 1000 + 11 + 1001);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1001);
        assert_eq!(
            s.buckets,
            vec![
                (BucketCount::Le(10), 2),   // 0, 10
                (BucketCount::Le(100), 2),  // 11, 100
                (BucketCount::Le(1000), 1), // 1000
                (BucketCount::Overflow, 1), // 1001
            ]
        );
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot("t");
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_are_rejected() {
        Histogram::with_bounds(&[10, 10]);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        let registry = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    // Each thread registers by name, exercising the
                    // shared-handle path, not just a cloned Arc.
                    let c = registry.counter("hits");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(registry.counter("hits").get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_records_preserve_count_and_sum() {
        let h = Arc::new(Histogram::with_bounds(&[5, 50]));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 10 + (i % 3));
                    }
                });
            }
        });
        let s = h.snapshot("t");
        assert_eq!(s.count, 4000);
        let buckets_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(buckets_total, s.count, "every record lands in a bucket");
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn scopes_qualify_names() {
        let r = Arc::new(Registry::new());
        let s = r.scope("stream");
        s.counter("ingests").add(2);
        s.scope("cache").counter("hits").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("stream.ingests"), Some(2));
        assert_eq!(snap.counter("stream.cache.hits"), Some(1));
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let r = Registry::new();
        r.counter("a").inc();
        r.gauge("b").set(-3);
        r.histogram("c").record(42);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(1));
        assert_eq!(s.gauge("b"), Some(-3));
        assert_eq!(s.histogram("c").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn merge_namespaced_prefixes_every_metric() {
        let local = Registry::new();
        local.counter("route.requests").add(2);
        let backend = Registry::new();
        backend.counter("stream.ingests").add(7);
        backend.gauge("net.queue_depth").set(1);
        backend.histogram("stream.ingest_us").record(300);
        let mut merged = local.snapshot();
        merged.merge_namespaced("shard0", backend.snapshot());
        assert_eq!(merged.counter("route.requests"), Some(2));
        assert_eq!(merged.counter("shard0.stream.ingests"), Some(7));
        assert_eq!(merged.gauge("shard0.net.queue_depth"), Some(1));
        assert_eq!(
            merged.histogram("shard0.stream.ingest_us").unwrap().count,
            1
        );
        // The un-prefixed backend names are gone; order stays sorted.
        assert_eq!(merged.counter("stream.ingests"), None);
        assert!(merged.counters.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn render_text_is_line_per_value() {
        let r = Registry::new();
        r.counter("requests").add(3);
        r.gauge("depth").set(2);
        r.histogram_with("lat_us", &[10]).record(4);
        let text = r.render_text();
        assert!(text.contains("requests 3\n"), "{text}");
        assert!(text.contains("depth 2\n"), "{text}");
        assert!(text.contains("lat_us_count 1\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 0\n"), "{text}");
    }

    #[test]
    fn time_stage_records_into_the_global_registry() {
        let before = Registry::global().histogram("obs.test.stage_us").count();
        let out = time_stage("obs.test.stage_us", || 21 * 2);
        assert_eq!(out, 42);
        let after = Registry::global().histogram("obs.test.stage_us").count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn record_since_measures_microseconds() {
        let h = Histogram::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        h.record_since(start);
        let s = h.snapshot("t");
        assert_eq!(s.count, 1);
        assert!(s.min >= 2_000, "slept 2ms, recorded {}us", s.min);
    }
}
