//! The router: one `weber serve`-shaped NDJSON surface over many backends.
//!
//! `Router::parse` decodes a line once into what the router will do —
//! the tier's one op table — and `Router::execute` runs it; nothing
//! downstream decodes the client's line again. Per-name writes (`seed`,
//! `ingest`, and the entity-table mutations `same_as` / `constraint`) are
//! forwarded to the `R` distinct backends the [`HashRing`] says hold the
//! name (`--replication R`, default 1), with bounded retries; a write
//! acked by fewer than R replicas is marked degraded and the missed lines
//! are buffered per backend for replay when it recovers (write repair).
//! Per-name reads (`resolve`, named `entities`) try the replica set in
//! ring order — healthy members first — and fail over until one answers.
//! A per-name reply is relayed as the backend's bytes, with the router's
//! tags spliced in front of its final `}`. Fan-out ops (`snapshot`,
//! name-less `entities`, `metrics`, `persist`, `restore`, `flush`,
//! `shutdown`) are broadcast to every backend concurrently and merged
//! ([`crate::merge`]) — dead backends degrade the answer rather than fail
//! it (and under replication a snapshot with fewer than R backends down is
//! not degraded at all). Two ops never touch a backend: `health` reports
//! the router's own view of the tier, and `topology` swaps the backend set
//! at runtime (persisting the old ring first so names — and their replicas
//! — migrate through the shared state directory).
//!
//! Every backend exchange rides the shared [`OutboundPool`] reactor, so
//! forwarding is a *state machine*, not a parked thread: per-name ops
//! have an asynchronous spine where retries, write fan-out and read
//! failover advance from pool completion callbacks, and
//! [`Router::process_line`] is the blocking wrapper (submit, wait on a
//! channel) for the stdio front end, the front end's worker threads,
//! probes and tests. One stalled backend therefore stalls only the
//! exchanges addressed to it — never a front-end worker, and never
//! requests owned by healthy shards.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;
use weber_obs::{Counter, Gauge, Histogram, Registry};
use weber_stream::protocol;
use weber_stream::StreamError;

use crate::health::HealthState;
use crate::merge::{self, ShardOutcome};
use crate::pool::{OutboundPool, Phase, PoolOptions};
use crate::ring::{fnv1a, HashRing, VNODES};
use crate::unpoisoned;

/// Lines buffered per backend for write repair before the oldest is
/// dropped (and counted on `route.repair_dropped`). Bounds memory during
/// a long outage; a drop means that backend needs a re-seed or a restore
/// from the shared state directory to fully converge.
const REPAIR_QUEUE_CAP: usize = 4096;

/// Tuning knobs of the routing tier.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Virtual points per backend on the ring: must be [`VNODES`], which
    /// every router of a tier shares, and [`Router::new`] rejects any other
    /// value. Kept only because the repo benchmark reads it off the
    /// default: one of the harness-pinned forwards, removed when the
    /// harness moves to the new names.
    pub vnodes: usize,
    /// Copies of every name: each write goes to the first `replication`
    /// distinct backends clockwise from the name's ring position, and
    /// reads fail over across the same set. 1 (the default) is plain
    /// sharding; values above the backend count are clamped to it.
    pub replication: usize,
    /// Extra forwarding attempts after the first failure (idempotent ops;
    /// `ingest` only re-attempts failures that provably sent nothing).
    pub retries: usize,
    /// TCP connect timeout towards a backend.
    pub connect_timeout: Duration,
    /// Per-exchange read/write timeout towards a backend.
    pub io_timeout: Duration,
    /// Base health-probe cadence (failures back off exponentially from
    /// this).
    pub probe_interval: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            vnodes: VNODES,
            replication: 1,
            retries: 2,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(30),
            probe_interval: Duration::from_secs(1),
        }
    }
}

/// A bad router configuration or topology request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError(pub String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RouterError {}

/// One backend as the router sees it: its health record, repair backlog
/// and per-backend counters (named by address, so they survive topology
/// changes that renumber ring indices). Connections live in the shared
/// [`OutboundPool`], keyed by this shard's address.
struct Shard {
    addr: String,
    health: HealthState,
    /// Write lines this backend missed while its replica peers acked —
    /// replayed in arrival order once it is healthy again. Keyed to the
    /// address (like the counters), so the backlog survives topology
    /// changes that renumber ring indices.
    repair: Mutex<VecDeque<String>>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    retries: Arc<Counter>,
}

impl Shard {
    fn new(addr: &str, registry: &Registry) -> Self {
        Shard {
            addr: addr.to_string(),
            health: HealthState::new(),
            repair: Mutex::new(VecDeque::new()),
            requests: registry.counter(&format!("route.backend.{addr}.requests")),
            errors: registry.counter(&format!("route.backend.{addr}.errors")),
            retries: registry.counter(&format!("route.backend.{addr}.retries")),
        }
    }
}

/// An immutable ring + shard set; swapped atomically on topology change.
struct Topology {
    ring: HashRing,
    shards: Vec<Arc<Shard>>,
}

/// What [`Router::process_line`] did with one request line.
pub struct LineOutcome {
    /// The single NDJSON response line.
    pub response: String,
    /// True when the request asked the whole tier to stop.
    pub shutdown: bool,
}

impl LineOutcome {
    fn reply(response: String) -> Self {
        LineOutcome {
            response,
            shutdown: false,
        }
    }
}

/// Completion for one fully-routed line (reply tagged and merged).
pub type LineCallback = Box<dyn FnOnce(LineOutcome) + Send>;

/// Completion for one backend exchange after retries.
type ExchangeDone = Box<dyn FnOnce(Result<String, io::Error>) + Send>;

/// The routing tier's state and request loop body. Cheap to share: the
/// public handle wraps one [`Arc`]'d core, which asynchronous forwarding
/// callbacks keep alive while their exchanges are in flight.
pub struct Router {
    inner: Arc<Inner>,
}

struct Inner {
    topology: RwLock<Arc<Topology>>,
    options: RouterOptions,
    registry: Arc<Registry>,
    /// The shared outbound reactor every backend exchange rides.
    pool: OutboundPool,
    started: Instant,
    requests: Arc<Counter>,
    retries: Arc<Counter>,
    errors: Arc<Counter>,
    /// Successful write acks on non-primary replicas.
    replica_writes: Arc<Counter>,
    /// Reads answered by a replica other than the name's primary.
    failover_reads: Arc<Counter>,
    /// Buffered write lines successfully replayed to recovered backends.
    replica_lag_repairs: Arc<Counter>,
    /// Buffered write lines dropped because a backend's repair queue
    /// overflowed during its outage.
    repair_dropped: Arc<Counter>,
    forward_us: Arc<Histogram>,
    fanout_us: Arc<Histogram>,
    ring_size: Arc<Gauge>,
    healthy_backends: Arc<Gauge>,
}

fn validated(backends: &[String]) -> Result<(), RouterError> {
    if backends.is_empty() {
        return Err(RouterError("at least one backend is required".into()));
    }
    for (i, addr) in backends.iter().enumerate() {
        if addr.is_empty() {
            return Err(RouterError("backend addresses must be non-empty".into()));
        }
        if backends[..i].contains(addr) {
            return Err(RouterError(format!("backend '{addr}' is listed twice")));
        }
    }
    Ok(())
}

impl Router {
    /// A router over `backends` (non-empty, no duplicates). Backends are
    /// not contacted here — the first probe or routed request finds out
    /// who is alive.
    pub fn new(backends: Vec<String>, options: RouterOptions) -> Result<Self, RouterError> {
        validated(&backends)?;
        if options.vnodes != VNODES {
            return Err(RouterError(format!("vnodes is fixed at {VNODES}")));
        }
        let registry = Arc::new(Registry::new());
        let pool = OutboundPool::new(PoolOptions {
            connect_timeout: options.connect_timeout,
            io_timeout: options.io_timeout,
            ..PoolOptions::default()
        })
        .map_err(|e| RouterError(format!("cannot start the outbound reactor: {e}")))?;
        let shards = backends
            .iter()
            .map(|addr| Arc::new(Shard::new(addr, &registry)))
            .collect();
        let ring = HashRing::new(&backends, VNODES);
        let inner = Inner {
            topology: RwLock::new(Arc::new(Topology { ring, shards })),
            started: Instant::now(),
            requests: registry.counter("route.requests"),
            retries: registry.counter("route.retries"),
            errors: registry.counter("route.errors"),
            replica_writes: registry.counter("route.replica_writes"),
            failover_reads: registry.counter("route.failover_reads"),
            replica_lag_repairs: registry.counter("route.replica_lag_repairs"),
            repair_dropped: registry.counter("route.repair_dropped"),
            forward_us: registry.histogram("route.forward_us"),
            fanout_us: registry.histogram("route.fanout_us"),
            ring_size: registry.gauge("route.ring_size"),
            healthy_backends: registry.gauge("route.healthy_backends"),
            registry,
            options,
            pool,
        };
        inner.update_gauges();
        Ok(Router {
            inner: Arc::new(inner),
        })
    }

    /// Current backend addresses, in ring-index order.
    pub fn backends(&self) -> Vec<String> {
        self.inner.topology().ring.backends().to_vec()
    }

    /// Which backend (index, address) owns `name` (the primary of its
    /// replica set).
    pub fn owner(&self, name: &str) -> (usize, String) {
        let topo = self.inner.topology();
        let idx = topo.ring.owner(name);
        (idx, topo.ring.backends()[idx].clone())
    }

    /// `name`'s replica set — the backends a write goes to and a read may
    /// be served from, primary first.
    pub fn replica_set(&self, name: &str) -> Vec<usize> {
        let topo = self.inner.topology();
        let r = self.inner.replication_for(&topo);
        topo.ring.successors(name, r)
    }

    /// The router's own metrics registry (the `metrics` op merges this
    /// with every backend's snapshot).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Shared handle to the same registry, for front ends that outlive
    /// a borrow (the event loop surfaces its `net.*` metrics there).
    pub fn registry_handle(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Swap the backend set. The old ring is asked to `persist` first so
    /// every name reaches the shared state directory; the new owners then
    /// restore names lazily on their next touch (`weber serve
    /// --state-dir` restores transparently). Shards for retained
    /// addresses are reused, keeping their health records, repair
    /// backlogs and counters; outbound connections to dropped backends
    /// are torn down.
    pub fn set_backends(&self, backends: Vec<String>) -> Result<String, RouterError> {
        self.inner.set_backends(backends)
    }

    /// Probe every backend whose probe is due and refresh the gauges.
    /// Called on a cadence by [`Prober`]; callable directly in tests.
    pub fn probe_once(&self) {
        self.inner.probe_once();
    }

    /// Handle one request line and block until its reply is ready: the
    /// synchronous surface for the stdio front end, probes and tests.
    /// Always produces exactly one response line.
    ///
    /// Per-name ops park only the *calling* thread — the exchanges they
    /// fan out ride the outbound reactor. Must not be called from a pool
    /// completion callback (it would wait on itself).
    pub fn process_line(&self, line: &str) -> LineOutcome {
        self.execute_blocking(self.parse(line))
    }

    /// Handle one request line without blocking on a backend: per-name
    /// ops return at once and `done` fires from the outbound reactor when
    /// the forwarded exchange resolves; every other op completes `done`
    /// before returning.
    pub fn process_line_deferred(&self, line: &str, done: LineCallback) {
        self.execute(self.parse(line), done);
    }

    /// Decode one line into what the router will do with it (and count
    /// it on `route.requests`). Touches no backend and no routing state.
    pub(crate) fn parse(&self, line: &str) -> Routed {
        self.inner.requests.inc();
        let invalid = |e: StreamError| Routed::Invalid(protocol::err_response(&e));
        let bad_name = || {
            invalid(StreamError::InvalidRequest(
                "field 'name' must be a string".into(),
            ))
        };
        let value = match serde_json::parse_value(line) {
            Ok(v) => v,
            Err(e) => return invalid(StreamError::Parse(e.to_string())),
        };
        let Some(op) = value.get("op").and_then(Value::as_str) else {
            return invalid(StreamError::InvalidRequest("missing field 'op'".into()));
        };
        let forward = |name: &str| Forward {
            op: op.to_string(),
            name: name.to_string(),
            line: line.to_string(),
        };
        let fanout = |fanout| Routed::Broadcast {
            fanout,
            line: line.to_string(),
        };
        match op {
            "seed" | "ingest" | "resolve" | "same_as" | "constraint" => {
                match value.get("name").and_then(Value::as_str) {
                    None => bad_name(),
                    Some(name) if op == "resolve" => Routed::Read(forward(name)),
                    // `same_as` and `constraint` mutate the name's entity
                    // table, so they take the write path: fan out to every
                    // replica, buffer misses for repair. Both are idempotent
                    // (re-asserting a link or re-adding a constraint is a
                    // no-op), so transport failures retry freely.
                    Some(name) => Routed::Write(forward(name)),
                }
            }
            // A named `entities` is a read of that name's replica set, with
            // failover like `resolve`. The name-less form is a fan-out: every
            // backend reports the tables it holds and the merge keeps one
            // copy per name (replica-rank preference), so a replicated tier
            // never lists an entity twice.
            "entities" => match value.get("name") {
                Some(Value::String(name)) => Routed::Read(forward(name)),
                Some(v) if !v.is_null() => bad_name(),
                _ => fanout(Fanout::Entities),
            },
            "health" => Routed::Health,
            "topology" => match topology_backends(&value) {
                Ok(backends) => Routed::Topology(backends),
                Err(e) => invalid(e),
            },
            "snapshot" => fanout(Fanout::Snapshot),
            "metrics" => fanout(Fanout::Metrics),
            "persist" => fanout(Fanout::Persist),
            "restore" => fanout(Fanout::Restore),
            "flush" => fanout(Fanout::Flush),
            "shutdown" => fanout(Fanout::Shutdown),
            other => invalid(StreamError::InvalidRequest(format!("unknown op '{other}'"))),
        }
    }

    /// Run one parsed request. Per-name ops return immediately and `done`
    /// fires from the outbound reactor when the forwarded exchange
    /// (retries, fan-out, failover included) resolves — the TCP front
    /// end's path, whose reactor hands a request over and goes back to its
    /// sockets. Everything else completes `done` before returning;
    /// broadcasts and `topology` block the calling thread for the slowest
    /// backend, so the TCP front end runs those on worker threads, never
    /// on its reactor.
    pub(crate) fn execute(&self, request: Routed, done: LineCallback) {
        let inner = &self.inner;
        let (response, shutdown) = match request {
            Routed::Write(forward) => return forward_write(inner, forward, done),
            Routed::Read(forward) => return forward_read(inner, forward, done),
            Routed::Broadcast { fanout, line } => {
                (inner.fan_out(fanout, &line), fanout == Fanout::Shutdown)
            }
            Routed::Health => (inner.health_line(), false),
            Routed::Topology(backends) => match inner.set_backends(backends) {
                Ok(line) => (line, false),
                Err(e) => (
                    protocol::err_response(&StreamError::InvalidRequest(e.0)),
                    false,
                ),
            },
            Routed::Invalid(reply) => (reply, false),
        };
        done(LineOutcome { response, shutdown });
    }

    /// [`execute`](Self::execute), waiting for the reply.
    pub(crate) fn execute_blocking(&self, request: Routed) -> LineOutcome {
        let (tx, rx) = mpsc::channel();
        self.execute(
            request,
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        // A dropped sender (a panicking callback, a stopping pool) still
        // yields one well-formed error line.
        rx.recv().unwrap_or_else(|_| {
            LineOutcome::reply(protocol::err_response(&StreamError::InvalidRequest(
                "the routing tier dropped this request while shutting down".into(),
            )))
        })
    }
}

/// What the router will do with one line: [`Router::parse`]'s result,
/// which [`Router::execute`] runs.
pub(crate) enum Routed {
    /// A per-name write, forwarded to every replica of the name.
    Write(Forward),
    /// A per-name read, answered by the first replica that responds.
    Read(Forward),
    /// An op broadcast to every backend, its replies merged into one.
    Broadcast {
        /// Which merge folds the replies.
        fanout: Fanout,
        /// The client's line, sent to every backend as it came.
        line: String,
    },
    /// `health`: the router's own view, no backend contacted.
    Health,
    /// `topology`: swap the backend set for these addresses.
    Topology(Vec<String>),
    /// A line the router answers itself with this error reply.
    Invalid(String),
}

/// A per-name op bound for the name's replica set.
pub(crate) struct Forward {
    op: String,
    name: String,
    /// The client's line, forwarded as it came.
    line: String,
}

/// Which merge folds a broadcast's per-shard replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fanout {
    Snapshot,
    Entities,
    Metrics,
    Persist,
    Restore,
    Flush,
    Shutdown,
}

/// The `backends` array of a `topology` request.
fn topology_backends(value: &Value) -> Result<Vec<String>, StreamError> {
    let Some(entries) = value.get("backends").and_then(Value::as_array) else {
        return Err(StreamError::InvalidRequest(
            "field 'backends' must be an array of addresses".into(),
        ));
    };
    entries
        .iter()
        .map(|entry| {
            entry.as_str().map(str::to_string).ok_or_else(|| {
                StreamError::InvalidRequest("backend addresses must be strings".into())
            })
        })
        .collect()
}

/// The router's tags on a write answered by `shard`: `acked` of the
/// `replicas` in the set led by `primary`.
fn write_tags(shard: usize, primary: usize, replicas: usize, acked: usize) -> String {
    let mut tags = format!("\"shard\":{shard}");
    if replicas > 1 {
        tags += &format!(",\"replication\":{replicas},\"acked\":{acked}");
        if shard != primary {
            tags += &format!(",\"primary\":{primary}");
        }
        if acked < replicas {
            tags += ",\"degraded\":true,\"repair_pending\":true";
        }
    }
    tags
}

/// The router's tags on a read answered by `shard` for a name led by
/// `primary`.
fn read_tags(shard: usize, primary: usize) -> String {
    if shard == primary {
        format!("\"shard\":{shard}")
    } else {
        format!("\"shard\":{shard},\"failover\":true,\"primary\":{primary}")
    }
}

/// `reply` with `tags` spliced in front of its final `}`: the backend's
/// own bytes are relayed untouched, and a line that is not a `{…}` object
/// is returned verbatim.
fn splice(mut reply: String, tags: &str) -> String {
    if !(reply.starts_with('{') && reply.ends_with('}')) {
        return reply;
    }
    reply.pop();
    if !reply[1..].trim().is_empty() {
        reply.push(',');
    }
    reply.push_str(tags);
    reply.push('}');
    reply
}

/// One exchange against `shard` with bounded retries, advanced entirely
/// from pool completion callbacks. Idempotent ops retry any transport
/// failure on a fresh connection; non-idempotent ops (`ingest`) retry
/// only [`Phase::Connect`] failures — an exchange-phase failure may
/// already have been applied, and re-sending it could assign the
/// document twice.
fn exchange_with_retry(
    inner: &Arc<Inner>,
    shard: Arc<Shard>,
    key: Option<u64>,
    line: String,
    idempotent: bool,
    attempt: usize,
    done: ExchangeDone,
) {
    let inner_cb = Arc::clone(inner);
    let submit_line = line.clone();
    let addr = shard.addr.clone();
    inner.pool.submit(
        &addr,
        key,
        submit_line,
        Box::new(move |result| match result {
            Ok(reply) => {
                shard.health.mark_success(inner_cb.options.probe_interval);
                done(Ok(reply));
            }
            Err((phase, e)) => {
                shard
                    .health
                    .mark_failure(&e.to_string(), inner_cb.options.probe_interval);
                if phase == Phase::Exchange {
                    // A mid-stream death usually strands every warm
                    // connection from before the restart; drop the idle
                    // ones so the retry dials fresh.
                    inner_cb.pool.invalidate(&shard.addr);
                }
                let retryable = idempotent || phase == Phase::Connect;
                if retryable && attempt < inner_cb.options.retries {
                    shard.retries.inc();
                    inner_cb.retries.inc();
                    let again = Arc::clone(&inner_cb);
                    exchange_with_retry(&again, shard, key, line, idempotent, attempt + 1, done);
                } else {
                    shard.errors.inc();
                    inner_cb.errors.inc();
                    inner_cb.update_gauges();
                    done(Err(e));
                }
            }
        }),
    );
}

/// The in-progress state of one replicated write fan-out: results land
/// here from completion callbacks (in any order), and the last one in
/// assembles the client reply.
struct WriteJoin {
    results: Vec<Option<Result<String, io::Error>>>,
    remaining: usize,
    finish: Option<(WriteCtx, LineCallback)>,
}

struct WriteCtx {
    forward: Forward,
    topo: Arc<Topology>,
    set: Vec<usize>,
    start: Instant,
}

/// Forward a per-name write (`seed`, `ingest`) to every backend in the
/// name's replica set, concurrently on the outbound reactor. The reply
/// the client sees is the first transport-acked one in ring order,
/// tagged with its shard index; with R > 1 it also reports
/// `replication`/`acked`, plus `degraded` + `repair_pending` when some
/// replica missed the write (its line is buffered for replay — see
/// [`Inner::drain_repairs`]). Only when *no* replica acks does the
/// client get an `unreachable` error; nothing is buffered then, because
/// the client's own retry must stay the single writer (buffering too
/// would double-apply).
fn forward_write(inner: &Arc<Inner>, forward: Forward, done: LineCallback) {
    let topo = inner.topology();
    let r = inner.replication_for(&topo);
    let set = topo.ring.successors(&forward.name, r);
    let idempotent = forward.op != "ingest";
    let key = Some(fnv1a(forward.name.as_bytes()));
    let line = forward.line.clone();
    let ctx = WriteCtx {
        forward,
        topo: Arc::clone(&topo),
        set: set.clone(),
        start: Instant::now(),
    };
    let join = Arc::new(Mutex::new(WriteJoin {
        results: (0..set.len()).map(|_| None).collect(),
        remaining: set.len(),
        finish: Some((ctx, done)),
    }));
    for (pos, &idx) in set.iter().enumerate() {
        let shard = Arc::clone(&topo.shards[idx]);
        shard.requests.inc();
        let join = Arc::clone(&join);
        let inner_cb = Arc::clone(inner);
        exchange_with_retry(
            inner,
            shard,
            key,
            line.clone(),
            idempotent,
            0,
            Box::new(move |result| {
                let finished = {
                    let mut join = unpoisoned(join.lock());
                    join.results[pos] = Some(result);
                    join.remaining -= 1;
                    if join.remaining == 0 {
                        let results: Vec<Result<String, io::Error>> =
                            join.results.drain(..).map(|r| r.unwrap()).collect();
                        join.finish.take().map(|(ctx, done)| (ctx, done, results))
                    } else {
                        None
                    }
                };
                if let Some((ctx, done, results)) = finished {
                    done(LineOutcome::reply(finish_write(&inner_cb, ctx, results)));
                }
            }),
        );
    }
}

/// Assemble the client reply once every replica of a write resolved: the
/// first ack in ring order, tagged, or `unreachable` when none acked.
fn finish_write(
    inner: &Arc<Inner>,
    ctx: WriteCtx,
    results: Vec<Result<String, io::Error>>,
) -> String {
    inner.forward_us.record_since(ctx.start);
    let primary = ctx.set[0];
    let acked = results.iter().filter(|r| r.is_ok()).count();
    if acked > 0 {
        for (&idx, result) in ctx.set.iter().zip(&results) {
            match result {
                Ok(_) if idx != primary => inner.replica_writes.inc(),
                Ok(_) => {}
                Err(_) => inner.queue_repair(&ctx.topo.shards[idx], &ctx.forward.line),
            }
        }
    }
    let mut first_error = None;
    for (&idx, result) in ctx.set.iter().zip(results) {
        match result {
            Ok(reply) => return splice(reply, &write_tags(idx, primary, ctx.set.len(), acked)),
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    let error = first_error.map_or_else(|| "no replica answered".into(), |e| e.to_string());
    let Forward { op, name, .. } = &ctx.forward;
    inner.unreachable_reply(op, name, &ctx.topo, &ctx.set, &error)
}

/// The in-progress state of one failover read: which replica to try
/// next, and the last transport error seen.
struct ReadChase {
    forward: Forward,
    topo: Arc<Topology>,
    set: Vec<usize>,
    ordered: Vec<usize>,
    primary: usize,
    start: Instant,
    pos: usize,
    last_error: Option<io::Error>,
    done: LineCallback,
}

/// Forward the per-name read (`resolve`) to the first replica that
/// answers, trying the set in ring order with the members believed
/// healthy first — a stale health mark only demotes a backend to the
/// end of the order, it never makes a name unreadable. Each attempt is
/// one asynchronous exchange; its completion either tags and returns the
/// reply or advances the chase to the next replica. A reply from any
/// backend but the primary counts as a failover read and is tagged
/// `failover`/`primary` so clients can see (and operators can count)
/// reads served by replicas.
fn forward_read(inner: &Arc<Inner>, forward: Forward, done: LineCallback) {
    let topo = inner.topology();
    let r = inner.replication_for(&topo);
    let set = topo.ring.successors(&forward.name, r);
    let primary = set[0];
    let mut ordered: Vec<usize> = set
        .iter()
        .copied()
        .filter(|&idx| topo.shards[idx].health.is_healthy())
        .collect();
    ordered.extend(
        set.iter()
            .copied()
            .filter(|&idx| !topo.shards[idx].health.is_healthy()),
    );
    read_next(
        inner,
        ReadChase {
            forward,
            topo,
            set,
            ordered,
            primary,
            start: Instant::now(),
            pos: 0,
            last_error: None,
            done,
        },
    );
}

fn read_next(inner: &Arc<Inner>, mut chase: ReadChase) {
    if chase.pos >= chase.ordered.len() {
        inner.forward_us.record_since(chase.start);
        let error = chase
            .last_error
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no replica answered".into());
        let Forward { op, name, .. } = &chase.forward;
        let reply = inner.unreachable_reply(op, name, &chase.topo, &chase.set, &error);
        (chase.done)(LineOutcome::reply(reply));
        return;
    }
    let idx = chase.ordered[chase.pos];
    let shard = Arc::clone(&chase.topo.shards[idx]);
    shard.requests.inc();
    let key = Some(fnv1a(chase.forward.name.as_bytes()));
    let line = chase.forward.line.clone();
    let inner_cb = Arc::clone(inner);
    exchange_with_retry(
        inner,
        shard,
        key,
        line,
        true,
        0,
        Box::new(move |result| match result {
            Ok(reply) => {
                inner_cb.forward_us.record_since(chase.start);
                if idx != chase.primary {
                    inner_cb.failover_reads.inc();
                }
                let reply = splice(reply, &read_tags(idx, chase.primary));
                (chase.done)(LineOutcome::reply(reply));
            }
            Err(e) => {
                chase.last_error = Some(e);
                chase.pos += 1;
                read_next(&inner_cb, chase);
            }
        }),
    );
}

/// Broadcast `line` to every shard concurrently and collect the
/// per-shard outcomes (parsed replies or failure messages). Blocks the
/// calling thread for the slowest backend (bounded by the pool's
/// timeouts) — callers are worker, stdio or probe threads, never the
/// outbound reactor.
fn broadcast(inner: &Arc<Inner>, line: &str) -> Vec<ShardOutcome> {
    let topo = inner.topology();
    broadcast_on(inner, &topo, line)
}

/// [`broadcast`] against a caller-held topology snapshot, so an op that
/// also needs the matching ring (the snapshot merge) cannot race a
/// concurrent `topology` swap between fan-out and merge.
fn broadcast_on(inner: &Arc<Inner>, topo: &Arc<Topology>, line: &str) -> Vec<ShardOutcome> {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    for (index, shard) in topo.shards.iter().enumerate() {
        shard.requests.inc();
        let tx = tx.clone();
        let addr = shard.addr.clone();
        exchange_with_retry(
            inner,
            Arc::clone(shard),
            None,
            line.to_string(),
            true,
            0,
            Box::new(move |result| {
                let outcome = ShardOutcome {
                    index,
                    addr,
                    result: match result {
                        Ok(reply) => serde_json::parse_value(&reply)
                            .map_err(|e| format!("malformed reply: {e}")),
                        Err(e) => Err(e.to_string()),
                    },
                };
                let _ = tx.send(outcome);
            }),
        );
    }
    drop(tx);
    // A callback that died with the pool simply never sends; degrade its
    // shard instead of hanging or panicking the broadcast.
    let mut outcomes: Vec<ShardOutcome> = rx.iter().collect();
    let mut answered: Vec<bool> = vec![false; topo.shards.len()];
    for outcome in &outcomes {
        answered[outcome.index] = true;
    }
    for (index, shard) in topo.shards.iter().enumerate() {
        if !answered[index] {
            outcomes.push(ShardOutcome {
                index,
                addr: shard.addr.clone(),
                result: Err("the outbound pool dropped this exchange".into()),
            });
        }
    }
    outcomes.sort_by_key(|o| o.index);
    inner.fanout_us.record_since(start);
    inner.update_gauges();
    outcomes
}

impl Inner {
    fn topology(&self) -> Arc<Topology> {
        unpoisoned(self.topology.read()).clone()
    }

    /// Broadcast `line` to every backend and fold the replies with the
    /// merge `fanout` names. The snapshot and entities merges read the
    /// same topology the broadcast went to, so a concurrent `topology`
    /// swap cannot pair replies with the wrong ring.
    fn fan_out(self: &Arc<Self>, fanout: Fanout, line: &str) -> String {
        let topo = self.topology();
        let outcomes = broadcast_on(self, &topo, line);
        let r = self.replication_for(&topo);
        match fanout {
            Fanout::Snapshot => merge::merge_snapshot(&outcomes, &topo.ring, r),
            Fanout::Entities => merge::merge_entities(&outcomes, &topo.ring, r),
            Fanout::Metrics => merge::merge_metrics(self.registry.snapshot(), &outcomes),
            Fanout::Persist => merge::merge_count("persist", &outcomes),
            Fanout::Restore => merge::merge_count("restore", &outcomes),
            Fanout::Flush => merge::merge_plain("flush", &outcomes),
            Fanout::Shutdown => merge::merge_plain("shutdown", &outcomes),
        }
    }

    /// The effective replication factor for `topo`: at least 1, never
    /// more than the tier has backends.
    fn replication_for(&self, topo: &Topology) -> usize {
        self.options.replication.clamp(1, topo.ring.len())
    }

    fn update_gauges(&self) {
        let topo = self.topology();
        self.ring_size.set(topo.shards.len() as i64);
        let healthy = topo.shards.iter().filter(|s| s.health.is_healthy()).count();
        self.healthy_backends.set(healthy as i64);
    }

    /// The `unreachable` error for a per-name op whose whole replica set
    /// failed: the same shape the unreplicated router produced, keyed on
    /// the primary.
    fn unreachable_reply(
        &self,
        op: &str,
        name: &str,
        topo: &Topology,
        set: &[usize],
        error: &str,
    ) -> String {
        let primary = set[0];
        let scope = if set.len() == 1 {
            format!("shard {primary}")
        } else {
            format!("all {} replicas of shard {primary}", set.len())
        };
        let mut fields = vec![
            ("op", Value::String(op.to_string())),
            ("name", Value::String(name.to_string())),
            ("shard", Value::Number(primary as f64)),
            ("addr", Value::String(topo.shards[primary].addr.clone())),
        ];
        if set.len() > 1 {
            fields.push(("replication", Value::Number(set.len() as f64)));
        }
        fields.push(("degraded", Value::Bool(true)));
        merge::err_with_kind(
            &format!(
                "{scope} ({}) is unreachable: {error}",
                topo.shards[primary].addr
            ),
            "unreachable",
            fields,
        )
    }

    /// Buffer a write line a dead replica missed, bounded by
    /// [`REPAIR_QUEUE_CAP`] (oldest dropped first, counted on
    /// `route.repair_dropped`).
    fn queue_repair(&self, shard: &Shard, line: &str) {
        let mut queue = unpoisoned(shard.repair.lock());
        if queue.len() >= REPAIR_QUEUE_CAP {
            queue.pop_front();
            self.repair_dropped.inc();
        }
        queue.push_back(line.to_string());
    }

    /// Replay a recovered backend's buffered writes in arrival order.
    /// Stops at the first transport failure (the line goes back to the
    /// front of the queue for the next probe). A transport-acked replay
    /// whose reply is `ok:false` is dropped, not retried — replaying it
    /// again cannot change the answer; full convergence then needs a
    /// restore from the shared state directory or a re-seed. Runs on the
    /// probe thread, blocking on each replay so order is preserved.
    fn drain_repairs(&self, shard: &Shard) {
        loop {
            let Some(line) = unpoisoned(shard.repair.lock()).pop_front() else {
                return;
            };
            match self.pool.exchange(&shard.addr, None, &line) {
                Ok(_) => {
                    shard.health.mark_success(self.options.probe_interval);
                    self.replica_lag_repairs.inc();
                }
                Err((_, e)) => {
                    unpoisoned(shard.repair.lock()).push_front(line);
                    shard
                        .health
                        .mark_failure(&e.to_string(), self.options.probe_interval);
                    return;
                }
            }
        }
    }

    /// The router's `health` reply: its own uptime and per-shard health,
    /// answered without contacting any backend (the prober and routed
    /// traffic keep the records fresh). A saturated or half-dead tier
    /// still answers its probes — cheap enough that the event front end
    /// answers it straight from its reactor.
    fn health_line(&self) -> String {
        self.update_gauges();
        let topo = self.topology();
        let shards: Vec<Value> = topo
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut fields = vec![
                    ("shard", Value::Number(i as f64)),
                    ("addr", Value::String(s.addr.clone())),
                    ("healthy", Value::Bool(s.health.is_healthy())),
                    ("failures", Value::Number(f64::from(s.health.failures()))),
                ];
                let backlog = unpoisoned(s.repair.lock()).len();
                if backlog > 0 {
                    fields.push(("repair_backlog", Value::Number(backlog as f64)));
                }
                if let Some(e) = s.health.last_error() {
                    fields.push(("error", Value::String(e)));
                }
                merge::object(fields)
            })
            .collect();
        let healthy = topo.shards.iter().filter(|s| s.health.is_healthy()).count();
        merge::render(&merge::object(vec![
            ("ok", Value::Bool(true)),
            ("op", Value::String("health".into())),
            (
                "uptime_s",
                Value::Number(self.started.elapsed().as_secs_f64()),
            ),
            ("backends", Value::Number(topo.shards.len() as f64)),
            ("healthy", Value::Number(healthy as f64)),
            ("vnodes", Value::Number(topo.ring.vnodes() as f64)),
            (
                "replication",
                Value::Number(self.replication_for(&topo) as f64),
            ),
            ("shards", Value::Array(shards)),
        ]))
    }

    fn set_backends(self: &Arc<Self>, backends: Vec<String>) -> Result<String, RouterError> {
        validated(&backends)?;
        let persist_outcomes = broadcast(self, r#"{"op":"persist"}"#);
        let persisted: u64 = persist_outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
            .filter_map(|v| v.get("names").and_then(Value::as_u64))
            .sum();
        let shards: Vec<Arc<Shard>> = {
            let old = self.topology();
            backends
                .iter()
                .map(|addr| {
                    old.shards
                        .iter()
                        .find(|s| s.addr == *addr)
                        .cloned()
                        .unwrap_or_else(|| Arc::new(Shard::new(addr, &self.registry)))
                })
                .collect()
        };
        let ring = HashRing::new(&backends, VNODES);
        *unpoisoned(self.topology.write()) = Arc::new(Topology { ring, shards });
        // Tear down pooled connections to backends that left the ring
        // (exchanges still pending towards them fail over normally).
        self.pool.retain(&backends);
        self.update_gauges();
        let mut fields = vec![
            ("ok", Value::Bool(true)),
            ("op", Value::String("topology".into())),
            (
                "backends",
                Value::Array(backends.into_iter().map(Value::String).collect()),
            ),
            ("persisted", Value::Number(persisted as f64)),
        ];
        fields.extend(merge::degraded_fields(&persist_outcomes));
        Ok(merge::render(&merge::object(fields)))
    }

    /// Probe every backend whose probe is due and refresh the gauges.
    /// Blocking exchanges on the probe thread, riding the same outbound
    /// reactor as routed traffic (one socket story, one timeout story).
    fn probe_once(&self) {
        let topo = self.topology();
        let now = Instant::now();
        for shard in &topo.shards {
            if !shard.health.probe_due(now) {
                continue;
            }
            match self.pool.exchange(&shard.addr, None, r#"{"op":"health"}"#) {
                Ok(reply) => {
                    let ok = serde_json::parse_value(&reply)
                        .ok()
                        .and_then(|v| v.get("ok").and_then(Value::as_bool));
                    if ok == Some(true) {
                        shard.health.mark_success(self.options.probe_interval);
                    } else {
                        shard.health.mark_failure(
                            "health probe got a not-ok reply",
                            self.options.probe_interval,
                        );
                    }
                }
                Err((_, e)) => shard
                    .health
                    .mark_failure(&e.to_string(), self.options.probe_interval),
            }
        }
        // Recovered backends drain their write-repair backlog here: the
        // probe that found them healthy doubles as the replay trigger.
        for shard in &topo.shards {
            if shard.health.is_healthy() && !unpoisoned(shard.repair.lock()).is_empty() {
                self.drain_repairs(shard);
            }
        }
        self.update_gauges();
    }
}

/// How often the probe thread wakes to check which probes are due.
const PROBE_TICK: Duration = Duration::from_millis(50);

/// Handle to the background probe thread; stops and joins on drop.
pub struct Prober {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Prober {
    /// Stop and join the probe thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawn the background probe loop for `router`.
pub fn spawn_prober(router: Arc<Router>) -> Prober {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::spawn(move || {
        while !flag.load(std::sync::atomic::Ordering::Relaxed) {
            router.probe_once();
            thread::sleep(PROBE_TICK);
        }
    });
    Prober {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect()
    }

    #[test]
    fn rejects_empty_and_duplicate_backends() {
        assert!(Router::new(Vec::new(), RouterOptions::default()).is_err());
        let dup = vec!["a:1".to_string(), "a:1".to_string()];
        assert!(Router::new(dup, RouterOptions::default()).is_err());
    }

    #[test]
    fn rejects_a_ring_other_than_the_tier_wide_one() {
        let options = RouterOptions {
            vnodes: VNODES + 1,
            ..RouterOptions::default()
        };
        assert!(Router::new(addrs(2), options).is_err());
    }

    #[test]
    fn owner_is_stable_and_reported() {
        let router = Router::new(addrs(3), RouterOptions::default()).unwrap();
        let (idx, addr) = router.owner("cohen");
        assert!(idx < 3);
        assert_eq!(addr, addrs(3)[idx]);
        assert_eq!(router.owner("cohen").0, idx);
    }

    #[test]
    fn malformed_lines_and_unknown_ops_are_answered_locally() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        let out = router.process_line("not json");
        let v = serde_json::parse_value(&out.response).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("parse"));
        let out = router.process_line(r#"{"op":"frobnicate"}"#);
        let v = serde_json::parse_value(&out.response).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("invalid-request"));
        let out = router.process_line(r#"{"op":"ingest","text":"no name"}"#);
        let v = serde_json::parse_value(&out.response).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("invalid-request"));
    }

    #[test]
    fn health_answers_without_backends() {
        // Nothing listens on these ports; health must still answer.
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        let out = router.process_line(r#"{"op":"health"}"#);
        assert!(!out.shutdown);
        let v = serde_json::parse_value(&out.response).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("backends").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn topology_op_validates_its_payload() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        for bad in [
            r#"{"op":"topology"}"#,
            r#"{"op":"topology","backends":[]}"#,
            r#"{"op":"topology","backends":[7]}"#,
            r#"{"op":"topology","backends":["a:1","a:1"]}"#,
        ] {
            let v = serde_json::parse_value(&router.process_line(bad).response).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert_eq!(v.get("kind").unwrap().as_str(), Some("invalid-request"));
        }
    }

    #[test]
    fn deferred_lines_answer_local_ops_before_returning() {
        let router = Router::new(addrs(2), RouterOptions::default()).unwrap();
        let (tx, rx) = mpsc::channel();
        router.process_line_deferred(
            r#"{"op":"health"}"#,
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        // Local ops complete synchronously inside the call.
        let outcome = rx.try_recv().expect("health answers inline");
        let v = serde_json::parse_value(&outcome.response).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn deferred_per_name_ops_complete_without_blocking_the_caller() {
        // Dead backends + retries:0 → the unreachable reply arrives from
        // the outbound reactor, not from the submitting thread.
        let options = RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(300),
            ..RouterOptions::default()
        };
        let router = Router::new(addrs(2), options).unwrap();
        let (tx, rx) = mpsc::channel();
        router.process_line_deferred(
            r#"{"op":"resolve","name":"cohen","text":"x"}"#,
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let v = serde_json::parse_value(&outcome.response).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    }

    /// The tagging the router did before it relayed bytes, kept as the
    /// reference: decode the reply, push each tag onto the object,
    /// re-encode. `set_len` and `acked` describe the write's replica set.
    fn reencoded_write(
        reply: &str,
        idx: usize,
        primary: usize,
        set_len: usize,
        acked: usize,
    ) -> String {
        match serde_json::parse_value(reply) {
            Ok(mut v) => {
                merge::push_field(&mut v, "shard", Value::Number(idx as f64));
                if set_len > 1 {
                    merge::push_field(&mut v, "replication", Value::Number(set_len as f64));
                    merge::push_field(&mut v, "acked", Value::Number(acked as f64));
                    if idx != primary {
                        merge::push_field(&mut v, "primary", Value::Number(primary as f64));
                    }
                    if acked < set_len {
                        merge::push_field(&mut v, "degraded", Value::Bool(true));
                        merge::push_field(&mut v, "repair_pending", Value::Bool(true));
                    }
                }
                serde_json::to_string(&v).unwrap_or_else(|_| reply.to_string())
            }
            Err(_) => reply.to_string(),
        }
    }

    /// The read half of the reference tagging.
    fn reencoded_read(reply: &str, idx: usize, primary: usize) -> String {
        match serde_json::parse_value(reply) {
            Ok(mut v) => {
                merge::push_field(&mut v, "shard", Value::Number(idx as f64));
                if idx != primary {
                    merge::push_field(&mut v, "failover", Value::Bool(true));
                    merge::push_field(&mut v, "primary", Value::Number(primary as f64));
                }
                serde_json::to_string(&v).unwrap_or_else(|_| reply.to_string())
            }
            Err(_) => reply.to_string(),
        }
    }

    /// Every reply shape `protocol` emits, over names and texts that
    /// exercise JSON escaping.
    fn daemon_replies() -> Vec<String> {
        use weber_entity::{
            Entity, EntityError, MaterializeReport, MentionOrigin, Provenance, SameAsLink, Via,
        };
        use weber_stream::{ClusterAssignment, EntityTable, NameSnapshot, SeedSummary};
        let names = [
            "cohen".to_string(),
            "o\"brien \\ back\nslash\ttab\r".to_string(),
            "ctl \u{1}\u{8}\u{c}\u{1f}\u{7f} and é☃😀".to_string(),
        ];
        let mut replies = Vec::new();
        for name in &names {
            let summary = SeedSummary {
                docs: 4,
                clusters: 2,
                function: format!("F8 {name}"),
                criterion: "region accuracy".into(),
                accuracy: 0.1 + 0.2,
            };
            replies.push(protocol::ok_seed(name, &summary));
            let assignment = ClusterAssignment {
                doc: 4,
                cluster: 0,
                is_new_cluster: false,
                cluster_size: 3,
                linked_members: 2,
                retrained: true,
            };
            replies.push(protocol::ok_ingest(name, &assignment));
            replies.push(protocol::ok_resolve(&NameSnapshot {
                name: name.clone(),
                docs: 9,
                clusters: 3,
                function: "F10".into(),
                criterion: "threshold".into(),
                accuracy: 1.0 / 3.0,
                members: vec![vec![0, 1, 4], vec![2, 3, 5, 8], vec![6, 7]],
            }));
            let table = EntityTable {
                name: name.clone(),
                docs: 5,
                entities: vec![
                    Entity {
                        id: 1,
                        mentions: vec![0, 1, 4],
                        provenance: vec![
                            Provenance {
                                doc: 0,
                                origin: MentionOrigin::Seed { label: 0 },
                                via: Via::Partition,
                            },
                            Provenance {
                                doc: 1,
                                origin: MentionOrigin::Seed { label: 7 },
                                via: Via::SameAs { a: 1, b: 3 },
                            },
                            Provenance {
                                doc: 4,
                                origin: MentionOrigin::Ingest,
                                via: Via::Split,
                            },
                        ],
                    },
                    Entity {
                        id: 3,
                        mentions: vec![2, 3],
                        provenance: vec![
                            Provenance {
                                doc: 2,
                                origin: MentionOrigin::Ingest,
                                via: Via::SameAs { a: 1, b: 3 },
                            },
                            Provenance {
                                doc: 3,
                                origin: MentionOrigin::Ingest,
                                via: Via::Partition,
                            },
                        ],
                    },
                ],
                links: vec![SameAsLink { a: 1, b: 3 }, SameAsLink { a: 3, b: 9 }],
                constraints: 2,
                report: MaterializeReport {
                    entities: 2,
                    splits: 1,
                    violations: 3,
                    vetoed_links: 1,
                    retained_ids: 1,
                    resurrected_ids: 1,
                    fresh_ids: 4,
                },
            };
            replies.push(protocol::ok_entities(&table));
            replies.push(protocol::ok_same_as(&table, 1, 3, false, true));
            replies.push(protocol::ok_same_as(&table, 3, 9, true, false));
            replies.push(protocol::ok_constraint(&table, true));
            replies.push(protocol::ok_constraint(&table, false));
            for error in [
                StreamError::Parse(format!("unexpected {name:?} at byte 0")),
                StreamError::UnknownName(name.clone()),
                StreamError::EmptySeed(name.clone()),
                StreamError::SeedMismatch {
                    name: name.clone(),
                    docs: 4,
                    labels: 3,
                },
                StreamError::Training(weber_core::CoreError::NoFunctions),
                StreamError::InvalidRequest(format!("field '{name}' must be a string")),
                StreamError::Overloaded,
                StreamError::Persistence(format!("cannot write {name}")),
                StreamError::SnapshotRejected(format!("digest of {name} differs")),
                StreamError::Entity(EntityError::UnknownEntity(7)),
                StreamError::Entity(EntityError::UnknownLink(1, 2)),
            ] {
                replies.push(protocol::err_response(&error));
            }
        }
        replies
    }

    #[test]
    fn relayed_replies_are_byte_identical_to_the_reencoded_ones() {
        let replies = daemon_replies();
        assert!(replies.len() > 50);
        for reply in &replies {
            // R=1; R=2 acked by both; R=2 degraded; R=2 and R=3 answered
            // by a non-primary after the primary missed the write.
            for (idx, primary, set_len, acked) in [
                (0, 0, 1, 1),
                (2, 2, 1, 1),
                (1, 1, 2, 2),
                (1, 1, 2, 1),
                (0, 1, 2, 1),
                (2, 0, 3, 2),
            ] {
                assert_eq!(
                    splice(reply.clone(), &write_tags(idx, primary, set_len, acked)),
                    reencoded_write(reply, idx, primary, set_len, acked),
                    "write ({idx}, {primary}, {set_len}, {acked}) of {reply}"
                );
            }
            // A read from the primary, and a failover read.
            for (idx, primary) in [(1, 1), (0, 2)] {
                assert_eq!(
                    splice(reply.clone(), &read_tags(idx, primary)),
                    reencoded_read(reply, idx, primary),
                    "read ({idx}, {primary}) of {reply}"
                );
            }
        }
    }

    #[test]
    fn non_object_replies_are_relayed_verbatim() {
        for reply in ["not json", "[1]", "", "[1, 2]", "{\"ok\":true} trailing"] {
            assert_eq!(splice(reply.into(), &write_tags(0, 1, 2, 1)), reply);
            assert_eq!(splice(reply.into(), &read_tags(0, 1)), reply);
        }
        // An empty object takes the tags without a leading comma.
        assert_eq!(splice("{}".into(), &read_tags(1, 1)), r#"{"shard":1}"#);
    }
}
