//! The four workloads: what each sends, what it measures, how it is
//! checked. The frozen constants live here; `BENCHMARK.json` and the
//! README quote them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use weber_core::blocking::prepare_dataset;
use weber_core::resolver::{Resolver, ResolverConfig};
use weber_corpus::{generate, presets, CorpusConfig};
use weber_graph::Partition;
use weber_shard::{HashRing, Router, RouterOptions};
use weber_textindex::TfIdf;

use crate::inputs::{self, Corpus, NameInput, Op, OpKind};
use crate::kernels;
use crate::replay::{service_span, state_span, Replay, StateReplay};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::{self, Client, Pass, Server, WireError, WireMetrics};

/// The run length `BENCHMARK.json` freezes: the constants below are sized
/// so that a measured phase takes about this long on the reference box.
pub const RUN_SECONDS: f64 = 8.0;

/// The paper's training share: 10 % of a block is labelled.
pub const TRAIN_FRACTION: f64 = 0.1;

/// Seed of the page corpus. The pages are a fixed dataset, as the paper's
/// are: which similarity function a name's training selects decides what
/// an ingest costs (word-vector functions cost about four times the
/// others), so redrawing a few dozen names moves every latency by tens of
/// per cent and flips a median between the two modes. `--seed` draws what
/// a rerun of the paper's protocol draws — arrival order across names,
/// the op-class schedule, the read targets, the training samples of
/// `batch_paper` — and `--corpus-seed` swaps the dataset itself.
pub const CORPUS_SEED: u64 = 2010;

/// The measured stream goes out in this many slices, with the harness'
/// in-process replay of the same ops (the oracle) in between while the
/// servers idle. This box's speed shifts by ±10 % every 10–20 s; sliced,
/// one run samples it over ~20 s of wall instead of one 6 s stretch, and
/// every op's in-process twin runs within a second of it.
const SLICES: usize = 8;

/// Hazard probes stop after this long whatever the server does.
const PROBE_DEADLINE: Duration = Duration::from_secs(10);

/// The workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One daemon growing 64 Zipf-length blocks through their doubling
    /// checkpoints, then a restart on its state directory.
    ServeGrow,
    /// One daemon between two checkpoints: ingest, resolve, entities.
    ServeSteady,
    /// `ServeSteady`'s stream through `weber route` over two backends.
    RouteHop,
    /// The paper's protocol in-process: prepare, then five resolutions.
    BatchPaper,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeGrow,
        Workload::ServeSteady,
        Workload::RouteHop,
        Workload::BatchPaper,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeGrow => "serve_grow",
            Workload::ServeSteady => "serve_steady",
            Workload::RouteHop => "route_hop",
            Workload::BatchPaper => "batch_paper",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The frozen sizes of every workload (and the tiny ones of `--smoke`).
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `serve_grow`: names; block lengths follow `max(floor, head/k^0.8)`
    /// over a profile of `grow_profile` ranks.
    pub grow_names: usize,
    /// Ranks in one Zipf profile.
    pub grow_profile: usize,
    /// Pages of the hottest name.
    pub grow_head: usize,
    /// Pages of the coldest names.
    pub grow_floor: usize,
    /// `serve_grow` read-back: `resolve` ops after growth.
    pub grow_resolves: usize,
    /// `serve_grow` read-back: `entities` ops after growth.
    pub grow_entities: usize,
    /// `serve_steady` / `route_hop`: names.
    pub steady_names: usize,
    /// Labelled seed pages per name.
    pub steady_seed: usize,
    /// Block length the set-up grows every name to.
    pub steady_pregrow: usize,
    /// Block length at the end of the measured stream.
    pub steady_block: usize,
    /// `batch_paper`: datasets resolved one after another.
    pub batch_datasets: usize,
    /// Names per dataset.
    pub batch_names: usize,
    /// Pages per name.
    pub batch_docs: usize,
    /// Resolutions per dataset (the paper averages five).
    pub batch_runs: usize,
    /// Hazard/decomposition probes: fresh names per pass.
    pub probe_names: usize,
    /// Labelled seed pages of a probe name.
    pub probe_seed: usize,
    /// Final block length of a probe name (below `2 × probe_seed`, so no
    /// checkpoint fires).
    pub probe_block: usize,
}

impl Sizes {
    /// The sizes of a run of `seconds`: the frozen constants at
    /// [`RUN_SECONDS`], name counts scaled linearly otherwise (blocks are
    /// never shortened — block length sets the cost shape). `smoke` picks
    /// tiny sizes that finish in seconds.
    pub fn new(seconds: f64, smoke: bool) -> Self {
        if smoke {
            return Self {
                grow_names: 6,
                grow_profile: 6,
                grow_head: 120,
                grow_floor: 40,
                grow_resolves: 30,
                grow_entities: 12,
                steady_names: 4,
                steady_seed: 8,
                steady_pregrow: 33,
                steady_block: 60,
                batch_datasets: 1,
                batch_names: 4,
                batch_docs: 60,
                batch_runs: 2,
                probe_names: 4,
                probe_seed: 20,
                probe_block: 39,
            };
        }
        let scale = |base: usize, floor: usize| {
            let n = (base as f64 * seconds / RUN_SECONDS).round() as usize;
            n.clamp(floor, 3 * weber_corpus::vocab::SURNAMES.len())
        };
        Self {
            grow_names: scale(64, 8),
            grow_profile: 64,
            grow_head: 1000,
            grow_floor: 60,
            grow_resolves: 12_800,
            grow_entities: 3_200,
            steady_names: scale(16, 2),
            steady_seed: 32,
            steady_pregrow: 260,
            steady_block: 500,
            batch_datasets: scale(4, 1),
            batch_names: 12,
            batch_docs: 300,
            batch_runs: 5,
            probe_names: 24,
            probe_seed: 32,
            probe_block: 63,
        }
    }
}

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which workload.
    pub workload: Workload,
    /// Schedule seed.
    pub seed: u64,
    /// Corpus seed ([`CORPUS_SEED`] unless overridden).
    pub corpus_seed: u64,
    /// Requested run length.
    pub seconds: f64,
    /// Also replay in-process with spans and run the hazard probes.
    pub trace: bool,
    /// Tiny sizes, bounds off.
    pub smoke: bool,
    /// The release `weber` binary.
    pub weber: PathBuf,
    /// Where this workload writes (`benchmark/out/<workload>`).
    pub out_dir: PathBuf,
    /// The `benchmark/` directory (for `expected.json`).
    pub benchmark_dir: PathBuf,
}

/// What one invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every oracle and invariant held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations errored, refused or unanswered.
    pub failed: usize,
    /// The end-to-end metrics.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Fp of every name's final partition against ground truth.
    pub per_name_fp: Vec<f64>,
    /// Anything a reader should know: mismatches, cut-short passes.
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(req: &Request) -> Result<Outcome, String> {
    let sizes = Sizes::new(req.seconds, req.smoke);
    match req.workload {
        Workload::BatchPaper => batch_paper(req, &sizes),
        _ => wire_workload(req, &sizes).map_err(|e| e.to_string()),
    }
}

// ---------------------------------------------------------------- inputs

/// A seeded permutation of `0..n`: the order names take their turns in.
fn name_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6f72_6465));
    order
}

/// The op streams of a wire workload.
struct Plan {
    corpus: Corpus,
    generate_s: f64,
    /// Before the clock: seeds (and pre-growth).
    setup: Vec<Op>,
    /// The measured stream.
    measured: Vec<Op>,
    /// `serve_grow`'s reads of the grown blocks.
    readback: Vec<Op>,
}

impl Plan {
    fn new(workload: Workload, sizes: &Sizes, seed: u64, corpus_seed: u64) -> Self {
        let begin = Instant::now();
        let grow = workload == Workload::ServeGrow;
        let corpus = if grow {
            let lengths = inputs::zipf_lengths(
                sizes.grow_names,
                sizes.grow_profile,
                sizes.grow_head,
                sizes.grow_floor,
            );
            inputs::corpus(corpus_seed, &lengths, |len| {
                (len as f64 * TRAIN_FRACTION) as usize
            })
        } else {
            let lengths = vec![sizes.steady_block; sizes.steady_names];
            inputs::corpus(corpus_seed, &lengths, |_| sizes.steady_seed)
        };
        let generate_s = begin.elapsed().as_secs_f64();
        let order = name_order(corpus.names.len(), seed);
        let names = &corpus.names;
        let mut setup = inputs::seed_ops(&order);
        let (measured, readback) = if grow {
            let measured =
                inputs::round_robin_ingests(names, &order, |n| n.seed_len, |n| n.docs.len());
            (
                measured,
                inputs::read_back(&order, sizes.grow_resolves, sizes.grow_entities),
            )
        } else {
            setup.extend(inputs::round_robin_ingests(
                names,
                &order,
                |n| n.seed_len,
                |_| sizes.steady_pregrow,
            ));
            (
                inputs::mixed_stream(names, &order, sizes.steady_pregrow, seed),
                Vec::new(),
            )
        };
        Self {
            corpus,
            generate_s,
            setup,
            measured,
            readback,
        }
    }

    /// Every op the main connection sends, in order.
    fn all_ops(&self) -> Vec<Op> {
        [&self.setup[..], &self.measured[..], &self.readback[..]].concat()
    }
}

fn with_newlines(lines: &[String]) -> Vec<Vec<u8>> {
    lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect()
}

// ----------------------------------------------------------------- tiers

/// The server processes of a wire workload: one daemon, or a router over
/// two.
struct Tier {
    backends: Vec<Server>,
    router: Option<Server>,
}

impl Tier {
    /// Start the processes and wait until the front accepts connections.
    fn start(
        req: &Request,
        tag: &str,
        dataset: &Path,
        state_root: &Path,
        addrs: Option<&[String]>,
    ) -> Result<(Self, Client), WireError> {
        let routed = req.workload == Workload::RouteHop;
        let mut backends = Vec::new();
        let mut client = None;
        for i in 0..if routed { 2 } else { 1 } {
            // One state directory per backend: a restart restores the
            // names that backend held, not the whole tier's.
            let state_dir = state_root.join(format!("serve{i}"));
            std::fs::create_dir_all(&state_dir)?;
            let tag = format!("{tag}-serve{i}");
            // A restarted backend listens where it did before: the ring
            // places names by backend address.
            let addr = addrs.map(|a| a[i].as_str());
            let mut backend = Server::serve(
                &req.weber,
                &tag,
                &req.out_dir,
                dataset,
                Some(&state_dir),
                addr,
            )?;
            // One backend at a time, each listening before the next starts
            // (a rolling restart): how long a restart takes then does not
            // depend on how the ring happened to split the names.
            client = Some(backend.connect()?);
            backends.push(backend);
        }
        let mut tier = Self {
            backends,
            router: None,
        };
        if routed {
            let addrs = tier.backend_addrs();
            let mut router =
                Server::route(&req.weber, &format!("{tag}-route"), &req.out_dir, &addrs, 1)?;
            client = Some(router.connect()?);
            tier.router = Some(router);
        }
        Ok((tier, client.expect("at least one backend")))
    }

    fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    fn front(&mut self) -> &mut Server {
        self.router.as_mut().unwrap_or(&mut self.backends[0])
    }

    /// An early exit of any process is a failure.
    fn check_alive(&mut self) -> Result<(), WireError> {
        self.backends
            .iter_mut()
            .chain(self.router.as_mut())
            .try_for_each(Server::check_alive)
    }

    /// Shut the tier down through its front (a router passes `shutdown`
    /// on to its backends). Returns the summed peak resident set, MB.
    fn shutdown(self, client: &mut Client) -> f64 {
        let backends_rss: f64 = self.backends.iter().map(Server::peak_rss_mb).sum();
        match self.router {
            Some(router) => backends_rss + router.shutdown(client),
            None => {
                let mut backends = self.backends;
                backends.remove(0).shutdown(client)
            }
        }
        // Dropping what is left kills and reaps it.
    }
}

// ------------------------------------------------------------- wire runs

/// Parse the `members` of a `resolve` reply.
fn members(reply: &Value) -> Result<Vec<Vec<usize>>, WireError> {
    let bad = || WireError::Protocol("a resolve reply without members".into());
    reply
        .get("members")
        .and_then(Value::as_array)
        .ok_or_else(bad)?
        .iter()
        .map(|cluster| {
            cluster
                .as_array()
                .ok_or_else(bad)?
                .iter()
                .map(|m| m.as_u64().map(|m| m as usize).ok_or_else(bad))
                .collect()
        })
        .collect()
}

/// `resolve` every name: the partitions the tier serves.
fn read_partitions(
    client: &mut Client,
    names: &[NameInput],
) -> Result<Vec<Vec<Vec<usize>>>, WireError> {
    names
        .iter()
        .map(|n| {
            let line = inputs::render(
                &Op {
                    kind: OpKind::Resolve,
                    name: 0,
                    doc: 0,
                },
                std::slice::from_ref(n),
            );
            members(&client.call_ok(&line)?)
        })
        .collect()
}

/// Fp of every name's served clusters against ground truth (0 for a
/// name whose clusters do not cover its pages exactly once).
fn per_name_fp(names: &[NameInput], partitions: &[Vec<Vec<usize>>]) -> Vec<f64> {
    names
        .iter()
        .zip(partitions)
        .map(|(n, clusters)| {
            let mut pages: Vec<usize> = clusters.iter().flatten().copied().collect();
            pages.sort_unstable();
            if pages.is_empty()
                || pages.len() > n.truth.len()
                || !pages.iter().copied().eq(0..pages.len())
            {
                return 0.0;
            }
            let truth = Partition::from_labels(n.truth[..pages.len()].to_vec());
            weber_eval::fp_measure(&Partition::from_clusters(pages.len(), clusters), &truth)
        })
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Round trips of one op class within a pass, µs.
fn rtt_us(pass: &Pass, ops: &[Op], kind: OpKind) -> Samples {
    Samples::new(
        pass.rtt_ns
            .iter()
            .zip(ops)
            .filter(|(_, op)| op.kind == kind)
            .map(|(&ns, _)| ns as f64 / 1e3)
            .collect(),
    )
}

/// A percentile, or the largest sample when there are too few for it
/// (`--smoke` sizes only; a full-size run always has enough).
fn percentile_or_max(samples: &Samples, p: f64) -> f64 {
    samples.percentile(p).unwrap_or_else(|| samples.max())
}

/// The raw round trips behind the percentiles, one line per op.
fn write_samples(
    path: &Path,
    passes: &[(&Pass, &Vec<Op>)],
    names: &[NameInput],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "op,name,rtt_ns")?;
    for (pass, ops) in passes {
        for (ns, op) in pass.rtt_ns.iter().zip(ops.iter()) {
            writeln!(file, "{},{},{ns}", op.kind.label(), names[op.name].name)?;
        }
    }
    file.flush()
}

fn count_pass(outcome: &mut Outcome, what: &str, pass: &Pass) {
    outcome.attempted += pass.attempted;
    outcome.failed += pass.failed;
    if let Some(why) = &pass.cut_short {
        outcome.notes.push(format!(
            "{what} cut short after {} ops: {why}",
            pass.attempted
        ));
    }
}

fn wire_workload(req: &Request, sizes: &Sizes) -> Result<Outcome, WireError> {
    let grow = req.workload == Workload::ServeGrow;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // ---- set-up: inputs, processes, seeds and pre-growth, all before the clock.
    let setup_begin = Instant::now();
    let plan = Plan::new(req.workload, sizes, req.seed, req.corpus_seed);
    let names = &plan.corpus.names;
    let all_ops = plan.all_ops();
    let lines = inputs::render_all(&all_ops, names);
    let wire_lines = with_newlines(&lines);
    let (setup_lines, rest) = wire_lines.split_at(plan.setup.len());
    let (measured_lines, readback_lines) = rest.split_at(plan.measured.len());
    let dataset = req.out_dir.join("gazetteer.json");
    std::fs::write(
        &dataset,
        inputs::gazetteer_file(&plan.corpus, req.corpus_seed),
    )?;
    let state_root = req.out_dir.join("state");
    let (mut tier, mut client) = Tier::start(req, "run", &dataset, &state_root, None)?;
    let setup_pass = wire::drive(&mut client, setup_lines, None);
    let setup_s = setup_begin.elapsed().as_secs_f64();
    count_pass(&mut outcome, "set-up", &setup_pass);
    if setup_pass.failed > 0 {
        outcome.correct = false;
    }
    let before = WireMetrics::read(&mut client)?;

    // ---- the in-process replay (the oracle; with spans at both depths in a traced run).
    // The in-process persist/restore spans replay every block once more;
    // serve_grow, whose subject the restart is, pays for them.
    let traced_dir = (req.trace && grow).then(|| req.out_dir.join("state-traced"));
    if let Some(dir) = &traced_dir {
        std::fs::create_dir_all(dir)?;
    }
    let first = plan.setup.len();
    let writes = first + plan.measured.len();
    let mut replay = Replay::new(&plan.corpus, req.trace, traced_dir.as_deref());
    replay.steps(0..first, &all_ops, &lines, writes);

    // ---- the measured stream in slices, then (serve_grow) the read-back of the grown blocks.
    let mut measured = Pass::default();
    let slice_len = plan.measured.len().div_ceil(SLICES).max(1);
    for (k, slice) in measured_lines.chunks(slice_len).enumerate() {
        measured.absorb(wire::drive(&mut client, slice, None));
        if measured.cut_short.is_some() {
            break;
        }
        let begin = first + k * slice_len;
        replay.steps(begin..begin + slice.len(), &all_ops, &lines, writes);
    }
    count_pass(&mut outcome, "measured stream", &measured);
    let readback = wire::drive(&mut client, readback_lines, None);
    count_pass(&mut outcome, "read-back", &readback);
    tier.check_alive()?;
    let complete = measured.cut_short.is_none()
        && readback.cut_short.is_none()
        && setup_pass.cut_short.is_none();
    if !complete {
        // The connection's state is unknown after an unanswered op:
        // report what was measured, skip what can no longer be checked.
        outcome.correct = false;
        let rss = tier.shutdown(&mut client);
        outcome.end_to_end.insert("peak_rss_mb", rss);
        outcome.end_to_end.insert("setup_s", setup_s);
        return Ok(outcome);
    }

    // ---- oracle reads and counters, while the tier still runs.
    let served = read_partitions(&mut client, names)?;
    outcome.attempted += names.len();
    let after = WireMetrics::read(&mut client)?;
    let retrains = after.counter("stream.retrains") - before.counter("stream.retrains");
    if !grow && retrains != 0.0 {
        outcome.correct = false;
        outcome.notes.push(format!(
            "{retrains} checkpoints fired in a stream built to have none"
        ));
    }

    // ---- persist, restart on the state directories, wait until every name answers.
    client.call_ok("{\"op\":\"persist\"}")?;
    let mut counters = WireMetrics::read(&mut client)?;
    let addrs = tier.backend_addrs();
    let mut peak_rss_mb = tier.shutdown(&mut client);
    let restart = Instant::now();
    let (mut tier, mut client) = Tier::start(req, "restart", &dataset, &state_root, Some(&addrs))?;
    let restored = read_partitions(&mut client, names)?;
    let restore_s = restart.elapsed().as_secs_f64();
    outcome.attempted += names.len();
    if restored != served {
        outcome.correct = false;
        outcome
            .notes
            .push("the restarted tier serves other partitions than before".into());
    }
    // The first incarnation's counters, plus what only the restart shows.
    let restores = WireMetrics::read(&mut client)?.counter("stream.restores");
    counters.counters.insert("stream.restores".into(), restores);

    // ---- hazard probes (traced runs), on fresh names, after every oracle read.
    let mut probes = BTreeMap::new();
    if req.trace {
        let probe = ProbeSet::new(sizes, req);
        match req.workload {
            Workload::ServeSteady => {
                depth2_probe(&mut tier, &probe, &mut probes, &mut outcome.notes)?
            }
            Workload::RouteHop => {
                routing_probes(req, &mut tier, &probe, &mut probes, &mut outcome.notes)?
            }
            _ => {}
        }
    }
    peak_rss_mb = peak_rss_mb.max(tier.shutdown(&mut client));

    // ---- the oracle: the same stream replayed in-process must end in the same partitions.
    replay.steps(writes..all_ops.len(), &all_ops, &lines, writes);
    if let Some(service) = &mut replay.service {
        service.persist_and_restore(all_ops.len());
    }
    let Replay {
        state: oracle,
        service,
    } = replay;
    if oracle.partitions() != served {
        outcome.correct = false;
        let wrong = oracle
            .partitions()
            .iter()
            .zip(&served)
            .filter(|(a, b)| a != b)
            .count();
        outcome.notes.push(format!(
            "{wrong} of {} names differ from the in-process replay",
            names.len()
        ));
    }
    outcome.per_name_fp = per_name_fp(names, &served);

    // ---- end-to-end metrics.
    let (reads, read_ops): (&Pass, &[Op]) = if grow {
        (&readback, &plan.readback)
    } else {
        (&measured, &plan.measured)
    };
    let ingest = rtt_us(&measured, &plan.measured, OpKind::Ingest);
    let resolve = rtt_us(reads, read_ops, OpKind::Resolve);
    let entities = rtt_us(reads, read_ops, OpKind::Entities);
    let measured_s = measured.wall.as_secs_f64();
    let docs_per_s = ingest.len() as f64 / measured_s;
    let e = &mut outcome.end_to_end;
    e.insert("setup_s", setup_s);
    e.insert("docs_per_s", docs_per_s);
    e.insert("ingest_p50_us", percentile_or_max(&ingest, 0.5));
    e.insert("ingest_p99_us", percentile_or_max(&ingest, 0.99));
    e.insert("resolve_p50_us", percentile_or_max(&resolve, 0.5));
    e.insert("entities_p50_us", percentile_or_max(&entities, 0.5));
    e.insert("restore_s", restore_s);
    e.insert("fp_mean", mean(&outcome.per_name_fp));
    e.insert("peak_rss_mb", peak_rss_mb);
    outcome.samples.insert("ingest", ingest.len());
    outcome.samples.insert("resolve", resolve.len());
    outcome.samples.insert("entities", entities.len());
    write_samples(
        &req.out_dir.join("samples.csv"),
        &[(&measured, &plan.measured), (&readback, &plan.readback)],
        names,
    )?;

    // ---- per-layer metrics: spans around the same stream in-process.
    if let Some(service) = service {
        let layers = &mut outcome.per_layer;
        layers.extend(crate::report::PER_LAYER.iter().map(|m| (m.name, 0.0)));
        layers.extend(probes);
        layers.insert("corpus.generate_s", plan.generate_s);
        // Demoted from the end-to-end set: the steady stream leaves 19
        // samples beyond it, and its spread ran from 16 % to 58 %.
        layers.insert("wire.resolve_p99_us", percentile_or_max(&resolve, 0.99));
        wire_counters(layers, &counters);
        if service.refused > 0 {
            outcome.correct = false;
            outcome.notes.push(format!(
                "{} ops refused by the in-process service replay",
                service.refused
            ));
        }
        state_layers(layers, &oracle, first);
        service_layers(layers, &service.tracer, &oracle, first, names.len());
        let wire_ingest = ingest.mean();
        let parse = mean_us(&service.tracer, service_span::PARSE, first);
        // What the daemon itself timed inside `StreamResolver::ingest`
        // for these very requests: taken in the same seconds as the wire
        // times, so the machine's drift cancels in the subtraction.
        let (count_before, sum_before) = before.histogram_totals("stream.ingest_us");
        let (count_after, sum_after) = after.histogram_totals("stream.ingest_us");
        let served_ingest = (sum_after - sum_before) / (count_after - count_before).max(1.0);
        layers.insert("net.wire_self_us", wire_ingest - served_ingest - parse);
        layers.insert(
            "net.wire_self_resolve_us",
            resolve.mean() - mean_us(&service.tracer, service_span::RESOLVE, first) - parse,
        );
        let kernel = kernels::run(&plan.corpus, req.seed);
        kernel_layers(layers, &kernel);
        layers.insert("trace.span_overhead_ns", Tracer::span_overhead_ns());
        // The blocking path must add up: a residual obtained by
        // subtraction may not be negative, i.e. no child may outweigh its
        // parent — by more than the 2 % two separately timed means can
        // differ by on this box.
        for (residual, parent) in [
            ("net.wire_self_us", wire_ingest),
            ("net.wire_self_resolve_us", resolve.mean()),
            ("stream.service.self_us", layers["stream.state.steady_us"]),
        ] {
            if layers[residual] < -0.02 * parent {
                outcome.correct = false;
                outcome.notes.push(format!(
                    "{residual} is negative: a child span outweighs its parent"
                ));
            }
        }
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(req.out_dir.join("trace.jsonl"))?);
        oracle.tracer.write_jsonl("state", &mut file)?;
        service.tracer.write_jsonl("service", &mut file)?;
        kernel.tracer.write_jsonl("kernels", &mut file)?;
        std::io::Write::flush(&mut file)?;
    }
    Ok(outcome)
}

// -------------------------------------------------------- layer metrics

fn span_us(tracer: &Tracer, name: &str, first_op: usize) -> Samples {
    Samples::new(
        tracer
            .durations(name)
            .into_iter()
            .filter(|&(op, _)| op >= first_op)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect(),
    )
}

fn mean_us(tracer: &Tracer, name: &str, first_op: usize) -> f64 {
    span_us(tracer, name, first_op).mean()
}

/// State-depth metrics over the measured stream (ops from `first` on);
/// the seed spans of the set-up are the exception.
fn state_layers(layers: &mut BTreeMap<&'static str, f64>, replay: &StateReplay, first: usize) {
    let checkpoint = span_us(&replay.tracer, state_span::CHECKPOINT, first);
    let steady = span_us(&replay.tracer, state_span::STEADY, first);
    layers.insert("stream.state.checkpoint_ms", checkpoint.median() / 1e3);
    layers.insert("stream.state.checkpoint_max_ms", checkpoint.max() / 1e3);
    layers.insert("stream.state.checkpoints", checkpoint.len() as f64);
    let ingest_sum = checkpoint.sum() + steady.sum();
    layers.insert(
        "stream.state.checkpoint_share",
        if ingest_sum > 0.0 {
            checkpoint.sum() / ingest_sum
        } else {
            0.0
        },
    );
    layers.insert("stream.state.steady_us", steady.median());
    layers.insert(
        "stream.state.steady_p99_us",
        steady.percentile(0.99).unwrap_or(0.0),
    );
    let per_member = Samples::new(
        replay
            .tracer
            .durations(state_span::STEADY)
            .into_iter()
            .filter(|&(op, _)| op >= first)
            .map(|(op, ns)| ns as f64 / replay.block_len[&op] as f64)
            .collect(),
    );
    layers.insert("stream.state.steady_ns_per_member", per_member.median());
    layers.insert(
        "stream.state.seed_ms",
        span_us(&replay.tracer, state_span::SEED, 0).median() / 1e3,
    );
    layers.insert(
        "extract.extract_us",
        span_us(&replay.tracer, state_span::EXTRACT, first).median(),
    );
}

/// Service-depth metrics, and the service layer's own share by
/// subtraction from the state depth.
fn service_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    service: &Tracer,
    state: &StateReplay,
    first: usize,
    names: usize,
) {
    let ingest = span_us(service, service_span::INGEST, first);
    layers.insert(
        "stream.protocol.parse_us",
        span_us(service, service_span::PARSE, first).median(),
    );
    layers.insert("stream.service.ingest_us", ingest.median());
    layers.insert(
        "stream.service.ingest_p99_us",
        ingest.percentile(0.99).unwrap_or(0.0),
    );
    layers.insert(
        "stream.service.resolve_us",
        span_us(service, service_span::RESOLVE, first).median(),
    );
    layers.insert(
        "stream.service.entities_us",
        span_us(service, service_span::ENTITIES, first).median(),
    );
    layers.insert(
        "entity.materialize_us",
        span_us(service, service_span::MATERIALIZE, first).median(),
    );
    // What process_request adds around extraction and NameState::ingest:
    // the name map, the locks, the metrics, the reply rendering. Not
    // wrappable from outside, so obtained by subtraction, op by op, over
    // the ingests that did not retrain (a checkpoint's multi-threaded
    // training differs between two executions by more than this whole
    // layer costs).
    let by_op = |tracer: &Tracer, span| -> BTreeMap<usize, f64> {
        let spans = tracer.durations(span).into_iter();
        spans.map(|(op, ns)| (op, ns as f64 / 1e3)).collect()
    };
    let (served, extract) = (
        by_op(service, service_span::INGEST),
        by_op(&state.tracer, state_span::EXTRACT),
    );
    let own: Vec<f64> = by_op(&state.tracer, state_span::STEADY)
        .into_iter()
        .filter(|&(op, _)| op >= first)
        .map(|(op, steady)| served[&op] - extract[&op] - steady)
        .collect();
    layers.insert("stream.service.self_us", mean(&own));
    let per_name = |span| span_us(service, span, 0).sum() / 1e3 / names as f64;
    layers.insert(
        "stream.snapshot.persist_ms",
        per_name(service_span::PERSIST),
    );
    layers.insert(
        "stream.snapshot.restore_ms",
        per_name(service_span::RESTORE),
    );
}

fn kernel_layers(layers: &mut BTreeMap<&'static str, f64>, pass: &kernels::KernelPass) {
    const GRAPH_MS: [&str; 10] = [
        "simfun.graph_ms.f1",
        "simfun.graph_ms.f2",
        "simfun.graph_ms.f3",
        "simfun.graph_ms.f4",
        "simfun.graph_ms.f5",
        "simfun.graph_ms.f6",
        "simfun.graph_ms.f7",
        "simfun.graph_ms.f8",
        "simfun.graph_ms.f9",
        "simfun.graph_ms.f10",
    ];
    let t = &pass.tracer;
    let ms = |span| span_us(t, span, 0).median() / 1e3;
    let mut cold_us = 0.0;
    for (metric, span) in GRAPH_MS.into_iter().zip(kernels::span::GRAPH) {
        layers.insert(metric, ms(span));
        cold_us += span_us(t, span, 0).sum();
    }
    layers.insert("simfun.block.prepare_ms", ms(kernels::span::PREPARE));
    layers.insert(
        "simfun.graph_cached_us",
        span_us(t, kernels::span::GRAPH_CACHED, 0).median(),
    );
    layers.insert(
        "simfun.pairs_per_s",
        if cold_us > 0.0 {
            pass.pairs as f64 / (cold_us / 1e6)
        } else {
            0.0
        },
    );
    layers.insert("core.layers.build_ms", ms(kernels::span::LAYERS));
    layers.insert(
        "core.combine_cluster_ms",
        ms(kernels::span::COMBINE_CLUSTER),
    );
    layers.insert("core.resolver.resolve_ms", ms(kernels::span::RESOLVE));
    layers.insert("core.trained.train_ms", ms(kernels::span::TRAIN));
    layers.insert("eval.fp_us", span_us(t, kernels::span::FP, 0).median());
}

/// The counts the programs keep themselves, read over the `metrics` op.
fn wire_counters(layers: &mut BTreeMap<&'static str, f64>, m: &WireMetrics) {
    for name in [
        "stream.ingests",
        "stream.seeds",
        "stream.retrains",
        "stream.restores",
        "stream.persists",
        "stream.cache.rebuilds",
        "net.lines_total",
        "net.shed_total",
        "entity.splits",
        "route.requests",
        "route.retries",
        "route.errors",
        "route.failover_reads",
        "route.repair_dropped",
    ] {
        layers.insert(name, m.counter(name));
    }
    let (hits, misses) = (
        m.counter("stream.cache.hits"),
        m.counter("stream.cache.misses"),
    );
    layers.insert(
        "stream.cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layers.insert(
        "stream.ingest_us.mean",
        m.histogram_mean("stream.ingest_us"),
    );
    layers.insert(
        "route.forward_us.mean",
        m.histogram_mean("route.forward_us"),
    );
    let per_shard = m.per_shard("stream.ingests");
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    layers.insert("route.key_skew", if mean > 0.0 { max / mean } else { 0.0 });
}

// ---------------------------------------------------------------- probes

/// Fresh names for the passes that run after the main stream: short
/// blocks seeded with half their pages, so no checkpoint fires and every
/// pass does the same work.
struct ProbeSet {
    corpus: Corpus,
    ops: Vec<Op>,
}

impl ProbeSet {
    fn new(sizes: &Sizes, req: &Request) -> Self {
        // A probe name needs three letters for its per-pass spelling;
        // generate a few spare blocks and drop the shorter surnames.
        let lengths = vec![sizes.probe_block; sizes.probe_names + 2];
        let mut corpus = inputs::corpus(req.corpus_seed ^ 0x7072_6f62, &lengths, |_| {
            sizes.probe_seed
        });
        corpus.names.retain(|n| n.name.len() >= 3);
        corpus.names.truncate(sizes.probe_names);
        let order = name_order(corpus.names.len(), req.seed);
        let mut ops = inputs::seed_ops(&order);
        ops.extend(inputs::mixed_stream(
            &corpus.names,
            &order,
            sizes.probe_seed,
            req.seed,
        ));
        Self { corpus, ops }
    }

    /// The request lines of the given passes, one after another: the
    /// same pages under names no other pass (and no main stream) uses,
    /// restricted to the names `only` accepts.
    fn lines(&self, passes: &[usize], only: impl Fn(usize) -> bool) -> (Vec<Op>, Vec<Vec<u8>>) {
        let mut all_ops = Vec::new();
        let mut all_lines = Vec::new();
        for &pass in passes {
            let names: Vec<NameInput> = self
                .corpus
                .names
                .iter()
                .map(|n| NameInput {
                    name: inputs::probe_name(&n.name, pass),
                    ..n.clone()
                })
                .collect();
            let ops: Vec<Op> = self
                .ops
                .iter()
                .copied()
                .filter(|op| only(op.name))
                .collect();
            all_lines.extend(with_newlines(&inputs::render_all(&ops, &names)));
            all_ops.extend(ops);
        }
        (all_ops, all_lines)
    }
}

fn probe_report(
    layers: &mut BTreeMap<&'static str, f64>,
    share: &'static str,
    p50: &'static str,
    passes: &[(&Pass, &[Op])],
    planned: usize,
) {
    let done: usize = passes
        .iter()
        .map(|(p, _)| p.rtt_ns.len() - p.failed.min(p.rtt_ns.len()))
        .sum();
    layers.insert(share, done as f64 / planned.max(1) as f64);
    let ingest = Samples::new(
        passes
            .iter()
            .flat_map(|(p, ops)| {
                p.rtt_ns
                    .iter()
                    .zip(*ops)
                    .filter(|(_, o)| o.kind == OpKind::Ingest)
                    .map(|(&ns, _)| ns as f64 / 1e3)
            })
            .collect(),
    );
    layers.insert(p50, ingest.median());
}

/// Hazard probe on one daemon: two connections, each closed loop, on
/// disjoint halves of fresh names. Bounded by [`PROBE_DEADLINE`].
fn depth2_probe(
    tier: &mut Tier,
    probe: &ProbeSet,
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), WireError> {
    let stop = Instant::now() + PROBE_DEADLINE;
    let halves: Vec<(Vec<Op>, Vec<Vec<u8>>)> = (0..2)
        .map(|half| probe.lines(&[0, 1], |name| name % 2 == half))
        .collect();
    let mut clients = [tier.front().connect()?, tier.front().connect()?];
    let passes: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&halves)
            .map(|(client, (_, lines))| scope.spawn(move || wire::drive(client, lines, Some(stop))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    for pass in &passes {
        if let Some(why) = &pass.cut_short {
            notes.push(format!(
                "depth-2 probe cut short after {} ops: {why}",
                pass.attempted
            ));
        }
    }
    let planned = halves.iter().map(|(ops, _)| ops.len()).sum();
    let report: Vec<(&Pass, &[Op])> = passes
        .iter()
        .zip(&halves)
        .map(|(p, (ops, _))| (p, &ops[..]))
        .collect();
    probe_report(
        layers,
        "net.depth2.completed_share",
        "net.depth2.ingest_p50_us",
        &report,
        planned,
    );
    Ok(())
}

/// One way of sending a probe line; answers whether the reply was `ok`.
type Lane<'a> = Box<dyn FnMut(&[u8], Instant) -> Result<bool, String> + 'a>;

fn wire_lane(client: &mut Client) -> Lane<'_> {
    Box::new(|line, deadline| {
        client
            .call_until(line, deadline)
            .map(wire::is_ok)
            .map_err(|e| e.to_string())
    })
}

/// An in-process router: hand the line over, wait for its completion.
fn router_lane(router: &Router) -> Lane<'_> {
    Box::new(|line, deadline| {
        let text = std::str::from_utf8(line)
            .expect("rendered lines are UTF-8")
            .trim_end();
        let (tx, rx) = std::sync::mpsc::channel();
        router.process_line_deferred(
            text,
            Box::new(move |outcome| {
                let _ = tx.send(outcome.response);
            }),
        );
        rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .map(|reply| wire::is_ok(&reply))
            .map_err(|_| "no completion within the reply deadline".to_string())
    })
}

/// Send op `i` down every lane before op `i + 1` down any, the lanes
/// taking turns to go first: every lane does the same work (its own copy
/// of the stream, under its own names) in the same seconds, so the
/// machine's drift cancels when one lane's mean is subtracted from
/// another's. A lane that fails to answer drops out.
fn drive_lanes(lanes: &mut [(Lane<'_>, Vec<Vec<u8>>)], stop: Instant) -> Vec<Pass> {
    let mut passes: Vec<Pass> = lanes.iter().map(|_| Pass::default()).collect();
    let ops = lanes
        .iter()
        .map(|(_, lines)| lines.len())
        .max()
        .unwrap_or(0);
    for i in 0..ops {
        for turn in 0..lanes.len() {
            let lane = (i + turn) % lanes.len();
            let ((send, lines), pass) = (&mut lanes[lane], &mut passes[lane]);
            if pass.cut_short.is_some() || i >= lines.len() {
                continue;
            }
            let sent = Instant::now();
            if sent >= stop {
                pass.cut_short = Some("probe deadline".into());
                continue;
            }
            pass.attempted += 1;
            match send(&lines[i], stop.min(sent + wire::REPLY_DEADLINE)) {
                Ok(ok) => {
                    pass.failed += usize::from(!ok);
                    pass.rtt_ns.push(sent.elapsed().as_nanos() as u64);
                }
                Err(why) => {
                    pass.failed += 1;
                    pass.cut_short = Some(why);
                }
            }
            pass.wall += sent.elapsed();
        }
    }
    passes
}

/// The routing tier taken apart on identical work: the probe stream sent
/// straight to a backend, through an in-process `Router` over the live
/// backends and through the running `weber route`, interleaved op by op;
/// then — the hazard probe — through a second router with
/// `--replication 2`.
fn routing_probes(
    req: &Request,
    tier: &mut Tier,
    probe: &ProbeSet,
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), WireError> {
    let addrs = tier.backend_addrs();
    let ingest_mean = |pass: &Pass, ops: &[Op]| rtt_us(pass, ops, OpKind::Ingest).mean();
    let mut note = |what: &str, pass: &Pass| {
        if pass.cut_short.is_some() || pass.failed > 0 {
            notes.push(format!(
                "{what}: {} of {} ops failed{}",
                pass.failed,
                pass.attempted,
                pass.cut_short
                    .as_ref()
                    .map(|w| format!(", cut short: {w}"))
                    .unwrap_or_default()
            ));
        }
    };

    let (ops, direct_lines) = probe.lines(&[0], |_| true);
    let mut direct_client = tier.backends[0].connect()?;
    let router = Router::new(addrs.clone(), RouterOptions::default())
        .map_err(|e| WireError::Protocol(e.to_string()))?;
    let mut routed_client = tier.front().connect()?;
    let mut lanes = [
        (wire_lane(&mut direct_client), direct_lines),
        (router_lane(&router), probe.lines(&[1], |_| true).1),
        (wire_lane(&mut routed_client), probe.lines(&[2], |_| true).1),
    ];
    let passes = drive_lanes(&mut lanes, Instant::now() + 2 * PROBE_DEADLINE);
    drop(lanes);
    drop(router);
    let [direct, inproc, routed] = &passes[..] else {
        unreachable!("one pass per lane")
    };
    note("direct lane", direct);
    note("in-process router lane", inproc);
    note("routed lane", routed);

    let (r2_ops, lines) = probe.lines(&[3, 4], |_| true);
    let mut r2 = Server::route(&req.weber, "probe-route-r2", &req.out_dir, &addrs, 2)?;
    let mut r2_client = r2.connect()?;
    let replicated = wire::drive(
        &mut r2_client,
        &lines,
        Some(Instant::now() + PROBE_DEADLINE),
    );
    drop(r2); // killed and reaped; its backends belong to the main tier
    note("replication-2 probe", &replicated);

    let us = |kind| rtt_us(inproc, &ops, kind).median();
    layers.insert("shard.router.ingest_us", us(OpKind::Ingest));
    layers.insert("shard.router.resolve_us", us(OpKind::Resolve));
    layers.insert("shard.router.entities_us", us(OpKind::Entities));
    layers.insert(
        "shard.router.hop_us",
        ingest_mean(inproc, &ops) - ingest_mean(direct, &ops),
    );
    layers.insert(
        "shard.front_self_us",
        ingest_mean(routed, &ops) - ingest_mean(inproc, &ops),
    );
    probe_report(
        layers,
        "shard.r2.completed_share",
        "shard.r2.ingest_p50_us",
        &[(&replicated, &r2_ops)],
        r2_ops.len(),
    );

    let ring = HashRing::new(&addrs, RouterOptions::default().vnodes);
    let mut tracer = Tracer::new();
    for round in 0..200 {
        for (i, n) in probe.corpus.names.iter().enumerate() {
            std::hint::black_box(tracer.span("shard.ring.lookup", round * 1000 + i, |_| {
                ring.successors(&n.name, 1)
            }));
        }
    }
    let lookups = Samples::new(
        tracer
            .durations("shard.ring.lookup")
            .into_iter()
            .map(|(_, ns)| ns as f64)
            .collect(),
    );
    layers.insert("shard.ring.lookup_ns", lookups.median());
    Ok(())
}

// ----------------------------------------------------------- batch_paper

fn batch_paper(req: &Request, sizes: &Sizes) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let config = |dataset: usize| CorpusConfig {
        names: sizes.batch_names,
        docs_per_name: sizes.batch_docs,
        ..presets::www05_like(req.corpus_seed + dataset as u64)
    };
    // Set-up is corpus generation alone; it is short, so it is repeated
    // and the median reported.
    let mut setups = Vec::new();
    let mut datasets = Vec::new();
    for _ in 0..5 {
        let begin = Instant::now();
        datasets = (0..sizes.batch_datasets)
            .map(|d| generate(&config(d)))
            .collect();
        setups.push(begin.elapsed().as_secs_f64());
    }
    let setup_s = Samples::new(setups).median();

    let resolver = Resolver::new(ResolverConfig::default()).map_err(|e| e.to_string())?;
    let mut per_name_fp: Vec<Vec<f64>> = Vec::new();
    let begin = Instant::now();
    for dataset in &datasets {
        let prepared = prepare_dataset(dataset, TfIdf::default());
        let mut fp = vec![0.0; prepared.blocks.len()];
        for run in 0..sizes.batch_runs {
            let run_seed = req.seed * sizes.batch_runs as u64 + run as u64;
            outcome.attempted += prepared.blocks.len();
            match resolver.resolve_all(&prepared, TRAIN_FRACTION, run_seed) {
                Ok(resolutions) => {
                    for ((r, b), fp) in resolutions.iter().zip(&prepared.blocks).zip(&mut fp) {
                        *fp += weber_eval::fp_measure(&r.partition, &b.truth)
                            / sizes.batch_runs as f64;
                    }
                }
                Err(e) => {
                    outcome.failed += prepared.blocks.len();
                    outcome.correct = false;
                    outcome.notes.push(format!("resolve_all failed: {e}"));
                }
            }
        }
        per_name_fp.push(fp);
    }
    let measured_s = begin.elapsed().as_secs_f64();
    let pages = sizes.batch_datasets * sizes.batch_names * sizes.batch_docs * sizes.batch_runs;
    let docs_per_s = pages as f64 / measured_s;
    let fp: Vec<f64> = per_name_fp.into_iter().flatten().collect();

    if !req.smoke
        && req.seed == crate::report::DEFAULT_SEED
        && req.corpus_seed == CORPUS_SEED
        && sizes.batch_datasets == 4
    {
        match crate::report::expected_fp(&req.benchmark_dir) {
            Ok(expected)
                if expected.len() == fp.len()
                    && expected.iter().zip(&fp).all(|(a, b)| (a - b).abs() <= 1e-9) => {}
            Ok(expected) => {
                outcome.correct = false;
                outcome.notes.push(format!(
                    "per-name Fp differs from expected.json: got {fp:?}, expected {expected:?}"
                ));
            }
            Err(e) => {
                outcome.correct = false;
                outcome.notes.push(format!("expected.json unreadable: {e}"));
            }
        }
    }

    // No wire here: the latency cells carry the batch's wall per page and
    // `restore_s` its measured wall (see the README's metric × workload
    // table), so they move with `docs_per_s` and gate nothing of their own.
    let per_page_us = 1e6 / docs_per_s;
    let e = &mut outcome.end_to_end;
    e.insert("setup_s", setup_s);
    e.insert("docs_per_s", docs_per_s);
    for cell in [
        "ingest_p50_us",
        "ingest_p99_us",
        "resolve_p50_us",
        "entities_p50_us",
    ] {
        e.insert(cell, per_page_us);
    }
    e.insert("restore_s", measured_s);
    e.insert("fp_mean", mean(&fp));
    e.insert("peak_rss_mb", wire::peak_rss_mb("/proc/self/status"));
    outcome.per_name_fp = fp;

    if req.trace {
        drop(datasets);
        let layers = &mut outcome.per_layer;
        layers.extend(crate::report::PER_LAYER.iter().map(|m| (m.name, 0.0)));
        layers.insert("corpus.generate_s", setup_s);
        let lengths = vec![sizes.batch_docs; sizes.batch_names];
        let corpus = inputs::corpus(req.corpus_seed, &lengths, |len| {
            (len as f64 * TRAIN_FRACTION) as usize
        });
        let kernel = kernels::run(&corpus, req.seed * sizes.batch_runs as u64);
        kernel_layers(layers, &kernel);
        layers.insert(
            "extract.extract_us",
            span_us(&kernel.tracer, kernels::span::EXTRACT, 0).median(),
        );
        layers.insert("trace.span_overhead_ns", Tracer::span_overhead_ns());
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(req.out_dir.join("trace.jsonl")).map_err(|e| e.to_string())?,
        );
        kernel
            .tracer
            .write_jsonl("kernels", &mut file)
            .map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;
    }
    Ok(outcome)
}
