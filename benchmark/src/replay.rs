//! The same op stream replayed in-process, single-threaded, with a span
//! around each public call — at two depths against independent fresh
//! state. The state-depth replay doubles as the oracle: the partitions it
//! ends with are what the servers must answer.

use std::path::Path;

use weber_core::resolver::{Resolver, ResolverConfig};
use weber_extract::features::PageFeatures;
use weber_extract::pipeline::Extractor;
use weber_simfun::block::WordVectorScheme;
use weber_stream::protocol::{self, Request};
use weber_stream::service::process_request;
use weber_stream::{AssignmentPolicy, NameState, StoredDocument, StreamConfig, StreamResolver};

use crate::inputs::{Corpus, NameInput, Op, OpKind};
use crate::trace::Tracer;

/// Span names of the state-depth replay.
pub mod state_span {
    /// `Extractor::extract` of one page.
    pub const EXTRACT: &str = "extract.extract";
    /// `NameState::seed` of one name.
    pub const SEED: &str = "stream.state.seed";
    /// `NameState::ingest` that did not retrain.
    pub const STEADY: &str = "stream.state.steady";
    /// `NameState::ingest` that hit a doubling checkpoint.
    pub const CHECKPOINT: &str = "stream.state.checkpoint";
    /// Parent of one op's spans.
    pub const OP: &str = "state.op";
}

/// Span names of the service-depth replay.
pub mod service_span {
    /// `protocol::parse_request` of one line.
    pub const PARSE: &str = "stream.protocol.parse";
    /// `service::process_request` of a `seed`.
    pub const SEED: &str = "stream.service.seed";
    /// `service::process_request` of an `ingest`.
    pub const INGEST: &str = "stream.service.ingest";
    /// `service::process_request` of a `resolve`.
    pub const RESOLVE: &str = "stream.service.resolve";
    /// `service::process_request` of an `entities`.
    pub const ENTITIES: &str = "stream.service.entities";
    /// `StreamResolver::entities` called directly, right after the op.
    pub const MATERIALIZE: &str = "entity.materialize";
    /// `StreamResolver::persist_all`.
    pub const PERSIST: &str = "stream.snapshot.persist";
    /// `StreamResolver::restore_all` on a fresh resolver.
    pub const RESTORE: &str = "stream.snapshot.restore";
    /// Parent of one op's spans.
    pub const OP: &str = "service.op";
}

fn stored(doc: &weber_corpus::GeneratedDocument) -> StoredDocument {
    StoredDocument {
        text: doc.text.clone(),
        url: doc.url.clone(),
    }
}

/// State depth: `Extractor::extract` then `NameState::seed` /
/// `NameState::ingest`, the way `StreamResolver` calls them.
pub struct StateReplay<'a> {
    corpus: &'a Corpus,
    extractor: Extractor,
    resolver: Resolver,
    /// The spans.
    pub tracer: Tracer,
    /// Final state per name (`None` for a name the stream never seeded).
    pub states: Vec<Option<NameState>>,
    /// Block length after each ingest, by the op's index in the stream.
    pub block_len: std::collections::BTreeMap<usize, usize>,
}

impl<'a> StateReplay<'a> {
    /// Fresh state over `corpus`.
    pub fn new(corpus: &'a Corpus) -> Self {
        Self {
            corpus,
            extractor: Extractor::new(&corpus.gazetteer),
            resolver: Resolver::new(ResolverConfig::default())
                .expect("the default config is valid"),
            tracer: Tracer::new(),
            states: corpus.names.iter().map(|_| None).collect(),
            block_len: std::collections::BTreeMap::new(),
        }
    }

    /// Apply op `i` of the stream (reads are no-ops at this depth).
    pub fn step(&mut self, i: usize, op: &Op) {
        let input = &self.corpus.names[op.name];
        let (extractor, resolver) = (&self.extractor, &self.resolver);
        match op.kind {
            OpKind::Seed => {
                let state = self.tracer.span(state_span::OP, i, |t| {
                    let features: Vec<PageFeatures> = input.docs[..input.seed_len]
                        .iter()
                        .map(|d| {
                            t.span(state_span::EXTRACT, i, |_| {
                                extractor.extract(&d.text, d.url.as_deref())
                            })
                        })
                        .collect();
                    let documents = input.docs[..input.seed_len].iter().map(stored).collect();
                    t.span(state_span::SEED, i, |_| {
                        NameState::seed(
                            &input.name,
                            documents,
                            features,
                            &input.truth[..input.seed_len],
                            resolver,
                            WordVectorScheme::default(),
                            AssignmentPolicy::default(),
                        )
                    })
                });
                self.states[op.name] = Some(state.expect("a labelled seed batch trains"));
            }
            OpKind::Ingest => {
                let state = self.states[op.name]
                    .as_mut()
                    .expect("ingest follows its seed");
                self.tracer.span(state_span::OP, i, |t| {
                    let doc = &input.docs[op.doc];
                    let features = t.span(state_span::EXTRACT, i, |_| {
                        extractor.extract(&doc.text, doc.url.as_deref())
                    });
                    let document = stored(doc);
                    let placed =
                        t.span(state_span::STEADY, i, |_| state.ingest(document, features));
                    if placed.retrained {
                        t.rename_last(state_span::CHECKPOINT);
                    }
                });
                self.block_len.insert(i, state.len());
            }
            OpKind::Resolve | OpKind::Entities => {}
        }
    }

    /// The final clusters of every name, in the order and shape the
    /// `resolve` op lists them.
    pub fn partitions(&self) -> Vec<Vec<Vec<usize>>> {
        self.states
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|s| s.partition().clusters())
                    .unwrap_or_default()
            })
            .collect()
    }
}

fn stream_config(state_dir: Option<&Path>) -> StreamConfig {
    match state_dir {
        Some(dir) => StreamConfig::default().with_state_dir(dir),
        None => StreamConfig::default(),
    }
}

/// Service depth: `protocol::parse_request` then
/// `service::process_request` on a `StreamResolver`, the way a server
/// worker calls them.
pub struct ServiceReplay<'a> {
    corpus: &'a Corpus,
    resolver: StreamResolver,
    /// The spans.
    pub tracer: Tracer,
    /// Replies that were not `ok`.
    pub refused: usize,
}

impl<'a> ServiceReplay<'a> {
    /// A fresh resolver over `corpus`, persisting into `state_dir` if
    /// given.
    pub fn new(corpus: &'a Corpus, state_dir: Option<&Path>) -> Self {
        Self {
            corpus,
            resolver: StreamResolver::new(stream_config(state_dir), &corpus.gazetteer)
                .expect("the default config is valid"),
            tracer: Tracer::new(),
            refused: 0,
        }
    }

    /// Apply op `i` of the stream from its pre-rendered request line.
    pub fn step(&mut self, i: usize, op: &Op, line: &str) {
        let call = match op.kind {
            OpKind::Seed => service_span::SEED,
            OpKind::Ingest => service_span::INGEST,
            OpKind::Resolve => service_span::RESOLVE,
            OpKind::Entities => service_span::ENTITIES,
        };
        let resolver = &self.resolver;
        let reply = self.tracer.span(service_span::OP, i, |t| {
            let request: Request = t
                .span(service_span::PARSE, i, |_| protocol::parse_request(line))
                .expect("the harness renders valid requests");
            t.span(call, i, |_| process_request(resolver, &request))
        });
        if !crate::wire::is_ok(&reply) {
            self.refused += 1;
        }
        if op.kind == OpKind::Entities {
            let name: &NameInput = &self.corpus.names[op.name];
            let table = self.tracer.span(service_span::MATERIALIZE, i, |_| {
                resolver.entities(&name.name)
            });
            std::hint::black_box(table.map(|t| t.entities.len()).unwrap_or(0));
        }
    }

    /// With a state directory: persist every name from the traced
    /// resolver, then restore them into a fresh one, each under its own
    /// span (ops `next_op` and `next_op + 1`).
    pub fn persist_and_restore(&mut self, next_op: usize) {
        let Some(dir) = self.resolver.config().state_dir.clone() else {
            return;
        };
        let resolver = &self.resolver;
        let written = self
            .tracer
            .span(service_span::PERSIST, next_op, |_| resolver.persist_all());
        let fresh = StreamResolver::new(stream_config(Some(&dir)), &self.corpus.gazetteer)
            .expect("the default config is valid");
        let restored = self
            .tracer
            .span(service_span::RESTORE, next_op + 1, |_| fresh.restore_all());
        if written.ok() != restored.ok() {
            self.refused += 1;
        }
    }
}

/// The in-process replay of a wire workload's stream: the state depth
/// always (it is the oracle), the service depth too in a traced run.
///
/// The two depths are interleaved op by op: each keeps its own fresh
/// state, and because op `i` runs at one depth right after the other,
/// whatever the machine does to one it does to both — which is what lets
/// a mean at one depth be subtracted from the other's. The depth that
/// goes second finds the page's text and terms warm in cache, so the two
/// take turns going first.
pub struct Replay<'a> {
    /// State depth.
    pub state: StateReplay<'a>,
    /// Service depth (traced runs).
    pub service: Option<ServiceReplay<'a>>,
}

impl<'a> Replay<'a> {
    /// Fresh state at the depths the run needs.
    pub fn new(corpus: &'a Corpus, traced: bool, state_dir: Option<&Path>) -> Self {
        Self {
            state: StateReplay::new(corpus),
            service: traced.then(|| ServiceReplay::new(corpus, state_dir)),
        }
    }

    /// Replay ops `range` of the stream. The state depth skips ops from
    /// `writes` on (reads after the last write are of no use to it).
    pub fn steps(
        &mut self,
        range: std::ops::Range<usize>,
        ops: &[Op],
        lines: &[String],
        writes: usize,
    ) {
        for i in range {
            let (op, line) = (&ops[i], &lines[i]);
            let service_first = i % 2 == 0;
            if let (true, Some(service)) = (service_first, &mut self.service) {
                service.step(i, op, line);
            }
            if i < writes {
                self.state.step(i, op);
            }
            if let (false, Some(service)) = (service_first, &mut self.service) {
                service.step(i, op, line);
            }
        }
    }
}
