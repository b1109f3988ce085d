#![warn(missing_docs)]

//! # weber-stream
//!
//! Streaming resolution: incremental document ingestion against decision
//! criteria trained on a seed batch.
//!
//! The paper's pipeline is batch — it sees a whole block of documents,
//! fits every (similarity function × decision criterion) layer on the
//! training subset, selects the best graph and closes it transitively. A
//! crawler does not work that way: documents about an ambiguous name keep
//! arriving. This crate keeps the trained half of the pipeline and makes
//! the application half incremental:
//!
//! - per name, a **seed batch** with labels trains the decision model via
//!   the batch resolver's best-graph selection
//!   ([`weber_core::TrainedModel`]);
//! - each arriving document joins the name's block-local index
//!   (re-weighting earlier vectors — [`weber_simfun::block::PreparedBlock::push`]),
//!   is scored **only against its block's members** with the trained
//!   model, and is folded into the live partition
//!   ([`weber_graph::OnlinePartition`]) by transitive closure;
//! - the whole thing is wrapped in a daemon ([`server`]) speaking NDJSON
//!   over stdin/stdout or TCP — concurrent connections over one shared
//!   resolver on the `weber-net` reactor, with bounded per-worker
//!   admission queues and explicit `overloaded` backpressure; every line
//!   executes through [`service::process_line`];
//! - per-name state optionally **persists** to a state directory as
//!   atomic, versioned records (`persist`/`restore` ops, replay-based
//!   restore) and an LRU bound (`max_names`) **evicts** cold names to
//!   disk, restoring them transparently on their next touch
//!   ([`snapshot`], [`resolver`]);
//! - above the partition sits the **canonical entity layer**
//!   ([`weber_entity`]): the `entities` op materializes the current
//!   clusters into entities with stable IDs and per-mention provenance,
//!   `same_as` asserts/retracts reversible merge links between entity
//!   IDs, and `constraint` registers global rules (cannot-link,
//!   one-to-one, type boundaries) enforced by constraint-aware splitting
//!   at materialization. Entity tables persist next to the clustering
//!   records and restore on touch.
//!
//! Modules: [`config`] (resolver/service knobs), [`state`] (per-name
//! block + model + live partition), [`resolver`] (the thread-safe
//! multi-name façade), [`protocol`] (the NDJSON wire format), [`service`]
//! (one request in, one reply line out), [`server`] (stdio/TCP front ends),
//! [`snapshot`] (state summaries + the on-disk record format), [`error`].

pub mod config;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod resolver;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod state;

pub use config::{AssignmentPolicy, StreamConfig};
pub use error::StreamError;
pub use metrics::StreamMetrics;
pub use protocol::ConstraintAction;
pub use resolver::{EntityTable, HealthReport, SeedDocument, SeedSummary, StreamResolver};
pub use server::{serve_listener, serve_stdio, serve_tcp, TcpOptions};
pub use snapshot::{NameRecord, NameSnapshot, Snapshot, StoredDocument};
pub use state::{ClusterAssignment, NameState};
