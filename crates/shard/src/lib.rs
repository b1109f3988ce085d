#![warn(missing_docs)]

//! # weber-shard
//!
//! A sharded routing tier over many `weber serve` backends.
//!
//! One streaming daemon holds every name's block index, trained model and
//! live partition in a single process; the first scaling lever is to
//! split the *names* across processes. All of `weber-stream`'s state is
//! keyed by the ambiguous name, so routing is exact — a consistent-hash
//! ring ([`ring`]) maps each name to the backends that hold it (one, or
//! `R` under `--replication R`), and the router speaks the same NDJSON
//! protocol as a single daemon:
//!
//! - **per-name writes** (`seed`, `ingest`) are forwarded to every
//!   backend in the name's replica set over the asynchronous outbound
//!   connection pool ([`pool`]) — one epoll reactor multiplexing every
//!   pooled backend socket, so no thread ever parks on a backend round
//!   trip — with bounded retries (idempotent ops retry any transport
//!   failure; `ingest` only retries failures that provably sent nothing)
//!   and the answering shard's index appended to the reply; a replica
//!   that misses a write gets the line buffered and replayed when it
//!   recovers (write repair);
//! - the **per-name read** (`resolve`) fails over across the replica set
//!   in ring order — healthy members first — so fewer than R dead
//!   backends never make a name unreadable;
//! - **fan-out ops** (`snapshot`, `metrics`, `persist`, `restore`,
//!   `flush`, `shutdown`) are broadcast to every backend concurrently and
//!   merged into one well-formed reply ([`merge`]) — unreachable backends
//!   degrade the answer (`"degraded":true` plus the unreachable shard
//!   list) instead of failing it, and the snapshot merge collapses
//!   replicated names to their preferred copy;
//! - **`health`** answers from the router's own records ([`health`]) —
//!   probes with exponential backoff plus passive marks from routed
//!   traffic — without contacting any backend;
//! - **`topology`** swaps the backend set at runtime: the old ring
//!   persists its names to the shared state directory first, then the new
//!   replica sets restore them lazily on their next touch.
//!
//! The front end ([`front`]) serves stdin/stdout or TCP with the same
//! concurrency and shutdown model as `weber serve`. Everything is
//! instrumented through `weber-obs`; the `metrics` op merges every
//! backend's snapshot (namespaced `shard<i>.`) with the router's own
//! counters, gauges and latency histograms.

pub mod front;
pub mod health;
pub mod merge;
pub mod pool;
pub mod ring;
pub mod router;

pub use front::{route_listener, route_stdio, route_tcp, FrontOptions};
pub use health::HealthState;
pub use merge::{snapshot_from_wire, ShardOutcome};
pub use pool::{
    ExchangeCallback, ExchangeResult, OutboundPool, Phase, PoolOptions, SLOTS_PER_BACKEND,
};
pub use ring::{fnv1a, HashRing, VNODES};
pub use router::{spawn_prober, LineOutcome, Prober, Router, RouterError, RouterOptions};

use std::sync::{LockResult, PoisonError};

/// The guard of a lock result, even when a previous holder panicked. The
/// network pool catches a panicking request; poisoning would turn that one
/// failure into an error on every later request that takes the same lock.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn locks_still_lock_after_a_holder_panicked() {
        let mutex = Arc::new(Mutex::new(1));
        let rwlock = Arc::new(RwLock::new(1));
        let (m, r) = (Arc::clone(&mutex), Arc::clone(&rwlock));
        let panicked = std::thread::spawn(move || {
            let _m = m.lock().unwrap();
            let _r = r.write().unwrap();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());
        *unpoisoned(mutex.lock()) += 1;
        assert_eq!(*unpoisoned(mutex.lock()), 2);
        *unpoisoned(rwlock.write()) += 1;
        assert_eq!(*unpoisoned(rwlock.read()), 2);
    }
}
