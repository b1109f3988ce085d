//! # weber-net — minimal epoll event-loop networking
//!
//! The serving tiers' original front ends spent one OS thread per
//! connection; at tens of thousands of mostly-idle persistent
//! connections that is tens of thousands of stacks doing nothing. This
//! crate replaces them with a single-reactor design built directly on
//! raw `epoll`/`eventfd` syscalls (the build is offline and Linux-only,
//! so there is no `mio`, no `tokio`, no `libc` — just the half-dozen
//! foreign declarations in [`sys`]):
//!
//! * [`Poller`] / [`Waker`] — level-triggered readiness over epoll with
//!   an eventfd cross-thread wake-up.
//! * [`LineFramer`] / [`WriteBuffer`] — incremental NDJSON framing and
//!   backpressure-aware writes for non-blocking sockets.
//! * [`WorkerPool`] — bounded per-worker FIFO queues with sticky
//!   data-plane routing and never-shed control lines.
//! * [`serve`] + [`NdjsonService`] — the reactor loop itself: accept,
//!   frame, classify, dispatch, reorder, flush, evict, drain.
//! * [`serve_lines`] — the same service behind one blocking connection
//!   (stdin/stdout): read a line, answer it, read the next.
//!
//! A serving tier implements [`NdjsonService`] (classify + process) and
//! gets one reactor thread for every connection, with per-connection
//! reply ordering, for free. Both `weber serve` and `weber route`
//! execute every request line through it, on TCP and on stdio alike.

mod buffer;
mod poller;
mod pool;
mod server;
mod sys;

pub use buffer::{LineFramer, WriteBuffer};
pub use poller::{
    connect_nonblocking, connect_outcome, ConnectProgress, Event, Interest, Poller, Waker,
};
pub use pool::{Completion, CompletionSender, Dispatch, RouteClass, WorkerPool};
pub use server::{
    serve, serve_lines, NdjsonService, Reply, Responder, ServerOptions, MAX_PIPELINE,
    QUEUE_DEPTH_GAUGE,
};
