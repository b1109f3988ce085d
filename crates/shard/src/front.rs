//! The `weber route` front end: NDJSON over stdin/stdout or TCP.
//!
//! Both front ends execute every request line through one adapter,
//! `RouterService`, the [`weber_net::NdjsonService`] over a [`Router`].
//! Its `parse` is the router's one op table, run once per line on the
//! reactor; where the parsed request executes follows from what it is.
//! The TCP front end runs it on the `weber-net` epoll reactor, and
//! per-name ops (`seed`, `ingest`, `resolve`, `same_as`, `constraint`,
//! named `entities`) take the fully asynchronous path: they parse to
//! [`RouteClass::Deferred`] and the reactor hands each (with a
//! [`weber_net::Responder`]) to the router, which submits the backend
//! exchange to the outbound reactor and returns immediately. No thread
//! waits on the backend round trip — a deliberately stalled backend stalls
//! only the requests addressed to it, while requests owned by healthy
//! shards keep flowing, whatever `--workers` is set to. Replies still
//! come back in per-connection admission order (the reactor's reorder
//! buffer holds each one to its line's position), and backpressure comes
//! from the pipelining valve, which stops reading a connection with too
//! many unanswered lines.
//!
//! Fan-out ops (`snapshot`, name-less `entities`, `metrics`, `persist`,
//! `restore`, `flush`, `shutdown`, `topology`) block for the slowest
//! backend, so they run on a worker thread ([`RouteClass::Control`]);
//! `health` is answered straight from the reactor
//! ([`RouteClass::Immediate`]), and a line the router rejects is answered
//! with its error reply at its position — both are local and cheap.
//! Over-cap clients are refused with one `overloaded` line, and `shutdown`
//! drains the tier (backends included).
//!
//! The stdio front end ([`route_stdio`]) is one blocking connection
//! ([`weber_net::serve_lines`]): each line is routed and answered before
//! the next is read.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use weber_net::{Parsed, RouteClass, ServerOptions};
use weber_stream::protocol;
use weber_stream::StreamError;

use crate::router::{Fanout, Routed, Router};

/// Tuning knobs of the routing front end.
#[derive(Debug, Clone)]
pub struct FrontOptions {
    /// Worker threads running the fan-out ops (per-name ops never
    /// occupy one).
    pub workers: usize,
    /// Bounded queue slots per worker.
    pub queue_capacity: usize,
    /// Maximum simultaneous client connections.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` (the default)
    /// never evicts — callers keep pooled router connections idle for
    /// long stretches by design.
    pub idle_timeout: Option<Duration>,
}

impl Default for FrontOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            max_connections: 64,
            idle_timeout: None,
        }
    }
}

/// Route NDJSON from stdin to the backends until EOF or `shutdown`.
/// Returns the number of requests answered.
pub fn route_stdio(router: Arc<Router>) -> std::io::Result<u64> {
    weber_net::serve_lines(
        &RouterService { router },
        std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
    )
}

/// Bind `addr` and route clients concurrently. Returns the total number
/// of requests admitted across all connections.
pub fn route_tcp(router: Arc<Router>, addr: &str, options: &FrontOptions) -> std::io::Result<u64> {
    let listener = TcpListener::bind(addr)?;
    route_listener(router, listener, options)
}

/// [`route_tcp`] over an already-bound listener (callers needing an
/// ephemeral port bind `:0` themselves). `net.*` metrics surface
/// through the router's registry.
pub fn route_listener(
    router: Arc<Router>,
    listener: TcpListener,
    options: &FrontOptions,
) -> std::io::Result<u64> {
    let registry = router.registry_handle();
    let service = Arc::new(RouterService { router });
    weber_net::serve(
        service,
        listener,
        ServerOptions {
            workers: options.workers,
            queue_capacity: options.queue_capacity,
            max_connections: options.max_connections.max(1),
            idle_timeout: options.idle_timeout,
            registry: Some(registry),
            ..ServerOptions::default()
        },
    )
}

/// The adapter putting a [`Router`] behind `weber-net`: [`Router::parse`]
/// decides the class, and the parsed request executes without being
/// decoded again.
struct RouterService {
    router: Arc<Router>,
}

impl weber_net::NdjsonService for RouterService {
    type Request = Routed;

    fn parse(&self, line: &str) -> Parsed<Routed> {
        let request = match self.router.parse(line) {
            Routed::Invalid(reply) => return Parsed::Reply(reply),
            request => request,
        };
        let class = match &request {
            Routed::Write(_) | Routed::Read(_) => RouteClass::Deferred,
            Routed::Broadcast { .. } | Routed::Topology(_) => RouteClass::Control,
            Routed::Health | Routed::Invalid(_) => RouteClass::Immediate,
        };
        let shutdown = matches!(
            request,
            Routed::Broadcast {
                fanout: Fanout::Shutdown,
                ..
            }
        );
        Parsed::Request {
            request,
            class,
            shutdown,
        }
    }

    fn process(&self, request: Routed) -> String {
        self.router.execute_blocking(request).response
    }

    fn process_deferred(&self, request: Routed, responder: weber_net::Responder) {
        self.router.execute(
            request,
            Box::new(move |outcome| responder.respond(outcome.response)),
        );
    }

    fn overloaded_reply(&self) -> String {
        protocol::err_response(&StreamError::Overloaded)
    }

    fn parse_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::Parse(detail.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterOptions;
    use std::io::Cursor;

    fn dead_tier() -> RouterService {
        // Ports nobody listens on; enough for loop-shape tests.
        let backends = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let options = RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(200),
            ..RouterOptions::default()
        };
        RouterService {
            router: Arc::new(Router::new(backends, options).unwrap()),
        }
    }

    #[test]
    fn answers_each_line_in_order_and_recovers_from_garbage() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"not json\n");
        input.extend_from_slice(b"\xff\xfe{broken\n");
        input.extend_from_slice(b"{\"op\":\"health\"}\n");
        let mut out: Vec<u8> = Vec::new();
        let answered = weber_net::serve_lines(&dead_tier(), Cursor::new(input), &mut out).unwrap();
        assert_eq!(answered, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines[..2] {
            let v = serde_json::parse_value(line).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str(), Some("parse"), "{line}");
        }
        let health = serde_json::parse_value(lines[2]).unwrap();
        assert_eq!(health.get("op").unwrap().as_str(), Some("health"));
    }

    #[test]
    fn shutdown_stops_after_answering_and_skips_later_lines() {
        let input = b"{\"op\":\"shutdown\"}\n{\"op\":\"health\"}\n".to_vec();
        let mut out: Vec<u8> = Vec::new();
        let answered = weber_net::serve_lines(&dead_tier(), Cursor::new(input), &mut out).unwrap();
        assert_eq!(answered, 1);
        let text = String::from_utf8(out).unwrap();
        let v = serde_json::parse_value(text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("shutdown"));
        // Backends are all dead, so even the shutdown broadcast degrades —
        // but the tier still acknowledges and stops.
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    }
}
