//! The `weber serve` daemon: NDJSON over stdin/stdout or a TCP socket.
//!
//! Both front ends execute every request line through one adapter,
//! `ResolverService`, the [`weber_net::NdjsonService`] over a
//! [`StreamResolver`]. Its `parse` is [`protocol::parse_request`] plus the
//! routing decision, run once per line; its `process` is
//! [`service::process_request`](crate::service::process_request) on the
//! request `parse` produced. The TCP front end runs it on the `weber-net`
//! epoll reactor: one acceptor/reactor thread multiplexes every
//! connection, a small worker pool shared by all clients executes parsed
//! requests (named ops stick to `hash(name) % workers`, so one name's
//! requests run in admission order), and a per-connection reorder buffer
//! keeps replies in request order. That holds tens of thousands of
//! mostly-idle persistent connections on a handful of threads. `health`
//! probes are answered on the reactor thread itself, bypassing the
//! queues, and so are lines that do not parse (their error reply is all
//! there is to do); data-plane requests shed with an `overloaded` reply
//! when their worker queue is full; control-plane requests never shed;
//! over-cap clients get one `overloaded` line and a close; any client
//! sending `shutdown` drains the daemon.
//!
//! The stdio front end ([`serve_stdio`]) is one blocking connection
//! ([`weber_net::serve_lines`]): each line is answered before the next
//! is read, so nothing queues and nothing is shed.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use weber_net::{Parsed, RouteClass, ServerOptions};

use crate::error::StreamError;
use crate::protocol::{self, Request};
use crate::resolver::StreamResolver;

/// Tuning knobs of the TCP front end.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Worker threads executing request lines, shared by every
    /// connection.
    pub workers: usize,
    /// Admission-queue capacity per worker.
    pub queue_capacity: usize,
    /// Maximum simultaneous client connections; clients beyond the cap
    /// are answered with an `overloaded` error line and closed.
    pub max_connections: usize,
    /// Evict connections silent for this long. `None` never evicts.
    pub idle_timeout: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            idle_timeout: None,
        }
    }
}

/// Serve NDJSON over stdin/stdout until EOF or `shutdown`. Returns the
/// number of requests answered.
pub fn serve_stdio(resolver: Arc<StreamResolver>) -> std::io::Result<u64> {
    weber_net::serve_lines(
        &ResolverService { resolver },
        std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
    )
}

/// Bind `addr` and serve clients concurrently (see the module docs for
/// the concurrency and shutdown model). Returns the total number of
/// requests admitted across all connections.
pub fn serve_tcp(
    resolver: Arc<StreamResolver>,
    addr: &str,
    options: &TcpOptions,
) -> std::io::Result<u64> {
    let listener = TcpListener::bind(addr)?;
    serve_listener(resolver, listener, options)
}

/// [`serve_tcp`] over an already-bound listener (callers that need the
/// ephemeral port bind with `:0` themselves and pass the listener in).
/// `net.*` metrics surface through the resolver's registry.
pub fn serve_listener(
    resolver: Arc<StreamResolver>,
    listener: TcpListener,
    options: &TcpOptions,
) -> std::io::Result<u64> {
    let registry = Arc::clone(resolver.metrics().registry());
    let service = Arc::new(ResolverService { resolver });
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

/// The adapter putting a [`StreamResolver`] behind `weber-net`: named
/// ops stick to `hash(name)`, control ops are never shed, `health`
/// bypasses the queues entirely, and execution is
/// [`process_request`](crate::service::process_request).
struct ResolverService {
    resolver: Arc<StreamResolver>,
}

/// The sticky-routing key of a name: equal names, equal worker.
fn name_key(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

impl weber_net::NdjsonService for ResolverService {
    type Request = Request;

    fn parse(&self, line: &str) -> Parsed<Request> {
        let request = match protocol::parse_request(line) {
            Ok(request) => request,
            Err(e) => return Parsed::Reply(protocol::err_response(&e)),
        };
        let class = match &request {
            // Health never waits behind the backlog it is probing.
            Request::Health => RouteClass::Immediate,
            Request::Seed { name, .. }
            | Request::Ingest { name, .. }
            | Request::Resolve { name }
            | Request::Entities { name: Some(name) }
            | Request::SameAs { name, .. }
            | Request::Constraint { name, .. } => RouteClass::Data(name_key(name)),
            _ => RouteClass::Control,
        };
        Parsed::Request {
            shutdown: matches!(request, Request::Shutdown),
            request,
            class,
        }
    }

    fn process(&self, request: Request) -> String {
        crate::service::process_request(&self.resolver, &request)
    }

    fn overloaded_reply(&self) -> String {
        protocol::err_response(&StreamError::Overloaded)
    }

    fn parse_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::Parse(detail.to_string()))
    }

    fn internal_error_reply(&self, detail: &str) -> String {
        protocol::err_response(&StreamError::InvalidRequest(detail.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use std::io::{BufRead, BufReader, Cursor, Write};
    use weber_extract::gazetteer::Gazetteer;

    fn resolver() -> Arc<StreamResolver> {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        Arc::new(StreamResolver::new(StreamConfig::default(), &g).unwrap())
    }

    fn seed_line() -> String {
        concat!(
            r#"{"op":"seed","name":"cohen","docs":["#,
            r#"{"text":"databases are fun and databases are important","label":0},"#,
            r#"{"text":"databases are hard but databases pay well","label":0},"#,
            r#"{"text":"gardening tips for growing roses","label":1},"#,
            r#"{"text":"gardening advice on pruning roses","label":1}]}"#
        )
        .to_string()
    }

    /// The stdio front end over in-memory pipes.
    fn run(input: impl Into<Vec<u8>>) -> Vec<String> {
        let service = ResolverService {
            resolver: resolver(),
        };
        let mut out: Vec<u8> = Vec::new();
        let answered =
            weber_net::serve_lines(&service, Cursor::new(input.into()), &mut out).unwrap();
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len() as u64, answered);
        lines
    }

    #[test]
    fn answers_every_request_in_order() {
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            seed_line(),
            r#"{"op":"ingest","name":"cohen","text":"databases are great"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"flush"}"#
        );
        let lines = run(input);
        assert_eq!(lines.len(), 4);
        let ops: Vec<String> = lines
            .iter()
            .map(|l| {
                serde_json::parse_value(l)
                    .unwrap()
                    .get("op")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(ops, vec!["seed", "ingest", "snapshot", "flush"]);
    }

    #[test]
    fn shutdown_stops_the_loop_early() {
        let input = format!(
            "{}\n{}\n{}\n",
            seed_line(),
            r#"{"op":"shutdown"}"#,
            r#"{"op":"flush"}"#
        );
        let lines = run(input);
        // The flush after shutdown is never admitted.
        assert_eq!(lines.len(), 2);
        let last = serde_json::parse_value(&lines[1]).unwrap();
        assert_eq!(last.get("op").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn garbage_and_invalid_utf8_get_parse_errors_not_a_dropped_connection() {
        // Blank lines are skipped; a line that is not JSON and a line that
        // is not even UTF-8 (\xff\xfe) are each answered with a parse
        // error at their position, and the next line is served normally.
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\n\ngarbage\n");
        input.extend_from_slice(b"\xff\xfe{garbage\n");
        input.extend_from_slice(b"{\"op\":\"flush\"}\n");
        let lines = run(input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        for line in &lines[..2] {
            let v = serde_json::parse_value(line).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(v.get("kind").unwrap().as_str(), Some("parse"), "{line}");
        }
        let flush = serde_json::parse_value(&lines[2]).unwrap();
        assert_eq!(flush.get("op").unwrap().as_str(), Some("flush"));
    }

    #[test]
    fn tcp_round_trip() {
        use std::net::TcpStream;
        let resolver = resolver();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_listener(resolver, listener, &TcpOptions::default()).unwrap()
        });
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        writeln!(writer, "{}", seed_line()).unwrap();
        writeln!(
            writer,
            r#"{{"op":"ingest","name":"cohen","text":"databases rock"}}"#
        )
        .unwrap();
        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        writer.flush().unwrap();
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        let admitted = server.join().unwrap();
        assert_eq!(admitted, 3);
        let ingest = serde_json::parse_value(&lines[1]).unwrap();
        assert_eq!(ingest.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ingest.get("doc").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn health_reports_the_pool_the_daemon_runs() {
        // The pool is sized by TcpOptions alone; health must report that
        // pool while it runs, and nothing once it has stopped.
        use std::net::TcpStream;
        let resolver = resolver();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = TcpOptions {
            workers: 3,
            queue_capacity: 17,
            ..TcpOptions::default()
        };
        let served = Arc::clone(&resolver);
        let server =
            std::thread::spawn(move || serve_listener(served, listener, &options).unwrap());
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        writeln!(writer, r#"{{"op":"health"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = serde_json::parse_value(line.trim()).unwrap();
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(3), "{line}");
        assert_eq!(
            v.get("queue_capacity").unwrap().as_u64(),
            Some(17),
            "{line}"
        );
        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        server.join().unwrap();
        let after = resolver.health();
        assert_eq!((after.workers, after.queue_capacity), (0, 0));
    }

    #[test]
    fn a_pipelined_resolve_sees_the_ingest_admitted_before_it() {
        // One write, no waiting: `resolve` must route to the same
        // worker as its name's writes, or it would run on an idle worker
        // while the seed is still training and miss the grown block. The
        // name is one whose worker is not worker 0, where a `resolve`
        // mistaken for a control op would land.
        use std::net::TcpStream;
        let options = TcpOptions::default();
        let name = (0..)
            .map(|i| format!("name{i}"))
            .find(|n| !name_key(n).is_multiple_of(options.workers as u64))
            .unwrap();
        let resolver = resolver();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_listener(resolver, listener, &options).unwrap());
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        // Enough queued writes that a resolve overtaking them on another
        // worker cannot lose the race by luck.
        const INGESTS: usize = 24;
        let mut script = format!("{}\n", seed_line().replace("cohen", &name));
        for i in 0..INGESTS {
            script.push_str(&format!(
                r#"{{"op":"ingest","name":"{name}","text":"databases page {i}"}}"#
            ));
            script.push('\n');
        }
        script.push_str(&format!("{{\"op\":\"resolve\",\"name\":\"{name}\"}}\n"));
        script.push_str("{\"op\":\"shutdown\"}\n");
        writer.write_all(script.as_bytes()).unwrap();
        let mut lines = Vec::new();
        for _ in 0..INGESTS + 3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert_eq!(server.join().unwrap(), INGESTS as u64 + 3);
        let resolve = &lines[INGESTS + 1];
        let v = serde_json::parse_value(resolve).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("resolve"), "{resolve}");
        assert_eq!(
            v.get("docs").unwrap().as_u64(),
            Some(4 + INGESTS as u64),
            "{resolve}"
        );
    }

    #[test]
    fn over_cap_clients_are_refused_with_an_overloaded_line() {
        use std::net::TcpStream;
        let resolver = resolver();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = TcpOptions {
            max_connections: 1,
            ..TcpOptions::default()
        };
        let server =
            std::thread::spawn(move || serve_listener(resolver, listener, &options).unwrap());
        // First client occupies the single slot.
        let first = TcpStream::connect(addr).unwrap();
        let mut first_writer = first.try_clone().unwrap();
        let mut first_reader = BufReader::new(first);
        writeln!(first_writer, "{}", seed_line()).unwrap();
        let mut line = String::new();
        first_reader.read_line(&mut line).unwrap();
        // Second client is over the cap: one overloaded line, then EOF.
        let second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second);
        let mut refusal = String::new();
        second_reader.read_line(&mut refusal).unwrap();
        let v = serde_json::parse_value(refusal.trim()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        let mut rest = String::new();
        assert_eq!(second_reader.read_line(&mut rest).unwrap(), 0, "{rest}");
        // The first client still works, and can stop the daemon.
        writeln!(first_writer, r#"{{"op":"shutdown"}}"#).unwrap();
        line.clear();
        first_reader.read_line(&mut line).unwrap();
        assert!(line.contains("shutdown"), "{line}");
        server.join().unwrap();
    }
}
