//! Integration tests for the event-loop front end (`weber-net` under
//! `weber serve`): incremental framing against slow clients, idle-timeout
//! eviction, connection-cap refusal, and connection-count soaks.
//!
//! Everything here drives a real `serve_listener` over real, blocking
//! `TcpStream`s. The soaks hold every connection open at once and check
//! each reply against the request it answers: `"ok":true`, the same `op`
//! and `name`, in request order on its connection, none missing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use weber::extract::gazetteer::{EntityKind, Gazetteer};
use weber::stream::{serve_listener, StreamConfig, StreamResolver, TcpOptions};

fn gazetteer() -> Gazetteer {
    let mut g = Gazetteer::new();
    g.add_phrases(EntityKind::Concept, ["databases", "gardening"]);
    g
}

fn start_server(options: TcpOptions) -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
    let resolver = Arc::new(StreamResolver::new(StreamConfig::default(), &gazetteer()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_listener(resolver, listener, &options).unwrap());
    (addr, handle)
}

/// Ask the server to shut down, retrying if the shutdown connection
/// itself gets refused (e.g. the connection cap is still held by
/// recently-dropped clients the reactor has not reaped yet).
fn shutdown(addr: std::net::SocketAddr) {
    for _ in 0..100 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut reply = String::new();
        let mut reader = BufReader::new(stream);
        let _ = reader.read_line(&mut reply);
        if reply.contains("\"ok\":true") {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("server at {addr} refused every shutdown attempt");
}

/// A request delivered one byte at a time, with pauses, must still frame
/// into exactly one request and one reply — the reactor's `LineFramer`
/// holds partial lines across arbitrarily many read events.
#[test]
fn slow_client_byte_at_a_time_still_frames_one_request() {
    let (addr, server) = start_server(TcpOptions::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let line = r#"{"op":"health"}"#.to_string() + "\n";
    for chunk in line.as_bytes().chunks(1) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    // A second fragmented request on the same connection works too.
    for chunk in line.as_bytes().chunks(3) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(reader);
    drop(stream);
    shutdown(addr);
    assert_eq!(server.join().unwrap(), 3); // 2 health + 1 shutdown
}

/// With `idle_timeout` set, a silent connection is evicted while an
/// active one on the same server keeps working.
#[test]
fn idle_connections_are_evicted_but_active_ones_survive() {
    let (addr, server) = start_server(TcpOptions {
        idle_timeout: Some(Duration::from_millis(300)),
        ..TcpOptions::default()
    });
    let idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut active = TcpStream::connect(addr).unwrap();
    active
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut active_reader = BufReader::new(active.try_clone().unwrap());
    // Keep the active connection chatty past the idle deadline.
    for _ in 0..6 {
        writeln!(active, r#"{{"op":"health"}}"#).unwrap();
        let mut reply = String::new();
        active_reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        std::thread::sleep(Duration::from_millis(100));
    }
    // The idle connection has been closed by now: reads see EOF.
    let mut reader = BufReader::new(idle);
    let mut buf = String::new();
    let n = reader.read_line(&mut buf).unwrap();
    assert_eq!(n, 0, "idle connection should see EOF, got {buf:?}");
    drop(active_reader);
    drop(active);
    shutdown(addr);
    server.join().unwrap();
}

/// Connections past `max_connections` get exactly one `overloaded` error
/// line and a close, while admitted connections are unaffected.
#[test]
fn connections_past_the_cap_are_refused_with_an_error_line() {
    let (addr, server) = start_server(TcpOptions {
        max_connections: 2,
        ..TcpOptions::default()
    });
    let keep1 = TcpStream::connect(addr).unwrap();
    let keep2 = TcpStream::connect(addr).unwrap();
    // Give the reactor time to admit both before the third arrives.
    std::thread::sleep(Duration::from_millis(100));
    let refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\""), "{line}");
    assert!(line.contains("overloaded"), "{line}");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0);
    // An admitted connection still round-trips.
    let mut stream = keep1;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(stream, r#"{{"op":"health"}}"#).unwrap();
    let mut keep_reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    keep_reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(keep_reader);
    drop(stream);
    drop(keep2);
    shutdown(addr);
    server.join().unwrap();
}

const SOAK_NAMES: usize = 16;

fn soak_name(i: usize) -> String {
    format!("soak{:02}", i % SOAK_NAMES)
}

fn seed_line(name: &str) -> String {
    format!(
        concat!(
            r#"{{"op":"seed","name":"{}","docs":["#,
            r#"{{"text":"databases are fun and databases are important","label":0}},"#,
            r#"{{"text":"databases are hard but databases pay well","label":0}},"#,
            r#"{{"text":"gardening tips for growing roses","label":1}},"#,
            r#"{{"text":"gardening advice on pruning roses","label":1}}]}}"#
        ),
        name
    )
}

/// One request line and the `op` / `name` its reply must echo.
struct Request {
    op: &'static str,
    name: String,
    line: String,
}

/// Request `k` on connection `conn`. Ingest and resolve alternate and
/// consecutive requests name different names, so a reply delivered out
/// of order cannot pass for the one expected.
fn soak_request(conn: usize, k: usize) -> Request {
    let name = soak_name(conn + k);
    let (op, line) = if (conn + k).is_multiple_of(2) {
        let text = format!("databases and gardening field note {conn}.{k}");
        (
            "ingest",
            format!(r#"{{"op":"ingest","name":"{name}","text":"{text}"}}"#),
        )
    } else {
        ("resolve", format!(r#"{{"op":"resolve","name":"{name}"}}"#))
    };
    Request { op, name, line }
}

/// One persistent blocking connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    /// Write every request line in one `write_all`.
    fn send(&mut self, requests: &[Request]) {
        let mut buf = String::new();
        for r in requests {
            buf.push_str(&r.line);
            buf.push('\n');
        }
        self.writer.write_all(buf.as_bytes()).unwrap();
    }

    /// Read one reply per request, in request order, and check each is
    /// an ok reply to its request's `op` on its `name`.
    fn expect(&mut self, requests: &[Request]) {
        for Request { op, name, .. } in requests {
            let mut reply = String::new();
            let n = self
                .reader
                .read_line(&mut reply)
                .unwrap_or_else(|e| panic!("no {op} reply for {name}: {e}"));
            assert!(n > 0, "connection closed before the {op} reply for {name}");
            assert!(
                reply.contains(r#""ok":true"#)
                    && reply.contains(&format!(r#""op":"{op}""#))
                    && reply.contains(&format!(r#""name":"{name}""#)),
                "expected an ok {op} reply for {name}, got {reply}"
            );
        }
    }
}

/// Requests `ks` on every connection: all written before any reply is read.
fn exchange(clients: &mut [Client], ks: std::ops::Range<usize>) {
    let batches: Vec<Vec<Request>> = (0..clients.len())
        .map(|c| ks.clone().map(|k| soak_request(c, k)).collect())
        .collect();
    for (client, batch) in clients.iter_mut().zip(&batches) {
        client.send(batch);
    }
    for (client, batch) in clients.iter_mut().zip(&batches) {
        client.expect(batch);
    }
}

/// Hold `connections` open, seed the names, run `rounds` rounds of one
/// request per connection, then one pipelined burst of `burst` lines per
/// connection.
fn soak(connections: usize, rounds: usize, burst: usize) {
    let (addr, server) = start_server(TcpOptions {
        max_connections: connections + 8,
        workers: 2,
        // Room for every line in flight on one worker: nothing is shed.
        queue_capacity: connections * burst,
        ..TcpOptions::default()
    });
    let mut clients: Vec<Client> = (0..connections).map(|_| Client::connect(addr)).collect();

    let seeds: Vec<Request> = (0..SOAK_NAMES)
        .map(|i| {
            let name = soak_name(i);
            let line = seed_line(&name);
            Request {
                op: "seed",
                name,
                line,
            }
        })
        .collect();
    clients[0].send(&seeds);
    clients[0].expect(&seeds);

    for round in 0..rounds {
        exchange(&mut clients, round..round + 1);
    }
    exchange(&mut clients, rounds..rounds + burst);

    drop(clients);
    shutdown(addr);
    let admitted = server.join().unwrap();
    // Seeds, every round and burst line, and the shutdown line.
    let expected = SOAK_NAMES + connections * (rounds + burst) + 1;
    assert_eq!(admitted, expected as u64);
}

/// Tier-1 soak: one reactor holds 128 persistent connections, each
/// active in every round.
#[test]
fn soak_128_connections_open_loop() {
    soak(128, 4, 4);
}

/// Full soak: 1000 persistent connections through one reactor thread.
/// With the client ends in the same process that is about 2,000 fds, so
/// it also checks that `serve` lifts the default 1024-fd soft limit.
/// Ignored in tier-1 (several seconds, many fds); run with
/// `cargo test --release --test net -- --ignored`.
#[test]
#[ignore = "slow: 1000-connection soak"]
fn soak_1000_connections_open_loop() {
    soak(1000, 2, 2);
}
