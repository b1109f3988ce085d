//! Integration tests for the event-loop front end (`weber-net` under
//! `weber serve`): incremental framing against slow clients, idle-timeout
//! eviction, connection-cap refusal, and connection-count soaks.
//!
//! Everything here drives a real `serve_listener` over real sockets; the
//! soak tests also exercise the loadgen engine, whose closed-loop
//! bookkeeping doubles as a correctness check (every reply must match a
//! request on the same connection, in order).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use weber::extract::gazetteer::{EntityKind, Gazetteer};
use weber::loadgen::{self, LoadgenOptions};
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

fn soak(connections: usize, rate: u64, duration: Duration) {
    let (addr, server) = start_server(TcpOptions {
        max_connections: connections + 8,
        workers: 2,
        queue_capacity: 512,
        ..TcpOptions::default()
    });
    let report = loadgen::run(
        &addr.to_string(),
        &LoadgenOptions {
            connections,
            duration,
            warmup: Duration::from_millis(500),
            rate: Some(rate),
            names: 16,
            ..LoadgenOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.setup_errors, 0, "{report:?}");
    assert_eq!(report.closed_early, 0, "{report:?}");
    assert_eq!(report.unanswered, 0, "{report:?}");
    assert!(
        report.measured > 0 && report.completed >= report.measured,
        "{report:?}"
    );
    shutdown(addr);
    server.join().unwrap();
}

/// Tier-1 soak: one reactor holds 128 persistent connections while an
/// open-loop trickle keeps them all occasionally active.
#[test]
fn soak_128_connections_open_loop() {
    soak(128, 300, Duration::from_secs(2));
}

/// Full soak: 1000 mostly-idle persistent connections through one
/// reactor thread. Ignored in tier-1 (several seconds, many fds); run
/// with `cargo test --test net -- --ignored`.
#[test]
#[ignore = "slow: 1000-connection soak"]
fn soak_1000_connections_open_loop() {
    soak(1000, 500, Duration::from_secs(5));
}
