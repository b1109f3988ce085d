//! Routing-tier end-to-end tests: a `weber route` ring over real `weber
//! serve` backends must be indistinguishable from one big daemon when all
//! backends are up, and degrade by exactly the dead shards when they are
//! not.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serde_json::Value;
use weber::extract::gazetteer::{EntityKind, Gazetteer};
use weber::shard::{route_listener, FrontOptions, Router, RouterOptions};
use weber::stream::{serve_listener, StreamConfig, StreamResolver, TcpOptions};

fn gazetteer() -> Gazetteer {
    let mut g = Gazetteer::new();
    g.add_phrases(EntityKind::Concept, ["databases", "gardening"]);
    g
}

struct Backend {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<u64>,
}

fn start_backend(config: StreamConfig) -> Backend {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    start_backend_on(config, listener)
}

fn start_backend_on(config: StreamConfig, listener: TcpListener) -> Backend {
    let resolver = Arc::new(StreamResolver::new(config, &gazetteer()).unwrap());
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve_listener(resolver, listener, &TcpOptions::default()).unwrap()
    });
    Backend { addr, handle }
}

/// Stop a backend directly (not through the router) and wait for it to
/// release its port.
fn kill_backend(backend: Backend) {
    let stream = TcpStream::connect(backend.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    backend.handle.join().unwrap();
}

/// A port with nothing listening on it (bound once, then dropped).
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// Fast-failing router options so dead-backend tests don't crawl.
fn fast_options() -> RouterOptions {
    RouterOptions {
        retries: 2,
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(10),
        probe_interval: Duration::from_millis(100),
        ..RouterOptions::default()
    }
}

fn router_over(addrs: &[SocketAddr]) -> Router {
    Router::new(
        addrs.iter().map(|a| a.to_string()).collect(),
        fast_options(),
    )
    .unwrap()
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

fn ingest_line(name: &str, text: &str) -> String {
    format!(r#"{{"op":"ingest","name":"{name}","text":"{text}"}}"#)
}

fn parse(line: &str) -> Value {
    serde_json::parse_value(line).unwrap_or_else(|e| panic!("bad JSON {line}: {e}"))
}

/// Drop the router's shard tags so responses can be compared with a
/// single daemon's.
fn sans_shard(line: &str) -> String {
    let mut v = parse(line);
    if let Value::Object(entries) = &mut v {
        entries.retain(|(k, _)| k != "shard");
    }
    serde_json::to_string(&v).unwrap()
}

/// One name per shard, found by asking the ring.
fn names_covering_owners(router: &Router, shards: usize) -> Vec<String> {
    let mut by_owner: Vec<Option<String>> = vec![None; shards];
    for i in 0..10_000 {
        let name = format!("name{i}");
        let (idx, _) = router.owner(&name);
        if by_owner[idx].is_none() {
            by_owner[idx] = Some(name);
        }
        if by_owner.iter().all(Option::is_some) {
            break;
        }
    }
    by_owner
        .into_iter()
        .map(|n| n.expect("every shard owns some name"))
        .collect()
}

/// Send one line, read one response line.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim().to_string()
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Sort a snapshot's names array by name (the router sorts; a single
/// daemon reports insertion order) and strip shard tags for comparison.
fn normalized_snapshot(line: &str) -> Vec<String> {
    let v = parse(line);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    let mut entries: Vec<String> = v
        .get("names")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| sans_shard(&serde_json::to_string(e).unwrap()))
        .collect();
    entries.sort();
    entries
}

#[test]
fn a_three_backend_ring_answers_like_a_single_daemon() {
    // The same request stream goes to one standalone daemon and to a
    // 3-backend routed tier, both over real sockets; every response must
    // match modulo the router's shard tags.
    let single = start_backend(StreamConfig::default());
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let router = Arc::new(router_over(
        &backends.iter().map(|b| b.addr).collect::<Vec<_>>(),
    ));
    let names = names_covering_owners(&router, 3);

    let front = TcpListener::bind("127.0.0.1:0").unwrap();
    let front_addr = front.local_addr().unwrap();
    let router_thread = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || route_listener(router, front, &FrontOptions::default()).unwrap())
    };

    let (mut s_writer, mut s_reader) = connect(single.addr);
    let (mut r_writer, mut r_reader) = connect(front_addr);

    let mut script = Vec::new();
    for name in &names {
        script.push(seed_line(name));
        script.push(ingest_line(name, "databases keep growing"));
        script.push(ingest_line(name, "gardening in the rain"));
    }
    script.push(r#"{"op":"flush"}"#.to_string());

    for line in &script {
        let from_single = round_trip(&mut s_writer, &mut s_reader, line);
        let from_router = round_trip(&mut r_writer, &mut r_reader, line);
        assert_eq!(
            sans_shard(&from_single),
            sans_shard(&from_router),
            "responses diverge on {line}"
        );
    }

    // Snapshots agree once shard tags are dropped and order is fixed.
    let s_snap = round_trip(&mut s_writer, &mut s_reader, r#"{"op":"snapshot"}"#);
    let r_snap = round_trip(&mut r_writer, &mut r_reader, r#"{"op":"snapshot"}"#);
    assert!(parse(&r_snap).get("degraded").is_none(), "{r_snap}");
    assert_eq!(normalized_snapshot(&s_snap), normalized_snapshot(&r_snap));

    // Metrics merge: the router reports its own counters plus every
    // backend's, namespaced by shard.
    let metrics = round_trip(&mut r_writer, &mut r_reader, r#"{"op":"metrics"}"#);
    let v = parse(&metrics);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let counters = v.get("counters").unwrap();
    assert!(counters.get("route.requests").unwrap().as_u64().unwrap() > 0);
    for shard in 0..3 {
        let key = format!("shard{shard}.stream.ingests");
        assert!(
            counters.get(&key).and_then(Value::as_u64).unwrap_or(0) > 0,
            "no ingests recorded under {key}: {metrics}"
        );
    }

    // Shutdown through the router reaches every backend and matches the
    // single daemon's acknowledgement.
    let s_bye = round_trip(&mut s_writer, &mut s_reader, r#"{"op":"shutdown"}"#);
    let r_bye = round_trip(&mut r_writer, &mut r_reader, r#"{"op":"shutdown"}"#);
    assert_eq!(sans_shard(&s_bye), sans_shard(&r_bye));
    single.handle.join().unwrap();
    for backend in backends {
        backend.handle.join().unwrap();
    }
    router_thread.join().unwrap();
}

#[test]
fn killing_one_backend_degrades_only_its_shard() {
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let router = router_over(&addrs);
    let names = names_covering_owners(&router, 3);
    for name in &names {
        let out = router.process_line(&seed_line(name));
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    }

    // Kill the backend owning names[1].
    let (dead_shard, _) = router.owner(&names[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[dead_shard].take().unwrap());

    // Its name is now unreachable — reported, not rerouted (the state
    // lives on the dead shard and nowhere else).
    let out = router.process_line(&ingest_line(&names[1], "databases after the crash"));
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(dead_shard as u64));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));

    // Names owned by the surviving shards are served as before.
    for name in [&names[0], &names[2]] {
        let out = router.process_line(&ingest_line(name, "gardening goes on"));
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    }

    // The snapshot carries the survivors' names and flags exactly the
    // dead shard.
    let out = router.process_line(r#"{"op":"snapshot"}"#);
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    let unreachable = v.get("unreachable").unwrap().as_array().unwrap();
    assert_eq!(unreachable.len(), 1);
    assert_eq!(
        unreachable[0].get("shard").unwrap().as_u64(),
        Some(dead_shard as u64)
    );
    let snap_names = v.get("names").unwrap().as_array().unwrap();
    assert_eq!(snap_names.len(), 2);

    // After a probe pass the router's health view shows one shard down.
    router.probe_once();
    let out = router.process_line(r#"{"op":"health"}"#);
    let v = parse(&out.response);
    assert_eq!(v.get("backends").unwrap().as_u64(), Some(3));
    assert_eq!(v.get("healthy").unwrap().as_u64(), Some(2));

    for backend in backends.into_iter().flatten() {
        kill_backend(backend);
    }
}

#[test]
fn a_backend_down_at_startup_is_degraded_from_the_first_request() {
    let live = start_backend(StreamConfig::default());
    let router = router_over(&[live.addr, dead_addr()]);
    let names = names_covering_owners(&router, 2);

    // The live shard's name works immediately.
    let out = router.process_line(&seed_line(&names[0]));
    assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    // The dead shard's name fails with routing context.
    let out = router.process_line(&seed_line(&names[1]));
    let v = parse(&out.response);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(1));
    // Fan-out degrades to the live half.
    let out = router.process_line(r#"{"op":"snapshot"}"#);
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);

    kill_backend(live);
}

#[test]
fn all_backends_down_still_answers_with_a_degraded_snapshot() {
    let router = Router::new(
        vec![dead_addr().to_string(), dead_addr().to_string()],
        RouterOptions {
            retries: 0,
            ..fast_options()
        },
    )
    .unwrap();
    let out = router.process_line(r#"{"op":"snapshot"}"#);
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 0);
    assert_eq!(v.get("unreachable").unwrap().as_array().unwrap().len(), 2);
    // The router's own health still answers too.
    router.probe_once();
    let out = router.process_line(r#"{"op":"health"}"#);
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("healthy").unwrap().as_u64(), Some(0));
}

#[test]
fn a_backend_restart_is_invisible_to_the_next_write() {
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let router = router_over(&addrs);
    let names = names_covering_owners(&router, 3);
    let (owner, _) = router.owner(&names[0]);

    // Warm the pool towards the owner, then restart that backend on the
    // same address: every pooled connection is now stale.
    let out = router.process_line(&seed_line(&names[0]));
    assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[owner].take().unwrap());
    let listener = TcpListener::bind(addrs[owner]).unwrap();
    backends[owner] = Some(start_backend_on(StreamConfig::default(), listener));

    // Either way the restart is invisible: the outbound reactor usually
    // sees the dead backend's FIN the moment it happens and reaps the
    // stale connection (so the re-seed dials fresh, first try), and if
    // the re-seed wins the race onto the stale socket it fails
    // mid-exchange and the bounded retry reconnects. The client sees a
    // plain ack from the same (restarted) shard and no error in either
    // interleaving.
    let out = router.process_line(&seed_line(&names[0]));
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(owner as u64));
    let errors = router
        .registry()
        .snapshot()
        .counter("route.errors")
        .unwrap_or(0);
    assert_eq!(errors, 0, "a restart must not surface as a routed error");

    for backend in backends.into_iter().flatten() {
        kill_backend(backend);
    }
}

#[test]
fn overloaded_replies_are_relayed_verbatim_not_retried() {
    // A fake backend that answers every line with the daemon's overloaded
    // error: the router must relay it (it is a valid reply) and must not
    // burn retry attempts on it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // One connection is enough for the single routed request.
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            writer
                .write_all(b"{\"ok\":false,\"error\":\"overloaded\",\"kind\":\"overloaded\"}\n")
                .unwrap();
            line.clear();
        }
    });
    let router = router_over(&[addr]);
    let out = router.process_line(&ingest_line("cohen", "databases at capacity"));
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("overloaded"));
    // The reply still gets the router's shard tag, and no retries fired.
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(0));
    let retries = router
        .registry()
        .snapshot()
        .counter("route.retries")
        .unwrap_or(0);
    assert_eq!(retries, 0, "overloaded is a reply, not a transport failure");
    drop(router); // closes the pooled connection; the fake backend exits
    fake.join().unwrap();
}

fn replicated_router_over(addrs: &[SocketAddr], replication: usize) -> Router {
    Router::new(
        addrs.iter().map(|a| a.to_string()).collect(),
        RouterOptions {
            replication,
            ..fast_options()
        },
    )
    .unwrap()
}

fn resolve_line(name: &str) -> String {
    format!(r#"{{"op":"resolve","name":"{name}"}}"#)
}

fn counter(router: &Router, name: &str) -> u64 {
    router.registry().snapshot().counter(name).unwrap_or(0)
}

#[test]
fn replication_is_clamped_and_reported_in_health() {
    // Nothing listens on these ports; health answers locally.
    let router = Router::new(
        vec![dead_addr().to_string(), dead_addr().to_string()],
        RouterOptions {
            replication: 5,
            retries: 0,
            ..fast_options()
        },
    )
    .unwrap();
    let v = parse(&router.process_line(r#"{"op":"health"}"#).response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        v.get("replication").unwrap().as_u64(),
        Some(2),
        "replication clamps to the backend count"
    );
    assert_eq!(v.get("vnodes").unwrap().as_u64(), Some(64));
}

#[test]
fn with_replication_two_a_dead_backend_leaves_every_name_readable() {
    // The acceptance scenario: R=2 over three backends, one backend
    // killed. Every name must still answer `resolve` with ok:true, the
    // snapshot must stay complete and non-degraded, and the router must
    // count failover reads.
    let backends: Vec<Backend> = (0..3)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let router = replicated_router_over(&addrs, 2);
    let names = names_covering_owners(&router, 3);
    for name in &names {
        let v = parse(&router.process_line(&seed_line(name)).response);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("replication").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("acked").unwrap().as_u64(),
            Some(2),
            "both replicas ack while everyone is up"
        );
        assert!(v.get("degraded").is_none(), "{}", names.len());
    }

    // Kill the backend that is primary for names[1].
    let (dead_shard, _) = router.owner(&names[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[dead_shard].take().unwrap());

    // Every name resolves ok — the dead primary's names from a replica.
    for name in &names {
        let v = parse(&router.process_line(&resolve_line(name)).response);
        assert_eq!(
            v.get("ok").unwrap().as_bool(),
            Some(true),
            "name {name} must stay readable"
        );
        assert_eq!(v.get("op").unwrap().as_str(), Some("resolve"));
        assert_eq!(v.get("docs").unwrap().as_u64(), Some(4));
        assert!(v.get("unreachable").is_none());
        let shard = v.get("shard").unwrap().as_u64().unwrap();
        assert_ne!(shard, dead_shard as u64, "a dead shard cannot answer");
    }
    let v = parse(&router.process_line(&resolve_line(&names[1])).response);
    assert_eq!(v.get("failover").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("primary").unwrap().as_u64(), Some(dead_shard as u64));
    assert!(
        counter(&router, "route.failover_reads") > 0,
        "failover reads must be counted"
    );

    // The snapshot still covers every name exactly once, and one dead
    // backend out of R=2 does not degrade it.
    let v = parse(&router.process_line(r#"{"op":"snapshot"}"#).response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert!(v.get("degraded").is_none(), "one death < R: {v:?}");
    assert!(v.get("unreachable").is_none());
    let mut snap_names: Vec<String> = v
        .get("names")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    snap_names.sort();
    let mut expected = names.clone();
    expected.sort();
    assert_eq!(snap_names, expected, "every name exactly once");

    // A write to the dead primary's name still lands (on the replica),
    // marked degraded with a pending repair.
    let v = parse(
        &router
            .process_line(&ingest_line(&names[1], "databases after the crash"))
            .response,
    );
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("acked").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("repair_pending").unwrap().as_bool(), Some(true));
    assert!(counter(&router, "route.replica_writes") > 0);

    for backend in backends.into_iter().flatten() {
        kill_backend(backend);
    }
}

#[test]
fn a_restarted_primary_is_repaired_with_the_writes_it_missed() {
    // R=2 over a shared state directory. The primary of names[0] dies,
    // an ingest lands on the replica (and is buffered for the primary),
    // the primary restarts, and the router's probe replays the missed
    // write — after which the primary alone serves the full 5-doc state.
    let dir = std::env::temp_dir().join(format!("weber_routing_repair_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig::default().with_state_dir(&dir);
    let backends: Vec<Backend> = (0..3).map(|_| start_backend(config.clone())).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let router = replicated_router_over(&addrs, 2);
    let names = names_covering_owners(&router, 3);
    for name in &names {
        let out = router.process_line(&seed_line(name));
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    }
    // Put every name's seed-era record on disk, so a restarted backend
    // can restore it before replaying buffered writes.
    let out = router.process_line(r#"{"op":"persist"}"#);
    assert!(out.response.contains("\"ok\":true"), "{}", out.response);

    let replica_set = router.replica_set(&names[0]);
    let (primary, replica) = (replica_set[0], replica_set[1]);
    let mut backends: Vec<Option<Backend>> = backends.into_iter().map(Some).collect();
    kill_backend(backends[primary].take().unwrap());

    // The write is acked by the replica and buffered for the primary.
    let v = parse(
        &router
            .process_line(&ingest_line(&names[0], "databases after the crash"))
            .response,
    );
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
    assert_eq!(v.get("acked").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("repair_pending").unwrap().as_bool(), Some(true));
    let health = parse(&router.process_line(r#"{"op":"health"}"#).response);
    let shard_entry = &health.get("shards").unwrap().as_array().unwrap()[primary];
    assert_eq!(
        shard_entry.get("repair_backlog").unwrap().as_u64(),
        Some(1),
        "the missed write is queued: {health:?}"
    );

    // Restart the primary on its old address and let probes find it and
    // drain the repair queue.
    let listener = TcpListener::bind(addrs[primary]).unwrap();
    backends[primary] = Some(start_backend_on(config.clone(), listener));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counter(&router, "route.replica_lag_repairs") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "repair never drained; health: {}",
            router.process_line(r#"{"op":"health"}"#).response
        );
        router.probe_once();
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(counter(&router, "route.replica_lag_repairs") >= 1);

    // Kill the replica: only the repaired primary can answer now, and it
    // must have the seed batch (4 docs, via the shared state dir) plus
    // the replayed ingest.
    kill_backend(backends[replica].take().unwrap());
    let v = parse(&router.process_line(&resolve_line(&names[0])).response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(primary as u64));
    assert!(v.get("failover").is_none(), "the primary itself answers");
    assert_eq!(
        v.get("docs").unwrap().as_u64(),
        Some(5),
        "restored seed + repaired ingest: {v:?}"
    );

    for backend in backends.into_iter().flatten() {
        kill_backend(backend);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_change_migrates_names_through_shared_state() {
    // Three backends over one shared state directory. Shrinking the ring
    // to two persists every name first; the new owner of a reassigned
    // name restores it from disk on the next touch.
    let dir = std::env::temp_dir().join(format!("weber_routing_topology_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StreamConfig::default().with_state_dir(&dir);
    let backends: Vec<Backend> = (0..3).map(|_| start_backend(config.clone())).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let router = router_over(&addrs);
    let names = names_covering_owners(&router, 3);
    for name in &names {
        let out = router.process_line(&seed_line(name));
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    }

    // Shrink to the first two backends. The third shard's name must end
    // up owned by a survivor.
    let migrating = &names[2];
    let keep = vec![addrs[0].to_string(), addrs[1].to_string()];
    let out = router.process_line(&format!(
        r#"{{"op":"topology","backends":["{}","{}"]}}"#,
        keep[0], keep[1]
    ));
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert!(v.get("persisted").unwrap().as_u64().unwrap() >= 3);
    assert_eq!(router.backends(), keep);
    let (new_owner, _) = router.owner(migrating);
    assert!(new_owner < 2);

    // The next touch restores the migrated name on its new owner: the
    // seed batch had 4 documents, so the restored state ingests doc 4.
    let out = router.process_line(&ingest_line(migrating, "databases after migration"));
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert_eq!(v.get("doc").unwrap().as_u64(), Some(4));
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(new_owner as u64));

    for backend in backends {
        kill_backend(backend);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A fake backend that accepts, reads each request line, and answers
/// only after `delay` (forever, for `None`). Returns its address.
fn start_stalling_backend(delay: Option<Duration>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    match delay {
                        Some(delay) => {
                            std::thread::sleep(delay);
                            if writeln!(writer, r#"{{"ok":true,"op":"ingest","doc":1}}"#).is_err() {
                                return;
                            }
                            let _ = writer.flush();
                        }
                        // Never reply; hold the connection open so the
                        // exchange can only end by timing out.
                        None => std::thread::sleep(Duration::from_secs(3600)),
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_slow_backend_does_not_stall_healthy_shards_in_event_mode() {
    // One deliberately slow backend among two real ones, behind the
    // event front end with a SINGLE worker: if any thread parked on the
    // slow round trip, the healthy-shard request on the other connection
    // would be stuck behind it. The async outbound pool must keep it
    // flowing.
    let slow_delay = Duration::from_millis(2500);
    let slow_addr = start_stalling_backend(Some(slow_delay));
    let real: Vec<Backend> = (0..2)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let mut addrs = vec![slow_addr];
    addrs.extend(real.iter().map(|b| b.addr));
    let router = Arc::new(router_over(&addrs));
    let names = names_covering_owners(&router, 3);
    let slow_name = &names[0];
    let fast_name = &names[1];

    let front = TcpListener::bind("127.0.0.1:0").unwrap();
    let front_addr = front.local_addr().unwrap();
    let router_thread = {
        let router = Arc::clone(&router);
        let options = FrontOptions {
            workers: 1,
            ..FrontOptions::default()
        };
        std::thread::spawn(move || route_listener(router, front, &options).unwrap())
    };

    // Connection 1 fires a request for the slow shard's name and does
    // NOT wait for the reply.
    let (mut slow_writer, mut slow_reader) = connect(front_addr);
    writeln!(
        slow_writer,
        "{}",
        ingest_line(slow_name, "stuck behind molasses")
    )
    .unwrap();
    slow_writer.flush().unwrap();

    // Connection 2's request for a healthy shard's name must answer well
    // before the slow backend's delay elapses.
    let (mut fast_writer, mut fast_reader) = connect(front_addr);
    let started = std::time::Instant::now();
    let reply = round_trip(&mut fast_writer, &mut fast_reader, &seed_line(fast_name));
    let elapsed = started.elapsed();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(
        elapsed < Duration::from_millis(2000),
        "healthy-shard request took {elapsed:?} — stalled behind the slow backend"
    );

    // The slow request still completes (delayed, not lost).
    let mut slow_reply = String::new();
    slow_reader.read_line(&mut slow_reply).unwrap();
    let v = parse(slow_reply.trim());
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{slow_reply}");
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(0));

    // Shut the tier down through the front end (the slow backend echoes
    // the broadcast late; the merge tolerates it).
    let bye = round_trip(&mut fast_writer, &mut fast_reader, r#"{"op":"shutdown"}"#);
    assert!(
        parse(&bye).get("ok").unwrap().as_bool() == Some(true),
        "{bye}"
    );
    for backend in real {
        backend.handle.join().unwrap();
    }
    router_thread.join().unwrap();
}

#[test]
fn a_stalled_exchange_times_out_as_unreachable_not_a_hang() {
    // A backend that accepts and never answers: the outbound pool's
    // timeout sweep must expire the exchange and surface the standard
    // unreachable error, bounded by the configured io timeout.
    let addr = start_stalling_backend(None);
    let router = Router::new(
        vec![addr.to_string()],
        RouterOptions {
            retries: 0,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let started = std::time::Instant::now();
    let out = router.process_line(&ingest_line("anyname", "going nowhere"));
    let elapsed = started.elapsed();
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(false),
        "{}",
        out.response
    );
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unreachable"));
    assert!(
        elapsed < Duration::from_secs(5),
        "stalled exchange took {elapsed:?} — the timeout sweep did not fire"
    );
}

#[test]
fn entity_ops_relay_through_a_replicated_ring() {
    // Two backends, R=2: every name lives on both, so entity-table
    // mutations must fan out like writes, named reads must carry shard
    // tags, and the name-less fan-out must list each name exactly once.
    let backends: Vec<Backend> = (0..2)
        .map(|_| start_backend(StreamConfig::default()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
    let options = RouterOptions {
        replication: 2,
        ..fast_options()
    };
    let router = Router::new(addrs.iter().map(|a| a.to_string()).collect(), options).unwrap();

    let out = router.process_line(&seed_line("cohen"));
    let v = parse(&out.response);
    assert_eq!(
        v.get("acked").unwrap().as_u64(),
        Some(2),
        "{}",
        out.response
    );

    // A named `entities` is a per-name read: answered by one replica,
    // tagged with the shard that served it.
    let out = router.process_line(r#"{"op":"entities","name":"cohen"}"#);
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert!(v.get("shard").is_some(), "{}", out.response);
    let entities = v.get("entities").unwrap().as_array().unwrap();
    assert_eq!(entities.len(), 2);

    // `constraint` takes the replicated write path: both replicas apply
    // it, so whichever replica answers later reads, the split holds.
    let out = router.process_line(
        r#"{"op":"constraint","name":"cohen","add":{"kind":"cannot-link","a":0,"b":1}}"#,
    );
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert_eq!(
        v.get("acked").unwrap().as_u64(),
        Some(2),
        "{}",
        out.response
    );
    for _ in 0..4 {
        let out = router.process_line(r#"{"op":"entities","name":"cohen"}"#);
        let v = parse(&out.response);
        let entities = v.get("entities").unwrap().as_array().unwrap();
        assert_eq!(entities.len(), 3, "both replicas hold the constraint");
    }

    // `same_as` errors relay verbatim from the backend, stable kind
    // included.
    let out = router.process_line(r#"{"op":"same_as","name":"cohen","a":0,"b":99}"#);
    let v = parse(&out.response);
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("unknown-entity"));

    // The name-less fan-out merges both replicas' tables into one entry
    // per name — R copies of `cohen` must not appear twice.
    let out = router.process_line(r#"{"op":"entities"}"#);
    let v = parse(&out.response);
    assert_eq!(
        v.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        out.response
    );
    assert_eq!(v.get("op").unwrap().as_str(), Some("entities"));
    assert!(v.get("degraded").is_none(), "{}", out.response);
    let names = v.get("names").unwrap().as_array().unwrap();
    assert_eq!(names.len(), 1, "{}", out.response);
    assert_eq!(names[0].get("name").unwrap().as_str(), Some("cohen"));
    assert!(names[0].get("shard").is_some());

    for backend in backends {
        kill_backend(backend);
    }
}
