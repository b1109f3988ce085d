//! Streaming-vs-batch equivalence: feeding a corpus document-by-document
//! through the streaming resolver must track the batch resolver's quality.
//!
//! Protocol per block: sample supervision from the ground truth (the same
//! labelled subset both paths see), resolve the whole block in batch, then
//! seed a streaming resolver with only the labelled documents and ingest
//! the rest one at a time. The streamed partition — reassembled in original
//! document order — is scored with B-Cubed F against the ground truth and
//! must come within a fixed tolerance of the batch score. The streamed
//! model is trained on the seed subset's block-local statistics (it has not
//! seen the unlabelled documents at fit time), so exact equality is not
//! expected; staying close is the point of the subsystem.

use proptest::prelude::*;

use weber::core::blocking::prepare_dataset;
use weber::core::resolver::{Resolver, ResolverConfig};
use weber::core::supervision::Supervision;
use weber::corpus::{generate, presets, CorpusConfig};
use weber::eval::bcubed;
use weber::graph::Partition;
use weber::stream::{SeedDocument, StreamConfig, StreamResolver};
use weber::textindex::TfIdf;

/// Mean B-Cubed F of both paths over a dataset's blocks:
/// `(batch, stream, blocks_compared)`.
fn stream_vs_batch(config: &CorpusConfig, fraction: f64, seed: u64) -> (f64, f64, usize) {
    let dataset = generate(config);
    let prepared = prepare_dataset(&dataset, TfIdf::default());
    let batch = Resolver::new(ResolverConfig::default()).unwrap();
    let stream = StreamResolver::new(StreamConfig::default(), &dataset.gazetteer).unwrap();

    let (mut batch_sum, mut stream_sum, mut compared) = (0.0, 0.0, 0usize);
    for (nb, raw) in prepared.blocks.iter().zip(&dataset.blocks) {
        let truth = &nb.truth;
        let sup = Supervision::sample_from_truth(truth, fraction, seed);
        if sup.len() < 2 || sup.len() == truth.len() {
            continue; // nothing to train on, or nothing left to stream
        }

        let resolution = batch.resolve(&nb.block, &sup).unwrap();
        let batch_f = bcubed(&resolution.partition, truth).f_measure();

        let seed_docs: Vec<usize> = sup.docs().to_vec();
        let batch_docs: Vec<SeedDocument> = seed_docs
            .iter()
            .map(|&d| SeedDocument {
                text: raw.documents[d].text.clone(),
                url: raw.documents[d].url.clone(),
                label: truth.label_of(d),
            })
            .collect();
        stream.seed(&raw.query_name, &batch_docs).unwrap();

        // Ingest every unlabelled document, one at a time, in order.
        let mut order = seed_docs.clone();
        for d in 0..truth.len() {
            if !seed_docs.contains(&d) {
                let doc = &raw.documents[d];
                stream
                    .ingest(&raw.query_name, &doc.text, doc.url.as_deref())
                    .unwrap();
                order.push(d);
            }
        }

        // Reassemble the streamed partition in original document order.
        let streamed = stream.partition(&raw.query_name).unwrap();
        let mut labels = vec![0u32; truth.len()];
        for (pos, &original) in order.iter().enumerate() {
            labels[original] = streamed.label_of(pos);
        }
        let stream_f = bcubed(&Partition::from_labels(labels), truth).f_measure();

        batch_sum += batch_f;
        stream_sum += stream_f;
        compared += 1;
    }
    (batch_sum, stream_sum, compared)
}

/// Fixed tolerance on the mean B-Cubed F gap between the two paths.
const TOLERANCE: f64 = 0.15;

fn assert_equivalent(config: &CorpusConfig, fraction: f64, seed: u64) {
    let (batch_sum, stream_sum, compared) = stream_vs_batch(config, fraction, seed);
    assert!(compared > 0, "no block had a usable training sample");
    let batch_mean = batch_sum / compared as f64;
    let stream_mean = stream_sum / compared as f64;
    assert!(
        stream_mean >= batch_mean - TOLERANCE,
        "streaming fell behind batch: stream {stream_mean:.4} vs batch {batch_mean:.4} \
         over {compared} blocks (tolerance {TOLERANCE})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn streaming_tracks_batch_on_tiny_corpora(seed in 1u64..1000) {
        assert_equivalent(&presets::tiny(seed), 0.3, seed);
    }
}

#[test]
fn streaming_tracks_batch_on_small_corpus() {
    assert_equivalent(&presets::small(77), 0.25, 77);
}

mod tcp {
    //! Daemon-level behaviour over real sockets: concurrent clients,
    //! crash isolation, and persistence across "restarts".

    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    use weber::extract::gazetteer::{EntityKind, Gazetteer};
    use weber::stream::{serve_listener, StreamConfig, StreamResolver, TcpOptions};

    fn gazetteer() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_phrases(EntityKind::Concept, ["databases", "gardening"]);
        g
    }

    fn start_server(config: StreamConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
        let resolver = Arc::new(StreamResolver::new(config, &gazetteer()).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_listener(resolver, listener, &TcpOptions::default()).unwrap()
        });
        (addr, handle)
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

    /// Send one line, read one response line.
    fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim().to_string()
    }

    fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn two_simultaneous_clients_are_both_served() {
        let (addr, server) = start_server(StreamConfig::default());
        // Client A connects, seeds, and stays connected — under the old
        // sequential accept loop this would block client B forever.
        let (mut a_writer, mut a_reader) = connect(addr);
        let seeded = round_trip(&mut a_writer, &mut a_reader, &seed_line("cohen"));
        assert!(seeded.contains("\"ok\":true"), "{seeded}");
        // Client B completes a full exchange while A's connection is open.
        let (mut b_writer, mut b_reader) = connect(addr);
        let seeded = round_trip(&mut b_writer, &mut b_reader, &seed_line("smith"));
        assert!(seeded.contains("\"ok\":true"), "{seeded}");
        let ingested = round_trip(
            &mut b_writer,
            &mut b_reader,
            r#"{"op":"ingest","name":"smith","text":"gardening again"}"#,
        );
        assert!(ingested.contains("\"ok\":true"), "{ingested}");
        // A is still alive too, and both names exist in the shared state.
        let snap = round_trip(&mut a_writer, &mut a_reader, r#"{"op":"snapshot"}"#);
        assert!(snap.contains("cohen") && snap.contains("smith"), "{snap}");
        drop((b_writer, b_reader));
        let bye = round_trip(&mut a_writer, &mut a_reader, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("shutdown"), "{bye}");
        let admitted = server.join().unwrap();
        assert_eq!(admitted, 5);
    }

    #[test]
    fn n_parallel_clients_ingest_disjoint_names() {
        let (addr, server) = start_server(StreamConfig::default());
        let clients = 4;
        let ingests_per_client = 5;
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || {
                    let (mut writer, mut reader) = connect(addr);
                    let name = format!("name{c}");
                    let seeded = round_trip(&mut writer, &mut reader, &seed_line(&name));
                    assert!(seeded.contains("\"ok\":true"), "{seeded}");
                    for i in 0..ingests_per_client {
                        let response = round_trip(
                            &mut writer,
                            &mut reader,
                            &format!(
                                r#"{{"op":"ingest","name":"{name}","text":"databases item {i}"}}"#
                            ),
                        );
                        assert!(response.contains("\"ok\":true"), "{response}");
                    }
                });
            }
        });
        // After the burst, snapshot totals must account for every client's
        // documents: clients × (4 seed docs + 5 ingested).
        let (mut writer, mut reader) = connect(addr);
        let snap = round_trip(&mut writer, &mut reader, r#"{"op":"snapshot"}"#);
        let value = serde_json::parse_value(&snap).unwrap();
        let names = value.get("names").unwrap().as_array().unwrap();
        assert_eq!(names.len(), clients);
        let total_docs: u64 = names
            .iter()
            .map(|n| n.get("docs").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total_docs, (clients as u64) * (4 + ingests_per_client));
        round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        server.join().unwrap();
    }

    #[test]
    fn a_client_dying_mid_stream_does_not_kill_the_daemon() {
        let (addr, server) = start_server(StreamConfig::default());
        // Victim client seeds, then fires a burst of ingests without ever
        // reading a response, and vanishes. The server's writes land on a
        // closed socket (RST once the unread data is discarded), which the
        // old implementation propagated out of the accept loop.
        {
            let (mut writer, mut reader) = connect(addr);
            let seeded = round_trip(&mut writer, &mut reader, &seed_line("victim"));
            assert!(seeded.contains("\"ok\":true"), "{seeded}");
            for i in 0..64 {
                writeln!(
                    writer,
                    r#"{{"op":"ingest","name":"victim","text":"databases burst {i}"}}"#
                )
                .unwrap();
            }
            writer.flush().unwrap();
            // Reset on close (unread responses in the receive buffer turn
            // the close into an abortive RST on most stacks); at minimum
            // the peer disappears mid-conversation.
            drop(reader);
            drop(writer);
        }
        // Give the server a moment to trip over the dead socket.
        std::thread::sleep(std::time::Duration::from_millis(300));
        // A second client must still get served.
        let (mut writer, mut reader) = connect(addr);
        let seeded = round_trip(&mut writer, &mut reader, &seed_line("survivor"));
        assert!(seeded.contains("\"ok\":true"), "{seeded}");
        let bye = round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("shutdown"), "{bye}");
        server.join().unwrap();
    }

    #[test]
    fn health_probes_answer_with_uptime_and_names() {
        let (addr, server) = start_server(StreamConfig::default());
        let (mut writer, mut reader) = connect(addr);
        // A fresh daemon answers probes before anything is seeded.
        let probe = round_trip(&mut writer, &mut reader, r#"{"op":"health"}"#);
        let v = serde_json::parse_value(&probe).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("health"));
        assert_eq!(v.get("names").unwrap().as_u64(), Some(0));
        assert!(v.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        assert!(v.get("queue_capacity").unwrap().as_u64().unwrap() > 0);
        // After a seed the live-name count moves.
        round_trip(&mut writer, &mut reader, &seed_line("cohen"));
        let probe = round_trip(&mut writer, &mut reader, r#"{"op":"health"}"#);
        let v = serde_json::parse_value(&probe).unwrap();
        assert_eq!(v.get("names").unwrap().as_u64(), Some(1));
        round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        server.join().unwrap();
    }

    #[test]
    fn malformed_lines_are_answered_and_the_connection_survives() {
        let (addr, server) = start_server(StreamConfig::default());
        let (mut writer, mut reader) = connect(addr);
        // Broken JSON gets a parse error with a stable kind token…
        let parse_err = round_trip(&mut writer, &mut reader, "{not json");
        let v = serde_json::parse_value(&parse_err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("parse"));
        // …and the connection keeps serving.
        let seeded = round_trip(&mut writer, &mut reader, &seed_line("cohen"));
        assert!(seeded.contains("\"ok\":true"), "{seeded}");
        round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        server.join().unwrap();
    }

    #[test]
    fn persist_restart_restore_reproduces_the_partition() {
        let dir =
            std::env::temp_dir().join(format!("weber_streaming_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StreamConfig::default().with_state_dir(&dir);

        // First daemon lifetime: seed, ingest, persist over the wire.
        let (addr, server) = start_server(config.clone());
        let (mut writer, mut reader) = connect(addr);
        round_trip(&mut writer, &mut reader, &seed_line("cohen"));
        round_trip(&mut writer, &mut reader, &seed_line("smith"));
        for i in 0..3 {
            round_trip(
                &mut writer,
                &mut reader,
                &format!(r#"{{"op":"ingest","name":"cohen","text":"databases live {i}"}}"#),
            );
        }
        let persisted = round_trip(&mut writer, &mut reader, r#"{"op":"persist"}"#);
        assert!(persisted.contains("\"names\":2"), "{persisted}");
        let snap_before = round_trip(&mut writer, &mut reader, r#"{"op":"snapshot"}"#);
        round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        server.join().unwrap();

        // The "restarted" daemon shares nothing in memory with the first.
        let (addr, server) = start_server(config);
        let (mut writer, mut reader) = connect(addr);
        let restored = round_trip(&mut writer, &mut reader, r#"{"op":"restore"}"#);
        assert!(restored.contains("\"names\":2"), "{restored}");
        let snap_after = round_trip(&mut writer, &mut reader, r#"{"op":"snapshot"}"#);
        // Same names, same document counts, same cluster structure.
        assert_eq!(snap_before, snap_after);
        // And the restored state keeps serving ingests.
        let response = round_trip(
            &mut writer,
            &mut reader,
            r#"{"op":"ingest","name":"cohen","text":"databases after restart"}"#,
        );
        assert!(response.contains("\"doc\":7"), "{response}");
        round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn incremental_similarities_match_a_batch_build() {
    // The streaming engine's whole correctness contract: a block grown one
    // document at a time — deferred vector syncs, cached similarity rows,
    // incremental TF-IDF — must score every pair exactly as a block built
    // in one shot from the same documents.
    use weber::extract::pipeline::Extractor;
    use weber::simfun::block::PreparedBlock;
    use weber::simfun::functions::standard_suite;

    let dataset = generate(&presets::tiny(13));
    let extractor = Extractor::new(&dataset.gazetteer);
    let raw = &dataset.blocks[0];
    let features: Vec<_> = raw
        .documents
        .iter()
        .map(|d| extractor.extract(&d.text, d.url.as_deref()))
        .collect();

    let batch = PreparedBlock::new(raw.query_name.clone(), features.clone(), TfIdf::default());
    let seed = 3.min(features.len());
    let mut streamed = PreparedBlock::new(
        raw.query_name.clone(),
        features[..seed].to_vec(),
        TfIdf::default(),
    );
    for f in &features[seed..] {
        // The deferred path is the one the stream daemon takes.
        streamed.push_deferred(f.clone());
    }
    streamed.ensure_vectors();

    for i in 0..batch.len() {
        assert_eq!(batch.tfidf(i), streamed.tfidf(i), "vector of doc {i}");
    }
    for f in standard_suite() {
        let b = batch.similarity_graph(f.as_ref());
        let s = streamed.similarity_graph(f.as_ref());
        for (i, j, w) in b.edges() {
            assert!(
                (w - s.get(i, j)).abs() < 1e-12,
                "{} differs on pair ({i}, {j}): batch {w} vs streamed {}",
                f.name(),
                s.get(i, j)
            );
        }
    }
}

#[test]
fn streamed_model_scores_match_direct_recomputation() {
    // The cached-row scoring path used per arrival must agree with the
    // trained model's direct pairwise evaluation on the grown block.
    let dataset = generate(&presets::tiny(9));
    let stream = StreamResolver::new(StreamConfig::default(), &dataset.gazetteer).unwrap();
    let raw = &dataset.blocks[0];
    let truth = raw.truth();
    let seed_count = (raw.documents.len() / 2).max(2);
    let docs: Vec<SeedDocument> = raw.documents[..seed_count]
        .iter()
        .zip(0..)
        .map(|(d, i)| SeedDocument {
            text: d.text.clone(),
            url: d.url.clone(),
            label: truth.label_of(i),
        })
        .collect();
    stream.seed(&raw.query_name, &docs).unwrap();
    for d in &raw.documents[seed_count..] {
        stream
            .ingest(&raw.query_name, &d.text, d.url.as_deref())
            .unwrap();
    }
    stream
        .with_state(&raw.query_name, |state| {
            let block = state.block();
            let model = state.model();
            for doc in 1..block.len() {
                let row = model.similarity_row(block, doc);
                assert_eq!(row.len(), doc);
                for (j, &cached) in row.iter().enumerate() {
                    let direct = model.similarity(block, j, doc);
                    assert!(
                        (cached - direct).abs() < 1e-12,
                        "cached row differs at ({j}, {doc}): {cached} vs {direct}"
                    );
                }
            }
        })
        .unwrap();
}

#[test]
fn streaming_handles_every_block_of_a_dataset() {
    // Coverage sanity: on a tiny corpus with generous supervision, every
    // block either trains or is skipped for a principled reason, and the
    // streamed state answers for each trained name.
    let dataset = generate(&presets::tiny(5));
    let stream = StreamResolver::new(StreamConfig::default(), &dataset.gazetteer).unwrap();
    let mut seeded = 0;
    for block in &dataset.blocks {
        let truth = block.truth();
        let docs: Vec<SeedDocument> = block
            .documents
            .iter()
            .zip(0..)
            .map(|(d, i)| SeedDocument {
                text: d.text.clone(),
                url: d.url.clone(),
                label: truth.label_of(i),
            })
            .collect();
        stream.seed(&block.query_name, &docs).unwrap();
        seeded += 1;
    }
    assert_eq!(seeded, dataset.blocks.len());
    assert_eq!(stream.snapshot().names.len(), dataset.blocks.len());
}
