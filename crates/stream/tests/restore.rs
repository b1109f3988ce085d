//! Persist → restore → continue equals never having stopped, and a state
//! record that is damaged, hand-forged or written by an older format is
//! rejected or replayed, never served wrong.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use weber_corpus::{generate, presets, NameBlock};
use weber_extract::gazetteer::Gazetteer;
use weber_stream::snapshot::{self, NameRecord};
use weber_stream::{ClusterAssignment, SeedDocument, StreamConfig, StreamError, StreamResolver};

/// Seed documents of the test block; its doubling checkpoints fire at 24
/// and 48 documents.
const SEED: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weber_restore_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn resolver(dir: &Path, gazetteer: &Gazetteer) -> StreamResolver {
    StreamResolver::new(StreamConfig::default().with_state_dir(dir), gazetteer).unwrap()
}

fn seed(r: &StreamResolver, block: &NameBlock) {
    let docs: Vec<SeedDocument> = (0..SEED)
        .map(|i| SeedDocument {
            text: block.documents[i].text.clone(),
            url: block.documents[i].url.clone(),
            label: block.truth_labels[i],
        })
        .collect();
    r.seed(&block.query_name, &docs).unwrap();
}

fn ingest(r: &StreamResolver, block: &NameBlock, doc: usize) -> ClusterAssignment {
    let d = &block.documents[doc];
    r.ingest(&block.query_name, &d.text, d.url.as_deref())
        .unwrap()
}

/// Everything a later reader can observe of a name's model: function,
/// criterion, and the accuracy and selection-score bits.
fn model_bits(r: &StreamResolver, name: &str) -> (String, String, u64, u64) {
    r.with_state(name, |s| {
        let m = s.model();
        (
            m.function_name().to_string(),
            m.criterion().label(),
            m.accuracy.to_bits(),
            m.selection_score.to_bits(),
        )
    })
    .unwrap()
}

fn replays(r: &StreamResolver) -> u64 {
    r.metrics().restore_replays.get()
}

/// ROADMAP law 10(c): at every cut point, persisting, restoring into a
/// fresh resolver and ingesting the rest gives every later assignment
/// (cluster root and retrain flag included), the final partition and the
/// final model bits of the run that never stopped. One name per resolver,
/// so the re-extracted documents intern their terms in the original order.
#[test]
fn continuing_after_a_restore_equals_never_stopping() {
    let dataset = generate(&presets::small(5));
    let block = &dataset.blocks[0];
    let n = block.len();
    assert!(n > 4 * SEED, "the block must cross two checkpoints");
    let name = block.query_name.as_str();
    let root = temp_dir("continue");

    // The uninterrupted run, persisting after every step: cut k's record
    // is copied aside once the block holds k documents.
    let live_dir = root.join("live");
    let live = resolver(&live_dir, &dataset.gazetteer);
    seed(&live, block);
    let record_at = |k: usize| root.join(format!("cut{k}"));
    let keep_cut = |k: usize| {
        live.persist_all().unwrap();
        std::fs::create_dir_all(record_at(k)).unwrap();
        let file = snapshot::state_file_name(name);
        std::fs::copy(live_dir.join(&file), record_at(k).join(&file)).unwrap();
    };
    keep_cut(SEED);
    let mut expected = Vec::new();
    for doc in SEED..n {
        expected.push(ingest(&live, block, doc));
        keep_cut(doc + 1);
    }
    let retrains = expected.iter().filter(|a| a.retrained).count();
    assert_eq!(retrains, 2, "checkpoints at 24 and 48 documents");
    let final_partition = live.partition(name).unwrap();
    let final_model = model_bits(&live, name);

    for k in SEED..=n {
        let restored = resolver(&record_at(k), &dataset.gazetteer);
        assert_eq!(restored.restore_all().unwrap(), 1);
        assert_eq!(replays(&restored), 0, "cut {k} was replayed, not adopted");
        for doc in k..n {
            assert_eq!(
                ingest(&restored, block, doc),
                expected[doc - SEED],
                "cut {k}, document {doc}"
            );
        }
        assert_eq!(
            restored.partition(name).unwrap(),
            final_partition,
            "cut {k}"
        );
        assert_eq!(model_bits(&restored, name), final_model, "cut {k}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A version-1 record written by the previous format (documents, labels
/// and the expected selection only) restores through the replay path,
/// serves the partition it recorded, and is rewritten as version 2 by the
/// next persist — which then restores by adoption.
#[test]
fn version_one_records_replay_and_are_rewritten_as_version_two() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1");
    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).unwrap();
    let file = snapshot::state_file_name("cohen");
    std::fs::copy(fixture.join(&file), dir.join(&file)).unwrap();
    let v1 = snapshot::read_record(&dir, "cohen").unwrap().unwrap();
    assert_eq!((v1.version, v1.live.is_none()), (1, true));

    let gazetteer = Gazetteer::new();
    let r = resolver(&dir, &gazetteer);
    assert_eq!(r.restore_all().unwrap(), 1);
    assert_eq!(replays(&r), 1);
    assert_eq!(
        r.partition("cohen").unwrap().labels(),
        v1.partition.as_slice()
    );
    let summary = r.resolve_name("cohen").unwrap();
    assert_eq!(
        (summary.function.as_str(), summary.criterion.as_str()),
        (v1.function.as_str(), v1.criterion.as_str())
    );

    assert_eq!(r.persist_all().unwrap(), 1);
    let json = std::fs::read_to_string(dir.join(&file)).unwrap();
    assert!(json.contains(r#""version":2"#), "{json}");
    let again = resolver(&dir, &gazetteer);
    assert_eq!(again.restore_all().unwrap(), 1);
    assert_eq!(replays(&again), 0);
    assert_eq!(again.partition("cohen"), r.partition("cohen"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A real version-2 record of a small name that has crossed a checkpoint.
fn real_record() -> &'static (Gazetteer, Vec<u8>) {
    static RECORD: OnceLock<(Gazetteer, Vec<u8>)> = OnceLock::new();
    RECORD.get_or_init(|| {
        let dataset = generate(&presets::tiny(3));
        let block = &dataset.blocks[0];
        let dir = temp_dir("real_record");
        let r = resolver(&dir, &dataset.gazetteer);
        seed(&r, block);
        for doc in SEED..block.len() {
            ingest(&r, block, doc);
        }
        r.persist_all().unwrap();
        let file = snapshot::state_file_path(&dir, &block.query_name);
        let bytes = std::fs::read(file).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (dataset.gazetteer.clone(), bytes)
    })
}

/// Restore `bytes` as the record of the real record's name in a fresh
/// resolver, on a thread with a deadline: a hostile record must be
/// answered, never hang.
fn restore_bytes(tag: &str, bytes: Vec<u8>) -> Result<(usize, u64), StreamError> {
    let (gazetteer, original) = real_record();
    let name = NameRecord::from_json(std::str::from_utf8(original).unwrap())
        .unwrap()
        .name;
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(snapshot::state_file_path(&dir, &name), bytes).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker_dir = dir.clone();
    let gazetteer = gazetteer.clone();
    std::thread::spawn(move || {
        let r = resolver(&worker_dir, &gazetteer);
        let outcome = r.restore_all().map(|n| (n, replays(&r)));
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a restore answers within the deadline");
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Accept only the two safe answers: a rejection, or a restore that went
/// through replay-and-verify.
fn rejected_or_replayed(outcome: Result<(usize, u64), StreamError>) -> Result<(), TestCaseError> {
    match outcome {
        Err(StreamError::SnapshotRejected(_)) => Ok(()),
        Ok((1, 1)) => Ok(()),
        other => Err(TestCaseError::fail(format!("{other:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_records_are_rejected(at in 0.0..1.0f64) {
        let bytes = &real_record().1;
        let cut = (at * bytes.len() as f64) as usize;
        rejected_or_replayed(restore_bytes("truncated", bytes[..cut].to_vec()))?;
    }

    #[test]
    fn bit_flipped_records_are_rejected(at in 0.0..1.0f64, bit in 0u8..8) {
        let mut bytes = real_record().1.clone();
        let pos = (at * bytes.len() as f64) as usize;
        bytes[pos] ^= 1 << bit;
        rejected_or_replayed(restore_bytes("flipped", bytes))?;
    }
}

/// Hand-built forests, sealed with a valid digest so that the forest
/// checks themselves are what must catch them.
#[test]
fn forged_forests_are_rejected() {
    let record = || NameRecord::from_json(std::str::from_utf8(&real_record().1).unwrap()).unwrap();
    let n = record().documents.len();
    let forge = |tag: &str, edit: &dyn Fn(&mut NameRecord)| {
        let mut r = record();
        edit(&mut r);
        let outcome = restore_bytes(tag, r.to_json().into_bytes());
        assert!(
            matches!(outcome, Err(StreamError::SnapshotRejected(_))),
            "{tag}: {outcome:?}"
        );
    };
    let singletons = |r: &mut NameRecord| {
        let forest = &mut r.live.as_mut().unwrap().forest;
        forest.parent = (0..n as u32).collect();
        forest.rank = vec![0; n];
    };
    forge("cycle", &|r| {
        singletons(r);
        let forest = &mut r.live.as_mut().unwrap().forest;
        (forest.parent[0], forest.parent[1]) = (1, 0);
        (forest.rank[0], forest.rank[1]) = (1, 2);
    });
    forge("out_of_range", &|r| {
        singletons(r);
        r.live.as_mut().unwrap().forest.parent[1] = n as u32;
    });
    forge("rank_violation", &|r| {
        singletons(r);
        r.live.as_mut().unwrap().forest.parent[1] = 0;
    });
    forge("length_mismatch", &|r| {
        let forest = &mut r.live.as_mut().unwrap().forest;
        forest.parent.pop();
        forest.rank.pop();
    });
    forge("ranks_short", &|r| {
        r.live.as_mut().unwrap().forest.rank.pop();
    });
    // A valid forest, but not the one the recorded labels describe.
    forge("labels_disagree", &|r| {
        singletons(r);
        assert!(
            r.partition.iter().any(|&l| l != r.partition[0]),
            "the real record has a non-singleton cluster"
        );
    });
    forge("checkpoint_behind", &|r| {
        r.live.as_mut().unwrap().retrain_at = n;
    });
    // The unforged record adopts.
    assert_eq!(
        restore_bytes("genuine", real_record().1.clone()).unwrap(),
        (1, 0)
    );
}

/// A record written under another configuration, or naming a model the
/// running configuration cannot produce, is replayed and verified, not
/// adopted.
#[test]
fn foreign_live_state_is_replayed_not_adopted() {
    let record = || NameRecord::from_json(std::str::from_utf8(&real_record().1).unwrap()).unwrap();
    let mut foreign = record();
    foreign.live.as_mut().unwrap().config_fingerprint = "0000000000000000".into();
    assert_eq!(
        restore_bytes("foreign", foreign.to_json().into_bytes()).unwrap(),
        (1, 1)
    );
    // An unknown function fails the model lookup; the replay then
    // disagrees with the recorded selection and rejects the record.
    let mut unknown = record();
    unknown.function = "F99".into();
    assert!(matches!(
        restore_bytes("unknown_model", unknown.to_json().into_bytes()),
        Err(StreamError::SnapshotRejected(_))
    ));
}
