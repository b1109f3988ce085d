//! Inputs: paper-shaped pages from `weber_corpus::generate`, the name
//! profile of each workload, and the op streams built from them.
//!
//! Everything here is a pure function of the seed and the frozen
//! constants in `workloads.rs`: the same seed renders a byte-identical
//! request stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use serde::Value;
use weber_corpus::{generate, presets, CorpusConfig, Dataset, GeneratedDocument};
use weber_extract::gazetteer::Gazetteer;

/// One ambiguous name of a workload: its pages in arrival order, their
/// ground truth, and how many of them form the labelled seed batch.
#[derive(Debug, Clone)]
pub struct NameInput {
    /// The name as sent on the wire (unique per workload).
    pub name: String,
    /// Pages in arrival order; the first `seed_len` are the seed batch.
    pub docs: Vec<GeneratedDocument>,
    /// Ground-truth persona of every page.
    pub truth: Vec<u32>,
    /// Size of the labelled seed batch.
    pub seed_len: usize,
}

/// The generated pages of a workload plus the dictionary the servers and
/// the in-process replay extract with.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// One entry per name, in generation order.
    pub names: Vec<NameInput>,
    /// The world's gazetteer (`weber serve --dataset` reads it).
    pub gazetteer: Gazetteer,
}

/// Block length of the `rank`-th hottest name (1-based): a Zipf law over
/// names, `max(floor, head / rank^0.8)` — a few hot names near `head`
/// pages and a long tail at the paper's 60–150.
pub fn zipf_length(rank: usize, head: usize, floor: usize) -> usize {
    let l = (head as f64 / (rank as f64).powf(0.8)).round() as usize;
    l.max(floor)
}

/// Block lengths of `names` names that repeat a Zipf profile of
/// `profile` ranks: scaling a workload adds whole profiles, never
/// shorter blocks (block length sets the cost shape).
pub fn zipf_lengths(names: usize, profile: usize, head: usize, floor: usize) -> Vec<usize> {
    (0..names)
        .map(|i| zipf_length(i % profile + 1, head, floor))
        .collect()
}

/// `surname` with letter `i` upper-cased where bit `i` of `mask` is set.
fn cased(surname: &str, mask: u32) -> String {
    surname
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i < 32 && mask >> i & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// The wire name of the `index`-th block. The generator cycles through 30
/// surnames; the daemon keys names by exact string while the similarity
/// functions compare the query name case-insensitively, so the second and
/// third use of a surname go out capitalised and upper-cased: every block
/// is its own name on the wire and still carries its true query name.
pub fn wire_name(surname: &str, index: usize) -> String {
    let pool = weber_corpus::vocab::SURNAMES.len();
    match index / pool {
        0 => cased(surname, 0),
        1 => cased(surname, 1),
        2 => cased(surname, u32::MAX),
        _ => panic!("at most {} names per workload", 3 * pool),
    }
}

/// The name a probe pass sends instead of `surname`: a letter-case
/// pattern [`wire_name`] never produces (the second letter, the first
/// two, the third, ...), one per pass, so the same pages can be streamed
/// several times to one tier as distinct names. Needs three letters.
pub fn probe_name(surname: &str, pass: usize) -> String {
    assert!(
        surname.len() >= 3 && pass < 5,
        "probe names need three letters and at most five passes"
    );
    cased(surname, 2 + pass as u32)
}

/// Generate the pages of a workload: `lengths.len()` names of the
/// `www05_like` page shape, name `k` cut to its first `lengths[k]` pages
/// (the generator shuffles personas over a block and mirrors only earlier
/// pages, so a prefix is a block in its own right). `seed_len(len)` gives
/// the labelled batch of a block.
pub fn corpus(seed: u64, lengths: &[usize], seed_len: impl Fn(usize) -> usize) -> Corpus {
    let longest = lengths.iter().copied().max().unwrap_or(0);
    let dataset: Dataset = generate(&CorpusConfig {
        names: lengths.len(),
        docs_per_name: longest,
        ..presets::www05_like(seed)
    });
    let names = dataset
        .blocks
        .into_iter()
        .zip(lengths)
        .enumerate()
        .map(|(index, (mut block, &len))| {
            block.documents.truncate(len);
            block.truth_labels.truncate(len);
            NameInput {
                name: wire_name(&block.query_name, index),
                docs: block.documents,
                truth: block.truth_labels,
                seed_len: seed_len(len).clamp(1, len),
            }
        })
        .collect();
    Corpus {
        names,
        gazetteer: dataset.gazetteer,
    }
}

/// The `--dataset` file of a server: a dataset with no blocks, only the
/// gazetteer (which is all `weber serve` reads from it).
pub fn gazetteer_file(corpus: &Corpus, seed: u64) -> String {
    Dataset {
        label: "benchmark-gazetteer".into(),
        seed,
        blocks: Vec::new(),
        gazetteer: corpus.gazetteer.clone(),
    }
    .to_json()
    .expect("a gazetteer serialises")
}

/// The request classes of the wire workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Train a name on its labelled seed batch.
    Seed,
    /// Post one page and wait for its cluster assignment.
    Ingest,
    /// Read one name's clusters back.
    Resolve,
    /// Materialise one name's canonical entity table.
    Entities,
}

impl OpKind {
    /// The protocol's `op` string.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Seed => "seed",
            OpKind::Ingest => "ingest",
            OpKind::Resolve => "resolve",
            OpKind::Entities => "entities",
        }
    }
}

/// One request: its class, the name it addresses and, for an ingest, the
/// page (index into the name's `docs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Request class.
    pub kind: OpKind,
    /// Index into the corpus' names.
    pub name: usize,
    /// Page index for `Ingest`; unused otherwise.
    pub doc: usize,
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn url_value(doc: &GeneratedDocument) -> Option<(&'static str, Value)> {
    doc.url.as_ref().map(|u| ("url", Value::String(u.clone())))
}

/// Render one op as its NDJSON request line (no trailing newline).
pub fn render(op: &Op, names: &[NameInput]) -> String {
    let input = &names[op.name];
    let name = ("name", Value::String(input.name.clone()));
    let mut fields = vec![("op", Value::String(op.kind.label().into())), name];
    match op.kind {
        OpKind::Seed => {
            let docs = input.docs[..input.seed_len]
                .iter()
                .zip(&input.truth)
                .map(|(doc, &label)| {
                    let mut d = vec![("text", Value::String(doc.text.clone()))];
                    d.extend(url_value(doc));
                    d.push(("label", Value::Number(label as f64)));
                    object(d)
                })
                .collect();
            fields.push(("docs", Value::Array(docs)));
        }
        OpKind::Ingest => {
            let doc = &input.docs[op.doc];
            fields.push(("text", Value::String(doc.text.clone())));
            fields.extend(url_value(doc));
        }
        OpKind::Resolve | OpKind::Entities => {}
    }
    serde_json::to_string(&object(fields)).expect("a request serialises")
}

/// Render a whole stream, one line per op.
pub fn render_all(ops: &[Op], names: &[NameInput]) -> Vec<String> {
    ops.iter().map(|op| render(op, names)).collect()
}

/// One `seed` per name, in the given name order.
pub fn seed_ops(order: &[usize]) -> Vec<Op> {
    read_ops(order, OpKind::Seed, order.len())
}

/// Ingest pages `from(name)..to(name)` of every name round-robin across
/// names: one page of each name per round (names take their turns in
/// `order`), in page order within a name.
pub fn round_robin_ingests(
    names: &[NameInput],
    order: &[usize],
    from: impl Fn(&NameInput) -> usize,
    to: impl Fn(&NameInput) -> usize,
) -> Vec<Op> {
    let spans: Vec<(usize, usize)> = names
        .iter()
        .map(|n| (from(n), to(n).min(n.docs.len())))
        .collect();
    let rounds = spans
        .iter()
        .map(|&(a, b)| b.saturating_sub(a))
        .max()
        .unwrap_or(0);
    let mut ops = Vec::new();
    for round in 0..rounds {
        for &name in order {
            let (a, b) = spans[name];
            if a + round < b {
                ops.push(Op {
                    kind: OpKind::Ingest,
                    name,
                    doc: a + round,
                });
            }
        }
    }
    ops
}

/// `count` ops of `kind`, cycling over the names in the given order.
pub fn read_ops(order: &[usize], kind: OpKind, count: usize) -> Vec<Op> {
    (0..count)
        .map(|i| Op {
            kind,
            name: order[i % order.len()],
            doc: 0,
        })
        .collect()
}

/// `serve_grow`'s reads of its grown blocks: `resolves` and `entities`
/// reads spread evenly through one stream (so both classes see the same
/// stretch of time), each class cycling over the names in `order`.
pub fn read_back(order: &[usize], resolves: usize, entities: usize) -> Vec<Op> {
    let total = resolves + entities;
    let (mut r, mut e) = (
        read_ops(order, OpKind::Resolve, resolves).into_iter(),
        read_ops(order, OpKind::Entities, entities).into_iter(),
    );
    (0..total)
        .filter_map(|i| {
            // Entities ops fall where the running share i·entities/total steps up.
            if (i + 1) * entities / total > i * entities / total {
                e.next()
            } else {
                r.next()
            }
        })
        .collect()
}

/// The measured stream of the steady workloads: every name ingests its
/// pages `from..` (round-robin, page order) mixed 60 : 30 : 10 with
/// `resolve` and `entities` reads of seeded-random names. The class
/// schedule is a seeded shuffle of exact counts, so every run has the
/// same number of samples per class.
pub fn mixed_stream(names: &[NameInput], order: &[usize], from: usize, seed: u64) -> Vec<Op> {
    let mut ingests = round_robin_ingests(names, order, |_| from, |n| n.docs.len()).into_iter();
    let resolves = ingests.len() / 2;
    let entities = ingests.len() / 6;
    let mut classes: Vec<OpKind> = std::iter::repeat_n(OpKind::Ingest, ingests.len())
        .chain(std::iter::repeat_n(OpKind::Resolve, resolves))
        .chain(std::iter::repeat_n(OpKind::Entities, entities))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7865);
    classes.shuffle(&mut rng);
    classes
        .into_iter()
        .map(|kind| match kind {
            OpKind::Ingest => ingests.next().expect("one slot per ingest"),
            _ => Op {
                kind,
                name: rng.random_range(0..names.len()),
                doc: 0,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Corpus {
        corpus(seed, &[24, 16, 12], |len| len / 4)
    }

    const ORDER: [usize; 3] = [2, 0, 1];

    #[test]
    fn zipf_lengths_follow_the_law() {
        // L_k = max(60, 800 / k^0.8).
        assert_eq!(zipf_length(1, 800, 60), 800);
        assert_eq!(zipf_length(2, 800, 60), 459);
        assert_eq!(zipf_length(4, 800, 60), 264);
        assert_eq!(zipf_length(64, 800, 60), 60);
        let lengths = zipf_lengths(64, 64, 800, 60);
        assert!(lengths.windows(2).all(|w| w[0] >= w[1]), "{lengths:?}");
        assert!(lengths.iter().all(|&l| (60..=800).contains(&l)));
        // Repeating the profile repeats the lengths, it does not shrink them.
        let twice = zipf_lengths(8, 4, 800, 60);
        assert_eq!(twice[..4], twice[4..]);
    }

    #[test]
    fn wire_names_are_unique_and_keep_the_query_name() {
        let surnames = weber_corpus::vocab::SURNAMES;
        let names: std::collections::HashSet<String> = (0..3 * surnames.len())
            .map(|i| wire_name(surnames[i % surnames.len()], i))
            .collect();
        assert_eq!(names.len(), 3 * surnames.len());
        assert_eq!(wire_name("cohen", 1), "cohen");
        assert_eq!(wire_name("cohen", 31), "Cohen");
        assert_eq!(wire_name("cohen", 61), "COHEN");
        // Probe passes use patterns no block name has, one per pass.
        let passes: std::collections::HashSet<String> =
            (0..5).map(|p| probe_name("lee", p)).collect();
        assert_eq!(passes.len(), 5);
        assert!(passes
            .iter()
            .all(|p| !names.contains(p) && p.eq_ignore_ascii_case("lee")));
    }

    #[test]
    fn same_seed_renders_a_byte_identical_stream() {
        let (a, b) = (small(7), small(7));
        let stream = |c: &Corpus| {
            let mut ops = seed_ops(&ORDER);
            ops.extend(mixed_stream(&c.names, &ORDER, 4, 7));
            render_all(&ops, &c.names).join("\n")
        };
        assert_eq!(stream(&a), stream(&b));
    }

    #[test]
    fn another_seed_renders_a_different_stream() {
        let (a, b) = (small(7), small(8));
        let lines =
            |c: &Corpus, seed| render_all(&mixed_stream(&c.names, &ORDER, 4, seed), &c.names);
        assert_ne!(lines(&a, 7), lines(&b, 8));
        // On one corpus the class schedule alone depends on the seed too.
        let kinds = |seed| -> Vec<OpKind> {
            mixed_stream(&a.names, &ORDER, 4, seed)
                .iter()
                .map(|o| o.kind)
                .collect()
        };
        assert_ne!(kinds(7), kinds(8));
    }

    #[test]
    fn every_name_is_ingested_in_page_order() {
        let c = small(3);
        for ops in [
            round_robin_ingests(&c.names, &ORDER, |n| n.seed_len, |n| n.docs.len()),
            mixed_stream(&c.names, &ORDER, 5, 3),
        ] {
            for name in 0..c.names.len() {
                let pages: Vec<usize> = ops
                    .iter()
                    .filter(|o| o.kind == OpKind::Ingest && o.name == name)
                    .map(|o| o.doc)
                    .collect();
                assert!(pages.windows(2).all(|w| w[1] == w[0] + 1), "{pages:?}");
                assert_eq!(pages.last(), Some(&(c.names[name].docs.len() - 1)));
            }
        }
    }

    #[test]
    fn read_back_spreads_both_classes_evenly() {
        let ops = read_back(&ORDER, 8, 2);
        let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind).collect();
        use OpKind::{Entities as E, Resolve as R};
        assert_eq!(kinds, vec![R, R, R, R, E, R, R, R, R, E]);
        // Each class cycles over the names in order.
        let resolves: Vec<usize> = ops.iter().filter(|o| o.kind == R).map(|o| o.name).collect();
        assert_eq!(resolves, vec![2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn mixed_stream_has_exact_class_counts() {
        let c = small(5);
        let ops = mixed_stream(&c.names, &ORDER, 4, 5);
        let count = |k| ops.iter().filter(|o| o.kind == k).count();
        let ingests = (24 - 4) + (16 - 4) + (12 - 4);
        assert_eq!(count(OpKind::Ingest), ingests);
        assert_eq!(count(OpKind::Resolve), ingests / 2);
        assert_eq!(count(OpKind::Entities), ingests / 6);
    }

    #[test]
    fn seed_batch_is_the_labelled_head_of_the_block() {
        let c = small(9);
        let ops = seed_ops(&ORDER);
        assert_eq!(ops.iter().map(|o| o.name).collect::<Vec<_>>(), ORDER);
        let first = &c.names[ORDER[0]];
        let v = serde_json::parse_value(&render(&ops[0], &c.names)).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some(first.name.as_str()));
        let docs = v.get("docs").unwrap().as_array().unwrap();
        assert_eq!(docs.len(), first.seed_len);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(
                d.get("label").unwrap().as_u64(),
                Some(first.truth[i] as u64)
            );
            assert_eq!(
                d.get("text").unwrap().as_str(),
                Some(first.docs[i].text.as_str())
            );
        }
    }
}
