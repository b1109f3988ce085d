//! Corpus-scale LSH candidate generation over MinHash signatures.
//!
//! A candidate *generator* over the whole corpus built on
//! `weber_textindex::MinHasher`: every document's df-filtered term
//! set is MinHash-signed, signatures are cut into bands, documents
//! colliding in any band bucket become bucket candidates, and candidates
//! are verified against the signature-estimated Jaccard before they are
//! emitted.
//!
//! The df filter (shared with token blocking) matters: without it the
//! Zipf head of the background vocabulary inflates every pair's Jaccard
//! and the buckets degenerate.

use std::collections::HashMap;

use weber_textindex::{MinHasher, TermId};

use crate::index::{pack_pair, unpack_pair};
use crate::par_chunks;

/// LSH configuration.
#[derive(Debug, Clone, Copy)]
pub struct LshConfig {
    /// Signature length (number of hash functions). Must be a multiple of
    /// `bands`.
    pub hashes: usize,
    /// Number of bands; rows per band is `hashes / bands`.
    pub bands: usize,
    /// Verification threshold: candidates below this signature-estimated
    /// Jaccard are discarded.
    pub threshold: f64,
    /// MinHash seed.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            hashes: 192,
            bands: 192,
            threshold: 0.05,
            seed: 0x15BAD5EED,
        }
    }
}

/// LSH candidate generation outcome.
#[derive(Debug)]
pub struct LshResult {
    /// Verified candidate pairs, sorted `(i, j)` with `i < j`.
    pub pairs: Vec<(u32, u32)>,
    /// Distinct pairs that collided in at least one band bucket (before
    /// verification) — the honest measure of how much the bands fan out.
    pub bucket_pairs: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Generate candidate pairs by LSH banding over MinHash signatures of the
/// per-document term sets (`doc_terms` as produced by
/// [`crate::index::build_index`] — already df-filtered and deduplicated).
///
/// Signatures are computed on `threads` scoped workers over contiguous
/// chunks; banding and verification are sequential, so the result is
/// deterministic for any thread count. Documents whose filtered term set
/// is empty take no part (their sentinel signatures would otherwise all
/// collide).
pub fn lsh_candidates(doc_terms: &[Vec<u32>], config: &LshConfig, threads: usize) -> LshResult {
    assert!(
        config.bands > 0 && config.hashes.is_multiple_of(config.bands),
        "bands must divide the signature length"
    );
    let hasher = MinHasher::new(config.hashes, 1, config.seed);
    let signatures: Vec<Option<Vec<u64>>> = par_chunks(doc_terms, threads, |terms| {
        if terms.is_empty() {
            return None;
        }
        let ids: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        Some(hasher.signature(&ids))
    });

    let rows = config.hashes / config.bands;
    let mut candidates: std::collections::HashSet<u64> = Default::default();
    for band in 0..config.bands {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (doc, sig) in signatures.iter().enumerate() {
            let Some(sig) = sig else { continue };
            let mut h = 0x100001b3u64 ^ band as u64;
            for &v in &sig[band * rows..(band + 1) * rows] {
                h = mix(h ^ v);
            }
            buckets.entry(h).or_default().push(doc as u32);
        }
        for bucket in buckets.values() {
            for (x, &i) in bucket.iter().enumerate() {
                for &j in &bucket[x + 1..] {
                    candidates.insert(pack_pair(i, j));
                }
            }
        }
    }

    let bucket_pairs = candidates.len() as u64;
    let mut pairs: Vec<(u32, u32)> = candidates
        .into_iter()
        .filter_map(|key| {
            let (i, j) = unpack_pair(key);
            let (Some(a), Some(b)) = (&signatures[i as usize], &signatures[j as usize]) else {
                return None;
            };
            (MinHasher::estimated_jaccard(a, b) >= config.threshold).then_some((i, j))
        })
        .collect();
    pairs.sort_unstable();
    LshResult {
        pairs,
        bucket_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Term sets with two obvious near-duplicate pairs and one loner.
    fn sample_terms() -> Vec<Vec<u32>> {
        let a: Vec<u32> = (0..40).collect();
        let mut a2 = a.clone();
        a2.extend(100..104); // small difference
        let b: Vec<u32> = (200..240).collect();
        let mut b2 = b.clone();
        b2.extend(300..304);
        let loner: Vec<u32> = (500..540).collect();
        vec![a, a2, b, b2, loner]
    }

    #[test]
    fn finds_high_jaccard_pairs_only() {
        let result = lsh_candidates(&sample_terms(), &LshConfig::default(), 1);
        assert_eq!(result.pairs, vec![(0, 1), (2, 3)]);
        assert!(result.bucket_pairs >= 2);
    }

    #[test]
    fn empty_term_sets_never_collide() {
        let terms = vec![vec![], vec![], (0..30).collect(), (0..30).collect()];
        let result = lsh_candidates(&terms, &LshConfig::default(), 1);
        assert_eq!(result.pairs, vec![(2, 3)]);
    }

    #[test]
    fn threshold_one_keeps_only_identical_sets() {
        let config = LshConfig {
            threshold: 1.0,
            ..LshConfig::default()
        };
        let terms = vec![
            (0..30).collect::<Vec<u32>>(),
            (0..30).collect(),
            (0..29).collect(),
        ];
        let result = lsh_candidates(&terms, &config, 1);
        assert_eq!(result.pairs, vec![(0, 1)]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let terms: Vec<Vec<u32>> = (0..60)
            .map(|i| ((i % 12) * 20..(i % 12) * 20 + 25).collect())
            .collect();
        let one = lsh_candidates(&terms, &LshConfig::default(), 1);
        let four = lsh_candidates(&terms, &LshConfig::default(), 4);
        let many = lsh_candidates(&terms, &LshConfig::default(), 13);
        assert_eq!(one.pairs, four.pairs);
        assert_eq!(four.pairs, many.pairs);
        assert_eq!(one.bucket_pairs, four.bucket_pairs);
    }

    #[test]
    #[should_panic(expected = "bands must divide")]
    fn bands_must_divide_hashes() {
        let config = LshConfig {
            hashes: 10,
            bands: 3,
            ..LshConfig::default()
        };
        lsh_candidates(&[vec![1, 2, 3]], &config, 1);
    }
}
