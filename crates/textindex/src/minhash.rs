//! MinHash signatures for near-duplicate detection.
//!
//! Web crawls contain mirrors: the same page syndicated on several hosts
//! (the corpus generator reproduces this). Near-duplicates carry no
//! independent evidence, so a production resolver wants to find them
//! cheaply — MinHash estimates the Jaccard similarity of token-shingle
//! sets in O(signature length). `weber-block`'s LSH bands these
//! signatures to find candidate pairs without comparing all `n²`
//! documents.

use crate::vocab::TermId;

/// A MinHash signature scheme: `k` hash permutations simulated by seeded
/// mixing of a single 64-bit hash.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
    /// Shingle width in tokens.
    shingle: usize,
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser — a strong 64-bit mixer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl MinHasher {
    /// A scheme with `k` hash functions over `shingle`-token shingles.
    /// Panics if `k == 0` or `shingle == 0`.
    pub fn new(k: usize, shingle: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash function");
        assert!(shingle > 0, "shingle width must be positive");
        let seeds = (0..k as u64)
            .map(|i| mix(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1)))
            .collect();
        Self { seeds, shingle }
    }

    /// Signature length.
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Compute the signature of a token sequence. An empty or
    /// shorter-than-shingle document yields the all-`u64::MAX` signature
    /// (matching nothing except other empty documents).
    pub fn signature(&self, tokens: &[TermId]) -> Vec<u64> {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        if tokens.len() < self.shingle {
            return sig;
        }
        for window in tokens.windows(self.shingle) {
            // Hash the shingle once, then derive k values.
            let mut h = 0xcbf29ce484222325u64;
            for t in window {
                h = mix(h ^ u64::from(t.0));
            }
            for (s, seed) in sig.iter_mut().zip(&self.seeds) {
                let v = mix(h ^ seed);
                if v < *s {
                    *s = v;
                }
            }
        }
        sig
    }

    /// Estimated Jaccard similarity of the shingle sets behind two
    /// signatures: the fraction of agreeing components.
    pub fn estimated_jaccard(a: &[u64], b: &[u64]) -> f64 {
        assert_eq!(a.len(), b.len(), "signatures must share a scheme");
        if a.is_empty() {
            return 0.0;
        }
        let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
        agree as f64 / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u32]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId(i)).collect()
    }

    #[test]
    fn identical_documents_have_identical_signatures() {
        let mh = MinHasher::new(64, 3, 7);
        let doc = toks(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let a = mh.signature(&doc);
        let b = mh.signature(&doc);
        assert_eq!(a, b);
        assert_eq!(MinHasher::estimated_jaccard(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_documents_rarely_agree() {
        let mh = MinHasher::new(128, 2, 7);
        let a = mh.signature(&toks(&(0..50).collect::<Vec<_>>()));
        let b = mh.signature(&toks(&(100..150).collect::<Vec<_>>()));
        assert!(MinHasher::estimated_jaccard(&a, &b) < 0.1);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // Two documents sharing half their shingles.
        let mh = MinHasher::new(256, 1, 3);
        let a: Vec<TermId> = toks(&(0..100).collect::<Vec<_>>());
        let b: Vec<TermId> = toks(&(50..150).collect::<Vec<_>>());
        // True Jaccard of 1-shingles: 50 / 150 = 1/3.
        let est = MinHasher::estimated_jaccard(&mh.signature(&a), &mh.signature(&b));
        assert!((est - 1.0 / 3.0).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn short_documents_do_not_spuriously_match() {
        let mh = MinHasher::new(32, 3, 1);
        let tiny = mh.signature(&toks(&[1]));
        let other = mh.signature(&toks(&[2]));
        // Both all-MAX sentinels: they "agree", but that's the defined
        // semantics for sub-shingle docs, so banding would pair them; the
        // caller filters empty docs. Verify the sentinel shape.
        assert!(tiny.iter().all(|&v| v == u64::MAX));
        assert_eq!(MinHasher::estimated_jaccard(&tiny, &other), 1.0);
    }

    #[test]
    #[should_panic(expected = "share a scheme")]
    fn mismatched_signatures_panic() {
        MinHasher::estimated_jaccard(&[1, 2], &[1, 2, 3]);
    }
}
