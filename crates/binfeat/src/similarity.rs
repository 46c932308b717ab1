//! Feature-vector similarity — the paper's Section 9 pointer to binary
//! code similarity applications (vulnerability search, clone detection).
//!
//! Feature indexes from [`crate::features`] are sparse count vectors;
//! cosine similarity over them is the standard scoring these systems use,
//! with Jaccard over the feature *sets* as a cheaper alternative.
//!
//! Each vector holds its hashes sorted in one array and their counts,
//! in the same order, in another, so cosine and Jaccard are one merge
//! over the key arrays: two cursors walk them, the one at the smaller
//! hash steps, and both step on a shared hash, which adds
//! `count_a × count_b` to the dot product and one to the intersection.
//! That is O(|a| + |b|) sequential reads, with no hash probe into either
//! vector. Each step is branch-free: the two counts under the cursors
//! are read every step and their product is added through the mask of
//! a shared hash, so the loads of the count arrays stay off the chain of
//! compare-and-advance that carries a step to the next, and that chain
//! reads 8-byte keys, not 16-byte pairs. The merge runs the hashes below
//! 2^63 and those above as two such chains in lockstep, which the
//! processor overlaps.
//!
//! The result does not depend on the order of the sum. The dot product
//! is summed as an exact `u128` and rounded to `f64` once; the norm sums
//! `count²` in `f64`. While every partial sum stays below 2^53 it is an
//! integer that an `f64` holds exactly, so any summation order, the
//! hash-map order of earlier versions included, gives the same bits.
//! Counts up to 2^20 over 2 000 features (sums below 2^51) are inside
//! that bound.

use crate::features::FeatureIndex;

/// A feature vector's hash-sorted keys and their counts (two slices of
/// one length), or a range of them.
#[derive(Clone, Copy)]
struct Sorted<'a> {
    keys: &'a [u64],
    counts: &'a [u64],
}

impl<'a> Sorted<'a> {
    fn of(f: &'a FeatureIndex) -> Self {
        let (keys, counts) = f.arrays();
        Sorted { keys, counts }
    }

    /// The features below hash 2^63, and the rest.
    fn halves(self) -> (Self, Self) {
        let mid = self.keys.partition_point(|&k| k < 1 << 63);
        let (keys_lo, keys_hi) = self.keys.split_at(mid);
        let (counts_lo, counts_hi) = self.counts.split_at(mid);
        (Sorted { keys: keys_lo, counts: counts_lo }, Sorted { keys: keys_hi, counts: counts_hi })
    }
}

/// One chain of the merge: cursors into two hash-sorted vectors and
/// what their shared hashes have added up to.
struct Merge<'a> {
    a: Sorted<'a>,
    b: Sorted<'a>,
    i: usize,
    j: usize,
    dot: u128,
    shared: usize,
}

impl<'a> Merge<'a> {
    fn new(a: Sorted<'a>, b: Sorted<'a>) -> Self {
        Merge { a, b, i: 0, j: 0, dot: 0, shared: 0 }
    }

    #[inline(always)]
    fn live(&self) -> bool {
        self.i < self.a.keys.len() && self.j < self.b.keys.len()
    }

    #[inline(always)]
    fn step(&mut self) {
        let (ka, kb) = (self.a.keys[self.i], self.b.keys[self.j]);
        let shared = ka == kb;
        let product = self.a.counts[self.i] as u128 * self.b.counts[self.j] as u128;
        self.dot += product & (shared as u128).wrapping_neg();
        self.shared += shared as usize;
        self.i += (ka <= kb) as usize;
        self.j += (kb <= ka) as usize;
    }
}

/// `(dot product, shared hashes)` of two feature vectors: one merge,
/// its two halves of the hash space in lockstep.
fn dot_and_shared(a: &FeatureIndex, b: &FeatureIndex) -> (u128, usize) {
    let ((a_lo, a_hi), (b_lo, b_hi)) = (Sorted::of(a).halves(), Sorted::of(b).halves());
    let (mut lo, mut hi) = (Merge::new(a_lo, b_lo), Merge::new(a_hi, b_hi));
    while lo.live() && hi.live() {
        lo.step();
        hi.step();
    }
    while lo.live() {
        lo.step();
    }
    while hi.live() {
        hi.step();
    }
    (lo.dot + hi.dot, lo.shared + hi.shared)
}

/// Euclidean norm of a feature-count vector.
pub fn norm(a: &FeatureIndex) -> f64 {
    a.counts().map(|v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
}

/// Cosine similarity between two feature-count vectors (0.0 ..= 1.0).
pub fn cosine(a: &FeatureIndex, b: &FeatureIndex) -> f64 {
    cosine_normed(a, norm(a), b, norm(b))
}

/// [`cosine`] with both norms supplied (`na == norm(a)`,
/// `nb == norm(b)`), for callers that score one vector against many.
pub(crate) fn cosine_normed(a: &FeatureIndex, na: f64, b: &FeatureIndex, nb: f64) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (dot, shared) = dot_and_shared(a, b);
    // No shared feature: -0.0, the value of an empty `f64` sum, so the
    // bits equal those of summing the products in any order.
    let dot = if shared == 0 { -0.0 } else { dot as f64 };
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Jaccard similarity of the feature *sets* (presence only).
pub fn jaccard(a: &FeatureIndex, b: &FeatureIndex) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (_, inter) = dot_and_shared(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Rank `corpus` members by cosine similarity to `query`, best first.
/// Returns `(index, score)` pairs.
pub fn rank(query: &FeatureIndex, corpus: &[FeatureIndex]) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> =
        corpus.iter().enumerate().map(|(i, c)| (i, cosine(query, c))).collect();
    scored.sort_by(cmp_hit);
    scored
}

/// Ordering for `(index, score)` pairs: score descending, index ascending
/// on ties, so equal-scoring corpus members rank deterministically.
fn cmp_hit(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
}

/// Keep the best `k` of `scored` (score descending, index ascending on
/// ties) without sorting the rest — `select_nth_unstable` partitions in
/// O(n), then only the retained prefix is sorted.
pub(crate) fn select_topk(mut scored: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, cmp_hit);
        scored.truncate(k);
    }
    scored.sort_by(cmp_hit);
    scored
}

/// Top-`k` corpus members by cosine similarity to `query`, best first.
///
/// Unlike [`rank`] this never sorts the whole corpus: a partial selection
/// partitions the scores in O(n) and only the winning `k` are ordered.
/// Ties break toward the lower corpus index, so results are deterministic.
pub fn rank_topk(query: &FeatureIndex, corpus: &[FeatureIndex], k: usize) -> Vec<(usize, f64)> {
    let scored: Vec<(usize, f64)> =
        corpus.iter().enumerate().map(|(i, c)| (i, cosine(query, c))).collect();
    select_topk(scored, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_cfg_features;
    use pba_dataflow::ExecutorKind;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};

    fn features(seed: u64, funcs: usize) -> FeatureIndex {
        let g = generate(&GenConfig {
            seed,
            num_funcs: funcs,
            debug_info: false,
            ..Default::default()
        });
        let elf = pba_elf::Elf::parse(g.elf.clone()).unwrap();
        let input = ParseInput::from_elf(&elf).unwrap();
        let parsed = parse_parallel(&input, 1);
        let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, 1);
        extract_cfg_features(&parsed.cfg, &ir, 1, ExecutorKind::Serial).index
    }

    #[test]
    fn identical_binaries_score_one() {
        let a = features(1, 16);
        let b = features(1, 16);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-9);
        assert!((jaccard(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn near_clones_beat_strangers() {
        // Same seed, one extra function ≈ a patched binary.
        let base = features(7, 24);
        let clone = features(7, 25);
        let stranger = features(999, 24);
        assert!(
            cosine(&base, &clone) > cosine(&base, &stranger),
            "clone {:.3} vs stranger {:.3}",
            cosine(&base, &clone),
            cosine(&base, &stranger)
        );
        assert!(jaccard(&base, &clone) > jaccard(&base, &stranger));
    }

    #[test]
    fn rank_orders_by_similarity() {
        let query = features(7, 24);
        let corpus = vec![features(999, 24), features(7, 25), features(1234, 24)];
        let ranked = rank(&query, &corpus);
        assert_eq!(ranked[0].0, 1, "the near-clone ranks first: {ranked:?}");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn rank_topk_matches_rank_prefix() {
        let query = features(7, 24);
        let corpus: Vec<FeatureIndex> =
            (0..9u64).map(|s| features(s * 37 + 1, 16 + (s as usize % 3) * 4)).collect();
        let full = rank(&query, &corpus);
        for k in [0, 1, 3, corpus.len(), corpus.len() + 5] {
            let top = rank_topk(&query, &corpus, k);
            assert_eq!(top.len(), k.min(corpus.len()));
            for (t, f) in top.iter().zip(&full) {
                assert_eq!(t.0, f.0, "k={k}: {top:?} vs {full:?}");
                assert!((t.1 - f.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rank_topk_ties_break_by_index() {
        let a = features(3, 12);
        // Two identical corpus members score identically; the lower
        // index must win regardless of their physical order.
        let corpus = vec![a.clone(), a.clone(), FeatureIndex::default()];
        let top = rank_topk(&a, &corpus, 2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 1);
    }

    #[test]
    fn empty_cases() {
        let empty = FeatureIndex::default();
        let a = features(1, 8);
        assert_eq!(cosine(&empty, &a), 0.0);
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert!(jaccard(&empty, &a) == 0.0);
    }
}
