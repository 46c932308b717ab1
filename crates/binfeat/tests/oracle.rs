//! The similarity merge and the slot-major signature against the
//! implementations they replaced, kept here as oracles:
//!
//! * cosine and Jaccard that iterate the smaller vector and probe the
//!   larger one's hash map, summing in hash-map order;
//! * a key-major MinHash signature that Fx-mixes one key at a time and
//!   updates every slot's minimum from it.
//!
//! The merge must give the same *bits*, not merely close values: every
//! term is an integer below 2^53, so no summation order rounds (see the
//! `similarity` module docs). The signature must be equal slot for slot
//! for any key set and any slot count, whole lane groups or not.

use pba_binfeat::similarity::{cosine, jaccard, norm};
use pba_binfeat::{FeatureIndex, IndexConfig};
use pba_concurrent::{fx_hash_u64, FxBuildHasher};
use proptest::prelude::*;
use std::collections::HashMap;

type Map = HashMap<u64, u64, FxBuildHasher>;

fn oracle_norm(a: &Map) -> f64 {
    a.values().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
}

fn oracle_cosine(a: &Map, b: &Map) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 =
        small.iter().filter_map(|(k, &va)| large.get(k).map(|&vb| va as f64 * vb as f64)).sum();
    let (na, nb) = (oracle_norm(a), oracle_norm(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

fn oracle_jaccard(a: &Map, b: &Map) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let inter = small.keys().filter(|k| large.contains_key(*k)).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key-major signature: slot `j` is the minimum over the Fx-mixed
/// keys of `base * m_j + a_j`, with `(m_j, a_j)` drawn from the index's
/// fixed splitmix64 stream.
fn oracle_signature(config: &IndexConfig, keys: &[u64]) -> Vec<u64> {
    let mut salt = 0x5EED_0FDE_CAFE_1D01u64;
    let hashes: Vec<(u64, u64)> =
        (0..config.slots()).map(|_| (splitmix64(&mut salt) | 1, splitmix64(&mut salt))).collect();
    let mut sig = vec![u64::MAX; hashes.len()];
    for &key in keys {
        let base = fx_hash_u64(key);
        for (slot, &(m, a)) in sig.iter_mut().zip(&hashes) {
            let h = base.wrapping_mul(m).wrapping_add(a);
            if h < *slot {
                *slot = h;
            }
        }
    }
    sig
}

/// One sparse vector: `(key draw, count)` pairs, keys drawn from a pool
/// of `pool` spread-out hashes (so two vectors over one pool overlap),
/// each key once (a later draw replaces an earlier one's count).
fn vector(draws: &[(u64, u64)], pool: u64) -> Map {
    draws.iter().map(|&(i, count)| (fx_hash_u64(i % pool), count)).collect()
}

fn sorted(map: &Map) -> FeatureIndex {
    map.iter().map(|(&k, &v)| (k, v)).collect()
}

/// Up to 2 000 features with counts up to 2^20.
fn draws() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..1 << 32, 1u64..=1 << 20), 0..=2000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn merge_matches_hash_probes_bit_for_bit(
        a in draws(),
        b in draws(),
        pool in 1u64..6000,
    ) {
        let (ma, mb) = (vector(&a, pool), vector(&b, pool));
        let (fa, fb) = (sorted(&ma), sorted(&mb));
        prop_assert_eq!(fa.len(), ma.len());
        prop_assert_eq!(norm(&fa).to_bits(), oracle_norm(&ma).to_bits());
        for (x, y, mx, my) in [(&fa, &fb, &ma, &mb), (&fb, &fa, &mb, &ma), (&fa, &fa, &ma, &ma)] {
            prop_assert_eq!(cosine(x, y).to_bits(), oracle_cosine(mx, my).to_bits());
            prop_assert_eq!(jaccard(x, y).to_bits(), oracle_jaccard(mx, my).to_bits());
        }
    }

    #[test]
    fn slot_major_signature_equals_key_major(
        keys in prop::collection::vec(0u64..u64::MAX, 0..=2000),
        bands in 1usize..=13,
        rows in 1usize..=11,
    ) {
        let config = IndexConfig { bands, rows };
        let feats: FeatureIndex = keys.iter().map(|&k| (k, 1)).collect();
        let unique: Vec<u64> = feats.keys().collect();
        prop_assert_eq!(config.signature(&feats), oracle_signature(&config, &unique));
    }
}

#[test]
fn signature_edge_cases_equal_key_major() {
    let sets: [&[u64]; 4] = [&[], &[7], &[0, u64::MAX], &[1, 2, 3, 4, 5, 6, 7, 8, 9]];
    // Slot counts below, at, between and above whole lane groups.
    for (bands, rows) in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (3, 3), (2, 4), (1, 9), (12, 10)]
    {
        let config = IndexConfig { bands, rows };
        for keys in sets {
            let feats: FeatureIndex = keys.iter().map(|&k| (k, 3)).collect();
            assert_eq!(
                config.signature(&feats),
                oracle_signature(&config, keys),
                "{bands}x{rows} slots over {keys:?}"
            );
        }
    }
    let empty = IndexConfig::default().signature(&FeatureIndex::default());
    assert_eq!(empty.len(), 120);
    assert!(empty.iter().all(|&s| s == u64::MAX), "the empty set signs all-MAX");
}

#[test]
fn disjoint_and_zero_count_vectors_keep_the_oracles_bits() {
    let pairs = |p: &[(u64, u64)]| -> (FeatureIndex, Map) {
        (p.iter().copied().collect(), p.iter().copied().collect())
    };
    let cases = [
        (pairs(&[(1, 2), (5, 1)]), pairs(&[(2, 7), (9, 1)])),
        (pairs(&[(1, 0), (5, 0)]), pairs(&[(1, 3), (5, 0)])),
        (pairs(&[(1, 0)]), pairs(&[(1, 0)])),
        (pairs(&[]), pairs(&[(4, 4)])),
    ];
    for ((fa, ma), (fb, mb)) in &cases {
        assert_eq!(cosine(fa, fb).to_bits(), oracle_cosine(ma, mb).to_bits(), "{fa:?} {fb:?}");
        assert_eq!(jaccard(fa, fb).to_bits(), oracle_jaccard(ma, mb).to_bits(), "{fa:?} {fb:?}");
    }
}

#[test]
fn collecting_pairs_sorts_them_and_adds_repeated_counts() {
    let feats: FeatureIndex = [(9, 1), (3, 2), (9, 4), (1, 0), (3, 1)].into_iter().collect();
    assert_eq!(feats.pairs().collect::<Vec<_>>(), [(1, 0), (3, 3), (9, 5)]);
    assert_eq!(feats.keys().collect::<Vec<_>>(), [1, 3, 9]);
    assert_eq!(feats.counts().sum::<u64>(), 8);
    assert_eq!(feats.into_iter().collect::<Vec<_>>(), [(1, 0), (3, 3), (9, 5)]);
}
