//! Banded-MinHash (LSH) corpus index — sub-linear top-K similarity.
//!
//! [`similarity::rank`](crate::similarity::rank) answers "nearest
//! binaries" by scoring every corpus member: O(N) per query, O(N²) for
//! corpus triage. At the ROADMAP's "millions of binaries" scale that is
//! unusable, so this module trades a little recall for a candidate set
//! that stays small as the corpus grows:
//!
//! 1. **MinHash signature** — each binary's feature *key set* (the
//!    `u64` feature hashes of its [`FeatureIndex`]) is sketched into
//!    `bands × rows` slots; slot `j` holds the minimum of an
//!    independent multiply-shift hash `h_j` over the keys. Two sets
//!    agree on any one slot with probability equal to their Jaccard
//!    similarity. Signing runs slot-major: every key is Fx-mixed once,
//!    then each group of eight slots keeps its eight minima in registers
//!    over all the mixed keys. That kernel is one source compiled twice:
//!    once for the build's baseline x86-64 target, and once inside a
//!    `#[target_feature(enable = "avx512f,avx512dq")]` wrapper, where
//!    a group's eight lanes are one 512-bit multiply (`vpmullq`), add
//!    and unsigned minimum. Each call takes the AVX-512 compile when the
//!    CPU reports AVX-512F and AVX-512DQ (`is_x86_feature_detected!`,
//!    cached by `std`), the baseline compile otherwise; nothing else
//!    selects it, and both give the same bits. On a 2-CPU AVX-512 host,
//!    signing the 600 entries of the suite's `topk_query` index (~368
//!    keys each, 120 slots) took 11–20 ms in the baseline compile and
//!    3.6–4.2 ms in the AVX-512 one (one thread, lap medians of six
//!    alternating runs).
//! 2. **Banding** — the signature is cut into `bands` groups of `rows`
//!    slots; each group hashes into a bucket table. Binaries sharing a
//!    bucket in *any* band become candidates, so a pair with Jaccard
//!    `s` collides with probability `1 − (1 − s^rows)^bands` — a sharp
//!    S-curve that passes near-duplicates and rejects strangers.
//! 3. **Exact re-rank** — only the bucket-collision candidates are
//!    scored with exact cosine, one merge of the query's hash-sorted key
//!    array with the candidate's, counts read beside them
//!    ([`crate::similarity`]); the reported top-K is exact over that
//!    candidate set.
//! 4. **Rescue probe** — taken only when the band probe leaves fewer
//!    than `k` candidates. A query whose *own* keys (say one function
//!    its clone siblings lack) hold the minimum of a slot in every band
//!    matches no band key of anyone, however similar: with families of
//!    ten at Jaccard 0.87–0.91 that happened to one binary in ~96 000
//!    (`suite --workload topk_query --seed 2015376584`: zero candidates
//!    for a query whose nine siblings score ≥ 0.995). The rescue signs
//!    the query again keeping each slot's *second* minimum — what a
//!    neighbour without the offending key would have signed there — and
//!    re-probes every band with one slot at a time replaced by it (the
//!    second minima come from the signing kernel's other instance, the
//!    minimum of each slot above its first, dispatched the same way):
//!    `bands × rows` extra bucket lookups, nothing stored per entry, no
//!    brute-force pass. The candidates it adds are re-ranked like any
//!    other. An ordinary query (≥ `k` band candidates) never takes it.
//!
//! The defaults (12 bands × 10 rows) put the S-curve threshold at
//! `(1/12)^(1/10) ≈ 0.78`: generated clone families (Jaccard ≥ ~0.85)
//! collide with ≥ 93% probability per pair while unrelated binaries
//! (≤ ~0.65) collide under a few percent of the time. The suite's
//! `topk_query` workload measures both ends (`binfeat.recall_at_5`,
//! `binfeat.candidate_ratio`).
//!
//! The index stores each entry's [`FeatureIndex`] — its hash-sorted key
//! array and the counts beside it, 16 bytes a feature — for the re-rank
//! and for the brute-force fallback via
//! [`rank_topk`](crate::similarity::rank_topk), and its Euclidean norm
//! (so a query computes one norm, not two per candidate), keyed by the
//! binary's `content_hash` for idempotent ingestion.
//! [`CorpusIndex::heap_bytes`] reports resident cost so a host (the
//! `pba serve` daemon) can count the index against the same budget as
//! its session cache.

use crate::features::FeatureIndex;
use crate::similarity::{cosine_normed, norm, select_topk};
use pba_concurrent::{fx_hash_u64, FxBuildHasher};
use std::collections::HashMap;

type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Shape of the LSH family: `bands × rows` MinHash slots per signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of bands (bucket tables). More bands → higher recall,
    /// more stranger collisions.
    pub bands: usize,
    /// MinHash slots per band. More rows → sharper rejection of
    /// low-similarity pairs, lower recall near the threshold.
    pub rows: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig { bands: 12, rows: 10 }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `(odd multiplier, addend)` pair of each slot's multiply-shift
/// hash, from a fixed splitmix64 stream.
fn slot_hashes(slots: usize) -> Vec<(u64, u64)> {
    let mut salt = 0x5EED_0FDE_CAFE_1D01u64;
    (0..slots).map(|_| (splitmix64(&mut salt) | 1, splitmix64(&mut salt))).collect()
}

/// Slots whose minima one pass over the keys keeps in registers: one
/// 512-bit vector of `u64`s.
const LANES: usize = 8;

/// Slot `j` of the result is the minimum of `hashes[j]` over the
/// Fx-mixed keys `mixed`; with `ABOVE`, the minimum of those above
/// `floor[j]` (`u64::MAX` where none is).
///
/// Slot-major: each group of [`LANES`] slots takes its minima over all
/// mixed keys in local accumulators, so the inner loop touches no
/// memory but the mixed keys, and its eight lanes are one vector wide:
/// a multiply, an add and a minimum (with `ABOVE`, a compare and a
/// select before the minimum). The slots past the last whole group take
/// theirs one at a time. Always inlined, so it is compiled once for the
/// build's baseline target and once more inside [`slot_minima_avx512`];
/// [`minima`] picks between the two.
#[inline(always)]
fn slot_minima<const ABOVE: bool>(hashes: &[(u64, u64)], mixed: &[u64], floor: &[u64]) -> Vec<u64> {
    let hash = |base: u64, (m, a): (u64, u64), lo: u64| {
        let h = base.wrapping_mul(m).wrapping_add(a);
        if ABOVE && h <= lo {
            u64::MAX
        } else {
            h
        }
    };
    let mut out = Vec::with_capacity(hashes.len());
    let mut groups = hashes.chunks_exact(LANES);
    for group in &mut groups {
        let first = out.len();
        let slot: [(u64, u64); LANES] = std::array::from_fn(|l| group[l]);
        let lo: [u64; LANES] = std::array::from_fn(|l| if ABOVE { floor[first + l] } else { 0 });
        let mut min = [u64::MAX; LANES];
        for &base in mixed {
            for l in 0..LANES {
                min[l] = min[l].min(hash(base, slot[l], lo[l]));
            }
        }
        out.extend_from_slice(&min);
    }
    for &slot in groups.remainder() {
        let lo = if ABOVE { floor[out.len()] } else { 0 };
        out.push(mixed.iter().map(|&base| hash(base, slot, lo)).min().unwrap_or(u64::MAX));
    }
    out
}

/// [`slot_minima`] compiled for AVX-512: each group's eight lanes fill
/// one `zmm` register, and AVX-512DQ's `vpmullq` multiplies them at
/// once.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn slot_minima_avx512<const ABOVE: bool>(
    hashes: &[(u64, u64)],
    mixed: &[u64],
    floor: &[u64],
) -> Vec<u64> {
    slot_minima::<ABOVE>(hashes, mixed, floor)
}

/// [`slot_minima`] through the AVX-512 compile where the CPU reports
/// AVX-512F and AVX-512DQ, the baseline compile otherwise. Both give
/// the same bits.
fn minima<const ABOVE: bool>(hashes: &[(u64, u64)], mixed: &[u64], floor: &[u64]) -> Vec<u64> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        // SAFETY: the CPU reports both features the wrapper enables.
        return unsafe { slot_minima_avx512::<ABOVE>(hashes, mixed, floor) };
    }
    slot_minima::<ABOVE>(hashes, mixed, floor)
}

/// The keys of `feats`, each Fx-mixed once.
fn mixed_keys(feats: &FeatureIndex) -> Vec<u64> {
    feats.keys().map(fx_hash_u64).collect()
}

/// The MinHash signature of `feats`: slot `j` is the minimum of
/// `hashes[j]` over its Fx-mixed keys (`u64::MAX` for no keys).
fn sign(hashes: &[(u64, u64)], feats: &FeatureIndex) -> Vec<u64> {
    minima::<false>(hashes, &mixed_keys(feats), &[])
}

/// Each slot's second minimum: the smallest hash above `sig[j]`
/// (`u64::MAX` for a set of fewer than two keys).
fn second_minima(hashes: &[(u64, u64)], feats: &FeatureIndex, sig: &[u64]) -> Vec<u64> {
    minima::<true>(hashes, &mixed_keys(feats), sig)
}

impl IndexConfig {
    /// Total MinHash slots per signature.
    pub fn slots(&self) -> usize {
        self.bands * self.rows
    }

    /// MinHash signature of a feature key set.
    ///
    /// Slot `j` applies an independent multiply-shift hash (odd
    /// multiplier + additive constant from a splitmix64 stream) to the
    /// Fx-mixed key and keeps the minimum. Signatures are pure
    /// functions of the key set: callers may compute them outside any
    /// lock and fold them in via [`CorpusIndex::insert_signed`].
    pub fn signature(&self, feats: &FeatureIndex) -> Vec<u64> {
        sign(&slot_hashes(self.slots()), feats)
    }

    /// Bucket key for one band of a signature: band tag mixed with the
    /// band's `rows` slots through the Fx chain.
    fn band_key(&self, band: usize, sig: &[u64]) -> u64 {
        let mut key = fx_hash_u64(0xBA4D ^ (band as u64) << 16);
        for &slot in &sig[band * self.rows..(band + 1) * self.rows] {
            key = fx_hash_u64(key ^ slot);
        }
        key
    }
}

/// One nearest-neighbour result from [`CorpusIndex::query_topk`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopkHit {
    /// `content_hash` of the matching corpus binary.
    pub hash: u64,
    /// Exact cosine similarity to the query.
    pub score: f64,
}

/// Result of a top-K query: the hits plus how much exact work the
/// index actually did (the sub-linearity measure the bench asserts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopkResult {
    /// Best matches, score descending (ties: earlier ingest first).
    pub hits: Vec<TopkHit>,
    /// Distinct candidates that were scored with exact cosine — the
    /// bucket-collision set, `≪ len()` for a well-tuned config.
    pub candidates: u64,
}

/// Banded-MinHash index over ingested feature indexes.
///
/// Entries are keyed by `content_hash`: re-ingesting the same bytes is
/// a no-op, so streaming a directory twice leaves one entry per unique
/// binary. Dense internal ids (`u32`, ingest order) keep the bucket
/// postings compact and give deterministic tie-breaks.
#[derive(Debug)]
pub struct CorpusIndex {
    config: IndexConfig,
    /// The config's per-slot hash pairs, built once per index.
    slot_hashes: Vec<(u64, u64)>,
    /// `content_hash` per entry, indexed by dense id.
    hashes: Vec<u64>,
    /// Hash-sorted feature vectors per entry — re-rank + brute-force corpus.
    feats: Vec<FeatureIndex>,
    /// Euclidean norm of each entry's count vector, so a query computes
    /// one norm (its own) instead of two per candidate.
    norms: Vec<f64>,
    /// content_hash → dense id (idempotence + point lookups).
    by_hash: FxHashMap<u64, u32>,
    /// band bucket key → posting list of dense ids.
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Default for CorpusIndex {
    fn default() -> Self {
        CorpusIndex::new(IndexConfig::default())
    }
}

impl CorpusIndex {
    pub fn new(config: IndexConfig) -> Self {
        CorpusIndex {
            config,
            slot_hashes: slot_hashes(config.slots()),
            hashes: Vec::new(),
            feats: Vec::new(),
            norms: Vec::new(),
            by_hash: FxHashMap::default(),
            buckets: FxHashMap::default(),
        }
    }

    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Number of distinct binaries ingested.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    pub fn contains(&self, content_hash: u64) -> bool {
        self.by_hash.contains_key(&content_hash)
    }

    /// All ingested feature indexes in dense-id (ingest) order — the
    /// corpus slice for a brute-force `rank_topk` fallback.
    pub fn features(&self) -> &[FeatureIndex] {
        &self.feats
    }

    /// `content_hash` of the entry with dense id `id`.
    pub fn hash_at(&self, id: usize) -> u64 {
        self.hashes[id]
    }

    /// Ingest one binary's features under its `content_hash`.
    /// Returns `false` (and drops `feats`) if the hash is already
    /// indexed — ingestion is idempotent.
    pub fn insert(&mut self, content_hash: u64, feats: FeatureIndex) -> bool {
        let sig = sign(&self.slot_hashes, &feats);
        self.insert_signed(content_hash, sig, feats)
    }

    /// [`insert`](Self::insert) with a pre-computed signature, so
    /// parallel ingest pipelines can hash outside the index lock. The
    /// signature must come from [`IndexConfig::signature`] under this
    /// index's config.
    pub fn insert_signed(&mut self, content_hash: u64, sig: Vec<u64>, feats: FeatureIndex) -> bool {
        debug_assert_eq!(sig.len(), self.config.slots());
        if self.by_hash.contains_key(&content_hash) {
            return false;
        }
        let id = self.hashes.len() as u32;
        for band in 0..self.config.bands {
            let key = self.config.band_key(band, &sig);
            self.buckets.entry(key).or_default().push(id);
        }
        self.hashes.push(content_hash);
        self.norms.push(norm(&feats));
        self.feats.push(feats);
        self.by_hash.insert(content_hash, id);
        true
    }

    /// The distinct candidate ids for `query`, whose signature is `sig`
    /// (ascending, `exclude` removed), and whether finding them took
    /// the rescue probe.
    fn candidates(
        &self,
        query: &FeatureIndex,
        sig: &[u64],
        k: usize,
        exclude: Option<u64>,
    ) -> (Vec<u32>, bool) {
        let excluded = exclude.and_then(|ex| self.by_hash.get(&ex).copied());
        let settle = |cand: &mut Vec<u32>| {
            cand.sort_unstable();
            cand.dedup();
            cand.retain(|&c| Some(c) != excluded);
        };
        let mut cand: Vec<u32> = Vec::new();
        for band in 0..self.config.bands {
            if let Some(ids) = self.buckets.get(&self.config.band_key(band, sig)) {
                cand.extend_from_slice(ids);
            }
        }
        settle(&mut cand);
        if cand.len() >= k {
            return (cand, false);
        }
        // Rescue probe (module docs): one slot at a time stands in its
        // second minimum, the value a neighbour lacking the key behind
        // the minimum would have signed there.
        let second = second_minima(&self.slot_hashes, query, sig);
        let mut sig = sig.to_vec();
        for band in 0..self.config.bands {
            for slot in band * self.config.rows..(band + 1) * self.config.rows {
                let min = std::mem::replace(&mut sig[slot], second[slot]);
                if let Some(ids) = self.buckets.get(&self.config.band_key(band, &sig)) {
                    cand.extend_from_slice(ids);
                }
                sig[slot] = min;
            }
        }
        settle(&mut cand);
        (cand, true)
    }

    /// Whether a `query_topk` with these arguments takes the rescue probe.
    #[cfg(test)]
    fn takes_rescue(&self, query: &FeatureIndex, k: usize, exclude: Option<u64>) -> bool {
        self.candidates(query, &sign(&self.slot_hashes, query), k, exclude).1
    }

    /// Top-`k` nearest corpus entries to `query` by exact cosine over
    /// the LSH candidate set. `exclude` (typically the query's own
    /// `content_hash`) filters a hash out of the hits; pass `None` for
    /// external queries.
    pub fn query_topk(&self, query: &FeatureIndex, k: usize, exclude: Option<u64>) -> TopkResult {
        self.query_topk_signed(query, &sign(&self.slot_hashes, query), k, exclude)
    }

    /// [`query_topk`](Self::query_topk) with the query's pre-computed
    /// signature, so a shared index can be queried without signing
    /// under its lock. The signature must come from
    /// [`IndexConfig::signature`] under this index's config.
    pub fn query_topk_signed(
        &self,
        query: &FeatureIndex,
        sig: &[u64],
        k: usize,
        exclude: Option<u64>,
    ) -> TopkResult {
        debug_assert_eq!(sig.len(), self.config.slots());
        let (cand, _) = self.candidates(query, sig, k, exclude);
        let candidates = cand.len() as u64;
        let query_norm = norm(query);
        let scored: Vec<(usize, f64)> = cand
            .into_iter()
            .map(|id| {
                let id = id as usize;
                (id, cosine_normed(query, query_norm, &self.feats[id], self.norms[id]))
            })
            .collect();
        let hits = select_topk(scored, k)
            .into_iter()
            .map(|(id, score)| TopkHit { hash: self.hashes[id], score })
            .collect();
        TopkResult { hits, candidates }
    }

    /// Heap footprint, so a daemon can charge the index against its
    /// resident budget. Signatures are not retained. The feature vectors
    /// count exactly, as [`FeatureIndex::heap_bytes`] (each one's key and
    /// count arrays' capacities, 16 bytes a feature), and so do the plain
    /// vectors (the entries' `FeatureIndex` headers among them) and the
    /// bucket posting lists; the two hash tables count one entry plus
    /// one control byte per slot of capacity, which is an estimate.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let feats: usize = self.feats.iter().map(FeatureIndex::heap_bytes).sum();
        let vecs = self.hashes.capacity() * size_of::<u64>()
            + self.feats.capacity() * size_of::<FeatureIndex>()
            + self.norms.capacity() * size_of::<f64>()
            + self.slot_hashes.capacity() * size_of::<(u64, u64)>();
        let by_hash = self.by_hash.capacity() * (size_of::<(u64, u32)>() + 1);
        let buckets: usize = self.buckets.capacity() * (size_of::<(u64, Vec<u32>)>() + 1)
            + self.buckets.values().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>();
        (feats + vecs + by_hash + buckets) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_cfg_features;
    use crate::similarity::rank_topk;
    use pba_dataflow::ExecutorKind;
    use pba_gen::{generate, GenConfig};
    use pba_parse::{parse_parallel, ParseInput};
    use proptest::prelude::*;

    /// The key-major second minima the slot-major kernel replaced: every
    /// key Fx-mixed once, then every slot updated from it.
    fn second_minima_key_major(
        hashes: &[(u64, u64)],
        feats: &FeatureIndex,
        sig: &[u64],
    ) -> Vec<u64> {
        let mut second = vec![u64::MAX; hashes.len()];
        for key in feats.keys() {
            let base = fx_hash_u64(key);
            for ((slot, &min), &(m, a)) in second.iter_mut().zip(sig).zip(hashes) {
                let h = base.wrapping_mul(m).wrapping_add(a);
                if h > min && h < *slot {
                    *slot = h;
                }
            }
        }
        second
    }

    /// The dispatched kernels (the AVX-512 compile on a CPU that reports
    /// AVX-512F and AVX-512DQ) against the baseline compile, and the
    /// second minima against the key-major oracle as well.
    fn kernels_agree(keys: &[u64], config: IndexConfig) -> Result<(), TestCaseError> {
        let hashes = slot_hashes(config.slots());
        let feats: FeatureIndex = keys.iter().map(|&k| (k, 1)).collect();
        let mixed = mixed_keys(&feats);
        let sig = sign(&hashes, &feats);
        prop_assert_eq!(&sig, &slot_minima::<false>(&hashes, &mixed, &[]));
        let second = second_minima(&hashes, &feats, &sig);
        prop_assert_eq!(&second, &slot_minima::<true>(&hashes, &mixed, &sig));
        prop_assert_eq!(&second, &second_minima_key_major(&hashes, &feats, &sig));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dispatched_kernels_equal_the_baseline_compile(
            keys in prop::collection::vec(0u64..u64::MAX, 0..=2000),
            bands in 1usize..=13,
            rows in 1usize..=11,
        ) {
            kernels_agree(&keys, IndexConfig { bands, rows })?;
        }
    }

    #[test]
    fn dispatched_kernels_equal_the_baseline_compile_on_tiny_sets() {
        // Slot counts below, at, between and above whole lane groups;
        // no key and one key, where every second minimum is `u64::MAX`.
        for (bands, rows) in [(1, 1), (1, 7), (2, 4), (1, 9), (13, 11), (12, 10)] {
            for keys in [&[][..], &[7], &[0], &[u64::MAX], &[3, 3]] {
                kernels_agree(keys, IndexConfig { bands, rows }).unwrap();
            }
        }
    }

    fn clone_features(family_seed: u64, variant: u64) -> FeatureIndex {
        let g = generate(&GenConfig {
            seed: family_seed,
            num_funcs: 16,
            extra_funcs: if variant == 0 { 0 } else { 2 },
            variant,
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
    fn signature_is_deterministic_and_set_based() {
        let cfg = IndexConfig::default();
        let f = clone_features(0x51, 1);
        assert_eq!(cfg.signature(&f), cfg.signature(&f));
        // Counts don't matter, only the key set.
        let doubled: FeatureIndex = f.pairs().map(|(k, v)| (k, v * 2)).collect();
        assert_eq!(cfg.signature(&f), cfg.signature(&doubled));
        // Empty set → all-MAX sentinel signature.
        assert!(cfg.signature(&FeatureIndex::default()).iter().all(|&s| s == u64::MAX));
    }

    #[test]
    fn insert_is_idempotent_on_content_hash() {
        let mut idx = CorpusIndex::default();
        let f = clone_features(0x51, 1);
        assert!(idx.insert(0xAB, f.clone()));
        assert!(!idx.insert(0xAB, f.clone()));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(0xAB));
        assert!(!idx.contains(0xCD));
        let before = idx.heap_bytes();
        assert!(!idx.insert(0xAB, f));
        assert_eq!(idx.heap_bytes(), before, "re-ingest must not grow the index");
    }

    #[test]
    fn query_on_empty_index_is_empty() {
        let idx = CorpusIndex::default();
        let r = idx.query_topk(&clone_features(1, 0), 5, None);
        assert!(r.hits.is_empty());
        assert_eq!(r.candidates, 0);
    }

    #[test]
    fn clone_family_found_with_sublinear_candidates() {
        // 8 families × 4 variants: querying one member must surface
        // its siblings without scoring the whole corpus.
        let mut idx = CorpusIndex::default();
        let mut all = Vec::new();
        for fam in 0..8u64 {
            for variant in 1..=4u64 {
                let f = clone_features(0x70AA + fam * 131, variant);
                let hash = fam * 100 + variant;
                assert!(idx.insert(hash, f.clone()));
                all.push((fam, hash, f));
            }
        }
        let n = idx.len() as u64;
        let mut total_cand = 0u64;
        let mut recalled = 0usize;
        let mut expected = 0usize;
        for (fam, hash, f) in &all {
            let r = idx.query_topk(f, 3, Some(*hash));
            total_cand += r.candidates;
            assert!(r.candidates < n, "candidate set must not be the whole corpus");
            let siblings: Vec<u64> =
                all.iter().filter(|(f2, h2, _)| f2 == fam && h2 != hash).map(|e| e.1).collect();
            expected += siblings.len();
            recalled += r.hits.iter().filter(|h| siblings.contains(&h.hash)).count();
        }
        let recall = recalled as f64 / expected as f64;
        assert!(recall >= 0.9, "family recall {recall:.3}");
        assert!(
            total_cand < n * all.len() as u64 / 2,
            "mean candidates {} of n={n}",
            total_cand / all.len() as u64
        );
    }

    /// The `topk_query` set-up shape that failed at seed 2015376584:
    /// a family of ten clones of a 10-function base, one extra
    /// function each.
    const FAMILY_48: [u64; 10] = [
        0x6beaf350c5ad97da,
        0xcab9f29bc82054c9,
        0x6d88589e391e2c94,
        0xc5ee0aa45f44cfe8,
        0x32740e9f7a540507,
        0x4dfb6481a5141938,
        0x74d93f616cf6c836,
        0x55cc489a5ef2d562,
        0xf5321207b13dcbb2,
        0x347a529a640f3c03,
    ];

    fn family_48() -> Vec<FeatureIndex> {
        FAMILY_48
            .iter()
            .map(|&variant| {
                let g = generate(&GenConfig {
                    seed: 0x5EED_BA5E + 48,
                    num_funcs: 10,
                    extra_funcs: 1,
                    debug_info: false,
                    variant,
                    ..Default::default()
                });
                let elf = pba_elf::Elf::parse(g.elf.clone()).unwrap();
                let input = ParseInput::from_elf(&elf).unwrap();
                let parsed = parse_parallel(&input, 1);
                let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, 1);
                extract_cfg_features(&parsed.cfg, &ir, 1, ExecutorKind::Serial).index
            })
            .collect()
    }

    #[test]
    fn rescue_probe_finds_siblings_when_every_band_misses() {
        // Member 8's own extra-function keys hold the minimum of at
        // least one slot in all 12 bands, so no band key matches any of
        // its nine siblings (Jaccard 0.87-0.91, cosine >= 0.995).
        let family = family_48();
        let mut idx = CorpusIndex::default();
        for (i, f) in family.iter().enumerate() {
            assert!(idx.insert(i as u64, f.clone()));
        }
        assert_eq!(family[8].len(), 363, "the recipe's member 8");
        let sig = idx.config.signature(&family[8]);
        let band_hits: usize = (0..idx.config.bands)
            .filter_map(|b| idx.buckets.get(&idx.config.band_key(b, &sig)))
            .map(|ids| ids.iter().filter(|&&id| id != 8).count())
            .sum();
        assert_eq!(band_hits, 0, "the band probe alone must miss (else this pins nothing)");
        for (i, f) in family.iter().enumerate() {
            let r = idx.query_topk(f, 5, Some(i as u64));
            assert!(r.candidates >= 5, "member {i}: {} candidates", r.candidates);
            assert_eq!(r.hits.len(), 5, "member {i}");
            assert!(r.hits.iter().all(|h| h.score >= 0.99), "member {i}: {:?}", r.hits);
        }
    }

    #[test]
    fn query_with_k_band_candidates_takes_no_rescue() {
        // Same index. Every member but 8 gets 8 band candidates
        // (>= k = 5) — the count at the parent commit — and must stop
        // there.
        let family = family_48();
        let mut idx = CorpusIndex::default();
        for (i, f) in family.iter().enumerate() {
            idx.insert(i as u64, f.clone());
        }
        for (i, f) in family.iter().enumerate().filter(|(i, _)| *i != 8) {
            let r = idx.query_topk(f, 5, Some(i as u64));
            assert_eq!(r.candidates, 8, "member {i}: band candidates, unchanged by the rescue");
            assert!(!idx.takes_rescue(f, 5, Some(i as u64)), "member {i}");
        }
        assert!(idx.takes_rescue(&family[8], 5, Some(8)));
    }

    #[test]
    fn a_presigned_query_answers_as_the_query_signs_it() {
        let check = |family: &[FeatureIndex]| {
            let mut idx = CorpusIndex::default();
            for (i, f) in family.iter().enumerate() {
                idx.insert(i as u64, f.clone());
            }
            let cfg = idx.config();
            for (i, q) in family.iter().enumerate() {
                let exclude = Some(i as u64);
                assert_eq!(
                    idx.query_topk_signed(q, &cfg.signature(q), 5, exclude),
                    idx.query_topk(q, 5, exclude),
                    "member {i}"
                );
            }
        };
        // family_48's member 8 reaches the rescue probe
        check(&family_48());
        let clones: Vec<FeatureIndex> = (0..8u64)
            .flat_map(|fam| (1..=4u64).map(move |v| clone_features(0x70AA + fam * 131, v)))
            .collect();
        check(&clones);
    }

    #[test]
    fn cached_norms_score_bit_identically_to_free_standing_cosine() {
        // 8 families x 4 clones: every hit's score must be `==` (not
        // "within epsilon of") what `similarity::cosine` computes from
        // scratch for the same pair.
        let mut idx = CorpusIndex::default();
        let mut all = Vec::new();
        for fam in 0..8u64 {
            for variant in 1..=4u64 {
                let f = clone_features(0x70AA + fam * 131, variant);
                idx.insert(fam * 100 + variant, f.clone());
                all.push(f);
            }
        }
        assert_eq!(idx.len(), 32);
        let mut scored = 0;
        for q in &all {
            for hit in idx.query_topk(q, 32, None).hits {
                let id = idx.by_hash[&hit.hash] as usize;
                assert_eq!(hit.score, crate::similarity::cosine(q, &idx.feats[id]));
                scored += 1;
            }
        }
        assert!(scored >= 32 * 4, "every query scores at least its own family");
    }

    #[test]
    fn query_topk_matches_rank_topk_on_candidates() {
        // With identical members the index's exact re-rank must agree
        // with brute force where the candidate set covers the top-K.
        let mut idx = CorpusIndex::default();
        let f = clone_features(0x99, 1);
        let g = clone_features(0x99, 2);
        idx.insert(1, f.clone());
        idx.insert(2, g.clone());
        idx.insert(3, f.clone());
        let r = idx.query_topk(&f, 2, None);
        let brute = rank_topk(&f, idx.features(), 2);
        assert_eq!(r.hits.len(), 2);
        for (hit, (bi, bs)) in r.hits.iter().zip(&brute) {
            assert_eq!(hit.hash, idx.hash_at(*bi));
            assert!((hit.score - bs).abs() < 1e-12);
        }
        // Exact duplicate of the query scores 1.0 and the earlier
        // ingest (hash 1) wins the tie over hash 3.
        assert_eq!(r.hits[0].hash, 1);
        assert!((r.hits[0].score - 1.0).abs() < 1e-9);
    }
}
