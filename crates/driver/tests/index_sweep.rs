//! Seed sweep of the corpus index at the benchmark's `topk_query` shape
//! — not tier-1 (`#[ignore]`, ~2 s a seed in release):
//!
//! ```sh
//! cargo test --release -p pba-driver --test index_sweep -- --ignored --nocapture
//! ```
//!
//! 600 entries a seed, 60 clone families of 10 (a 10–16-function base
//! program, one extra function drawn from the seed's variant stream);
//! every entry queried with itself excluded must find a clone sibling
//! among its top 5. Before the rescue probe one seed in ~160 had a
//! query with no LSH candidate at all (2015376584, the first seed
//! below: the suite's own variant stream is reproduced, so it is the
//! same index).

use pba_binfeat::CorpusIndex;
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};

const FAMILY: usize = 10;
const FAMILIES: usize = 60;
const K: usize = 5;

/// SplitMix64, seeded the way the suite seeds its `topk_query` stream.
struct Variants(u64);

impl Variants {
    fn of_seed(seed: u64) -> Variants {
        let mut v = Variants(seed ^ 3u64.wrapping_mul(0xA24B_AED4_963E_E407));
        v.next();
        v
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Build the seed's index; return the queries without a sibling hit.
fn sweep_one(seed: u64) -> Vec<usize> {
    let mut variants = Variants::of_seed(seed);
    let mut index = CorpusIndex::default();
    for i in 0..FAMILIES * FAMILY {
        let fam = i / FAMILY;
        let elf = generate(&GenConfig {
            seed: 0x5EED_BA5E + fam as u64,
            num_funcs: 10 + (fam % 4) * 2,
            extra_funcs: 1,
            variant: variants.next(),
            debug_info: false,
            ..Default::default()
        })
        .elf;
        let session = Session::open(elf, SessionConfig::default().with_threads(1));
        session.features().expect("features of a generated binary");
        let feats = session.into_features().expect("built").expect("ok").index;
        assert!(index.insert(i as u64, feats), "entry {i}");
    }
    (0..index.len())
        .filter(|&id| {
            let r = index.query_topk(&index.features()[id], K, Some(id as u64));
            !r.hits.iter().any(|h| h.hash as usize / FAMILY == id / FAMILY)
        })
        .collect()
}

#[test]
#[ignore = "~2 s a seed in release; run by hand or in CI, not in tier-1"]
fn every_query_finds_a_clone_sibling_over_many_seeds() {
    let mut failed = Vec::new();
    for seed in std::iter::once(2_015_376_584).chain(1000..1159) {
        let missed = sweep_one(seed);
        println!("seed {seed}: {} of 600 queries without a sibling", missed.len());
        if !missed.is_empty() {
            failed.push((seed, missed));
        }
    }
    assert!(failed.is_empty(), "queries without a clone sibling among their hits: {failed:?}");
}
