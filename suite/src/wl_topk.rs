//! `topk_query`: `CorpusIndex::query_topk(k = 5)` for every member of an index of
//! tiny clone-family binaries built during set-up.
//!
//! The read side of `binfeat::index` (sign -> probe -> cosine re-rank) with
//! nothing else running. Each query is a corpus member with its own entry
//! excluded, so a correct answer must contain one of its clone siblings. The
//! index holds six hundred entries, not the five thousand the issue asked for:
//! an entry costs 3 ms to generate and analyse, and set-up runs three times in
//! a run that has some twenty-five seconds in all.
//!
//! One op is one lap over all entries, not one query. The queries cost from 45
//! to 260 us each; the box runs at one of two speeds for seconds at a time, and
//! the median of single queries slid between the two with the share of each in
//! a run (16 % spread over ten runs). Every lap is the same work, so its median
//! stays with the speed the box has most of the time; and six hundred queries
//! cost nearly the same whatever variants the seed drew, where sixty did not.

use crate::inputs::{stream, BASE};
use crate::trace::Trace;
use crate::workload::{Workload, THREADS};
use pba_binfeat::{rank_topk, CorpusIndex, FeatureIndex, IndexConfig, TopkResult};
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

const FAMILY: usize = 10;
const FAMILIES: usize = 60;
const K: usize = 5;

struct Query {
    /// Dense id of the query's own entry (ingest order).
    id: usize,
    hash: u64,
    /// Hashes of the exact cosine top-K without the query itself, for one query
    /// per family (brute force costs 2 ms a query); empty for the others.
    exact: Vec<u64>,
}

pub struct TopkQuery {
    index: CorpusIndex,
    /// `content_hash -> family` of every entry.
    family_of: HashMap<u64, usize>,
    queries: Vec<Query>,
    found: AtomicU64,
    expected: AtomicU64,
}

/// The exact top-K of `query_id` by brute-force cosine, the query itself removed.
fn brute_force(index: &CorpusIndex, query_id: usize) -> Vec<u64> {
    let corpus = index.features();
    rank_topk(&corpus[query_id], corpus, K + 1)
        .into_iter()
        .filter(|&(i, _)| i != query_id)
        .take(K)
        .map(|(i, _)| index.hash_at(i))
        .collect()
}

impl TopkQuery {
    /// The `k`-th query of a client's lap: the second reader starts half a lap
    /// ahead of the first.
    fn query(&self, client: usize, k: usize) -> &Query {
        let n = self.queries.len();
        &self.queries[(k + client * n / 2) % n]
    }

    fn answer(&self, q: &Query) -> TopkResult {
        self.index.query_topk(self.features(q), K, Some(q.hash))
    }

    fn check_one(&self, q: &Query, out: &TopkResult) -> Result<(), String> {
        let family = self.family_of[&q.hash];
        if !out.hits.iter().any(|h| self.family_of.get(&h.hash) == Some(&family)) {
            return Err(format!("no clone sibling of {:#x} among its hits", q.hash));
        }
        if out.hits.iter().any(|h| h.hash == q.hash) {
            return Err("the excluded query came back as a hit".into());
        }
        let found = q.exact.iter().filter(|e| out.hits.iter().any(|h| h.hash == **e)).count();
        self.found.fetch_add(found as u64, Ordering::Relaxed);
        self.expected.fetch_add(q.exact.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn features(&self, q: &Query) -> &FeatureIndex {
        &self.index.features()[q.id]
    }
}

impl Workload for TopkQuery {
    type Out = Vec<TopkResult>;
    const TAIL_PCT: u32 = 75;
    const EXACT_OPS: u64 = 1;
    const USES_SESSION: bool = false;

    /// Two readers, one per core, as two connections of the daemon would read
    /// the index. Their medians are taken apart and averaged, which halved the
    /// run-to-run spread of one reader's.
    fn clients(&self) -> usize {
        2
    }

    fn setup(seed: u64, quick: bool) -> TopkQuery {
        let mut rng = stream(seed, 3);
        let families = if quick { FAMILIES / 4 } else { FAMILIES };
        let index_config = IndexConfig::default();
        // One short-lived session per binary, one after the other. (`pba topk`
        // extracts on the pool with one-thread sessions; two threads sharing the
        // worker-less one-thread pool can strand a task and hang, which the first
        // version of this set-up did once in some forty runs.)
        let extracted: Vec<(u64, Vec<u64>, FeatureIndex)> = (0..families * FAMILY)
            .map(|i| {
                let fam = i / FAMILY;
                let elf = generate(&GenConfig {
                    seed: BASE + fam as u64,
                    num_funcs: 10 + (fam % 4) * 2,
                    extra_funcs: 1,
                    variant: rng.next(),
                    debug_info: false,
                    ..Default::default()
                })
                .elf;
                let session = Session::open(elf, SessionConfig::default().with_threads(THREADS));
                let hash = session.content_hash();
                session.features().expect("features of a generated binary");
                let feats = session.into_features().expect("built").expect("ok").index;
                (hash, index_config.signature(&feats), feats)
            })
            .collect();
        let mut index = CorpusIndex::new(index_config);
        let mut family_of = HashMap::new();
        for (i, (hash, sig, feats)) in extracted.into_iter().enumerate() {
            assert!(index.insert_signed(hash, sig, feats), "generated binaries are distinct");
            family_of.insert(hash, i / FAMILY);
        }
        let queries = (0..index.len())
            .map(|id| {
                // recall is sampled on one variant per family, round-robin
                let sampled = id % FAMILY == (id / FAMILY) % FAMILY;
                let exact = if sampled { brute_force(&index, id) } else { Vec::new() };
                Query { id, hash: index.hash_at(id), exact }
            })
            .collect();
        let w = TopkQuery {
            index,
            family_of,
            queries,
            found: AtomicU64::new(0),
            expected: AtomicU64::new(0),
        };
        w.op(0, 0).expect("warm-up lap");
        w
    }

    fn op(&self, client: usize, _i: u64) -> Result<Vec<TopkResult>, String> {
        Ok((0..self.queries.len()).map(|k| self.answer(self.query(client, k))).collect())
    }

    fn check(&self, client: usize, _i: u64, out: Vec<TopkResult>) -> Result<(), String> {
        out.iter().enumerate().try_for_each(|(k, o)| self.check_one(self.query(client, k), o))
    }

    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String> {
        let out = t.span("op", |t| {
            self.queries
                .iter()
                .map(|q| t.span("binfeat.query", |_| self.answer(q)))
                .collect::<Vec<_>>()
        });
        // the first lap only: the same samples however long the run is
        if i == 0 {
            for (q, o) in self.queries.iter().zip(&out) {
                t.sample("binfeat.candidates_per_query", o.candidates as f64);
                t.sample("binfeat.feature_keys", self.features(q).len() as f64);
                if q.exact.is_empty() {
                    continue;
                }
                let exact = t.side("binfeat.brute", |_| brute_force(&self.index, q.id));
                if exact != q.exact {
                    return Err(
                        "brute-force top-K changed between set-up and the traced run".into()
                    );
                }
            }
        }
        self.check(0, i, out)
    }

    fn finish(&self, t: Option<&mut Trace>) -> Result<(), String> {
        let expected = self.expected.load(Ordering::Relaxed);
        let recall = self.found.load(Ordering::Relaxed) as f64 / expected.max(1) as f64;
        if let Some(t) = t {
            let n = self.index.len() as f64;
            t.set("binfeat.recall_at_5", recall);
            t.set("binfeat.index_entries", n);
            t.set("binfeat.index_bytes", self.index.heap_bytes() as f64);
            let per_query = t.metrics().get("binfeat.candidates_per_query").copied().unwrap_or(0.0);
            t.set("binfeat.candidate_ratio", per_query / n);
        }
        if expected > 0 && recall < 0.9 {
            return Err(format!("recall@{K} {recall:.3} against exact cosine is below 0.9"));
        }
        Ok(())
    }
}
