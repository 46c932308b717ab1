//! Corpus-index correctness through the daemon's handler: LSH top-K
//! recall against the exact cosine baseline, containment for
//! near-duplicate clone pairs, content-hash idempotence, the
//! streaming-ingest guarantee (the corpus never becomes resident), and
//! one byte budget for the index and the sessions.

use pba_driver::SessionConfig;
use pba_gen::{corpus, generate};
use pba_serve::{BinSpec, Request, Response, ServeShared, SessionCache};

/// A clone-family member ([`corpus::clone_member`]): `variant` 1..=V
/// share a byte-identical base program and differ only in their
/// appended extra functions.
fn clone_elf(family_seed: u64, variant: u64) -> Vec<u8> {
    generate(&corpus::clone_member(family_seed, variant)).elf
}

fn shared() -> ServeShared {
    ServeShared::new(SessionCache::new(usize::MAX, SessionConfig::default().with_threads(1)))
}

fn ingest(shared: &ServeShared, elf: Vec<u8>) -> (bool, u64) {
    match shared.handle(Request::CorpusIngest { bin: BinSpec::Bytes(elf) }) {
        Response::CorpusIngest { ingested, hash, .. } => (ingested, hash),
        other => panic!("not an ingest reply: {other:?}"),
    }
}

fn topk(shared: &ServeShared, elf: Vec<u8>, k: u64, exact: bool) -> (Vec<u64>, u64) {
    match shared.handle(Request::CorpusTopk { bin: BinSpec::Bytes(elf), k, exact }) {
        Response::CorpusTopk { hits, candidates, .. } => {
            (hits.iter().map(|h| h.hash).collect(), candidates)
        }
        other => panic!("not a topk reply: {other:?}"),
    }
}

#[test]
fn lsh_topk_recall_at_least_point_nine_of_exact() {
    let s = shared();
    let mut corpus = Vec::new();
    for fam in 0..6u64 {
        for variant in 1..=4u64 {
            let elf = clone_elf(0xC0DE + fam * 977, variant);
            let (ingested, _) = ingest(&s, elf.clone());
            assert!(ingested);
            corpus.push(elf);
        }
    }
    let n = corpus.len() as u64;
    let (mut recalled, mut expected, mut lsh_cand) = (0usize, 0usize, 0u64);
    for elf in &corpus {
        let (exact_hits, exact_cand) = topk(&s, elf.clone(), 3, true);
        let (lsh_hits, cand) = topk(&s, elf.clone(), 3, false);
        assert_eq!(exact_cand, n, "brute force scores the whole corpus");
        assert!(cand < n, "LSH candidates must be a strict subset ({cand} of {n})");
        lsh_cand += cand;
        expected += exact_hits.len();
        recalled += exact_hits.iter().filter(|h| lsh_hits.contains(h)).count();
    }
    let recall = recalled as f64 / expected as f64;
    assert!(recall >= 0.9, "LSH recall {recall:.3} vs exact top-K");
    assert!(
        lsh_cand < n * corpus.len() as u64 / 2,
        "mean candidates {} must be well under n={n}",
        lsh_cand / corpus.len() as u64
    );
}

#[test]
fn near_duplicate_clone_is_always_found() {
    let s = shared();
    let (_, base_hash) = ingest(&s, clone_elf(0xFA111, 1));
    let (_, clone_hash) = ingest(&s, clone_elf(0xFA111, 2));
    assert_ne!(base_hash, clone_hash, "variants are distinct binaries");
    // Querying one member of the pair must surface both: itself as an
    // exact containment (score 1.0 tops the ranking) and its clone.
    let (hits, _) = topk(&s, clone_elf(0xFA111, 1), 2, false);
    assert_eq!(hits[0], base_hash, "self-match ranks first");
    assert!(hits.contains(&clone_hash), "near-duplicate clone must be a hit: {hits:?}");
}

#[test]
fn ingest_twice_is_idempotent_on_content_hash() {
    let s = shared();
    let elf = clone_elf(0xD0D0, 1);
    let (first, hash_a) = ingest(&s, elf.clone());
    assert!(first);
    // Re-generating from the same config reproduces the same bytes, so
    // the same content hash — the second ingest is a no-op.
    let regenerated = clone_elf(0xD0D0, 1);
    assert_eq!(elf, regenerated, "gen is deterministic");
    let entries_before = s.serve_stats().index_entries;
    let bytes_before = s.serve_stats().index_bytes;
    let (second, hash_b) = ingest(&s, regenerated);
    assert!(!second, "same content_hash must not re-ingest");
    assert_eq!(hash_a, hash_b);
    let stats = s.serve_stats();
    assert_eq!(stats.index_entries, entries_before);
    assert_eq!(stats.index_bytes, bytes_before, "no growth on re-ingest");
    assert_eq!(stats.errors, 0);
}

#[test]
fn ingestion_streams_without_growing_the_session_cache() {
    let s = shared();
    for fam in 0..5u64 {
        ingest(&s, clone_elf(0xBEEF + fam, 1));
    }
    let stats = s.serve_stats();
    assert_eq!(stats.index_entries, 5);
    assert!(stats.index_bytes > 0);
    assert_eq!(
        stats.sessions_resident, 0,
        "ingest sessions are ephemeral — the corpus must never be resident"
    );
    assert_eq!(stats.resident_bytes, 0);
    // A topk query *does* use the session cache (for the query binary
    // only), like any other analysis request.
    topk(&s, clone_elf(0xBEEF, 1), 1, false);
    assert_eq!(s.serve_stats().sessions_resident, 1);
}

#[test]
fn every_request_reserves_the_index_in_the_cap() {
    // Ingest a corpus, then ask for the structure of two other binaries.
    let run = |cap: usize| {
        let s = ServeShared::new(SessionCache::new(cap, SessionConfig::default().with_threads(1)));
        for variant in 1..=3u64 {
            ingest(&s, clone_elf(0x1DE5, variant));
        }
        for fam in 0..2u64 {
            let bin = BinSpec::Bytes(clone_elf(0x57AC + fam, 1));
            assert!(matches!(s.handle(Request::Struct { bin }), Response::Struct { .. }));
        }
        s.serve_stats()
    };
    let free = run(usize::MAX);
    assert_eq!(free.sessions_resident, 2);
    assert!(free.index_bytes > 0);
    // A cap that holds both sessions, but not the index beside them.
    let cap = free.resident_bytes + free.index_bytes - 1;
    let capped = run(cap as usize);
    assert!(
        capped.resident_bytes + capped.index_bytes <= cap || capped.sessions_resident == 1,
        "{} sessions of {} bytes beside a {}-byte index overrun the {cap}-byte cap",
        capped.sessions_resident,
        capped.resident_bytes,
        capped.index_bytes
    );
}
