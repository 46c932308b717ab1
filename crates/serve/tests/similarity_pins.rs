//! Bit-level pins of the daemon's similarity arithmetic on a small
//! clone-family fixture: every pair's `similarity` reply (cosine and
//! Jaccard as `f64::to_bits`), the `corpus_topk` reply's hits (hash and
//! score bits) and `candidates` on the LSH and the exact path, and the
//! `features` reply's pairs as they leave the socket.
//!
//! Cosine and Jaccard add integer terms (products of two feature counts)
//! that stay exact in an `f64`, so any summation order gives the same
//! bits; these pins hold that for whichever order the code takes. A
//! change that moves one is an output change, not a refactor.
//!
//! A digest is FNV-1a-64 of the values written as little-endian `u64`s
//! (the features pin digests the frame's own bytes). Regenerate (only
//! for an intended output change) with
//! `cargo test -p pba-serve --test similarity_pins -- --ignored --nocapture print_pins`.

use pba_driver::SessionConfig;
use pba_elf::image::fnv1a_64;
use pba_gen::corpus;
use pba_serve::proto::{read_frame, write_message};
use pba_serve::{
    BinSpec, Request, Response, ServeAddr, ServeConfig, ServeShared, Server, SessionCache,
};
use std::net::TcpStream;

/// Variants `1..=INDEXED` of each family are ingested; the last one is
/// only ever a query, so the top-K pins cover a query outside the index.
const INDEXED: u64 = 3;
const K: u64 = 5;

const SIMILARITY_PIN: u64 = 0x795967de27e09730;
const TOPK_LSH_PIN: u64 = 0xafa1b78fcc5c8f71;
const TOPK_EXACT_PIN: u64 = 0x7ddc74035564e835;
const FEATURES_PIN: u64 = 0xbef0517a7e44cacd;

/// Every member of [`corpus::clone_families`] with its variant,
/// family-major.
fn fixture() -> Vec<(u64, Vec<u8>)> {
    corpus::clone_families().iter().map(|case| (case.config.variant, case.elf())).collect()
}

fn config() -> SessionConfig {
    SessionConfig::default().with_threads(1)
}

fn shared() -> ServeShared {
    ServeShared::new(SessionCache::new(usize::MAX, config()))
}

fn inline(elf: &[u8]) -> BinSpec {
    BinSpec::Bytes(elf.to_vec())
}

fn digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

/// `[cosine bits, jaccard bits]` of every unordered pair, the diagonal
/// included, in fixture order.
fn similarity_words() -> Vec<u64> {
    let s = shared();
    let bins = fixture();
    let mut words = Vec::new();
    for (i, (_, a)) in bins.iter().enumerate() {
        for (_, b) in &bins[i..] {
            match s.handle(Request::Similarity { a: inline(a), b: inline(b) }) {
                Response::Similarity { cosine, jaccard, .. } => {
                    words.extend([cosine.to_bits(), jaccard.to_bits()]);
                }
                other => panic!("not a similarity reply: {other:?}"),
            }
        }
    }
    words
}

/// `(lsh, exact)`: for each member's top-`K` query, `candidates`, then
/// each hit's hash and score bits.
fn topk_words() -> (Vec<u64>, Vec<u64>) {
    let s = shared();
    let bins = fixture();
    for (variant, elf) in &bins {
        if *variant <= INDEXED {
            match s.handle(Request::CorpusIngest { bin: inline(elf) }) {
                Response::CorpusIngest { ingested: true, .. } => {}
                other => panic!("not a fresh ingest: {other:?}"),
            }
        }
    }
    let mut out = (Vec::new(), Vec::new());
    for (_, elf) in &bins {
        for exact in [false, true] {
            let words = if exact { &mut out.1 } else { &mut out.0 };
            match s.handle(Request::CorpusTopk { bin: inline(elf), k: K, exact }) {
                Response::CorpusTopk { candidates, hits, .. } => {
                    words.push(candidates);
                    for h in hits {
                        words.extend([h.hash, h.score.to_bits()]);
                    }
                }
                other => panic!("not a topk reply: {other:?}"),
            }
        }
    }
    out
}

/// Each member's `features` reply frame off the socket, from its
/// `,"features":` field to the frame's end. The `stats` before it hold
/// the session's resident bytes, which are not the pairs.
fn features_bytes() -> Vec<u8> {
    let config = ServeConfig { cap_bytes: usize::MAX, session: config() };
    let handle = Server::bind(&ServeAddr::parse("127.0.0.1:0"), config).unwrap().spawn();
    let mut s = match handle.addr() {
        ServeAddr::Tcp(a) => TcpStream::connect(a.as_str()).unwrap(),
        #[cfg(unix)]
        ServeAddr::Unix(_) => unreachable!("bound to TCP"),
    };
    let mut out = Vec::new();
    for (_, elf) in fixture() {
        // Twice: the miss builds the rendered part, the hit sends it.
        for _ in 0..2 {
            write_message(&mut s, &Request::Features { bin: inline(&elf) }).unwrap();
            let frame = read_frame(&mut s).unwrap().expect("a reply frame");
            let tag = b",\"features\":";
            let at = frame.windows(tag.len()).position(|w| w == tag).expect("a features field");
            out.extend_from_slice(&frame[at..]);
        }
    }
    drop(s);
    handle.stop().unwrap();
    out
}

#[test]
fn similarity_replies_keep_their_bits() {
    let got = digest(&similarity_words());
    assert_eq!(got, SIMILARITY_PIN, "similarity digest {got:#018x}");
}

#[test]
fn topk_replies_keep_their_hits_scores_and_candidates() {
    let (lsh, exact) = topk_words();
    let (lsh, exact) = (digest(&lsh), digest(&exact));
    assert_eq!(lsh, TOPK_LSH_PIN, "LSH top-K digest {lsh:#018x}");
    assert_eq!(exact, TOPK_EXACT_PIN, "exact top-K digest {exact:#018x}");
}

#[test]
fn features_replies_keep_their_bytes() {
    let got = fnv1a_64(&features_bytes());
    assert_eq!(got, FEATURES_PIN, "features digest {got:#018x}");
}

#[test]
#[ignore = "prints the pins; run at the commit whose output is to be pinned"]
fn print_pins() {
    let (lsh, exact) = topk_words();
    println!("const SIMILARITY_PIN: u64 = {:#018x};", digest(&similarity_words()));
    println!("const TOPK_LSH_PIN: u64 = {:#018x};", digest(&lsh));
    println!("const TOPK_EXACT_PIN: u64 = {:#018x};", digest(&exact));
    println!("const FEATURES_PIN: u64 = {:#018x};", fnv1a_64(&features_bytes()));
}
