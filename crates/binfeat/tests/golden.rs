//! Golden pin of the feature index.
//!
//! The parse, dataflow, slice and structure layers each have golden
//! digests; BinFeat's feature index had none. The digests below pin
//! every `(feature, count)` pair that `extract_cfg_features` produces —
//! instruction n-grams, graphlets, loop depths and nesting, live-register
//! counts — on the structure golden's inputs, the same list by
//! construction (`pba_gen::corpus::structure`): every `pba-gen` profile
//! at a twentieth of its size, and the TensorFlow- and LLNL2-class
//! images at the size the `struct_large` benchmark workload runs, each
//! at 1 and 2 threads. A change to how features are extracted
//! (or to the CFG, IR or loop forests under them) that moves one count
//! fails here.
//!
//! A digest is FNV-1a-64 of the index's pairs sorted by key, each written
//! as two little-endian `u64`s. Regenerate (only for an intended output
//! change) with
//! `cargo test -p pba-binfeat --test golden -- --ignored --nocapture print_golden`.

use pba_binfeat::extract_cfg_features;
use pba_dataflow::{BinaryIr, ExecutorKind};
use pba_gen::corpus;
use pba_parse::{parse_parallel, ParseInput};

/// `(corpus, seed, digest)` in `corpus::structure` order: the seven
/// profiles at a twentieth of their size, then the two
/// `struct_large`-sized images (`large-` prefix).
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 16] = [
    ("LLNL1", 0xb, 0x85e69926125172ca), // keys: 644
    ("LLNL1", 0x5eedba5e, 0xe62f74868aca87e3), // keys: 640
    ("LLNL2", 0xb, 0x31701a77f75689ae), // keys: 682
    ("LLNL2", 0x5eedba5e, 0x01a892bd7599c866), // keys: 678
    ("Camellia", 0xb, 0xc17b7005ab3e53e3), // keys: 603
    ("Camellia", 0x5eedba5e, 0x6a98e2ddfbe87cfd), // keys: 597
    ("TensorFlow", 0xb, 0xc49087b66531c0a5), // keys: 666
    ("TensorFlow", 0x5eedba5e, 0x51cd47e4e5e173ee), // keys: 668
    ("coreutils", 0xb, 0x40ec971896cd6ae9), // keys: 546
    ("coreutils", 0x5eedba5e, 0xe03f765c1df8c6a6), // keys: 546
    ("server", 0xb, 0x903a0f31d474a87f), // keys: 569
    ("server", 0x5eedba5e, 0xefb20065f3e2e833), // keys: 570
    ("skewed", 0xb, 0xf44b5985700a65b1), // keys: 581
    ("skewed", 0x5eedba5e, 0x9230d852c2d7a8fb), // keys: 590
    ("large-TensorFlow", 0x5eedba5e, 0x8bab03619bbbef88), // keys: 744
    ("large-LLNL2", 0x5eedba5e, 0x74a2f7f1457ca531), // keys: 745
];

/// `(digest, distinct features)` of one image's feature index at
/// `threads`, built the way a session builds it.
fn digest(bytes: &[u8], threads: usize) -> (u64, usize) {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let cfg = parse_parallel(&input, threads).cfg;
    let ir = BinaryIr::build(&cfg, threads);
    let index = extract_cfg_features(&cfg, &ir, threads, ExecutorKind::Serial).index;
    let mut pairs: Vec<(u64, u64)> = index.into_iter().collect();
    pairs.sort_unstable();
    let bytes: Vec<u8> = pairs
        .iter()
        .flat_map(|&(k, n)| k.to_le_bytes().into_iter().chain(n.to_le_bytes()))
        .collect();
    (pba_elf::image::fnv1a_64(&bytes), pairs.len())
}

#[test]
fn feature_index_digests_match_the_checked_in_constants() {
    let cases = corpus::structure();
    assert_eq!(cases.len(), GOLDEN.len());
    for (case, &(name, seed, want)) in cases.iter().zip(&GOLDEN) {
        assert_eq!((name, seed), (case.name.as_str(), case.seed()), "GOLDEN row order");
        let bytes = case.elf();
        for threads in [1, 2] {
            let (got, _) = digest(&bytes, threads);
            assert_eq!(
                got, want,
                "{name} seed {seed:#x} at {threads} threads: digest {got:#018x} != golden {want:#018x}"
            );
        }
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run at the commit whose output is to be pinned"]
fn print_golden() {
    for case in corpus::structure() {
        let (d, keys) = digest(&case.elf(), 1);
        println!("    ({:?}, {:#x}, {d:#018x}), // keys: {keys}", case.name, case.seed());
    }
}
