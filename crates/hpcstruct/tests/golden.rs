//! Golden pin of the structure text.
//!
//! The parse, dataflow and slice layers each have golden digests; the
//! structure document had only thread-count equality. The digests below
//! pin the whole `StructFile::to_text()` — every function, loop,
//! statement range, file name and inline scope, byte for byte — on every
//! `pba-gen` profile at a twentieth of its size, and on the TensorFlow-
//! and LLNL2-class images at the size the `struct_large` benchmark
//! workload runs (`pba_gen::corpus::structure`), each at 1 and 2
//! threads. A change to how the structure
//! is built or written that moves one byte fails here.
//!
//! A digest is FNV-1a-64 of the text. Regenerate (only for an intended
//! output change) with
//! `cargo test -p pba-hpcstruct --test golden -- --ignored --nocapture print_golden`.

use pba_dataflow::{BinaryIr, ExecutorKind};
use pba_gen::corpus;
use pba_hpcstruct::{analyze_artifacts, ArtifactTimes, HsConfig, HsOutput};
use pba_parse::{parse_parallel, ParseInput};

/// `(corpus, seed, digest)` in `corpus::structure` order: the seven
/// profiles at a twentieth of their size, then the two
/// `struct_large`-sized images (`large-` prefix).
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 16] = [
    ("LLNL1", 0xb, 0xa6c57c600eb7bed5), // bytes: 239230, stmts: 3128
    ("LLNL1", 0x5eedba5e, 0x6e4a84ee2afb66a4), // bytes: 249253, stmts: 3267
    ("LLNL2", 0xb, 0xf55003f14a6a6896), // bytes: 464091, stmts: 5928
    ("LLNL2", 0x5eedba5e, 0x391e8e14f4d0b88c), // bytes: 480658, stmts: 6180
    ("Camellia", 0xb, 0x9de717be8ada8bc6), // bytes: 123529, stmts: 1581
    ("Camellia", 0x5eedba5e, 0x4f526d34cc593578), // bytes: 124149, stmts: 1580
    ("TensorFlow", 0xb, 0xdc536175e64d14fb), // bytes: 401030, stmts: 4365
    ("TensorFlow", 0x5eedba5e, 0xde4a53270edfeb09), // bytes: 391624, stmts: 4008
    ("coreutils", 0xb, 0xca281b290dbfc9f3), // bytes: 86382, stmts: 1132
    ("coreutils", 0x5eedba5e, 0x7be0b215bafa1e77), // bytes: 90818, stmts: 1196
    ("server", 0xb, 0x9343e6c85cc1ce1e), // bytes: 91966, stmts: 1221
    ("server", 0x5eedba5e, 0x0d2fb3fe04a4c99c), // bytes: 94427, stmts: 1245
    ("skewed", 0xb, 0x9ddfd7ffb3d02dfa), // bytes: 115501, stmts: 1575
    ("skewed", 0x5eedba5e, 0xa2a4d1b9dc05b800), // bytes: 133596, stmts: 1822
    ("large-TensorFlow", 0x5eedba5e, 0x3299082e87b01998), // bytes: 1539282, stmts: 16664
    ("large-LLNL2", 0x5eedba5e, 0x80d7e04f1b280410), // bytes: 1524654, stmts: 19479
];

/// Build the artifacts the way a session does and run the pipeline.
fn structure(bytes: &[u8], threads: usize) -> HsOutput {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let di = pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let parsed = parse_parallel(&input, threads);
    let ir = BinaryIr::build(&parsed.cfg, threads);
    analyze_artifacts(
        &di,
        &parsed.cfg,
        &ir,
        &HsConfig { threads, name: "golden".into() },
        ExecutorKind::Serial,
        ArtifactTimes::default(),
    )
}

/// `(digest, text bytes, statements)` of one corpus at `threads`; the
/// pipeline's own text must equal a fresh `to_text()` of its structure.
fn digest(bytes: &[u8], threads: usize) -> (u64, usize, usize) {
    let out = structure(bytes, threads);
    assert!(out.text == out.structure.to_text(), "HsOutput.text != structure.to_text()");
    (pba_elf::image::fnv1a_64(out.text.as_bytes()), out.text.len(), out.structure.stmt_count())
}

#[test]
fn structure_text_digests_match_the_checked_in_constants() {
    let cases = corpus::structure();
    assert_eq!(cases.len(), GOLDEN.len());
    for (case, &(name, seed, want)) in cases.iter().zip(&GOLDEN) {
        assert_eq!((name, seed), (case.name.as_str(), case.seed()), "GOLDEN row order");
        let bytes = case.elf();
        for threads in [1, 2] {
            let (got, _, _) = digest(&bytes, threads);
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
        let (d, len, stmts) = digest(&case.elf(), 1);
        println!(
            "    ({:?}, {:#x}, {d:#018x}), // bytes: {len}, stmts: {stmts}",
            case.name,
            case.seed()
        );
    }
}
