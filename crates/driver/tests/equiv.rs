//! Equivalence: the session rewiring must not change what the
//! applications produce. The pre-redesign pipelines composed the
//! artifact phases by hand; rebuilding them that way and comparing
//! against a session's `structure()` / `features()` pins
//! byte-identical outputs on the generated corpus.

use pba_binfeat::BinaryFeatures;
use pba_dataflow::ExecutorKind;
use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig, Profile};
use pba_hpcstruct::{analyze_artifacts, ArtifactTimes, HsConfig, HsOutput};
use pba_parse::{parse_parallel, ParseInput};

/// The pre-redesign hpcstruct composition: parse everything by hand,
/// then run the artifact-level phases directly (no session, no memo).
fn legacy_analyze(bytes: &[u8], threads: usize, name: &str) -> HsOutput {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let di = pba_dwarf::decode_parallel(pba_dwarf::decode::DebugSlices::from_elf(&elf)).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let parsed = parse_parallel(&input, threads);
    let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, threads);
    analyze_artifacts(
        &di,
        &parsed.cfg,
        &ir,
        &HsConfig { threads, name: name.into() },
        ExecutorKind::Serial,
        ArtifactTimes::default(),
    )
}

/// The pre-redesign BinFeat composition.
fn legacy_extract(bytes: &[u8], threads: usize) -> BinaryFeatures {
    let elf = pba_elf::Elf::parse(bytes.to_vec()).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let parsed = parse_parallel(&input, threads);
    let ir = pba_dataflow::BinaryIr::build(&parsed.cfg, threads);
    pba_binfeat::extract_cfg_features(&parsed.cfg, &ir, threads, ExecutorKind::Serial)
}

#[test]
fn hpcstruct_via_session_is_byte_identical() {
    for (i, p) in [Profile::Coreutils, Profile::Server].iter().enumerate() {
        let mut cfg = p.config(900 + i as u64);
        cfg.num_funcs = cfg.num_funcs.min(50);
        let g = generate(&cfg);

        let legacy = legacy_analyze(&g.elf, 2, p.name());
        let config = SessionConfig::default().with_threads(2).with_name(p.name());
        let session = Session::open(g.elf.as_slice(), config);
        let out = session.structure().unwrap();
        assert_eq!(out.structure, legacy.structure, "{}: structure diverged", p.name());
        assert_eq!(out.text, legacy.text, "{}: serialized text diverged", p.name());
    }
}

/// A session's feature index over `bytes` at two threads.
fn session_extract(bytes: &[u8]) -> BinaryFeatures {
    let session = Session::open(bytes, SessionConfig::default().with_threads(2));
    session.features().unwrap().clone()
}

#[test]
fn binfeat_via_session_is_byte_identical() {
    for seed in [11u64, 12, 13] {
        let g =
            generate(&GenConfig { num_funcs: 18, seed, debug_info: false, ..Default::default() });
        let legacy = legacy_extract(&g.elf, 2);
        let session = session_extract(&g.elf);
        assert_eq!(session.index, legacy.index, "seed {seed}: feature index diverged");
    }
}

#[test]
fn corpus_via_session_is_byte_identical() {
    for seed in 2000u64..2003 {
        let g =
            generate(&GenConfig { num_funcs: 12, seed, debug_info: false, ..Default::default() });
        let legacy = legacy_extract(&g.elf, 2);
        let session = session_extract(&g.elf);
        assert_eq!(session.index, legacy.index, "seed {seed}: feature index diverged");
    }
}
