//! Cross-crate integration tests: the full pipeline from generated
//! binary through parallel parsing to both applications, plus the
//! paper's headline determinism property at system level.

use pba::gen::{generate, GenConfig, Profile};
use pba::parse::{parse_parallel, parse_serial, ParseInput};
use pba::{Session, SessionConfig};

fn elf_input(bytes: &[u8]) -> ParseInput {
    let elf = pba::elf::Elf::parse(bytes.to_vec()).unwrap();
    ParseInput::from_elf(&elf).unwrap()
}

#[test]
fn full_pipeline_on_every_profile() {
    for (i, p) in [Profile::Coreutils, Profile::Server].iter().enumerate() {
        let mut cfg = p.config(500 + i as u64);
        cfg.num_funcs = cfg.num_funcs.min(60);
        let g = generate(&cfg);

        // Parse.
        let input = elf_input(&g.elf);
        let r = parse_parallel(&input, 4);
        assert!(!r.cfg.functions.is_empty(), "{}: no functions", p.name());

        // Structure recovery.
        let config = SessionConfig::default().with_threads(2).with_name(p.name());
        let session = Session::open(g.elf.as_slice(), config);
        let hs = session.structure().unwrap();
        assert_eq!(
            hs.structure.functions.len(),
            r.cfg.functions.len(),
            "{}: hpcstruct and parse disagree on function count",
            p.name()
        );

        // Feature extraction.
        let feats = session.features().unwrap();
        assert!(!feats.index.is_empty(), "{}: no features", p.name());
    }
}

#[test]
fn determinism_across_the_whole_system() {
    let g = generate(&GenConfig {
        num_funcs: 48,
        seed: 4242,
        pct_switch: 0.3,
        pct_shared: 0.2,
        pct_noreturn: 0.1,
        pct_cold: 0.15,
        ..Default::default()
    });
    let input = elf_input(&g.elf);
    let reference = parse_serial(&input).cfg.canonical();
    for threads in [2, 3, 8] {
        assert_eq!(
            parse_parallel(&input, threads).cfg.canonical(),
            reference,
            "{threads} threads diverged"
        );
    }
    // Applications inherit the determinism.
    let a = Session::open(g.elf.as_slice(), SessionConfig::default().with_threads(1));
    let b = Session::open(g.elf.as_slice(), SessionConfig::default().with_threads(8));
    assert_eq!(a.structure().unwrap().structure, b.structure().unwrap().structure);
    assert_eq!(a.features().unwrap().index, b.features().unwrap().index);
}

#[test]
fn reparse_of_rewritten_elf_is_stable() {
    // Round-trip: generated ELF → parse → rebuild a minimal ELF with the
    // same text → parse again → same code structure.
    let g =
        generate(&GenConfig { num_funcs: 20, seed: 31, debug_info: false, ..Default::default() });
    let elf = pba::elf::Elf::parse(g.elf.clone()).unwrap();
    let input = ParseInput::from_elf(&elf).unwrap();
    let first = parse_serial(&input);

    let text = elf.section_data(".text").unwrap().to_vec();
    let rodata = elf.section_data(".rodata").unwrap().to_vec();
    let mut b = pba::elf::ElfBuilder::new(pba::elf::types::EM_X86_64);
    b.entry(elf.entry);
    b.add_section(
        ".text",
        pba::elf::SecType::ProgBits,
        pba::elf::SecFlags::ALLOC.with(pba::elf::SecFlags::EXEC),
        elf.section(".text").unwrap().addr,
        16,
        text,
    );
    b.add_section(
        ".rodata",
        pba::elf::SecType::ProgBits,
        pba::elf::SecFlags::ALLOC,
        elf.section(".rodata").unwrap().addr,
        8,
        rodata,
    );
    for s in &elf.symbols {
        b.add_symbol(&s.name, s.value, s.size, s.bind, s.sym_type, ".text");
    }
    let rebuilt = b.build().unwrap();

    let elf2 = pba::elf::Elf::parse(rebuilt).unwrap();
    let input2 = ParseInput::from_elf(&elf2).unwrap();
    let second = parse_serial(&input2);
    assert_eq!(first.cfg.canonical(), second.cfg.canonical());
}

#[test]
fn stripped_binary_parses_from_entry_point() {
    // Remove all symbols: the parser must still discover code from the
    // entry point through calls (Section 9, "stripped binaries").
    let g =
        generate(&GenConfig { num_funcs: 20, seed: 77, debug_info: false, ..Default::default() });
    let elf = pba::elf::Elf::parse(g.elf.clone()).unwrap();
    let text = elf.section_data(".text").unwrap().to_vec();
    let rodata = elf.section_data(".rodata").unwrap().to_vec();
    let mut b = pba::elf::ElfBuilder::new(pba::elf::types::EM_X86_64);
    b.entry(elf.entry);
    b.add_section(
        ".text",
        pba::elf::SecType::ProgBits,
        pba::elf::SecFlags::ALLOC.with(pba::elf::SecFlags::EXEC),
        elf.section(".text").unwrap().addr,
        16,
        text,
    );
    b.add_section(
        ".rodata",
        pba::elf::SecType::ProgBits,
        pba::elf::SecFlags::ALLOC,
        elf.section(".rodata").unwrap().addr,
        8,
        rodata,
    );
    let stripped = b.build().unwrap();

    let elf2 = pba::elf::Elf::parse(stripped).unwrap();
    let input = ParseInput::from_elf(&elf2).unwrap();
    assert_eq!(input.seeds.len(), 1, "only the entry point remains");
    let r = parse_serial(&input);
    // The paper is explicit that stripped binaries need orthogonal
    // function-identification research (Section 9): control-flow
    // traversal from the entry point alone discovers only the
    // transitively reachable part, and unresolved constructs (deferred
    // jump tables, waiting call sites) cut discovery chains. Assert the
    // honest property: discovery happens and every discovered function
    // is real.
    let discovered: Vec<u64> = r.cfg.functions.keys().copied().collect();
    assert!(discovered.len() >= 2, "entry-point traversal found {discovered:x?}");
    for entry in discovered {
        assert!(
            g.truth.functions.iter().any(|f| f.entry == entry),
            "discovered function {entry:#x} is not a real entry"
        );
    }
    assert!(r.cfg.blocks.len() > 20, "a substantial subgraph was recovered");
}

#[test]
fn algebra_reference_agrees_with_engine_on_synthetic_code() {
    // The abstract operation algebra (pba-cfg) and the real engine
    // (pba-parse) must agree on block boundaries for code both
    // understand. Build a small rv-lite program for both.
    use pba::cfg::ops::{construct_reference, SynCf, SynInsn, SyntheticCode};
    use pba::isa::reg::Reg;
    use pba::isa::rvlite::{encode as renc, ILEN};

    // movi; cmpi; bcc +2insn; addi; ret  (diamond-ish)
    let mut code = vec![];
    renc::movi(&mut code, Reg(1), 3); // 0
    renc::cmpi(&mut code, Reg(1), 5); // 8
    let b = renc::bcc(&mut code, pba::isa::insn::Cond::Ge); // 16
    renc::addi(&mut code, Reg(1), 1); // 24
    let target = code.len() + ILEN; // 40 (the ret below)
    renc::nop(&mut code); // 32
    renc::ret(&mut code); // 40
    renc::patch_rel32(&mut code, b, target);

    // Engine parse.
    let region = pba::cfg::CodeRegion::new(pba::isa::Arch::RvLite, 0, code.clone());
    let input = ParseInput::from_parts(region, vec![], vec![(0, "f".into())]);
    let engine = parse_serial(&input);

    // Algebra reference on the equivalent synthetic stream.
    let insns = vec![
        SynInsn { start: 0, end: 8, cf: SynCf::None },
        SynInsn { start: 8, end: 16, cf: SynCf::None },
        SynInsn { start: 16, end: 24, cf: SynCf::Cond(40) },
        SynInsn { start: 24, end: 32, cf: SynCf::None },
        SynInsn { start: 32, end: 40, cf: SynCf::None },
        SynInsn { start: 40, end: 48, cf: SynCf::Ret },
    ];
    let abs = construct_reference(&SyntheticCode::new(insns), &[0]);

    let engine_blocks: Vec<(u64, u64)> =
        engine.cfg.blocks.values().map(|b| (b.start, b.end)).collect();
    let algebra_blocks: Vec<(u64, u64)> = abs.blocks.iter().map(|(&s, &e)| (s, e)).collect();
    assert_eq!(engine_blocks, algebra_blocks);
}
