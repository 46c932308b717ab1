//! Golden pin of the jump-table slice.
//!
//! `slice_equiv.rs` only checks that every corpus jump slices; the unit
//! tests pin a handful of hand-built shapes. The digests below pin the
//! whole [`SliceOutcome`] of every indirect jump of generated corpora —
//! every `pba-gen` profile at a twentieth of its size, plus the
//! switch-heavy shape the daemon benchmark serves (140 functions, a
//! switch in every one) — so a change to the slice's cost (cone build,
//! path-state representation, classification) that moves any fact, any
//! fact's position, or the widening flag fails here.
//!
//! A digest is FNV-1a-64 over every `(function entry, jump block)` of
//! [`collect_indirect_jumps`] in its (sorted) order: the pair, the
//! `widened` flag, the fact count, then each fact in order — its form
//! (tag and every field) and its bound. Regenerate (only for an intended
//! output change) with
//! `cargo test -p pba-dataflow --test slice_golden -- --ignored --nocapture print_golden`.
//!
//! No corpus jump fans out past `MAX_PATHS`, so [`WIDENED`] pins the
//! outcome of a hand-built diamond chain that does: the facts left
//! after widening (and their order) depend on the path states' order.

use pba_dataflow::VecView;
use pba_dataflow::{
    collect_indirect_jumps, slice_indirect_jump_with, BinaryIr, ExecutorKind, JumpTableForm,
    SliceOutcome,
};
use pba_gen::{generate, GenConfig, Profile};
use pba_isa::x86::{decode_one, encode};
use pba_isa::{insn::AluKind, insn::Cond, Insn, MemRef, Reg};

const PROFILES: [Profile; 7] = [
    Profile::Llnl1,
    Profile::Llnl2,
    Profile::Camellia,
    Profile::TensorFlow,
    Profile::Coreutils,
    Profile::Server,
    Profile::Skewed,
];
const SEEDS: [u64; 3] = [11, 0x5EED_BA5E, 20_210_227];

/// Name of the switch-heavy daemon shape in [`GOLDEN`].
const SERVE: &str = "serve";

/// `(corpus, seed, digest)`: the seven profiles, then [`SERVE`].
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 24] = [
    ("LLNL1", 0xb, 0x1260e912bd81fcd2), // jumps: 9
    ("LLNL1", 0x5eedba5e, 0x4ac032160c487e00), // jumps: 15
    ("LLNL1", 0x1346233, 0x747d9901c6043908), // jumps: 17
    ("LLNL2", 0xb, 0x61b3b0eeadbde739), // jumps: 28
    ("LLNL2", 0x5eedba5e, 0x589c1c09b8676d72), // jumps: 23
    ("LLNL2", 0x1346233, 0x0fcae16c898bce3e), // jumps: 16
    ("Camellia", 0xb, 0xf1545d25f08dd272), // jumps: 6
    ("Camellia", 0x5eedba5e, 0x741818ee52d9aaf4), // jumps: 9
    ("Camellia", 0x1346233, 0xb46b0aaf3fbdf0d8), // jumps: 3
    ("TensorFlow", 0xb, 0x37d95a63871b740a), // jumps: 28
    ("TensorFlow", 0x5eedba5e, 0x295abe47e4c751cc), // jumps: 20
    ("TensorFlow", 0x1346233, 0x44a14c1147847c57), // jumps: 28
    ("coreutils", 0xb, 0xc072120bf955af76), // jumps: 8
    ("coreutils", 0x5eedba5e, 0x3aade0dfb3018a4b), // jumps: 9
    ("coreutils", 0x1346233, 0xb6f5b53334a8fc14), // jumps: 6
    ("server", 0xb, 0x70d15f26a99dc8c8), // jumps: 3
    ("server", 0x5eedba5e, 0x1fb6e13bfe6feab6), // jumps: 5
    ("server", 0x1346233, 0x462cb61c1e7ef121), // jumps: 9
    ("skewed", 0xb, 0x58567a35d5239dfd), // jumps: 1
    ("skewed", 0x5eedba5e, 0x3e54d86d13cbf492), // jumps: 1
    ("skewed", 0x1346233, 0xe8e66b95b81e7358), // jumps: 1
    ("serve", 0xb, 0x88de36960bdafb8d), // jumps: 132
    ("serve", 0x5eedba5e, 0x322e56715aba652c), // jumps: 132
    ("serve", 0x1346233, 0x79314a482c15abd2), // jumps: 132
];

/// Digest of the [`diamond_chain`] outcome, which widens.
const WIDENED: u64 = 0x400f67fbc0a3d1ba;

/// The profile at a twentieth of its function count (at least 48), no
/// debug info (the parser never reads it), a small giant for `Skewed`.
fn small(profile: Profile, seed: u64) -> GenConfig {
    let mut c = profile.config(seed);
    c.num_funcs = (c.num_funcs / 20).max(48);
    c.huge_diamonds = c.huge_diamonds.min(90);
    c.debug_info = false;
    c
}

/// The daemon benchmark's working-set shape: 140 functions, every one
/// with a switch.
fn serve(seed: u64) -> GenConfig {
    GenConfig { seed, num_funcs: 140, pct_switch: 1.0, debug_info: false, ..Default::default() }
}

/// Every case in [`GOLDEN`] order.
fn cases() -> Vec<(&'static str, u64, GenConfig)> {
    let mut cases = Vec::new();
    for profile in PROFILES {
        for seed in SEEDS {
            cases.push((profile.name(), seed, small(profile, seed)));
        }
    }
    for seed in SEEDS {
        cases.push((SERVE, seed, serve(seed)));
    }
    cases
}

/// The bytes a digest is taken over: tagged sections of little-endian
/// words.
#[derive(Default)]
struct Canon(Vec<u8>);

impl Canon {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn tag(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }
    fn outcome(&mut self, o: &SliceOutcome) {
        self.u64(o.widened as u64);
        self.u64(o.facts.len() as u64);
        for f in &o.facts {
            match f.form {
                None => self.tag("none"),
                Some(JumpTableForm::Absolute { table, scale, index }) => {
                    self.tag("abs");
                    self.u64(table);
                    self.u64(scale as u64);
                    self.u64(index.0 as u64);
                }
                Some(JumpTableForm::Relative { table, base, scale, width, index }) => {
                    self.tag("rel");
                    self.u64(table);
                    self.u64(base);
                    self.u64(scale as u64);
                    self.u64(width as u64);
                    self.u64(index.0 as u64);
                }
            }
            match f.bound {
                None => self.tag("unbounded"),
                Some(b) => {
                    self.tag("bound");
                    self.u64(b);
                }
            }
        }
    }
}

/// `(digest, jumps sliced)` of one corpus.
fn digest(gen: &GenConfig) -> (u64, usize) {
    let elf = pba_elf::Elf::parse(generate(gen).elf).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    let cfg = pba_parse::parse_parallel(&input, 2).cfg;
    let ir = BinaryIr::build(&cfg, 2);
    let jumps = collect_indirect_jumps(&cfg);
    let mut h = Canon::default();
    for &(func, block) in &jumps {
        let view = ir.func(func).expect("IR per function");
        let outcome =
            slice_indirect_jump_with(view, block, ExecutorKind::Serial).expect("indirect jump");
        h.tag("jump");
        h.u64(func);
        h.u64(block);
        h.outcome(&outcome);
    }
    (pba_elf::image::fnv1a_64(&h.0), jumps.len())
}

#[test]
fn slice_digests_match_the_checked_in_constants() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, seed, gen), &(want_name, want_seed, want)) in cases.iter().zip(&GOLDEN) {
        assert_eq!((*name, *seed), (want_name, want_seed), "GOLDEN row order");
        let (got, jumps) = digest(gen);
        assert!(jumps > 0, "{name} seed {seed:#x}: no indirect jump to slice");
        assert_eq!(got, want, "{name} seed {seed:#x}: digest {got:#018x} != golden {want:#018x}");
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run at the commit whose output is to be pinned"]
fn print_golden() {
    for (name, seed, gen) in cases() {
        let (d, jumps) = digest(&gen);
        println!("    ({name:?}, {seed:#x}, {d:#018x}), // jumps: {jumps}");
    }
}

fn decode_seq(bytes: &[u8], base: u64) -> Vec<Insn> {
    let mut out = vec![];
    let mut at = 0usize;
    while at < bytes.len() {
        let i = decode_one(&bytes[at..], base + at as u64).unwrap();
        at += i.len as usize;
        out.push(i);
    }
    out
}

/// A guarded PIC dispatch (`cmp rsi, 7 ; ja` then `lea` / `movsxd` /
/// `add`) whose jump block `0x9000` is reached directly and through a
/// chain of eight diamonds; one arm of each diamond adds a distinct power
/// of two to the jump register, so 2^7 path states meet mid-chain.
fn diamond_chain() -> VecView {
    let mut guard = vec![];
    encode::cmp_ri(&mut guard, Reg::RSI, 7);
    let j = encode::jcc_rel32(&mut guard, Cond::A);
    encode::patch_rel32(&mut guard, j, 0x300);
    let mut t = vec![];
    let lea_site = encode::lea_rip(&mut t, Reg::RCX);
    encode::movsxd(&mut t, Reg::RAX, &MemRef::base_index(Some(Reg::RCX), Reg::RSI, 4, 0));
    encode::alu_rr(&mut t, AluKind::Add, Reg::RAX, Reg::RCX);
    encode::patch_rel32(&mut t, lea_site, 0x100);
    let mut jb = vec![];
    encode::jmp_ind_reg(&mut jb, Reg::RAX);

    let arm_a = |i: u64| 0x3000 + i * 0x100;
    let arm_b = |i: u64| 0x3000 + i * 0x100 + 0x80;
    let mut block_data = vec![
        (0x1000, 0x1000 + guard.len() as u64, decode_seq(&guard, 0x1000)),
        (0x2000, 0x2000 + t.len() as u64, decode_seq(&t, 0x2000)),
        (0x9000, 0x9000 + jb.len() as u64, decode_seq(&jb, 0x9000)),
    ];
    let mut edges = vec![
        (0x1000, 0x2000, pba_cfg::EdgeKind::CondNotTaken),
        (0x1000, 0x7000, pba_cfg::EdgeKind::CondTaken),
        (0x2000, 0x9000, pba_cfg::EdgeKind::Direct),
        (0x2000, arm_a(1), pba_cfg::EdgeKind::CondTaken),
        (0x2000, arm_b(1), pba_cfg::EdgeKind::CondNotTaken),
    ];
    for i in 1..=8u64 {
        let mut a = vec![];
        encode::alu_ri(&mut a, AluKind::Add, Reg::RAX, 0);
        let mut b = vec![];
        encode::alu_ri(&mut b, AluKind::Add, Reg::RAX, 1 << i);
        block_data.push((arm_a(i), arm_a(i) + a.len() as u64, decode_seq(&a, arm_a(i))));
        block_data.push((arm_b(i), arm_b(i) + b.len() as u64, decode_seq(&b, arm_b(i))));
        if i < 8 {
            for src in [arm_a(i), arm_b(i)] {
                edges.push((src, arm_a(i + 1), pba_cfg::EdgeKind::CondTaken));
                edges.push((src, arm_b(i + 1), pba_cfg::EdgeKind::CondNotTaken));
            }
        } else {
            edges.push((arm_a(i), 0x9000, pba_cfg::EdgeKind::Direct));
            edges.push((arm_b(i), 0x9000, pba_cfg::EdgeKind::Direct));
        }
    }
    VecView::new(0x1000, block_data, edges)
}

/// `(digest, fact count)` of the [`diamond_chain`] slice, which must
/// widen.
fn widened_digest() -> (u64, usize) {
    let outcome = slice_indirect_jump_with(&diamond_chain(), 0x9000, ExecutorKind::Serial)
        .expect("indirect jump");
    assert!(outcome.widened, "the fan-out must trip MAX_PATHS widening");
    let mut h = Canon::default();
    h.outcome(&outcome);
    (pba_elf::image::fnv1a_64(&h.0), outcome.facts.len())
}

#[test]
fn widened_slice_matches_the_checked_in_digest() {
    let (got, _) = widened_digest();
    assert_eq!(got, WIDENED, "digest {got:#018x} != golden {WIDENED:#018x}");
}

#[test]
#[ignore = "prints WIDENED; run at the commit whose output is to be pinned"]
fn print_widened() {
    let (d, facts) = widened_digest();
    println!("const WIDENED: u64 = {d:#018x}; // facts: {facts}");
}
