//! The engine-backed jump-table slice on whole corpora: every indirect
//! jump of a generated corpus (the Skewed profile's giant function
//! included) slices, and a handcrafted CFG actually trips `MAX_PATHS`
//! widening.

use pba_dataflow::view::VecView;
use pba_dataflow::{collect_indirect_jumps, slice_indirect_jump_with, ExecutorKind, FuncIr};
use pba_gen::{generate, Profile};
use pba_isa::x86::encode;
use pba_isa::{insn::AluKind, insn::Cond, Insn, MemRef, Reg};
use pba_parse::{parse_parallel, ParseInput};

/// Parse a generated profile binary into a finalized CFG.
fn corpus_cfg(profile: Profile, seed: u64, num_funcs: usize) -> pba_cfg::Cfg {
    let mut cfg = profile.config(seed);
    cfg.num_funcs = num_funcs;
    let g = generate(&cfg);
    let elf = pba_elf::Elf::parse(g.elf).expect("well-formed ELF");
    let input = ParseInput::from_elf(&elf).expect(".text present");
    parse_parallel(&input, 4).cfg
}

#[test]
fn serial_and_parallel_slices_agree_on_gen_corpus() {
    for (profile, seed, num_funcs) in
        [(Profile::Server, 0x51CE, 160), (Profile::Coreutils, 7, 90), (Profile::Skewed, 0x51CE, 40)]
    {
        let cfg = corpus_cfg(profile, seed, num_funcs);
        let jumps = collect_indirect_jumps(&cfg);
        assert!(!jumps.is_empty(), "{profile:?} corpus must contain indirect jumps");
        for &(func, block) in &jumps {
            let f = &cfg.functions[&func];
            let view = FuncIr::build(&cfg, f);
            slice_indirect_jump_with(&view, block, ExecutorKind::Serial).expect("indirect jump");
        }
    }
}

fn decode_seq(bytes: &[u8], base: u64) -> Vec<Insn> {
    let mut out = vec![];
    let mut at = 0usize;
    while at < bytes.len() {
        let i = pba_isa::x86::decode_one(&bytes[at..], base + at as u64).unwrap();
        at += i.len as usize;
        out.push(i);
    }
    out
}

/// The widening-order case proper: a diamond chain that fans past
/// `MAX_PATHS` (same shape as the in-crate widening test). Widening is
/// the one non-monotone step; this pins that it trips.
#[test]
fn serial_and_parallel_agree_under_widening() {
    let mut guard = vec![];
    encode::cmp_ri(&mut guard, Reg::RSI, 7);
    let j = encode::jcc_rel32(&mut guard, Cond::A);
    encode::patch_rel32(&mut guard, j, 0x300);
    let guard_insns = decode_seq(&guard, 0x1000);
    let guard_end = 0x1000 + guard.len() as u64;

    let mut t = vec![];
    let lea_site = encode::lea_rip(&mut t, Reg::RCX);
    encode::movsxd(&mut t, Reg::RAX, &MemRef::base_index(Some(Reg::RCX), Reg::RSI, 4, 0));
    encode::alu_rr(&mut t, AluKind::Add, Reg::RAX, Reg::RCX);
    encode::patch_rel32(&mut t, lea_site, 0x100);
    let t_insns = decode_seq(&t, 0x2000);
    let t_end = 0x2000 + t.len() as u64;

    let mut jb = vec![];
    encode::jmp_ind_reg(&mut jb, Reg::RAX);
    let jb_insns = decode_seq(&jb, 0x9000);
    let jb_end = 0x9000 + jb.len() as u64;

    let arm_a = |i: u64| 0x3000 + i * 0x100;
    let arm_b = |i: u64| 0x3000 + i * 0x100 + 0x80;

    let mut block_data = vec![
        (0x1000, guard_end, guard_insns),
        (0x2000, t_end, t_insns),
        (0x9000, jb_end, jb_insns),
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
        let a_insns = decode_seq(&a, arm_a(i));
        let b_insns = decode_seq(&b, arm_b(i));
        block_data.push((arm_a(i), arm_a(i) + a.len() as u64, a_insns));
        block_data.push((arm_b(i), arm_b(i) + b.len() as u64, b_insns));
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
    let view = VecView::new(0x1000, block_data, edges);

    let serial =
        slice_indirect_jump_with(&view, 0x9000, ExecutorKind::Serial).expect("indirect jump");
    assert!(serial.widened, "the fan-out must trip MAX_PATHS widening");
}
