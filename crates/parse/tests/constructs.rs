//! Hand-built binaries for each challenging construct from the paper's
//! Section 2.1, exercised at the engine level.

use pba_cfg::{CodeRegion, EdgeKind, RetStatus};
use pba_isa::insn::{AluKind, Cond, MemRef};
use pba_isa::reg::Reg;
use pba_isa::x86::encode;
use pba_isa::Arch;
use pba_parse::{parse_parallel, parse_serial, ParseInput};

struct Lab {
    buf: Vec<u8>,
    base: u64,
    seeds: Vec<(u64, String)>,
}

impl Lab {
    fn new(base: u64) -> Lab {
        Lab { buf: Vec::new(), base, seeds: Vec::new() }
    }

    fn here(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn func(&mut self, name: &str) -> u64 {
        let pad = (16 - self.buf.len() % 16) % 16;
        encode::nop_pad(&mut self.buf, pad);
        let at = self.here();
        self.seeds.push((at, name.to_string()));
        at
    }

    fn input(self, data: Vec<(u64, Vec<u8>)>) -> ParseInput {
        ParseInput::from_parts(CodeRegion::new(Arch::X86_64, self.base, self.buf), data, self.seeds)
    }
}

/// Known non-returning name matching: a call to `exit` must never get a
/// fall-through edge, even though `exit`'s body (a jump into unparsed
/// space, here `hlt`) provides no `ret`.
#[test]
fn call_to_exit_suppresses_fallthrough() {
    let mut lab = Lab::new(0x1000);
    // main: call exit ; <garbage that must never be parsed>
    let main = lab.func("main");
    let call = encode::call_rel32(&mut lab.buf);
    let garbage_at = lab.buf.len();
    lab.buf.extend_from_slice(&[0x06, 0x06, 0x06, 0x06]); // undecodable
    let _ = garbage_at;
    // exit:
    let pad = (16 - lab.buf.len() % 16) % 16;
    encode::nop_pad(&mut lab.buf, pad);
    let exit_off = lab.buf.len();
    lab.seeds.push((lab.base + exit_off as u64, "exit".into()));
    encode::hlt(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, call, exit_off);

    let input = lab.input(vec![]);
    let r = parse_serial(&input);
    let mainf = &r.cfg.functions[&main];
    assert_eq!(mainf.blocks.len(), 1, "nothing after the exit call is reachable");
    let no_ft = r.cfg.out_edges(main).iter().all(|e| e.kind != EdgeKind::CallFallthrough);
    assert!(no_ft, "no fall-through past exit: {:?}", r.cfg.out_edges(main));
    let exitf = r.cfg.functions.values().find(|f| f.name == "exit").unwrap();
    assert_eq!(exitf.ret_status, RetStatus::NoReturn);
}

/// Power-style multi-entry functions (paper §2.1): two symbols pointing
/// into overlapping code produce two functions sharing blocks.
#[test]
fn multi_entry_function_shares_blocks() {
    let mut lab = Lab::new(0x2000);
    // global entry: one setup insn, falls into local entry.
    let global = lab.func("f_global");
    encode::mov_ri32(&mut lab.buf, Reg::RAX, 7);
    let local = lab.here();
    lab.seeds.push((local, "f_local".into()));
    encode::alu_ri(&mut lab.buf, AluKind::Add, Reg::RAX, 1);
    encode::ret(&mut lab.buf);

    let input = lab.input(vec![]);
    let r = parse_serial(&input);
    let gf = &r.cfg.functions[&global];
    let lf = &r.cfg.functions[&local];
    assert!(gf.blocks.contains(&local), "global entry covers the shared tail");
    assert!(lf.blocks.contains(&local));
    assert_eq!(gf.ret_status, RetStatus::Returns);
    assert_eq!(lf.ret_status, RetStatus::Returns, "shared ret credits both entries");
    // The shared block exists exactly once.
    assert_eq!(r.cfg.blocks.values().filter(|b| b.start == local).count(), 1);
}

/// Mutually recursive non-returning functions (the paper's cyclic
/// dependency rule): A tail-calls B, B tail-calls A, no ret anywhere —
/// both must close as NoReturn and the caller must get no fall-through.
#[test]
fn noreturn_cycle_closes() {
    let mut lab = Lab::new(0x3000);
    let main = lab.func("main");
    let call = encode::call_rel32(&mut lab.buf);
    encode::ret(&mut lab.buf); // unreachable if A never returns

    let a = lab.func("a");
    let ja = encode::jmp_rel32(&mut lab.buf);
    let b = lab.func("b");
    let jb = encode::jmp_rel32(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, call, (a - lab.base) as usize);
    encode::patch_rel32(&mut lab.buf, ja, (b - lab.base) as usize);
    encode::patch_rel32(&mut lab.buf, jb, (a - lab.base) as usize);

    let input = lab.input(vec![]);
    for threads in [1, 4] {
        let r = parse_parallel(&input, threads);
        assert_eq!(r.cfg.functions[&a].ret_status, RetStatus::NoReturn);
        assert_eq!(r.cfg.functions[&b].ret_status, RetStatus::NoReturn);
        assert_eq!(r.cfg.functions[&main].ret_status, RetStatus::NoReturn);
        let main_has_ft = r.cfg.functions[&main]
            .blocks
            .iter()
            .flat_map(|blk| r.cfg.out_edges(*blk))
            .any(|e| e.kind == EdgeKind::CallFallthrough);
        assert!(!main_has_ft, "cycle must suppress the fall-through");
    }
}

/// A conditional error path: the function returns on the main path and
/// calls a non-returning function on the error path — the paper's
/// `error(nonzero)` shape, restricted to the analyzable case.
#[test]
fn conditional_error_path() {
    let mut lab = Lab::new(0x4000);
    let main = lab.func("main");
    encode::cmp_ri(&mut lab.buf, Reg::RDI, 0);
    let jerr = encode::jcc_rel32(&mut lab.buf, Cond::E);
    encode::ret(&mut lab.buf);
    let err_block = lab.buf.len();
    let call = encode::call_rel32(&mut lab.buf);
    // die:
    let die = lab.func("die");
    encode::hlt(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, jerr, err_block);
    encode::patch_rel32(&mut lab.buf, call, (die - lab.base) as usize);

    let input = lab.input(vec![]);
    let r = parse_serial(&input);
    assert_eq!(r.cfg.functions[&main].ret_status, RetStatus::Returns);
    assert_eq!(r.cfg.functions[&die].ret_status, RetStatus::NoReturn);
    // The error block has a Call edge but no fall-through.
    let err_start = lab_err_start(&r, main);
    let kinds: Vec<EdgeKind> = r.cfg.out_edges(err_start).iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EdgeKind::Call));
    assert!(!kinds.contains(&EdgeKind::CallFallthrough));
}

fn lab_err_start(r: &pba_parse::ParseResult, main: u64) -> u64 {
    // The error block is the CondTaken successor of the entry block.
    r.cfg
        .out_edges(main)
        .iter()
        .find(|e| e.kind == EdgeKind::CondTaken)
        .map(|e| e.dst)
        .expect("error path edge")
}

/// Functions sharing an error block via conditional branches from both
/// (the paper's glibc/ICC example): the block must belong to both
/// functions' boundaries.
#[test]
fn two_functions_share_error_block() {
    let mut lab = Lab::new(0x5000);
    // f1: cmp; je shared ; ret        shared: add; ret
    let f1 = lab.func("f1");
    encode::cmp_ri(&mut lab.buf, Reg::RDI, 1);
    let j1 = encode::jcc_rel32(&mut lab.buf, Cond::E);
    encode::ret(&mut lab.buf);
    let shared = lab.buf.len();
    encode::alu_ri(&mut lab.buf, AluKind::Add, Reg::RAX, 1);
    encode::ret(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, j1, shared);
    // f2: cmp; je shared ; ret
    let f2 = lab.func("f2");
    encode::cmp_ri(&mut lab.buf, Reg::RDI, 2);
    let j2 = encode::jcc_rel32(&mut lab.buf, Cond::E);
    encode::ret(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, j2, shared);

    let shared_addr = lab.base + shared as u64;
    let input = lab.input(vec![]);
    for threads in [1, 2, 8] {
        let r = parse_parallel(&input, threads);
        let f1f = &r.cfg.functions[&f1];
        let f2f = &r.cfg.functions[&f2];
        assert!(f1f.blocks.contains(&shared_addr), "f1 owns the shared block");
        assert!(f2f.blocks.contains(&shared_addr), "f2 owns the shared block");
        assert_eq!(
            r.cfg.blocks.values().filter(|b| b.start == shared_addr).count(),
            1,
            "Invariant 1: one block instance"
        );
        assert_eq!(f1f.ret_status, RetStatus::Returns);
        assert_eq!(f2f.ret_status, RetStatus::Returns);
    }
}

/// A hostile jump table: `cmp rdi, 4; ja; jmp [rdi*8 - 8]; ret` puts the
/// table at `u64::MAX - 7`, so the second entry's address wraps. The
/// scan must end at the overflow instead of panicking, and the jump gets
/// no table targets.
#[test]
fn jump_table_at_the_top_of_the_address_space() {
    let mut lab = Lab::new(0x6000);
    let f = lab.func("f");
    encode::cmp_ri(&mut lab.buf, Reg::RDI, 4);
    let ja = encode::jcc_rel32(&mut lab.buf, Cond::A);
    let jmp_at = lab.here();
    let mem = MemRef { base: None, index: Some(Reg::RDI), scale: 8, disp: -8, rip_based: false };
    encode::jmp_ind_mem(&mut lab.buf, &mem);
    let ret = lab.buf.len();
    encode::ret(&mut lab.buf);
    encode::patch_rel32(&mut lab.buf, ja, ret);
    assert_eq!(lab.buf.len(), 18);

    let input = lab.input(vec![(0x8000, vec![0; 64])]);
    for threads in [1, 2] {
        let r = parse_parallel(&input, threads);
        assert!(r.cfg.functions[&f].blocks.contains(&jmp_at), "the dispatch block is parsed");
        let table_targets =
            r.cfg.out_edges(jmp_at).iter().filter(|e| e.kind == EdgeKind::Indirect).count();
        assert_eq!(table_targets, 0, "{threads} threads: {:?}", r.cfg.out_edges(jmp_at));
    }
}
