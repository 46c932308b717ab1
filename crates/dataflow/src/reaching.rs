//! Reaching definitions + def-use chains (register-level).
//!
//! The forward companion to liveness: which definition sites can supply
//! a register's value at each point. Feature extractors and slicing
//! refinements consume the def-use chains; the analysis is a
//! [`ReachingSpec`] solved by the generic engine ([`crate::engine`])
//! over dense bitsets of definition ids. The ids of each register's
//! defs form one contiguous range, so a block's transfer — the classic
//! `(in & !kill) | gen` — is "clear the range of each register the
//! block writes, then set the block's last def of it": the spec is
//! built in linear time, and a visit touches only the words of the
//! registers its block defines, in place, allocating nothing.

use crate::engine::{fixpoint, DataflowSpec, Direction, ExecutorKind, FlowGraph};
use crate::view::CfgView;
use pba_isa::{Reg, RegSet};
use std::collections::{hash_map::Entry, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Register ids a [`RegSet`] can hold (the width of its mask).
const REGS: usize = u32::BITS as usize;

/// A definition site: instruction address + register defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Def {
    /// Address of the defining instruction.
    pub addr: u64,
    /// Register defined.
    pub reg: Reg,
}

/// Dense bitset over definition ids (the engine fact of
/// [`ReachingSpec`]). `Clone::clone_from` reuses the existing word
/// buffer, which is what lets the engine's scratch facts live for a
/// whole fixpoint run.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct BitSet(Vec<u64>);

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet(self.0.clone())
    }

    fn clone_from(&mut self, source: &BitSet) {
        self.0.clone_from(&source.0);
    }
}

impl BitSet {
    fn with_len(n: usize) -> BitSet {
        BitSet(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clear every bit in `range`, a word at a time.
    fn clear_range(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start / 64, (range.end - 1) / 64);
        let head = !0u64 << (range.start % 64);
        let tail = !0u64 >> (63 - (range.end - 1) % 64);
        if first == last {
            self.0[first] &= !(head & tail);
        } else {
            self.0[first] &= !head;
            self.0[first + 1..last].fill(0);
            self.0[last] &= !tail;
        }
    }

    fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            let mut b = bits;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let i = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(w * 64 + i)
                }
            })
        })
    }
}

/// Result of the reaching-definitions analysis for one function, dense
/// over the function's block list with address-keyed accessors.
#[derive(Debug, Default)]
pub struct ReachingDefs {
    /// All definition sites, indexed by id. Ids are grouped by register
    /// (ascending [`Reg`], then in first-seen order over the view's
    /// blocks and instructions), not in address order.
    pub defs: Vec<Def>,
    def_ids: HashMap<Def, usize>,
    blocks: Arc<Vec<u64>>,
    reach_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Definitions reaching the entry of `block`, in id order (grouped
    /// by register, as in [`ReachingDefs::defs`]).
    pub fn reaching_at_entry(&self, block: u64) -> Vec<Def> {
        self.id(block)
            .map(|i| self.reach_in[i].iter_ones().map(|d| self.defs[d]).collect())
            .unwrap_or_default()
    }

    /// Whether `def` reaches the entry of `block` (O(1) point lookup,
    /// no materialization).
    pub fn def_reaches_entry(&self, block: u64, def: Def) -> bool {
        let Some(&id) = self.def_ids.get(&def) else { return false };
        self.id(block).is_some_and(|i| self.reach_in[i].get(id))
    }

    /// Block addresses in the dense order of the fact vector.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Dense index of `block` in the fact vectors: the graph's block
    /// list is address-sorted.
    fn id(&self, block: u64) -> Option<usize> {
        self.blocks.binary_search(&block).ok()
    }

    /// Bytes of heap owned by the definition tables and fact vectors
    /// (the shared block list belongs to the function's graph,
    /// counted with the IR).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.defs.capacity() * size_of::<Def>()
            + self.def_ids.capacity() * (size_of::<(Def, usize)>() + 1)
            + self.reach_in.capacity() * size_of::<BitSet>()
            + self.reach_in.iter().map(|b| b.0.capacity() * size_of::<u64>()).sum::<usize>()
    }
}

/// Reaching definitions as a [`DataflowSpec`]: a forward bit-vector
/// problem whose facts are dense [`BitSet`]s over definition ids,
/// grouped into one id range per register, with each block reduced to
/// the last def of each register it writes.
pub struct ReachingSpec<'v> {
    /// All definition sites, indexed by bit position.
    defs: Vec<Def>,
    /// Reverse index: definition site → bit position.
    def_ids: HashMap<Def, usize>,
    /// The view's block list, ascending: the engine's per-visit lookups
    /// are binary searches in it, not hash probes.
    blocks: &'v [u64],
    /// Per block, for each register it writes, that register's id range
    /// (the kill) and the block's last def of it (the gen): block `i`'s
    /// are `last_defs[offsets[i]..offsets[i + 1]]`.
    last_defs: Vec<(Range<usize>, usize)>,
    offsets: Vec<usize>,
}

impl<'v> ReachingSpec<'v> {
    /// Index every definition site in `view` by register (ascending
    /// [`Reg`], first-seen order within one) and list each block's last
    /// def per register it writes. Instructions are read from the
    /// view's decoded slices — nothing is decoded here.
    pub fn build(view: &'v dyn CfgView) -> ReachingSpec<'v> {
        let blocks = view.blocks();
        let mut by_reg: Vec<Vec<u64>> = vec![Vec::new(); REGS];
        for &b in blocks {
            for i in view.insns(b) {
                for r in i.regs_written().iter() {
                    by_reg[r.0 as usize].push(i.addr);
                }
            }
        }
        // Register `r`'s defs get the ids `reg_start[r]..reg_start[r + 1]`.
        // Sized up front: on a giant function, the copies a growing vector
        // or map leaves behind are holes the fact vectors do not fit.
        let sites = by_reg.iter().map(Vec::len).sum();
        let mut defs: Vec<Def> = Vec::with_capacity(sites);
        let mut def_ids: HashMap<Def, usize> = HashMap::with_capacity(sites);
        let mut reg_start = [0; REGS + 1];
        for (r, addrs) in by_reg.iter().enumerate() {
            for &addr in addrs {
                let d = Def { addr, reg: Reg(r as u8) };
                if let Entry::Vacant(slot) = def_ids.entry(d) {
                    slot.insert(defs.len());
                    defs.push(d);
                }
            }
            reg_start[r + 1] = defs.len();
        }

        // Walking each block backwards, the first def seen of a register
        // is the one that flows out; earlier same-block defs are killed.
        // Each is a distinct def, so there are at most `defs.len()`.
        let mut last_defs = Vec::with_capacity(defs.len());
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        offsets.push(0);
        for &b in blocks {
            let mut seen = RegSet::EMPTY;
            for i in view.insns(b).iter().rev() {
                let last = i.regs_written().minus(seen);
                seen = seen.union(last);
                for r in last.iter() {
                    let kill = reg_start[r.0 as usize]..reg_start[r.0 as usize + 1];
                    last_defs.push((kill, def_ids[&Def { addr: i.addr, reg: r }]));
                }
            }
            offsets.push(last_defs.len());
        }
        ReachingSpec { defs, def_ids, blocks, last_defs, offsets }
    }
}

impl DataflowSpec for ReachingSpec<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self, _block: u64) -> BitSet {
        BitSet::with_len(self.defs.len())
    }

    fn boundary(&self, _block: u64) -> BitSet {
        // Nothing reaches the function entry from outside.
        BitSet::with_len(self.defs.len())
    }

    fn meet(&self, into: &mut BitSet, incoming: &BitSet) {
        into.union_with(incoming);
    }

    fn transfer(&self, block: u64, input: &BitSet) -> BitSet {
        let mut out = BitSet::default();
        self.transfer_into(block, input, &mut out);
        out
    }

    fn transfer_into(&self, block: u64, input: &BitSet, out: &mut BitSet) {
        out.clone_from(input);
        let i = self.blocks.binary_search(&block).expect("spec covers every graph block");
        for (kill, id) in &self.last_defs[self.offsets[i]..self.offsets[i + 1]] {
            out.clear_range(kill.clone());
            out.set(*id);
        }
    }
}

/// Run reaching definitions over one function's [`FlowGraph`] (so
/// whole-binary drivers can share one graph — and its memoized RPO
/// ranks — across all analyses; [`crate::ir::FuncIr::graph`] is that
/// graph). `_exec` is ignored (see [`ExecutorKind`]).
pub fn reaching_defs_on(
    view: &dyn CfgView,
    graph: &FlowGraph,
    _exec: ExecutorKind,
) -> ReachingDefs {
    let spec = ReachingSpec::build(view);
    let (reach_in, _out) = fixpoint(&spec, graph);
    ReachingDefs {
        defs: spec.defs,
        def_ids: spec.def_ids,
        blocks: Arc::clone(&graph.blocks),
        reach_in,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use pba_isa::insn::AluKind;
    use pba_isa::x86::{decode_one, encode};

    fn decode_seq(bytes: &[u8], base: u64) -> Vec<pba_isa::Insn> {
        let mut out = vec![];
        let mut at = 0usize;
        while at < bytes.len() {
            let i = decode_one(&bytes[at..], base + at as u64).unwrap();
            at += i.len as usize;
            out.push(i);
        }
        out
    }

    #[test]
    fn straightline_kills() {
        // b0: mov rax, 1   b1: mov rax, 2   b2: add rbx, rax ; ret
        // (fall-through chain): b1's def kills b0's on the way to b2.
        let mut c0 = vec![];
        encode::mov_ri32(&mut c0, Reg::RAX, 1);
        let mut c1 = vec![];
        encode::mov_ri32(&mut c1, Reg::RAX, 2);
        let mut c2 = vec![];
        encode::alu_rr(&mut c2, AluKind::Add, Reg::RBX, Reg::RAX);
        encode::ret(&mut c2);
        let (b1, b2) = (0x1000 + c0.len() as u64, 0x1000 + (c0.len() + c1.len()) as u64);
        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, b1, decode_seq(&c0, 0x1000)),
                (b1, b2, decode_seq(&c1, b1)),
                (b2, b2 + c2.len() as u64, decode_seq(&c2, b2)),
            ],
            vec![(0x1000, b1, EdgeKind::Fallthrough), (b1, b2, EdgeKind::Fallthrough)],
        );
        let rd = reaching_defs_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let rax: Vec<Def> =
            rd.reaching_at_entry(b2).into_iter().filter(|d| d.reg == Reg::RAX).collect();
        assert_eq!(rax, vec![Def { addr: b1, reg: Reg::RAX }]);
    }

    #[test]
    fn same_block_redef_retracts_earlier_gen() {
        // b0: mov rax, 1 ; mov rax, 2 ; jmp b1     b1: ret
        //
        // Only the *last* def of rax may reach b1: the earlier def is
        // killed within the block and its gen bit must be retracted too
        // (the historical quirk let both flow out).
        let mut c0 = vec![];
        encode::mov_ri32(&mut c0, Reg::RAX, 1);
        let second_def = c0.len() as u64 + 0x1000;
        encode::mov_ri32(&mut c0, Reg::RAX, 2);
        let j = encode::jmp_rel32(&mut c0);
        encode::patch_rel32(&mut c0, j, 0x1000);
        let mut c1 = vec![];
        encode::ret(&mut c1);

        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, 0x1000 + c0.len() as u64, decode_seq(&c0, 0x1000)),
                (0x2000, 0x2001, decode_seq(&c1, 0x2000)),
            ],
            vec![(0x1000, 0x2000, EdgeKind::Direct)],
        );
        let rd = reaching_defs_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let at_succ: Vec<Def> =
            rd.reaching_at_entry(0x2000).into_iter().filter(|d| d.reg == Reg::RAX).collect();
        assert_eq!(
            at_succ,
            vec![Def { addr: second_def, reg: Reg::RAX }],
            "only the last same-block def reaches the successor"
        );
    }

    #[test]
    fn merge_at_join_keeps_both_defs() {
        // b0: cmp; je b2    b1: mov rax,1; jmp b3   b2: mov rax,2   b3: add rbx, rax; ret
        let mut c0 = vec![];
        encode::cmp_ri(&mut c0, Reg::RDI, 0);
        let j = encode::jcc_rel32(&mut c0, pba_isa::insn::Cond::E);
        encode::patch_rel32(&mut c0, j, 0x100);
        let mut c1 = vec![];
        let d1 = 0x2000u64;
        encode::mov_ri32(&mut c1, Reg::RAX, 1);
        let j = encode::jmp_rel32(&mut c1);
        encode::patch_rel32(&mut c1, j, 0x200);
        let mut c2 = vec![];
        let d2 = 0x3000u64;
        encode::mov_ri32(&mut c2, Reg::RAX, 2);
        let mut c3 = vec![];
        encode::alu_rr(&mut c3, AluKind::Add, Reg::RBX, Reg::RAX);
        encode::ret(&mut c3);

        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, 0x1000 + c0.len() as u64, decode_seq(&c0, 0x1000)),
                (0x2000, 0x2000 + c1.len() as u64, decode_seq(&c1, 0x2000)),
                (0x3000, 0x3000 + c2.len() as u64, decode_seq(&c2, 0x3000)),
                (0x4000, 0x4000 + c3.len() as u64, decode_seq(&c3, 0x4000)),
            ],
            vec![
                (0x1000, 0x2000, EdgeKind::CondNotTaken),
                (0x1000, 0x3000, EdgeKind::CondTaken),
                (0x2000, 0x4000, EdgeKind::Direct),
                (0x3000, 0x4000, EdgeKind::Fallthrough),
            ],
        );
        let rd = reaching_defs_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let at_join: Vec<Def> =
            rd.reaching_at_entry(0x4000).into_iter().filter(|d| d.reg == Reg::RAX).collect();
        assert_eq!(at_join.len(), 2, "both definitions reach the join: {at_join:?}");
        assert!(at_join.contains(&Def { addr: d1, reg: Reg::RAX }));
        assert!(at_join.contains(&Def { addr: d2, reg: Reg::RAX }));
    }

    #[test]
    fn loop_defs_reach_around_back_edge() {
        // b0: mov rcx, 5    b1: sub rcx,1; cmp; jg b1    b2: ret
        let mut c0 = vec![];
        encode::mov_ri32(&mut c0, Reg::RCX, 5);
        let mut c1 = vec![];
        let loop_def = 0x2000u64;
        encode::alu_ri(&mut c1, AluKind::Sub, Reg::RCX, 1);
        encode::cmp_ri(&mut c1, Reg::RCX, 0);
        let j = encode::jcc_rel32(&mut c1, pba_isa::insn::Cond::G);
        encode::patch_rel32(&mut c1, j, 0);
        let mut c2 = vec![];
        encode::ret(&mut c2);

        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, 0x1000 + c0.len() as u64, decode_seq(&c0, 0x1000)),
                (0x2000, 0x2000 + c1.len() as u64, decode_seq(&c1, 0x2000)),
                (0x3000, 0x3001, decode_seq(&c2, 0x3000)),
            ],
            vec![
                (0x1000, 0x2000, EdgeKind::Fallthrough),
                (0x2000, 0x2000, EdgeKind::CondTaken),
                (0x2000, 0x3000, EdgeKind::CondNotTaken),
            ],
        );
        let rd = reaching_defs_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let at_loop: Vec<Def> =
            rd.reaching_at_entry(0x2000).into_iter().filter(|d| d.reg == Reg::RCX).collect();
        // Both the init and the in-loop redefinition reach the header.
        assert_eq!(at_loop.len(), 2, "{at_loop:?}");
        assert!(at_loop.iter().any(|d| d.addr == 0x1000));
        assert!(at_loop.iter().any(|d| d.addr == loop_def));
    }

    #[test]
    fn clear_range_matches_bit_by_bit_oracle() {
        // Every range of a 130-bit set: empty ranges, single bits, ranges
        // starting and ending mid-word, whole words, and ranges ending at
        // the last bit — from a full set and from a sparse pattern.
        const N: usize = 130;
        let patterns: [fn(usize) -> bool; 2] = [|_| true, |i| i % 3 != 1];
        for pattern in patterns {
            let mut start = BitSet::with_len(N);
            (0..N).filter(|&i| pattern(i)).for_each(|i| start.set(i));
            for lo in 0..=N {
                for hi in lo..=N {
                    let mut got = BitSet::with_len(N);
                    got.set(5); // stale bits that clone_from must overwrite
                    got.clone_from(&start);
                    got.clear_range(lo..hi);
                    for i in 0..N {
                        let want = pattern(i) && !(lo..hi).contains(&i);
                        assert_eq!(got.get(i), want, "clear {lo}..{hi}: bit {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn long_register_run_crosses_words() {
        // A 140-block chain F0..F139, each block defining rcx, with rax
        // defined in F10 and F100 and rdx in F20 and F120, then a diamond
        // whose left arm redefines rax and whose right arm redefines rdx.
        // Ids are grouped by register (rax 0..3, rcx 3..143, rdx 143..146,
        // then the diamond's flags), so rcx's range starts and ends
        // mid-word, sharing its first word with rax and its last with rdx.
        // Block addresses (which order the ids) are laid out so every
        // boundary id matters: the last rax def in the chain (F100) has
        // rax's highest id, the last rdx def in the chain (F120) has rdx's
        // lowest, and rcx's lowest (F0) and highest (F138) ids are both
        // killed later in the chain.
        const N: usize = 140;
        let mut order: Vec<usize> = vec![0, 120, N - 1];
        order.extend((1..N - 1).filter(|&k| k != 120));
        let addr = |k: usize| 0x1000 + 0x100 * order.iter().position(|&o| o == k).unwrap() as u64;
        let (head, left, right, join) = (0x1_0000u64, 0x800u64, 0x1_2000u64, 0x1_3000u64);

        let mut blocks = vec![];
        let mut edges = vec![];
        let def = |code: &mut Vec<u8>, reg: Reg, at: u64| {
            let d = Def { addr: at + code.len() as u64, reg };
            encode::mov_ri32(code, reg, 1);
            d
        };
        let (mut rax_last, mut rdx_last, mut rcx_last) = (None, None, None);
        for k in 0..N {
            let (at, mut code) = (addr(k), vec![]);
            rcx_last = Some(def(&mut code, Reg::RCX, at));
            if k == 10 || k == 100 {
                rax_last = Some(def(&mut code, Reg::RAX, at));
            }
            if k == 20 || k == 120 {
                rdx_last = Some(def(&mut code, Reg::RDX, at));
            }
            blocks.push((at, at + code.len() as u64, decode_seq(&code, at)));
            edges.push((at, if k + 1 < N { addr(k + 1) } else { head }, EdgeKind::Direct));
        }
        let mut c = vec![];
        encode::cmp_ri(&mut c, Reg::RDI, 0);
        let flags = Def { addr: head, reg: Reg::FLAGS };
        blocks.push((head, head + c.len() as u64, decode_seq(&c, head)));
        let mut c = vec![];
        let rax_left = def(&mut c, Reg::RAX, left);
        blocks.push((left, left + c.len() as u64, decode_seq(&c, left)));
        let mut c = vec![];
        let rdx_right = def(&mut c, Reg::RDX, right);
        blocks.push((right, right + c.len() as u64, decode_seq(&c, right)));
        let mut c = vec![];
        encode::ret(&mut c);
        blocks.push((join, join + 1, decode_seq(&c, join)));
        blocks.sort_by_key(|b| b.0);
        edges.extend([
            (head, left, EdgeKind::CondNotTaken),
            (head, right, EdgeKind::CondTaken),
            (left, join, EdgeKind::Direct),
            (right, join, EdgeKind::Direct),
        ]);
        let view = VecView::new(addr(0), blocks, edges);
        let (rax, rcx, rdx) = (rax_last.unwrap(), rcx_last.unwrap(), rdx_last.unwrap());

        let rd = reaching_defs_on(&view, &FlowGraph::build(&view), ExecutorKind::Serial);
        let count = |r: Reg| rd.defs.iter().filter(|d| d.reg == r).count();
        assert_eq!([count(Reg::RAX), count(Reg::RCX), count(Reg::RDX)], [3, N, 3]);
        let sorted = |b: u64| {
            let mut v = rd.reaching_at_entry(b);
            v.sort_unstable();
            v
        };
        let mut want = vec![rax, rcx, rdx];
        want.sort_unstable();
        assert_eq!(sorted(head), want, "one def per register leaves the chain");
        let mut want = vec![rax, rax_left, rcx, rdx, rdx_right, flags];
        want.sort_unstable();
        assert_eq!(sorted(join), want, "the last def per path reaches the join");
    }
}
