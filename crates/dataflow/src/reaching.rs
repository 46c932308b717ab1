//! Reaching definitions + def-use chains (register-level).
//!
//! The forward companion to liveness: which definition sites can supply
//! a register's value at each point. Feature extractors and slicing
//! refinements consume the def-use chains; the analysis is the standard
//! gen/kill bit-vector problem with definitions indexed densely,
//! expressed as a [`ReachingSpec`] and solved by the generic engine
//! ([`crate::engine`]). The spec reads each block's (already decoded)
//! instructions through the borrowing [`CfgView`], and its
//! [`DataflowSpec::transfer_into`] writes the bit vector in place, so
//! the engine's fixpoint loop allocates nothing per visit.

use crate::engine::{DataflowSpec, Direction, ExecutorKind, FlowGraph};
use crate::view::CfgView;
use pba_cfg::BlockIndex;
use pba_isa::Reg;
use std::collections::HashMap;
use std::sync::Arc;

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

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    fn transfer(&self, gen: &BitSet, kill: &BitSet) -> BitSet {
        BitSet(
            self.0.iter().zip(&gen.0).zip(&kill.0).map(|((&inn, &g), &k)| (inn & !k) | g).collect(),
        )
    }

    /// `self = (input & !kill) | gen`, word by word into the existing
    /// buffer (resized only if the widths disagree, which a single
    /// spec's facts never do).
    fn transfer_from(&mut self, input: &BitSet, gen: &BitSet, kill: &BitSet) {
        self.0.resize(input.0.len(), 0);
        for (((o, &inn), &g), &k) in self.0.iter_mut().zip(&input.0).zip(&gen.0).zip(&kill.0) {
            *o = (inn & !k) | g;
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
    /// All definition sites, indexed by id.
    pub defs: Vec<Def>,
    def_ids: HashMap<Def, usize>,
    blocks: Arc<Vec<u64>>,
    index: Arc<BlockIndex>,
    reach_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Definitions reaching the entry of `block`.
    pub fn reaching_at_entry(&self, block: u64) -> Vec<Def> {
        self.index
            .get(block)
            .map(|i| self.reach_in[i].iter_ones().map(|d| self.defs[d]).collect())
            .unwrap_or_default()
    }

    /// Whether `def` reaches the entry of `block` (O(1) point lookup,
    /// no materialization).
    pub fn def_reaches_entry(&self, block: u64, def: Def) -> bool {
        let Some(&id) = self.def_ids.get(&def) else { return false };
        self.index.get(block).is_some_and(|i| self.reach_in[i].get(id))
    }

    /// Block addresses in the dense order of the fact vector.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Bytes of heap owned by the definition tables and fact vectors
    /// (the shared block list and index belong to the function's graph,
    /// counted with the IR).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.defs.capacity() * size_of::<Def>()
            + self.def_ids.capacity() * (size_of::<(Def, usize)>() + 1)
            + self.reach_in.capacity() * size_of::<BitSet>()
            + self.reach_in.iter().map(|b| b.0.capacity() * size_of::<u64>()).sum::<usize>()
    }
}

/// Reaching definitions as a [`DataflowSpec`]: forward bit-vector
/// problem whose facts are dense [`BitSet`]s over definition ids.
pub struct ReachingSpec {
    /// All definition sites, indexed by bit position.
    defs: Vec<Def>,
    /// Reverse index: definition site → bit position.
    def_ids: HashMap<Def, usize>,
    /// Bit count (defs.len()).
    n: usize,
    /// Dense block index over the view's block list; gen/kill are keyed
    /// through it so the engine's per-visit lookups are binary searches
    /// over a flat sorted array, not hash probes.
    index: BlockIndex,
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

impl ReachingSpec {
    /// Index every definition site in `view` and precompute per-block
    /// gen/kill vectors. Instructions are read from the view's decoded
    /// slices — nothing is decoded here.
    pub fn build(view: &dyn CfgView) -> ReachingSpec {
        let blocks = view.blocks();

        // Index all defs.
        let mut defs: Vec<Def> = Vec::new();
        let mut def_ids: HashMap<Def, usize> = HashMap::new();
        for &b in blocks {
            for i in view.insns(b) {
                for r in i.regs_written().iter() {
                    let d = Def { addr: i.addr, reg: r };
                    let next = defs.len();
                    def_ids.entry(d).or_insert_with(|| {
                        defs.push(d);
                        next
                    });
                }
            }
        }
        let n = defs.len();

        // Per-register def id lists (for kills).
        let mut by_reg: HashMap<Reg, Vec<usize>> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_reg.entry(d.reg).or_default().push(i);
        }

        // Block gen/kill, dense over the view's block list.
        let index = BlockIndex::new(blocks);
        let mut gen: Vec<BitSet> = (0..blocks.len()).map(|_| BitSet::with_len(n)).collect();
        let mut kill: Vec<BitSet> = (0..blocks.len()).map(|_| BitSet::with_len(n)).collect();
        for (bi, &b) in blocks.iter().enumerate() {
            let g = &mut gen[bi];
            let k = &mut kill[bi];
            for i in view.insns(b) {
                for r in i.regs_written().iter() {
                    // A new def of r kills all other defs of r —
                    // *including* earlier gens of r in this same block,
                    // whose gen bits are retracted so only the last def
                    // per register flows out of the block. (A historical
                    // quirk kept earlier same-block gens alive; fixed
                    // deliberately, with the oracle in
                    // tests/engine_equiv.rs updated in the same change.)
                    for &other in by_reg.get(&r).into_iter().flatten() {
                        k.set(other);
                        g.clear(other);
                    }
                    let id = def_ids[&Def { addr: i.addr, reg: r }];
                    // un-kill & gen this def.
                    k.clear(id);
                    g.set(id);
                }
            }
        }
        ReachingSpec { defs, def_ids, n, index, gen, kill }
    }
}

impl DataflowSpec for ReachingSpec {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self, _block: u64) -> BitSet {
        BitSet::with_len(self.n)
    }

    fn boundary(&self, _block: u64) -> BitSet {
        // Nothing reaches the function entry from outside.
        BitSet::with_len(self.n)
    }

    fn meet(&self, into: &mut BitSet, incoming: &BitSet) {
        into.union_with(incoming);
    }

    fn transfer(&self, block: u64, input: &BitSet) -> BitSet {
        let i = self.index.get(block).expect("spec covers every graph block");
        input.transfer(&self.gen[i], &self.kill[i])
    }

    fn transfer_into(&self, block: u64, input: &BitSet, out: &mut BitSet) {
        let i = self.index.get(block).expect("spec covers every graph block");
        out.transfer_from(input, &self.gen[i], &self.kill[i]);
    }
}

/// Run reaching definitions over one function (serial executor).
pub fn reaching_defs(view: &dyn CfgView) -> ReachingDefs {
    reaching_defs_with(view, ExecutorKind::Serial)
}

/// Run reaching definitions over one function with an explicit executor.
pub fn reaching_defs_with(view: &dyn CfgView, exec: ExecutorKind) -> ReachingDefs {
    reaching_defs_on(view, &FlowGraph::build(view), exec)
}

/// [`reaching_defs_with`] over a prebuilt [`FlowGraph`] (so whole-binary
/// drivers can share one graph — and its memoized RPO ranks — across
/// all analyses; [`crate::ir::FuncIr::graph`] is that graph).
pub fn reaching_defs_on(view: &dyn CfgView, graph: &FlowGraph, exec: ExecutorKind) -> ReachingDefs {
    let spec = ReachingSpec::build(view);
    let r = exec.run(&spec, graph);
    let (blocks, index, reach_in, _out) = r.into_dense();
    ReachingDefs { defs: spec.defs, def_ids: spec.def_ids, blocks, index, reach_in }
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
        let rd = reaching_defs(&view);
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
        let rd = reaching_defs(&view);
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
        let rd = reaching_defs(&view);
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
        let rd = reaching_defs(&view);
        let at_loop: Vec<Def> =
            rd.reaching_at_entry(0x2000).into_iter().filter(|d| d.reg == Reg::RCX).collect();
        // Both the init and the in-loop redefinition reach the header.
        assert_eq!(at_loop.len(), 2, "{at_loop:?}");
        assert!(at_loop.iter().any(|d| d.addr == 0x1000));
        assert!(at_loop.iter().any(|d| d.addr == loop_def));
    }

    #[test]
    fn bitset_clone_from_reuses_and_matches() {
        let mut a = BitSet::with_len(130);
        a.set(0);
        a.set(129);
        let mut b = BitSet::with_len(130);
        b.clone_from(&a);
        assert_eq!(a, b);
        // In-place transfer equals the allocating one.
        let mut gen = BitSet::with_len(130);
        gen.set(64);
        let mut kill = BitSet::with_len(130);
        kill.set(129);
        let fresh = a.transfer(&gen, &kill);
        let mut inplace = BitSet::with_len(130);
        inplace.set(77); // stale garbage that must be overwritten
        inplace.transfer_from(&a, &gen, &kill);
        assert_eq!(fresh, inplace);
        assert!(inplace.get(64) && inplace.get(0) && !inplace.get(129) && !inplace.get(77));
    }
}
