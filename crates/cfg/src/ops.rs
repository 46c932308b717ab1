//! The six CFG-construction operations over the abstract graph
//! `G = ⟨B, C, E, F⟩` (paper Section 3).
//!
//! This module is the executable form of the paper's theory. Edges are
//! identified by `(source block end, target block start, kind)` — exactly
//! the identity the partial order of Section 3 preserves across block
//! splits ("the end address of the source block e_a and the start address
//! of the target block s_b are preserved"). That choice makes block
//! splitting *automatically* edge-stable: incoming edges keep their
//! target start, outgoing edges keep their source end.
//!
//! The oracle abstracts the underlying machine code, so the operations
//! can be property-tested on thousands of synthetic layouts
//! ([`SyntheticCode`]) and also run against real decoded bytes.

use crate::model::EdgeKind;
use std::collections::{BTreeMap, BTreeSet};

/// An edge in the abstract graph, identified by split-stable endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsEdge {
    /// End address of the source block (stable under splits).
    pub src_end: u64,
    /// Start address of the target block or candidate (stable under
    /// splits).
    pub dst: u64,
    /// Edge classification.
    pub kind: EdgeKind,
}

/// Control flow of one synthetic instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynCf {
    /// Falls through.
    None,
    /// Unconditional branch.
    Jmp(u64),
    /// Conditional branch (fallthrough implied).
    Cond(u64),
    /// Direct call.
    Call(u64),
    /// Indirect jump with the given statically-resolvable targets.
    Indirect(Vec<u64>),
    /// Return.
    Ret,
    /// No successors (ud2/hlt).
    Halt,
}

/// One synthetic instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynInsn {
    /// First byte address.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// Control flow.
    pub cf: SynCf,
}

/// What the operations need to know about the underlying code.
pub trait CodeOracle {
    /// Linear parsing: the end address (one past the first control-flow
    /// instruction) of a block starting at `t`. `None` if `t` is not a
    /// valid instruction boundary or decoding runs off the region.
    fn block_end_from(&self, t: u64) -> Option<u64>;

    /// Direct outgoing edges of the control-flow instruction *ending* at
    /// `end`: `(target, kind)` pairs. Excludes call fall-through edges
    /// (those are `O_CFEC`'s job) and indirect targets (`O_IEC`'s job).
    fn edges_at_end(&self, end: u64) -> Vec<(u64, EdgeKind)>;

    /// Statically resolved targets of an indirect jump ending at `end`.
    fn indirect_targets(&self, end: u64) -> Vec<u64>;

    /// If the instruction ending at `end` is a direct call, its callee.
    fn call_target(&self, end: u64) -> Option<u64>;

    /// Whether the function entered at `entry` can return (drives
    /// `O_CFEC` correctness). The reference driver uses this as ground
    /// truth; the real parser computes it with the fixed-point analysis.
    fn callee_returns(&self, entry: u64) -> bool;
}

/// Synthetic code: a consistent instruction stream for oracle-driven
/// tests.
#[derive(Debug, Clone, Default)]
pub struct SyntheticCode {
    by_start: BTreeMap<u64, SynInsn>,
    by_end: BTreeMap<u64, u64>, // end -> start
    /// Function entries whose bodies never return (ground truth for
    /// `callee_returns`).
    pub noreturn_entries: BTreeSet<u64>,
}

impl SyntheticCode {
    /// Build from an instruction list (must be non-overlapping; later
    /// duplicates are rejected).
    pub fn new(insns: Vec<SynInsn>) -> SyntheticCode {
        let mut code = SyntheticCode::default();
        for i in insns {
            assert!(i.end > i.start, "empty instruction at {:#x}", i.start);
            let prev = code.by_start.insert(i.start, i.clone());
            assert!(prev.is_none(), "duplicate instruction at {:#x}", i.start);
            code.by_end.insert(i.end, i.start);
        }
        code
    }

    /// The instruction ending at `end`.
    pub fn insn_ending(&self, end: u64) -> Option<&SynInsn> {
        self.by_end.get(&end).and_then(|s| self.by_start.get(s))
    }

    /// All instruction boundaries (starts), sorted.
    pub fn boundaries(&self) -> Vec<u64> {
        self.by_start.keys().copied().collect()
    }
}

impl CodeOracle for SyntheticCode {
    fn block_end_from(&self, t: u64) -> Option<u64> {
        let mut at = t;
        loop {
            let i = self.by_start.get(&at)?;
            if !matches!(i.cf, SynCf::None) {
                return Some(i.end);
            }
            at = i.end;
        }
    }

    fn edges_at_end(&self, end: u64) -> Vec<(u64, EdgeKind)> {
        let Some(i) = self.insn_ending(end) else { return vec![] };
        match &i.cf {
            SynCf::Jmp(t) => vec![(*t, EdgeKind::Direct)],
            SynCf::Cond(t) => {
                vec![(*t, EdgeKind::CondTaken), (i.end, EdgeKind::CondNotTaken)]
            }
            SynCf::Call(t) => vec![(*t, EdgeKind::Call)],
            SynCf::None | SynCf::Indirect(_) | SynCf::Ret | SynCf::Halt => vec![],
        }
    }

    fn indirect_targets(&self, end: u64) -> Vec<u64> {
        match self.insn_ending(end).map(|i| &i.cf) {
            Some(SynCf::Indirect(ts)) => ts.clone(),
            _ => vec![],
        }
    }

    fn call_target(&self, end: u64) -> Option<u64> {
        match self.insn_ending(end).map(|i| &i.cf) {
            Some(SynCf::Call(t)) => Some(*t),
            _ => None,
        }
    }

    fn callee_returns(&self, entry: u64) -> bool {
        !self.noreturn_entries.contains(&entry)
    }
}

/// The abstract graph `G = ⟨B, C, E, F⟩`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsGraph {
    /// Basic blocks: start → end.
    pub blocks: BTreeMap<u64, u64>,
    /// Candidate blocks `[t]`.
    pub candidates: BTreeSet<u64>,
    /// Edges.
    pub edges: BTreeSet<AbsEdge>,
    /// Function entry addresses.
    pub funcs: BTreeSet<u64>,
}

impl AbsGraph {
    /// The initial graph `G0 = ⟨∅, F0, ∅, F0⟩`.
    pub fn initial(f0: impl IntoIterator<Item = u64>) -> AbsGraph {
        let funcs: BTreeSet<u64> = f0.into_iter().collect();
        AbsGraph { candidates: funcs.clone(), funcs, ..Default::default() }
    }

    /// Is `addr` the start of a block or candidate?
    pub fn has_node(&self, addr: u64) -> bool {
        self.blocks.contains_key(&addr) || self.candidates.contains(&addr)
    }

    /// Ensure a node exists for branch target `t`: if a block already
    /// starts there, nothing to do; otherwise add a candidate.
    fn ensure_target(&mut self, t: u64) {
        if !self.blocks.contains_key(&t) {
            self.candidates.insert(t);
        }
    }

    /// `O_BER`: resolve candidate `[t]` into a real block.
    ///
    /// Implements the three cases of Section 3: block splitting, early
    /// block ending, linear parsing. Returns `false` (identity) if `t`
    /// is not currently a candidate.
    pub fn o_ber(&mut self, oracle: &dyn CodeOracle, t: u64) -> bool {
        if !self.candidates.remove(&t) {
            return false;
        }
        // Case 1: t falls inside an existing block [s, e) → split.
        if let Some((&s, &e)) = self.blocks.range(..t).next_back() {
            if t < e {
                self.blocks.insert(s, t); // [s, t)
                self.blocks.insert(t, e); // [t, e)

                // Edge identity is (src_end, dst): incoming edges keep
                // dst == s (now [s,t)), outgoing keep src_end == e (now
                // [t,e)). Only the implicit fall-through must be added.
                self.edges.insert(AbsEdge { src_end: t, dst: t, kind: EdgeKind::Fallthrough });
                return true;
            }
        }
        let Some(e0) = oracle.block_end_from(t) else {
            // Undecodable candidate: drop it (real parsers record an
            // error block; the algebra just forgets it).
            return true;
        };
        // Case 2: early block ending — another block starts inside
        // [t, e0).
        if let Some((&s, _)) = self.blocks.range(t + 1..e0).next() {
            self.blocks.insert(t, s); // [t, s)
            self.edges.insert(AbsEdge { src_end: s, dst: s, kind: EdgeKind::Fallthrough });
            return true;
        }
        // A candidate inside [t, e0) does NOT end the block early — it
        // will split this block when it is itself resolved.
        // Case 3: linear parsing.
        self.blocks.insert(t, e0);
        true
    }

    /// `O_DEC`: create the direct outgoing edges of block `a` (given by
    /// start address). Idempotent; identity if the block doesn't exist.
    pub fn o_dec(&mut self, oracle: &dyn CodeOracle, start: u64) -> bool {
        let Some(&end) = self.blocks.get(&start) else { return false };
        let mut changed = false;
        for (target, kind) in oracle.edges_at_end(end) {
            changed |= self.edges.insert(AbsEdge { src_end: end, dst: target, kind });
            self.ensure_target(target);
        }
        changed
    }

    /// `O_CFEC`: add the call fall-through summary edge after the call
    /// ending at `end`. The caller is responsible for having established
    /// that the callee returns (the non-returning dependency).
    pub fn o_cfec(&mut self, end: u64) -> bool {
        let inserted =
            self.edges.insert(AbsEdge { src_end: end, dst: end, kind: EdgeKind::CallFallthrough });
        self.ensure_target(end);
        inserted
    }

    /// `O_IEC`: add resolved indirect edges for the jump ending at `end`.
    pub fn o_iec(&mut self, targets: &[u64], end: u64) -> bool {
        let mut changed = false;
        for &t in targets {
            changed |=
                self.edges.insert(AbsEdge { src_end: end, dst: t, kind: EdgeKind::Indirect });
            self.ensure_target(t);
        }
        changed
    }

    /// `O_FEI`: label `entry` as a function entry.
    pub fn o_fei(&mut self, entry: u64) -> bool {
        self.funcs.insert(entry)
    }

    /// `O_ER`: remove `edge` and prune everything no longer reachable
    /// from any function entry.
    pub fn o_er(&mut self, edge: AbsEdge) -> bool {
        if !self.edges.remove(&edge) {
            return false;
        }
        self.prune_unreachable();
        true
    }

    /// Drop blocks, candidates and edges not reachable from `funcs`.
    pub fn prune_unreachable(&mut self) {
        let mut reachable: BTreeSet<u64> = BTreeSet::new();
        let mut work: Vec<u64> = self.funcs.iter().copied().filter(|f| self.has_node(*f)).collect();
        while let Some(n) = work.pop() {
            if !reachable.insert(n) {
                continue;
            }
            if let Some(&end) = self.blocks.get(&n) {
                for e in self
                    .edges
                    .range(AbsEdge { src_end: end, dst: 0, kind: EdgeKind::Fallthrough }..)
                {
                    if e.src_end != end {
                        break;
                    }
                    if self.has_node(e.dst) {
                        work.push(e.dst);
                    }
                }
            }
        }
        self.blocks.retain(|s, _| reachable.contains(s));
        self.candidates.retain(|s| reachable.contains(s));
        let blocks = &self.blocks;
        let cands = &self.candidates;
        self.edges.retain(|e| {
            // An edge survives if its source block end still exists and
            // its target node survives.
            let src_ok = blocks.iter().any(|(_, &end)| end == e.src_end);
            let dst_ok = blocks.contains_key(&e.dst) || cands.contains(&e.dst);
            src_ok && dst_ok
        });
    }

    /// Address set covered by blocks (for the partial order).
    pub fn covered(&self) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = self.blocks.iter().map(|(&s, &e)| (s, e)).collect();
        spans.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in spans {
            match out.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        out
    }
}

/// Reference serial driver: run the operations to fixpoint from the seed
/// entries, consulting the oracle's ground-truth `callee_returns` for
/// call fall-through decisions. This is the specification the parallel
/// parser is differentially tested against.
pub fn construct_reference(oracle: &dyn CodeOracle, seeds: &[u64]) -> AbsGraph {
    let mut g = AbsGraph::initial(seeds.iter().copied());
    let mut dec_done: BTreeSet<u64> = BTreeSet::new();
    // Resolve one candidate at a time, then exhaust consequences.
    while let Some(&t) = g.candidates.iter().next() {
        g.o_ber(oracle, t);
        // Apply O_DEC / O_IEC / O_CFEC / O_FEI to every block not yet
        // processed (splits may create blocks whose end was already
        // processed — edge identity makes re-application idempotent).
        let starts: Vec<u64> = g.blocks.keys().copied().collect();
        for s in starts {
            let end = g.blocks[&s];
            if !dec_done.insert(end) {
                continue;
            }
            g.o_dec(oracle, s);
            let ind = oracle.indirect_targets(end);
            if !ind.is_empty() {
                g.o_iec(&ind, end);
            }
            if let Some(callee) = oracle.call_target(end) {
                g.o_fei(callee);
                if oracle.callee_returns(callee) {
                    g.o_cfec(end);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a tiny stream:
    /// 0x00: insn(4)        ; plain
    /// 0x04: cond -> 0x10   ; ends block
    /// 0x09: insn(3)
    /// 0x0c: jmp -> 0x04
    /// 0x10: ret
    fn stream() -> SyntheticCode {
        SyntheticCode::new(vec![
            SynInsn { start: 0x00, end: 0x04, cf: SynCf::None },
            SynInsn { start: 0x04, end: 0x09, cf: SynCf::Cond(0x10) },
            SynInsn { start: 0x09, end: 0x0C, cf: SynCf::None },
            SynInsn { start: 0x0C, end: 0x10, cf: SynCf::Jmp(0x04) },
            SynInsn { start: 0x10, end: 0x11, cf: SynCf::Ret },
        ])
    }

    #[test]
    fn linear_parsing_case() {
        let code = stream();
        let mut g = AbsGraph::initial([0x00]);
        assert!(g.o_ber(&code, 0x00));
        assert_eq!(g.blocks.get(&0x00), Some(&0x09));
        assert!(g.candidates.is_empty());
    }

    #[test]
    fn split_case_preserves_edge_identity() {
        let code = stream();
        let mut g = AbsGraph::initial([0x00]);
        g.o_ber(&code, 0x00); // [0x00, 0x09)
        g.o_dec(&code, 0x00); // edges to 0x10 and 0x09

        // Now resolve candidate 0x09, then a branch target lands at 0x04.
        g.o_ber(&code, 0x09); // [0x09, 0x10)
        g.o_dec(&code, 0x09); // jmp -> 0x04: candidate 0x04
        assert!(g.candidates.contains(&0x04));
        let edges_before: Vec<AbsEdge> = g.edges.iter().copied().collect();
        g.o_ber(&code, 0x04); // splits [0x00, 0x09) into [0,4) + [4,9)
        assert_eq!(g.blocks.get(&0x00), Some(&0x04));
        assert_eq!(g.blocks.get(&0x04), Some(&0x09));
        // All previous edges still present (identity stable), plus the
        // split fall-through.
        for e in edges_before {
            assert!(g.edges.contains(&e), "lost {e:?}");
        }
        assert!(g.edges.contains(&AbsEdge {
            src_end: 0x04,
            dst: 0x04,
            kind: EdgeKind::Fallthrough
        }));
    }

    #[test]
    fn early_block_ending_case() {
        let code = stream();
        let mut g = AbsGraph::initial([0x09]);
        g.o_ber(&code, 0x09); // [0x09, 0x10)
                              // Candidate at 0x00: linear end would be 0x09, but block at 0x09
                              // exists? No — early ending happens when a block starts *inside*
                              // [t, e0). 0x09 is not inside [0x00, 0x09). So linear.
        g.candidates.insert(0x00);
        g.o_ber(&code, 0x00);
        assert_eq!(g.blocks.get(&0x00), Some(&0x09));

        // Now a real early-end: block at 0x04 exists, candidate at 0x00.
        let mut g = AbsGraph::initial([0x04]);
        g.o_ber(&code, 0x04); // [0x04, 0x09)
        g.candidates.insert(0x00);
        g.o_ber(&code, 0x00);
        assert_eq!(g.blocks.get(&0x00), Some(&0x04), "early end at the existing block");
        assert!(g.edges.contains(&AbsEdge {
            src_end: 0x04,
            dst: 0x04,
            kind: EdgeKind::Fallthrough
        }));
    }

    #[test]
    fn dec_is_idempotent() {
        let code = stream();
        let mut g = AbsGraph::initial([0x00]);
        g.o_ber(&code, 0x00);
        assert!(g.o_dec(&code, 0x00));
        let snapshot = g.clone();
        assert!(!g.o_dec(&code, 0x00), "second application must be identity");
        assert_eq!(g, snapshot);
    }

    #[test]
    fn reference_construction_discovers_everything() {
        let code = stream();
        let g = construct_reference(&code, &[0x00]);
        // Blocks: [0,4) was split? 0x04 is a branch target (jmp 0x04),
        // so yes: [0x00,0x04), [0x04,0x09), [0x09,0x10), [0x10,0x11).
        let blocks: Vec<(u64, u64)> = g.blocks.iter().map(|(&s, &e)| (s, e)).collect();
        assert_eq!(blocks, vec![(0x00, 0x04), (0x04, 0x09), (0x09, 0x10), (0x10, 0x11)]);
        assert!(g.candidates.is_empty());
        // Cond edges from 0x09-end block? The cond at 0x04 ends at 0x09:
        // taken -> 0x10, fallthrough -> 0x09.
        assert!(g.edges.contains(&AbsEdge { src_end: 0x09, dst: 0x10, kind: EdgeKind::CondTaken }));
        assert!(g.edges.contains(&AbsEdge {
            src_end: 0x09,
            dst: 0x09,
            kind: EdgeKind::CondNotTaken
        }));
        assert!(g.edges.contains(&AbsEdge { src_end: 0x10, dst: 0x04, kind: EdgeKind::Direct }));
    }

    #[test]
    fn call_creates_function_and_fallthrough() {
        // 0x00: call 0x20 ; 0x05: ret ; 0x20: ret
        let code = SyntheticCode::new(vec![
            SynInsn { start: 0x00, end: 0x05, cf: SynCf::Call(0x20) },
            SynInsn { start: 0x05, end: 0x06, cf: SynCf::Ret },
            SynInsn { start: 0x20, end: 0x21, cf: SynCf::Ret },
        ]);
        let g = construct_reference(&code, &[0x00]);
        assert!(g.funcs.contains(&0x20));
        assert!(g.edges.contains(&AbsEdge {
            src_end: 0x05,
            dst: 0x05,
            kind: EdgeKind::CallFallthrough
        }));
        assert!(g.blocks.contains_key(&0x05));
    }

    #[test]
    fn noreturn_call_suppresses_fallthrough() {
        let mut code = SyntheticCode::new(vec![
            SynInsn { start: 0x00, end: 0x05, cf: SynCf::Call(0x20) },
            SynInsn { start: 0x05, end: 0x06, cf: SynCf::Ret },
            SynInsn { start: 0x20, end: 0x21, cf: SynCf::Halt },
        ]);
        code.noreturn_entries.insert(0x20);
        let g = construct_reference(&code, &[0x00]);
        assert!(
            !g.edges.iter().any(|e| e.kind == EdgeKind::CallFallthrough),
            "no fall-through past a non-returning callee"
        );
        assert!(!g.blocks.contains_key(&0x05), "0x05 must stay undiscovered");
    }

    #[test]
    fn edge_removal_prunes_dangling_blocks() {
        // f -> indirect with an over-approximated target 0x30 leading to
        // an island.
        let code = SyntheticCode::new(vec![
            SynInsn { start: 0x00, end: 0x04, cf: SynCf::Indirect(vec![0x10, 0x30]) },
            SynInsn { start: 0x10, end: 0x11, cf: SynCf::Ret },
            SynInsn { start: 0x30, end: 0x31, cf: SynCf::Ret },
        ]);
        let mut g = construct_reference(&code, &[0x00]);
        assert!(g.blocks.contains_key(&0x30));
        let bogus = AbsEdge { src_end: 0x04, dst: 0x30, kind: EdgeKind::Indirect };
        assert!(g.o_er(bogus));
        assert!(!g.blocks.contains_key(&0x30), "island removed");
        assert!(g.blocks.contains_key(&0x10), "legitimate target kept");
        assert!(!g.edges.contains(&bogus));
    }

    #[test]
    fn er_commutes_with_er() {
        let code = SyntheticCode::new(vec![
            SynInsn { start: 0x00, end: 0x04, cf: SynCf::Indirect(vec![0x10, 0x20, 0x30]) },
            SynInsn { start: 0x10, end: 0x11, cf: SynCf::Ret },
            SynInsn { start: 0x20, end: 0x21, cf: SynCf::Ret },
            SynInsn { start: 0x30, end: 0x31, cf: SynCf::Ret },
        ]);
        let g0 = construct_reference(&code, &[0x00]);
        let e1 = AbsEdge { src_end: 0x04, dst: 0x20, kind: EdgeKind::Indirect };
        let e2 = AbsEdge { src_end: 0x04, dst: 0x30, kind: EdgeKind::Indirect };
        let mut a = g0.clone();
        a.o_er(e1);
        a.o_er(e2);
        let mut b = g0.clone();
        b.o_er(e2);
        b.o_er(e1);
        assert_eq!(a, b);
    }
}
