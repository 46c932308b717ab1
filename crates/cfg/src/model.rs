//! The concrete CFG consumed by binary-analysis applications.
//!
//! Produced by `pba-parse` after finalization, then treated as read-only:
//! "after the CFG has been fully constructed, binary analysis will
//! typically no longer make modifications to the CFG. Therefore, the CFG
//! becomes read-only and different threads can safely perform analysis
//! independently" (paper Section 7.2). All containers here are plain
//! (non-concurrent); `&Cfg` is `Sync` and that is all the parallel
//! application pattern needs. Edges are stored once, in the
//! `(src, dst, kind)` order finalization already emits them in, plus one
//! by-target copy for in-edges: adjacency is a binary search into those
//! two arrays, with no per-block lists and no block index.

use pba_isa::{decoder_for, Arch, Insn};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Edge classification, following Dyninst's ParseAPI taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Implicit straight-line flow (block split, early block end).
    Fallthrough,
    /// Conditional branch, taken side.
    CondTaken,
    /// Conditional branch, not-taken side.
    CondNotTaken,
    /// Unconditional direct branch within a function.
    Direct,
    /// Resolved indirect-jump (jump-table) edge.
    Indirect,
    /// Call to a function entry.
    Call,
    /// Summary edge from a call site to the instruction after it.
    CallFallthrough,
    /// Inter-procedural branch (tail call).
    TailCall,
}

impl EdgeKind {
    /// Inter-procedural edges do not contribute to function boundaries.
    pub fn is_interprocedural(self) -> bool {
        matches!(self, EdgeKind::Call | EdgeKind::TailCall)
    }
}

/// A basic block `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction address.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
}

impl Block {
    /// Byte length.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Empty blocks cannot exist in a finalized CFG.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Does the block contain `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// A directed edge between blocks, identified by source block start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Start address of the source block.
    pub src: u64,
    /// Start address of the target block.
    pub dst: u64,
    /// Classification.
    pub kind: EdgeKind,
}

/// Non-returning analysis status (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetStatus {
    /// Not yet determined.
    Unset,
    /// At least one reachable `ret` exists.
    Returns,
    /// Proven to never return.
    NoReturn,
}

/// A function: an entry block plus every block reachable from it across
/// intra-procedural edges (Bernat & Miller's definition, which the paper
/// adopts to support functions sharing code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Entry block start address.
    pub entry: u64,
    /// Symbol name if any (`fn_<addr>` for discovered functions).
    pub name: String,
    /// Sorted start addresses of member blocks. Blocks may belong to
    /// multiple functions (shared code).
    pub blocks: Vec<u64>,
    /// Outcome of the non-returning analysis.
    pub ret_status: RetStatus,
}

impl Function {
    /// Project this function onto the address space: the sorted list of
    /// maximal contiguous `[lo, hi)` ranges its blocks cover. This is the
    /// representation the paper's ground-truth checker compares against
    /// DWARF function ranges (Section 8.1).
    pub fn ranges(&self, cfg: &Cfg) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = self
            .blocks
            .iter()
            .filter_map(|b| cfg.blocks.get(b).map(|bl| (bl.start, bl.end)))
            .collect();
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

/// The raw code a CFG was parsed from: enough to re-decode any
/// instruction during later analyses without holding the whole ELF.
#[derive(Debug, Clone)]
pub struct CodeRegion {
    /// Architecture (selects the decoder).
    pub arch: Arch,
    /// Virtual address of `bytes[0]`.
    pub base: u64,
    /// The text bytes.
    pub bytes: Vec<u8>,
    /// Instructions decoded from this region through block reads
    /// ([`CodeRegion::insns_into`] — the path every analysis consumer takes;
    /// clones share the counter). The decode-once invariant of the
    /// shared analysis IR is asserted against exactly this number.
    decodes: Arc<pba_concurrent::Counter>,
}

impl CodeRegion {
    /// Construct a region.
    pub fn new(arch: Arch, base: u64, bytes: Vec<u8>) -> CodeRegion {
        CodeRegion { arch, base, bytes, decodes: Arc::new(pba_concurrent::Counter::new()) }
    }

    /// How many instructions block reads ([`CodeRegion::insns_into`]) have
    /// decoded from this region so far (across all clones sharing it).
    /// Monotonic; sample before/after a pipeline to measure its decode
    /// work. Counted once per block read, not per instruction, so the
    /// hot decode loop shares no cache line between threads.
    pub fn decode_count(&self) -> u64 {
        self.decodes.get()
    }

    /// Does `addr` fall within this region?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes.len() as u64
    }

    /// Decode the instruction at `addr`.
    pub fn decode(&self, addr: u64) -> Option<Insn> {
        if !self.contains(addr) {
            return None;
        }
        let off = (addr - self.base) as usize;
        decoder_for(self.arch).decode(&self.bytes[off..], addr).ok()
    }

    /// The instructions of `[start, end)` in address order (see
    /// [`Self::insns_into`]).
    pub fn insns(&self, start: u64, end: u64) -> Vec<Insn> {
        let mut out = Vec::new();
        self.insns_into(start, end, &mut out);
        out
    }

    /// Append the instructions of `[start, end)` to `out` in address
    /// order. Stops early on a decode failure (which a finalized CFG's
    /// blocks never trigger). Adds the decoded count to
    /// [`Self::decode_count`] in one batched increment.
    pub fn insns_into(&self, start: u64, end: u64, out: &mut Vec<Insn>) {
        let before = out.len();
        let mut at = start;
        while at < end {
            match self.decode(at) {
                Some(i) => {
                    at = i.end();
                    out.push(i);
                }
                None => break,
            }
        }
        if out.len() > before {
            self.decodes.add((out.len() - before) as u64);
        }
    }
}

/// A finalized control-flow graph.
///
/// Each edge is stored once in one array sorted by `(src, dst, kind)`,
/// plus one by-target copy sorted by `(dst, src, kind)`; a block's out-
/// and in-edges are contiguous runs of those two arrays.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
    /// Functions keyed by entry address.
    pub functions: BTreeMap<u64, Function>,
    /// The code the graph was parsed from.
    pub code: Arc<CodeRegion>,
    /// Every edge once, sorted by `(src, dst, kind)`.
    edges: Vec<Edge>,
    /// The same edges sorted by `(dst, src, kind)`.
    by_dst: Vec<Edge>,
}

impl Cfg {
    /// Assemble a CFG from `edges` in any order (duplicates are dropped).
    pub fn new(
        blocks: BTreeMap<u64, Block>,
        mut edges: Vec<Edge>,
        functions: BTreeMap<u64, Function>,
        code: Arc<CodeRegion>,
    ) -> Cfg {
        edges.sort_unstable();
        edges.dedup();
        let mut by_dst = edges.clone();
        by_dst.sort_unstable_by_key(|e| (e.dst, e.src, e.kind));
        Cfg { blocks, functions, code, edges, by_dst }
    }

    /// Every edge, sorted by `(src, dst, kind)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edges of the block starting at `b`, by `(dst, kind)`.
    pub fn out_edges(&self, b: u64) -> &[Edge] {
        let (lo, hi) =
            (self.edges.partition_point(|e| e.src < b), self.edges.partition_point(|e| e.src <= b));
        &self.edges[lo..hi]
    }

    /// Incoming edges of the block starting at `b`, by `(src, kind)`.
    pub fn in_edges(&self, b: u64) -> &[Edge] {
        let (lo, hi) = (
            self.by_dst.partition_point(|e| e.dst < b),
            self.by_dst.partition_point(|e| e.dst <= b),
        );
        &self.by_dst[lo..hi]
    }

    /// Estimated heap bytes held by this graph: blocks, both edge
    /// arrays, function membership, and the retained code bytes. An
    /// estimate (node-based containers are costed per entry), used by
    /// the session's resident-size accounting.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks = self.blocks.len() * (size_of::<u64>() + size_of::<Block>());
        let edges = (self.edges.capacity() + self.by_dst.capacity()) * size_of::<Edge>();
        let functions: usize = self
            .functions
            .values()
            .map(|f| size_of::<Function>() + f.name.capacity() + f.blocks.capacity() * 8)
            .sum();
        blocks + edges + functions + self.code.bytes.capacity()
    }

    /// Structural equality key: blocks, edges and function membership,
    /// ignoring derived indexes. Two CFGs constructed by different
    /// schedules (serial vs. parallel, different thread counts) must
    /// produce equal canonical forms — the paper's determinism claim
    /// ("the relative speed of threads will not impact the final
    /// results", Section 5.2).
    pub fn canonical(&self) -> CanonicalCfg {
        CanonicalCfg {
            blocks: self.blocks.values().map(|b| (b.start, b.end)).collect(),
            edges: self.edges.clone(),
            functions: self
                .functions
                .values()
                .map(|f| (f.entry, f.blocks.clone(), f.ret_status))
                .collect(),
        }
    }
}

/// Order-independent structural form of a CFG, for equality assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalCfg {
    /// `(start, end)` for every block.
    pub blocks: Vec<(u64, u64)>,
    /// Sorted edges.
    pub edges: Vec<Edge>,
    /// `(entry, member blocks, ret status)` per function.
    pub functions: Vec<(u64, Vec<u64>, RetStatus)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Arc<CodeRegion> {
        // mov rbp, rsp ; ret  at 0x1000
        Arc::new(CodeRegion::new(Arch::X86_64, 0x1000, vec![0x48, 0x89, 0xE5, 0xC3]))
    }

    fn tiny_cfg() -> Cfg {
        let mut blocks = BTreeMap::new();
        blocks.insert(0x1000, Block { start: 0x1000, end: 0x1003 });
        blocks.insert(0x1003, Block { start: 0x1003, end: 0x1004 });
        let edges = vec![Edge { src: 0x1000, dst: 0x1003, kind: EdgeKind::Fallthrough }];
        let mut functions = BTreeMap::new();
        functions.insert(
            0x1000,
            Function {
                entry: 0x1000,
                name: "f".into(),
                blocks: vec![0x1000, 0x1003],
                ret_status: RetStatus::Returns,
            },
        );
        Cfg::new(blocks, edges, functions, region())
    }

    #[test]
    fn edge_indexes() {
        let cfg = tiny_cfg();
        assert_eq!(cfg.out_edges(0x1000).len(), 1);
        assert_eq!(cfg.in_edges(0x1003).len(), 1);
        assert!(cfg.out_edges(0x1003).is_empty());

        // Any order, duplicates included: stored once, each array sorted.
        let e = |src, dst, kind| Edge { src, dst, kind };
        let (a, b, c) = (0x1000, 0x1003, 0x0F00);
        let cfg = Cfg::new(
            BTreeMap::new(),
            vec![
                e(b, a, EdgeKind::Direct),
                e(a, c, EdgeKind::Call),
                e(a, b, EdgeKind::CondTaken),
                e(c, b, EdgeKind::Direct),
                e(a, b, EdgeKind::CondTaken),
                e(a, b, EdgeKind::Fallthrough),
                e(b, a, EdgeKind::Direct),
            ],
            BTreeMap::new(),
            region(),
        );
        assert_eq!(
            cfg.edges(),
            &[
                e(c, b, EdgeKind::Direct),
                e(a, c, EdgeKind::Call),
                e(a, b, EdgeKind::Fallthrough),
                e(a, b, EdgeKind::CondTaken),
                e(b, a, EdgeKind::Direct),
            ]
        );
        assert_eq!(cfg.out_edges(a), &cfg.edges()[1..4]);
        assert_eq!(cfg.out_edges(b), &[e(b, a, EdgeKind::Direct)]);
        // In-edges by source, then kind (not kind first).
        assert_eq!(
            cfg.in_edges(b),
            &[
                e(c, b, EdgeKind::Direct),
                e(a, b, EdgeKind::Fallthrough),
                e(a, b, EdgeKind::CondTaken),
            ]
        );
        assert_eq!(cfg.in_edges(a), &[e(b, a, EdgeKind::Direct)]);
        assert_eq!(cfg.in_edges(c), &[e(a, c, EdgeKind::Call)]);
        assert!(cfg.in_edges(0x1001).is_empty() && cfg.out_edges(0x3000).is_empty());
    }

    #[test]
    fn function_ranges_merge_contiguous_blocks() {
        let cfg = tiny_cfg();
        let f = &cfg.functions[&0x1000];
        assert_eq!(f.ranges(&cfg), vec![(0x1000, 0x1004)]);
    }

    #[test]
    fn function_ranges_keep_gaps() {
        let mut cfg = tiny_cfg();
        cfg.blocks.insert(0x2000, Block { start: 0x2000, end: 0x2010 });
        cfg.functions.get_mut(&0x1000).unwrap().blocks.push(0x2000);
        let f = &cfg.functions[&0x1000];
        assert_eq!(f.ranges(&cfg), vec![(0x1000, 0x1004), (0x2000, 0x2010)]);
    }

    #[test]
    fn code_region_decoding() {
        let r = region();
        let insns = r.insns(0x1000, 0x1004);
        assert_eq!(insns.len(), 2);
        assert_eq!(insns[0].mnemonic(), "mov");
        assert_eq!(insns[1].mnemonic(), "ret");
        assert!(r.decode(0x0FFF).is_none());
    }

    #[test]
    fn canonical_ignores_index_state() {
        let a = tiny_cfg();
        let b = tiny_cfg();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn interprocedural_classification() {
        assert!(EdgeKind::Call.is_interprocedural());
        assert!(EdgeKind::TailCall.is_interprocedural());
        assert!(!EdgeKind::CallFallthrough.is_interprocedural());
        assert!(!EdgeKind::Indirect.is_interprocedural());
        assert!(!EdgeKind::Fallthrough.is_interprocedural());
    }
}
