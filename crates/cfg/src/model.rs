//! The concrete CFG consumed by binary-analysis applications.
//!
//! Produced by `pba-parse` after finalization, then treated as read-only:
//! "after the CFG has been fully constructed, binary analysis will
//! typically no longer make modifications to the CFG. Therefore, the CFG
//! becomes read-only and different threads can safely perform analysis
//! independently" (paper Section 7.2). All containers here are plain
//! (non-concurrent); `&Cfg` is `Sync` and that is all the parallel
//! application pattern needs.

use crate::index::BlockIndex;
use pba_isa::{decoder_for, Arch, Insn};
use std::collections::{BTreeMap, BTreeSet};
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
    /// ([`CodeRegion::insns`] — the path every analysis consumer takes;
    /// clones share the counter). The decode-once invariant of the
    /// shared analysis IR is asserted against exactly this number.
    decodes: Arc<pba_concurrent::Counter>,
}

impl CodeRegion {
    /// Construct a region.
    pub fn new(arch: Arch, base: u64, bytes: Vec<u8>) -> CodeRegion {
        CodeRegion { arch, base, bytes, decodes: Arc::new(pba_concurrent::Counter::new()) }
    }

    /// How many instructions block reads ([`CodeRegion::insns`]) have
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

    /// Iterate the instructions of `[start, end)` in address order.
    /// Stops early on a decode failure (which a finalized CFG's blocks
    /// never trigger). Adds the decoded count to [`Self::decode_count`]
    /// in one batched increment.
    pub fn insns(&self, start: u64, end: u64) -> Vec<Insn> {
        let mut out = Vec::new();
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
        if !out.is_empty() {
            self.decodes.add(out.len() as u64);
        }
        out
    }
}

/// A finalized control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
    /// All edges.
    pub edges: BTreeSet<Edge>,
    /// Functions keyed by entry address.
    pub functions: BTreeMap<u64, Function>,
    /// The code the graph was parsed from.
    pub code: Arc<CodeRegion>,
    /// Dense ids for every edge endpoint (derived; built by
    /// [`Cfg::index`]). The adjacency below is indexed by it, replacing
    /// the former addr-keyed hash maps.
    edge_nodes: BlockIndex,
    /// Out-edge adjacency, indexed by [`Cfg::edge_nodes`] id.
    succs: Vec<Vec<Edge>>,
    /// In-edge adjacency, indexed by [`Cfg::edge_nodes`] id.
    preds: Vec<Vec<Edge>>,
}

impl Cfg {
    /// Assemble a CFG and build its edge indexes.
    pub fn new(
        blocks: BTreeMap<u64, Block>,
        edges: BTreeSet<Edge>,
        functions: BTreeMap<u64, Function>,
        code: Arc<CodeRegion>,
    ) -> Cfg {
        let mut cfg = Cfg {
            blocks,
            edges,
            functions,
            code,
            edge_nodes: BlockIndex::default(),
            succs: Vec::new(),
            preds: Vec::new(),
        };
        cfg.index();
        cfg
    }

    fn index(&mut self) {
        let mut nodes: Vec<u64> = self.edges.iter().flat_map(|e| [e.src, e.dst]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        self.edge_nodes = BlockIndex::new(&nodes);
        self.succs = vec![Vec::new(); nodes.len()];
        self.preds = vec![Vec::new(); nodes.len()];
        for &e in &self.edges {
            self.succs[self.edge_nodes.get(e.src).expect("src indexed")].push(e);
            self.preds[self.edge_nodes.get(e.dst).expect("dst indexed")].push(e);
        }
        for v in self.succs.iter_mut().chain(self.preds.iter_mut()) {
            v.sort_unstable();
        }
    }

    /// Outgoing edges of the block starting at `b` (address-keyed seam
    /// over the dense adjacency).
    pub fn out_edges(&self, b: u64) -> &[Edge] {
        self.edge_nodes.get(b).map(|i| self.succs[i].as_slice()).unwrap_or(&[])
    }

    /// Incoming edges of the block starting at `b` (address-keyed seam
    /// over the dense adjacency).
    pub fn in_edges(&self, b: u64) -> &[Edge] {
        self.edge_nodes.get(b).map(|i| self.preds[i].as_slice()).unwrap_or(&[])
    }

    /// Total instruction count (re-decodes; cheap enough for reporting).
    pub fn insn_count(&self) -> usize {
        self.blocks.values().map(|b| self.code.insns(b.start, b.end).len()).sum()
    }

    /// Estimated heap bytes held by this graph: blocks, edges, function
    /// membership, the dense edge adjacency, and the retained code
    /// bytes. An estimate (node-based containers are costed per entry),
    /// used by the session's resident-size accounting.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks = self.blocks.len() * (size_of::<u64>() + size_of::<Block>());
        let edges = self.edges.len() * size_of::<Edge>();
        let functions: usize = self
            .functions
            .values()
            .map(|f| size_of::<Function>() + f.name.capacity() + f.blocks.capacity() * 8)
            .sum();
        let adjacency: usize = self
            .succs
            .iter()
            .chain(self.preds.iter())
            .map(|v| size_of::<Vec<Edge>>() + v.capacity() * size_of::<Edge>())
            .sum();
        blocks
            + edges
            + functions
            + adjacency
            + self.edge_nodes.heap_bytes()
            + self.code.bytes.capacity()
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
            edges: self.edges.iter().copied().collect(),
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
        let mut edges = BTreeSet::new();
        edges.insert(Edge { src: 0x1000, dst: 0x1003, kind: EdgeKind::Fallthrough });
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
