//! The CFG view the analyses run over.
//!
//! Since the decode-once refactor this is a *borrowing* API: every
//! method hands out references into storage the view already owns, so
//! asking for a block's instructions, the block list, or an adjacency
//! list costs neither a decode nor an allocation. Three implementations
//! exist: [`crate::ir::FuncIr`] over a finalized [`pba_cfg::Cfg`] (the
//! one the applications use — slices of the binary's one
//! decoded-instruction arena, built once), the parser's internal
//! snapshot of a function mid-construction (what jump-table slicing
//! runs on while the CFG is still growing), and [`VecView`] for unit
//! tests.

use pba_cfg::EdgeKind;
use pba_isa::Insn;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Read-only view of one function's intra-procedural CFG.
///
/// `Sync` is a supertrait: views are the read-only artifact the paper's
/// parallel analysis phase shares across threads.
pub trait CfgView: Sync {
    /// Entry block start address.
    fn entry(&self) -> u64;

    /// Start addresses of all member blocks, ascending: the analyses
    /// find a block's dense id by binary search in this list.
    fn blocks(&self) -> &[u64];

    /// `[start, end)` of a block; `(block, block)` for a non-member.
    fn block_range(&self, block: u64) -> (u64, u64);

    /// Intra-procedural successor edges `(target block, kind)`. Every
    /// target is a member block (one of [`CfgView::blocks`]): edges to
    /// anything else are not part of the view.
    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)];

    /// Intra-procedural predecessor edges `(source block, kind)`. Every
    /// source is a member block, as for [`CfgView::succ_edges`].
    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)];

    /// Decoded instructions of a block, in address order. Implementors
    /// decode each block at most once for the view's lifetime.
    fn insns(&self, block: u64) -> &[Insn];

    /// Whether the block's last instruction is a call with a
    /// fall-through (affects liveness at call boundaries). Read off the
    /// (already decoded) terminator.
    fn ends_in_call(&self, block: u64) -> bool {
        self.insns(block)
            .last()
            .map(|i| {
                matches!(
                    i.control_flow(),
                    pba_isa::ControlFlow::Call { .. } | pba_isa::ControlFlow::IndirectCall
                )
            })
            .unwrap_or(false)
    }
}

/// Derived indexes a [`VecView`] serves slices from, built lazily on
/// first use. `blocks` is sorted, per the [`CfgView::blocks`] contract.
#[derive(Debug, Default)]
struct VecViewIndex {
    blocks: Vec<u64>,
    succs: HashMap<u64, Vec<(u64, EdgeKind)>>,
    preds: HashMap<u64, Vec<(u64, EdgeKind)>>,
}

/// A self-contained in-memory view for unit tests: blocks, edges and
/// pre-decoded instructions, no ELF required.
///
/// The public fields may be filled directly (or via [`VecView::new`]);
/// mutate them only *before* the first analysis runs over the view —
/// the borrowed accessors build their index once, on first use. Edges
/// whose source or destination is not in `block_data` are left out of
/// that index, per the [`CfgView`] edge contract.
#[derive(Default)]
pub struct VecView {
    /// Entry block.
    pub entry_block: u64,
    /// `(start, end, insns)` per block.
    pub block_data: Vec<(u64, u64, Vec<Insn>)>,
    /// `(src, dst, kind)` intra-procedural edges.
    pub edges: Vec<(u64, u64, EdgeKind)>,
    /// Lazily built index behind the borrowing accessors.
    derived: OnceLock<VecViewIndex>,
}

impl VecView {
    /// Build a view from its parts.
    pub fn new(
        entry_block: u64,
        block_data: Vec<(u64, u64, Vec<Insn>)>,
        edges: Vec<(u64, u64, EdgeKind)>,
    ) -> VecView {
        VecView { entry_block, block_data, edges, derived: OnceLock::new() }
    }

    fn index(&self) -> &VecViewIndex {
        self.derived.get_or_init(|| {
            let mut blocks: Vec<u64> = self.block_data.iter().map(|b| b.0).collect();
            blocks.sort_unstable();
            let mut idx = VecViewIndex { blocks, ..Default::default() };
            let member = |b: u64| idx.blocks.binary_search(&b).is_ok();
            for &(src, dst, kind) in self.edges.iter().filter(|e| member(e.0) && member(e.1)) {
                idx.succs.entry(src).or_default().push((dst, kind));
                idx.preds.entry(dst).or_default().push((src, kind));
            }
            idx
        })
    }
}

impl CfgView for VecView {
    fn entry(&self) -> u64 {
        self.entry_block
    }

    fn blocks(&self) -> &[u64] {
        &self.index().blocks
    }

    fn block_range(&self, block: u64) -> (u64, u64) {
        self.block_data.iter().find(|b| b.0 == block).map_or((block, block), |b| (b.0, b.1))
    }

    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.index().succs.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.index().preds.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn insns(&self, block: u64) -> &[Insn] {
        self.block_data.iter().find(|b| b.0 == block).map(|b| b.2.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_view_keeps_the_view_contract() {
        let v = VecView::new(
            0x30,
            vec![(0x30, 0x38, vec![]), (0x10, 0x18, vec![]), (0x20, 0x28, vec![])],
            vec![(0x30, 0x10, EdgeKind::Direct), (0x10, 0x20, EdgeKind::Fallthrough)],
        );
        assert_eq!(v.blocks(), &[0x10, 0x20, 0x30], "ascending, whatever the block_data order");
        assert_eq!(v.block_range(0x20), (0x20, 0x28));
        assert_eq!(v.block_range(0x99), (0x99, 0x99), "a non-member is empty, not a panic");
        assert_eq!(v.succ_edges(0x30), &[(0x10, EdgeKind::Direct)]);
        assert_eq!(v.pred_edges(0x20), &[(0x10, EdgeKind::Fallthrough)]);
    }
}
