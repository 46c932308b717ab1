//! In-flight function view for jump-table slicing.
//!
//! Jump-table analysis and the fixed-point re-analysis run *while the
//! CFG is still growing*. This view snapshots one function's currently
//! known intra-procedural subgraph — blocks reachable from the entry
//! over non-inter-procedural edges — which is monotonically growing, so
//! a stale snapshot can only under-approximate (and the fixed-point
//! rounds recover whatever was missed; Section 5.3).
//!
//! It serves slicing only: [`pba_dataflow::slice_cone`] needs
//! predecessor edges and instructions, which is what the adjacency rows
//! and the lazy decode below are for. The status sweeps, which only ask
//! whether a subgraph holds a `ret`, walk the shared maps directly
//! (`traverse::walk_function`) and build no view.
//!
//! Building a view is one walk over the shared maps into flat arrays:
//! the blocks sorted by address, their ends, and the successor and
//! predecessor rows as [`Csr`]s. Nothing is decoded up front. The
//! borrowing [`CfgView`] contract ("each block decoded at most once per
//! view") is met lazily: a block's instructions are decoded on the first
//! `insns` call and cached in a per-block `OnceLock`, so a slice decodes
//! only the blocks of its backward cone its path states reach, once —
//! and a view whose cones all match the ones last sliced
//! ([`SnapshotView::cone_key`]) decodes nothing.
//!
//! The jump-table fixed point keeps one view per function across its
//! rounds: [`SnapshotView::is_current`] tells, from the addresses the
//! state recorded as changed since (`State::touch`), whether a rebuild
//! would give the same view — if so, the kept view, its decoded blocks
//! and its tables' cones stand.

use crate::state::State;
use pba_cfg::{CodeRegion, Csr, EdgeKind};
use pba_concurrent::fxhash::FxHashSet;
use pba_dataflow::CfgView;
use pba_isa::Insn;
use std::sync::{Arc, OnceLock};

/// Snapshot of one function's known subgraph.
pub struct SnapshotView {
    entry: u64,
    /// Member block starts, ascending: the dense order of every array
    /// here.
    blocks: Vec<u64>,
    /// Each member's end.
    ends: Vec<u64>,
    /// Each member's intra-procedural out-edges to members, in map order.
    succs: Csr<(u64, EdgeKind)>,
    /// Each member's intra-procedural in-edges from members.
    preds: Csr<(u64, EdgeKind)>,
    /// Each member's instructions, decoded on first use.
    insns: Vec<OnceLock<Vec<Insn>>>,
    code: Arc<CodeRegion>,
    /// The `ensure` list the view was built with, sorted.
    ensure: Vec<u64>,
    /// Every block start the walk looked up, member or not.
    visited: FxHashSet<u64>,
}

impl SnapshotView {
    /// Build by a walk from `entry` over intra-procedural edges. Blocks
    /// of `ensure` the walk did not reach (the path from the entry is
    /// still being parsed) are added in isolation, so jump-table
    /// analysis can at least classify the dispatch form.
    pub fn build(state: &State<'_>, entry: u64, ensure: &[u64]) -> SnapshotView {
        state.stats.jt_views.inc();
        let mut members: Vec<(u64, u64)> = Vec::new();
        let mut edges: Vec<(u64, u64, EdgeKind)> = Vec::new();
        let mut visited: FxHashSet<u64> = FxHashSet::default();
        let mut work = vec![entry];
        while let Some(b) = work.pop() {
            if !visited.insert(b) {
                continue;
            }
            let end = state.blocks.find(&b).map_or(0, |rec| rec.end);
            if end == 0 {
                continue; // still being parsed, or not there at all
            }
            members.push((b, end));
            if let Some(out) = state.edges.find(&end) {
                for &(dst, kind) in out.iter().filter(|(_, k)| !k.is_interprocedural()) {
                    edges.push((b, dst, kind));
                    work.push(dst);
                }
            }
        }
        members.sort_unstable();
        for &b in ensure {
            if members.binary_search_by_key(&b, |m| m.0).is_err() {
                let end = state.blocks.find(&b).map_or(0, |rec| rec.end);
                if end != 0 {
                    members.insert(members.partition_point(|m| m.0 < b), (b, end));
                }
            }
        }
        let (blocks, ends): (Vec<u64>, Vec<u64>) = members.into_iter().unzip();
        // Edges to blocks that were never materialized are dropped. A
        // source's edges were pushed together, in map order, so each
        // row keeps that order.
        let id = |b: u64| blocks.binary_search(&b).ok();
        let kept: Vec<(usize, usize, EdgeKind)> =
            edges.iter().filter_map(|&(src, dst, kind)| Some((id(src)?, id(dst)?, kind))).collect();
        let succs = Csr::group(blocks.len(), kept.iter().map(|&(i, j, k)| (i, (blocks[j], k))));
        let preds = Csr::group(blocks.len(), kept.iter().map(|&(i, j, k)| (j, (blocks[i], k))));
        let insns = blocks.iter().map(|_| OnceLock::new()).collect();
        let code = state.input.code.clone();
        let mut ensure = ensure.to_vec();
        ensure.sort_unstable();
        SnapshotView { entry, blocks, ends, succs, preds, insns, code, ensure, visited }
    }

    /// Whether [`SnapshotView::build`] with `ensure` (sorted) would give
    /// this view now, given that the shared maps changed since it was
    /// built only at the addresses `touched` (`State::take_touched`): it
    /// was built with the same list, and no block start or end it read
    /// was touched.
    pub fn is_current(&self, ensure: &[u64], touched: &FxHashSet<u64>) -> bool {
        let untouched = |a: &u64| !touched.contains(a);
        self.ensure == ensure
            && self.ensure.iter().all(untouched)
            && self.visited.iter().all(untouched)
            && self.ends.iter().all(untouched)
    }

    /// Number of blocks captured.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the entry block has not been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    fn id(&self, block: u64) -> Option<usize> {
        self.blocks.binary_search(&block).ok()
    }

    /// Everything a slice of the jump ending `jump_block` reads of this
    /// view, given its [`pba_dataflow::backward_cone`] `cone`: the entry,
    /// the jump block, every cone block with its end (its instructions
    /// are those bytes), and the edges among cone blocks in the order the
    /// slice's graph takes them. Slicing is deterministic, so two views
    /// with equal keys slice the jump to the same outcome — the
    /// jump-table fixed point's memo.
    pub fn cone_key(&self, jump_block: u64, cone: &[u64]) -> Vec<u64> {
        let mut key = vec![self.entry, jump_block, cone.len() as u64];
        for &b in cone {
            key.extend([b, self.block_range(b).1]);
        }
        for &b in cone {
            for &(d, kind) in self.succ_edges(b) {
                if cone.binary_search(&d).is_ok() {
                    key.extend([b, d, kind as u64]);
                }
            }
        }
        key
    }
}

impl CfgView for SnapshotView {
    fn entry(&self) -> u64 {
        self.entry
    }

    fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    fn block_range(&self, block: u64) -> (u64, u64) {
        (block, self.id(block).map(|i| self.ends[i]).unwrap_or(block))
    }

    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.id(block).map(|i| self.succs.row(i)).unwrap_or(&[])
    }

    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.id(block).map(|i| self.preds.row(i)).unwrap_or(&[])
    }

    fn insns(&self, block: u64) -> &[Insn] {
        match self.id(block) {
            Some(i) => self.insns[i].get_or_init(|| self.code.insns(block, self.ends[i])),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParseConfig;
    use crate::input::ParseInput;
    use pba_isa::Arch;

    /// Everything a view hands out or remembers, for comparing two views.
    #[allow(clippy::type_complexity)]
    fn shape(
        v: &SnapshotView,
    ) -> (Vec<u64>, Vec<(u64, u64)>, Vec<Vec<(u64, EdgeKind)>>, Vec<Vec<(u64, EdgeKind)>>, Vec<u64>)
    {
        let mut visited: Vec<u64> = v.visited.iter().copied().collect();
        visited.sort_unstable();
        let ranges = v.blocks.iter().map(|&b| v.block_range(b)).collect();
        let succs = v.blocks.iter().map(|&b| v.succ_edges(b).to_vec()).collect();
        let preds = v.blocks.iter().map(|&b| v.pred_edges(b).to_vec()).collect();
        (v.blocks.clone(), ranges, succs, preds, visited)
    }

    fn block(s: &State<'_>, start: u64, end: u64) {
        s.create_block(start);
        s.register_end(start, end);
    }

    /// A view that [`SnapshotView::is_current`] calls current is the
    /// view a build gives now; and a split block, a block registered
    /// late, or a new edge from a member each make it not current — and
    /// show in the rebuilt view, along with an edge from a block the
    /// entry did not reach before.
    #[test]
    fn a_current_view_is_the_view_a_build_gives() {
        let input = ParseInput::from_parts(
            pba_cfg::CodeRegion::new(Arch::X86_64, 0x1000, vec![0x90; 0x400]),
            vec![],
            vec![],
        );
        let cfg = ParseConfig::default();
        let s = State::new(&input, &cfg);
        // 0x1000 -> 0x1040 -> 0x1080 (the jump block), 0x1000 -> 0x10c0
        // (created, not registered yet); 0x1200 -> 0x1080 is not reachable
        // from the entry.
        block(&s, 0x1000, 0x1020);
        block(&s, 0x1040, 0x1060);
        block(&s, 0x1080, 0x10a0);
        block(&s, 0x1200, 0x1220);
        s.create_block(0x10c0);
        s.add_edge(0x1020, 0x1040, EdgeKind::CondTaken);
        s.add_edge(0x1020, 0x10c0, EdgeKind::CondNotTaken);
        s.add_edge(0x1060, 0x1080, EdgeKind::Direct);
        s.add_edge(0x1220, 0x1080, EdgeKind::Direct);
        s.add_edge(0x1060, 0x1300, EdgeKind::Call);
        let ensure = [0x1080];
        s.track_changes();
        let v0 = SnapshotView::build(&s, 0x1000, &ensure);
        assert_eq!(v0.blocks, vec![0x1000, 0x1040, 0x1080]);
        assert!(v0.pred_edges(0x1080).iter().all(|&(p, _)| p != 0x1200), "not reachable");
        assert!(v0.is_current(&ensure, &s.take_touched()), "nothing changed");
        assert!(!v0.is_current(&[0x1080, 0x1200], &FxHashSet::default()), "another list");

        // Changes the walk does not read: an edge into the entry from
        // elsewhere, a block created but not registered.
        s.add_edge(0x1500, 0x1000, EdgeKind::Direct);
        s.create_block(0x1600);
        assert!(v0.is_current(&ensure, &s.take_touched()));
        assert_eq!(shape(&v0), shape(&SnapshotView::build(&s, 0x1000, &ensure)));

        let key = |v: &SnapshotView| v.cone_key(0x1080, &pba_dataflow::backward_cone(v, 0x1080));
        let mut last_key = key(&v0);
        for change in 0..3 {
            match change {
                // 0x10c0 registers, and reaches 0x1200.
                0 => {
                    s.register_end(0x10c0, 0x10e0);
                    s.add_edge(0x10e0, 0x1200, EdgeKind::Fallthrough);
                }
                // 0x1050 splits 0x1040.
                1 => block(&s, 0x1050, 0x1060),
                // The entry block gains an edge straight to the jump.
                _ => {
                    s.add_edge(0x1020, 0x1080, EdgeKind::Direct);
                }
            }
            let v = SnapshotView::build(&s, 0x1000, &ensure);
            assert!(!v0.is_current(&ensure, &s.take_touched()), "change {change}");
            assert_ne!(shape(&v), shape(&v0), "change {change}");
            // Each change moves the jump's cone: blocks join it, a block
            // in it ends earlier, two of its blocks gain an edge.
            assert_ne!(key(&v), last_key, "change {change}");
            last_key = key(&v);
        }
        let v = SnapshotView::build(&s, 0x1000, &ensure);
        assert_eq!(v.blocks, vec![0x1000, 0x1040, 0x1050, 0x1080, 0x10c0, 0x1200]);
        assert_eq!(v.block_range(0x1040), (0x1040, 0x1050), "the split shows");
        assert!(v.pred_edges(0x1080).contains(&(0x1000, EdgeKind::Direct)));
        let cone = pba_dataflow::backward_cone(&v, 0x1080);
        assert!(cone.contains(&0x1200), "a block reached late joins the cone");
    }
}
