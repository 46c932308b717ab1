//! Immediate dominators (Cooper-Harvey-Kennedy "A Simple, Fast Dominance
//! Algorithm").
//!
//! The tree is stored densely: `idom` is a `Vec<u32>` of reverse-postorder
//! positions (the entry maps to itself), and the address → position map is
//! a shared [`BlockIndex`] binary search rather than a hash map. Address-
//! keyed queries ([`DomTree::dominates`], [`DomTree::idom_of`]) sit on top
//! as the compat seam, so consumers are unchanged.

use crate::engine::FlowGraph;
use crate::view::CfgView;
use pba_cfg::BlockIndex;

/// A computed dominator tree over one function's reachable blocks.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Blocks in reverse postorder (entry first). Unreachable blocks are
    /// excluded — they cannot participate in natural loops.
    pub rpo: Vec<u64>,
    /// Immediate dominator per RPO position (the entry maps to itself).
    /// For every non-entry position `i`, `idom[i] < i`, so dominance
    /// walks strictly descend.
    idom: Vec<u32>,
    /// Address → RPO position.
    index: BlockIndex,
}

impl DomTree {
    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: u64, b: u64) -> bool {
        let (Some(pa), Some(mut pb)) = (self.index.get(a), self.index.get(b)) else {
            return false;
        };
        // Climb b's dominator chain until it passes a's position: idoms
        // always have smaller RPO positions, so the walk terminates.
        while pb > pa {
            pb = self.idom[pb] as usize;
        }
        pb == pa
    }

    /// Immediate dominator of `b`, or `None` for the entry / unreachable
    /// blocks.
    pub fn idom_of(&self, b: u64) -> Option<u64> {
        let i = self.index.get(b)?;
        let p = self.idom[i] as usize;
        (p != i).then(|| self.rpo[p])
    }
}

/// Compute the dominator tree of the function in `view`, building a
/// throwaway [`FlowGraph`]. Prefer [`dominators_on`] when a graph (and
/// its memoized traversal) already exists — [`crate::ir::FuncIr`]
/// carries one.
pub fn dominators(view: &dyn CfgView) -> DomTree {
    dominators_on(view, &FlowGraph::build(view))
}

/// Compute the dominator tree over a prebuilt [`FlowGraph`], reusing the
/// graph's memoized entry-anchored RPO instead of re-traversing (and
/// re-indexing) the function per call.
pub fn dominators_on(view: &dyn CfgView, graph: &FlowGraph) -> DomTree {
    let rpo = graph.entry_rpo();
    let index = BlockIndex::new(&rpo);
    if rpo.is_empty() {
        return DomTree { rpo, idom: Vec::new(), index };
    }

    let mut idom: Vec<Option<u32>> = vec![None; rpo.len()];
    idom[0] = Some(0);

    let intersect = |idom: &[Option<u32>], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while a > b {
                a = idom[a as usize].expect("processed");
            }
            while b > a {
                b = idom[b as usize].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for (i, &b) in rpo.iter().enumerate().skip(1) {
            let mut new_idom: Option<u32> = None;
            for &(p, _) in view.pred_edges(b) {
                let Some(pi) = index.get(p) else { continue };
                if idom[pi].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => pi as u32,
                    Some(cur) => intersect(&idom, cur, pi as u32),
                });
            }
            if let Some(ni) = new_idom {
                if idom[i] != Some(ni) {
                    idom[i] = Some(ni);
                    changed = true;
                }
            }
        }
    }

    // Every reachable non-entry block has a reachable predecessor that
    // appears earlier in RPO, so the first pass already settled them all.
    let idom: Vec<u32> =
        idom.into_iter().map(|d| d.expect("reachable blocks acquire an idom")).collect();
    DomTree { rpo, idom, index }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;

    fn view(entry: u64, blocks: &[u64], edges: &[(u64, u64)]) -> VecView {
        VecView::new(
            entry,
            blocks.iter().map(|&b| (b, b + 1, vec![])).collect(),
            edges.iter().map(|&(a, b)| (a, b, EdgeKind::Direct)).collect(),
        )
    }

    #[test]
    fn diamond() {
        // 1 -> 2, 3 ; 2 -> 4 ; 3 -> 4
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (1, 3), (2, 4), (3, 4)]);
        let d = dominators(&v);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(1));
        assert_eq!(d.idom_of(4), Some(1), "join point dominated by the fork");
        assert!(d.dominates(1, 4));
        assert!(!d.dominates(2, 4));
        assert!(d.dominates(4, 4));
    }

    #[test]
    fn chain() {
        let v = view(1, &[1, 2, 3], &[(1, 2), (2, 3)]);
        let d = dominators(&v);
        assert_eq!(d.idom_of(3), Some(2));
        assert!(d.dominates(1, 3));
        assert_eq!(d.idom_of(1), None, "entry has no idom");
    }

    #[test]
    fn loop_back_edge() {
        // 1 -> 2 -> 3 -> 2, 3 -> 4
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 2), (3, 4)]);
        let d = dominators(&v);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(2));
        assert!(d.dominates(2, 3), "header dominates the back-edge source");
    }

    #[test]
    fn unreachable_blocks_ignored() {
        let v = view(1, &[1, 2, 99], &[(1, 2)]);
        let d = dominators(&v);
        assert_eq!(d.rpo, vec![1, 2]);
        assert_eq!(d.idom_of(99), None);
        assert!(!d.dominates(1, 99));
        assert!(!d.dominates(99, 99), "unreachable blocks are outside the tree");
    }

    #[test]
    fn irreducible_graph_terminates() {
        // 1 -> 2, 3 ; 2 <-> 3 (two-way) ; both -> 4.
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (1, 3), (2, 3), (3, 2), (2, 4), (3, 4)]);
        let d = dominators(&v);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(1));
        assert_eq!(d.idom_of(4), Some(1));
    }

    #[test]
    fn prebuilt_graph_matches_legacy_entry_point() {
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 2), (3, 4)]);
        let g = FlowGraph::build(&v);
        let a = dominators(&v);
        let b = dominators_on(&v, &g);
        assert_eq!(a.rpo, b.rpo);
        for &blk in &a.rpo {
            assert_eq!(a.idom_of(blk), b.idom_of(blk));
        }
    }
}
