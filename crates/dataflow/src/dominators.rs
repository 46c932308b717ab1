//! Immediate dominators (Cooper-Harvey-Kennedy "A Simple, Fast Dominance
//! Algorithm") on a [`FlowGraph`]'s dense block ids.
//!
//! The tree is one `Vec<u32>` indexed by dense id: each block's immediate
//! dominator, the entry mapping to itself. The iteration order and the
//! intersection walk read the graph's memoized forward RPO ranks, so no
//! second numbering of the blocks is built.

use crate::engine::FlowGraph;

/// The immediate dominator of a block the entry cannot reach (and,
/// while the tree is built, of one not settled yet).
const NONE: u32 = u32::MAX;

/// A computed dominator tree over one function's reachable blocks.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per dense id: the entry maps to itself,
    /// blocks the entry cannot reach to [`NONE`].
    idom: Vec<u32>,
}

impl DomTree {
    /// Does block `a` dominate block `b` (dense ids)? Reflexive: every
    /// reachable block dominates itself. Blocks the entry cannot reach
    /// dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, mut b: usize) -> bool {
        if self.idom[a] == NONE || self.idom[b] == NONE {
            return false;
        }
        // Climb b's dominator chain; it ends at the entry, its own idom.
        while b != a {
            let up = self.idom[b] as usize;
            if up == b {
                return false;
            }
            b = up;
        }
        true
    }
}

/// Compute the dominator tree of `graph`'s function, visiting blocks in
/// the graph's memoized forward reverse postorder.
pub fn dominators_on(graph: &FlowGraph) -> DomTree {
    let (rank, reachable) = graph.forward_ranks();
    let mut idom = vec![NONE; rank.len()];
    if reachable == 0 {
        return DomTree { idom };
    }
    // The reachable blocks in reverse postorder, the entry first.
    let mut order = vec![0u32; reachable];
    for (b, &r) in rank.iter().enumerate() {
        if (r as usize) < reachable {
            order[r as usize] = b as u32;
        }
    }
    idom[order[0] as usize] = order[0];

    // Settled idoms always rank below their block, so both fingers climb
    // towards the entry until they meet.
    let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while rank[a as usize] > rank[b as usize] {
                a = idom[a as usize];
            }
            while rank[b as usize] > rank[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };

    // Every reachable non-entry block has a reachable predecessor that
    // ranks below it, so the first pass settles every block.
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order[1..] {
            let mut new_idom = NONE;
            for &(p, _) in graph.preds.row(b as usize) {
                if idom[p as usize] == NONE {
                    continue;
                }
                new_idom = if new_idom == NONE { p } else { intersect(&idom, new_idom, p) };
            }
            if idom[b as usize] != new_idom {
                idom[b as usize] = new_idom;
                changed = true;
            }
        }
    }
    DomTree { idom }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;

    /// A view's graph and dominator tree, queried by block address.
    struct Dom {
        graph: FlowGraph,
        tree: DomTree,
    }

    impl Dom {
        fn of(entry: u64, blocks: &[u64], edges: &[(u64, u64)]) -> Dom {
            let v = VecView::new(
                entry,
                blocks.iter().map(|&b| (b, b + 1, vec![])).collect(),
                edges.iter().map(|&(a, b)| (a, b, EdgeKind::Direct)).collect(),
            );
            let graph = FlowGraph::build(&v);
            let tree = dominators_on(&graph);
            Dom { graph, tree }
        }

        /// The immediate dominator of `b`: `None` for the entry and
        /// for blocks the entry cannot reach.
        fn idom_of(&self, b: u64) -> Option<u64> {
            let i = self.graph.id(b)?;
            let p = self.tree.idom[i];
            (p != NONE && p as usize != i).then(|| self.graph.blocks[p as usize])
        }

        fn dominates(&self, a: u64, b: u64) -> bool {
            self.tree.dominates(self.graph.id(a).unwrap(), self.graph.id(b).unwrap())
        }
    }

    #[test]
    fn diamond() {
        // 1 -> 2, 3 ; 2 -> 4 ; 3 -> 4
        let d = Dom::of(1, &[1, 2, 3, 4], &[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(1));
        assert_eq!(d.idom_of(4), Some(1), "join point dominated by the fork");
        assert!(d.dominates(1, 4));
        assert!(!d.dominates(2, 4));
        assert!(d.dominates(4, 4));
    }

    #[test]
    fn chain() {
        let d = Dom::of(1, &[1, 2, 3], &[(1, 2), (2, 3)]);
        assert_eq!(d.idom_of(3), Some(2));
        assert!(d.dominates(1, 3));
        assert_eq!(d.idom_of(1), None, "entry has no idom");
    }

    #[test]
    fn loop_back_edge() {
        // 1 -> 2 -> 3 -> 2, 3 -> 4
        let d = Dom::of(1, &[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 2), (3, 4)]);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(2));
        assert!(d.dominates(2, 3), "header dominates the back-edge source");
    }

    #[test]
    fn unreachable_blocks_ignored() {
        let d = Dom::of(1, &[1, 2, 99], &[(1, 2)]);
        assert_eq!(d.idom_of(99), None);
        assert!(!d.dominates(1, 99));
        assert!(!d.dominates(99, 99), "unreachable blocks are outside the tree");
    }

    #[test]
    fn irreducible_graph_terminates() {
        // 1 -> 2, 3 ; 2 <-> 3 (two-way) ; both -> 4.
        let d = Dom::of(1, &[1, 2, 3, 4], &[(1, 2), (1, 3), (2, 3), (3, 2), (2, 4), (3, 4)]);
        assert_eq!(d.idom_of(2), Some(1));
        assert_eq!(d.idom_of(3), Some(1));
        assert_eq!(d.idom_of(4), Some(1));
    }
}
