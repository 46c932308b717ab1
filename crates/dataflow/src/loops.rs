//! Natural loops and the loop nesting forest, on the graph's dense ids.
//!
//! A back edge `t → h` exists when `h` dominates `t`; the natural loop of
//! `h` is `h` plus every block that reaches some back-edge source without
//! passing through `h`. Loops sharing a header are merged (multiple
//! `continue` paths). A loop that holds another loop's header holds that
//! whole loop, so each loop's parent is the innermost larger loop that
//! holds its header.
//!
//! Product code asks [`crate::ir::FuncIr::loop_forest`], which builds
//! each function's forest once for hpcstruct, BinFeat and the session.

use crate::dominators::dominators_on;
use crate::engine::FlowGraph;
use crate::view::CfgView;
use std::mem::size_of;
use std::sync::Arc;

/// No loop: the parent of a top-level loop, the innermost loop of a
/// block outside every loop, and an unmarked block during the flood.
const NONE: u32 = u32::MAX;

/// One natural loop of a [`LoopForest`]; its members are
/// [`LoopForest::body`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Header block.
    pub header: u64,
    /// 1 for outermost loops, +1 per nesting level.
    pub depth: u32,
    /// Index (into [`LoopForest::loops`]) of the innermost loop holding
    /// this one, [`NONE`] for an outermost loop.
    parent: u32,
    /// The members are `LoopForest::members[start..start + len]`.
    start: u32,
    len: u32,
}

impl Loop {
    /// Number of member blocks.
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// Index (into [`LoopForest::loops`]) of the innermost loop holding
    /// this one, or `None` for an outermost loop.
    pub fn parent(&self) -> Option<usize> {
        (self.parent != NONE).then_some(self.parent as usize)
    }
}

/// All loops of one function plus derived queries, stored flat over the
/// function graph's dense block ids.
#[derive(Debug, Clone)]
pub struct LoopForest {
    /// Loops by size descending, then header ascending: every loop comes
    /// after the loops that hold it.
    pub loops: Vec<Loop>,
    /// The graph's block list, ascending: dense id → address.
    blocks: Arc<Vec<u64>>,
    /// Every loop's members as ascending dense ids, one run per loop.
    members: Vec<u32>,
    /// Per dense id, the deepest loop holding the block ([`NONE`] if
    /// none); empty when the function has no loop.
    innermost: Vec<u32>,
}

impl LoopForest {
    /// Member block addresses of loop `i` (header included), ascending.
    pub fn body(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        let Loop { start, len, .. } = self.loops[i];
        let run = &self.members[start as usize..(start + len) as usize];
        run.iter().map(|&m| self.blocks[m as usize])
    }

    /// Nesting depth of `block`: 0 if not in any loop.
    pub fn depth_of(&self, block: u64) -> u32 {
        let i = self.blocks.binary_search(&block).ok();
        match i.and_then(|i| self.innermost.get(i)) {
            Some(&l) if l != NONE => self.loops[l as usize].depth,
            _ => 0,
        }
    }

    /// Maximum nesting depth in the function.
    pub fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// Bytes of heap owned by the forest: its three vectors. The block
    /// list belongs to the function's graph.
    pub fn heap_bytes(&self) -> usize {
        self.loops.capacity() * size_of::<Loop>()
            + (self.members.capacity() + self.innermost.capacity()) * size_of::<u32>()
    }
}

/// Compute the loop forest over a prebuilt [`FlowGraph`]: dominators
/// reuse the graph's memoized forward ranks, and every loop body floods
/// over the graph's dense predecessor rows with one shared mark array.
/// `_view` is unused, kept because the benchmark suite passes it.
pub fn loop_forest_on(_view: &dyn CfgView, graph: &FlowGraph) -> LoopForest {
    let blocks = Arc::clone(&graph.blocks);
    let n = blocks.len();
    let (rank, _) = graph.forward_ranks();
    // A back edge `t → h` has `rank[h] <= rank[t]` (`h` dominates `t`, so
    // it precedes `t` in every depth-first order): a graph without such
    // an edge has no loop and needs no dominators.
    let retreating = |t: u32, h: usize| rank[h] <= rank[t as usize];
    if !(0..n).any(|h| graph.preds.row(h).iter().any(|&(t, _)| retreating(t, h))) {
        return LoopForest {
            loops: Vec::new(),
            blocks,
            members: Vec::new(),
            innermost: Vec::new(),
        };
    }
    let dom = dominators_on(graph);

    // 1. Natural-loop bodies, merged by header. `marks[b] == h` once the
    // flood of header `h` has taken `b`; `members` is the flood's queue.
    let mut marks = vec![NONE; n];
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut loops = Vec::new();
    for h in 0..n {
        let tail = |t: u32| retreating(t, h) && dom.dominates(h, t as usize);
        if !graph.preds.row(h).iter().any(|&(t, _)| tail(t)) {
            continue;
        }
        let start = members.len();
        marks[h] = h as u32;
        members.push(h as u32);
        let mut next = start;
        while let Some(&b) = members.get(next) {
            next += 1;
            for &(p, _) in graph.preds.row(b as usize) {
                // Out of the header, the flood follows back edges only.
                if marks[p as usize] != h as u32 && (b as usize != h || tail(p)) {
                    marks[p as usize] = h as u32;
                    members.push(p);
                }
            }
        }
        members[start..].sort_unstable();
        let len = (members.len() - start) as u32;
        loops.push(Loop { header: blocks[h], depth: 1, parent: NONE, start: start as u32, len });
    }

    // 2. Nesting, largest loops first: a loop's parent is the innermost
    // loop already holding its header (headers are reachable, and the
    // loops holding a reachable block nest). A block the entry cannot
    // reach may sit in loops that do not nest; it keeps the deepest.
    loops.sort_unstable_by(|a, b| b.len.cmp(&a.len).then(a.header.cmp(&b.header)));
    let mut innermost = marks;
    innermost.fill(NONE);
    for i in 0..loops.len() {
        let Loop { header, start, len, .. } = loops[i];
        let parent = innermost[blocks.binary_search(&header).expect("a member")];
        let depth = if parent == NONE { 1 } else { loops[parent as usize].depth + 1 };
        (loops[i].parent, loops[i].depth) = (parent, depth);
        for &m in &members[start as usize..(start + len) as usize] {
            let held = innermost[m as usize];
            if held == NONE || loops[held as usize].depth < depth {
                innermost[m as usize] = i as u32;
            }
        }
    }
    LoopForest { loops, blocks, members, innermost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;
    use std::collections::BTreeSet;

    /// The forest over a throwaway graph.
    fn loop_forest(view: &VecView) -> LoopForest {
        loop_forest_on(view, &FlowGraph::build(view))
    }

    fn view(entry: u64, blocks: &[u64], edges: &[(u64, u64)]) -> VecView {
        VecView::new(
            entry,
            blocks.iter().map(|&b| (b, b + 1, vec![])).collect(),
            edges.iter().map(|&(a, b)| (a, b, EdgeKind::Direct)).collect(),
        )
    }

    #[test]
    fn no_loops() {
        let v = view(1, &[1, 2, 3], &[(1, 2), (2, 3)]);
        let f = loop_forest(&v);
        assert!(f.loops.is_empty());
        assert_eq!(f.depth_of(2), 0);
        assert_eq!(f.max_depth(), 0);
    }

    #[test]
    fn single_self_loop() {
        let v = view(1, &[1, 2, 3], &[(1, 2), (2, 2), (2, 3)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].header, 2);
        assert_eq!(f.body(0).collect::<BTreeSet<_>>(), BTreeSet::from([2]));
        assert_eq!(f.depth_of(2), 1);
        assert_eq!(f.depth_of(3), 0);
    }

    #[test]
    fn while_loop() {
        // 1 -> 2(head) -> 3(body) -> 2 ; 2 -> 4(exit)
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 2), (2, 4)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].header, 2);
        assert_eq!(f.body(0).collect::<BTreeSet<_>>(), BTreeSet::from([2, 3]));
        assert_eq!(f.depth_of(3), 1);
    }

    #[test]
    fn nested_loops() {
        // outer: 2..5 ; inner: 3..4
        // 1 -> 2 -> 3 -> 4 -> 3 (inner back), 4 -> 5 -> 2 (outer back),
        // 5 -> 6
        let v =
            view(1, &[1, 2, 3, 4, 5, 6], &[(1, 2), (2, 3), (3, 4), (4, 3), (4, 5), (5, 2), (5, 6)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 2);
        let outer = f.loops.iter().position(|l| l.header == 2).unwrap();
        let inner = f.loops.iter().position(|l| l.header == 3).unwrap();
        assert_eq!(f.body(outer).collect::<BTreeSet<_>>(), BTreeSet::from([2, 3, 4, 5]));
        assert_eq!(f.body(inner).collect::<BTreeSet<_>>(), BTreeSet::from([3, 4]));
        assert_eq!(f.loops[outer].depth, 1);
        assert_eq!(f.loops[inner].depth, 2);
        assert_eq!(f.depth_of(4), 2);
        assert_eq!(f.depth_of(2), 1);
        assert_eq!(f.max_depth(), 2);
        assert_eq!(f.loops.iter().filter(|l| l.parent().is_none()).count(), 1);
    }

    #[test]
    fn two_back_edges_one_header_merge() {
        // 1 -> 2 -> 3 -> 2 and 2 -> 4 -> 2 ; 2 -> 5
        let v = view(1, &[1, 2, 3, 4, 5], &[(1, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 1, "same-header loops merge");
        assert_eq!(f.body(0).collect::<BTreeSet<_>>(), BTreeSet::from([2, 3, 4]));
    }

    #[test]
    fn triple_nesting_depths() {
        // 1->2->3->4->4? build: L1 {2,3,4,5,6}, L2 {3,4,5}, L3 {4}
        let v = view(
            1,
            &[1, 2, 3, 4, 5, 6],
            &[
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 4), // innermost self loop
                (4, 5),
                (5, 3), // middle back edge
                (5, 6),
                (6, 2), // outer back edge
                (6, 7),
            ],
        );
        let f = loop_forest(&v);
        assert_eq!(f.max_depth(), 3);
        assert_eq!(f.depth_of(4), 3);
        assert_eq!(f.depth_of(5), 2);
        assert_eq!(f.depth_of(6), 1);
    }
}
