//! Natural loops and the loop nesting forest.
//!
//! A back edge `t → h` exists when `h` dominates `t`; the natural loop of
//! `h` is `h` plus every block that reaches some back-edge source without
//! passing through `h`. Loops sharing a header are merged (multiple
//! `continue` paths), and nesting is recovered by body inclusion.
//!
//! Product code asks [`crate::ir::FuncIr::loop_forest`], which builds
//! each function's forest once for hpcstruct, BinFeat and the session.

use crate::dominators::dominators_on;
use crate::engine::FlowGraph;
use crate::view::CfgView;
use std::collections::{BTreeSet, HashMap};

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Header block.
    pub header: u64,
    /// All member blocks (header included), sorted.
    pub body: BTreeSet<u64>,
    /// Indices (into [`LoopForest::loops`]) of directly nested loops.
    pub children: Vec<usize>,
    /// 1 for outermost loops, +1 per nesting level.
    pub depth: u32,
}

impl Loop {
    /// Number of member blocks.
    pub fn size(&self) -> usize {
        self.body.len()
    }

    /// Is `block` in the loop?
    pub fn contains(&self, block: u64) -> bool {
        self.body.contains(&block)
    }
}

/// All loops of one function plus derived queries.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops, outermost-first within each nest.
    pub loops: Vec<Loop>,
    /// Indices of top-level (non-nested) loops.
    pub roots: Vec<usize>,
}

impl LoopForest {
    /// Nesting depth of `block`: 0 if not in any loop.
    pub fn depth_of(&self, block: u64) -> u32 {
        self.loops.iter().filter(|l| l.contains(block)).map(|l| l.depth).max().unwrap_or(0)
    }

    /// Maximum nesting depth in the function.
    pub fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost(&self, block: u64) -> Option<&Loop> {
        self.loops.iter().filter(|l| l.contains(block)).max_by_key(|l| l.depth)
    }

    /// Bytes of heap owned by the forest.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.loops.capacity() * size_of::<Loop>()
            + self
                .loops
                .iter()
                .map(|l| {
                    l.body.len() * size_of::<u64>() + l.children.capacity() * size_of::<usize>()
                })
                .sum::<usize>()
            + self.roots.capacity() * size_of::<usize>()
    }
}

/// Compute the loop forest over a prebuilt [`FlowGraph`]: dominators
/// reuse the graph's memoized RPO, and loop bodies flood-fill over the
/// graph's dense block ids (a bit vector per header) instead of
/// hash sets — the address-keyed [`Loop::body`] sets are materialized
/// once at the end, so the public shape is unchanged.
pub fn loop_forest_on(view: &dyn CfgView, graph: &FlowGraph) -> LoopForest {
    let dom = dominators_on(view, graph);
    let n = graph.blocks.len();

    // 1. Back edges.
    let mut back_edges: Vec<(u64, u64)> = Vec::new(); // (tail, header)
    for &b in &dom.rpo {
        for &(s, _) in view.succ_edges(b) {
            if dom.dominates(s, b) {
                back_edges.push((b, s));
            }
        }
    }

    // 2. Natural-loop bodies, merged by header. Membership is a dense
    // bit vector over the graph's block ids: every block the flood can
    // reach is a view block, because `CfgView` edges name members only.
    let mut bodies: HashMap<u64, Vec<bool>> = HashMap::new();
    let id = |b: u64| graph.id(b).expect("CfgView edges name member blocks");
    for &(tail, header) in &back_edges {
        let marks = bodies.entry(header).or_insert_with(|| vec![false; n]);
        // Backward flood from tail; the header is marked first, so the
        // flood stops there.
        marks[id(header)] = true;
        let mut work = vec![tail];
        while let Some(n) = work.pop() {
            let i = id(n);
            if marks[i] {
                continue;
            }
            marks[i] = true;
            work.extend(view.pred_edges(n).iter().map(|&(p, _)| p).filter(|&p| !marks[id(p)]));
        }
    }

    // 3. Build the forest by inclusion. Sort by body size descending so
    // parents precede children.
    let mut loops: Vec<Loop> = bodies
        .into_iter()
        .map(|(header, marks)| {
            // The graph's block list is address-ascending: in-order inserts.
            let body =
                graph.blocks.iter().zip(&marks).filter(|&(_, &m)| m).map(|(&a, _)| a).collect();
            Loop { header, body, children: vec![], depth: 1 }
        })
        .collect();
    loops.sort_by(|a, b| b.body.len().cmp(&a.body.len()).then(a.header.cmp(&b.header)));

    let n = loops.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        // The smallest strictly-containing loop is the parent: scan from
        // the end (smallest first) among earlier (larger) loops.
        for j in (0..i).rev() {
            let contains =
                loops[j].body.is_superset(&loops[i].body) && loops[j].header != loops[i].header;
            if contains {
                // Candidate; pick the *smallest* containing loop.
                match parent[i] {
                    Some(p) if loops[p].body.len() <= loops[j].body.len() => {}
                    _ => parent[i] = Some(j),
                }
            }
        }
    }
    // A parent always has a smaller index than its child, so its depth
    // is final by the time the child reads it: one pass sets them all.
    let mut roots = Vec::new();
    for i in 0..n {
        match parent[i] {
            Some(p) => {
                loops[i].depth = loops[p].depth + 1;
                loops[p].children.push(i);
            }
            None => roots.push(i),
        }
    }

    LoopForest { loops, roots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_cfg::EdgeKind;

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
        assert_eq!(f.loops[0].body, BTreeSet::from([2]));
        assert_eq!(f.depth_of(2), 1);
        assert_eq!(f.depth_of(3), 0);
    }

    #[test]
    fn while_loop() {
        // 1 -> 2(head) -> 3(body) -> 2 ; 2 -> 4(exit)
        let v = view(1, &[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 2), (2, 4)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        assert_eq!(l.header, 2);
        assert_eq!(l.body, BTreeSet::from([2, 3]));
        assert_eq!(f.innermost(3).unwrap().header, 2);
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
        let outer = f.loops.iter().find(|l| l.header == 2).unwrap();
        let inner = f.loops.iter().find(|l| l.header == 3).unwrap();
        assert_eq!(outer.body, BTreeSet::from([2, 3, 4, 5]));
        assert_eq!(inner.body, BTreeSet::from([3, 4]));
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(f.depth_of(4), 2);
        assert_eq!(f.depth_of(2), 1);
        assert_eq!(f.max_depth(), 2);
        assert_eq!(f.roots.len(), 1);
    }

    #[test]
    fn two_back_edges_one_header_merge() {
        // 1 -> 2 -> 3 -> 2 and 2 -> 4 -> 2 ; 2 -> 5
        let v = view(1, &[1, 2, 3, 4, 5], &[(1, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5)]);
        let f = loop_forest(&v);
        assert_eq!(f.loops.len(), 1, "same-header loops merge");
        assert_eq!(f.loops[0].body, BTreeSet::from([2, 3, 4]));
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
