//! The partial order `G1 ≼ G2` between abstract graphs (paper Section 3).
//!
//! "A larger graph includes more control flow elements." Four conditions,
//! implemented literally:
//!
//! 1. address coverage: `A1 ⊆ A2`;
//! 2. explicit control flow is preserved modulo block-range adjustment —
//!    with our split-stable edge identity `(src_end, dst_start, kind)`
//!    this is plain set inclusion `E1 ⊆ E2`;
//! 3. implicit control flow through each `G1` block survives as a
//!    fall-through chain of `G2` blocks covering the same range;
//! 4. function entry labels are preserved.
//!
//! The monotonicity property of `O_IEC` (Section 4.1) is stated in terms
//! of this order, and the property tests exercise it on synthetic code.

//! It also hosts the *traversal* order: [`rpo_ranks_dense`], the
//! reverse-postorder numbering over a dense adjacency that dominator
//! construction and the dataflow engine's worklist priority both use.

use crate::model::EdgeKind;
use crate::ops::{AbsEdge, AbsGraph};

/// Is every address covered by `a` also covered by `b`?
fn coverage_le(a: &AbsGraph, b: &AbsGraph) -> bool {
    let ca = a.covered();
    let cb = b.covered();
    // Both are sorted disjoint interval lists; check inclusion by merge.
    let mut j = 0usize;
    for &(lo, hi) in &ca {
        // Advance to the b-interval that could contain lo.
        while j < cb.len() && cb[j].1 <= lo {
            j += 1;
        }
        if j >= cb.len() || cb[j].0 > lo || cb[j].1 < hi {
            return false;
        }
    }
    true
}

/// Does `g` contain a fall-through chain of blocks exactly covering
/// `[s0, e)`?
fn chain_covers(g: &AbsGraph, s0: u64, e: u64) -> bool {
    let mut at = s0;
    loop {
        let Some(&end) = g.blocks.get(&at) else { return false };
        if end == e {
            return true;
        }
        if end > e {
            return false;
        }
        // Need a fall-through edge (end → end) linking [at, end) to
        // [end, ...). Splits create exactly these.
        let link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::Fallthrough };
        let cond_link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::CondNotTaken };
        let cf_link = AbsEdge { src_end: end, dst: end, kind: EdgeKind::CallFallthrough };
        if !(g.edges.contains(&link) || g.edges.contains(&cond_link) || g.edges.contains(&cf_link))
        {
            return false;
        }
        at = end;
    }
}

/// The partial order `a ≼ b`.
pub fn graph_le(a: &AbsGraph, b: &AbsGraph) -> bool {
    // (1) address coverage.
    if !coverage_le(a, b) {
        return false;
    }
    // (2) explicit control flow: E1 ⊆ E2 under split-stable identity.
    if !a.edges.iter().all(|e| b.edges.contains(e)) {
        return false;
    }
    // (3) implicit control flow through blocks.
    if !a.blocks.iter().all(|(&s, &e)| chain_covers(b, s, e)) {
        return false;
    }
    // (4) function labels preserved.
    a.funcs.iter().all(|f| b.funcs.contains(f))
}

/// Reverse-postorder *ranks* over a dense-index adjacency: `succs[i]`
/// lists the successors of block `i` as `(index, payload)` pairs and
/// `roots` seeds the traversal. Returns `(rank, reachable)` where
/// `rank[i]` = position of block `i` in the reverse postorder and
/// `reachable` is how many blocks the roots reach — ranks below it
/// belong to the reachable region, blocks unreachable from the roots
/// are ranked after it in ascending index order, so the ranks are always
/// a total order over the blocks. No address maps, no per-block
/// allocation — this is the form the dataflow engine's worklist
/// priority consumes, and the reachable cut is what dominator
/// construction keys its RPO walk on.
pub fn rpo_ranks_dense<E>(succs: &[Vec<(usize, E)>], roots: &[usize]) -> (Vec<u32>, usize) {
    let n = succs.len();
    let mut seen = vec![false; n];
    let mut po: Vec<usize> = Vec::with_capacity(n);
    // Iterative DFS: (block, next successor index to try).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &root in roots {
        if root >= n || seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&(s, _)) = succs[b].get(*i) {
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                po.push(b);
                stack.pop();
            }
        }
    }
    let reachable = po.len();
    let mut rank = vec![0u32; n];
    for (r, &b) in po.iter().rev().enumerate() {
        rank[b] = r as u32;
    }
    let mut next = reachable as u32;
    for (b, &was_seen) in seen.iter().enumerate() {
        if !was_seen {
            rank[b] = next;
            next += 1;
        }
    }
    (rank, reachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{construct_reference, SynCf, SynInsn, SyntheticCode};

    /// Adjacency with unit payloads from plain successor lists.
    fn adj(succs: &[&[usize]]) -> Vec<Vec<(usize, ())>> {
        succs.iter().map(|s| s.iter().map(|&d| (d, ())).collect()).collect()
    }

    #[test]
    fn rpo_of_diamond_puts_join_last() {
        // 0 → {1, 2} → 3
        let (rank, reachable) = rpo_ranks_dense(&adj(&[&[1, 2], &[3], &[3], &[]]), &[0]);
        assert_eq!(reachable, 4);
        assert_eq!(rank[0], 0);
        assert_eq!(rank[3], 3);
    }

    #[test]
    fn unreachable_blocks_are_appended_sorted() {
        // 2 → 3; 0, 1 and 4 are unreachable from root 2.
        let (rank, reachable) = rpo_ranks_dense(&adj(&[&[], &[], &[3], &[], &[]]), &[2]);
        assert_eq!(reachable, 2);
        assert_eq!(rank, vec![2, 3, 0, 1, 4]);
    }

    #[test]
    fn cycles_terminate() {
        let (rank, reachable) = rpo_ranks_dense(&adj(&[&[1], &[0]]), &[0]);
        assert_eq!((rank, reachable), (vec![0, 1], 2));
    }

    fn straightline() -> SyntheticCode {
        SyntheticCode::new(vec![
            SynInsn { start: 0, end: 4, cf: SynCf::None },
            SynInsn { start: 4, end: 8, cf: SynCf::None },
            SynInsn { start: 8, end: 9, cf: SynCf::Ret },
        ])
    }

    #[test]
    fn reflexive() {
        let g = construct_reference(&straightline(), &[0]);
        assert!(graph_le(&g, &g));
    }

    #[test]
    fn initial_graph_below_everything_with_same_seeds() {
        let code = straightline();
        let g0 = AbsGraph::initial([0u64]);
        let gn = construct_reference(&code, &[0]);
        assert!(graph_le(&g0, &gn));
        assert!(!graph_le(&gn, &g0));
    }

    #[test]
    fn split_block_still_geq() {
        // G1: one block [0,9). G2: same code but split at 4 with a
        // fall-through chain. G1 ≼ G2 must hold (condition 3).
        let code = straightline();
        let g1 = construct_reference(&code, &[0]);
        assert_eq!(g1.blocks.get(&0), Some(&9));
        let mut g2 = g1.clone();
        g2.candidates.insert(4);
        g2.o_ber(&code, 4); // split
        assert!(graph_le(&g1, &g2), "split graph is larger, not incomparable");
        assert!(!graph_le(&g2, &g1), "chain can't be reassembled downward");
    }

    #[test]
    fn missing_edge_breaks_order() {
        let code = SyntheticCode::new(vec![
            SynInsn { start: 0, end: 4, cf: SynCf::Jmp(8) },
            SynInsn { start: 8, end: 9, cf: SynCf::Ret },
        ]);
        let g = construct_reference(&code, &[0]);
        let mut smaller = g.clone();
        let e = *smaller.edges.iter().next().unwrap();
        smaller.edges.remove(&e);
        assert!(graph_le(&smaller, &g));
        assert!(!graph_le(&g, &smaller));
    }

    #[test]
    fn extra_function_label_breaks_reverse_order() {
        let g = construct_reference(&straightline(), &[0]);
        let mut labeled = g.clone();
        labeled.o_fei(4); // label mid-code (after a hypothetical split)
        assert!(graph_le(&g, &labeled));
        assert!(!graph_le(&labeled, &g));
    }

    #[test]
    fn coverage_inclusion_is_checked() {
        let code = straightline();
        let g = construct_reference(&code, &[0]);
        let island = SyntheticCode::new(vec![SynInsn { start: 0x100, end: 0x101, cf: SynCf::Ret }]);
        let h = construct_reference(&island, &[0x100]);
        assert!(!graph_le(&g, &h));
        assert!(!graph_le(&h, &g));
    }
}
