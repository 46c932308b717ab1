//! CFG finalization (paper Section 5.4): remove wrong elements,
//! determine function boundaries. No new CFG elements are added.
//!
//! Finalization owns the traversal state: it takes each concurrent map
//! apart with `into_entries` into a plain map or list before step 1, so
//! every step below edits owned data and no concurrent map survives
//! traversal. `into_entries` yields entries in the maps' slab order,
//! which depends on which thread inserted first; the output does not
//! (the golden digests pin it at 1, 2 and 4 threads).
//!
//! 1. **Jump-table finalization** — only now are all table locations
//!    known, so unbounded (over-approximated) tables are clamped at the
//!    next table's start ("compilers do not emit overlapping jump
//!    tables") and their excess indirect edges removed (`O_ER`).
//! 2. **Tail-call correction + function boundaries** — iterative
//!    parallel graph search: compute per-function block membership over
//!    intra-procedural edges, then apply the three correction rules;
//!    each edge flips at most once, guaranteeing convergence.
//! 3. **Function-entry cleanup** — non-seeded functions with no incoming
//!    inter-procedural edges are removed, and blocks unreachable from
//!    any surviving function are dropped.
//!
//! Steps 2 and 3 run on **dense ids**: the surviving blocks are sorted
//! by start address once and a block's index in that order is its id
//! (so ascending ids are ascending addresses, and every sorted output
//! the `Cfg` wants falls out of plain iteration). Edges become one
//! array sorted by `(source id, target id)` with [`Csr`] rows of edge
//! ids for the out- and in-adjacency; a tail-call correction rewrites
//! an edge's kind in place, so the adjacency is built once and never
//! rebuilt.
//! Reachability marks a `Vec<u32>` stamp per worker instead of
//! inserting into a set, and the memberships of a round that corrected
//! nothing are the final ones. The surviving edges leave in that same
//! array order, which is the `Cfg`'s `(src, dst, kind)` order.

use crate::state::{FuncState, RawJumpTable, State};
use crate::stats::ParseStats;
use crate::ParseResult;
use pba_cfg::{Block, Cfg, Csr, Edge, EdgeKind, Function, RetStatus};
use pba_concurrent::fxhash::FxHashMap;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Out-edges keyed by source block end, as traversal recorded them.
type EdgeLists = FxHashMap<u64, Vec<(u64, EdgeKind)>>;

/// Clamp over-approximated jump tables against the next table start.
fn clamp_jump_tables(mut tables: Vec<RawJumpTable>, edges: &mut EdgeLists, stats: &ParseStats) {
    tables.sort_by_key(|t| t.table_addr);
    let starts: Vec<u64> = tables.iter().filter(|t| t.stride > 0).map(|t| t.table_addr).collect();

    for t in &mut tables {
        if t.stride == 0 {
            continue;
        }
        if !t.bounded {
            // The next table that starts after ours bounds our extent.
            if let Some(next) = starts.iter().copied().find(|&s| s > t.table_addr) {
                t.targets.truncate(((next - t.table_addr) / t.stride as u64) as usize);
            }
        }
        // Drop every indirect edge at this jump that is not in the final
        // target set — covers both the clamp above and stale edges from
        // earlier (wider) refinement rounds.
        if let Some(list) = edges.get_mut(&t.block_end) {
            list.retain(|&(d, k)| {
                let keep = k != EdgeKind::Indirect || t.targets.contains(&d);
                if !keep {
                    stats.jt_edges_clamped.inc();
                }
                keep
            });
        }
    }
}

/// Merge split remnants whose boundary has lost all incoming control
/// flow. A bogus (since removed) indirect target mid-block leaves a pair
/// `[a, b) →ft [b, c)` where `b` is not a real control-flow boundary any
/// more; merging restores the original block (and with it, clean linear
/// decoding). Only pure split artifacts qualify: the fall-through must
/// be `[a, b)`'s sole out-edge and `[b, c)`'s sole in-edge. `blocks` maps
/// start → end, `block_ends` end → start.
fn merge_split_remnants(
    blocks: &mut FxHashMap<u64, u64>,
    block_ends: &mut FxHashMap<u64, u64>,
    edges: &mut EdgeLists,
    funcs: &FxHashMap<u64, FuncState>,
) {
    loop {
        // In-degree over all current edges.
        let mut indeg: FxHashMap<u64, usize> = FxHashMap::default();
        for &(dst, _) in edges.values().flatten() {
            *indeg.entry(dst).or_insert(0) += 1;
        }
        // A function entry is a real boundary even with no incoming
        // edges (multi-entry functions, Power-style secondary entries):
        // never merge it away.
        let artifacts: Vec<u64> = edges
            .iter()
            .filter(|&(&b, list)| {
                list[..] == [(b, EdgeKind::Fallthrough)]
                    && indeg.get(&b) == Some(&1)
                    && !funcs.contains_key(&b)
            })
            .map(|(&b, _)| b)
            .collect();
        let mut merged_any = false;
        for b in artifacts {
            // [a, b) and [b, c) must both exist.
            let (Some(&a), Some(&c)) = (block_ends.get(&b), blocks.get(&b)) else { continue };
            if c == 0 || a == b {
                continue;
            }
            // Merge: extend [a, b) to c, drop [b, c) and the artifact.
            if let Some(end) = blocks.get_mut(&a) {
                *end = c;
            }
            blocks.remove(&b);
            block_ends.remove(&b);
            if let Some(start) = block_ends.get_mut(&c) {
                *start = a;
            }
            edges.remove(&b);
            merged_any = true;
        }
        if !merged_any {
            break;
        }
    }
}

/// The surviving blocks and edges on dense ids (module docs).
struct DenseGraph {
    /// `(start, end)` sorted by start; a block's index is its id.
    blocks: Vec<(u64, u64)>,
    /// Edge `e` runs `src[e] -> dst[e]`; edges are sorted by
    /// `(src, dst)` and unique in that pair.
    src: Vec<u32>,
    dst: Vec<u32>,
    /// Current classification of edge `e` (tail-call correction
    /// rewrites it in place).
    kinds: Vec<EdgeKind>,
    /// Row `b`: the ids of block `b`'s out-edges, ascending.
    outs: Csr<u32>,
    /// Row `b`: the ids of block `b`'s in-edges, ascending.
    ins: Csr<u32>,
}

impl DenseGraph {
    /// `blocks`: `(start, end)` pairs; `edge_lists`: out-edges keyed by
    /// source block *end*, in creation order. Edges whose source or
    /// target is not a block are dropped. Where one source has several
    /// edges to one target, the last kind other than `Fallthrough`
    /// stands (a split's implicit link never hides a real branch).
    fn new(
        mut blocks: Vec<(u64, u64)>,
        edge_lists: impl IntoIterator<Item = (u64, Vec<(u64, EdgeKind)>)>,
    ) -> Self {
        blocks.sort_unstable();
        let id_of_start: FxHashMap<u64, u32> =
            blocks.iter().enumerate().map(|(i, &(s, _))| (s, i as u32)).collect();
        // Ascending insertion: of two blocks with one end, the higher wins.
        let id_of_end: FxHashMap<u64, u32> =
            blocks.iter().enumerate().map(|(i, &(_, e))| (e, i as u32)).collect();

        let mut edges: Vec<(u32, u32, EdgeKind)> = Vec::new();
        for (src_end, list) in edge_lists {
            let Some(&src) = id_of_end.get(&src_end) else { continue };
            let first = edges.len();
            for (dst, kind) in list {
                let Some(&dst) = id_of_start.get(&dst) else { continue };
                match edges[first..].iter_mut().find(|e| e.1 == dst) {
                    Some(e) if kind != EdgeKind::Fallthrough => e.2 = kind,
                    Some(_) => {}
                    None => edges.push((src, dst, kind)),
                }
            }
        }
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));

        let n = blocks.len();
        let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let kinds: Vec<EdgeKind> = edges.iter().map(|e| e.2).collect();
        let ids_by = |end: &[u32]| {
            Csr::group(n, end.iter().enumerate().map(|(e, &b)| (b as usize, e as u32)))
        };
        let (outs, ins) = (ids_by(&src), ids_by(&dst));
        DenseGraph { blocks, src, dst, kinds, outs, ins }
    }

    fn id_of(&self, start: u64) -> Option<u32> {
        self.blocks.binary_search_by_key(&start, |b| b.0).ok().map(|i| i as u32)
    }

    fn out_edges(&self, b: u32) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.outs.row(b as usize).iter().map(|&e| e as usize)
    }

    fn in_edges(&self, b: u32) -> &[u32] {
        self.ins.row(b as usize)
    }

    /// Per entry: its member blocks (ascending) by intra-procedural
    /// reachability under the current kinds, and the tail-call edges
    /// out of those members whose target is itself a member — rule 2's
    /// "reachable without this edge". Entries are split into contiguous
    /// chunks, one stamp array per chunk.
    fn memberships(&self, entries: &[u32]) -> Vec<(Vec<u32>, Vec<u32>)> {
        let per_chunk = entries.len().div_ceil(rayon::current_num_threads() * 4).max(1);
        let chunks: Vec<&[u32]> = entries.chunks(per_chunk).collect();
        let walked: Vec<Vec<(Vec<u32>, Vec<u32>)>> = chunks
            .par_iter()
            .map(|chunk| {
                let mut stamp = vec![0u32; self.blocks.len()];
                let mut work = Vec::new();
                chunk
                    .iter()
                    .zip(1u32..)
                    .map(|(&entry, mark)| {
                        let mut members = Vec::new();
                        work.push(entry);
                        while let Some(b) = work.pop() {
                            if stamp[b as usize] == mark {
                                continue;
                            }
                            stamp[b as usize] = mark;
                            members.push(b);
                            for e in self.out_edges(b) {
                                let d = self.dst[e];
                                if !self.kinds[e].is_interprocedural() && stamp[d as usize] != mark
                                {
                                    work.push(d);
                                }
                            }
                        }
                        members.sort_unstable();
                        let inner_tail_calls = members
                            .iter()
                            .flat_map(|&b| self.out_edges(b))
                            .filter(|&e| {
                                self.kinds[e] == EdgeKind::TailCall
                                    && stamp[self.dst[e] as usize] == mark
                            })
                            .map(|e| e as u32)
                            .collect();
                        (members, inner_tail_calls)
                    })
                    .collect()
            })
            .collect();
        walked.into_iter().flatten().collect()
    }

    /// One round of the three tail-call correction rules over every
    /// edge not corrected before: `(edge, new kind)` for each that must
    /// flip. `inner_tail_calls` marks the edges rule 2 applies to.
    fn corrections(
        &self,
        flipped: &[bool],
        inner_tail_calls: &[bool],
        is_seeded_entry: impl Fn(u32) -> bool,
    ) -> Vec<(usize, EdgeKind)> {
        let mut flips = Vec::new();
        for e in (0..self.kinds.len()).filter(|&e| !flipped[e]) {
            let (src, dst) = (self.src[e], self.dst[e]);
            match self.kinds[e] {
                EdgeKind::Direct => {
                    // Rule 1: not a tail call, but the target has a CALL
                    // incoming edge → it is a function entry; correct to
                    // tail call. Also canonicalize the paper's Listing 1
                    // ambiguity: if another branch into the same target
                    // was classified as a tail call, this one must agree
                    // (otherwise the final CFG would depend on analysis
                    // order).
                    let has_entry_in = self.in_edges(dst).iter().any(|&i| {
                        let k = self.kinds[i as usize];
                        k == EdgeKind::Call
                            || (k == EdgeKind::TailCall && self.src[i as usize] != src)
                    });
                    if has_entry_in {
                        flips.push((e, EdgeKind::TailCall));
                    }
                }
                EdgeKind::TailCall => {
                    // Rule 2: target inside the source's own function
                    // boundary (reachable without this edge) → not a
                    // tail call. Rule 3: the target's only incoming edge
                    // is this one → outlined code block, not a tail
                    // call.
                    let only_in = self.in_edges(dst).len() == 1;
                    if inner_tail_calls[e] || (only_in && !is_seeded_entry(dst)) {
                        flips.push((e, EdgeKind::Direct));
                    }
                }
                _ => {}
            }
        }
        flips
    }
}

/// Finalize: consume the traversal state, return the CFG + stats.
pub fn finalize(state: State<'_>) -> ParseResult {
    // Traversal has quiesced: move every value out of the maps, so
    // nothing below locks an entry.
    let State { input, blocks, block_ends, edges, funcs, jts, stats, .. } = state;
    let mut blocks: FxHashMap<u64, u64> =
        blocks.into_entries().into_iter().map(|(s, rec)| (s, rec.end)).collect();
    let mut block_ends: FxHashMap<u64, u64> = block_ends.into_entries().into_iter().collect();
    let mut edges: EdgeLists = edges.into_entries().into_iter().collect();
    let funcs: FxHashMap<u64, FuncState> = funcs.into_entries().into_iter().collect();
    let tables: Vec<RawJumpTable> = jts.into_entries().into_iter().map(|(_, t)| t).collect();

    // ---- step 1: jump-table clamping + split repair ----
    clamp_jump_tables(tables, &mut edges, &stats);
    merge_split_remnants(&mut blocks, &mut block_ends, &mut edges, &funcs);

    // ---- materialize blocks & edges on dense ids ----
    let mut graph =
        DenseGraph::new(blocks.into_iter().filter(|&(s, end)| end > s).collect(), edges);

    // Function set: entry block id → (entry, name, status, seeded). Ids
    // ascend with addresses, so this iterates in entry order.
    let mut funcs: BTreeMap<u32, (Option<String>, RetStatus, bool)> = funcs
        .into_iter()
        .filter_map(|(entry, st)| Some((graph.id_of(entry)?, (st.name, st.status, st.seeded))))
        .collect();

    // ---- step 2: tail-call correction + boundaries (iterative) ----
    // Memberships of the last round, kept if that round flipped nothing.
    let mut settled: Option<(Vec<u32>, Vec<Vec<u32>>)> = None;
    let mut flipped = vec![false; graph.kinds.len()];
    for _round in 0..4 {
        let entries: Vec<u32> = funcs.keys().copied().collect();
        let walked = graph.memberships(&entries);
        let mut inner_tail_calls = vec![false; graph.kinds.len()];
        for &e in walked.iter().flat_map(|(_, inner)| inner) {
            inner_tail_calls[e as usize] = true;
        }
        let flips =
            graph.corrections(&flipped, &inner_tail_calls, |b| funcs.get(&b).is_some_and(|f| f.2));
        if flips.is_empty() {
            settled = Some((entries, walked.into_iter().map(|(members, _)| members).collect()));
            break;
        }
        for (e, new_kind) in flips {
            graph.kinds[e] = new_kind;
            flipped[e] = true;
            stats.tailcall_flips.inc();
            // A new tail call labels a function entry (O_FEI).
            if new_kind == EdgeKind::TailCall {
                funcs.entry(graph.dst[e]).or_insert_with(|| (None, RetStatus::Unset, false));
            }
        }
    }

    // ---- step 3: function-entry cleanup ----
    // Interprocedural in-edges per entry under final kinds.
    let mut interproc_in = vec![false; graph.blocks.len()];
    for (e, kind) in graph.kinds.iter().enumerate() {
        if kind.is_interprocedural() {
            interproc_in[graph.dst[e] as usize] = true;
        }
    }
    funcs.retain(|&entry, (_, _, seeded)| *seeded || interproc_in[entry as usize]);

    // Final membership under final kinds.
    let memberships: Vec<(u32, Vec<u32>)> = match settled {
        Some((entries, members)) => {
            entries.into_iter().zip(members).filter(|(f, _)| funcs.contains_key(f)).collect()
        }
        None => {
            let entries: Vec<u32> = funcs.keys().copied().collect();
            let walked = graph.memberships(&entries);
            entries.into_iter().zip(walked.into_iter().map(|(members, _)| members)).collect()
        }
    };

    let mut live = vec![false; graph.blocks.len()];
    for &b in memberships.iter().flat_map(|(_, members)| members) {
        live[b as usize] = true;
    }

    let start_of = |b: u32| graph.blocks[b as usize].0;
    let final_blocks: BTreeMap<u64, Block> = graph
        .blocks
        .iter()
        .zip(&live)
        .filter(|(_, &live)| live)
        .map(|(&(s, e), _)| (s, Block { start: s, end: e }))
        .collect();
    // Dense edge order is `(source, target)` with one kind per pair, and
    // ids ascend with addresses: this is already the `Cfg`'s edge order.
    let final_edges: Vec<Edge> = (0..graph.kinds.len())
        .filter(|&e| live[graph.src[e] as usize] && live[graph.dst[e] as usize])
        .map(|e| Edge {
            src: start_of(graph.src[e]),
            dst: start_of(graph.dst[e]),
            kind: graph.kinds[e],
        })
        .collect();
    let final_funcs: BTreeMap<u64, Function> = memberships
        .into_iter()
        .map(|(f, members)| {
            let entry = start_of(f);
            let (name, status, _) = funcs.remove(&f).expect("membership of a retained function");
            let status = if status == RetStatus::Unset { RetStatus::NoReturn } else { status };
            (
                entry,
                Function {
                    entry,
                    name: name.unwrap_or_else(|| format!("fn_{entry:x}")),
                    blocks: members.into_iter().map(start_of).collect(),
                    ret_status: status,
                },
            )
        })
        .collect();

    let cfg = Cfg::new(final_blocks, final_edges, final_funcs, input.code.clone());
    ParseResult { cfg, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EdgeKind::*;

    /// Blocks `[s, s + 0x10)` for each start; edge lists keyed by
    /// `source start + 0x10`.
    fn graph(starts: &[u64], edges: &[(u64, &[(u64, EdgeKind)])]) -> DenseGraph {
        DenseGraph::new(
            starts.iter().map(|&s| (s, s + 0x10)).collect(),
            edges.iter().map(|&(src, list)| (src + 0x10, list.to_vec())),
        )
    }

    fn edge_set(g: &DenseGraph) -> Vec<(u64, u64, EdgeKind)> {
        (0..g.kinds.len())
            .map(|e| (g.blocks[g.src[e] as usize].0, g.blocks[g.dst[e] as usize].0, g.kinds[e]))
            .collect()
    }

    #[test]
    fn dense_ids_ascend_with_addresses_and_edges_are_sorted_and_deduplicated() {
        let g = graph(
            &[0x30, 0x10, 0x20],
            &[
                // a split's implicit link never hides the real branch, in
                // either order; of two real kinds the later stands
                (0x20, &[(0x30, Fallthrough), (0x30, CondNotTaken), (0x10, Direct)]),
                (0x10, &[(0x20, CondTaken), (0x20, Fallthrough), (0x30, Direct), (0x30, TailCall)]),
                // target that is no block: dropped
                (0x30, &[(0x99, Call)]),
                // source end that is no block's end: dropped
                (0x70, &[(0x10, Direct)]),
            ],
        );
        assert_eq!(g.blocks, vec![(0x10, 0x20), (0x20, 0x30), (0x30, 0x40)]);
        assert_eq!(
            edge_set(&g),
            vec![
                (0x10, 0x20, CondTaken),
                (0x10, 0x30, TailCall),
                (0x20, 0x10, Direct),
                (0x20, 0x30, CondNotTaken),
            ]
        );
        assert_eq!((g.id_of(0x20), g.id_of(0x21)), (Some(1), None));
        // CSR: every edge appears once on each side.
        for b in 0..3u32 {
            assert!(g.out_edges(b).all(|e| g.src[e] == b));
            assert!(g.in_edges(b).iter().all(|&e| g.dst[e as usize] == b));
        }
        assert_eq!(g.out_edges(0).len() + g.out_edges(1).len() + g.out_edges(2).len(), 4);
        assert_eq!(g.in_edges(0).len() + g.in_edges(1).len() + g.in_edges(2).len(), 4);
        assert_eq!(g.in_edges(2).len(), 2);
    }

    #[test]
    fn of_two_blocks_with_one_end_the_higher_start_owns_the_edges() {
        // Overlapping decodes can leave [0x10, 0x40) and [0x30, 0x40).
        let g = DenseGraph::new(
            vec![(0x10, 0x40), (0x30, 0x40), (0x40, 0x50)],
            vec![(0x40, vec![(0x40, Fallthrough)])],
        );
        assert_eq!(edge_set(&g), vec![(0x30, 0x40, Fallthrough)]);
    }

    #[test]
    fn memberships_stop_at_interprocedural_edges_and_report_inner_tail_calls() {
        // f@0x10: 0x10 -> 0x20 -> 0x30, plus a "tail call" 0x30 -> 0x20
        // back into itself and a real one 0x30 -> 0x50. g@0x50 calls 0x10.
        let g = graph(
            &[0x10, 0x20, 0x30, 0x50, 0x60],
            &[
                (0x10, &[(0x20, CondTaken)]),
                (0x20, &[(0x30, Fallthrough)]),
                (0x30, &[(0x20, TailCall), (0x50, TailCall)]),
                (0x50, &[(0x10, Call), (0x60, CallFallthrough)]),
            ],
        );
        let walked = g.memberships(&[0, 3]);
        assert_eq!(walked[0].0, vec![0, 1, 2]);
        assert_eq!(walked[1].0, vec![3, 4], "the call edge is not followed");
        let inner: Vec<(u32, u32)> =
            walked[0].1.iter().map(|&e| (g.src[e as usize], g.dst[e as usize])).collect();
        assert_eq!(inner, vec![(2, 1)], "0x30 -> 0x20 stays inside f; 0x30 -> 0x50 leaves it");
        assert!(walked[1].1.is_empty());
        // Many entries, few per chunk: a stamp array is reused across
        // functions without leaking marks from one into the next.
        let many: Vec<u32> = (0..64).map(|i| [0, 3][i % 2]).collect();
        for (i, (members, _)) in g.memberships(&many).iter().enumerate() {
            assert_eq!(members, &walked[i % 2].0);
        }
    }

    #[test]
    fn corrections_apply_each_rule_once() {
        let g = graph(
            &[0x10, 0x20, 0x30, 0x40, 0x50, 0x60],
            &[
                // rule 1: a Direct branch into a block that is also called
                (0x10, &[(0x30, Direct), (0x40, TailCall)]),
                (0x20, &[(0x30, Call), (0x50, TailCall)]),
                // rule 1's second clause: another source tail-calls 0x50
                (0x30, &[(0x50, Direct)]),
                // neither: an ordinary branch
                (0x40, &[(0x60, Direct)]),
                (0x50, &[(0x60, CondTaken)]),
            ],
        );
        let edge = |s: u64, d: u64| {
            (0..g.kinds.len())
                .find(|&e| g.blocks[g.src[e] as usize].0 == s && g.blocks[g.dst[e] as usize].0 == d)
                .unwrap()
        };
        let none = vec![false; g.kinds.len()];
        let flips = g.corrections(&none, &none, |_| false);
        assert_eq!(
            flips,
            vec![
                (edge(0x10, 0x30), TailCall), // rule 1: 0x30 has a Call in-edge
                (edge(0x10, 0x40), Direct),   // rule 3: sole in-edge, not seeded
                (edge(0x30, 0x50), TailCall), // rule 1: 0x20 tail-calls 0x50 too
            ]
        );
        // Rule 3 spares a seeded entry; rule 2 overrides the in-degree.
        let seeded_40 = g.id_of(0x40).unwrap();
        let flips = g.corrections(&none, &none, |b| b == seeded_40);
        assert!(!flips.contains(&(edge(0x10, 0x40), Direct)));
        let mut inner = none.clone();
        inner[edge(0x20, 0x50)] = true;
        let flips = g.corrections(&none, &inner, |_| false);
        assert!(flips.contains(&(edge(0x20, 0x50), Direct)));
        // An edge corrected before is never looked at again.
        let mut flipped = none.clone();
        flipped[edge(0x10, 0x30)] = true;
        let flips = g.corrections(&flipped, &none, |_| false);
        assert!(!flips.iter().any(|&(e, _)| e == edge(0x10, 0x30)));
    }
}
