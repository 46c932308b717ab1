//! Loop-forest equivalence: the flat forest on the graph's dense ids
//! against the address-keyed algorithm it replaced.
//!
//! The reference below is the earlier `dominators_on` and
//! `loop_forest_on`, kept verbatim in structure: an address-ordered
//! reverse postorder with its own address → position map, `Option` idoms,
//! one `vec![false; blocks]` per header, `BTreeSet` bodies and nesting by
//! pairwise `is_superset`. Every function of the structure golden's
//! sixteen images (`pba_gen::corpus::structure`: each profile at a
//! twentieth of its size with two seeds, and the two
//! `struct_large`-sized images) and a set of hand-built
//! graphs must give the same loops in the same order: header, depth,
//! size, sorted members and parent, the same `max_depth`, and the same
//! `depth_of` for every block.

use pba_cfg::EdgeKind;
use pba_dataflow::loops::loop_forest_on;
use pba_dataflow::{BinaryIr, CfgView, FlowGraph, LoopForest, VecView};
use pba_gen::corpus;
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// Reference: the address-keyed dominators and loop forest.
// ---------------------------------------------------------------------

/// Blocks reachable from the entry in reverse postorder: the iterative
/// depth-first search the graph's forward ranks come from, over the
/// view's successor order.
fn entry_rpo(view: &dyn CfgView) -> Vec<u64> {
    let mut seen = BTreeSet::from([view.entry()]);
    let mut po = Vec::new();
    let mut stack = vec![(view.entry(), 0)];
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if let Some(&(s, _)) = view.succ_edges(b).get(*i) {
            *i += 1;
            if seen.insert(s) {
                stack.push((s, 0));
            }
        } else {
            po.push(b);
            stack.pop();
        }
    }
    po.reverse();
    po
}

struct RefDomTree {
    rpo: Vec<u64>,
    idom: Vec<u32>,
    index: HashMap<u64, usize>,
}

impl RefDomTree {
    fn dominates(&self, a: u64, b: u64) -> bool {
        let (Some(&pa), Some(&pb)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        let mut pb = pb;
        while pb > pa {
            pb = self.idom[pb] as usize;
        }
        pb == pa
    }
}

fn ref_dominators(view: &dyn CfgView) -> RefDomTree {
    let rpo = entry_rpo(view);
    let index: HashMap<u64, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    if rpo.is_empty() {
        return RefDomTree { rpo, idom: Vec::new(), index };
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
                let Some(&pi) = index.get(&p) else { continue };
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

    let idom: Vec<u32> =
        idom.into_iter().map(|d| d.expect("reachable blocks acquire an idom")).collect();
    RefDomTree { rpo, idom, index }
}

struct RefLoop {
    header: u64,
    body: BTreeSet<u64>,
    children: Vec<usize>,
    depth: u32,
}

struct RefForest {
    loops: Vec<RefLoop>,
}

impl RefForest {
    fn depth_of(&self, block: u64) -> u32 {
        self.loops.iter().filter(|l| l.body.contains(&block)).map(|l| l.depth).max().unwrap_or(0)
    }

    fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    fn parent(&self, i: usize) -> Option<usize> {
        self.loops.iter().position(|l| l.children.contains(&i))
    }
}

fn ref_loop_forest(view: &dyn CfgView, graph: &FlowGraph) -> RefForest {
    let dom = ref_dominators(view);
    let n = graph.blocks.len();

    let mut back_edges: Vec<(u64, u64)> = Vec::new();
    for &b in &dom.rpo {
        for &(s, _) in view.succ_edges(b) {
            if dom.dominates(s, b) {
                back_edges.push((b, s));
            }
        }
    }

    let mut bodies: HashMap<u64, Vec<bool>> = HashMap::new();
    let id = |b: u64| graph.id(b).expect("CfgView edges name member blocks");
    for &(tail, header) in &back_edges {
        let marks = bodies.entry(header).or_insert_with(|| vec![false; n]);
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

    let mut loops: Vec<RefLoop> = bodies
        .into_iter()
        .map(|(header, marks)| {
            let body =
                graph.blocks.iter().zip(&marks).filter(|&(_, &m)| m).map(|(&a, _)| a).collect();
            RefLoop { header, body, children: vec![], depth: 1 }
        })
        .collect();
    loops.sort_by(|a, b| b.body.len().cmp(&a.body.len()).then(a.header.cmp(&b.header)));

    let n = loops.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        for j in (0..i).rev() {
            let contains =
                loops[j].body.is_superset(&loops[i].body) && loops[j].header != loops[i].header;
            if contains {
                match parent[i] {
                    Some(p) if loops[p].body.len() <= loops[j].body.len() => {}
                    _ => parent[i] = Some(j),
                }
            }
        }
    }
    for i in 0..n {
        if let Some(p) = parent[i] {
            loops[i].depth = loops[p].depth + 1;
            loops[p].children.push(i);
        }
    }
    RefForest { loops }
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// `forest` must be the reference forest of `view`, block for block.
fn check(view: &dyn CfgView, graph: &FlowGraph, forest: &LoopForest, what: &str) {
    let want = ref_loop_forest(view, graph);
    assert_eq!(forest.loops.len(), want.loops.len(), "{what}: loop count");
    for (i, (got, want_loop)) in forest.loops.iter().zip(&want.loops).enumerate() {
        let at = format!("{what}: loop {i} (header {:#x})", want_loop.header);
        assert_eq!(got.header, want_loop.header, "{at}: header");
        assert_eq!(got.depth, want_loop.depth, "{at}: depth");
        assert_eq!(got.size(), want_loop.body.len(), "{at}: size");
        let members: Vec<u64> = forest.body(i).collect();
        assert_eq!(members, want_loop.body.iter().copied().collect::<Vec<_>>(), "{at}: body");
        assert_eq!(got.parent(), want.parent(i), "{at}: parent");
    }
    assert_eq!(forest.max_depth(), want.max_depth(), "{what}: max_depth");
    for &b in graph.blocks.iter() {
        assert_eq!(forest.depth_of(b), want.depth_of(b), "{what}: depth_of({b:#x})");
    }
}

#[test]
fn every_golden_function_matches_the_reference_forest() {
    let mut loops = 0;
    for case in corpus::structure() {
        let elf = pba_elf::Elf::parse(case.elf()).unwrap();
        let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
        let ir = BinaryIr::build(&pba_parse::parse_parallel(&input, 2).cfg, 2);
        for f in ir.funcs() {
            let forest = f.loop_forest();
            let what = format!("{} seed {:#x} fn {:#x}", case.name, case.seed(), f.entry());
            check(f, f.graph(), forest, &what);
            loops += forest.loops.len();
        }
    }
    assert!(loops > 1000, "the images have loops: {loops}");
}

fn view(entry: u64, blocks: &[u64], edges: &[(u64, u64)]) -> VecView {
    VecView::new(
        entry,
        blocks.iter().map(|&b| (b, b + 1, vec![])).collect(),
        edges.iter().map(|&(a, b)| (a, b, EdgeKind::Direct)).collect(),
    )
}

/// Build `v`'s forest, compare it, and hand it back for extra checks.
fn checked(v: &VecView, what: &str) -> LoopForest {
    let graph = FlowGraph::build(v);
    let forest = loop_forest_on(v, &graph);
    check(v, &graph, &forest, what);
    forest
}

#[test]
fn irreducible_cycle_forms_no_loop_of_its_own() {
    // 2 <-> 3 is entered from both 1 -> 2 and 1 -> 3, so neither block
    // dominates the other; 4 -> 1 closes a natural loop around it all.
    let v = view(1, &[1, 2, 3, 4, 5], &[(1, 2), (1, 3), (2, 3), (3, 2), (3, 4), (4, 1), (4, 5)]);
    let f = checked(&v, "irreducible");
    assert_eq!(f.loops.len(), 1);
    assert_eq!(f.loops[0].header, 1);
    assert_eq!(f.depth_of(2), 1);
}

#[test]
fn self_loop() {
    let v = view(1, &[1, 2, 3], &[(1, 2), (2, 2), (2, 3)]);
    let f = checked(&v, "self loop");
    assert_eq!(f.body(0).collect::<Vec<_>>(), [2]);
}

#[test]
fn two_back_edges_to_one_header() {
    let v = view(1, &[1, 2, 3, 4, 5], &[(1, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5)]);
    let f = checked(&v, "two back edges");
    assert_eq!(f.loops.len(), 1);
    assert_eq!(f.body(0).collect::<Vec<_>>(), [2, 3, 4]);
}

#[test]
fn triple_nesting() {
    let v = view(
        1,
        &[1, 2, 3, 4, 5, 6, 7],
        &[(1, 2), (2, 3), (3, 4), (4, 4), (4, 5), (5, 3), (5, 6), (6, 2), (6, 7)],
    );
    let f = checked(&v, "triple nesting");
    assert_eq!(f.max_depth(), 3);
    assert_eq!(f.loops.iter().map(|l| l.parent()).collect::<Vec<_>>(), [None, Some(0), Some(1)]);
}

#[test]
fn unreachable_predecessor_of_two_sibling_loops() {
    // Siblings 2 <-> 3 and 4 <-> 5; the unreachable 9 feeds both, so
    // each flood takes it and it sits in two loops that do not nest.
    let v = view(
        1,
        &[1, 2, 3, 4, 5, 6, 9],
        &[(1, 2), (2, 3), (3, 2), (2, 4), (4, 5), (5, 4), (4, 6), (9, 3), (9, 5)],
    );
    let f = checked(&v, "unreachable predecessor of siblings");
    assert_eq!(f.loops.len(), 2);
    assert!(f.loops.iter().all(|l| l.parent().is_none() && l.depth == 1));
    assert_eq!(f.depth_of(9), 1);

    // The same shape with the second sibling's loop nested one deeper
    // (inside 4 -> ... -> 7 -> 4) and larger than the first, so the
    // shallower loop holding 9 is visited after the deeper one.
    let v = view(
        1,
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        &[
            (1, 2),
            (2, 3),
            (3, 2),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 10),
            (10, 5),
            (5, 7),
            (7, 4),
            (4, 8),
            (9, 3),
            (9, 6),
        ],
    );
    let f = checked(&v, "unreachable predecessor at two depths");
    let headers: Vec<(u64, u32)> = f.loops.iter().map(|l| (l.header, l.depth)).collect();
    assert_eq!(headers, [(4, 1), (5, 2), (2, 1)]);
    assert_eq!(f.depth_of(9), 2, "the deeper of the two loops that hold it");
}
