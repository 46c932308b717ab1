//! In-flight function view for jump-table slicing.
//!
//! Jump-table analysis and the fixed-point re-analysis run *while the
//! CFG is still growing*. This view snapshots one function's currently
//! known intra-procedural subgraph — blocks reachable from the entry
//! over non-inter-procedural edges — which is monotonically growing, so
//! a stale snapshot can only under-approximate (and the fixed-point
//! rounds recover whatever was missed; Section 5.3).
//!
//! It serves slicing only: [`pba_dataflow::slice_indirect_jump_with`] needs
//! predecessor edges and instructions, which is what the maps and the
//! lazy decode below are for. The status sweeps, which only ask whether
//! a subgraph holds a `ret`, walk the shared maps directly
//! (`traverse::walk_function`) and build no view.
//!
//! The borrowing [`CfgView`] contract ("each block decoded at most
//! once per view") is met lazily: a block's instructions are decoded on
//! the first `insns` call and cached in a per-block `OnceLock`, so the
//! jump-table slice still only ever decodes its backward cone, once —
//! and one view can serve every jump table of its function.

use crate::state::State;
use pba_cfg::EdgeKind;
use pba_concurrent::fx_hash_u64;
use pba_concurrent::fxhash::{FxHashMap, FxHashSet};
use pba_dataflow::CfgView;
use pba_isa::Insn;
use std::sync::OnceLock;

/// One captured block: byte range end plus the lazily decoded body.
struct SnapBlock {
    end: u64,
    insns: OnceLock<Vec<Insn>>,
}

/// What a view captured, compressed to block count, edge count and an
/// order-independent 64-bit hash of every `(start, end)` and
/// `(src, dst, kind)`. The subgraph only grows or splits, so the counts
/// alone catch most changes; equal fingerprints are taken to mean an
/// equal subgraph (and with it an equal slice).
pub type Fingerprint = (usize, usize, u64);

/// Snapshot of one function's known subgraph.
pub struct SnapshotView {
    entry: u64,
    blocks: Vec<u64>,
    data: FxHashMap<u64, SnapBlock>,
    succs: FxHashMap<u64, Vec<(u64, EdgeKind)>>,
    preds: FxHashMap<u64, Vec<(u64, EdgeKind)>>,
    code: std::sync::Arc<pba_cfg::CodeRegion>,
}

impl SnapshotView {
    /// Build by BFS from `entry` over intra-procedural edges. Blocks of
    /// `ensure` the BFS did not reach (the path from the entry is still
    /// being parsed) are added in isolation, so jump-table analysis can
    /// at least classify the dispatch form.
    pub fn build(state: &State<'_>, entry: u64, ensure: &[u64]) -> SnapshotView {
        let mut data: FxHashMap<u64, SnapBlock> = FxHashMap::default();
        let mut succs: FxHashMap<u64, Vec<(u64, EdgeKind)>> = FxHashMap::default();
        let mut preds: FxHashMap<u64, Vec<(u64, EdgeKind)>> = FxHashMap::default();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut work = vec![entry];
        while let Some(b) = work.pop() {
            if !seen.insert(b) {
                continue;
            }
            let Some(rec) = state.blocks.find(&b) else { continue };
            let end = rec.end;
            drop(rec);
            if end == 0 {
                continue; // still being parsed
            }
            data.insert(b, SnapBlock { end, insns: OnceLock::new() });
            if let Some(edges) = state.edges.find(&end) {
                for &(dst, kind) in edges.iter() {
                    if kind.is_interprocedural() {
                        continue;
                    }
                    succs.entry(b).or_default().push((dst, kind));
                    preds.entry(dst).or_default().push((b, kind));
                    work.push(dst);
                }
            }
        }
        for &b in ensure {
            if let std::collections::hash_map::Entry::Vacant(e) = data.entry(b) {
                if let Some(rec) = state.blocks.find(&b) {
                    if rec.end != 0 {
                        e.insert(SnapBlock { end: rec.end, insns: OnceLock::new() });
                    }
                }
            }
        }
        // Drop edges whose target was never materialized as a block.
        for v in succs.values_mut() {
            v.retain(|(d, _)| data.contains_key(d));
        }
        for (_, v) in preds.iter_mut() {
            v.retain(|(s, _)| data.contains_key(s));
        }
        let mut blocks: Vec<u64> = data.keys().copied().collect();
        blocks.sort_unstable();
        SnapshotView { entry, blocks, data, succs, preds, code: state.input.code.clone() }
    }

    /// Number of blocks captured.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the entry block has not been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Fingerprint of the captured subgraph.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut edges = 0;
        let mut hash = 0u64;
        for (&b, blk) in &self.data {
            hash = hash.wrapping_add(fx_hash_u64(fx_hash_u64(b) ^ blk.end));
        }
        for (&src, out) in &self.succs {
            edges += out.len();
            for &(dst, kind) in out {
                let e = fx_hash_u64(fx_hash_u64(!src) ^ dst);
                hash = hash.wrapping_add(fx_hash_u64(e ^ kind as u64));
            }
        }
        (self.data.len(), edges, hash)
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
        (block, self.data.get(&block).map(|b| b.end).unwrap_or(block))
    }

    fn succ_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.succs.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn pred_edges(&self, block: u64) -> &[(u64, EdgeKind)] {
        self.preds.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn insns(&self, block: u64) -> &[Insn] {
        match self.data.get(&block) {
            Some(blk) => blk.insns.get_or_init(|| self.code.insns(block, blk.end)),
            None => &[],
        }
    }
}
