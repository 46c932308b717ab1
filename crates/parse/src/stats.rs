//! Machine-independent work metrics.
//!
//! Wall-clock scaling on a given host is one signal; these counters are
//! the other. They let the benches compare configurations (eager vs.
//! deferred notification, cache on/off, task vs. rounds) by *work done*
//! even on machines with few cores.

use pba_concurrent::Counter;
use serde::Serialize;

/// Counters maintained during a parse.
#[derive(Debug, Default)]
pub struct ParseStats {
    /// Instructions decoded (including redundant overlap decoding).
    pub insns_decoded: Counter,
    /// Linear parses answered by the per-task decode cache.
    pub cache_hits: Counter,
    /// Basic blocks created (Invariant 1 winners).
    pub blocks_created: Counter,
    /// Block-creation races lost.
    pub block_races: Counter,
    /// Block-end registrations (Invariant 2 winners).
    pub ends_registered: Counter,
    /// Eager block-split iterations (Invariant 4).
    pub split_iterations: Counter,
    /// Edges inserted.
    pub edges_created: Counter,
    /// Functions created (Invariant 5 winners).
    pub funcs_created: Counter,
    /// Call sites that waited on an unresolved callee status.
    pub noreturn_waits: Counter,
    /// Call sites resumed by eager `Returns` notification.
    pub noreturn_resumes: Counter,
    /// Jump tables whose bound was recovered from a guard.
    pub jt_bounded: Counter,
    /// Jump tables scanned without a recovered bound
    /// (over-approximated until finalization).
    pub jt_unbounded: Counter,
    /// Slicing runs whose path-state set hit the lattice cap and
    /// widened to bare classified forms (`pba_dataflow::SliceOutcome::widened`).
    pub jt_widened: Counter,
    /// Indirect-jump edges removed by finalization clamping.
    pub jt_edges_clamped: Counter,
    /// Tail-call decisions flipped during finalization.
    pub tailcall_flips: Counter,
    /// Undecodable candidate blocks.
    pub decode_errors: Counter,
    /// Wall time of the traversal batches (Listing 3), nanoseconds.
    pub traverse_ns: Counter,
    /// Wall time of the quiesce-time status work: the ret sweep plus
    /// status resolution, nanoseconds.
    pub sweep_ns: Counter,
    /// Wall time of the jump-table fixed point, nanoseconds.
    pub refine_ns: Counter,
    /// Wall time of finalization (Section 5.4), nanoseconds.
    pub finalize_ns: Counter,
    /// Function subgraphs walked to look for a `ret` (quiesce sweeps and
    /// late-discovered entries).
    pub sweep_views: Counter,
    /// Jump tables re-sliced by the fixed point because their
    /// function's subgraph had changed since the last slice.
    pub refine_reanalyses: Counter,
}

/// Plain-data snapshot for serialization/reporting.
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    pub insns_decoded: u64,
    pub cache_hits: u64,
    pub blocks_created: u64,
    pub block_races: u64,
    pub ends_registered: u64,
    pub split_iterations: u64,
    pub edges_created: u64,
    pub funcs_created: u64,
    pub noreturn_waits: u64,
    pub noreturn_resumes: u64,
    pub jt_bounded: u64,
    pub jt_unbounded: u64,
    pub jt_widened: u64,
    pub jt_edges_clamped: u64,
    pub tailcall_flips: u64,
    pub decode_errors: u64,
    pub traverse_ns: u64,
    pub sweep_ns: u64,
    pub refine_ns: u64,
    pub finalize_ns: u64,
    pub sweep_views: u64,
    pub refine_reanalyses: u64,
}

/// Run `f`, adding its wall time to the phase counter `ns`.
pub(crate) fn timed<R>(ns: &Counter, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let r = f();
    ns.add(start.elapsed().as_nanos() as u64);
    r
}

impl ParseStats {
    /// Snapshot all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            insns_decoded: self.insns_decoded.get(),
            cache_hits: self.cache_hits.get(),
            blocks_created: self.blocks_created.get(),
            block_races: self.block_races.get(),
            ends_registered: self.ends_registered.get(),
            split_iterations: self.split_iterations.get(),
            edges_created: self.edges_created.get(),
            funcs_created: self.funcs_created.get(),
            noreturn_waits: self.noreturn_waits.get(),
            noreturn_resumes: self.noreturn_resumes.get(),
            jt_bounded: self.jt_bounded.get(),
            jt_unbounded: self.jt_unbounded.get(),
            jt_widened: self.jt_widened.get(),
            jt_edges_clamped: self.jt_edges_clamped.get(),
            tailcall_flips: self.tailcall_flips.get(),
            decode_errors: self.decode_errors.get(),
            traverse_ns: self.traverse_ns.get(),
            sweep_ns: self.sweep_ns.get(),
            refine_ns: self.refine_ns.get(),
            finalize_ns: self.finalize_ns.get(),
            sweep_views: self.sweep_views.get(),
            refine_reanalyses: self.refine_reanalyses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = ParseStats::default();
        s.insns_decoded.add(10);
        s.split_iterations.inc();
        let snap = s.snapshot();
        assert_eq!(snap.insns_decoded, 10);
        assert_eq!(snap.split_iterations, 1);
        assert_eq!(snap.edges_created, 0);
    }
}
