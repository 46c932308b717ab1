//! The named baseline: a round-based `HashSet` worklist in the shape of the
//! `gabizon103/parallel-dataflow` exemplar (SNIPPETS.md). Every round hands the
//! whole dirty set to the pool, recomputes each block from a snapshot of the
//! outputs, then merges and marks the neighbours of changed blocks dirty.
//!
//! It lives in the benchmark, not the library, so "what the engine beats" stays
//! measurable whatever the library keeps. It runs liveness over every function in
//! the traced run of `skewed_dataflow` and must agree with `SerialExecutor`.

use crate::layers::pool;
use crate::trace::Trace;
use pba_dataflow::liveness::LivenessSpec;
use pba_dataflow::{liveness_on, BinaryIr, CfgView, DataflowSpec, ExecutorKind, FuncIr};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

/// Backward fixpoint of `spec` over `view`: `(input, output)` per block, in
/// `view.blocks()` order, and the number of block visits.
fn round_based<S: DataflowSpec + Sync>(
    spec: &S,
    view: &FuncIr,
) -> (Vec<S::Fact>, Vec<S::Fact>, u64) {
    let blocks = view.blocks();
    let at: HashMap<u64, usize> = blocks.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let succs: Vec<Vec<usize>> =
        blocks.iter().map(|&b| view.succ_edges(b).iter().map(|(s, _)| at[s]).collect()).collect();
    let preds: Vec<Vec<usize>> =
        blocks.iter().map(|&b| view.pred_edges(b).iter().map(|(p, _)| at[p]).collect()).collect();

    let mut input: Vec<S::Fact> = blocks.iter().map(|&b| spec.bottom(b)).collect();
    let mut output = input.clone();
    let mut worklist: HashSet<usize> = (0..blocks.len()).collect();
    let mut visits = 0u64;
    while !worklist.is_empty() {
        let batch: Vec<usize> = std::mem::take(&mut worklist).into_iter().collect();
        visits += batch.len() as u64;
        let results: Vec<(usize, S::Fact, S::Fact)> = batch
            .par_iter()
            .map(|&i| {
                // facts flow against the edges: a block without successors is a source
                let mut fact = if succs[i].is_empty() {
                    spec.boundary(blocks[i])
                } else {
                    spec.bottom(blocks[i])
                };
                for &s in &succs[i] {
                    spec.meet(&mut fact, &output[s]);
                }
                let out = spec.transfer(blocks[i], &fact);
                (i, fact, out)
            })
            .collect();
        for (i, fact, out) in results {
            input[i] = fact;
            if out != output[i] {
                output[i] = out;
                worklist.extend(&preds[i]);
            }
        }
    }
    (input, output, visits)
}

/// Run the baseline as a side span and compare it with the engine.
pub fn baseline(t: &mut Trace, ir: &BinaryIr) -> Result<(), String> {
    let funcs: Vec<&FuncIr> = ir.funcs().collect();
    let results = t.side("dataflow.roundset_baseline", |_| {
        pool().install(|| {
            funcs.iter().map(|f| round_based(&LivenessSpec::build(*f), f)).collect::<Vec<_>>()
        })
    });
    t.sample("dataflow.roundset_visits", results.iter().map(|r| r.2).sum::<u64>() as f64);
    for (f, (live_out, live_in, _)) in funcs.iter().zip(&results) {
        let serial = liveness_on(*f, f.graph(), ExecutorKind::Serial);
        for (i, &b) in f.blocks().iter().enumerate() {
            if serial.live_in(b) != live_in[i] || serial.live_out(b) != live_out[i] {
                return Err(format!(
                    "round-based liveness differs from SerialExecutor at block {b:#x} of {:#x}",
                    f.entry()
                ));
            }
        }
    }
    Ok(())
}
