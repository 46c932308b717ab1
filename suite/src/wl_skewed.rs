//! `skewed_dataflow`: `Session::open` on a `Profile::Skewed` binary ->
//! `dataflow()` -> `loop_forests()` -> `serve::slice_function` on every function
//! with an indirect jump, under `ExecutorKind::Auto`.
//!
//! One ~2 400-block function among hundreds of tiny ones: the only input past
//! the Auto threshold, so the only one on which the within-function executors,
//! the deques and the `BitSet` transfer kernels carry the time.

use crate::inputs::{binary, check_cfg, stream, Binary};
use crate::layers::{
    dataflow_sides, front, jump_funcs, loop_forests, rayon_delta, rayon_mark, session_counters,
    SIDE_OPS,
};
use crate::roundset;
use crate::trace::Trace;
use crate::workload::{Workload, THREADS};
use pba_dataflow::engine::stats as engine_stats;
use pba_dataflow::ExecutorKind;
use pba_driver::{Session, SessionConfig, SessionStats};
use pba_elf::ImageBytes;
use pba_gen::Profile;
use pba_serve::{slice_function, SliceJump};
use std::sync::Mutex;

/// Seed of the base program that holds the giant (see `setup`).
const BASE_SEED: u64 = 12;

pub struct SkewedDataflow {
    bin: Binary,
    /// Entries of the functions that have an indirect jump, ascending.
    jump_funcs: Vec<u64>,
    /// Slice rows and loop count under `ExecutorKind::Serial`: the reference.
    rows: Vec<SliceJump>,
    loops: usize,
    first_stats: Mutex<Option<SessionStats>>,
}

pub struct Out {
    session: Session,
    rows: Vec<SliceJump>,
    loops: usize,
}

fn config(exec: ExecutorKind) -> SessionConfig {
    SessionConfig::default().with_threads(THREADS).with_executor(exec).with_name("skewed")
}

fn analyze(elf: &[u8], jump_funcs: &[u64], exec: ExecutorKind) -> Result<Out, String> {
    let session = Session::open(elf.to_vec(), config(exec));
    session.dataflow().map_err(|e| e.to_string())?;
    let forests = session.loop_forests().map_err(|e| e.to_string())?;
    let loops = forests.values().map(|f| f.loops.len()).sum();
    let mut rows = Vec::new();
    for &entry in jump_funcs {
        rows.extend(slice_function(&session, entry).map_err(|e| e.to_string())?);
    }
    Ok(Out { session, rows, loops })
}

impl Workload for SkewedDataflow {
    type Out = Out;
    const TAIL_PCT: u32 = 75;
    const EXACT_OPS: u64 = SIDE_OPS;
    const USES_SESSION: bool = true;

    fn setup(seed: u64, quick: bool) -> SkewedDataflow {
        // The profile's shape at 4/7 of its size: the giant stays past the Auto
        // threshold (checked below) and an op takes about a tenth of a second.
        // The giant's cost swings twofold with its random body, which no shape
        // knob controls, so the base program that holds it is the same for every
        // seed; the seed draws the 200 small functions appended around it.
        let mut cfg = Profile::Skewed.config(BASE_SEED);
        cfg.huge_diamonds = 800;
        cfg.num_funcs = 40;
        cfg.extra_funcs = if quick { 40 } else { 200 };
        cfg.variant = stream(seed, 4).next();
        let bin = binary(&cfg);
        let probe = Session::open(bin.elf.clone(), config(ExecutorKind::Serial));
        let parsed = probe.cfg().expect("generated ELF parses");
        let giant = parsed.functions.values().map(|f| f.blocks.len()).max().unwrap_or(0);
        assert!(
            giant >= pba_dataflow::auto_block_threshold(),
            "the giant has {giant} blocks, below the Auto threshold"
        );
        let jump_funcs = jump_funcs(parsed);
        let reference = analyze(&bin.elf, &jump_funcs, ExecutorKind::Serial).expect("reference");
        let w = SkewedDataflow {
            bin,
            jump_funcs,
            rows: reference.rows,
            loops: reference.loops,
            first_stats: Mutex::new(None),
        };
        w.op(0, 1).and_then(|o| w.check(0, 1, o)).expect("warm-up op");
        w
    }

    fn op(&self, _client: usize, _i: u64) -> Result<Out, String> {
        analyze(&self.bin.elf, &self.jump_funcs, ExecutorKind::Auto)
    }

    fn check(&self, _client: usize, i: u64, out: Out) -> Result<(), String> {
        if out.rows != self.rows {
            return Err("slice rows under Auto differ from the serial reference".into());
        }
        if out.loops != self.loops {
            return Err(format!("{} loops, serial reference has {}", out.loops, self.loops));
        }
        check_cfg(&self.bin.truth, out.session.cfg().map_err(|e| e.to_string())?)?;
        let s = out.session.stats();
        let built = [s.elf_parses, s.cfg_parses, s.ir_builds, s.dataflow_runs];
        if built != [1; 4] {
            return Err(format!("artifact build counts {built:?}, expected 1 each"));
        }
        if i == 0 {
            *self.first_stats.lock().expect("stats lock") = Some(s);
        }
        Ok(())
    }

    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String> {
        let mark = rayon_mark();
        let before = [
            engine_stats::VISITS.get(),
            engine_stats::ASYNC_ENQUEUED.get(),
            engine_stats::ASYNC_STOLEN.get(),
        ];
        let kept = t.span("op", |t| -> Result<_, String> {
            let image = ImageBytes::from(self.bin.elf.clone());
            let f = front(t, &image, i)?;
            let facts = t.span("dataflow.run_all", |_| {
                pba_dataflow::run_all_ir(&f.ir, THREADS, ExecutorKind::Auto)
            });
            let after = [
                engine_stats::VISITS.get(),
                engine_stats::ASYNC_ENQUEUED.get(),
                engine_stats::ASYNC_STOLEN.get(),
            ];
            loop_forests(t, &f.ir);
            // slice_function needs a Session; one built from the parsed ELF would
            // parse the CFG again, so the slices run on the IR directly, as
            // slice_function does inside.
            let rows = t.span("dataflow.slice", |_| slice_rows(&f, &self.jump_funcs));
            Ok((f, facts, after, rows))
        });
        rayon_delta(t, mark);
        let (f, facts, after, rows) = kept?;
        t.sample("dataflow.visits", (after[0] - before[0]) as f64);
        t.sample("dataflow.async_enqueued", (after[1] - before[1]) as f64);
        t.sample("dataflow.async_stolen", (after[2] - before[2]) as f64);
        t.sample(
            "dataflow.facts_bytes",
            facts.values().map(|a| a.heap_bytes()).sum::<usize>() as f64,
        );
        t.sample("dataflow.slice_jumps", rows.len() as f64);
        t.sample("dataflow.slice_widened", rows.iter().filter(|r| r.widened).count() as f64);
        if i < SIDE_OPS {
            dataflow_sides(t, &f.ir, ExecutorKind::Auto);
            roundset::baseline(t, &f.ir)?;
        }
        if rows != self.rows {
            return Err("layer-by-layer slice rows differ from the serial reference".into());
        }
        check_cfg(&self.bin.truth, &f.parsed.cfg)
    }

    fn finish(&self, t: Option<&mut Trace>) -> Result<(), String> {
        if let (Some(t), Some(s)) = (t, *self.first_stats.lock().expect("stats lock")) {
            session_counters(t, &s);
        }
        Ok(())
    }
}

/// What `pba_serve::slice_function` computes, off an IR instead of a `Session`.
fn slice_rows(f: &crate::layers::Front, jump_funcs: &[u64]) -> Vec<SliceJump> {
    let mut rows = Vec::new();
    for &entry in jump_funcs {
        let Some(fir) = f.ir.func(entry) else { continue };
        // slice_function scans the whole CFG for jumps once per function
        let mut blocks: Vec<u64> = pba_dataflow::collect_indirect_jumps(&f.parsed.cfg)
            .into_iter()
            .filter(|&(func, _)| func == entry)
            .map(|(_, b)| b)
            .collect();
        blocks.sort_unstable();
        for block in blocks {
            let sliced = pba_dataflow::slice_indirect_jump_with(fir, block, ExecutorKind::Auto);
            if let Some(o) = sliced {
                rows.push(SliceJump {
                    block,
                    widened: o.widened,
                    facts: o.facts.len() as u64,
                    classified: o.facts.iter().filter(|p| p.form.is_some()).count() as u64,
                    bounded: o.facts.iter().filter(|p| p.bound.is_some()).count() as u64,
                });
            }
        }
    }
    rows
}
