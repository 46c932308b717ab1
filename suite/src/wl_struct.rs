//! `struct_large`: file on disk -> `Session::open_path` -> `structure()` ->
//! `StructFile::to_text()`, a fresh `Session` per op.
//!
//! Two debug-heavy images in the shapes of the paper's Table 1 (TensorFlow-class:
//! template-bloated debug info; LLNL2-class: more code per debug byte), sized to
//! cost about the same, so that alternating them gives one hump of latencies and
//! not two with the median on the edge between. The images are a fifth of the
//! `Profile` sizes: the contract allows every run about twenty seconds.

use crate::inputs::{binary, stream, Truth, BASE};
use crate::layers::{
    self, dataflow_sides, debug_bytes, front, loop_forests, rayon_delta, rayon_mark,
    session_counters, SIDE_OPS,
};
use crate::trace::Trace;
use crate::workload::{Workload, THREADS};
use pba_driver::{Session, SessionConfig, SessionStats};
use pba_dwarf::decode::DebugSlices;
use pba_elf::ImageBytes;
use pba_gen::Profile;
use pba_hpcstruct::{analyze_artifacts, ArtifactTimes, HsConfig};
use std::path::PathBuf;
use std::sync::Mutex;

struct Image {
    path: PathBuf,
    truth: Truth,
    /// `structure().text` at one thread, equal at two (checked in set-up).
    text: String,
}

pub struct StructLarge {
    images: [Image; 2],
    /// `Session::stats()` of op 0, whose input does not depend on how many ops ran.
    last_stats: Mutex<Option<SessionStats>>,
}

pub struct Out {
    session: Session,
    text: String,
}

fn config(threads: usize) -> SessionConfig {
    SessionConfig::default().with_threads(threads).with_name("struct_large")
}

fn which(i: u64) -> usize {
    (i % 2) as usize
}

fn structure_text(path: &PathBuf, threads: usize) -> Result<(Session, String), String> {
    let session = Session::open_path(path, config(threads)).map_err(|e| e.to_string())?;
    let text = session.structure().map_err(|e| e.to_string())?.structure.to_text();
    Ok((session, text))
}

impl Workload for StructLarge {
    type Out = Out;
    const TAIL_PCT: u32 = 75;
    const EXACT_OPS: u64 = SIDE_OPS;
    const USES_SESSION: bool = true;

    fn setup(seed: u64, quick: bool) -> StructLarge {
        let mut rng = stream(seed, 1);
        let dir = PathBuf::from("target/bench/inputs");
        std::fs::create_dir_all(&dir).expect("create target/bench/inputs");
        let shrink = if quick { 4 } else { 1 };
        let images = [(Profile::TensorFlow, 640, "a"), (Profile::Llnl2, 680, "b")].map(
            |(profile, funcs, tag)| {
                // fifteen sixteenths base program, the rest drawn from the seed
                let mut cfg = profile.config(BASE);
                cfg.num_funcs = funcs * 15 / 16 / shrink;
                cfg.extra_funcs = funcs / 16 / shrink;
                cfg.variant = rng.next();
                let b = binary(&cfg);
                let path = dir.join(format!("struct_large_{seed}_{tag}.elf"));
                std::fs::write(&path, &b.elf).expect("write generated image");
                // Warm-up at both thread counts; the output must not depend on it.
                let (_, one) = structure_text(&path, 1).expect("structure at 1 thread");
                let (_, two) = structure_text(&path, THREADS).expect("structure at 2 threads");
                assert!(one == two, "structure text differs between 1 and {THREADS} threads");
                Image { path, truth: b.truth, text: one }
            },
        );
        StructLarge { images, last_stats: Mutex::new(None) }
    }

    fn op(&self, _client: usize, i: u64) -> Result<Out, String> {
        let (session, text) = structure_text(&self.images[which(i)].path, THREADS)?;
        Ok(Out { session, text })
    }

    fn check(&self, _client: usize, i: u64, out: Out) -> Result<(), String> {
        let image = &self.images[which(i)];
        if out.text != image.text {
            return Err("structure text differs from the 1-thread reference".into());
        }
        let hs = out.session.structure().map_err(|e| e.to_string())?;
        image.truth.check(hs.structure.functions.iter().map(|f| (f.entry, f.ranges.as_slice())))?;
        let s = out.session.stats();
        let built = [s.elf_parses, s.dwarf_decodes, s.cfg_parses, s.ir_builds, s.structure_builds];
        if built != [1; 5] {
            return Err(format!("artifact build counts {built:?}, expected 1 each"));
        }
        if i == 0 {
            *self.last_stats.lock().expect("stats lock") = Some(s);
        }
        Ok(())
    }

    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String> {
        let image = &self.images[which(i)];
        let mark = rayon_mark();
        let kept = t.span("op", |t| -> Result<_, String> {
            let bytes = t
                .span("elf.load", |_| ImageBytes::from_path(&image.path))
                .map_err(|e| e.to_string())?;
            let f = front(t, &bytes, i)?;
            let di = t
                .span("dwarf.decode", |_| {
                    layers::pool()
                        .install(|| pba_dwarf::decode_parallel(DebugSlices::from_elf(&f.elf)))
                })
                .map_err(|e| e.to_string())?;
            let hs_config = HsConfig { threads: THREADS, name: "struct_large".into() };
            let (assemble, hs) = t.span_id("hpcstruct.assemble", |_| {
                analyze_artifacts(
                    &di,
                    &f.parsed.cfg,
                    &f.ir,
                    &hs_config,
                    config(THREADS).executor,
                    ArtifactTimes::default(),
                )
            });
            let text = t.span("hpcstruct.to_text", |_| hs.structure.to_text());
            Ok((f, di, hs, text, assemble))
        });
        rayon_delta(t, mark);
        let (f, di, hs, text, assemble) = kept?;
        // analyze_artifacts computes every function's loop forest itself: the
        // same calls again, charged to its span, split the loops layer out of it.
        t.under(assemble, |t| loop_forests(t, &f.ir));

        t.sample("dwarf.debug_bytes", debug_bytes(&f.elf) as f64);
        t.sample("dwarf.cus", di.units.len() as f64);
        t.sample("dwarf.line_rows", di.line_row_count() as f64);
        t.sample("hpcstruct.funcs", hs.structure.functions.len() as f64);
        t.sample("hpcstruct.stmts", hs.structure.stmt_count() as f64);
        t.sample("hpcstruct.loops", hs.structure.loop_count() as f64);
        t.sample("hpcstruct.heap_bytes", hs.heap_bytes() as f64);
        if i < SIDE_OPS {
            t.sample("hpcstruct.text_bytes", text.len() as f64);
            dataflow_sides(t, &f.ir, config(THREADS).executor);
        }
        if text != image.text {
            return Err("layer-by-layer structure text differs from the Session's".into());
        }
        Ok(())
    }

    fn finish(&self, t: Option<&mut Trace>) -> Result<(), String> {
        if let (Some(t), Some(s)) = (t, *self.last_stats.lock().expect("stats lock")) {
            session_counters(t, &s);
        }
        Ok(())
    }
}

impl Drop for StructLarge {
    fn drop(&mut self) {
        // a driver runs dozens of seeds in one checkout
        for image in &self.images {
            let _ = std::fs::remove_file(&image.path);
        }
    }
}
