//! `features_corpus`: one small stripped binary -> `Session::open` ->
//! `features()` -> `IndexConfig::signature` -> `CorpusIndex::insert_signed`.
//!
//! The corpus is clone families (`extra_funcs` / `variant`) of Server- and
//! Coreutils-class binaries: the family bases and their ladder of function counts
//! are the same for every seed, the variants are drawn from it. The ops walk the
//! corpus in order and start a fresh index on each lap, so every insert is new.

use crate::inputs::{binary, check_cfg, stream, Binary, BASE};
use crate::layers::{dataflow_sides, front, rayon_delta, rayon_mark, session_counters, SIDE_OPS};
use crate::trace::Trace;
use crate::workload::{Workload, THREADS};
use pba_binfeat::{extract_cfg_features, CorpusIndex, IndexConfig};
use pba_driver::{Session, SessionConfig, SessionStats};
use pba_elf::ImageBytes;
use pba_gen::Profile;
use std::sync::Mutex;

const FAMILIES: usize = 100;
const VARIANTS: usize = 4;

pub struct FeaturesCorpus {
    corpus: Vec<Binary>,
    index: Mutex<CorpusIndex>,
    /// `Session::stats()` of op 0.
    first_stats: Mutex<Option<SessionStats>>,
}

pub struct Out {
    session: Session,
    inserted: bool,
}

fn config() -> SessionConfig {
    SessionConfig::default().with_threads(THREADS).with_name("features_corpus")
}

impl FeaturesCorpus {
    fn lap_start(&self, i: u64) -> std::sync::MutexGuard<'_, CorpusIndex> {
        let mut index = self.index.lock().expect("index lock");
        if (i as usize).is_multiple_of(self.corpus.len()) {
            *index = CorpusIndex::default();
        }
        index
    }
}

impl Workload for FeaturesCorpus {
    type Out = Out;
    const TAIL_PCT: u32 = 90;
    const EXACT_OPS: u64 = SIDE_OPS;
    const USES_SESSION: bool = true;

    fn setup(seed: u64, quick: bool) -> FeaturesCorpus {
        let mut rng = stream(seed, 2);
        let families = if quick { FAMILIES / 4 } else { FAMILIES };
        let mut corpus = Vec::with_capacity(families * VARIANTS);
        for fam in 0..families {
            let profile = if fam % 2 == 0 { Profile::Server } else { Profile::Coreutils };
            let mut cfg = profile.config(BASE + fam as u64);
            cfg.num_funcs = 68 + 6 * (fam % 12);
            cfg.debug_info = false;
            cfg.extra_funcs = 4;
            for _ in 0..VARIANTS {
                cfg.variant = rng.next();
                corpus.push(binary(&cfg));
            }
        }
        let w = FeaturesCorpus {
            corpus,
            index: Mutex::new(CorpusIndex::default()),
            first_stats: Mutex::new(None),
        };
        // warm-up: pool start-up and first-touch costs are not an op's
        for i in 0..VARIANTS as u64 {
            w.op(0, i).and_then(|o| w.check(0, i, o)).expect("warm-up op");
        }
        w
    }

    fn op(&self, _client: usize, i: u64) -> Result<Out, String> {
        let bin = &self.corpus[i as usize % self.corpus.len()];
        let session = Session::open(bin.elf.clone(), config());
        let feats = session.features().map_err(|e| e.to_string())?;
        let sig = IndexConfig::default().signature(&feats.index);
        let inserted =
            self.lap_start(i).insert_signed(session.content_hash(), sig, feats.index.clone());
        Ok(Out { session, inserted })
    }

    fn check(&self, _client: usize, i: u64, out: Out) -> Result<(), String> {
        if !out.inserted {
            return Err("insert_signed refused a binary that is new on this lap".into());
        }
        let bin = &self.corpus[i as usize % self.corpus.len()];
        check_cfg(&bin.truth, out.session.cfg().map_err(|e| e.to_string())?)?;
        let s = out.session.stats();
        let built = [s.elf_parses, s.cfg_parses, s.ir_builds, s.feature_builds];
        if built != [1; 4] || s.dwarf_decodes + s.structure_builds + s.dataflow_runs != 0 {
            return Err(format!("artifact build counts off: {s:?}"));
        }
        if i == 0 {
            *self.first_stats.lock().expect("stats lock") = Some(s);
        }
        Ok(())
    }

    fn traced_op(&self, i: u64, t: &mut Trace) -> Result<(), String> {
        let bin = &self.corpus[i as usize % self.corpus.len()];
        let mark = rayon_mark();
        let kept = t.span("op", |t| -> Result<_, String> {
            let image = ImageBytes::from(bin.elf.clone());
            let f = front(t, &image, i)?;
            let feats = t.span("binfeat.extract", |_| {
                extract_cfg_features(&f.parsed.cfg, &f.ir, THREADS, config().executor)
            });
            let sig = t.span("binfeat.sign", |_| IndexConfig::default().signature(&feats.index));
            let hash = t.span("elf.hash", |_| image.content_hash());
            let keys = feats.index.len();
            let inserted = t.span("binfeat.insert", |_| {
                self.lap_start(i).insert_signed(hash, sig, feats.index)
            });
            Ok((f, keys, inserted))
        });
        rayon_delta(t, mark);
        let (f, keys, inserted) = kept?;
        if i < SIDE_OPS {
            t.sample("binfeat.feature_keys", keys as f64);
            dataflow_sides(t, &f.ir, config().executor);
        }
        check_cfg(&bin.truth, &f.parsed.cfg)?;
        if !inserted {
            return Err("insert_signed refused a binary that is new on this lap".into());
        }
        Ok(())
    }

    fn finish(&self, t: Option<&mut Trace>) -> Result<(), String> {
        if let Some(t) = t {
            let index = self.index.lock().expect("index lock");
            t.set("binfeat.index_entries", index.len() as f64);
            t.set("binfeat.index_bytes", index.heap_bytes() as f64);
            if let Some(s) = *self.first_stats.lock().expect("stats lock") {
                session_counters(t, &s);
            }
        }
        Ok(())
    }
}
