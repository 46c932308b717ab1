//! End-to-end behavior of a session opened over bytes: the hpcstruct
//! and BinFeat pipelines, a corpus walked one session per binary, and
//! a mapped input.

use pba_driver::{Error, Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use pba_hpcstruct::PHASE_NAMES;

fn sample() -> Vec<u8> {
    generate(&GenConfig { num_funcs: 30, seed: 77, ..Default::default() }).elf
}

fn open(bytes: &[u8], threads: usize, name: &str) -> Session {
    Session::open(bytes, SessionConfig::default().with_threads(threads).with_name(name))
}

#[test]
fn pipeline_produces_structure() {
    let session = open(&sample(), 2, "test.so");
    let out = session.structure().unwrap();
    assert!(!out.structure.functions.is_empty());
    assert!(out.structure.stmt_count() > 0, "line info recovered");
    assert!(out.structure.loop_count() > 0, "loops recovered");
    assert!(out.text.contains("<LM n=\"test.so\">"));
    assert_eq!(out.times.seconds.len(), PHASE_NAMES.len());
    assert!(out.times.total() > 0.0);
}

#[test]
fn inline_scopes_recovered() {
    let session = open(&sample(), 2, "t");
    let out = session.structure().unwrap();
    let total_inlines: usize = out.structure.functions.iter().map(|f| f.inlines.len()).sum();
    assert!(total_inlines > 0, "generator emits inline trees");
}

#[test]
fn thread_count_does_not_change_output() {
    let bytes = sample();
    let (one, four) = (open(&bytes, 1, "t"), open(&bytes, 4, "t"));
    let (a, b) = (one.structure().unwrap(), four.structure().unwrap());
    assert_eq!(a.structure, b.structure);
    assert_eq!(a.text, b.text);
}

#[test]
fn stripped_binary_still_works() {
    // No debug info: structure limited to CFG-derived facts.
    let g =
        generate(&GenConfig { num_funcs: 10, seed: 5, debug_info: false, ..Default::default() });
    let session = open(&g.elf, 2, "s");
    let out = session.structure().unwrap();
    assert!(!out.structure.functions.is_empty());
    assert_eq!(out.structure.stmt_count(), 0);
}

#[test]
fn malformed_image_is_an_error_not_a_panic() {
    let session = Session::open(&b"definitely not an elf"[..], SessionConfig::default());
    let err = session.structure().unwrap_err();
    assert!(matches!(err, Error::Elf(_)), "got {err:?}");
    assert_eq!(err.exit_code(), 65);
}

fn corpus(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            generate(&GenConfig {
                num_funcs: 12,
                seed: 1000 + i as u64,
                debug_info: false,
                ..Default::default()
            })
            .elf
        })
        .collect()
}

#[test]
fn corpus_deterministic() {
    // One session per binary, as `--bin table3` walks its corpus: each
    // binary's features are timed and do not depend on the threads.
    for bytes in corpus(4) {
        let (one, four) = (open(&bytes, 1, "t"), open(&bytes, 4, "t"));
        let (a, b) = (one.features().unwrap(), four.features().unwrap());
        assert!(!a.index.is_empty());
        assert!(a.t_cfg + a.t_if + a.t_cf + a.t_df > 0.0);
        assert_eq!(a.index, b.index);
    }
}

#[test]
fn corpus_surfaces_broken_binaries_as_errors() {
    let mut c = corpus(2);
    c.push(vec![0u8; 8]);
    let results: Vec<_> = c.iter().map(|bytes| open(bytes, 2, "t").features().cloned()).collect();
    assert!(results[..2].iter().all(Result::is_ok));
    let err = results[2].as_ref().unwrap_err();
    assert!(matches!(err, Error::Elf(_)), "got {err:?}");
}

#[test]
fn open_path_maps_the_file_and_matches_in_memory_analysis() {
    let bytes = sample();
    let dir = std::env::temp_dir().join(format!("pba-open-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.elf");
    std::fs::write(&path, &bytes).unwrap();

    // impl AsRef<Path>: &str, String, and PathBuf call sites all compile.
    let from_disk = Session::open_path(&path, SessionConfig::default().with_name("t")).unwrap();
    let from_str =
        Session::open_path(path.to_str().unwrap(), SessionConfig::default().with_name("t"))
            .unwrap();
    let in_memory = Session::open(bytes, SessionConfig::default().with_name("t"));

    assert_eq!(
        from_disk.structure().unwrap().text,
        in_memory.structure().unwrap().text,
        "mapped input must analyze byte-identically to owned input"
    );
    assert_eq!(from_str.features().unwrap().index, in_memory.features().unwrap().index);

    // The mapped image pins no anonymous heap, so a mapped session's
    // resident estimate is strictly below the owned-bytes session's.
    #[cfg(unix)]
    {
        from_disk.features().unwrap();
        in_memory.structure().unwrap();
        assert!(
            from_disk.stats().resident_bytes < in_memory.stats().resident_bytes,
            "mmap-backed input must not count as resident heap"
        );
    }

    match Session::open_path(dir.join("nope.elf"), SessionConfig::default()) {
        Err(Error::Io { path, .. }) => assert!(path.ends_with("nope.elf")),
        Err(e) => panic!("expected Io error, got {e}"),
        Ok(_) => panic!("missing file must not open"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn struct_and_features_on_one_session_share_the_parse() {
    // The amortization the redesign exists for: both case studies on
    // the same handle, one CFG construction.
    let session = Session::open(sample(), SessionConfig::default().with_threads(2).with_name("t"));
    let hs = session.structure().unwrap().clone();
    let bf = session.features().unwrap();
    assert!(!hs.structure.functions.is_empty());
    assert!(!bf.index.is_empty());
    let stats = session.stats();
    assert_eq!(stats.cfg_parses, 1, "struct+features must share one parse: {stats:?}");
    assert_eq!(stats.dwarf_decodes, 1);
    // The features call found the CFG already memoized, so its CFG
    // stage time is the fetch, not a parse. (Timing is wall-clock, so
    // only assert the sign, not a ratio.)
    assert!(bf.t_cfg >= 0.0);
}
