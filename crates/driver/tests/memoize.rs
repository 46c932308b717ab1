//! The session contract: every artifact is computed at most once, even
//! under concurrent access from many threads.

use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use std::sync::Arc;

fn sample() -> Vec<u8> {
    generate(&GenConfig { num_funcs: 24, seed: 4711, ..Default::default() }).elf
}

#[test]
fn cfg_parses_exactly_once_under_concurrent_access() {
    let session = Arc::new(Session::open(sample(), SessionConfig::default().with_threads(2)));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let session = Arc::clone(&session);
            s.spawn(move || {
                let cfg = session.cfg().unwrap();
                assert!(!cfg.functions.is_empty());
            });
        }
    });
    let stats = session.stats();
    assert_eq!(stats.cfg_parses, 1, "eight concurrent cfg() calls, one parse: {stats:?}");
    assert_eq!(stats.elf_parses, 1);
}

#[test]
fn all_artifacts_compute_once_across_mixed_concurrent_consumers() {
    let session = Arc::new(Session::open(sample(), SessionConfig::default().with_threads(2)));
    let entries: Vec<u64> = {
        // Prime the CFG from the main thread so we can pick entries;
        // the workers below must not re-parse it.
        session.cfg().unwrap().functions.keys().copied().take(4).collect()
    };
    std::thread::scope(|s| {
        for i in 0..12 {
            let session = Arc::clone(&session);
            let entries = entries.clone();
            s.spawn(move || match i % 6 {
                0 => assert!(session.elf().is_ok()),
                1 => assert!(session.debug_info().is_ok()),
                2 => assert!(!session.dataflow().unwrap().is_empty()),
                3 => assert!(!session.structure().unwrap().structure.functions.is_empty()),
                4 => assert!(!session.features().unwrap().index.is_empty()),
                _ => {
                    for &e in &entries {
                        let _ = session.loop_forest(e).unwrap();
                    }
                }
            });
        }
    });
    let stats = session.stats();
    assert_eq!(stats.elf_parses, 1, "{stats:?}");
    assert_eq!(stats.dwarf_decodes, 1, "{stats:?}");
    assert_eq!(stats.cfg_parses, 1, "{stats:?}");
    assert_eq!(stats.dataflow_runs, 1, "{stats:?}");
    assert_eq!(stats.structure_builds, 1, "{stats:?}");
    assert_eq!(stats.feature_builds, 1, "{stats:?}");
    // structure() and features() read every function's forest; the
    // loop_forest() callers share theirs.
    let funcs = session.ir().unwrap().len() as u64;
    assert_eq!(stats.loop_forests, funcs, "one forest per function: {stats:?}");
}

#[test]
fn failures_memoize_too() {
    // Not an ELF: elf() fails identically every time, and the broken
    // image is still only parsed once.
    let session = Session::open(vec![0u8; 16], SessionConfig::default());
    let first = session.elf().unwrap_err();
    let second = session.elf().unwrap_err();
    assert_eq!(first, second);
    // Derived artifacts inherit the same failure rather than panicking.
    assert_eq!(session.cfg().unwrap_err(), first);
    assert_eq!(session.structure().unwrap_err(), first);
    assert_eq!(session.features().unwrap_err(), first);
    assert_eq!(session.stats().elf_parses, 1);
}

#[test]
fn unknown_function_is_a_clean_error() {
    let session = Session::open(sample(), SessionConfig::default().with_threads(1));
    let err = session.loop_forest(0xdead_beef).unwrap_err();
    assert!(matches!(err, pba_driver::Error::FunctionNotFound(_)));
    assert_eq!(err.exit_code(), 1);
}
