//! Pin the unified thread-count convention: `threads: 0` means "all
//! available" at every layer — the session config, the parse config,
//! and the rayon pool builder underneath them.

use pba_driver::{Session, SessionConfig};
use pba_gen::{generate, GenConfig};
use pba_parse::ParseConfig;

fn hw() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[test]
fn zero_means_all_available_at_every_layer() {
    let hw = hw();
    // Session layer.
    assert_eq!(SessionConfig::default().effective_threads(), hw);
    assert_eq!(SessionConfig::default().with_threads(0).effective_threads(), hw);
    assert_eq!(SessionConfig::default().with_threads(3).effective_threads(), 3);
    // Parse layer.
    assert_eq!(ParseConfig { threads: 0, ..Default::default() }.effective_threads(), hw);
    // Pool layer.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(0).build().unwrap();
    assert_eq!(pool.current_num_threads(), hw);
}

#[test]
fn zero_threads_runs_and_matches_explicit_counts() {
    let bytes =
        generate(&GenConfig { num_funcs: 16, seed: 321, debug_info: false, ..Default::default() })
            .elf;
    // A 0-thread session is a full-parallelism session, not a 1-thread
    // fallback — and outputs are thread-count independent anyway.
    let zero = Session::open(bytes.clone(), SessionConfig::default().with_threads(0));
    let one = Session::open(bytes, SessionConfig::default().with_threads(1));
    assert_eq!(
        zero.cfg().unwrap().canonical(),
        one.cfg().unwrap().canonical(),
        "0-thread and 1-thread parses diverged"
    );
    assert_eq!(zero.features().unwrap().index, one.features().unwrap().index);
}
