//! Section 8.1 as a tier-1 test: on coreutils-class binaries the parser
//! matches the generator's exact ground truth — function ranges,
//! non-returning status, jump-table sizes, and no fall-through after a
//! non-returning call — with no difference at all. The seeds are the
//! eleven `PBA_SCALE=0.1 --bin correctness` checks (`0xC0DE + i`).

use pba_bench::{check_binary, CheckReport};
use pba_gen::{generate, Profile};

#[test]
fn coreutils_corpus_matches_ground_truth_exactly() {
    let mut agg = CheckReport::default();
    for i in 0..11 {
        let g = generate(&Profile::Coreutils.config(0xC0DE + i));
        agg.merge(check_binary(&g, 2));
    }
    assert!(
        agg.funcs_total > 0 && agg.jts_total > 0 && agg.norets_total > 0,
        "the corpus must exercise every checked property: {agg:?}"
    );
    assert!(agg.perfect(), "differences from ground truth: {agg:#?}");
}
