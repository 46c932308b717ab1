//! Golden pin of the finalized CFG.
//!
//! The equality tests (`integration.rs`, `properties.rs`) compare the
//! parser with itself — serial against parallel, `Task` against
//! `Rounds` — so a change that moves *both* sides passes them. The
//! digests below were generated at the commit before the parser's sweep
//! / refine / finalize rewrite (`085b4e1`) and are checked in as
//! constants: every thread count, scheduling and decode-cache setting
//! must still reproduce them. The `SERVE_GOLDEN` rows (the daemon
//! benchmark's switch-heavy shape) were added, generated the same way,
//! before the jump-table slice was rewritten for cost.
//!
//! A digest is FNV-1a-64 over `cfg.canonical()` (blocks, edges,
//! per-function membership and `ret_status`) followed by the sorted
//! jump-table (indirect-edge) targets and the per-function statuses
//! again in entry order. Regenerate (only for an intended output
//! change) with
//! `cargo test -p pba-parse --test golden -- --ignored --nocapture print_golden`.

use pba_cfg::{Cfg, EdgeKind};
use pba_gen::{generate, GenConfig, Profile};
use pba_parse::{parse, ParseConfig, ParseInput, ParseResult, Scheduling};

const PROFILES: [Profile; 7] = [
    Profile::Llnl1,
    Profile::Llnl2,
    Profile::Camellia,
    Profile::TensorFlow,
    Profile::Coreutils,
    Profile::Server,
    Profile::Skewed,
];
const SEEDS: [u64; 3] = [11, 0x5EED_BA5E, 20_210_227];

/// `(profile, seed, cfg digest, 1-thread work counters)`; the counters
/// are `[blocks_created, edges_created, funcs_created,
/// split_iterations, jt_bounded, jt_unbounded, insns_decoded]` of the
/// 1-thread / `Task` / decode-cache-on parse, which is deterministic.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, [u64; 7]); 21] = [
    ("LLNL1", 0xb, 0x341c530b717eb7e3, [1019, 1432, 110, 335, 7, 2, 5892]),
    ("LLNL1", 0x5eedba5e, 0x4839026fdf24bb7c, [1015, 1436, 110, 301, 14, 1, 5985]),
    ("LLNL1", 0x1346233, 0xfa9e69af062b6196, [1061, 1512, 110, 329, 14, 3, 6033]),
    ("LLNL2", 0xb, 0x2ceffe23d95b3f79, [1937, 2750, 210, 573, 21, 7, 11085]),
    ("LLNL2", 0x5eedba5e, 0x7415d631ab099045, [1932, 2728, 210, 560, 18, 5, 11286]),
    ("LLNL2", 0x1346233, 0x8e6830c1dd6a94f3, [1820, 2557, 210, 577, 14, 2, 10764]),
    ("Camellia", 0xb, 0xd19a10ca407b8ef4, [544, 765, 60, 160, 3, 3, 2891]),
    ("Camellia", 0x5eedba5e, 0x2fcf873dbbfa740b, [559, 801, 60, 156, 7, 2, 2908]),
    ("Camellia", 0x1346233, 0xa4a9a8732f436a3c, [518, 726, 60, 163, 2, 1, 2935]),
    ("TensorFlow", 0xb, 0xa3659ca23021b892, [1603, 2311, 160, 467, 22, 6, 8173]),
    ("TensorFlow", 0x5eedba5e, 0x95f457fcd7f5fd63, [1430, 2010, 160, 414, 15, 5, 7415]),
    ("TensorFlow", 0x1346233, 0x2091c9aa6fb717ee, [1542, 2188, 160, 488, 23, 5, 7892]),
    ("coreutils", 0xb, 0xe477f0522c7b3f8a, [447, 634, 48, 122, 7, 1, 2081]),
    ("coreutils", 0x5eedba5e, 0x145dab8fe359acb9, [468, 673, 48, 130, 6, 3, 2220]),
    ("coreutils", 0x1346233, 0x690b655490f75da6, [462, 652, 48, 142, 4, 2, 2204]),
    ("server", 0xb, 0x6133280c6c703336, [403, 565, 48, 118, 3, 0, 2220]),
    ("server", 0x5eedba5e, 0x19c756083d702a6e, [436, 617, 48, 127, 3, 2, 2298]),
    ("server", 0x1346233, 0x880db31d4a5657f2, [474, 673, 48, 143, 5, 4, 2419]),
    ("skewed", 0xb, 0x29f51483cffe5a0b, [660, 900, 48, 206, 1, 0, 2986]),
    ("skewed", 0x5eedba5e, 0x6e18e361a24b402e, [668, 914, 48, 214, 1, 0, 3432]),
    ("skewed", 0x1346233, 0x9b7cd3531b2c9ca5, [683, 932, 48, 223, 1, 0, 3189]),
];

/// The switch-heavy shape the daemon benchmark serves (`serve()`): its
/// parse is mostly jump-table slicing, which the profiles above exercise
/// lightly. Same columns as [`GOLDEN`], one row per seed.
#[rustfmt::skip]
const SERVE_GOLDEN: [(&str, u64, u64, [u64; 7]); 3] = [
    ("serve", 0xb, 0x255a15465efe728c, [2305, 3508, 140, 502, 107, 25, 9811]),
    ("serve", 0x5eedba5e, 0x236abcafe125f775, [2232, 3398, 140, 452, 95, 37, 9331]),
    ("serve", 0x1346233, 0xe4eddfea851a483a, [2245, 3408, 140, 505, 103, 29, 9400]),
];

/// The 1-thread `[jt_slices, jt_views]` of each `SERVE_GOLDEN` row: the
/// jump-table slicing runs and function views the parse's jump-table
/// analysis took, exact like the counters above. Pinned after the slice
/// was rewritten for cost; the parser before it took `[325, 523]`,
/// `[364, 518]` and `[363, 522]` on these rows.
#[rustfmt::skip]
const SERVE_JT_WORK: [[u64; 2]; 3] = [[255, 326], [257, 381], [250, 367]];

/// 140 functions, every one with a switch: the daemon benchmark's
/// working-set binaries without their debug info and appended variants.
fn serve(seed: u64) -> GenConfig {
    GenConfig { seed, num_funcs: 140, pct_switch: 1.0, debug_info: false, ..Default::default() }
}

/// The profile at a twentieth of its function count (at least 48), no
/// debug info (the parser never reads it), a small giant for `Skewed`.
fn small(profile: Profile, seed: u64) -> GenConfig {
    let mut c = profile.config(seed);
    c.num_funcs = (c.num_funcs / 20).max(48);
    c.huge_diamonds = c.huge_diamonds.min(90);
    c.debug_info = false;
    c
}

fn input_for(cfg: &GenConfig) -> ParseInput {
    let g = generate(cfg);
    let elf = pba_elf::Elf::parse(g.elf).unwrap();
    ParseInput::from_elf(&elf).unwrap()
}

/// The bytes a digest is taken over: tagged sections of little-endian
/// words and `Debug` names.
#[derive(Default)]
struct Canon(Vec<u8>);

impl Canon {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn tag(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn digest(cfg: &Cfg) -> u64 {
    let canon = cfg.canonical();
    let mut h = Canon::default();
    h.tag("blocks");
    for &(s, e) in &canon.blocks {
        h.u64(s);
        h.u64(e);
    }
    h.tag("edges");
    for e in &canon.edges {
        h.u64(e.src);
        h.u64(e.dst);
        h.tag(&format!("{:?}", e.kind));
    }
    h.tag("functions");
    for (entry, blocks, status) in &canon.functions {
        h.u64(*entry);
        h.u64(blocks.len() as u64);
        for &b in blocks {
            h.u64(b);
        }
        h.tag(&format!("{status:?}"));
    }
    h.tag("jump-table targets");
    let mut targets: Vec<(u64, u64)> = canon
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Indirect)
        .map(|e| (e.src, e.dst))
        .collect();
    targets.sort_unstable();
    for (src, dst) in targets {
        h.u64(src);
        h.u64(dst);
    }
    h.tag("ret_status");
    for f in cfg.functions.values() {
        h.u64(f.entry);
        h.tag(&format!("{:?}", f.ret_status));
    }
    pba_elf::image::fnv1a_64(&h.0)
}

fn counters(r: &ParseResult) -> [u64; 7] {
    let s = r.stats.snapshot();
    [
        s.blocks_created,
        s.edges_created,
        s.funcs_created,
        s.split_iterations,
        s.jt_bounded,
        s.jt_unbounded,
        s.insns_decoded,
    ]
}

fn jt_work(r: &ParseResult) -> [u64; 2] {
    let s = r.stats.snapshot();
    [s.jt_slices, s.jt_views]
}

fn t1(input: &ParseInput) -> ParseResult {
    parse(input, &ParseConfig { threads: 1, ..Default::default() })
}

/// Check one golden row: the exact 1-thread counters, then the digest at
/// every thread count, scheduling and decode-cache setting.
fn check(name: &str, seed: u64, input: &ParseInput, want: u64, want_counters: [u64; 7]) {
    let got = counters(&t1(input));
    // `insns_decoded` may only go down; the rest are exact.
    assert_eq!(got[..6], want_counters[..6], "{name} seed {seed:#x}: 1-thread counters");
    assert!(got[6] <= want_counters[6], "{name} seed {seed:#x}: insns_decoded {}", got[6]);

    for threads in [1usize, 2, 4] {
        for scheduling in [Scheduling::Task, Scheduling::Rounds] {
            for decode_cache in [true, false] {
                let cfg = ParseConfig { threads, scheduling, decode_cache, ..Default::default() };
                let got = digest(&parse(input, &cfg).cfg);
                assert_eq!(
                    got, want,
                    "{name} seed {seed:#x}: {threads} threads, {scheduling:?}, \
                     decode_cache={decode_cache}: digest {got:#018x} != golden {want:#018x}"
                );
            }
        }
    }
}

/// One test, not two: one-thread parses on different test threads share
/// the pool's worker-less one-thread registry and run each other's
/// tasks, which is harmless for the CFG but moves `insns_decoded` (a
/// foreign task resets the thread's decode cache).
#[test]
fn digests_and_one_thread_counters_match_the_checked_in_constants() {
    let mut rows = GOLDEN.iter();
    for profile in PROFILES {
        for seed in SEEDS {
            let &(name, want_seed, want, want_counters) = rows.next().unwrap();
            assert_eq!((name, want_seed), (profile.name(), seed), "GOLDEN row order");
            check(name, seed, &input_for(&small(profile, seed)), want, want_counters);
        }
    }
    for ((&(name, want_seed, want, want_counters), seed), want_jt) in
        SERVE_GOLDEN.iter().zip(SEEDS).zip(SERVE_JT_WORK)
    {
        assert_eq!(want_seed, seed, "SERVE_GOLDEN row order");
        let input = input_for(&serve(seed));
        check(name, seed, &input, want, want_counters);
        assert_eq!(jt_work(&t1(&input)), want_jt, "{name} seed {seed:#x}: [jt_slices, jt_views]");
    }
}

#[test]
#[ignore = "prints the GOLDEN, SERVE_GOLDEN and SERVE_JT_WORK tables; run at the commit whose output is to be pinned"]
fn print_golden() {
    let row = |name: &str, seed: u64, cfg: &GenConfig| {
        let r = t1(&input_for(cfg));
        println!("    ({name:?}, {seed:#x}, {:#018x}, {:?}),", digest(&r.cfg), counters(&r));
    };
    for profile in PROFILES {
        for seed in SEEDS {
            row(profile.name(), seed, &small(profile, seed));
        }
    }
    for seed in SEEDS {
        row("serve", seed, &serve(seed));
    }
    let work: Vec<[u64; 2]> =
        SEEDS.iter().map(|&seed| jt_work(&t1(&input_for(&serve(seed))))).collect();
    println!("const SERVE_JT_WORK: [[u64; 2]; 3] = {work:?};");
}
