//! Golden pin of the three standard dataflow analyses.
//!
//! The equivalence tests (`engine_equiv.rs`) compare the engine with
//! reference loops on small random binaries, and no oracle ever sees
//! the `Skewed` profile's giant function. The digests below were
//! generated before the reaching-definitions spec was rebuilt on
//! per-register def-id ranges and are checked in as constants.
//!
//! A digest is FNV-1a-64 over every function in entry order: its sorted
//! definition sites, each block's sorted reaching definitions at entry,
//! then each block's liveness `live_in` / `live_out` and stack
//! `entry_frame` / `exit_frame`. Sorting makes the digest independent of
//! the order def ids are handed out in. Regenerate (only for an intended
//! output change) with
//! `cargo test -p pba-dataflow --test golden -- --ignored --nocapture print_golden`.

use pba_dataflow::stack::Frame;
use pba_dataflow::{run_all_ir, BinaryIr, Def, ExecutorKind, Height};
use pba_gen::{generate, GenConfig, Profile};

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

/// `(profile, seed, digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 21] = [
    ("LLNL1", 0xb, 0x82e278eead8d1eaf), // largest function: 24 blocks
    ("LLNL1", 0x5eedba5e, 0x71a576f936aadaf6), // largest function: 22 blocks
    ("LLNL1", 0x1346233, 0x984dec6f58187c0c), // largest function: 22 blocks
    ("LLNL2", 0xb, 0x11e3650b86178a89), // largest function: 28 blocks
    ("LLNL2", 0x5eedba5e, 0xc480bb4686a0b4b8), // largest function: 26 blocks
    ("LLNL2", 0x1346233, 0x2c9016d3744e3852), // largest function: 23 blocks
    ("Camellia", 0xb, 0x86fd1f80a574e43a), // largest function: 22 blocks
    ("Camellia", 0x5eedba5e, 0x11a8f8335d11270d), // largest function: 24 blocks
    ("Camellia", 0x1346233, 0x8f7724c136e9214f), // largest function: 18 blocks
    ("TensorFlow", 0xb, 0x21b32617774920ad), // largest function: 23 blocks
    ("TensorFlow", 0x5eedba5e, 0x5f5744dc77cdab95), // largest function: 22 blocks
    ("TensorFlow", 0x1346233, 0x7209c5a5bead45ad), // largest function: 27 blocks
    ("coreutils", 0xb, 0x352c9fffda066bef), // largest function: 20 blocks
    ("coreutils", 0x5eedba5e, 0x8169eb30229c7f3f), // largest function: 20 blocks
    ("coreutils", 0x1346233, 0xb5eeaf5f74ad448b), // largest function: 24 blocks
    ("server", 0xb, 0x0d621432d86164eb), // largest function: 22 blocks
    ("server", 0x5eedba5e, 0x0471454e977e8b22), // largest function: 20 blocks
    ("server", 0x1346233, 0x90c04a1d34cfd390), // largest function: 24 blocks
    ("skewed", 0xb, 0xd69a93273a791aae), // largest function: 4205 blocks
    ("skewed", 0x5eedba5e, 0x831170f9309f7482), // largest function: 4209 blocks
    ("skewed", 0x1346233, 0xe767a46c54506c2b), // largest function: 4204 blocks
];

/// Every profile but `Skewed` at a twentieth of its function count (at
/// least 48); `Skewed` at full size, so its giant is the one the suite's
/// `skewed_dataflow` workload is shaped after. No debug info: the
/// analyses never read it.
fn config(profile: Profile, seed: u64) -> GenConfig {
    let mut c = profile.config(seed);
    if profile != Profile::Skewed {
        c.num_funcs = (c.num_funcs / 20).max(48);
    }
    c.debug_info = false;
    c
}

fn binary_ir(profile: Profile, seed: u64) -> BinaryIr {
    let g = generate(&config(profile, seed));
    let elf = pba_elf::Elf::parse(g.elf).unwrap();
    let input = pba_parse::ParseInput::from_elf(&elf).unwrap();
    BinaryIr::build(&pba_parse::parse_parallel(&input, 2).cfg, 2)
}

/// The bytes a digest is taken over: tagged sections of little-endian
/// words.
#[derive(Default)]
struct Canon(Vec<u8>);

impl Canon {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn tag(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }
    fn defs(&mut self, mut defs: Vec<Def>) {
        defs.sort_unstable();
        self.u64(defs.len() as u64);
        for d in defs {
            self.u64(d.addr);
            self.u64(d.reg.0 as u64);
        }
    }
    fn height(&mut self, h: Height) {
        match h {
            Height::Bottom => self.tag("bottom"),
            Height::Known(v) => {
                self.tag("known");
                self.u64(v as u64);
            }
            Height::Top => self.tag("top"),
        }
    }
    fn frame(&mut self, f: Option<Frame>) {
        let f = f.expect("every block of the function has a frame");
        self.height(f.sp);
        self.height(f.fp);
    }
}

fn digest(ir: &BinaryIr) -> u64 {
    let results = run_all_ir(ir, 2, ExecutorKind::Serial);
    let mut entries: Vec<u64> = results.keys().copied().collect();
    entries.sort_unstable();
    let mut h = Canon::default();
    for entry in entries {
        let a = &results[&entry];
        let blocks = ir.func(entry).expect("result per IR function").blocks();
        h.tag("function");
        h.u64(entry);
        h.u64(blocks.len() as u64);
        h.tag("defs");
        h.defs(a.reaching.defs.clone());
        h.tag("reaching");
        for &b in blocks {
            h.defs(a.reaching.reaching_at_entry(b));
        }
        h.tag("liveness");
        for &b in blocks {
            h.u64(a.liveness.live_in(b).0 as u64);
            h.u64(a.liveness.live_out(b).0 as u64);
        }
        h.tag("stack");
        for &b in blocks {
            h.frame(a.stack.entry_frame(b));
            h.frame(a.stack.exit_frame(b));
        }
    }
    pba_elf::image::fnv1a_64(&h.0)
}

#[test]
fn digests_match_the_checked_in_constants() {
    let mut rows = GOLDEN.iter();
    for profile in PROFILES {
        for seed in SEEDS {
            let &(name, want_seed, want) = rows.next().expect("one GOLDEN row per case");
            assert_eq!((name, want_seed), (profile.name(), seed), "GOLDEN row order");
            let ir = binary_ir(profile, seed);
            let got = digest(&ir);
            assert_eq!(
                got, want,
                "{name} seed {seed:#x}: digest {got:#018x} != golden {want:#018x}"
            );
        }
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run at the commit whose output is to be pinned"]
fn print_golden() {
    for profile in PROFILES {
        for seed in SEEDS {
            let ir = binary_ir(profile, seed);
            let giant = ir.funcs().map(|f| f.blocks().len()).max().unwrap_or(0);
            println!(
                "    ({:?}, {seed:#x}, {:#018x}), // largest function: {giant} blocks",
                profile.name(),
                digest(&ir)
            );
        }
    }
}
