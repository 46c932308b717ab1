//! The test corpus: every input that a golden digest or an equivalence
//! suite runs, built in one place.
//!
//! The golden tests pin the output of each layer (CFG, dataflow,
//! jump-table slice, structure text, feature index, similarity replies)
//! on these cases and keep their own digests. The recipes live only here,
//! so two goldens that claim the same inputs take them from the same list.
//! `tests/corpus.rs` pins an FNV-1a-64 of every case's ELF bytes. A change
//! to the generator or to a recipe therefore fails there once, as an input
//! change, before it moves the goldens' outputs.

use crate::emit::generate;
use crate::plan::GenConfig;
use crate::profiles::Profile;

/// The seeds of the profile images, in golden row order; the images
/// with debug info take the first two.
pub const SEEDS: [u64; 3] = [11, 0x5EED_BA5E, 20_210_227];

/// One named input: its name and seed label its golden rows.
#[derive(Debug, Clone)]
pub struct Case {
    /// A profile's name, `large-<profile>`, `serve` or `clone-<variant>`.
    pub name: String,
    /// The generator configuration.
    pub config: GenConfig,
}

impl Case {
    fn new(name: impl Into<String>, config: GenConfig) -> Case {
        Case { name: name.into(), config }
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The generated ELF image.
    pub fn elf(&self) -> Vec<u8> {
        generate(&self.config).elf
    }
}

/// The profile at a twentieth of its function count (at least 48) with a
/// small giant for `Skewed`.
fn twentieth(profile: Profile, seed: u64, debug_info: bool) -> GenConfig {
    let mut c = profile.config(seed);
    c.num_funcs = (c.num_funcs / 20).max(48);
    c.huge_diamonds = c.huge_diamonds.min(90);
    c.debug_info = debug_info;
    c
}

/// Every profile at a twentieth of its size with each of [`SEEDS`], no
/// debug info (the parser never reads it): the CFG and slice goldens'
/// images, profile-major.
pub fn small() -> Vec<Case> {
    Profile::ALL
        .into_iter()
        .flat_map(|p| SEEDS.map(|seed| Case::new(p.name(), twentieth(p, seed, false))))
        .collect()
}

/// The structure and feature goldens' images, in row order: every
/// profile at a twentieth of its size with the first two [`SEEDS`] and
/// debug info on (the near-stripped profiles would otherwise pin no
/// statement or inline scope), then the two `struct_large`-sized images.
/// Those are the workload's TensorFlow- and LLNL2-class images at 640
/// and 680 functions: fifteen sixteenths base program on seed
/// `0x5EED_BA5E`, the rest a fixed variant.
pub fn structure() -> Vec<Case> {
    let small = Profile::ALL.into_iter().flat_map(|p| {
        SEEDS[..2].iter().map(move |&seed| Case::new(p.name(), twentieth(p, seed, true)))
    });
    let large = [(Profile::TensorFlow, 640), (Profile::Llnl2, 680)].map(|(p, funcs)| {
        let mut c = p.config(0x5EED_BA5E);
        c.num_funcs = funcs * 15 / 16;
        c.extra_funcs = funcs / 16;
        c.variant = 7;
        Case::new(format!("large-{}", p.name()), c)
    });
    small.chain(large).collect()
}

/// `num_funcs` functions, every one with a switch.
pub fn switch_heavy(seed: u64, num_funcs: usize, debug_info: bool) -> GenConfig {
    GenConfig { seed, num_funcs, pct_switch: 1.0, debug_info, ..Default::default() }
}

/// The daemon benchmark's working-set shape with each of [`SEEDS`]: 140
/// switch-heavy functions, without their debug info and appended
/// variants. Its parse is mostly jump-table slicing.
pub fn serve() -> Vec<Case> {
    SEEDS.map(|seed| Case::new("serve", switch_heavy(seed, 140, false))).to_vec()
}

/// `Skewed` at full size with each of [`SEEDS`], its ~4200-block giant
/// included: the dataflow golden's `skewed` rows, shaped like the
/// suite's `skewed_dataflow` workload.
pub fn skewed_full() -> Vec<Case> {
    SEEDS.map(|seed| Case::new(Profile::Skewed.name(), Profile::Skewed.config(seed))).to_vec()
}

/// Member `variant` of the clone family `family_seed`: the members share
/// a byte-identical 16-function base program and differ in their two
/// appended extra functions.
pub fn clone_member(family_seed: u64, variant: u64) -> GenConfig {
    GenConfig {
        seed: family_seed,
        num_funcs: 16,
        extra_funcs: 2,
        variant,
        debug_info: false,
        ..Default::default()
    }
}

/// Three clone families of four members (variants 1 to 4), family-major:
/// the similarity pins' fixture.
pub fn clone_families() -> Vec<Case> {
    (0..3u64)
        .flat_map(|fam| {
            (1..=4)
                .map(move |v| Case::new(format!("clone-{v}"), clone_member(0xC10E + fam * 977, v)))
        })
        .collect()
}

/// Every list above by name, in the input golden's order.
pub fn lists() -> [(&'static str, Vec<Case>); 5] {
    [
        ("small", small()),
        ("structure", structure()),
        ("serve", serve()),
        ("skewed_full", skewed_full()),
        ("clone", clone_families()),
    ]
}
