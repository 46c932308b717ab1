//! Seeded inputs and the generator-side reference they are checked against.
//!
//! `--seed` drives every generated binary and every request stream; the
//! product crates only ever see the resulting bytes. Sizes (function counts,
//! corpus sizes, request mixes) do not depend on the seed.
//!
//! That is not enough for two seeds to cost the same: the time to parse a
//! generated program swings by 10 % and more with its random call graph and jump
//! tables, which no size knob controls. The library workloads therefore use
//! `pba_gen`'s clone families: a base program generated from a constant
//! ([`BASE`]) and, appended to it, extra functions drawn from the run's seed
//! (`GenConfig::extra_funcs` / `variant`). Every seed gives other bytes, hashes
//! and features; most of the work is the same.

use pba_gen::{generate, GenConfig, Generated};

/// Seed of the base programs shared by all seeds (see the module docs).
pub const BASE: u64 = 0x5EED_BA5E;

/// SplitMix64: a small deterministic stream for seeds, shuffles and picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A workload's private seed stream: the run seed mixed with a per-workload tag,
/// so workloads never share bytes.
pub fn stream(seed: u64, tag: u64) -> Rng {
    let mut r = Rng::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
    r.next();
    r
}

/// Function entries and ranges as `pba_gen` laid them out: the reference every
/// parsed CFG is compared with. It comes from the generator, never the parser.
pub struct Truth {
    funcs: Vec<(u64, Vec<(u64, u64)>)>,
}

impl Truth {
    pub fn of(g: &Generated) -> Truth {
        let mut funcs: Vec<(u64, Vec<(u64, u64)>)> = g
            .truth
            .functions
            .iter()
            .map(|f| {
                let mut r = f.ranges.clone();
                r.sort_unstable();
                (f.entry, r)
            })
            .collect();
        funcs.sort_unstable_by_key(|f| f.0);
        Truth { funcs }
    }

    /// `got`: `(entry, ranges)` of every recovered function, sorted by entry.
    pub fn check<'a>(
        &self,
        got: impl ExactSizeIterator<Item = (u64, &'a [(u64, u64)])>,
    ) -> Result<(), String> {
        if got.len() != self.funcs.len() {
            return Err(format!(
                "{} functions recovered, {} generated",
                got.len(),
                self.funcs.len()
            ));
        }
        for ((entry, ranges), want) in got.zip(&self.funcs) {
            if entry != want.0 {
                return Err(format!("function at {entry:#x}, generated at {:#x}", want.0));
            }
            if ranges != want.1 {
                return Err(format!("function {entry:#x}: ranges {ranges:x?} != {:x?}", want.1));
            }
        }
        Ok(())
    }
}

/// Check a finalized CFG against the generator's truth.
pub fn check_cfg(truth: &Truth, cfg: &pba_cfg::Cfg) -> Result<(), String> {
    let ranges: Vec<(u64, Vec<(u64, u64)>)> =
        cfg.functions.values().map(|f| (f.entry, f.ranges(cfg))).collect();
    truth.check(ranges.iter().map(|(e, r)| (*e, r.as_slice())))
}

/// One generated binary and its reference.
pub struct Binary {
    pub elf: Vec<u8>,
    pub truth: Truth,
}

pub fn binary(cfg: &GenConfig) -> Binary {
    let g = generate(cfg);
    let truth = Truth::of(&g);
    Binary { elf: g.elf, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first4(mut r: Rng) -> [u64; 4] {
        std::array::from_fn(|_| r.next())
    }

    #[test]
    fn same_seed_same_stream_other_tag_or_seed_other_stream() {
        assert_eq!(first4(stream(7, 1)), first4(stream(7, 1)));
        assert_ne!(first4(stream(7, 1)), first4(stream(7, 2)));
        assert_ne!(first4(stream(7, 1)), first4(stream(8, 1)));
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let mut v: Vec<u32> = (0..50).collect();
        stream(1, 1).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn truth_accepts_the_parser_and_rejects_a_moved_range() {
        let b = binary(&GenConfig { num_funcs: 24, seed: 11, ..Default::default() });
        let s = pba_driver::Session::open(b.elf.clone(), Default::default());
        let cfg = s.cfg().expect("generated ELF parses");
        check_cfg(&b.truth, cfg).expect("parser output equals generator truth");

        let mut moved: Vec<(u64, Vec<(u64, u64)>)> =
            cfg.functions.values().map(|f| (f.entry, f.ranges(cfg))).collect();
        moved[3].1[0].1 += 1;
        let err = b.truth.check(moved.iter().map(|(e, r)| (*e, r.as_slice())));
        assert!(err.is_err());
    }
}
