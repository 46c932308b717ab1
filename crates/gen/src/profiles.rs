//! Named workload profiles standing in for the paper's evaluation
//! binaries.
//!
//! Table 1 of the paper characterizes four large binaries (sizes in MiB):
//!
//! | Binary     | Total   | .text  | .debug_* |
//! |------------|---------|--------|----------|
//! | LLNL1      | 363.40  | 77.01  | 243.16   |
//! | LLNL2      | 1913.50 | 149.13 | 1612.20  |
//! | Camellia   | 299.08  | 40.81  | 232.43   |
//! | TensorFlow | 7844.81 | 112.21 | 7622.46  |
//!
//! The profiles below scale those shapes down (by roughly 100-400x,
//! sized so the full Table 2 sweep runs in minutes on one machine) while
//! preserving the *ratios* that drive the phase behaviour: TensorFlow-
//! class has far more debug bytes than text (name bloat), LLNL1-class is
//! text-heavy, and so on. The 113-binary correctness corpus and the
//! 504-binary forensics corpus use small coreutils-class binaries.

use crate::plan::GenConfig;

/// A named workload profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// LLNL1-class: mid-sized HPC code, moderate debug info.
    Llnl1,
    /// LLNL2-class: large code, heavy debug info.
    Llnl2,
    /// Camellia-class: smaller scientific code.
    Camellia,
    /// TensorFlow-class: moderate text, enormous template-bloated debug
    /// info, very many functions.
    TensorFlow,
    /// coreutils/tar-class: small utilities (correctness corpus).
    Coreutils,
    /// Apache/Redis/Nginx-class server binaries (forensics corpus).
    Server,
    /// Load-balance stress: one huge multi-thousand-block function
    /// (think a generated parser or an unrolled numeric kernel) among
    /// hundreds of tiny ones. A statically-chunked scheduler serializes
    /// on the giant; the work-stealing pool, which starts the giant
    /// first and balances the tiny functions around it, is measured
    /// against exactly this shape by the suite's `skewed_dataflow`
    /// workload.
    Skewed,
}

impl Profile {
    /// Every profile, in the order the golden tables list them.
    pub const ALL: [Profile; 7] = [
        Profile::Llnl1,
        Profile::Llnl2,
        Profile::Camellia,
        Profile::TensorFlow,
        Profile::Coreutils,
        Profile::Server,
        Profile::Skewed,
    ];

    /// All Table 1 / Table 2 profiles in paper order.
    pub const TABLE1: [Profile; 4] =
        [Profile::Llnl1, Profile::Llnl2, Profile::Camellia, Profile::TensorFlow];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Llnl1 => "LLNL1",
            Profile::Llnl2 => "LLNL2",
            Profile::Camellia => "Camellia",
            Profile::TensorFlow => "TensorFlow",
            Profile::Coreutils => "coreutils",
            Profile::Server => "server",
            Profile::Skewed => "skewed",
        }
    }

    /// Generator configuration for this profile with the given seed.
    pub fn config(&self, seed: u64) -> GenConfig {
        match self {
            Profile::Llnl1 => GenConfig {
                seed,
                num_funcs: 2200,
                body_size: 10,
                pct_switch: 0.12,
                debug_name_bloat: 2,
                funcs_per_cu: 12,
                ..Default::default()
            },
            Profile::Llnl2 => GenConfig {
                seed,
                num_funcs: 4200,
                body_size: 10,
                pct_switch: 0.12,
                debug_name_bloat: 6,
                funcs_per_cu: 10,
                ..Default::default()
            },
            Profile::Camellia => GenConfig {
                seed,
                num_funcs: 1200,
                body_size: 9,
                pct_switch: 0.10,
                debug_name_bloat: 4,
                funcs_per_cu: 10,
                ..Default::default()
            },
            Profile::TensorFlow => GenConfig {
                seed,
                num_funcs: 3200,
                body_size: 8,
                pct_switch: 0.15,
                // Template-heavy C++: debug info dwarfs text.
                debug_name_bloat: 24,
                funcs_per_cu: 6,
                ..Default::default()
            },
            Profile::Coreutils => GenConfig {
                seed,
                num_funcs: 90,
                body_size: 7,
                pct_switch: 0.18,
                pct_noreturn: 0.08,
                pct_error_path: 0.15,
                debug_name_bloat: 1,
                ..Default::default()
            },
            Profile::Server => GenConfig {
                seed,
                num_funcs: 260,
                body_size: 8,
                pct_switch: 0.15,
                pct_tailcall: 0.10,
                debug_name_bloat: 1,
                debug_info: false, // forensics corpora are near-stripped
                ..Default::default()
            },
            Profile::Skewed => GenConfig {
                seed,
                num_funcs: 400,
                body_size: 6,
                pct_switch: 0.05,
                // One giant: ~1400 diamonds ≈ 4200+ blocks (the suite's
                // `skewed_dataflow` asserts it stays past
                // `auto_block_threshold()`); everything else stays a
                // handful of blocks.
                huge_funcs: 1,
                huge_diamonds: 1400,
                debug_name_bloat: 1,
                debug_info: false, // the steal sweep only parses .text
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::generate;

    #[test]
    fn tensorflow_class_is_debug_dominated() {
        // Check the *shape* on a scaled-down instance: debug much larger
        // than text, like the real 7.6 GiB vs 112 MiB.
        let mut cfg = Profile::TensorFlow.config(1);
        cfg.num_funcs = 200; // keep the test fast
        let g = generate(&cfg);
        assert!(
            g.stats.debug_size > g.stats.text_size * 4,
            "debug {} vs text {}",
            g.stats.debug_size,
            g.stats.text_size
        );
    }

    #[test]
    fn coreutils_class_is_small() {
        let g = generate(&Profile::Coreutils.config(2));
        assert!(g.stats.num_funcs < 120);
        assert!(g.stats.total_size < 4 << 20);
    }

    #[test]
    fn server_class_has_no_debug() {
        let g = generate(&Profile::Server.config(3));
        assert_eq!(g.stats.debug_size, 0);
    }

    #[test]
    fn skewed_profile_is_dominated_by_one_function() {
        let g = generate(&Profile::Skewed.config(4));
        // The giant must hold the (vast) majority of the text bytes.
        let sizes: Vec<u64> = g
            .truth
            .functions
            .iter()
            .map(|f| f.ranges.iter().map(|&(s, e)| e - s).sum::<u64>())
            .collect();
        let total: u64 = sizes.iter().sum();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max * 2 > total,
            "one function must dominate: max {max} of {total} across {} funcs",
            sizes.len()
        );
        assert!(sizes.len() > 300, "plus many tiny functions");
    }

    #[test]
    fn profile_names_match_paper() {
        let names: Vec<&str> = Profile::TABLE1.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["LLNL1", "LLNL2", "Camellia", "TensorFlow"]);
    }
}
