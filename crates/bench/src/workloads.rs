//! Workload construction and sweep configuration.

use pba_gen::{generate, Generated, Profile};

/// Scale factor from `PBA_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("PBA_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Apply the scale factor to a function count.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(4)
}

/// Generate the binary for a profile at the current scale.
pub fn workload(profile: Profile, seed: u64) -> Generated {
    let mut cfg = profile.config(seed);
    cfg.num_funcs = scaled(cfg.num_funcs);
    generate(&cfg)
}

/// The thread counts listed in `PBA_THREADS`, if it names any
/// (unparseable entries are dropped).
fn env_threads() -> Option<Vec<usize>> {
    let s = std::env::var("PBA_THREADS").ok()?;
    let v: Vec<usize> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
    (!v.is_empty()).then_some(v)
}

/// Thread counts to sweep: `PBA_THREADS` or the paper's ladder clamped
/// to 4× the available parallelism (oversubscription beyond that only
/// adds noise).
pub fn sweep_threads() -> Vec<usize> {
    env_threads().unwrap_or_else(|| {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        [1usize, 2, 4, 8, 16, 32, 64].into_iter().filter(|&t| t <= (avail * 4).max(2)).collect()
    })
}

/// Thread count for a binary that runs at one width: the last
/// `PBA_THREADS` entry, else the available parallelism.
pub fn run_threads() -> usize {
    env_threads()
        .and_then(|v| v.last().copied())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_nonempty_and_starts_at_one() {
        let v = sweep_threads();
        assert!(!v.is_empty());
        assert_eq!(v[0], 1);
    }
}
