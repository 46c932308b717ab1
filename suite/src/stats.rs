//! Order statistics for op latencies and run-to-run spreads.

/// Median of `v` (sorts it). 0 for an empty slice: a layer that did not
/// run reports 0, not NaN.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an already sorted, non-empty slice.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest of p75 / p90 / p99 that still has at least ten samples
/// beyond it, or `None` below 40 samples (median only).
pub fn tail_pct(samples: usize) -> Option<u32> {
    [99u32, 90, 75].into_iter().find(|&p| samples * (100 - p as usize) / 100 >= 10)
}

/// Latency summary of one measured phase.
pub struct Latency {
    pub p50: f64,
    /// The tail percentile's value; the median when there are too few
    /// samples for any tail.
    pub tail: f64,
    /// Which percentile `tail` is (50 when it fell back to the median).
    pub tail_pct: u32,
    pub samples: usize,
}

/// Summarise `samples`. The tail is the percentile the sample count supports,
/// but no higher than `at_most`: a workload names the percentile its usual count
/// supports with room to spare, so that a run with a few samples more or fewer
/// reports the same percentile.
pub fn latency(samples: &mut [f64], at_most: u32) -> Latency {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return Latency { p50: 0.0, tail: 0.0, tail_pct: 50, samples: 0 };
    }
    let p50 = percentile(samples, 50);
    match tail_pct(n).map(|p| p.min(at_most)) {
        Some(p) => Latency { p50, tail: percentile(samples, p), tail_pct: p, samples: n },
        None => Latency { p50, tail: p50, tail_pct: 50, samples: n },
    }
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them, so the spreads printed here are the
/// ones the driver will compute. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |k: usize| {
        // position k*(n+1)/4 in 1-based ranks, clamped like CPython does
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_follows_sample_count() {
        assert_eq!(tail_pct(39), None);
        assert_eq!(tail_pct(40), Some(75));
        assert_eq!(tail_pct(99), Some(75));
        assert_eq!(tail_pct(100), Some(90));
        assert_eq!(tail_pct(999), Some(90));
        assert_eq!(tail_pct(1000), Some(99));
    }

    #[test]
    fn few_samples_report_the_median_as_tail() {
        let mut v: Vec<f64> = (1..=39).map(f64::from).collect();
        let l = latency(&mut v, 99);
        assert_eq!((l.p50, l.tail, l.tail_pct, l.samples), (20.0, 20.0, 50, 39));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let l = latency(&mut v, 99);
        assert_eq!((l.p50, l.tail, l.tail_pct), (50.0, 90.0, 90));
        // a workload that usually has about a hundred samples asks for p75 always
        let l = latency(&mut v, 75);
        assert_eq!((l.tail, l.tail_pct), (75.0, 75));
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(latency(&mut v, 99).tail, 990.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
