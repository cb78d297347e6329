//! Order statistics for the benchmark's summaries.
//!
//! Timings are reported as medians across a run's passes, with the
//! distance between the first and third quartile as the run's own noise
//! figure. Tail latencies use the nearest-rank percentile and are only
//! reported where at least [`MIN_BEYOND`] samples lie beyond them.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        // Position k·(n+1)/4 (1-based), with the index clamped to the
        // sample range exactly as Python does it.
        let m = k * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m as f64 - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 for a single value).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let Some((q1, q3)) = quartiles(values) else {
        return Some(0.0);
    };
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Smallest sample count at which percentile `p` (in `(0, 1)`) has at
/// least [`MIN_BEYOND`] samples beyond it under the nearest-rank rule.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some count always suffices for p < 1")
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile `p` of `values`, only when at least
/// [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(n, p) - 1])
}
