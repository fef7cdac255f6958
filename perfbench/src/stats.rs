//! Order statistics over latency samples.

/// The tail never goes past this percentile, so a long run's tail still
/// has many samples beyond it: p99.9 of a serving run moved 3× with the
/// host's load, p99 far less.
const TAIL_CAP: f64 = 99.0;

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps an exact rank such as 0.75 × 40 from rounding up.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples the tail leaves beyond it: ten, or a quarter of a sample
/// too small to leave ten above its upper quartile.
pub fn beyond_tail(n: usize) -> usize {
    (n / 4).min(10)
}

/// The tail: the highest percentile with [`beyond_tail`] samples beyond
/// it — p = 100·(1 − k/n), the (k+1)-th largest sample — capped at p99,
/// and its value. From 40 samples up it leaves ten beyond; below that it
/// stays at or above the upper quartile (p76 of 17 samples), so it never
/// falls back to the median. It moves smoothly with the sample count,
/// so runs of one workload report comparable tails.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let k = beyond_tail(n);
    let p = (100.0 * (1.0 - k as f64 / n as f64)).min(TAIL_CAP);
    Some((p, percentile(&v, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves 10 of 1000 above it.
        assert_eq!(tail(&values), Some((99.0, 990.0)));
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), Some((75.0, 30.0)));
        // Long runs stop at p99, which leaves 1000 samples beyond.
        let long: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&long), Some((99.0, 99_000.0)));
        // Short runs keep a quarter beyond: 4 of 17, well above the median.
        let few: Vec<f64> = (1..=17).map(f64::from).collect();
        let (p, value) = tail(&few).unwrap();
        assert_eq!(value, 13.0);
        assert!((p - 100.0 * 13.0 / 17.0).abs() < 1e-9);
        let one = [5.0];
        assert_eq!(tail(&one), Some((99.0, 5.0)));
    }
}
