//! Order statistics: nearest-rank percentiles with the "ten samples
//! beyond" support rule, and the quartile spread the driver applies to
//! repeated runs.

/// A nearest-rank percentile together with what backs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value: the smallest sample with at least `p` of the
    /// sample at or below it.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile.
    /// An unsupported percentile is still reported (the result line must
    /// carry every metric), but flagged wherever it is printed.
    pub supported: bool,
}

/// Samples that must lie beyond a percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `sorted` (ascending).
/// Returns `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        supported: n - rank >= MIN_BEYOND,
    })
}

/// Sorts a sample ascending (NaN-free input assumed; times and counts).
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    sample
}

/// The median as the mean of the middle pair (what `statistics.median`
/// gives), used for summarising repeated runs.
pub fn median(sample: &[f64]) -> Option<f64> {
    let s = sorted(sample.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) gives them.  Needs two samples.
pub fn quartiles(sample: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(sample.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // j = i*(n+1) div 4, delta = i*(n+1) mod 4, clamped to 1..=n-1.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the driver's spread.
pub fn relative_iqr(sample: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sample)?;
    let m = median(sample)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Largest relative deviation of any sample from the median.
pub fn max_relative_deviation(sample: &[f64]) -> Option<f64> {
    let m = median(sample)?;
    if m == 0.0 {
        return None;
    }
    sample
        .iter()
        .map(|v| ((v - m) / m).abs())
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.max(d)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank_sample() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 0.99).unwrap().value, 20.0);
        assert_eq!(percentile(&s, 0.05).unwrap().value, 1.0);
        assert_eq!(percentile(&[3.0], 0.5).unwrap().value, 3.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(percentile(&s, 0.5).unwrap().supported); // 10 beyond
        assert!(!percentile(&s[..19], 0.5).unwrap().supported); // rank 10 of 19: 9 beyond
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&big, 0.99).unwrap().supported); // rank 990: 10 beyond
        assert!(!percentile(&big[..999], 0.99).unwrap().supported); // rank 990 of 999: 9
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (0.75, 2.25));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), Some(3.0));
        assert!((relative_iqr(&s).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(max_relative_deviation(&[9.0, 10.0, 12.0]), Some(0.2));
    }
}
