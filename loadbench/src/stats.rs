//! Order statistics for latency samples and run-to-run spread.

/// Tail samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `p`-th
/// percentile.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

/// Median, as Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Latency summary of one request class, in milliseconds: each
/// percentile is the median of its value over the parts of the window.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples in all parts, and in the part with fewest.
    pub n: usize,
    pub n_min: usize,
    pub p50: f64,
    pub p95: f64,
}

impl Summary {
    pub fn of_parts(parts: &[Vec<f64>]) -> Summary {
        let sorted: Vec<Vec<f64>> = parts
            .iter()
            .map(|p| {
                let mut v = p.clone();
                v.sort_by(f64::total_cmp);
                v
            })
            .collect();
        let at = |q: f64| median(&sorted.iter().map(|v| percentile(v, q)).collect::<Vec<_>>());
        Summary {
            n: sorted.iter().map(Vec::len).sum(),
            n_min: sorted.iter().map(Vec::len).min().unwrap_or(0),
            p50: at(50.0),
            p95: at(95.0),
        }
    }

    /// Whether every part supports its p95 under the ten-beyond rule.
    pub fn p95_supported(&self) -> bool {
        supports(self.n_min, 95.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(supports(1000, 95.0));
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        let s = Summary::of_parts(&[v.clone(), v.clone(), v[..100].to_vec()]);
        assert_eq!((s.n, s.n_min, s.p50, s.p95), (500, 100, 100.0, 190.0));
        assert!(!s.p95_supported());
        assert!(Summary::of_parts(&[v.clone(), v]).p95_supported());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
