//! Percentiles that know their sample count, and the quartile spread the
//! benchmark's bounds are judged against.

/// A percentile was asked of too few samples: fewer than
/// [`MIN_BEYOND`] lie beyond it, so the value would be decided by a handful
/// of outliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`0 < p < 1`) of an ascending slice, refused
/// unless at least [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// The highest percentile not above `cap` that `n` samples support, i.e.
/// that leaves [`MIN_BEYOND`] samples beyond it (`None` under 2×MIN_BEYOND
/// samples, where not even a median is supported).
pub fn highest_supported(n: usize, cap: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some(cap.min((n - MIN_BEYOND) as f64 / n as f64))
}

/// Median of unordered values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_what_lies_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Ok(500));
        assert_eq!(percentile(&v, 0.95), Ok(950));
        assert_eq!(percentile(&v, 0.99), Ok(990));
        // p99.5 of 1000 leaves 5 beyond: refused.
        assert_eq!(
            percentile(&v, 0.995),
            Err(TooFewSamples {
                samples: 1000,
                beyond: 5
            })
        );
    }

    #[test]
    fn small_samples_are_refused_not_guessed() {
        let v: Vec<u64> = (1..=19).collect();
        assert!(percentile(&v, 0.5).is_err());
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Ok(10));
        assert!(percentile(&v, 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
        // 200 samples support p95 exactly.
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Ok(190));
    }

    #[test]
    fn highest_supported_percentile() {
        assert_eq!(highest_supported(19, 0.99), None);
        assert_eq!(highest_supported(30, 0.99), Some(20.0 / 30.0));
        assert_eq!(highest_supported(1000, 0.99), Some(0.99));
        assert_eq!(highest_supported(100_000, 0.99), Some(0.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
