//! Summary statistics over timing samples.

/// Fewest samples that must lie beyond a percentile before it is
/// reported: a p99 needs at least 1000 samples.
const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least one
/// sample before summarising.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n.saturating_sub(rank) < MIN_TAIL {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helper has to sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(989.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(9.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
