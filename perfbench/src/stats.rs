//! Order statistics over samples and over log₂ histogram buckets.

/// Nearest-rank `q`-quantile of `samples` (`0.0 ..= 1.0`); 0 when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples`; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `q`-quantile of a histogram given as `(inclusive upper bound,
/// cumulative count)` pairs in increasing order, interpolated
/// linearly inside the bucket that holds the rank (the Prometheus
/// `histogram_quantile` rule). 0 for an empty histogram.
pub fn histogram_quantile(cumulative: &[(f64, u64)], q: f64) -> f64 {
    let Some(&(_, total)) = cumulative.last() else {
        return 0.0;
    };
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut lower = 0.0;
    let mut below = 0u64;
    for &(upper, cum) in cumulative {
        if cum as f64 >= rank && cum > below {
            let share = (rank - below as f64) / (cum - below) as f64;
            return lower + (upper - lower) * share.clamp(0.0, 1.0);
        }
        lower = upper;
        below = cum;
    }
    lower
}

/// Cumulative `(upper bound, count)` pairs of an `strata-obs` log₂
/// histogram snapshot: bucket 0 holds 0, bucket `i` holds
/// `[2^(i-1), 2^i)`.
pub fn snapshot_cumulative(snapshot: &strata_obs::HistogramSnapshot) -> Vec<(f64, u64)> {
    let mut cum = 0;
    snapshot
        .buckets()
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            cum += n;
            let upper = if i == 0 {
                0.0
            } else {
                ((1u128 << i) - 1) as f64
            };
            (upper, cum)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 10 observations in (0, 100], 10 in (100, 200].
        let h = [(100.0, 10), (200.0, 20)];
        assert_eq!(histogram_quantile(&h, 0.5), 100.0);
        assert_eq!(histogram_quantile(&h, 0.75), 150.0);
        assert_eq!(histogram_quantile(&[], 0.5), 0.0);
    }
}
