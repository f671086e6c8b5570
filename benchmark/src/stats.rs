//! Order statistics over small sample sets (block times, run medians).

/// Ascending copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of `xs`: the sample at rank
/// `ceil(q × n)`. Used for the lower-quartile block (`q = 0.25`): an order
/// statistic, not an interpolation, so it is always a time that was
/// actually measured.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let v = sorted(xs);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the "exclusive" method), so
/// the A/A gate computes the spread the way the acceptance driver does.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Minimum of `xs`.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Exact percentile of integer samples, with the support rule the
/// choosing-metrics guide sets: `(value, samples strictly beyond it)`.
/// The sample at rank `ceil(q × n)` of the ascending order.
pub fn percentile_u64(sorted_asc: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted_asc.is_empty(), "percentile of an empty sample");
    let n = sorted_asc.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let v = sorted_asc[rank - 1];
    let beyond = n - sorted_asc.partition_point(|&x| x <= v);
    (v, beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 8.5));
    }

    #[test]
    fn nearest_rank_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0];
        assert_eq!(quantile(&xs, 0.1), 1.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(min(&xs), 1.0);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_u64(&xs, 0.99), (990, 10));
        assert_eq!(percentile_u64(&xs, 0.50), (500, 500));
    }
}
