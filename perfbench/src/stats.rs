//! Order statistics for reporting timings.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`; `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(q3 - q1) / q2`.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// A tail latency reported by the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Samples needed beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of a fixed ladder (99.9, 99, 95, 90, 75, 50)
/// that has at least [`TAIL_MIN_BEYOND`] samples beyond it; `None` when
/// even the median lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = rank_of(n, p);
        let beyond = n - rank;
        (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=181).map(f64::from).collect();
        // p95 leaves 9 beyond (rank 172), p90 leaves 18.
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 163.0, 18));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn metric_names() {
        assert!(valid_metric_name("serve.chunk_p90_ms"));
        assert!(valid_metric_name("0-ok_name.x"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
