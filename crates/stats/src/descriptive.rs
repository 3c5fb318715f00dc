//! Descriptive statistics over `f64` slices.

/// Sum of the values.
///
/// Uses Kahan compensated summation so that corpus-scale accumulations
/// (hundreds of thousands of draw costs) do not drift.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::sum(&[1.0, 2.0, 3.0]), 6.0);
/// assert_eq!(subset3d_stats::sum(&[]), 0.0);
/// ```
pub fn sum(values: &[f64]) -> f64 {
    sum_iter(values.iter().copied())
}

/// Streaming [`sum`]: Kahan-compensated summation of an iterator, without
/// materialising a slice. Operation order matches [`sum`], so for the same
/// values the result is bit-identical.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::sum_iter((1..=3).map(f64::from)), 6.0);
/// ```
pub fn sum_iter(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = KahanSum::default();
    for v in values {
        acc.add(v);
    }
    acc.total()
}

/// Running Kahan-compensated sum: the accumulator behind [`sum`] and
/// [`sum_iter`], for values that arrive in pieces. Adding values one by
/// one performs exactly the operations of [`sum_iter`] over the same
/// sequence, so the total is bit-identical.
///
/// # Examples
///
/// ```
/// let mut acc = subset3d_stats::KahanSum::default();
/// for chunk in [[1.0, 2.0], [3.0, 4.0]] {
///     chunk.iter().for_each(|&v| acc.add(v));
/// }
/// assert_eq!(acc.total(), subset3d_stats::sum(&[1.0, 2.0, 3.0, 4.0]));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    acc: f64,
    comp: f64,
}

impl KahanSum {
    /// Adds one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let y = v - self.comp;
        let t = self.acc + y;
        self.comp = (t - self.acc) - y;
        self.acc = t;
    }

    /// The sum of every value added so far.
    pub fn total(&self) -> f64 {
        self.acc
    }
}

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::mean(&[2.0, 4.0]), 3.0);
/// assert_eq!(subset3d_stats::mean(&[]), 0.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    mean_iter(values.iter().copied())
}

/// Streaming [`mean`]: averages an iterator without materialising a slice.
/// Returns `0.0` for an empty iterator; bit-identical to [`mean`] over the
/// same values.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::mean_iter([2.0, 4.0]), 3.0);
/// assert_eq!(subset3d_stats::mean_iter(std::iter::empty()), 0.0);
/// ```
pub fn mean_iter(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = KahanSum::default();
    let mut n = 0u64;
    for v in values {
        acc.add(v);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc.total() / n as f64
    }
}

/// Geometric mean of strictly positive values.
///
/// Returns `0.0` for an empty slice. Non-positive entries are skipped, which
/// matches how speedup aggregation treats degenerate (zero-cost) samples.
///
/// # Examples
///
/// ```
/// let g = subset3d_stats::geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for &v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Sample variance (Bessel-corrected, divisor `n - 1`).
///
/// Returns `0.0` when fewer than two values are supplied.
///
/// # Examples
///
/// ```
/// let v = subset3d_stats::variance(&[1.0, 2.0, 3.0]);
/// assert!((v - 1.0).abs() < 1e-12);
/// ```
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    ss / (values.len() - 1) as f64
}

/// Population variance (divisor `n`). Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// let v = subset3d_stats::population_variance(&[1.0, 3.0]);
/// assert!((v - 1.0).abs() < 1e-12);
/// ```
pub fn population_variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    ss / values.len() as f64
}

/// Sample standard deviation (square root of [`variance`]).
///
/// # Examples
///
/// ```
/// let s = subset3d_stats::std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!(s > 0.0);
/// ```
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Minimum value, ignoring NaNs. Returns `None` for an empty slice or if
/// every entry is NaN.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::min(&[3.0, 1.0, 2.0]), Some(1.0));
/// assert_eq!(subset3d_stats::min(&[]), None);
/// ```
pub fn min(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.min(v)),
        })
}

/// Maximum value, ignoring NaNs. Returns `None` for an empty slice or if
/// every entry is NaN.
///
/// # Examples
///
/// ```
/// assert_eq!(subset3d_stats::max(&[3.0, 1.0, 2.0]), Some(3.0));
/// ```
pub fn max(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn sum_is_compensated() {
        // Naive summation of 1e16 + many 1.0s loses the small addends.
        let mut values = vec![1e16];
        values.extend(std::iter::repeat_n(1.0, 1000));
        values.push(-1e16);
        assert_eq!(sum(&values), 1000.0);
    }

    #[test]
    fn mean_single() {
        assert_eq!(mean(&[42.0]), 42.0);
    }

    #[test]
    fn iter_variants_are_bit_identical_to_slice_variants() {
        let mut values = vec![1e16, 0.1, -7.25, 3.5e-3];
        values.extend((0..500).map(|i| (i as f64).sin()));
        assert_eq!(
            sum(&values).to_bits(),
            sum_iter(values.iter().copied()).to_bits()
        );
        assert_eq!(
            mean(&values).to_bits(),
            mean_iter(values.iter().copied()).to_bits()
        );
        // Fed in ragged pieces, the running sum is the same sum.
        let mut acc = KahanSum::default();
        for piece in values.chunks(64) {
            piece.iter().for_each(|&v| acc.add(v));
        }
        assert_eq!(acc.total().to_bits(), sum(&values).to_bits());
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn variance_known_value() {
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn population_variance_known_value() {
        let v = population_variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((v - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_skips_nonpositive() {
        let g = geometric_mean(&[0.0, -3.0, 1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_all_nonpositive_is_zero() {
        assert_eq!(geometric_mean(&[0.0, -1.0]), 0.0);
    }

    #[test]
    fn min_max_ignore_nan() {
        let vals = [f64::NAN, 2.0, 1.0, f64::NAN, 3.0];
        assert_eq!(min(&vals), Some(1.0));
        assert_eq!(max(&vals), Some(3.0));
    }

    #[test]
    fn min_max_all_nan_is_none() {
        assert_eq!(min(&[f64::NAN]), None);
        assert_eq!(max(&[f64::NAN]), None);
    }
}
