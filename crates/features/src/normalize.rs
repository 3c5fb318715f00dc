//! Column normalisation strategies.

use serde::{Deserialize, Serialize};

/// How feature columns are rescaled before distance computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Normalization {
    /// Subtract the mean, divide by the standard deviation (the paper-style
    /// default: every feature contributes comparably to distances).
    #[default]
    ZScore,
    /// Rescale to `[0, 1]` by the column's range.
    MinMax,
    /// Leave values untouched.
    None,
}

impl Normalization {
    /// Returns `(offset, scale)` such that `(v - offset) / scale` normalises
    /// a value of the column. Degenerate columns (zero spread) return scale
    /// `1.0` so normalisation never divides by zero.
    pub fn parameters(self, column: &[f64]) -> (f64, f64) {
        self.column_parameters(column, 1)[0]
    }

    /// [`Normalization::parameters`] of every column of a row-major buffer
    /// with `dim` columns, in row-major passes with per-column
    /// accumulators. Each column's arithmetic runs in the same order as
    /// over a copy of that column, so the results are bit-identical.
    pub(crate) fn column_parameters(self, data: &[f64], dim: usize) -> Vec<(f64, f64)> {
        let n = data.len().checked_div(dim).unwrap_or(0);
        let rows = || data.chunks_exact(dim.max(1));
        match self {
            Normalization::None => vec![(0.0, 1.0); dim],
            Normalization::ZScore => {
                // Kahan-compensated mean, as `subset3d_stats::mean`.
                let mut acc = vec![0.0f64; dim];
                let mut comp = vec![0.0f64; dim];
                for row in rows() {
                    for c in 0..dim {
                        let y = row[c] - comp[c];
                        let t = acc[c] + y;
                        comp[c] = (t - acc[c]) - y;
                        acc[c] = t;
                    }
                }
                let means: Vec<f64> = if n == 0 {
                    vec![0.0; dim]
                } else {
                    acc.iter().map(|a| a / n as f64).collect()
                };
                // Sample standard deviation, as `subset3d_stats::std_dev`.
                let mut ss = vec![0.0f64; dim];
                if n >= 2 {
                    for row in rows() {
                        for c in 0..dim {
                            let d = row[c] - means[c];
                            ss[c] += d * d;
                        }
                    }
                }
                means
                    .into_iter()
                    .zip(ss)
                    .map(|(mean, ss)| {
                        let sd = if n < 2 {
                            0.0
                        } else {
                            (ss / (n - 1) as f64).sqrt()
                        };
                        (mean, if sd > 0.0 { sd } else { 1.0 })
                    })
                    .collect()
            }
            Normalization::MinMax => {
                // NaN-skipping extremes, as `subset3d_stats::{min, max}`.
                let mut lo: Vec<Option<f64>> = vec![None; dim];
                let mut hi: Vec<Option<f64>> = vec![None; dim];
                for row in rows() {
                    for c in 0..dim {
                        let v = row[c];
                        if !v.is_nan() {
                            lo[c] = Some(lo[c].map_or(v, |a| a.min(v)));
                            hi[c] = Some(hi[c].map_or(v, |a| a.max(v)));
                        }
                    }
                }
                lo.into_iter()
                    .zip(hi)
                    .map(|(lo, hi)| {
                        let lo = lo.unwrap_or(0.0);
                        let range = hi.unwrap_or(0.0) - lo;
                        (lo, if range > 0.0 { range } else { 1.0 })
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        assert_eq!(Normalization::None.parameters(&[5.0, 9.0]), (0.0, 1.0));
    }

    #[test]
    fn zscore_parameters() {
        let (offset, scale) = Normalization::ZScore.parameters(&[1.0, 2.0, 3.0]);
        assert_eq!(offset, 2.0);
        assert!((scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_parameters() {
        let (offset, scale) = Normalization::MinMax.parameters(&[2.0, 6.0]);
        assert_eq!(offset, 2.0);
        assert_eq!(scale, 4.0);
    }

    #[test]
    fn degenerate_columns_never_divide_by_zero() {
        for method in [Normalization::ZScore, Normalization::MinMax] {
            let (_, scale) = method.parameters(&[3.0, 3.0, 3.0]);
            assert_eq!(scale, 1.0);
            let (_, scale) = method.parameters(&[]);
            assert_eq!(scale, 1.0);
        }
    }

    #[test]
    fn default_is_zscore() {
        assert_eq!(Normalization::default(), Normalization::ZScore);
    }
}
