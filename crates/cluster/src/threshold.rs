//! Single-pass threshold (leader) clustering.
//!
//! The production algorithm of the subsetting pipeline: each point joins the
//! first existing cluster whose *leader* lies within the distance threshold,
//! otherwise it founds a new cluster. The cluster count — and therefore the
//! clustering efficiency — emerges from the threshold, mirroring how the
//! paper reports efficiency as a measured outcome rather than a parameter.

use crate::clustering::Clustering;
use std::cmp::Ordering;
use subset3d_obs::{LazyCounter, LazyHistogram};

// Aggregate fit metrics (recorded only while `subset3d_obs` is enabled),
// complementing the per-fit trace spans: fits run and wall time each.
static OBS_FITS: LazyCounter = LazyCounter::new("cluster.threshold.fits");
static OBS_FIT_NS: LazyHistogram = LazyHistogram::new("cluster.threshold.fit_ns");

/// Leader clustering with a Euclidean distance threshold.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::ThresholdClustering;
///
/// let points = vec![vec![0.0], vec![0.2], vec![10.0]];
/// let c = ThresholdClustering::new(1.0).fit(&points);
/// assert_eq!(c.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClustering {
    threshold: f64,
}

impl ThresholdClustering {
    /// Creates the algorithm with a distance threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0,
            "threshold must be non-negative, got {threshold}"
        );
        ThresholdClustering { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Clusters the points. Deterministic: points are scanned in order and
    /// each joins the first leader, in creation order, within the
    /// threshold. Centroids of the result are the cluster *leaders* (first
    /// members).
    ///
    /// Leaders are kept in column-major blocks of eight, so one point is
    /// compared against eight leaders per coordinate; a block is abandoned
    /// once every lane's partial squared distance exceeds the threshold.
    /// When coordinate 0 of the input is non-decreasing (canonically
    /// ordered input, as [`crate::Subsetter::fit`] supplies), leaders that
    /// coordinate 0 alone already places out of reach are skipped for good.
    /// The first candidate lane is confirmed with the scalar early-exit
    /// test, so the result is bit-identical to comparing each point with
    /// each leader in turn — NaN coordinates included (see DESIGN.md,
    /// *Blocked leader scan*).
    ///
    /// # Panics
    ///
    /// Panics if the points do not all have the same dimension.
    pub fn fit(&self, points: &[Vec<f64>]) -> Clustering {
        OBS_FITS.incr();
        let _fit_timer = subset3d_obs::span(&OBS_FIT_NS);
        let _t =
            subset3d_obs::trace_span_arg("cluster", "threshold.fit", "points", points.len() as u64);
        let dim = points.first().map_or(0, Vec::len);
        assert!(
            points.iter().all(|p| p.len() == dim),
            "threshold clustering needs points of one dimension"
        );
        let limit = self.threshold * self.threshold;
        // `<=` is false against NaN, so a NaN in coordinate 0 turns the
        // window off.
        let windowed = dim > 0 && points.windows(2).all(|w| w[0][0] <= w[1][0]);
        let mut blocks = LeaderBlocks::new(dim);
        let mut leaders: Vec<usize> = Vec::new();
        let mut start = 0;
        let mut assignments = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            if windowed {
                // Leaders were created in non-decreasing coordinate-0
                // order, none above `p[0]`, and later points only move
                // further right: a leader out of reach on coordinate 0
                // now stays out of reach.
                while start < leaders.len() && {
                    let d = p[0] - points[leaders[start]][0];
                    d * d > limit
                } {
                    start += 1;
                }
            }
            let found = blocks.first_candidate(p, limit, start, |k| {
                within_sq(p, &points[leaders[k]], limit)
            });
            match found {
                Some(k) => assignments.push(k),
                None => {
                    assignments.push(leaders.len());
                    leaders.push(i);
                    blocks.push(p);
                }
            }
        }
        let centroids = leaders.into_iter().map(|i| points[i].clone()).collect();
        Clustering::new(assignments, centroids)
    }
}

/// Leaders per block: one lane each.
const LANES: usize = 8;

/// Leader coordinates in column-major blocks of [`LANES`]: block `j` holds
/// leaders `8j..8j+8`, and its `c`-th entry holds their coordinate `c`
/// side by side. Unused lanes of the last block hold `+∞`.
struct LeaderBlocks {
    dim: usize,
    cols: Vec<[f64; LANES]>,
    len: usize,
}

impl LeaderBlocks {
    fn new(dim: usize) -> Self {
        LeaderBlocks {
            dim,
            cols: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, leader: &[f64]) {
        let lane = self.len % LANES;
        if lane == 0 {
            self.cols
                .resize(self.cols.len() + self.dim, [f64::INFINITY; LANES]);
        }
        let block = self.cols.len() - self.dim;
        for (col, &v) in self.cols[block..].iter_mut().zip(leader) {
            col[lane] = v;
        }
        self.len += 1;
    }

    /// The first leader at index `start` or later whose lane sum is not
    /// above `limit` and that `confirm` accepts.
    ///
    /// Each lane adds its squared differences in dimension order, so its
    /// partial sums are exactly the scalar test's. A leader the scalar test
    /// accepts therefore never has a sum above `limit`; `confirm` settles
    /// the lanes whose final sum hides an earlier exceedance (NaN input).
    fn first_candidate(
        &self,
        p: &[f64],
        limit: f64,
        start: usize,
        mut confirm: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut base = start - start % LANES;
        while base < self.len {
            let mut acc = [0.0f64; LANES];
            // Lanes before `start` are out of reach: mark them exceeded so
            // they cannot hold a block open.
            for a in &mut acc[..start.saturating_sub(base)] {
                *a = f64::INFINITY;
            }
            let block = base / LANES * self.dim;
            let acc = lane_sums(p, &self.cols[block..block + self.dim], acc, limit);
            let lo = start.max(base);
            let hi = self.len.min(base + LANES);
            for k in lo..hi {
                // Not above the limit, NaN included.
                if acc[k - base].partial_cmp(&limit) != Some(Ordering::Greater) && confirm(k) {
                    return Some(k);
                }
            }
            base += LANES;
        }
        None
    }
}

/// Adds each lane's squared differences to `acc` in dimension order,
/// stopping once every lane is above `limit`. Kept apart from the lane
/// selection so the compiler keeps the lanes in vector registers.
fn lane_sums(p: &[f64], block: &[[f64; LANES]], mut acc: [f64; LANES], limit: f64) -> [f64; LANES] {
    for (&x, col) in p.iter().zip(block) {
        for (a, &y) in acc.iter_mut().zip(col) {
            let d = x - y;
            *a += d * d;
        }
        // A non-short-circuiting fold: one vector compare, one branch.
        if acc.iter().fold(true, |out, &a| out & (a > limit)) {
            break;
        }
    }
    acc
}

/// Early-exit squared-distance test: `‖a − b‖² ≤ limit`.
fn within_sq(a: &[f64], b: &[f64], limit: f64) -> bool {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
        if acc > limit {
            return false;
        }
    }
    true
}

#[cfg(test)]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threshold_groups_only_identical_points() {
        let points = vec![vec![1.0], vec![1.0], vec![2.0], vec![1.0]];
        let c = ThresholdClustering::new(0.0).fit(&points);
        assert_eq!(c.len(), 2);
        assert_eq!(c.assignments(), &[0, 0, 1, 0]);
    }

    #[test]
    fn huge_threshold_single_cluster() {
        let points = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![-3.0, 2.0]];
        let c = ThresholdClustering::new(100.0).fit(&points);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn members_within_threshold_of_leader() {
        let points: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64 * 0.05]).collect();
        let t = 0.2;
        let c = ThresholdClustering::new(t).fit(&points);
        for (i, &a) in c.assignments().iter().enumerate() {
            let d = sq_dist(&points[i], &c.centroids()[a]).sqrt();
            assert!(d <= t + 1e-12, "point {i} at distance {d}");
        }
    }

    #[test]
    fn cluster_count_monotone_in_threshold() {
        let points: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 0.37).sin() * 3.0])
            .collect();
        let mut prev = usize::MAX;
        for t in [0.0, 0.1, 0.5, 1.0, 5.0] {
            let n = ThresholdClustering::new(t).fit(&points).len();
            assert!(n <= prev, "threshold {t} gave {n} > {prev}");
            prev = n;
        }
    }

    #[test]
    fn empty_input_empty_clustering() {
        let c = ThresholdClustering::new(1.0).fit(&[]);
        assert!(c.is_empty());
        assert_eq!(c.point_count(), 0);
    }

    #[test]
    fn later_block_lane_wins_over_window_skipped_prefix() {
        // Twelve leaders spread along coordinate 0 fill one block and part
        // of the next; the last point is only near leader 9, after the
        // window has skipped past the first block.
        let mut points: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 10.0, 0.0]).collect();
        points.push(vec![90.5, 0.5]);
        let c = ThresholdClustering::new(1.0).fit(&points);
        assert_eq!(c.len(), 12);
        assert_eq!(c.assignments()[12], 9);
    }

    #[test]
    #[should_panic(expected = "one dimension")]
    fn ragged_points_rejected() {
        ThresholdClustering::new(1.0).fit(&[vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        ThresholdClustering::new(-1.0);
    }
}
