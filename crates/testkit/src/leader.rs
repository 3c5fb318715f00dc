//! The scalar reference for threshold (leader) clustering.
//!
//! Compares every point with every leader in creation order, one
//! coordinate at a time, stopping at the first partial sum above the
//! squared threshold. [`subset3d_cluster::ThresholdClustering::fit`] must
//! match it bit for bit: same assignments, same leader centroids, NaN
//! input included.

use subset3d_cluster::Clustering;

/// Leader clustering the naive way: each point joins the first leader
/// within `threshold`, or founds a new cluster. Centroids are the leaders.
///
/// # Examples
///
/// ```
/// use subset3d_testkit::reference_threshold_fit;
///
/// let c = reference_threshold_fit(&[vec![0.0], vec![0.5], vec![9.0]], 1.0);
/// assert_eq!(c.assignments(), &[0, 0, 1]);
/// ```
pub fn reference_threshold_fit(points: &[Vec<f64>], threshold: f64) -> Clustering {
    let mut leaders: Vec<usize> = Vec::new();
    let mut assignments = Vec::with_capacity(points.len());
    let threshold_sq = threshold * threshold;
    for p in points {
        let mut assigned = None;
        for (ci, &leader) in leaders.iter().enumerate() {
            if within_sq(p, &points[leader], threshold_sq) {
                assigned = Some(ci);
                break;
            }
        }
        match assigned {
            Some(ci) => assignments.push(ci),
            None => {
                assignments.push(leaders.len());
                leaders.push(assignments.len() - 1);
            }
        }
    }
    let centroids = leaders.into_iter().map(|i| points[i].clone()).collect();
    Clustering::new(assignments, centroids)
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
