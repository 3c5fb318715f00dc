//! Medoid extraction: the representative draw of a cluster.

/// Returns the index (into `members`) of the cluster medoid: the member
/// minimising total squared distance to the other members. For large
/// clusters (> 64 members) the member nearest the centroid is returned
/// instead, which is O(n) and near-identical in practice.
///
/// Returns `None` for an empty member list.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::medoid_of;
///
/// let points = vec![vec![0.0], vec![1.0], vec![2.0], vec![100.0]];
/// let m = medoid_of(&points, &[0, 1, 2]).unwrap();
/// assert_eq!(m, 1); // the middle point
/// ```
pub fn medoid_of(points: &[Vec<f64>], members: &[usize]) -> Option<usize> {
    if members.is_empty() {
        return None;
    }
    if members.len() == 1 {
        return Some(members[0]);
    }
    if members.len() <= EXACT_MAX {
        // Exact medoid. `sq_dist` is symmetric bit for bit (`x − y` is
        // exactly `−(y − x)`), so each pair is computed once and added to
        // both totals. Visiting pairs (a, b ≥ a) in row-major order adds
        // every total's terms in member order, as a per-member sum would.
        let mut totals = [0.0f64; EXACT_MAX];
        for (a, &i) in members.iter().enumerate() {
            totals[a] += sq_dist(&points[i], &points[i]);
            for (b, &j) in members.iter().enumerate().skip(a + 1) {
                let d = sq_dist(&points[i], &points[j]);
                totals[a] += d;
                totals[b] += d;
            }
        }
        let mut best = members[0];
        let mut best_total = f64::INFINITY;
        for (&i, &total) in members.iter().zip(&totals) {
            if total < best_total {
                best_total = total;
                best = i;
            }
        }
        Some(best)
    } else {
        // Centroid-nearest approximation.
        let dim = points[members[0]].len();
        let mut centroid = vec![0.0; dim];
        for &i in members {
            for (c, &v) in centroid.iter_mut().zip(&points[i]) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= members.len() as f64;
        }
        members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                sq_dist(&points[a], &centroid)
                    .partial_cmp(&sq_dist(&points[b], &centroid))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .or(Some(members[0]))
    }
}

/// Largest cluster whose medoid is found exactly.
const EXACT_MAX: usize = 64;

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_members_none() {
        assert_eq!(medoid_of(&[vec![1.0]], &[]), None);
    }

    #[test]
    fn singleton_is_its_own_medoid() {
        assert_eq!(medoid_of(&[vec![1.0], vec![2.0]], &[1]), Some(1));
    }

    #[test]
    fn exact_medoid_small_cluster() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![5.0, 5.0],
        ];
        // Members 0..3 (excluding the far point 3): medoid should be one of
        // the two nearby points, not the origin outlier.
        let m = medoid_of(&pts, &[0, 1, 2]).unwrap();
        assert!(m == 1 || m == 2);
    }

    #[test]
    fn large_cluster_uses_centroid_heuristic() {
        // 100 points on a line; medoid ≈ middle.
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let members: Vec<usize> = (0..100).collect();
        let m = medoid_of(&pts, &members).unwrap();
        assert!((45..=54).contains(&m), "medoid {m}");
    }

    /// The exact medoid as a per-member double loop over all pairs.
    fn double_loop_medoid(points: &[Vec<f64>], members: &[usize]) -> usize {
        let mut best = members[0];
        let mut best_total = f64::INFINITY;
        for &i in members {
            let total: f64 = members
                .iter()
                .map(|&j| sq_dist(&points[i], &points[j]))
                .sum();
            if total < best_total {
                best_total = total;
                best = i;
            }
        }
        best
    }

    #[test]
    fn single_pair_pass_matches_double_loop() {
        // Coarse coordinates make many totals tie, so the first-minimum
        // rule decides; the NaN member never wins.
        let mut pts: Vec<Vec<f64>> = (0..70)
            .map(|i| vec![((i * 7) % 5) as f64 * 0.5, ((i * 3) % 4) as f64, -0.0])
            .collect();
        pts[13][1] = f64::NAN;
        for len in [2, 3, 8, 31, 63, 64] {
            for offset in [0, 5] {
                let members: Vec<usize> = (offset..offset + len).rev().collect();
                assert_eq!(
                    medoid_of(&pts, &members),
                    Some(double_loop_medoid(&pts, &members)),
                    "{len} members from {offset}"
                );
            }
        }
    }

    #[test]
    fn medoid_is_always_a_member() {
        let pts: Vec<Vec<f64>> = (0..80).map(|i| vec![(i as f64 * 1.7).sin()]).collect();
        let members: Vec<usize> = (10..50).collect();
        let m = medoid_of(&pts, &members).unwrap();
        assert!(members.contains(&m));
    }
}
