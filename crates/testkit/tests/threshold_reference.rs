//! Differential test of the blocked leader kernel in
//! `ThresholdClustering::fit` against the scalar reference scan: same
//! assignments, bit-identical leader centroids, on the golden corpus in
//! both scan orders, at the threshold extremes, across dimensions that
//! leave a ragged block tail, and on signed-zero, duplicate, NaN and empty
//! input.

use subset3d_cluster::{canonical_order, Clustering, ThresholdClustering};
use subset3d_core::{ClusterMethod, SubsetConfig};
use subset3d_features::extract_frame_features;
use subset3d_testkit::corpus::golden_corpus;
use subset3d_testkit::reference_threshold_fit;

fn assert_matches_reference(points: &[Vec<f64>], threshold: f64, what: &str) {
    let fast = ThresholdClustering::new(threshold).fit(points);
    let slow = reference_threshold_fit(points, threshold);
    assert_eq!(
        fast.assignments(),
        slow.assignments(),
        "{what}: assignments differ at threshold {threshold}"
    );
    assert_eq!(bits(&fast), bits(&slow), "{what}: centroids differ");
}

fn bits(c: &Clustering) -> Vec<Vec<u64>> {
    c.centroids()
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn sorted(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    canonical_order(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Deterministic pseudo-random points with coordinates on a coarse grid,
/// so that many pairs fall exactly on or near the threshold.
fn grid_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % 13) as f64 * 0.25 - 1.5
    };
    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
}

#[test]
fn golden_frames_match_reference_in_both_scan_orders() {
    let config = SubsetConfig::default();
    let ClusterMethod::Threshold { distance } = config.method else {
        panic!("default method is threshold");
    };
    for (name, workload) in golden_corpus() {
        for (fi, frame) in workload.frames().iter().enumerate() {
            let mut matrix = extract_frame_features(frame, &workload, config.features.clone());
            matrix.normalize(config.normalization);
            if config.cost_weighting {
                matrix.apply_cost_weights();
            }
            let canonical = sorted(&matrix.to_rows());
            let mut reversed = canonical.clone();
            reversed.reverse();
            for t in [distance, 0.0, 1e6] {
                assert_matches_reference(&canonical, t, &format!("{name} frame {fi} canonical"));
                assert_matches_reference(&reversed, t, &format!("{name} frame {fi} reversed"));
            }
        }
    }
}

#[test]
fn every_dimension_and_block_tail_matches_reference() {
    for dim in [0, 1, 3, 7, 8, 9, 19] {
        for seed in 1..=4 {
            let points = grid_points(150, dim, seed);
            for t in [0.0, 0.3, 0.8, 1.5, 1e6] {
                let what = format!("dim {dim} seed {seed}");
                assert_matches_reference(&points, t, &format!("{what} unsorted"));
                assert_matches_reference(&sorted(&points), t, &format!("{what} canonical"));
            }
        }
    }
}

#[test]
fn signed_zeros_and_duplicates_match_reference() {
    let points = vec![
        vec![-0.0, 0.0, 1.0],
        vec![0.0, -0.0, 1.0],
        vec![0.0, 0.0, 1.0],
        vec![0.0, 0.0, 1.0],
        vec![0.5, -0.0, 1.0],
        vec![0.5, -0.0, 1.0],
        vec![2.0, 0.0, -0.0],
    ];
    for t in [0.0, 0.5, 1.0] {
        assert_matches_reference(&points, t, "signed zeros");
        assert_matches_reference(&sorted(&points), t, "signed zeros canonical");
    }
}

#[test]
fn nan_coordinates_match_reference() {
    let base = grid_points(40, 9, 7);
    for (row, col) in [(0, 0), (5, 0), (39, 0), (0, 4), (12, 1), (20, 8)] {
        let mut points = base.clone();
        points[row][col] = f64::NAN;
        for t in [0.0, 0.5, 1.5] {
            let what = format!("NaN at ({row}, {col})");
            assert_matches_reference(&points, t, &what);
            assert_matches_reference(&sorted(&points), t, &format!("{what} canonical"));
        }
    }
}

#[test]
fn empty_input_matches_reference() {
    assert_matches_reference(&[], 1.0, "empty");
}
