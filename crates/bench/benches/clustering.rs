//! Criterion bench: clustering algorithms on one frame's feature matrix.
//!
//! Measures the cost of the E2/E5 clustering step — the dominant compute of
//! the pipeline — across algorithms at frame scale. The `threshold` and
//! `kmeans_k64` cases fit rows in submission order; `threshold_canonical`
//! goes through `ThresholdSubsetter::fit`, which sorts the rows into the
//! canonical order the pipeline always fits (and medoids the result).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subset3d_cluster::{
    Hierarchical, KMeans, Linkage, Subsetter, ThresholdClustering, ThresholdSubsetter,
};
use subset3d_core::SubsetConfig;
use subset3d_features::extract_frame_features;
use subset3d_trace::gen::{GameProfile, CORPUS_SEED};

fn frame_points(draws: usize) -> Vec<Vec<f64>> {
    let w = GameProfile::shooter("bench")
        .frames(1)
        .draws_per_frame(draws)
        .build(CORPUS_SEED)
        .generate();
    let config = SubsetConfig::default();
    let mut m = extract_frame_features(&w.frames()[0], &w, config.features);
    m.normalize(config.normalization);
    m.apply_cost_weights();
    m.to_rows()
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for &draws in &[200usize, 1000] {
        let points = frame_points(draws);
        group.bench_with_input(BenchmarkId::new("threshold", draws), &points, |b, pts| {
            b.iter(|| ThresholdClustering::new(1.05).fit(pts).len())
        });
        group.bench_with_input(BenchmarkId::new("kmeans_k64", draws), &points, |b, pts| {
            b.iter(|| KMeans::new(64).seed(1).fit(pts).len())
        });
    }
    // The standard corpus averages 1,161 draws per frame.
    let mean_frame = frame_points(1161);
    group.bench_with_input(
        BenchmarkId::new("threshold_canonical", 1161),
        &mean_frame,
        |b, pts| b.iter(|| ThresholdSubsetter::new(1.05).fit(pts).representatives.len()),
    );
    // Hierarchical is O(n²)+ — bench only the small frame.
    let small = frame_points(200);
    group.bench_function("hierarchical_avg_200", |b| {
        b.iter(|| {
            Hierarchical::with_distance_cutoff(Linkage::Average, 1.05)
                .fit(&small)
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
