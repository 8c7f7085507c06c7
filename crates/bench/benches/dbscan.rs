//! Criterion micro-benchmarks of the clustering substrate: the
//! cell-based vs naive DBSCAN ablation, and DBSCAN vs the k-means
//! baseline the paper's use-case replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strata_cluster::naive::dbscan_naive;
use strata_cluster::{dbscan, kmeans, DbscanParams, KmeansParams, Point};

/// A defect-like point cloud: dense blobs on a sparse background,
/// deterministic via an xorshift generator.
fn defect_cloud(n: usize) -> Vec<Point> {
    let mut seed = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 100_000) as f64 / 1_000.0
    };
    let mut points = Vec::with_capacity(n);
    // 80% blob members around 10 centers, 20% background noise.
    let centers: Vec<(f64, f64)> = (0..10).map(|_| (next(), next())).collect();
    for i in 0..n {
        if i % 5 == 0 {
            points.push(Point::new(next(), next(), next() / 50.0));
        } else {
            let (cx, cy) = centers[i % centers.len()];
            points.push(Point::new(
                cx + (next() - 50.0) / 100.0,
                cy + (next() - 50.0) / 100.0,
                next() / 50.0,
            ));
        }
    }
    points
}

/// A thermal correlation window as the use-case builds it at L = 80:
/// events on a 1 mm xy lattice over 81 layers at a 0.04 mm pitch, from
/// defect patches that persist over tens of layers plus scattered
/// single cells. ε = 1.6 mm spans 40 layers, so a cell of edge ε
/// would hold a patch node's events over half the window.
fn thermal_window() -> Vec<Point> {
    let mut seed = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut next = move |bound: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % bound
    };
    // (x, y, first layer, last layer) of each patch, radius 2 nodes.
    let patches: Vec<(i64, i64, u64, u64)> = (0..12)
        .map(|_| {
            let first = next(70);
            (
                next(60) as i64,
                next(60) as i64,
                first,
                first + 10 + next(21),
            )
        })
        .collect();
    let mut points = Vec::new();
    for layer in 0..81u64 {
        let z = layer as f64 * 0.04;
        for &(cx, cy, first, last) in &patches {
            if !(first..=last).contains(&layer) {
                continue;
            }
            for dx in -2i64..=2 {
                for dy in -2i64..=2 {
                    if dx * dx + dy * dy <= 4 && next(10) < 7 {
                        points.push(Point::new((cx + dx) as f64, (cy + dy) as f64, z));
                    }
                }
            }
        }
        for _ in 0..4 {
            points.push(Point::new(next(64) as f64, next(64) as f64, z));
        }
    }
    points
}

fn bench_dbscan_grid_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbscan");
    let params = DbscanParams::new(0.8, 4).unwrap();
    for n in [1_000usize, 5_000] {
        let points = defect_cloud(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("grid", n), &points, |b, pts| {
            b.iter(|| dbscan(pts, &params).len())
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &points, |b, pts| {
            b.iter(|| dbscan_naive(pts, &params).len())
        });
    }
    let points = thermal_window();
    let params = DbscanParams::new(1.6, 3).unwrap();
    group.throughput(Throughput::Elements(points.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("grid", "thermal_window"),
        &points,
        |b, pts| b.iter(|| dbscan(pts, &params).len()),
    );
    group.bench_with_input(
        BenchmarkId::new("naive", "thermal_window"),
        &points,
        |b, pts| b.iter(|| dbscan_naive(pts, &params).len()),
    );
    group.finish();
}

fn bench_dbscan_vs_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering_baseline");
    let points = defect_cloud(5_000);
    group.throughput(Throughput::Elements(points.len() as u64));
    let db = DbscanParams::new(0.8, 4).unwrap();
    group.bench_function("dbscan", |b| b.iter(|| dbscan(&points, &db).len()));
    let km = KmeansParams::new(10).unwrap().max_iterations(20);
    group.bench_function("kmeans_k10", |b| b.iter(|| kmeans(&points, &km).iterations));
    group.finish();
}

criterion_group!(benches, bench_dbscan_grid_vs_naive, bench_dbscan_vs_kmeans);
criterion_main!(benches);
