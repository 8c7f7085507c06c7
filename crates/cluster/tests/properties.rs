//! Property-based tests of the clustering invariants.
//!
//! DBSCAN's labelling is fully determined once ids and border points
//! follow a fixed rule: cluster ids count up in order of each
//! cluster's lowest core point index, a border point joins the
//! lowest-id cluster among the core points within ε, and a point with
//! a non-finite coordinate is noise. The textbook seed-order BFS of
//! `dbscan_naive` produces exactly that labelling, so the cell-based
//! `dbscan` must return the very same `Label` vector: same ids, same
//! border assignment, same noise.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use strata_cluster::naive::dbscan_naive;
use strata_cluster::{dbscan, DbscanParams, Label, Point};

fn cloud_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0f64..50.0, 0.0f64..50.0, 0.0f64..2.0).prop_map(|(x, y, z)| Point::new(x, y, z)),
        0..250,
    )
}

/// Thermal-shaped windows: events on an integer (mm) xy lattice over
/// 81 layers at a 0.04 mm pitch, far below any ε used with them.
fn thermal_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0u32..12, 0u32..12, 0u32..81).prop_map(|(x, y, layer)| {
            Point::new(f64::from(x), f64::from(y), f64::from(layer) * 0.04)
        }),
        0..300,
    )
}

/// One coordinate: mostly near the origin, sometimes non-finite.
fn maybe_finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        12 => -3.0f64..3.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// One coordinate near the origin or near a large magnitude: at 2e9
/// and 1e10 cells cross the grid's range, at 1e19 `coord / edge`
/// saturates `i64`, and at 1e300 `f64` spacing dwarfs ε.
fn large_coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -3.0f64..3.0,
        1 => (-3.0f64..3.0).prop_map(|d| 2.15e9 + d),
        1 => (-3.0f64..3.0).prop_map(|d| -1e10 + d),
        1 => (-3.0f64..3.0).prop_map(|d| 1e19 + d * 1e4),
        1 => (-3.0f64..3.0).prop_map(|d| -1e300 * (1.0 + d * 1e-16)),
    ]
}

/// Indexes of core points, brute force.
fn core_points(points: &[Point], params: &DbscanParams) -> Vec<usize> {
    let eps_sq = params.eps() * params.eps();
    (0..points.len())
        .filter(|&i| {
            points
                .iter()
                .filter(|q| q.distance_sq(&points[i]) <= eps_sq)
                .count()
                >= params.min_pts()
        })
        .collect()
}

/// The cluster partition restricted to `subset`, canonicalized to
/// first-seen ids.
fn canonical_partition(labels: &[Label], subset: &[usize]) -> Vec<i64> {
    let mut mapping: HashMap<u32, i64> = HashMap::new();
    subset
        .iter()
        .map(|&i| match labels[i] {
            Label::Noise => -1,
            Label::Cluster(id) => {
                let next = mapping.len() as i64;
                *mapping.entry(id).or_insert(next)
            }
        })
        .collect()
}

/// `dbscan` returns exactly the oracle's labels.
fn same_as_oracle(points: &[Point], eps: f64, min_pts: usize) -> Result<(), TestCaseError> {
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let fast = dbscan(points, &params);
    let slow = dbscan_naive(points, &params);
    prop_assert_eq!(fast.len(), points.len());
    for i in 0..points.len() {
        prop_assert_eq!(fast[i], slow[i], "point {} at {}", i, points[i]);
    }
    Ok(())
}

fn assert_same_as_oracle(points: &[Point], eps: f64, min_pts: usize) {
    if let Err(e) = same_as_oracle(points, eps, min_pts) {
        panic!("eps {eps}, min_pts {min_pts}: {}", e.message());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact labels on arbitrary clouds.
    #[test]
    fn grid_matches_oracle(points in cloud_strategy(), eps in 0.2f64..3.0, min_pts in 1usize..6) {
        same_as_oracle(&points, eps, min_pts)?;
    }

    /// Exact labels on thermal-shaped windows, where a cell spans
    /// tens of layers.
    #[test]
    fn thermal_windows_match_oracle(points in thermal_strategy(), eps in 0.9f64..2.5, min_pts in 1usize..8) {
        same_as_oracle(&points, eps, min_pts)?;
    }

    /// Exact labels with repeated points (zero distances, full cells).
    #[test]
    fn duplicates_match_oracle(
        base in proptest::collection::vec(
            ((-5.0f64..5.0, -5.0f64..5.0, -1.0f64..1.0), 1usize..5),
            0..80,
        ),
        eps in 0.2f64..2.0,
        min_pts in 1usize..8,
    ) {
        let points: Vec<Point> = base
            .iter()
            .flat_map(|&((x, y, z), copies)| std::iter::repeat_n(Point::new(x, y, z), copies))
            .collect();
        same_as_oracle(&points, eps, min_pts)?;
    }

    /// Exact labels on clouds straddling the origin.
    #[test]
    fn negative_coordinates_match_oracle(
        points in proptest::collection::vec(
            (-25.0f64..25.0, -25.0f64..25.0, -1.0f64..1.0)
                .prop_map(|(x, y, z)| Point::new(x, y, z)),
            0..250,
        ),
        eps in 0.2f64..3.0,
        min_pts in 1usize..6,
    ) {
        same_as_oracle(&points, eps, min_pts)?;
    }

    /// Exact labels where `coord / edge` leaves the grid's range or
    /// saturates `i64`: such points take the pairwise path.
    #[test]
    fn large_coordinates_match_oracle(
        points in proptest::collection::vec(
            (large_coordinate(), large_coordinate(), -1.0f64..1.0)
                .prop_map(|(x, y, z)| Point::new(x, y, z)),
            0..120,
        ),
        eps in 0.5f64..4.0,
        min_pts in 1usize..5,
    ) {
        same_as_oracle(&points, eps, min_pts)?;
    }

    /// Points with NaN or ∞ coordinates are noise, as in the oracle,
    /// and do not disturb the labels of the others.
    #[test]
    fn non_finite_coordinates_match_oracle(
        points in proptest::collection::vec(
            (maybe_finite(), maybe_finite(), maybe_finite())
                .prop_map(|(x, y, z)| Point::new(x, y, z)),
            0..150,
        ),
        eps in 0.3f64..2.0,
        min_pts in 1usize..5,
    ) {
        same_as_oracle(&points, eps, min_pts)?;
        let labels = dbscan(&points, &DbscanParams::new(eps, min_pts).unwrap());
        for (p, label) in points.iter().zip(&labels) {
            if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
                prop_assert!(label.is_noise(), "{} labelled {:?}", p, label);
            }
        }
    }

    /// Core points are never labeled noise; with min_pts = 1 nothing
    /// is noise.
    #[test]
    fn core_points_are_clustered(points in cloud_strategy(), eps in 0.2f64..3.0) {
        let params = DbscanParams::new(eps, 3).unwrap();
        let labels = dbscan(&points, &params);
        for &i in &core_points(&points, &params) {
            prop_assert!(!labels[i].is_noise(), "core point {} marked noise", i);
        }
        let all_core = DbscanParams::new(eps, 1).unwrap();
        prop_assert!(dbscan(&points, &all_core).iter().all(|l| !l.is_noise()));
    }

    /// Two core points within ε of each other always share a cluster.
    #[test]
    fn density_connectivity_is_transitive(points in cloud_strategy(), eps in 0.5f64..3.0) {
        let params = DbscanParams::new(eps, 4).unwrap();
        let labels = dbscan(&points, &params);
        let cores = core_points(&points, &params);
        let eps_sq = eps * eps;
        for (a_pos, &a) in cores.iter().enumerate() {
            for &b in &cores[a_pos + 1..] {
                if points[a].distance_sq(&points[b]) <= eps_sq {
                    prop_assert_eq!(
                        labels[a].cluster(),
                        labels[b].cluster(),
                        "ε-close core points {} and {} split",
                        a,
                        b
                    );
                }
            }
        }
    }

    /// Rigid translation of the whole cloud never changes the
    /// clustering structure.
    #[test]
    fn translation_invariance(
        points in cloud_strategy(),
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
    ) {
        let params = DbscanParams::new(1.0, 3).unwrap();
        let base = dbscan(&points, &params);
        let moved: Vec<Point> = points
            .iter()
            .map(|p| Point::new(p.x + dx, p.y + dy, p.z))
            .collect();
        let shifted = dbscan(&moved, &params);
        // Same noise set; same partition over all points (border
        // assignment and ids follow the input order, which
        // translation preserves).
        let all: Vec<usize> = (0..points.len()).collect();
        prop_assert_eq!(
            canonical_partition(&base, &all),
            canonical_partition(&shifted, &all)
        );
    }
}

/// Pairs exactly ε apart, on an axis and on 2-D and 3-D diagonals,
/// at offsets that move them across cell boundaries.
#[test]
fn pairs_exactly_eps_apart_match_oracle() {
    for (eps, step) in [
        (1.0, [1.0, 0.0, 0.0]),
        (1.6, [0.0, 1.6, 0.0]),
        (0.04, [0.0, 0.0, 0.04]),
        (5.0, [3.0, 4.0, 0.0]),
        (3.0, [1.0, 2.0, 2.0]),
        (1.0, [0.6, 0.8, 0.0]),
    ] {
        for k in 0..40 {
            let o = -2.0 * eps + f64::from(k) * eps / 10.0;
            let a = Point::new(o, o * 0.5, -o);
            let b = Point::new(a.x + step[0], a.y + step[1], a.z + step[2]);
            let c = Point::new(b.x + step[0], b.y + step[1], b.z + step[2]);
            for min_pts in 1..=3 {
                assert_same_as_oracle(&[a, b, c], eps, min_pts);
                assert_same_as_oracle(&[c, a, b, a], eps, min_pts);
            }
        }
    }
}

/// Pairs just beyond ε apart on the 3-D diagonal, where they can share
/// a cell only if the cell's diameter reached ε.
#[test]
fn pairs_just_beyond_eps_match_oracle() {
    for eps in [1.0, 1.6] {
        for stretch in [1.0 + 1e-12, 1.001, 1.02, 1.07, 1.15] {
            let d = eps * stretch / 3f64.sqrt();
            for k in 0..200 {
                let o = f64::from(k) * eps / 97.0;
                let a = Point::new(o, o, o);
                let b = Point::new(o + d, o + d, o + d);
                for min_pts in 1..=2 {
                    assert_same_as_oracle(&[a, b], eps, min_pts);
                }
            }
        }
    }
}

/// The labelling rule on a hand-built case: ids follow the lowest core
/// index, and a border point between two clusters joins the lower id.
#[test]
fn ids_follow_lowest_core_index_and_borders_take_the_lowest_id() {
    let points = vec![
        Point::new(0.0, 0.0, 0.0),   // 0: border of both clusters
        Point::new(10.0, 0.0, 0.0),  // 1: noise
        Point::new(1.0, 0.0, 0.0),   // 2: core of the right cluster
        Point::new(-1.0, 0.0, 0.0),  // 3: core of the left cluster
        Point::new(1.5, 0.0, 0.0),   // 4
        Point::new(-1.5, 0.0, 0.0),  // 5
        Point::new(2.0, 0.0, 0.0),   // 6
        Point::new(-2.0, 0.0, 0.0),  // 7
        Point::new(-20.0, 0.0, 0.0), // 8: noise
    ];
    let labels = dbscan(&points, &DbscanParams::new(1.0, 4).unwrap());
    let (right, left) = (Label::Cluster(0), Label::Cluster(1));
    assert_eq!(
        labels,
        vec![
            right,
            Label::Noise,
            right,
            left,
            right,
            left,
            right,
            left,
            Label::Noise
        ]
    );
    assert_same_as_oracle(&points, 1.0, 4);
}

/// With ε² overflowing to ∞, `∞ − 0` passes the oracle's `≤ ε²` test:
/// infinite points then have neighbours, and only NaN stays noise. So
/// do finite points whose squared distance overflows.
#[test]
fn overflowing_eps_squared_matches_oracle() {
    let points = vec![
        Point::new(f64::INFINITY, 0.0, 0.0),
        Point::new(0.0, 0.0, 0.0),
        Point::new(f64::NEG_INFINITY, 0.0, 0.0),
        Point::new(f64::NAN, 0.0, 0.0),
        Point::new(1e300, -1e300, 5.0),
        Point::new(f64::INFINITY, 0.0, 0.0),
        Point::new(2e163, 0.0, 0.0),
        Point::new(-2e163, 0.0, 0.0),
    ];
    for eps in [1e155, 1e200] {
        for min_pts in 1..=4 {
            assert_same_as_oracle(&points, eps, min_pts);
            // ±∞ are each other's only neighbour: not themselves.
            assert_same_as_oracle(&[points[0], points[2]], eps, min_pts);
            // Two +∞ points have no neighbour at all.
            assert_same_as_oracle(&[points[0], points[5]], eps, min_pts);
            // Finite points whose squared distance overflows.
            assert_same_as_oracle(&points[6..], eps, min_pts);
        }
    }
}

/// With ε² subnormal or zero, rounding lets the oracle accept pairs
/// well beyond ε.
#[test]
fn underflowing_eps_squared_matches_oracle() {
    for eps in [2e-162, 1e-160, 1e-300] {
        for k in 0..50 {
            let o = f64::from(k) * eps / 17.0;
            let points = [
                Point::new(o, 0.0, 0.0),
                Point::new(o + 1.3 * eps, 0.0, 0.0),
                Point::new(o + 2.6 * eps, 0.0, 0.0),
                Point::new(f64::INFINITY, o, 0.0),
            ];
            for min_pts in 1..=3 {
                assert_same_as_oracle(&points, eps, min_pts);
            }
        }
    }
}
