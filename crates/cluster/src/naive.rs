//! Textbook O(n²) DBSCAN: the correctness oracle and ablation
//! baseline for the cell-based implementation.

use std::collections::VecDeque;

use crate::dbscan::{DbscanParams, Label};
use crate::point::Point;

/// Runs DBSCAN as a seed-order breadth-first search with brute-force
/// ε-neighborhood queries (O(n) each). Its labels define the ones
/// [`dbscan`](crate::dbscan::dbscan) must return exactly: a cluster
/// is numbered when the seed loop reaches its lowest core point, and
/// a border point keeps the first, hence lowest-id, cluster whose
/// search reaches it. A point with a non-finite coordinate fails every
/// `≤ ε²` test (while ε² is finite), itself included, and is noise.
pub fn dbscan_naive(points: &[Point], params: &DbscanParams) -> Vec<Label> {
    let eps_sq = params.eps() * params.eps();
    let neighbors_of = |i: usize| -> Vec<u32> {
        points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.distance_sq(&points[i]) <= eps_sq)
            .map(|(j, _)| j as u32)
            .collect()
    };

    let mut labels = vec![None::<Label>; points.len()];
    let mut next_cluster = 0u32;
    let mut queue = VecDeque::new();
    for seed in 0..points.len() {
        if labels[seed].is_some() {
            continue;
        }
        let neighbors = neighbors_of(seed);
        if neighbors.len() < params.min_pts() {
            labels[seed] = Some(Label::Noise);
            continue;
        }
        let cluster = Label::Cluster(next_cluster);
        next_cluster += 1;
        labels[seed] = Some(cluster);
        queue.extend(neighbors);
        while let Some(idx) = queue.pop_front() {
            let idx = idx as usize;
            match labels[idx] {
                Some(Label::Noise) => labels[idx] = Some(cluster),
                Some(_) => continue,
                None => {
                    labels[idx] = Some(cluster);
                    let reach = neighbors_of(idx);
                    if reach.len() >= params.min_pts() {
                        queue.extend(reach);
                    }
                }
            }
        }
    }
    labels
        .into_iter()
        .map(|l| l.expect("every point labeled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;

    #[test]
    fn grid_and_naive_agree_on_structured_data() {
        let mut points = Vec::new();
        for cx in [0.0, 7.0, 14.0] {
            for i in 0..25 {
                let a = i as f64 * 0.7;
                points.push(Point::new(cx + 0.8 * a.cos(), 0.8 * a.sin(), 0.0));
            }
        }
        points.push(Point::new(100.0, 100.0, 100.0));
        let params = DbscanParams::new(1.0, 3).unwrap();
        assert_eq!(dbscan(&points, &params), dbscan_naive(&points, &params));
    }

    #[test]
    fn grid_and_naive_agree_on_pseudorandom_data() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 10_000) as f64 / 500.0
        };
        for trial in 0..5 {
            let points: Vec<Point> = (0..400)
                .map(|_| Point::new(next(), next(), next() / 10.0))
                .collect();
            let params = DbscanParams::new(0.9, 4).unwrap();
            assert_eq!(
                dbscan(&points, &params),
                dbscan_naive(&points, &params),
                "trial {trial}"
            );
        }
    }
}
