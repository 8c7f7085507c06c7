//! Exact cell-based DBSCAN (Ester et al., KDD 1996; Gan & Tao,
//! SIGMOD 2015).

use crate::error::{Error, Result};
use crate::grid::CellGrid;
use crate::point::Point;

/// DBSCAN parameters: neighborhood radius ε and the core-point
/// density threshold `min_pts` (a point's ε-neighborhood, itself
/// included, must hold at least `min_pts` points for the point to be
/// *core*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    eps: f64,
    min_pts: usize,
}

impl DbscanParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParams`] unless `eps > 0` (and finite) and
    /// `min_pts ≥ 1`.
    pub fn new(eps: f64, min_pts: usize) -> Result<Self> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(Error::InvalidParams(format!(
                "eps must be positive and finite, got {eps}"
            )));
        }
        if min_pts == 0 {
            return Err(Error::InvalidParams("min_pts must be ≥ 1".into()));
        }
        Ok(DbscanParams { eps, min_pts })
    }

    /// The neighborhood radius ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The core-point density threshold.
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }
}

/// A point's cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given dense id (0, 1, …, in
    /// order of each cluster's lowest core point index).
    Cluster(u32),
}

impl Label {
    /// `true` for [`Label::Noise`].
    pub fn is_noise(&self) -> bool {
        matches!(self, Label::Noise)
    }

    /// The cluster id, if any.
    pub fn cluster(&self) -> Option<u32> {
        match self {
            Label::Cluster(id) => Some(*id),
            Label::Noise => None,
        }
    }
}

/// Runs DBSCAN over `points`, returning one [`Label`] per point (same
/// order as the input).
///
/// Core points are those with at least `min_pts` points within ε
/// (themselves included); clusters are the maximal sets of
/// density-connected points; the rest is noise. The labelling is
/// exactly that of the seed-order breadth-first DBSCAN in
/// [`dbscan_naive`](crate::naive::dbscan_naive):
///
/// * cluster ids count up from 0 in order of each cluster's lowest
///   core point index;
/// * a border point joins the lowest-id cluster among the core points
///   within ε of it;
/// * a point with a non-finite coordinate is noise (while ε² is
///   finite: it has no neighbour, not even itself).
///
/// The work is done per cell of edge just under ε/2 (Gan & Tao,
/// SIGMOD 2015): a cell of `min_pts` points is all core, other points
/// count neighbours in the ≤ 5³ adjacent cells up to `min_pts`, and
/// clusters are union-find components of core cells, two cells being
/// joined by the first ε-close core pair found between them.
///
/// # Panics
///
/// If `points.len()` does not fit the `u32` point index.
pub fn dbscan(points: &[Point], params: &DbscanParams) -> Vec<Label> {
    let grid = CellGrid::build(points, params.eps);
    let eps_sq = params.eps * params.eps;
    let min_pts = params.min_pts;
    let within = |p: u32, q: u32| points[p as usize].distance_sq(&points[q as usize]) <= eps_sq;
    let cells = grid.cells();

    // Core points. A grid cell's points are all within ε of each other.
    let is_core = |p: u32, c: usize| {
        let mut count = 0;
        for n in grid.adjacent(c) {
            if n == c && grid.in_grid(c) {
                count += grid.members(c).len();
            } else if grid.gap_sq(c, n) <= eps_sq {
                count += grid.members(n).iter().filter(|&&q| within(p, q)).count();
            }
            if count >= min_pts {
                return true;
            }
        }
        false
    };
    let mut core = vec![false; points.len()];
    for c in 0..cells {
        let members = grid.members(c);
        let full = grid.in_grid(c) && members.len() >= min_pts;
        for &p in members {
            core[p as usize] = full || is_core(p, c);
        }
    }
    let core_in = |c: usize| grid.members(c).iter().filter(|&&p| core[p as usize]);
    let has_core: Vec<bool> = (0..cells).map(|c| core_in(c).next().is_some()).collect();

    // Clusters: join adjacent core cells holding an ε-close core pair.
    let mut sets = DisjointSets::new(cells);
    for a in 0..cells {
        if !has_core[a] {
            continue;
        }
        for b in grid.adjacent(a) {
            if b <= a || !has_core[b] || grid.gap_sq(a, b) > eps_sq || sets.find(a) == sets.find(b)
            {
                continue;
            }
            if core_in(a).any(|&p| core_in(b).any(|&q| within(p, q))) {
                sets.union(a, b);
            }
        }
    }

    // Ids in order of each cluster's lowest core point index.
    let mut labels = vec![Label::Noise; points.len()];
    let mut id_of_root = vec![NO_ID; cells];
    let mut next_id = 0;
    for (i, label) in labels.iter_mut().enumerate() {
        if core[i] {
            let root = sets.find(grid.cell_of(i).expect("a core point has a cell"));
            if id_of_root[root] == NO_ID {
                id_of_root[root] = next_id;
                next_id += 1;
            }
            *label = Label::Cluster(id_of_root[root]);
        }
    }
    let id_of_cell: Vec<u32> = (0..cells)
        .map(|c| {
            if has_core[c] {
                id_of_root[sets.find(c)]
            } else {
                NO_ID
            }
        })
        .collect();

    // Border points join the lowest adjacent cluster id.
    for c in 0..cells {
        for &p in grid.members(c) {
            if core[p as usize] {
                continue;
            }
            let mut best = NO_ID;
            for n in grid.adjacent(c) {
                if id_of_cell[n] < best
                    && grid.gap_sq(c, n) <= eps_sq
                    && core_in(n).any(|&q| within(p, q))
                {
                    best = id_of_cell[n];
                }
            }
            if best != NO_ID {
                labels[p as usize] = Label::Cluster(best);
            }
        }
    }
    labels
}

/// No cluster id (ids stay below the point count, itself below `u32::MAX`).
const NO_ID: u32 = u32::MAX;

/// Union-find over cell ids, with path halving; the smaller root wins.
struct DisjointSets(Vec<u32>);

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets((0..n as u32).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] as usize != x {
            self.0[x] = self.0[self.0[x] as usize];
            x = self.0[x] as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        self.0[a.max(b)] = a.min(b) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 2.399963; // golden angle: deterministic spread
                let r = spread * (i as f64 / n as f64);
                Point::new(cx + r * angle.cos(), cy + r * angle.sin(), 0.0)
            })
            .collect()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(DbscanParams::new(0.0, 3).is_err());
        assert!(DbscanParams::new(-1.0, 3).is_err());
        assert!(DbscanParams::new(f64::NAN, 3).is_err());
        assert!(DbscanParams::new(1.0, 0).is_err());
        assert!(DbscanParams::new(1.0, 1).is_ok());
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(dbscan(&[], &DbscanParams::new(1.0, 3).unwrap()).is_empty());
    }

    #[test]
    fn two_blobs_and_noise() {
        let mut points = blob(0.0, 0.0, 30, 1.0);
        points.extend(blob(50.0, 50.0, 30, 1.0));
        points.push(Point::new(25.0, 25.0, 0.0)); // lone outlier
        let labels = dbscan(&points, &DbscanParams::new(1.0, 4).unwrap());
        let c0 = labels[0].cluster().expect("blob 1 clustered");
        let c1 = labels[30].cluster().expect("blob 2 clustered");
        assert_ne!(c0, c1);
        assert!(labels[..30].iter().all(|l| *l == Label::Cluster(c0)));
        assert!(labels[30..60].iter().all(|l| *l == Label::Cluster(c1)));
        assert!(labels[60].is_noise());
    }

    #[test]
    fn chain_connectivity_respects_eps() {
        // A chain with 0.9 spacing is one cluster at eps=1, but
        // splits when a 1.5 gap interrupts it.
        let mut points: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64 * 0.9, 0.0, 0.0))
            .collect();
        points.extend((0..10).map(|i| Point::new(9.0 * 0.9 + 1.5 + i as f64 * 0.9, 0.0, 0.0)));
        let labels = dbscan(&points, &DbscanParams::new(1.0, 2).unwrap());
        let first = labels[0].cluster().unwrap();
        let second = labels[10].cluster().unwrap();
        assert_ne!(first, second);
        assert!(labels[..10].iter().all(|l| l.cluster() == Some(first)));
        assert!(labels[10..].iter().all(|l| l.cluster() == Some(second)));
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let points = vec![Point::new(0.0, 0.0, 0.0), Point::new(100.0, 0.0, 0.0)];
        let labels = dbscan(&points, &DbscanParams::new(1.0, 1).unwrap());
        assert!(labels.iter().all(|l| !l.is_noise()));
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn clusters_span_the_z_axis() {
        // Same (x, y) across 5 consecutive layers 0.04 apart: one 3-D
        // cluster when eps covers the layer pitch.
        let points: Vec<Point> = (0..5)
            .map(|l| Point::new(1.0, 1.0, l as f64 * 0.04))
            .collect();
        let labels = dbscan(&points, &DbscanParams::new(0.05, 2).unwrap());
        assert!(labels.iter().all(|l| *l == Label::Cluster(0)));
    }

    #[test]
    fn cluster_ids_are_dense() {
        let mut points = blob(0.0, 0.0, 20, 0.5);
        points.extend(blob(10.0, 0.0, 20, 0.5));
        points.extend(blob(20.0, 0.0, 20, 0.5));
        let labels = dbscan(&points, &DbscanParams::new(1.0, 3).unwrap());
        let mut ids: Vec<u32> = labels.iter().filter_map(Label::cluster).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
