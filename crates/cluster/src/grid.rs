//! The cell grid behind [`dbscan()`](crate::dbscan()).
//!
//! Points are bucketed into cubic cells of edge just under ε/2, kept
//! as one sorted, flat array (Gan & Tao, SIGMOD 2015; de Berg et al.,
//! 2017). Two geometric facts make the cells useful:
//!
//! * every cell's diameter is below ε, so points sharing a cell are
//!   ε-neighbours of one another;
//! * every ε-neighbour of a point lies within ±2 cells of it on each
//!   axis, so a cell's neighbourhood is at most 5³ cells.
//!
//! Both facts are about the oracle's own test, `distance_sq ≤ ε²` in
//! `f64`, and hold with margin under rounding. They need a cell
//! coordinate that `f64` resolves finely and an ε² that is a normal
//! `f64`. Any other point that can have a neighbour gets a singleton
//! *far* cell, adjacent to every cell and exempt from the shortcuts
//! above, so it goes through the exact pairwise test against every
//! point. A point that can have none is in no cell: a NaN coordinate
//! makes every distance NaN, and an infinite one makes every distance
//! NaN or ∞, which fails the test while ε² is finite.

use std::ops::Range;

use crate::point::Point;

/// Cells per ε on each axis. Just under 2, so that an ε-neighbour is at
/// most 1.99 cells plus rounding (under 2⁻²⁰ of a cell) away, never 3,
/// while a cell's diameter stays √3/1.99 ≈ 0.87 ε.
const CELLS_PER_EPS: f64 = 1.99;

/// Largest |cell coordinate| (2²⁹) for an in-grid point. `f64` then
/// resolves a coordinate to 2⁻²⁴ of a cell, and the coordinate, biased
/// by 2³⁰, stays within a 31-bit field with room for ±2.
const MAX_CELL: f64 = 536_870_912.0;

/// Packs a cell offset into one integer: cell keys are
/// `shift(coordinates + 2³⁰)`, ordered like `(x, y, z)`, and adding
/// `shift(d)` moves a key by `d` cells.
fn shift([x, y, z]: [i64; 3]) -> i128 {
    (i128::from(x) << 62) + (i128::from(y) << 31) + i128::from(z)
}

/// Marks a point that is in no cell: it has no ε-neighbour.
const NO_CELL: u32 = u32::MAX;

/// The cells of one point set. Cell ids are dense: first the in-grid
/// cells in key order, then one far cell per far point, in index order.
#[derive(Debug)]
pub(crate) struct CellGrid {
    /// Point indexes grouped by cell; ascending within a cell.
    members: Vec<u32>,
    /// Cell `c` holds `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// The cell of each point, or [`NO_CELL`].
    cell_of: Vec<u32>,
    /// Cells `0..grid_cells` are grid cells; the rest are far cells.
    grid_cells: usize,
    /// Bounding box (lowest, highest corner) of each cell's points.
    bounds: Vec<(Point, Point)>,
    /// Runs of adjacent cell ids; cell `c` owns
    /// `adjacent[adjacent_starts[c]..adjacent_starts[c + 1]]`.
    adjacent: Vec<Range<u32>>,
    adjacent_starts: Vec<u32>,
}

impl CellGrid {
    /// Buckets `points` for query radius `eps`.
    ///
    /// # Panics
    ///
    /// If `points` has `u32::MAX` or more entries.
    pub(crate) fn build(points: &[Point], eps: f64) -> Self {
        assert!(
            points.len() < NO_CELL as usize,
            "DBSCAN indexes points with u32: {} points is too many",
            points.len()
        );
        // With ε² subnormal or infinite the oracle's test no longer
        // tracks the geometry, so every point takes the pairwise path.
        let eps_sq = eps * eps;
        let scale = if eps_sq.is_normal() {
            CELLS_PER_EPS / eps
        } else {
            f64::NAN
        };
        // Cell key in the high bits, point index in the low 32.
        let mut keyed: Vec<i128> = Vec::with_capacity(points.len());
        let mut far: Vec<u32> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let i = i as u32;
            let (x, y, z) = (p.x * scale, p.y * scale, p.z * scale);
            if x.abs() <= MAX_CELL && y.abs() <= MAX_CELL && z.abs() <= MAX_CELL {
                let bias = 1 << 30;
                let cell = [x, y, z].map(|v| v.floor() as i64 + bias);
                keyed.push(shift(cell) << 32 | i128::from(i));
            } else if [p.x, p.y, p.z].iter().all(|v| v.is_finite())
                || (eps_sq.is_infinite() && ![p.x, p.y, p.z].iter().any(|v| v.is_nan()))
            {
                far.push(i);
            }
        }
        keyed.sort_unstable();

        let mut members = Vec::with_capacity(keyed.len() + far.len());
        let mut starts = Vec::new();
        let mut keys: Vec<i128> = Vec::new();
        let mut cell_of = vec![NO_CELL; points.len()];
        for &sort_key in &keyed {
            let (key, i) = (sort_key >> 32, sort_key as u32);
            if keys.last() != Some(&key) {
                starts.push(members.len() as u32);
                keys.push(key);
            }
            cell_of[i as usize] = keys.len() as u32 - 1;
            members.push(i);
        }
        let grid_cells = keys.len();
        for &i in &far {
            cell_of[i as usize] = starts.len() as u32;
            starts.push(members.len() as u32);
            members.push(i);
        }
        let cells = starts.len() as u32;
        starts.push(members.len() as u32);
        let bounds = starts
            .windows(2)
            .map(|run| {
                let mut cell = members[run[0] as usize..run[1] as usize]
                    .iter()
                    .map(|&i| points[i as usize]);
                let first = cell.next().expect("cells are not empty");
                cell.fold((first, first), |(lo, hi), p| {
                    (
                        Point::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z)),
                        Point::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z)),
                    )
                })
            })
            .collect();

        // One sweep over the sorted keys: the first key at or past
        // `key + (dx, dy, −2)` only moves forward as `key` does, so each
        // of the 25 columns around a cell keeps its own cursor.
        let mut adjacent = Vec::new();
        let mut adjacent_starts = Vec::with_capacity(cells as usize + 1);
        let mut cursors = [0usize; 25];
        for &key in &keys {
            adjacent_starts.push(adjacent.len() as u32);
            for (column, cursor) in cursors.iter_mut().enumerate() {
                let (dx, dy) = (column as i64 / 5 - 2, column as i64 % 5 - 2);
                let (from, to) = (key + shift([dx, dy, -2]), key + shift([dx, dy, 2]));
                while *cursor < keys.len() && keys[*cursor] < from {
                    *cursor += 1;
                }
                let mut end = *cursor;
                while end < keys.len() && keys[end] <= to {
                    end += 1;
                }
                if *cursor < end {
                    adjacent.push(*cursor as u32..end as u32);
                }
            }
            if grid_cells < cells as usize {
                adjacent.push(grid_cells as u32..cells);
            }
        }
        for _ in grid_cells..cells as usize {
            adjacent_starts.push(adjacent.len() as u32);
            adjacent.push(0..cells);
        }
        adjacent_starts.push(adjacent.len() as u32);

        CellGrid {
            members,
            starts,
            cell_of,
            grid_cells,
            bounds,
            adjacent,
            adjacent_starts,
        }
    }

    /// Number of cells.
    pub(crate) fn cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` for a grid cell, where the shortcuts hold: its points
    /// are ε-neighbours of one another (themselves included).
    pub(crate) fn in_grid(&self, c: usize) -> bool {
        c < self.grid_cells
    }

    /// The points of cell `c`, ascending.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// A lower bound on `distance_sq` between any point of cell `a`
    /// and any point of cell `b`: the squared gap between their
    /// bounding boxes. Each term rounds no higher than the pair's own
    /// and is summed in the same order, so `gap_sq(a, b) > ε²` rules
    /// out every pair exactly.
    pub(crate) fn gap_sq(&self, a: usize, b: usize) -> f64 {
        let ((a_lo, a_hi), (b_lo, b_hi)) = (self.bounds[a], self.bounds[b]);
        let gap =
            |a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64| (b_lo - a_hi).max(a_lo - b_hi).max(0.0);
        let dx = gap(a_lo.x, a_hi.x, b_lo.x, b_hi.x);
        let dy = gap(a_lo.y, a_hi.y, b_lo.y, b_hi.y);
        let dz = gap(a_lo.z, a_hi.z, b_lo.z, b_hi.z);
        dx * dx + dy * dy + dz * dz
    }

    /// The cell of point `i`, or `None` for a point without ε-neighbours.
    pub(crate) fn cell_of(&self, i: usize) -> Option<usize> {
        let c = self.cell_of[i];
        (c != NO_CELL).then_some(c as usize)
    }

    /// Every cell that may hold an ε-neighbour of a point in cell `c`,
    /// `c` itself included, in ascending order.
    pub(crate) fn adjacent(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        let runs = self.adjacent_starts[c] as usize..self.adjacent_starts[c + 1] as usize;
        self.adjacent[runs]
            .iter()
            .flat_map(|run| run.start as usize..run.end as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force check of both geometric facts on `points`.
    fn assert_cell_facts(points: &[Point], eps: f64) {
        let grid = CellGrid::build(points, eps);
        let eps_sq = eps * eps;
        for (i, p) in points.iter().enumerate() {
            let Some(ci) = grid.cell_of(i) else {
                assert!(!points.iter().any(|q| q.distance_sq(p) <= eps_sq));
                continue;
            };
            let near: Vec<usize> = grid.adjacent(ci).collect();
            for (j, q) in points.iter().enumerate() {
                let within = p.distance_sq(q) <= eps_sq;
                match grid.cell_of(j) {
                    Some(cj) if cj == ci && grid.in_grid(ci) => {
                        assert!(within, "cell-mates {i} and {j} apart")
                    }
                    Some(cj) if within => assert!(near.contains(&cj), "{j} missed by {i}"),
                    None => assert!(!within),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn cells_are_sorted_flat_buckets() {
        let points = vec![
            Point::new(0.1, 0.1, 0.0),
            Point::new(10.0, 0.0, 0.0),
            Point::new(0.2, 0.2, 0.0),
        ];
        let grid = CellGrid::build(&points, 1.0);
        assert_eq!(grid.cells(), 2);
        assert_eq!(grid.members(0), &[0, 2]);
        assert_eq!(grid.members(1), &[1]);
        assert_eq!(grid.adjacent(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn facts_hold_on_pseudorandom_points() {
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 100.0 - 5.0
        };
        let points: Vec<Point> = (0..300)
            .map(|_| Point::new(next(), next(), next()))
            .collect();
        assert_cell_facts(&points, 0.8);
    }

    #[test]
    fn far_and_non_finite_points_leave_the_grid() {
        let points = vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(1e300, 0.0, 0.0),
            Point::new(1e300, 0.0, 0.0),
            Point::new(f64::NAN, 0.0, 0.0),
            Point::new(0.0, f64::INFINITY, 0.0),
        ];
        let grid = CellGrid::build(&points, 1.0);
        assert_eq!(grid.cells(), 3, "one grid cell, two far cells");
        assert_eq!(grid.cell_of(3), None);
        assert_eq!(grid.cell_of(4), None);
        assert_eq!(grid.adjacent(0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_cell_facts(&points, 1.0);
    }

    #[test]
    fn extreme_eps_sends_every_point_through_the_pairwise_path() {
        let points = vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(1e-170, 0.0, 0.0),
            Point::new(f64::INFINITY, 0.0, 0.0),
            Point::new(f64::NAN, 0.0, 0.0),
        ];
        // ε² underflows: the infinite point can have no neighbour.
        let grid = CellGrid::build(&points, 1e-200);
        assert_eq!((grid.cells(), grid.in_grid(0)), (2, false));
        assert_cell_facts(&points, 1e-200);
        // ε² overflows: ∞ − 0 passes `≤ ∞`, so only NaN is left out.
        let grid = CellGrid::build(&points, 1e200);
        assert_eq!((grid.cells(), grid.in_grid(0)), (3, false));
        assert_cell_facts(&points, 1e200);
    }
}
