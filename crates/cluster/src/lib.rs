//! `strata-cluster` — clustering algorithms for AM defect detection.
//!
//! The STRATA use-case (paper §5) clusters specimen portions melted
//! with too-low or too-high thermal energy, *within and across
//! layers*, and reports clusters bigger than a volume threshold. The
//! paper chooses **DBSCAN** (Ester et al., KDD'96) over the k-means
//! of earlier defect-detection work because the number of clusters is
//! unknown in advance and defects have arbitrary shapes.
//!
//! This crate provides:
//!
//! * [`dbscan()`] — exact cell-based DBSCAN over 3-D points: points
//!   are bucketed into a sorted, flat array of cells of edge just
//!   under ε/2, a full cell is all core, and clusters are union-find
//!   components of core cells (Gan & Tao, SIGMOD 2015). Its labels
//!   equal the naive oracle's: ids in order of each cluster's lowest
//!   core point index, border points to the lowest adjacent cluster
//!   id, non-finite points noise;
//! * [`naive`] — the textbook O(n²) seed-order DBSCAN, kept as the
//!   correctness oracle for property tests and as the ablation
//!   baseline;
//! * [`kmeans()`] — k-means++ (the paper's comparator from prior work
//!   on pore classification);
//! * [`layered`] — incremental cross-layer clustering over a sliding
//!   window of the most recent `L` layers, with stable cluster
//!   identities across window slides (the engine behind STRATA's
//!   `correlateEvents`);
//! * [`quality`] — silhouette and Davies–Bouldin metrics making the
//!   DBSCAN-vs-k-means accuracy comparison quantitative.
//!
//! # Example
//!
//! ```
//! use strata_cluster::{dbscan, DbscanParams, Point};
//!
//! let points = vec![
//!     Point::new(0.0, 0.0, 0.0),
//!     Point::new(0.5, 0.0, 0.0),
//!     Point::new(0.0, 0.5, 0.0),
//!     Point::new(100.0, 100.0, 0.0), // isolated → noise
//! ];
//! let labels = dbscan(&points, &DbscanParams::new(1.0, 3)?);
//! assert_eq!(labels[0], labels[1]);
//! assert!(labels[3].is_noise());
//! # Ok::<(), strata_cluster::Error>(())
//! ```

pub mod dbscan;
pub mod error;
mod grid;
pub mod kmeans;
pub mod layered;
pub mod naive;
pub mod point;
pub mod quality;
pub mod summary;

pub use dbscan::{dbscan, DbscanParams, Label};
pub use error::{Error, Result};
pub use kmeans::{kmeans, KmeansParams, KmeansResult};
pub use layered::{LayeredClusterer, LayeredParams};
pub use point::Point;
pub use quality::{davies_bouldin, silhouette};
pub use summary::ClusterSummary;
