//! # webstruct-graph
//!
//! The connectivity analyses of §5 of *An Analysis of Structured Data on
//! the Web*:
//!
//! * [`bipartite`] — the entity–site graph in CSR form;
//! * [`components`] — union–find connected components (Table 2 columns);
//! * [`diameter`] — exact diameters via iFUB + double-sweep bounds
//!   (Table 2's diameter column and the d/2 crawler-iteration bound);
//! * [`robustness`] — largest-component survival after removing the top-k
//!   sites (Figure 9);
//! * [`metrics`] — degree distributions and sampled average distances.

//!
//! ## Example
//!
//! ```
//! use webstruct_graph::{component_stats, ifub_diameter, BipartiteGraph};
//! use webstruct_util::EntityId;
//!
//! let sites = vec![vec![EntityId::new(0), EntityId::new(1)], vec![EntityId::new(1)]];
//! let graph = BipartiteGraph::from_occurrences(2, &sites).unwrap();
//! assert_eq!(component_stats(&graph, &[]).n_components, 1);
//! assert!(ifub_diameter(&graph, 1000).exact);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accumulate;
pub mod bipartite;
pub mod components;
pub mod diameter;
#[cfg(test)]
mod fixtures;
pub mod metrics;
pub mod robustness;

pub use accumulate::GraphAccumulator;
pub use bipartite::{BipartiteGraph, GraphError};
pub use components::{component_stats, ComponentStats, UnionFind};
pub use diameter::{double_sweep, eccentricity, ifub_diameter, Diameter};
pub use metrics::{entity_degrees, sampled_avg_entity_distance, site_degrees, DegreeStats};
pub use robustness::{random_removal_sweep, robustness_series, robustness_sweep, RobustnessPoint};
