//! Heterogeneous graph substrate for the MetaNMP reproduction.
//!
//! This crate provides everything the rest of the workspace builds on:
//!
//! * typed graph storage with the paper's §4.1 *optimized layout*
//!   (per-relation CSRs so a vertex's neighbors of each type are a
//!   contiguous slice) — [`HeteroGraph`] / [`HeteroGraphBuilder`];
//! * [`Metapath`] parsing and validation;
//! * the baseline *materialize-everything* instance pipeline and exact
//!   closed-form instance counting — [`instances`];
//! * on-the-fly instance generation via cartesian-like products and the
//!   prefix-tree dependency walk that exposes shareable aggregation —
//!   [`cartesian`];
//! * seeded synthetic versions of the paper's five datasets
//!   ([Table 3]) — [`datasets`];
//! * batch graph updates for the dynamic-inference workload —
//!   [`update`].
//!
//! [Table 3]: datasets
//!
//! # Example
//!
//! Count the A-B-A instances of the paper's Figure 6 example graph and
//! verify the cartesian-like product finds the same 14 instances the
//! figure lists:
//!
//! ```
//! use hetgraph::{GraphSchema, HeteroGraphBuilder, Metapath, Vertex, VertexId};
//! use hetgraph::instances::count_instances;
//! use hetgraph::cartesian::{center_products, CenterProduct};
//!
//! let mut schema = GraphSchema::new();
//! let a = schema.add_vertex_type("A", 'A', 4);
//! let b = schema.add_vertex_type("B", 'B', 4);
//! schema.add_relation(a, b);
//!
//! let mut builder = HeteroGraphBuilder::new(schema);
//! builder.set_vertex_count(a, 3);
//! builder.set_vertex_count(b, 3);
//! for (x, y) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)] {
//!     builder.add_edge(
//!         Vertex::new(a, VertexId::new(x)),
//!         Vertex::new(b, VertexId::new(y)),
//!     )?;
//! }
//! let graph = builder.finish();
//! let metapath = Metapath::parse("ABA", graph.schema())?;
//!
//! assert_eq!(count_instances(&graph, &metapath)?, 14);
//! let via_products: usize = center_products(&graph, &metapath)?
//!     .iter()
//!     .map(CenterProduct::instance_count)
//!     .sum();
//! assert_eq!(via_products, 14);
//! # Ok::<(), hetgraph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cartesian;
pub mod csr;
pub mod datasets;
mod error;
mod graph;
pub mod instances;
mod metapath;
mod schema;
pub mod stats;
mod types;
pub mod update;

pub use error::GraphError;
pub use graph::{HeteroGraph, HeteroGraphBuilder};
pub use metapath::Metapath;
pub use schema::{GraphSchema, VertexTypeDecl};
pub use types::{EdgeTypeId, Relation, Vertex, VertexId, VertexTypeId};
