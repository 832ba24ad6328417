//! Graph substrate for SMASH.
//!
//! This crate provides the graph machinery the SMASH paper relies on:
//!
//! * [`Graph`] — a weighted, undirected graph with compact `u32` node ids,
//!   built through [`GraphBuilder`].
//! * [`louvain`] — the Louvain community-detection algorithm
//!   (Blondel et al., *Fast unfolding of communities in large networks*,
//!   J. Stat. Mech. 2008), which the paper uses to extract Associated
//!   Server Herds (ASHs) from per-dimension similarity graphs.
//! * [`mod@modularity`] — the quality measure optimized by Louvain.
//! * [`components`] — connected components via [`UnionFind`].
//!
//! # Example
//!
//! ```
//! use smash_graph::{GraphBuilder, louvain::Louvain};
//!
//! let mut b = GraphBuilder::new();
//! // two triangles joined by a weak bridge
//! for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     b.add_edge(u, v, 1.0);
//! }
//! b.add_edge(2, 3, 0.01);
//! let g = b.build();
//! let partition = Louvain::new().run(&g);
//! assert_eq!(partition.community_of(0), partition.community_of(1));
//! assert_ne!(partition.community_of(0), partition.community_of(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod dot;
pub mod graph;
pub mod louvain;
pub mod metrics;
pub mod modularity;
pub mod partition;
pub mod union_find;

pub use components::connected_components;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use louvain::{Louvain, LouvainStats};
pub use metrics::density;
pub use modularity::modularity;
pub use partition::Partition;
pub use union_find::UnionFind;
