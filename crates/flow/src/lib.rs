//! # delta-flow — max-flow and vertex-cover engine
//!
//! The combinatorial core of Delta's `UpdateManager` (paper §3.1/§4):
//!
//! * [`FlowNetwork`] — adjacency-list flow network with **incremental**
//!   Edmonds–Karp: `max_flow` continues from whatever feasible flow is
//!   present, so re-solving after graph growth costs only the new
//!   augmenting paths (the `O(nm²)` total-work bound of §4 versus
//!   `O(n²m²)` for repeated from-scratch runs).
//! * [`dinic_max_flow`] — Dinic's blocking-flow algorithm over the same
//!   network, cross-checked against Edmonds–Karp and raced in the
//!   benches (the standard faster-from-scratch alternative).
//! * [`CoverGraph`] — the bipartite update/query interaction graph with
//!   minimum-weight vertex cover via the max-flow reduction, node removal
//!   with closed-form flow cancellation (the paper's *remainder subgraph*),
//!   and automatic compaction.
//!
//! ```
//! use delta_flow::CoverGraph;
//!
//! let mut g = CoverGraph::new();
//! let u = g.add_update(3);   // shipping this update costs 3 units
//! let q = g.add_query(10);   // shipping this query costs 10 units
//! g.add_interaction(u, q);   // q needs u's data to be current
//! let cover = g.solve();
//! assert_eq!(cover.weight, 3);           // cheaper to ship the update
//! assert!(cover.updates.contains(&u));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cover;
pub mod dinic;
pub mod graph;

pub use cover::{brute_force_cover_weight, Cover, CoverGraph, QueryNode, UpdateNode};
pub use dinic::{dinic_max_flow, dinic_max_flow_with, DinicScratch};
pub use graph::{Edge, EdgeId, FlowNetwork, NodeId, INF};
