//! Incremental minimum-weight vertex cover on bipartite interaction graphs.
//!
//! Theorem 1 of the Delta paper: with the interaction graph known, the
//! optimal ship-query/ship-update choice is a minimum-weight vertex cover,
//! and because the graph is bipartite (edges only between update nodes and
//! query nodes) the cover is computable in polynomial time by reduction to
//! maximum network flow (Hochbaum's construction):
//!
//! ```text
//!   source s --w(u)--> each update node u --INF--> query node q --w(q)--> sink t
//! ```
//!
//! After computing max flow, let `R` be the nodes reachable from `s` in the
//! residual graph. The cover is `{u ∉ R} ∪ {q ∈ R}`, and its weight equals
//! the flow value (min cut).
//!
//! [`CoverGraph`] maintains this network **incrementally**: nodes and edges
//! are added as events arrive, covers are re-solved by continuing from the
//! previous flow, and nodes leave (updates shipped, queries answered,
//! objects evicted) via closed-form flow cancellation that keeps the
//! retained flow feasible — precisely the remainder-subgraph technique of
//! §4 of the paper.
//!
//! ## The membership fast path
//!
//! The online decision loop never needs the whole cover: it asks one
//! question per arriving query — *is this query node in the cover?* —
//! and already knows, from its own bookkeeping, which update ranges to
//! ship when the answer is no. [`CoverGraph::solve_query_membership`]
//! answers exactly that: augment the flow to maximality (incrementally),
//! then run an **early-exit** residual BFS from `s` that stops the moment
//! the query node is discovered. No reachability vector, no `HashSet`
//! materialization, no allocation at all. The full
//! [`CoverGraph::solve`] survives for tests, stats, and offline planning.
//!
//! This is sound because the residual-reachable set of *any* maximum flow
//! is the same canonical set (the minimal source-side min cut): whichever
//! augmenting order produced maximality, membership answers are
//! identical.

use crate::dinic::{dinic_max_flow_with, DinicScratch};
use crate::graph::{EdgeId, FlowNetwork, NodeId, INF};
use std::collections::HashSet;

/// Handle to an update node in a [`CoverGraph`]. Stable across compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateNode(pub usize);

/// Handle to a query node in a [`CoverGraph`]. Stable across compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryNode(pub usize);

/// Edmonds–Karp augmentations [`CoverGraph`] attempts on each solve
/// before handing the rest to Dinic.
const HYBRID_EK_BUDGET: usize = 8;

/// Pooled edge-list Vecs retained for reuse (beyond this, capacity is
/// returned to the allocator).
const MAX_POOLED_EDGE_LISTS: usize = 256;

#[derive(Clone, Debug)]
struct UEntry {
    node: NodeId,
    s_edge: EdgeId,
    weight: u64,
    /// Live interaction edges, paired with the query handle.
    edges: Vec<(EdgeId, QueryNode)>,
    /// Count of `edges` whose query endpoint is still alive, maintained
    /// eagerly so degree queries are O(1).
    live_deg: usize,
    alive: bool,
}

#[derive(Clone, Debug)]
struct QEntry {
    node: NodeId,
    t_edge: EdgeId,
    weight: u64,
    edges: Vec<(EdgeId, UpdateNode)>,
    live_deg: usize,
    alive: bool,
}

/// The result of a cover computation.
#[derive(Clone, Debug, Default)]
pub struct Cover {
    /// Total weight of the cover == max-flow value == minimal shipping cost.
    pub weight: u64,
    /// Update nodes in the cover (their updates should be shipped).
    pub updates: HashSet<UpdateNode>,
    /// Query nodes in the cover (these queries should be shipped).
    pub queries: HashSet<QueryNode>,
}

/// An incrementally-maintained bipartite weighted graph with min-weight
/// vertex cover queries.
#[derive(Clone, Debug)]
pub struct CoverGraph {
    net: FlowNetwork,
    s: NodeId,
    t: NodeId,
    us: Vec<UEntry>,
    qs: Vec<QEntry>,
    live_u: usize,
    live_q: usize,
    /// Live interaction edges (both endpoints alive).
    live_edges: usize,
    removed_nodes: usize,
    dinic: DinicScratch,
    /// Recycled `UEntry::edges` / `QEntry::edges` Vecs from removed
    /// nodes, reused by `add_update` / `add_query`.
    u_edge_pool: Vec<Vec<(EdgeId, QueryNode)>>,
    q_edge_pool: Vec<Vec<(EdgeId, UpdateNode)>>,
    /// Compaction scratch: `(u index, q index, carried flow)` per
    /// surviving interaction edge.
    rewires: Vec<(usize, usize, u64)>,
    /// Compaction scratch: old update index -> rebuilt NodeId.
    unode_scratch: Vec<NodeId>,
}

impl Default for CoverGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverGraph {
    /// Creates an empty cover graph.
    pub fn new() -> Self {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        Self {
            net,
            s,
            t,
            us: Vec::new(),
            qs: Vec::new(),
            live_u: 0,
            live_q: 0,
            live_edges: 0,
            removed_nodes: 0,
            dinic: DinicScratch::default(),
            u_edge_pool: Vec::new(),
            q_edge_pool: Vec::new(),
            rewires: Vec::new(),
            unode_scratch: Vec::new(),
        }
    }

    /// Adds an update node with shipping cost `weight`.
    pub fn add_update(&mut self, weight: u64) -> UpdateNode {
        let node = self.net.add_node();
        let s_edge = self.net.add_edge(self.s, node, weight);
        self.us.push(UEntry {
            node,
            s_edge,
            weight,
            edges: self.u_edge_pool.pop().unwrap_or_default(),
            live_deg: 0,
            alive: true,
        });
        self.live_u += 1;
        UpdateNode(self.us.len() - 1)
    }

    /// Adds a query node with shipping cost `weight`.
    pub fn add_query(&mut self, weight: u64) -> QueryNode {
        let node = self.net.add_node();
        let t_edge = self.net.add_edge(node, self.t, weight);
        self.qs.push(QEntry {
            node,
            t_edge,
            weight,
            edges: self.q_edge_pool.pop().unwrap_or_default(),
            live_deg: 0,
            alive: true,
        });
        self.live_q += 1;
        QueryNode(self.qs.len() - 1)
    }

    /// Adds an interaction edge: query `q`'s currency requirement depends on
    /// update `u`.
    ///
    /// # Panics
    /// Panics if either endpoint has been removed.
    pub fn add_interaction(&mut self, u: UpdateNode, q: QueryNode) {
        assert!(self.us[u.0].alive, "update node removed");
        assert!(self.qs[q.0].alive, "query node removed");
        let e = self.net.add_edge(self.us[u.0].node, self.qs[q.0].node, INF);
        self.us[u.0].edges.push((e, q));
        self.us[u.0].live_deg += 1;
        self.qs[q.0].edges.push((e, u));
        self.qs[q.0].live_deg += 1;
        self.live_edges += 1;
    }

    /// Shipping cost of an update node.
    pub fn update_weight(&self, u: UpdateNode) -> u64 {
        self.us[u.0].weight
    }

    /// Shipping cost of a query node.
    pub fn query_weight(&self, q: QueryNode) -> u64 {
        self.qs[q.0].weight
    }

    /// Whether the update node is still in the graph.
    pub fn update_alive(&self, u: UpdateNode) -> bool {
        self.us[u.0].alive
    }

    /// Whether the query node is still in the graph.
    pub fn query_alive(&self, q: QueryNode) -> bool {
        self.qs[q.0].alive
    }

    /// Number of live edges incident to `u` (edges to removed queries don't
    /// count). O(1): maintained eagerly on edge and node mutations.
    pub fn update_degree(&self, u: UpdateNode) -> usize {
        debug_assert_eq!(
            self.us[u.0].live_deg,
            self.us[u.0]
                .edges
                .iter()
                .filter(|(_, q)| self.qs[q.0].alive)
                .count(),
            "update live-degree counter out of sync"
        );
        self.us[u.0].live_deg
    }

    /// Number of live edges incident to `q`. O(1).
    pub fn query_degree(&self, q: QueryNode) -> usize {
        debug_assert_eq!(
            self.qs[q.0].live_deg,
            self.qs[q.0]
                .edges
                .iter()
                .filter(|(_, u)| self.us[u.0].alive)
                .count(),
            "query live-degree counter out of sync"
        );
        self.qs[q.0].live_deg
    }

    /// Live update-node count.
    pub fn live_updates(&self) -> usize {
        self.live_u
    }

    /// Live query-node count.
    pub fn live_queries(&self) -> usize {
        self.live_q
    }

    /// Live interaction-edge count (both endpoints alive).
    pub fn live_interactions(&self) -> usize {
        self.live_edges
    }

    /// Removes an update node (it was shipped, or its object was evicted),
    /// cancelling any flow routed through it so the remaining flow stays
    /// feasible.
    pub fn remove_update(&mut self, u: UpdateNode) {
        if !self.us[u.0].alive {
            return;
        }
        let node = self.us[u.0].node;
        let s_edge = self.us[u.0].s_edge;
        // Cancel flow on each interaction edge and the matching q->t edge.
        // The entry is dead after this call and its edge list is never
        // read again, so move it out instead of cloning it.
        let mut edges = std::mem::take(&mut self.us[u.0].edges);
        for &(e, q) in &edges {
            let qe = &mut self.qs[q.0];
            if qe.alive {
                qe.live_deg -= 1;
                self.live_edges -= 1;
            }
            let f = self.net.flow_on(e) as i64;
            if f > 0 {
                self.net.force_flow(e, -f);
                self.net.force_flow(self.qs[q.0].t_edge, -f);
            }
        }
        if self.u_edge_pool.len() < MAX_POOLED_EDGE_LISTS {
            edges.clear();
            self.u_edge_pool.push(edges);
        }
        let f_su = self.net.flow_on(s_edge) as i64;
        if f_su > 0 {
            self.net.force_flow(s_edge, -f_su);
        }
        self.net.delete_node(node);
        self.us[u.0].alive = false;
        self.us[u.0].live_deg = 0;
        self.live_u -= 1;
        self.removed_nodes += 1;
        self.maybe_compact();
    }

    /// Removes a query node (it was answered at the cache or shipped and its
    /// retention is no longer needed), cancelling flow through it.
    pub fn remove_query(&mut self, q: QueryNode) {
        if !self.qs[q.0].alive {
            return;
        }
        let node = self.qs[q.0].node;
        let t_edge = self.qs[q.0].t_edge;
        let mut edges = std::mem::take(&mut self.qs[q.0].edges);
        for &(e, u) in &edges {
            let ue = &mut self.us[u.0];
            if ue.alive {
                ue.live_deg -= 1;
                self.live_edges -= 1;
            }
            let f = self.net.flow_on(e) as i64;
            if f > 0 {
                self.net.force_flow(e, -f);
                self.net.force_flow(self.us[u.0].s_edge, -f);
            }
        }
        if self.q_edge_pool.len() < MAX_POOLED_EDGE_LISTS {
            edges.clear();
            self.q_edge_pool.push(edges);
        }
        let f_qt = self.net.flow_on(t_edge) as i64;
        if f_qt > 0 {
            self.net.force_flow(t_edge, -f_qt);
        }
        self.net.delete_node(node);
        self.qs[q.0].alive = false;
        self.qs[q.0].live_deg = 0;
        self.live_q -= 1;
        self.removed_nodes += 1;
        self.maybe_compact();
    }

    /// Pushes the current (feasible) flow to maximality — the
    /// incremental step of §4. A bounded burst of Edmonds–Karp
    /// augmentations covers the common incremental case (zero or one
    /// path) at one BFS each; a larger residual demand, e.g. right after
    /// a mass removal rewired lots of flow, falls through to Dinic's
    /// blocking flow. The cover is the same whichever augmenting order
    /// reaches maximality.
    fn maximize_flow(&mut self) {
        for _ in 0..HYBRID_EK_BUDGET {
            if self.net.augment_once(self.s, self.t).is_none() {
                return;
            }
        }
        dinic_max_flow_with(&mut self.net, self.s, self.t, &mut self.dinic);
    }

    /// Answers the one question the online decision loop needs: after
    /// re-solving incrementally, is query `q` in the minimum-weight cover
    /// (i.e. should it be shipped)? Allocation-free; early-exits the
    /// residual BFS the moment `q`'s node settles. Equivalent to
    /// `self.solve().queries.contains(&q)` (pinned by proptests).
    ///
    /// # Panics
    /// Panics if `q` has been removed.
    pub fn solve_query_membership(&mut self, q: QueryNode) -> bool {
        assert!(self.qs[q.0].alive, "query node removed");
        self.maximize_flow();
        let node = self.qs[q.0].node;
        self.net.residual_reaches(self.s, node)
    }

    /// Solves for the current minimum-weight vertex cover, continuing from
    /// the previous flow (the incremental step of §4). Materializes the
    /// full cover — tests, stats, and offline planning; the online hot
    /// path uses [`Self::solve_query_membership`].
    pub fn solve(&mut self) -> Cover {
        self.maximize_flow();
        self.net.mark_residual_reachable(self.s);
        let mut cover = Cover {
            weight: self.net.flow_value(self.s),
            ..Default::default()
        };
        for (i, u) in self.us.iter().enumerate() {
            if u.alive && !self.net.reached(u.node) {
                cover.updates.insert(UpdateNode(i));
            }
        }
        for (i, q) in self.qs.iter().enumerate() {
            if q.alive && self.net.reached(q.node) {
                cover.queries.insert(QueryNode(i));
            }
        }
        debug_assert_eq!(
            cover.weight,
            cover
                .updates
                .iter()
                .map(|&u| self.us[u.0].weight)
                .chain(cover.queries.iter().map(|&q| self.qs[q.0].weight))
                .sum::<u64>(),
            "cover weight must equal max-flow value"
        );
        cover
    }

    /// Rebuilds the underlying network without deleted nodes when bloat
    /// passes a threshold, carrying over the feasible flow. External handles
    /// remain valid.
    fn maybe_compact(&mut self) {
        let live = self.live_u + self.live_q + 2;
        if self.removed_nodes < 64 || self.removed_nodes < live * 4 {
            return;
        }
        self.compact();
    }

    /// Forces a compaction (normally triggered automatically).
    pub fn compact(&mut self) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        // Recreate live nodes and carry flows across.
        let mut new_unode = std::mem::take(&mut self.unode_scratch);
        new_unode.clear();
        new_unode.resize(self.us.len(), usize::MAX);
        for (i, u) in self.us.iter_mut().enumerate() {
            if !u.alive {
                continue;
            }
            let node = net.add_node();
            let old_flow = self.net.flow_on(u.s_edge);
            let s_edge = net.add_edge(s, node, u.weight);
            net.force_flow(s_edge, old_flow as i64);
            new_unode[i] = node;
            u.node = node;
            u.s_edge = s_edge;
        }
        for q in self.qs.iter_mut() {
            if !q.alive {
                continue;
            }
            let node = net.add_node();
            let old_flow = self.net.flow_on(q.t_edge);
            let t_edge = net.add_edge(node, t, q.weight);
            net.force_flow(t_edge, old_flow as i64);
            q.node = node;
            q.t_edge = t_edge;
        }
        // Interaction edges (only between live endpoints).
        let mut rewires = std::mem::take(&mut self.rewires);
        rewires.clear();
        for (qi, q) in self.qs.iter().enumerate() {
            if !q.alive {
                continue;
            }
            for &(e, u) in &q.edges {
                if self.us[u.0].alive {
                    rewires.push((u.0, qi, self.net.flow_on(e)));
                }
            }
        }
        for q in self.qs.iter_mut() {
            q.edges.clear();
        }
        for u in self.us.iter_mut() {
            u.edges.clear();
        }
        for &(ui, qi, flow) in &rewires {
            let e = net.add_edge(new_unode[ui], self.qs[qi].node, INF);
            net.force_flow(e, flow as i64);
            self.us[ui].edges.push((e, QueryNode(qi)));
            self.qs[qi].edges.push((e, UpdateNode(ui)));
        }
        rewires.clear();
        self.rewires = rewires;
        new_unode.clear();
        self.unode_scratch = new_unode;
        // The rebuilt network starts with cold scratch buffers; inherit
        // the old ones so post-compaction solves stay allocation-free.
        net.adopt_scratch(&mut self.net);
        self.net = net;
        self.s = s;
        self.t = t;
        self.removed_nodes = 0;
        debug_assert!(self.net.check_conservation(self.s, self.t).is_ok());
    }

    /// Sanity check: the flow is conserved. For tests.
    pub fn check(&self) -> Result<(), String> {
        self.net.check_conservation(self.s, self.t)
    }
}

/// Exhaustive minimum-weight vertex cover for tiny bipartite graphs
/// (`|U| <= 20`). Reference implementation for tests and benchmarks.
///
/// `edges` lists `(u_index, q_index)` pairs.
pub fn brute_force_cover_weight(
    u_weights: &[u64],
    q_weights: &[u64],
    edges: &[(usize, usize)],
) -> u64 {
    assert!(
        u_weights.len() <= 20,
        "brute force limited to 20 update nodes"
    );
    let mut best = u64::MAX;
    for mask in 0u32..(1 << u_weights.len()) {
        let mut w: u64 = 0;
        for (i, &uw) in u_weights.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += uw;
            }
        }
        // Every query with an edge from an unchosen u must join the cover.
        let mut q_in = vec![false; q_weights.len()];
        for &(u, q) in edges {
            if mask & (1 << u) == 0 {
                q_in[q] = true;
            }
        }
        for (q, &inc) in q_in.iter().enumerate() {
            if inc {
                w += q_weights[q];
            }
        }
        best = best.min(w);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_zero_cover() {
        let mut g = CoverGraph::new();
        let c = g.solve();
        assert_eq!(c.weight, 0);
        assert!(c.updates.is_empty() && c.queries.is_empty());
    }

    #[test]
    fn isolated_nodes_never_in_cover() {
        let mut g = CoverGraph::new();
        g.add_update(10);
        g.add_query(20);
        let c = g.solve();
        assert_eq!(c.weight, 0);
        assert!(c.updates.is_empty() && c.queries.is_empty());
    }

    #[test]
    fn single_edge_picks_cheaper_side() {
        let mut g = CoverGraph::new();
        let u = g.add_update(3);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let c = g.solve();
        assert_eq!(c.weight, 3);
        assert!(c.updates.contains(&u));
        assert!(!c.queries.contains(&q));
        assert!(!g.solve_query_membership(q));
    }

    #[test]
    fn expensive_update_ships_query() {
        let mut g = CoverGraph::new();
        let u = g.add_update(50);
        let q = g.add_query(10);
        g.add_interaction(u, q);
        let c = g.solve();
        assert_eq!(c.weight, 10);
        assert!(c.queries.contains(&q));
        assert!(g.solve_query_membership(q));
    }

    #[test]
    fn membership_matches_solve() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(5);
        let u2 = g.add_update(40);
        let q1 = g.add_query(4);
        let q2 = g.add_query(100);
        g.add_interaction(u1, q1);
        g.add_interaction(u1, q2);
        g.add_interaction(u2, q2);
        let m1 = g.solve_query_membership(q1);
        let m2 = g.solve_query_membership(q2);
        let c = g.solve();
        assert_eq!(m1, c.queries.contains(&q1), "q1");
        assert_eq!(m2, c.queries.contains(&q2), "q2");
    }

    #[test]
    fn star_updates_shared_by_queries() {
        // One cheap update interacting with three expensive queries:
        // ship the update once instead of three queries.
        let mut g = CoverGraph::new();
        let u = g.add_update(5);
        for _ in 0..3 {
            let q = g.add_query(4);
            g.add_interaction(u, q);
        }
        let c = g.solve();
        assert_eq!(c.weight, 5);
        assert_eq!(c.updates.len(), 1);
    }

    #[test]
    fn paper_example_fig2_internal_graph() {
        // The internal interaction subgraph of Fig. 2: u1(1GB), u6(2GB)
        // both interact with q7(5GB). Shipping both updates (3GB) beats
        // shipping the query (5GB).
        let mut g = CoverGraph::new();
        let u1 = g.add_update(1);
        let u6 = g.add_update(2);
        let q7 = g.add_query(5);
        g.add_interaction(u1, q7);
        g.add_interaction(u6, q7);
        let c = g.solve();
        assert_eq!(c.weight, 3);
        assert!(c.updates.contains(&u1) && c.updates.contains(&u6));
        assert!(!c.queries.contains(&q7));
        assert!(!g.solve_query_membership(q7));
    }

    #[test]
    fn cover_covers_every_edge() {
        let mut g = CoverGraph::new();
        let us: Vec<_> = [7u64, 3, 9, 2].iter().map(|&w| g.add_update(w)).collect();
        let qs: Vec<_> = [5u64, 6, 1].iter().map(|&w| g.add_query(w)).collect();
        let edges = [(0, 0), (0, 1), (1, 1), (2, 2), (3, 0), (3, 2)];
        for &(u, q) in &edges {
            g.add_interaction(us[u], qs[q]);
        }
        let c = g.solve();
        for &(u, q) in &edges {
            assert!(
                c.updates.contains(&us[u]) || c.queries.contains(&qs[q]),
                "edge ({u},{q}) uncovered"
            );
        }
        let brute = brute_force_cover_weight(&[7, 3, 9, 2], &[5, 6, 1], &edges);
        assert_eq!(c.weight, brute);
    }

    #[test]
    fn incremental_additions_match_fresh_solve() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(4);
        let q1 = g.add_query(3);
        g.add_interaction(u1, q1);
        let w1 = g.solve().weight;
        assert_eq!(w1, 3);
        // New query raises the stakes for u1.
        let q2 = g.add_query(6);
        g.add_interaction(u1, q2);
        let c = g.solve();
        // Now shipping u1 (4) beats q1+q2 (9).
        assert_eq!(c.weight, 4);
        g.check().unwrap();
    }

    #[test]
    fn removal_cancels_flow_and_stays_feasible() {
        let mut g = CoverGraph::new();
        let u1 = g.add_update(2);
        let u2 = g.add_update(3);
        let q1 = g.add_query(4);
        let q2 = g.add_query(2);
        g.add_interaction(u1, q1);
        g.add_interaction(u2, q1);
        g.add_interaction(u2, q2);
        let _ = g.solve();
        g.remove_update(u2);
        g.check().unwrap();
        let c = g.solve();
        // Remaining graph: u1(2) -- q1(4): ship u1.
        assert_eq!(c.weight, 2);
        assert!(c.updates.contains(&u1));
        // Removing again is a no-op.
        g.remove_update(u2);
        g.check().unwrap();
    }

    #[test]
    fn remove_query_then_resolve() {
        let mut g = CoverGraph::new();
        let u = g.add_update(5);
        let q1 = g.add_query(3);
        let q2 = g.add_query(3);
        g.add_interaction(u, q1);
        g.add_interaction(u, q2);
        assert_eq!(g.solve().weight, 5); // ship u (5) vs q1+q2 (6)
        g.remove_query(q1);
        let c = g.solve();
        assert_eq!(c.weight, 3); // now just q2 vs u: ship q2
        assert!(c.queries.contains(&q2));
        g.check().unwrap();
    }

    #[test]
    fn degrees_track_liveness() {
        let mut g = CoverGraph::new();
        let u = g.add_update(1);
        let q1 = g.add_query(1);
        let q2 = g.add_query(1);
        g.add_interaction(u, q1);
        g.add_interaction(u, q2);
        assert_eq!(g.update_degree(u), 2);
        assert_eq!(g.live_interactions(), 2);
        g.remove_query(q1);
        assert_eq!(g.update_degree(u), 1);
        assert_eq!(g.query_degree(q2), 1);
        assert_eq!(g.live_interactions(), 1);
        g.remove_update(u);
        assert_eq!(g.query_degree(q2), 0);
        assert_eq!(g.live_interactions(), 0);
    }

    #[test]
    fn compaction_preserves_solution() {
        let mut g = CoverGraph::new();
        // Build, solve, remove many nodes to trigger compaction, and check
        // the survivors still solve correctly.
        let mut kept = Vec::new();
        for i in 0..200 {
            let u = g.add_update(2 + (i % 5) as u64);
            let q = g.add_query(1 + (i % 7) as u64);
            g.add_interaction(u, q);
            if i % 10 == 0 {
                kept.push((u, q));
            }
        }
        let _ = g.solve();
        for i in 0..200 {
            if i % 10 != 0 {
                g.remove_update(UpdateNode(i));
                g.remove_query(QueryNode(i));
            }
        }
        g.compact();
        g.check().unwrap();
        let c = g.solve();
        // Each surviving pair contributes min(w_u, w_q).
        let expect: u64 = kept
            .iter()
            .map(|&(u, q)| g.update_weight(u).min(g.query_weight(q)))
            .sum();
        assert_eq!(c.weight, expect);
        // Degree counters survive compaction.
        for &(u, q) in &kept {
            assert_eq!(g.update_degree(u), 1);
            assert_eq!(g.query_degree(q), 1);
        }
    }

    #[test]
    fn brute_force_sanity() {
        assert_eq!(brute_force_cover_weight(&[3], &[10], &[(0, 0)]), 3);
        assert_eq!(brute_force_cover_weight(&[10], &[3], &[(0, 0)]), 3);
        assert_eq!(brute_force_cover_weight(&[], &[], &[]), 0);
    }
}
