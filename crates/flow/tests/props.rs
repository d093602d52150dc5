//! Property-based tests: the incremental cover engine against brute force
//! and against from-scratch recomputation under random mutation sequences.

use delta_flow::{brute_force_cover_weight, CoverGraph, FlowNetwork, QueryNode, UpdateNode};
use proptest::prelude::*;

/// A small random bipartite instance.
#[derive(Clone, Debug)]
struct Instance {
    u_weights: Vec<u64>,
    q_weights: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

fn arb_instance(max_side: usize, max_edges: usize) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(nu, nq)| {
        (
            proptest::collection::vec(1u64..100, nu),
            proptest::collection::vec(1u64..100, nq),
            proptest::collection::vec((0..nu, 0..nq), 0..=max_edges),
        )
            .prop_map(|(u_weights, q_weights, edges)| Instance {
                u_weights,
                q_weights,
                edges,
            })
    })
}

fn build(inst: &Instance) -> (CoverGraph, Vec<UpdateNode>, Vec<QueryNode>) {
    let mut g = CoverGraph::new();
    let us: Vec<_> = inst.u_weights.iter().map(|&w| g.add_update(w)).collect();
    let qs: Vec<_> = inst.q_weights.iter().map(|&w| g.add_query(w)).collect();
    for &(u, q) in &inst.edges {
        g.add_interaction(us[u], qs[q]);
    }
    (g, us, qs)
}

proptest! {
    /// Solver weight equals exhaustive minimum, and the returned sets
    /// really cover every edge.
    #[test]
    fn cover_is_optimal_and_valid(inst in arb_instance(7, 16)) {
        let (mut g, us, qs) = build(&inst);
        let c = g.solve();
        let brute = brute_force_cover_weight(&inst.u_weights, &inst.q_weights, &inst.edges);
        prop_assert_eq!(c.weight, brute);
        for &(u, q) in &inst.edges {
            prop_assert!(
                c.updates.contains(&us[u]) || c.queries.contains(&qs[q]),
                "edge uncovered"
            );
        }
        g.check().unwrap();
    }

    /// Adding nodes/edges one at a time and re-solving (incremental) ends
    /// at the same weight as solving the final graph fresh.
    #[test]
    fn incremental_equals_scratch(inst in arb_instance(8, 20)) {
        let mut g = CoverGraph::new();
        let us: Vec<_> = inst.u_weights.iter().map(|&w| g.add_update(w)).collect();
        let qs: Vec<_> = inst.q_weights.iter().map(|&w| g.add_query(w)).collect();
        for &(u, q) in &inst.edges {
            g.add_interaction(us[u], qs[q]);
            let _ = g.solve(); // solve after every mutation
        }
        let inc = g.solve().weight;
        let (mut fresh, _, _) = build(&inst);
        prop_assert_eq!(inc, fresh.solve().weight);
    }

    /// Random interleavings of removals keep the flow feasible and the
    /// cover equal to a fresh solve on the surviving subgraph.
    #[test]
    fn removals_match_fresh_subgraph(
        inst in arb_instance(8, 20),
        removals in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..8),
    ) {
        let (mut g, us, qs) = build(&inst);
        let _ = g.solve();
        let mut dead_u = vec![false; inst.u_weights.len()];
        let mut dead_q = vec![false; inst.q_weights.len()];
        for (is_u, idx) in removals {
            if is_u {
                if idx < us.len() {
                    g.remove_update(us[idx]);
                    dead_u[idx] = true;
                }
            } else if idx < qs.len() {
                g.remove_query(qs[idx]);
                dead_q[idx] = true;
            }
            g.check().unwrap();
        }
        let inc = g.solve().weight;

        // Fresh graph over survivors.
        let su: Vec<u64> = inst.u_weights.iter().enumerate()
            .filter(|&(i, _)| !dead_u[i]).map(|(_, &w)| w).collect();
        let sq: Vec<u64> = inst.q_weights.iter().enumerate()
            .filter(|&(i, _)| !dead_q[i]).map(|(_, &w)| w).collect();
        let remap_u: Vec<usize> = {
            let mut m = vec![usize::MAX; inst.u_weights.len()];
            let mut k = 0;
            for i in 0..inst.u_weights.len() {
                if !dead_u[i] { m[i] = k; k += 1; }
            }
            m
        };
        let remap_q: Vec<usize> = {
            let mut m = vec![usize::MAX; inst.q_weights.len()];
            let mut k = 0;
            for i in 0..inst.q_weights.len() {
                if !dead_q[i] { m[i] = k; k += 1; }
            }
            m
        };
        let sedges: Vec<(usize, usize)> = inst.edges.iter()
            .filter(|&&(u, q)| !dead_u[u] && !dead_q[q])
            .map(|&(u, q)| (remap_u[u], remap_q[q]))
            .collect();
        let brute = brute_force_cover_weight(&su, &sq, &sedges);
        prop_assert_eq!(inc, brute);
    }

    /// Raw max-flow: flow value is invariant to edge insertion order.
    #[test]
    fn flow_order_invariant(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..50), 1..24),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let edges: Vec<_> = edges.into_iter()
            .filter(|&(a, b, _)| a < n && b < n && a != b)
            .collect();
        let build_net = |order: &[(usize, usize, u64)]| {
            let mut g = FlowNetwork::new();
            for _ in 0..n {
                g.add_node();
            }
            for &(a, b, c) in order {
                g.add_edge(a, b, c);
            }
            g
        };
        let mut g1 = build_net(&edges);
        let f1 = g1.max_flow(0, n - 1);
        let mut shuffled = edges.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        let mut g2 = build_net(&shuffled);
        let f2 = g2.max_flow(0, n - 1);
        prop_assert_eq!(f1, f2);
        g1.check_conservation(0, n - 1).unwrap();
    }
}

proptest! {
    /// Dinic and Edmonds–Karp compute the same maximum flow on random
    /// bipartite cover networks (and on the raw networks they induce).
    #[test]
    fn dinic_equals_edmonds_karp(inst in arb_instance(8, 24)) {
        use delta_flow::dinic_max_flow;
        // Build the same source/update/query/sink network twice.
        let build_net = |inst: &Instance| {
            let mut net = FlowNetwork::new();
            let s = net.add_node();
            let t = net.add_node();
            let us: Vec<_> = inst.u_weights.iter().map(|&w| {
                let v = net.add_node();
                net.add_edge(s, v, w);
                v
            }).collect();
            let qs: Vec<_> = inst.q_weights.iter().map(|&w| {
                let v = net.add_node();
                net.add_edge(v, t, w);
                v
            }).collect();
            for &(u, q) in &inst.edges {
                net.add_edge(us[u], qs[q], delta_flow::INF);
            }
            (net, s, t)
        };
        let (mut ek_net, s, t) = build_net(&inst);
        let (mut di_net, ..) = build_net(&inst);
        let ek = ek_net.max_flow(s, t);
        let di = dinic_max_flow(&mut di_net, s, t);
        prop_assert_eq!(ek, di, "solver disagreement");
        prop_assert_eq!(di_net.flow_value(s), ek_net.flow_value(s));
    }

    /// Dinic run on a *partially* saturated network (some Edmonds–Karp
    /// augmentations already applied) still reaches the same maximum.
    #[test]
    fn dinic_tops_up_partial_flows(inst in arb_instance(8, 24), steps in 0usize..4) {
        use delta_flow::dinic_max_flow;
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let us: Vec<_> = inst.u_weights.iter().map(|&w| {
            let v = net.add_node();
            net.add_edge(s, v, w);
            v
        }).collect();
        let qs: Vec<_> = inst.q_weights.iter().map(|&w| {
            let v = net.add_node();
            net.add_edge(v, t, w);
            v
        }).collect();
        for &(u, q) in &inst.edges {
            net.add_edge(us[u], qs[q], delta_flow::INF);
        }
        let mut reference = net.clone();
        let want = reference.max_flow(s, t);
        let mut partial = 0u64;
        for _ in 0..steps {
            match net.augment_once(s, t) {
                Some(f) => partial += f,
                None => break,
            }
        }
        let rest = dinic_max_flow(&mut net, s, t);
        prop_assert_eq!(partial + rest, want);
    }
}

proptest! {
    /// The targeted membership probe agrees with the full extraction for
    /// every live query, across random mutation sequences that include
    /// removals and forced compactions. This is the fast path
    /// `UpdateManager::decide` actually takes; the full `solve()`
    /// survives only for tests and stats, so the two must never drift.
    #[test]
    fn membership_equals_full_solve(
        inst in arb_instance(8, 20),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 0..10),
        compact_at in 0usize..10,
    ) {
        let (mut g, us, qs) = build(&inst);
        for (i, &(is_u, idx)) in ops.iter().enumerate() {
            if is_u {
                if idx < us.len() && g.update_alive(us[idx]) {
                    g.remove_update(us[idx]);
                }
            } else if idx < qs.len() && g.query_alive(qs[idx]) {
                g.remove_query(qs[idx]);
            }
            if i == compact_at {
                g.compact();
            }
            // Interleave probes with mutations so scratch epochs from
            // a previous solve never leak into the next one.
            for &qn in &qs {
                if g.query_alive(qn) {
                    let member = g.solve_query_membership(qn);
                    let full = g.solve();
                    prop_assert_eq!(
                        member,
                        full.queries.contains(&qn),
                        "membership drifted from extraction"
                    );
                }
            }
        }
        g.compact();
        let cover = g.solve();
        for &qn in &qs {
            if g.query_alive(qn) {
                prop_assert_eq!(g.solve_query_membership(qn), cover.queries.contains(&qn));
            }
        }
        g.check().unwrap();
    }
}
