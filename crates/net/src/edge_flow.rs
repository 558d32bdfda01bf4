//! Path-free Wardrop instances for the implicit-path backend.
//!
//! An [`EdgeInstance`] carries the same data as an
//! [`Instance`] — graph, per-edge latency
//! functions, commodities — but performs **no path enumeration**: its
//! memory footprint is `O(V + E + k)` regardless of how many simple
//! source–sink paths the network admits. grid_14x14 has 364 edges but
//! 10,400,600 paths; the enumerated constructor cannot even allocate
//! its CSR arena, while the edge instance is a few kilobytes.
//!
//! The implicit-path engine (`wardrop_core::edge_engine`) works on top
//! of this type: it discovers a small *active* path set through the
//! oracles in [`crate::shortest_path`], builds a restricted enumerated
//! instance over the seeds and grows it in place as columns are found
//! (column generation). The
//! validation performed here therefore mirrors `Instance` exactly —
//! plus two structural requirements of the oracles: the graph must be
//! **acyclic**, and every commodity's sink must be reachable from its
//! source.
//!
//! Mutation (`set_latency`, `scale_latency`, `set_demand`) follows the
//! semantics of the enumerated instance to the letter, so scenario
//! [`EventAction`]s apply identically on both backends.

use serde::{Deserialize, Serialize};

use crate::commodity::Commodity;
use crate::error::NetError;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::instance::{
    check_edge, check_scale_factor, set_demand_in, slope_bound, Instance, DEMAND_TOLERANCE,
};
use crate::latency::Latency;
use crate::scenario::EventAction;
use crate::shortest_path::{topological_order, PathSampler};

/// A validated, path-free instance of the Wardrop routing game.
///
/// # Examples
///
/// ```
/// use wardrop_net::builders;
/// use wardrop_net::edge_flow::EdgeInstance;
///
/// // Same graph, latencies and commodity as grid_network(3, 3, 7) —
/// // but no path arena.
/// let edge = builders::grid_edge_network(3, 3, 7);
/// assert_eq!(edge.num_edges(), 12);
/// assert_eq!(edge.implicit_path_count(0), 6.0); // C(4, 2) paths
///
/// let enumerated = builders::grid_network(3, 3, 7);
/// let from_enum = EdgeInstance::from_instance(&enumerated).unwrap();
/// assert_eq!(from_enum.latencies(), edge.latencies());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeInstance {
    graph: Graph,
    latencies: Vec<Latency>,
    commodities: Vec<Commodity>,
    /// A topological order of the (acyclic) graph, cached for the
    /// longest-path bound and reusable by DAG consumers.
    topo: Vec<NodeId>,
}

impl EdgeInstance {
    /// Builds and validates a path-free instance.
    ///
    /// # Errors
    ///
    /// * [`NetError::Inconsistent`] if `latencies.len() != edge count`,
    ///   there are no commodities, total demand is not 1 (within
    ///   [`DEMAND_TOLERANCE`]), or the graph has a directed cycle;
    /// * [`NetError::InvalidLatency`] / [`NetError::InvalidCommodity`]
    ///   as for [`Instance`];
    /// * [`NetError::NoPath`] if a commodity's sink is unreachable from
    ///   its source.
    pub fn new(
        graph: Graph,
        latencies: Vec<Latency>,
        commodities: Vec<Commodity>,
    ) -> Result<Self, NetError> {
        if latencies.len() != graph.edge_count() {
            return Err(NetError::Inconsistent(format!(
                "{} latencies for {} edges",
                latencies.len(),
                graph.edge_count()
            )));
        }
        for l in &latencies {
            l.validate()?;
        }
        if commodities.is_empty() {
            return Err(NetError::Inconsistent(
                "instance needs at least one commodity".into(),
            ));
        }
        for c in &commodities {
            c.validate(&graph)?;
        }
        let total_demand: f64 = commodities.iter().map(|c| c.demand).sum();
        if (total_demand - 1.0).abs() > DEMAND_TOLERANCE {
            return Err(NetError::Inconsistent(format!(
                "total demand must be 1 (paper normalisation), got {total_demand}"
            )));
        }
        let topo = topological_order(&graph).ok_or_else(|| {
            NetError::Inconsistent("implicit-path instances require an acyclic graph".into())
        })?;
        // The longest-path DP doubles as the reachability check.
        Self::longest_path_bound(&graph, &topo, &latencies, &commodities)?;
        Ok(EdgeInstance {
            graph,
            latencies,
            commodities,
            topo,
        })
    }

    /// Converts an enumerated instance into its path-free counterpart.
    ///
    /// # Errors
    ///
    /// Fails if the enumerated instance's graph has a directed cycle
    /// (the path formulation tolerates cycles; the oracles do not).
    pub fn from_instance(instance: &Instance) -> Result<Self, NetError> {
        Self::new(
            instance.graph().clone(),
            instance.latencies().to_vec(),
            instance.commodities().to_vec(),
        )
    }

    /// `ℓmax` over implicit paths: for each commodity, the maximum
    /// weight of a source–sink path under at-capacity latencies
    /// `ℓ_e(1)`, computed by longest-path DP over the topological
    /// order; then the max over commodities. On a DAG this equals the
    /// enumerated `max_P Σ_{e ∈ P} ℓ_e(1)` restricted to commodity
    /// endpoints, and doubles as the reachability check.
    fn longest_path_bound(
        graph: &Graph,
        topo: &[NodeId],
        latencies: &[Latency],
        commodities: &[Commodity],
    ) -> Result<f64, NetError> {
        let mut bound = 0.0_f64;
        let mut best = vec![f64::NEG_INFINITY; graph.node_count()];
        for (i, c) in commodities.iter().enumerate() {
            best.fill(f64::NEG_INFINITY);
            best[c.source.index()] = 0.0;
            for v in topo {
                let b = best[v.index()];
                if b == f64::NEG_INFINITY {
                    continue;
                }
                for &e in graph.out_edges(*v) {
                    let head = graph.edge(e).to.index();
                    let cand = b + latencies[e.index()].at_capacity();
                    if cand > best[head] {
                        best[head] = cand;
                    }
                }
            }
            let sink_best = best[c.sink.index()];
            if sink_best == f64::NEG_INFINITY {
                return Err(NetError::NoPath { commodity: i });
            }
            bound = bound.max(sink_best);
        }
        Ok(bound)
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Latency function of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the instance's graph.
    #[inline]
    pub fn latency(&self, e: EdgeId) -> &Latency {
        &self.latencies[e.index()]
    }

    /// All latency functions, indexed by edge.
    #[inline]
    pub fn latencies(&self) -> &[Latency] {
        &self.latencies
    }

    /// The commodities.
    #[inline]
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Number of commodities `k`.
    #[inline]
    pub fn num_commodities(&self) -> usize {
        self.commodities.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.node_count()
    }

    /// The cached topological order of the graph.
    #[inline]
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Maximum latency slope `β = max_e sup ℓ'_e`, folded over the
    /// latency functions on every call in `O(E)` — the expression
    /// [`Instance::slope_bound`] evaluates.
    pub fn slope_bound(&self) -> f64 {
        slope_bound(&self.latencies)
    }

    /// Upper bound `ℓmax` on any (implicit) path latency of any
    /// commodity, from the at-capacity longest-path DP — run on every
    /// call in `O(k (V + E))`, so latency events never pay for it. Only
    /// policy construction and the theory helpers read it.
    pub fn latency_upper_bound(&self) -> f64 {
        Self::longest_path_bound(&self.graph, &self.topo, &self.latencies, &self.commodities)
            .expect("construction validated reachability")
    }

    /// `D`: the most edges on any source–sink path of any commodity,
    /// by longest-path DP over the cached topological order in
    /// `O(k (V + E))`. On a DAG every path is simple, so this equals
    /// the enumerated [`Instance::max_path_len`] without a path arena.
    pub fn max_path_len(&self) -> usize {
        let mut hops: Vec<Option<usize>> = vec![None; self.graph.node_count()];
        let mut longest = 0;
        for c in &self.commodities {
            hops.fill(None);
            hops[c.source.index()] = Some(0);
            for v in &self.topo {
                let Some(h) = hops[v.index()] else { continue };
                for &e in self.graph.out_edges(*v) {
                    let head = &mut hops[self.graph.edge(e).to.index()];
                    *head = Some(head.map_or(h + 1, |g| g.max(h + 1)));
                }
            }
            longest =
                longest.max(hops[c.sink.index()].expect("construction validated reachability"));
        }
        longest
    }

    /// Number of simple source–sink paths of commodity `i`, counted by
    /// the DAG path-counting DP without enumeration (exact below 2⁵³).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn implicit_path_count(&self, i: usize) -> f64 {
        let c = self.commodities[i];
        PathSampler::new(&self.graph, c.source, c.sink)
            .expect("construction validated acyclicity")
            .path_count()
    }

    /// Total implicit path count across commodities.
    pub fn total_implicit_path_count(&self) -> f64 {
        (0..self.num_commodities())
            .map(|i| self.implicit_path_count(i))
            .sum()
    }

    /// Replaces the latency function of edge `e`. Same contract as
    /// [`Instance::set_latency`]: `β` and `ℓmax` are computed on read,
    /// so nothing else is refreshed.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidLatency`] for invalid latencies or
    /// [`NetError::Inconsistent`] for out-of-range edges; the instance
    /// is unchanged on error.
    pub fn set_latency(&mut self, e: EdgeId, latency: Latency) -> Result<(), NetError> {
        check_edge(e, self.graph.edge_count())?;
        latency.validate()?;
        self.latencies[e.index()] = latency;
        Ok(())
    }

    /// Scales the latency function of edge `e` by `factor` — same
    /// contract as [`Instance::scale_latency`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidLatency`] if `factor` is NaN,
    /// negative or non-finite; otherwise see
    /// [`EdgeInstance::set_latency`]. The instance is unchanged on
    /// error.
    pub fn scale_latency(&mut self, e: EdgeId, factor: f64) -> Result<(), NetError> {
        check_edge(e, self.graph.edge_count())?;
        check_scale_factor(factor)?;
        let scaled = self.latencies[e.index()].scaled(factor);
        self.set_latency(e, scaled)
    }

    /// Sets the demand of commodity `i`, rescaling the others so
    /// `Σ_j r_j = 1` keeps holding — bit-for-bit the semantics of
    /// [`Instance::set_demand`], so scenario events applied to both
    /// backends produce identical demand vectors.
    ///
    /// # Errors
    ///
    /// See [`Instance::set_demand`].
    pub fn set_demand(&mut self, i: usize, demand: f64) -> Result<(), NetError> {
        set_demand_in(&mut self.commodities, i, demand)
    }

    /// Applies a scenario event action — the edge-side mirror of
    /// [`EventAction::apply`], so the implicit-path engine can keep its
    /// `EdgeInstance` and its restricted enumerated instance in sync.
    ///
    /// # Errors
    ///
    /// Propagates the underlying mutator's error; the instance is
    /// unchanged on error.
    pub fn apply_action(&mut self, action: &EventAction) -> Result<(), NetError> {
        match action {
            EventAction::SetDemand { commodity, demand } => self.set_demand(*commodity, *demand),
            EventAction::SetLatency { edge, latency } => self.set_latency(*edge, latency.clone()),
            EventAction::ScaleLatency { edge, factor } => self.scale_latency(*edge, *factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn matches_enumerated_bounds_on_grids() {
        for seed in [3u64, 23, 99] {
            let inst = builders::grid_network(4, 4, seed);
            let edge = EdgeInstance::from_instance(&inst).unwrap();
            assert_eq!(edge.slope_bound().to_bits(), inst.slope_bound().to_bits());
            // Longest-path DP vs enumerated max over path sums: equal
            // up to summation order.
            assert!(
                (edge.latency_upper_bound() - inst.latency_upper_bound()).abs()
                    < 1e-12 * inst.latency_upper_bound().max(1.0)
            );
            assert_eq!(edge.implicit_path_count(0), inst.num_paths() as f64);
            assert_eq!(edge.max_path_len(), inst.max_path_len());
        }
        // Commodities with staggered sinks have different longest paths.
        let inst = builders::many_commodity_grid(5, 5, 3, 7);
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        assert_eq!(edge.max_path_len(), inst.max_path_len());
    }

    #[test]
    fn rejects_cyclic_graphs() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        let err = EdgeInstance::new(
            g,
            vec![Latency::identity(); 2],
            vec![Commodity::new(a, b, 1.0)],
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn rejects_unreachable_sink() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        let u = g.add_node();
        g.add_edge(s, t);
        let err = EdgeInstance::new(
            g,
            vec![Latency::identity()],
            vec![Commodity::new(s, t, 0.5), Commodity::new(s, u, 0.5)],
        )
        .unwrap_err();
        assert_eq!(err, NetError::NoPath { commodity: 1 });
    }

    #[test]
    fn rejects_malformed_inputs_like_instance() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        // Latency count mismatch.
        assert!(matches!(
            EdgeInstance::new(g.clone(), vec![], vec![Commodity::new(s, t, 1.0)]),
            Err(NetError::Inconsistent(_))
        ));
        // No commodities.
        assert!(matches!(
            EdgeInstance::new(g.clone(), vec![Latency::identity()], vec![]),
            Err(NetError::Inconsistent(_))
        ));
        // Demand normalisation.
        assert!(matches!(
            EdgeInstance::new(
                g,
                vec![Latency::identity()],
                vec![Commodity::new(s, t, 0.4)]
            ),
            Err(NetError::Inconsistent(_))
        ));
    }

    #[test]
    fn mutators_mirror_instance_semantics() {
        let mut inst = builders::multi_commodity_grid(3, 3, 5);
        let mut edge = EdgeInstance::from_instance(&inst).unwrap();
        let actions = [
            EventAction::ScaleLatency {
                edge: EdgeId::from_index(0),
                factor: 3.0,
            },
            EventAction::SetDemand {
                commodity: 0,
                demand: 0.7,
            },
            EventAction::SetLatency {
                edge: EdgeId::from_index(4),
                latency: Latency::Affine { a: 0.2, b: 2.0 },
            },
        ];
        for action in &actions {
            action.apply(&mut inst).unwrap();
            edge.apply_action(action).unwrap();
        }
        assert_eq!(edge.latencies(), inst.latencies());
        for (a, b) in edge.commodities().iter().zip(inst.commodities()) {
            assert_eq!(a.demand.to_bits(), b.demand.to_bits());
        }
        assert_eq!(edge.slope_bound().to_bits(), inst.slope_bound().to_bits());
        // Errors leave the edge instance untouched, matching Instance.
        assert!(edge.set_demand(0, 1.5).is_err());
        assert!(edge
            .set_latency(EdgeId::from_index(0), Latency::Constant(-1.0))
            .is_err());
        assert_eq!(edge.latencies(), inst.latencies());
    }

    #[test]
    fn bounds_after_events_equal_a_fresh_build() {
        // Shrink the edge carrying β and an edge of the longest
        // at-capacity path, then raise them again: β and ℓmax must
        // equal a fresh build's bit for bit after every event.
        let mut edge = builders::grid_edge_network(4, 4, 7);
        let steepest = (0..edge.num_edges())
            .map(EdgeId::from_index)
            .max_by(|a, b| {
                let slope = |e: &EdgeId| edge.latency(*e).slope_bound();
                slope(a).total_cmp(&slope(b))
            })
            .unwrap();
        let first = EdgeId::from_index(0);
        for (e, factor) in [
            (steepest, 0.25),
            (first, 0.25),
            (steepest, 4.0),
            (first, 8.0),
            (steepest, 0.5),
        ] {
            let beta = edge.slope_bound();
            edge.scale_latency(e, factor).unwrap();
            let fresh = EdgeInstance::new(
                edge.graph().clone(),
                edge.latencies().to_vec(),
                edge.commodities().to_vec(),
            )
            .unwrap();
            assert_eq!(edge.slope_bound().to_bits(), fresh.slope_bound().to_bits());
            assert_eq!(
                edge.latency_upper_bound().to_bits(),
                fresh.latency_upper_bound().to_bits()
            );
            if factor < 1.0 && e == steepest {
                assert!(edge.slope_bound() < beta, "the β carrier shrank");
            }
        }
    }

    #[test]
    fn grid_14x14_is_constructible() {
        // The acceptance-frontier topology: trivially cheap without a
        // path arena, unreachable for the enumerated constructor.
        let edge = builders::grid_edge_network(14, 14, 7);
        assert_eq!(edge.num_edges(), 2 * 14 * 13);
        assert_eq!(edge.implicit_path_count(0), 10_400_600.0); // C(26, 13)
        assert_eq!(edge.max_path_len(), 26);
    }
}
