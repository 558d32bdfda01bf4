//! The implicit-path (edge-flow) simulation backend.
//!
//! Every other component of this workspace works on an
//! [`Instance`] whose path arena was enumerated up front. That is
//! faithful to the paper's path formulation but caps the reachable
//! topologies: grid_12x12 already needs 705,432 paths and ~15.5 M CSR
//! incidences, and grid_14x14 (10,400,600 paths) cannot even be
//! allocated. The paper's bounds (Theorems 6/7) are polynomial in the
//! network parameters, not in the number of paths, and the quantities
//! they are stated in — `β`, `D`, `ℓmax` — are computable without a
//! path arena ([`crate::theory::edge_safe_update_period`],
//! [`crate::theory::edge_theorem7_bound`]).
//!
//! This module simulates on such networks via **column generation**
//! over a path-free [`EdgeInstance`]: an [`EdgeSimulation`] keeps a
//! small per-commodity *active* path set and runs on the **restricted**
//! enumerated instance over exactly those columns, built once from the
//! seeds ([`Instance::with_explicit_paths`]). It is a [`Simulation`]
//! over that restriction: the one phase pipeline of the enumerated
//! backend (fused evaluation, matrix-free
//! [`PhaseRates`](crate::policy::PhaseRates), integrators, the fault
//! layer, the governor) with a column source attached. At the top of
//! every phase, before the board is posted, a shortest-path oracle
//! ([`DijkstraWorkspace::run_topological`], one `O(V + E)` pass over
//! the instance's cached topological order, with the heap run only on
//! exact ties) reads the true edge latencies of the current flow, the
//! values the board is about to post before any fault degrades them.
//! It admits each commodity's best reply outside the active set as a
//! fresh zero-flow column, and the simulation grows the restriction in
//! place ([`Instance::push_path`]): the flow, the evaluation (the new
//! column's latency alone), the rate blocks and the board are extended
//! in their own buffers, nothing is rebuilt. A seeded [`PathSampler`]
//! provides uniform random paths for the initial column pool.
//! Per-commodity state therefore lives on **edge flows**: the board posts
//! edge latencies, the oracle reads only edges, and the active path set
//! is merely the basis currently carrying flow.
//!
//! # What the restriction simulates
//!
//! For **flow-proportional** sampling the restriction is exact: a
//! proportional agent never samples a zero-flow path, so the paths
//! outside the active set stay empty under the full dynamics too, and
//! the implicit backend tracks the enumerated engine started from the
//! same support (up to summation order). For **uniform** and **logit**
//! sampling it is a column-generation approximation: agents sample only
//! among the active columns, so the dynamics differ from the full one,
//! which would spread flow over every path.
//!
//! Two properties make this backend testable against the enumerated
//! engine:
//!
//! * **Exact equivalence on small instances** — seeding the active set
//!   with the full enumerated path set (in enumeration order) makes
//!   the restricted instance *bit-identical* to the enumerated one, so
//!   both engines produce bit-identical trajectories
//!   (`tests/backend_equivalence.rs`). In-place growth equals a fresh
//!   build over the grown active sets, field for field.
//! * **Allocation-light discovery, allocation-free steady state** —
//!   when no new column is discovered, a phase performs no heap
//!   allocation: the shortest-path workspace (tie fallback included),
//!   path buffer and membership index all reuse pre-sized buffers. A
//!   discovery allocates the new column's edge list plus amortised
//!   growth of the path-sized buffers, which double
//!   (`crates/core/tests/zero_alloc.rs` pins both).
//!
//! # Worked example: a grid beyond the enumerated frontier
//!
//! ```
//! use wardrop_core::edge_engine::{run_edge, PathSeeding};
//! use wardrop_core::engine::SimulationConfig;
//! use wardrop_core::migration::Linear;
//! use wardrop_core::policy::SmoothPolicy;
//! use wardrop_core::sampling::Uniform;
//! use wardrop_net::builders;
//!
//! // A 6x6 grid: 252 implicit paths, but the engine only ever carries
//! // the columns the oracles discover.
//! let edge = builders::grid_edge_network(6, 6, 7);
//! let policy = SmoothPolicy::new(Uniform, Linear::new(edge.latency_upper_bound()));
//! let config = SimulationConfig::new(0.5, 40);
//! let seeding = PathSeeding::default(); // shortest path + 8 random columns
//! let traj = run_edge(&edge, &policy, &config, &seeding).unwrap();
//! assert_eq!(traj.len(), 40);
//! // The potential never increases for a smooth policy within the
//! // safe period — same Lemma 4 behaviour as the enumerated engine.
//! assert!(traj.phases.last().unwrap().potential_end
//!     <= traj.phases[0].potential_start + 1e-9);
//! ```

use std::collections::HashMap;

use wardrop_net::edge_flow::EdgeInstance;
use wardrop_net::error::NetError;
use wardrop_net::eval::EvalWorkspace;
use wardrop_net::flow::FlowVec;
use wardrop_net::graph::{EdgeId, NodeId};
use wardrop_net::instance::Instance;
use wardrop_net::path::{Path, PathId};
use wardrop_net::rng::SplitMix64;
use wardrop_net::scenario::{EventAction, Scenario};
use wardrop_net::shortest_path::{DijkstraWorkspace, PathSampler};

use crate::engine::{try_drive, Dynamics, Simulation, SimulationConfig};
use crate::fault::FaultStats;
use crate::guard::GuardLog;
use crate::trajectory::{PhaseRecord, Trajectory};

/// How the initial active path set of an [`EdgeSimulation`] is built.
#[derive(Debug, Clone)]
pub enum PathSeeding {
    /// Oracle seeding: per commodity, the shortest path under free-flow
    /// latencies `ℓ_e(0)` plus up to `random_paths` distinct uniform
    /// random paths drawn by a seeded [`PathSampler`]. The default
    /// (`random_paths: 8, seed: 0`).
    Oracle {
        /// Number of uniform random columns sampled per commodity
        /// (duplicates are dropped, so fewer may be admitted).
        random_paths: usize,
        /// Seed of the deterministic sampling stream.
        seed: u64,
    },
    /// Explicit seeding: `paths[i]` becomes commodity `i`'s initial
    /// active set, in order. Seeding with the full enumerated path set
    /// makes the backend bit-identical to the enumerated engine — the
    /// lever of the differential test suite.
    Explicit(Vec<Vec<Path>>),
}

impl PathSeeding {
    /// Explicit seeding with every path of `instance`, per commodity
    /// in arena order, decoded from its CSR rows: the seeding under
    /// which the backend is bit-identical to the enumerated engine on
    /// `instance`.
    pub fn full(instance: &Instance) -> Self {
        let graph = instance.graph();
        let rows = instance.path_edge_rows();
        PathSeeding::Explicit(
            (0..instance.num_commodities())
                .map(|i| {
                    instance
                        .commodity_paths(i)
                        .map(|p| {
                            Path::new(graph, rows.row(p).to_vec())
                                .expect("instance rows are simple paths")
                        })
                        .collect()
                })
                .collect(),
        )
    }
}

impl Default for PathSeeding {
    fn default() -> Self {
        PathSeeding::Oracle {
            random_paths: 8,
            seed: 0,
        }
    }
}

/// FNV-1a over the edge indices of a path — the cheap, allocation-free
/// fingerprint the active-set membership index buckets on. Collisions
/// are resolved by exact edge-sequence comparison.
fn path_fingerprint(edges: &[EdgeId]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for e in edges {
        let mut bytes = e.index() as u32;
        for _ in 0..4 {
            hash ^= u64::from(bytes & 0xff);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            bytes >>= 8;
        }
    }
    hash
}

/// End of a membership chain in [`ColumnOracle`].
const CHAIN_END: u32 = u32::MAX;

/// The column source the implicit-path backend attaches to a
/// [`Simulation`]: the path-free instance, a membership index over the
/// restricted instance's columns, and the shortest-path oracle with its
/// reusable buffers. The columns themselves live only in the
/// restricted instance, which the simulation owns and grows.
#[derive(Debug)]
pub(crate) struct ColumnOracle {
    edge: EdgeInstance,
    /// Membership index: fingerprint → head of a chain of `members`,
    /// each candidate verified by exact edge comparison.
    seen: HashMap<u64, u32>,
    /// Chain entries `(commodity, local index, next entry)`. A
    /// column's local index within its commodity never changes:
    /// columns are only ever appended.
    members: Vec<(u32, u32, u32)>,
    /// Columns the last probe admitted, awaiting adoption.
    admitted: Vec<(usize, Path)>,
    dijkstra: DijkstraWorkspace,
    path_buf: Vec<EdgeId>,
    discoveries: usize,
}

impl ColumnOracle {
    /// Seeds the active path sets and builds the restricted instance
    /// over them — the only full build; discoveries grow it in place.
    fn seed(edge: &EdgeInstance, seeding: &PathSeeding) -> Result<(Self, Instance), NetError> {
        let graph = edge.graph();
        let mut oracle = ColumnOracle {
            edge: edge.clone(),
            seen: HashMap::new(),
            members: Vec::new(),
            admitted: Vec::with_capacity(edge.num_commodities()),
            dijkstra: DijkstraWorkspace::new(),
            path_buf: Vec::with_capacity(graph.node_count()),
            discoveries: 0,
        };
        let mut lists = vec![Vec::new(); edge.num_commodities()];
        match seeding {
            PathSeeding::Explicit(explicit) => {
                if explicit.len() != edge.num_commodities() {
                    return Err(NetError::Inconsistent(format!(
                        "{} seed path lists for {} commodities",
                        explicit.len(),
                        edge.num_commodities()
                    )));
                }
                for (i, list) in explicit.iter().enumerate() {
                    for p in list {
                        oracle.seed_column(&mut lists[i], i, p.clone());
                    }
                }
            }
            PathSeeding::Oracle { random_paths, seed } => {
                let free_flow: Vec<f64> = edge.latencies().iter().map(|l| l.eval(0.0)).collect();
                let mut rng = SplitMix64::new(*seed);
                for (i, c) in edge.commodities().iter().enumerate() {
                    oracle.shortest_path(c.source, c.sink, &free_flow);
                    let shortest =
                        Path::new(graph, oracle.path_buf.clone()).expect("oracle paths are simple");
                    oracle.seed_column(&mut lists[i], i, shortest);
                    if *random_paths > 0 {
                        let sampler = PathSampler::new(graph, c.source, c.sink)
                            .expect("EdgeInstance validated acyclicity");
                        for _ in 0..*random_paths {
                            sampler.sample_into(graph, &mut rng, &mut oracle.path_buf);
                            let p = Path::new(graph, oracle.path_buf.clone())
                                .expect("sampled paths are simple");
                            oracle.seed_column(&mut lists[i], i, p);
                        }
                    }
                }
            }
        }
        let restricted = Instance::with_explicit_paths(
            graph.clone(),
            edge.latencies().to_vec(),
            edge.commodities().to_vec(),
            &lists,
        )?;
        Ok((oracle, restricted))
    }

    /// Appends `path` to commodity `i`'s seed `list` unless it is
    /// already there.
    fn seed_column(&mut self, list: &mut Vec<Path>, i: usize, path: Path) {
        let hash = path_fingerprint(path.edges());
        if !self.contains(i, path.edges(), hash, |l| list[l].edges()) {
            self.remember(i, list.len(), hash);
            list.push(path);
        }
    }

    /// Leaves the shortest `source → sink` path under `weights` in the
    /// path buffer: one pass over the cached topological order, with
    /// Dijkstra's answer on exact ties.
    fn shortest_path(&mut self, source: NodeId, sink: NodeId, weights: &[f64]) {
        self.dijkstra.run_topological(
            self.edge.graph(),
            self.edge.topological_order(),
            source,
            weights,
        );
        let reachable = self
            .dijkstra
            .path_into(self.edge.graph(), sink, &mut self.path_buf);
        debug_assert!(reachable, "EdgeInstance validated reachability");
    }

    /// Whether commodity `i` already holds `edges` (fingerprint
    /// `hash`); `column(l)` reads the commodity's `l`-th column.
    fn contains<'p>(
        &self,
        i: usize,
        edges: &[EdgeId],
        hash: u64,
        column: impl Fn(usize) -> &'p [EdgeId],
    ) -> bool {
        let mut entry = self.seen.get(&hash).copied().unwrap_or(CHAIN_END);
        while entry != CHAIN_END {
            let (c, l, next) = self.members[entry as usize];
            if c as usize == i && column(l as usize) == edges {
                return true;
            }
            entry = next;
        }
        false
    }

    /// Indexes commodity `i`'s column `local` under fingerprint `hash`.
    fn remember(&mut self, i: usize, local: usize, hash: u64) {
        let entry = self.members.len() as u32;
        let next = self.seen.insert(hash, entry).unwrap_or(CHAIN_END);
        self.members.push((i as u32, local as u32, next));
    }

    /// Probes `latencies` for a best reply per commodity and admits each
    /// one outside `restricted`'s path set as a new column, to be
    /// appended at the end of its commodity's range (see
    /// [`ColumnOracle::admitted`]). Returns whether anything was
    /// admitted; a probe that admits nothing allocates nothing.
    pub(crate) fn discover(&mut self, latencies: &[f64], restricted: &Instance) -> bool {
        for i in 0..self.edge.num_commodities() {
            let c = self.edge.commodities()[i];
            self.shortest_path(c.source, c.sink, latencies);
            let range = restricted.commodity_paths(i);
            let hash = path_fingerprint(&self.path_buf);
            let column = |l: usize| restricted.path_edges(PathId::from_index(range.start + l));
            if self.contains(i, &self.path_buf, hash, column) {
                continue;
            }
            let path = Path::new(self.edge.graph(), self.path_buf.clone())
                .expect("oracle paths are simple");
            self.remember(i, range.len(), hash);
            self.admitted.push((i, path));
            self.discoveries += 1;
        }
        !self.admitted.is_empty()
    }

    /// Hands over the columns the last [`ColumnOracle::discover`]
    /// admitted, as `(commodity, path)` in commodity order. Each must be
    /// appended to its commodity's path set
    /// ([`Instance::push_path`]), where the membership index expects
    /// it.
    pub(crate) fn admitted(&mut self) -> std::vec::Drain<'_, (usize, Path)> {
        self.admitted.drain(..)
    }

    /// Applies one scenario action to the path-free instance.
    pub(crate) fn apply_action(&mut self, action: &EventAction) -> Result<(), NetError> {
        self.edge.apply_action(action)
    }
}

/// An in-flight implicit-path simulation: a [`Simulation`] over the
/// restricted enumerated instance of the active path set, with a
/// column source attached. The shared phase pipeline runs the source's
/// best-reply probe at the top of every phase and grows the restriction
/// in place on a discovery. See the [module docs](self)
/// for the design.
///
/// Unlike [`Simulation`], an `EdgeSimulation` offers no snapshot,
/// reset or rebind: those would drop the column state.
#[derive(Debug)]
pub struct EdgeSimulation<'a, D: Dynamics + ?Sized> {
    sim: Simulation<'a, D>,
}

impl<'a, D: Dynamics + ?Sized> EdgeSimulation<'a, D> {
    /// Prepares an implicit-path simulation: seeds the active path set,
    /// builds the restricted instance and starts from the uniform flow
    /// over the active columns.
    ///
    /// # Errors
    ///
    /// Propagates restricted-instance construction failures — in
    /// particular explicit seed paths with wrong endpoints or an empty
    /// per-commodity list — and a fault plan that does not fit the
    /// instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (non-positive update
    /// period), like [`Simulation::new`].
    pub fn new(
        edge: &EdgeInstance,
        dynamics: &'a D,
        config: &SimulationConfig,
        seeding: &PathSeeding,
    ) -> Result<Self, NetError> {
        config.validate();
        let (columns, restricted) = ColumnOracle::seed(edge, seeding)?;
        let flow = FlowVec::uniform(&restricted);
        let pool = config.parallelism.build_pool();
        let columns = Some(Box::new(columns));
        let sim = Simulation::assemble(restricted, dynamics, flow, config, pool, columns)?;
        Ok(EdgeSimulation { sim })
    }

    fn columns(&self) -> &ColumnOracle {
        self.sim
            .columns()
            .expect("an edge simulation always carries its column oracle")
    }

    /// The current flow over the **active** path set.
    #[inline]
    pub fn flow(&self) -> &FlowVec {
        self.sim.flow()
    }

    /// The path-free instance driving the run (possibly event-mutated).
    #[inline]
    pub fn edge_instance(&self) -> &EdgeInstance {
        &self.columns().edge
    }

    /// The restricted enumerated instance over the active path set.
    #[inline]
    pub fn restricted(&self) -> &Instance {
        self.sim.instance()
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &SimulationConfig {
        self.sim.config()
    }

    /// The current scenario epoch.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.sim.epoch()
    }

    /// The fused evaluation of the current flow (edge flows, edge
    /// latencies, potential — all on the restricted instance).
    #[inline]
    pub fn eval(&self) -> &EvalWorkspace {
        self.sim.eval()
    }

    /// Number of phases executed so far.
    #[inline]
    pub fn phases_run(&self) -> usize {
        self.sim.phases_run()
    }

    /// Total number of currently active columns across commodities.
    #[inline]
    pub fn active_path_count(&self) -> usize {
        self.restricted().num_paths()
    }

    /// Number of columns admitted by the per-phase best-reply probe
    /// (excluding the seeds).
    #[inline]
    pub fn discoveries(&self) -> usize {
        self.columns().discoveries
    }

    /// Whether the workspace carries a worker pool.
    #[inline]
    pub fn uses_worker_pool(&self) -> bool {
        self.sim.uses_worker_pool()
    }

    /// The AIMD governor's intervention log, when one is attached.
    #[inline]
    pub fn guard_log(&self) -> Option<&GuardLog> {
        self.sim.guard_log()
    }

    /// The fault layer's running counters, when a plan is attached.
    #[inline]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.sim.fault_stats()
    }

    /// True once the simulation has finished.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.sim.is_finished()
    }

    /// Consumes the simulation, returning the final active-set flow.
    pub fn into_flow(self) -> FlowVec {
        self.sim.into_flow()
    }

    /// Applies a scenario event between phases through
    /// [`Simulation::apply_event`], which mutates both the restricted
    /// instance and the path-free edge instance, so the oracle keeps
    /// probing the mutated latencies.
    ///
    /// # Errors
    ///
    /// The first failing action's error; every action is checked
    /// before any is applied, so on error both instances are exactly as
    /// they were.
    pub fn apply_event(&mut self, actions: &[EventAction]) -> Result<(), NetError> {
        self.sim.apply_event(actions)
    }

    /// Executes one phase of the shared pipeline
    /// ([`Simulation::step`]) and returns its record, or `None` when the
    /// phase budget is exhausted or an early stop fires. The phase opens
    /// with the best-reply probe that may grow the basis.
    pub fn step(&mut self) -> Option<PhaseRecord> {
        self.sim.step()
    }
}

/// Runs `dynamics` on the implicit-path backend through the shared
/// driver of [`run`](crate::engine::run); the initial flow is uniform
/// over the seeded active columns.
///
/// # Errors
///
/// Propagates seed validation failures (see [`EdgeSimulation::new`]).
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_edge<D: Dynamics + ?Sized>(
    edge: &EdgeInstance,
    dynamics: &D,
    config: &SimulationConfig,
    seeding: &PathSeeding,
) -> Result<Trajectory, NetError> {
    let mut edge_sim = EdgeSimulation::new(edge, dynamics, config, seeding)?;
    try_drive(&mut edge_sim.sim, &[])
}

/// Runs `dynamics` on the implicit-path backend through a
/// non-stationary [`Scenario`], with the shared driver and event
/// semantics of [`run_scenario`](crate::engine::run_scenario).
/// Recorded flows live on the active path set of their phase.
///
/// # Errors
///
/// Propagates seed validation failures and the first failing event.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_edge_scenario<D: Dynamics + ?Sized>(
    edge: &EdgeInstance,
    dynamics: &D,
    config: &SimulationConfig,
    seeding: &PathSeeding,
    scenario: &Scenario,
) -> Result<Trajectory, NetError> {
    let mut edge_sim = EdgeSimulation::new(edge, dynamics, config, seeding)?;
    try_drive(&mut edge_sim.sim, scenario.events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, SimulationConfig};
    use crate::migration::Linear;
    use crate::policy::{uniform_linear, SmoothPolicy};
    use crate::sampling::Proportional;
    use wardrop_net::builders;
    use wardrop_net::scenario::Event;

    #[test]
    fn full_seed_matches_enumerated_engine_bitwise() {
        let inst = builders::grid_network(4, 4, 23);
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(0.4, 12).with_flows();
        let reference = run(&inst, &policy, &FlowVec::uniform(&inst), &config);
        let traj = run_edge(&edge, &policy, &config, &PathSeeding::full(&inst)).unwrap();
        assert_eq!(traj.phases, reference.phases);
        assert_eq!(traj.flows, reference.flows);
        assert_eq!(traj.final_flow, reference.final_flow);
    }

    #[test]
    fn oracle_seeding_grows_the_basis_and_converges() {
        let edge = builders::grid_edge_network(5, 5, 11);
        let policy = uniform_linear_for_edge(&edge);
        let config = SimulationConfig::new(0.4, 120);
        let seeding = PathSeeding::Oracle {
            random_paths: 4,
            seed: 3,
        };
        let mut sim = EdgeSimulation::new(&edge, &policy, &config, &seeding).unwrap();
        let initial = sim.active_path_count();
        // C(8, 4) = 70 implicit paths; the seeds are a strict subset.
        assert!(initial <= 1 + 4);
        let mut records = Vec::new();
        while let Some(r) = sim.step() {
            records.push(r);
        }
        assert_eq!(records.len(), 120);
        assert!(sim.active_path_count() >= initial);
        assert_eq!(
            sim.active_path_count(),
            initial + sim.discoveries(),
            "every admitted column is counted once"
        );
        // Smooth policy within a conservative period: the potential is
        // monotone across basis growth too.
        for w in records.windows(2) {
            assert!(w[1].potential_start <= w[0].potential_start + 1e-9);
        }
        assert!(sim.flow().is_feasible(sim.restricted(), 1e-9));
    }

    #[test]
    fn discovery_admits_the_best_reply_column() {
        // Seed with only one deliberately poor random column; the first
        // probe must admit the true shortest path.
        let edge = builders::grid_edge_network(4, 4, 5);
        let policy = uniform_linear_for_edge(&edge);
        let config = SimulationConfig::new(0.3, 5);
        let seeding = PathSeeding::Oracle {
            random_paths: 1,
            seed: 99,
        };
        let mut sim = EdgeSimulation::new(&edge, &policy, &config, &seeding).unwrap();
        let before = sim.active_path_count();
        sim.step().unwrap();
        // Either the free-flow shortest path is still the loaded best
        // reply (no growth) or one column was admitted.
        assert!(sim.active_path_count() <= before + 1);
    }

    #[test]
    fn explicit_seed_shape_is_validated() {
        let edge = builders::grid_edge_network(3, 3, 7);
        let policy = uniform_linear_for_edge(&edge);
        let config = SimulationConfig::new(0.5, 2);
        let err = EdgeSimulation::new(&edge, &policy, &config, &PathSeeding::Explicit(vec![]))
            .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn duplicate_seeds_are_dropped() {
        let inst = builders::braess();
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(0.2, 3);
        let PathSeeding::Explicit(mut lists) = PathSeeding::full(&inst) else {
            unreachable!("full seeding is explicit")
        };
        lists[0].extend_from_within(..);
        let doubled = PathSeeding::Explicit(lists);
        let sim = EdgeSimulation::new(&edge, &policy, &config, &doubled).unwrap();
        assert_eq!(sim.active_path_count(), inst.num_paths());
    }

    fn uniform_linear_for_edge(
        edge: &EdgeInstance,
    ) -> crate::policy::SmoothPolicy<crate::sampling::Uniform, crate::migration::Linear> {
        crate::policy::SmoothPolicy::new(
            crate::sampling::Uniform,
            crate::migration::Linear::new(edge.latency_upper_bound().max(f64::MIN_POSITIVE)),
        )
    }

    #[test]
    fn scenario_events_mirror_enumerated_engine() {
        let inst = builders::multi_commodity_grid(3, 3, 5);
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(0.2, 20).with_flows();
        let scenario = Scenario::new("shock")
            .with_event(Event::at(
                3,
                "degrade",
                EventAction::ScaleLatency {
                    edge: EdgeId::from_index(0),
                    factor: 2.5,
                },
            ))
            .with_event(Event::at(
                7,
                "surge",
                EventAction::SetDemand {
                    commodity: 0,
                    demand: 0.7,
                },
            ));
        let reference = crate::engine::run_scenario(
            &inst,
            &policy,
            &FlowVec::uniform(&inst),
            &config,
            &scenario,
        )
        .unwrap();
        let traj = run_edge_scenario(
            &edge,
            &policy,
            &config,
            &PathSeeding::full(&inst),
            &scenario,
        )
        .unwrap();
        assert_eq!(traj.phases, reference.phases);
        assert_eq!(traj.flows, reference.flows);
        assert_eq!(traj.final_flow, reference.final_flow);
    }

    /// An event that fails partway leaves both backends exactly as
    /// they were: every action is checked before any is applied. The
    /// failed simulations then step bit-identically to twins that never
    /// saw the event.
    #[test]
    fn failing_event_leaves_both_backends_unchanged() {
        let inst = builders::multi_commodity_grid(4, 4, 7);
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(0.2, 20);
        let out_of_range = EdgeId::from_index(inst.num_edges());
        let e1 = EdgeId::from_index(1);
        let bad_events = [
            vec![
                EventAction::SetDemand {
                    commodity: 0,
                    demand: 0.8,
                },
                EventAction::ScaleLatency {
                    edge: out_of_range,
                    factor: 2.0,
                },
            ],
            vec![
                EventAction::ScaleLatency {
                    edge: e1,
                    factor: 2.0,
                },
                EventAction::SetDemand {
                    commodity: 2,
                    demand: 0.5,
                },
            ],
            // Valid alone, the scaling overflows the latency the first
            // action installs.
            vec![
                EventAction::SetLatency {
                    edge: e1,
                    latency: wardrop_net::Latency::Affine { a: 1e300, b: 1.0 },
                },
                EventAction::ScaleLatency {
                    edge: e1,
                    factor: 1e10,
                },
            ],
        ];
        let f0 = FlowVec::uniform(&inst);
        let mut sim = Simulation::new(&inst, &policy, &f0, &config);
        let mut twin = Simulation::new(&inst, &policy, &f0, &config);
        let mut implicit =
            EdgeSimulation::new(&edge, &policy, &config, &PathSeeding::full(&inst)).unwrap();
        let mut implicit_twin =
            EdgeSimulation::new(&edge, &policy, &config, &PathSeeding::full(&inst)).unwrap();
        sim.step().unwrap();
        twin.step().unwrap();
        implicit.step().unwrap();
        implicit_twin.step().unwrap();
        for actions in &bad_events {
            assert!(sim.apply_event(actions).is_err());
            assert!(implicit.apply_event(actions).is_err());
        }
        assert!(sim.flow().is_feasible(sim.instance(), 1e-9));
        assert_eq!(sim.instance(), twin.instance());
        assert_eq!(sim.epoch(), twin.epoch());
        assert_eq!(implicit.restricted(), implicit_twin.restricted());
        assert_eq!(
            implicit.edge_instance().latencies(),
            implicit_twin.edge_instance().latencies()
        );
        let demands = |e: &EdgeInstance| -> Vec<u64> {
            e.commodities().iter().map(|c| c.demand.to_bits()).collect()
        };
        assert_eq!(
            demands(implicit.edge_instance()),
            demands(implicit_twin.edge_instance())
        );
        assert_eq!(implicit.epoch(), implicit_twin.epoch());
        for _ in 0..5 {
            assert_eq!(sim.step(), twin.step());
            assert_eq!(implicit.step(), implicit_twin.step());
        }
        assert_eq!(bits(sim.flow().values()), bits(twin.flow().values()));
        assert_eq!(
            bits(implicit.flow().values()),
            bits(implicit_twin.flow().values())
        );
    }

    /// The fresh build over `sim`'s active sets, from the (possibly
    /// event-mutated) path-free instance.
    fn fresh_restriction<D: Dynamics + ?Sized>(sim: &EdgeSimulation<'_, D>) -> Instance {
        let PathSeeding::Explicit(lists) = PathSeeding::full(sim.restricted()) else {
            unreachable!("full seeding is explicit")
        };
        let edge = sim.edge_instance();
        Instance::with_explicit_paths(
            edge.graph().clone(),
            edge.latencies().to_vec(),
            edge.commodities().to_vec(),
            &lists,
        )
        .unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn in_place_growth_equals_a_fresh_build() {
        // Three commodities with latency shocks: columns are admitted
        // to every commodity, mostly in the middle of the arena.
        let edge = EdgeInstance::from_instance(&builders::many_commodity_grid(5, 5, 3, 7)).unwrap();
        let policy = uniform_linear_for_edge(&edge);
        let config = SimulationConfig::new(0.5, 200);
        let seeding = PathSeeding::Oracle {
            random_paths: 2,
            seed: 9,
        };
        let mut sim = EdgeSimulation::new(&edge, &policy, &config, &seeding).unwrap();
        let mut mid_arena = 0;
        let mut growth_steps = 0;
        loop {
            let phase = sim.phases_run();
            if phase > 0 && phase.is_multiple_of(10) {
                let shock = EventAction::ScaleLatency {
                    edge: EdgeId::from_index((phase / 10 * 7) % edge.num_edges()),
                    factor: 4.0,
                };
                sim.apply_event(&[shock]).unwrap();
            }
            let before: Vec<usize> = (0..3)
                .map(|i| sim.restricted().commodity_path_count(i))
                .collect();
            let start_flow = sim.flow().values().to_vec();
            let Some(record) = sim.step() else { break };
            let grew: Vec<usize> = (0..3)
                .filter(|&i| sim.restricted().commodity_path_count(i) > before[i])
                .collect();
            if grew.is_empty() {
                continue;
            }
            growth_steps += 1;
            mid_arena += grew.iter().filter(|&&i| i < 2).count();
            let fresh = fresh_restriction(&sim);
            assert_eq!(sim.restricted(), &fresh, "phase {phase}");
            assert_eq!(
                sim.restricted().latency_upper_bound().to_bits(),
                fresh.latency_upper_bound().to_bits()
            );
            assert_eq!(
                sim.restricted().slope_bound().to_bits(),
                fresh.slope_bound().to_bits()
            );
            // The phase start ran on the evaluation the growth extended
            // by the new columns alone: its metrics are those of a fresh
            // evaluation of the start flow, zero on the new columns.
            let mut values = Vec::new();
            let mut old = 0;
            for (i, &n) in before.iter().enumerate() {
                values.extend_from_slice(&start_flow[old..old + n]);
                values.resize(fresh.commodity_paths(i).end, 0.0);
                old += n;
            }
            let grown_start = FlowVec::from_values(&fresh, values).unwrap();
            let mut reference = EvalWorkspace::new(&fresh);
            reference.evaluate(&fresh, &grown_start);
            assert_eq!(
                record.potential_start.to_bits(),
                reference.potential().to_bits()
            );
            assert_eq!(
                record.avg_latency_start.to_bits(),
                reference.avg_latency().to_bits()
            );
            assert_eq!(
                record.max_regret_start.to_bits(),
                reference.max_regret(&fresh, &grown_start, 1e-12).to_bits()
            );
            // And the evaluation the step left behind (the phase end) is
            // a fresh one of the same flow.
            let mut reference = EvalWorkspace::new(&fresh);
            reference.evaluate(&fresh, sim.flow());
            let eval = sim.eval();
            assert_eq!(bits(eval.edge_flows()), bits(reference.edge_flows()));
            assert_eq!(
                bits(eval.edge_latencies()),
                bits(reference.edge_latencies())
            );
            assert_eq!(
                bits(eval.path_latencies()),
                bits(reference.path_latencies())
            );
            assert_eq!(
                bits(eval.commodity_min_latencies()),
                bits(reference.commodity_min_latencies())
            );
            assert_eq!(
                bits(eval.commodity_avg_latencies()),
                bits(reference.commodity_avg_latencies())
            );
            assert_eq!(eval.potential().to_bits(), reference.potential().to_bits());
            assert_eq!(
                eval.avg_latency().to_bits(),
                reference.avg_latency().to_bits()
            );
        }
        assert!(growth_steps >= 5, "only {growth_steps} growth steps");
        assert!(mid_arena >= 3, "only {mid_arena} mid-arena admissions");
    }

    #[test]
    fn proportional_restriction_is_exact() {
        // Proportional agents never sample a zero-flow path, so the
        // dynamics restricted to the active columns is the full
        // dynamics: the enumerated engine, started from the same
        // support, tracks the implicit one up to summation order.
        let inst = builders::grid_network(4, 4, 8);
        let edge = EdgeInstance::from_instance(&inst).unwrap();
        let lmax = inst.latency_upper_bound();
        let policy = SmoothPolicy::new(Proportional, Linear::new(lmax));
        let t = crate::theory::safe_update_period(&inst, 1.0 / lmax);
        let config = SimulationConfig::new(t, 200);
        let support: Vec<usize> = (0..inst.num_paths()).step_by(5).collect();
        assert_eq!(support.len(), 4);
        let seeding = PathSeeding::Explicit(vec![support
            .iter()
            .map(|&p| {
                Path::new(
                    inst.graph(),
                    inst.path_edges(PathId::from_index(p)).to_vec(),
                )
                .unwrap()
            })
            .collect()]);
        let mut embedded = vec![0.0; inst.num_paths()];
        for &p in &support {
            embedded[p] = 0.25;
        }
        let f0 = FlowVec::from_values(&inst, embedded).unwrap();
        let reference = run(&inst, &policy, &f0, &config);
        let implicit = run_edge(&edge, &policy, &config, &seeding).unwrap();
        assert_eq!(implicit.len(), reference.len());
        for (a, b) in implicit.phases.iter().zip(&reference.phases) {
            assert!(
                (a.potential_end - b.potential_end).abs() <= 1e-9,
                "phase {}: {} vs {}",
                a.index,
                a.potential_end,
                b.potential_end
            );
        }
    }

    #[test]
    fn grid_14x14_runs_forty_phases() {
        // The acceptance-criterion frontier: 10,400,600 implicit paths,
        // impossible to enumerate, cheap on the implicit backend.
        let edge = builders::grid_edge_network(14, 14, 7);
        let policy = uniform_linear_for_edge(&edge);
        let config = SimulationConfig::new(0.25, 40);
        let seeding = PathSeeding::Oracle {
            random_paths: 8,
            seed: 0,
        };
        let traj = run_edge(&edge, &policy, &config, &seeding).unwrap();
        assert_eq!(traj.len(), 40);
        assert!(traj.phases.last().unwrap().potential_end.is_finite());
    }
}
