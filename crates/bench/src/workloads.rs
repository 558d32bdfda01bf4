//! Shared benchmark workload constructors.
//!
//! One place defines the instance/config pairs every consumer measures
//! — `bench_report`, the examples and the tests all pull from here
//! (instance-level families live one layer lower, in
//! `wardrop_net::builders`), so numbers stay comparable across tools
//! and PRs.

use wardrop_core::engine::{Simulation, SimulationConfig};
use wardrop_core::policy::uniform_linear;
use wardrop_net::builders;
use wardrop_net::edge_flow::EdgeInstance;
use wardrop_net::flow::FlowVec;
use wardrop_net::instance::Instance;
use wardrop_net::scenario::EventAction;
use wardrop_net::EdgeId;

/// Best-of-`repeats` wall-clock nanoseconds for `f`, so a single
/// scheduler hiccup cannot masquerade as a regression. `bench_report`
/// times the rows that compare two variants (lane counts, fault seams)
/// in alternating pairs instead.
pub fn time_best_of<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// A named engine workload: one instance/config pair that
/// `bench_report`, the tests and the [`crate::baseline`] agreement
/// checks all drive.
pub struct EngineWorkload {
    /// Stable identifier recorded in `BENCH_engine.json`.
    pub name: &'static str,
    /// The instance under load.
    pub instance: Instance,
    /// Uniform initial flow.
    pub f0: FlowVec,
    /// Simulation configuration (uniformization integrator, no flow
    /// recording, single δ column — the engine's default shape).
    pub config: SimulationConfig,
}

/// The standard benchmark workload: the uniform initial flow and a
/// simulation configuration of `phases` phases at period `t`.
fn engine_workload(
    name: &'static str,
    instance: Instance,
    t: f64,
    phases: usize,
) -> EngineWorkload {
    EngineWorkload {
        name,
        f0: FlowVec::uniform(&instance),
        instance,
        config: SimulationConfig::new(t, phases),
    }
}

/// Small engine workloads: quick enough for CI smoke runs.
pub fn small_engine_workloads() -> Vec<EngineWorkload> {
    vec![
        engine_workload("grid_5x5", builders::grid_network(5, 5, 7), 0.5, 40),
        engine_workload(
            "multi_commodity_grid_4x4",
            builders::multi_commodity_grid(4, 4, 7),
            0.5,
            40,
        ),
        engine_workload("layered_3x4", builders::layered_network(3, 4, 7), 0.5, 40),
    ]
}

/// Large engine workloads, including the `grid_network(8, 8, seed)`
/// acceptance workload (3432 paths) — production-scale phase loops
/// where rate construction and integration dominate.
pub fn large_engine_workloads() -> Vec<EngineWorkload> {
    vec![
        engine_workload("grid_8x8", builders::grid_network(8, 8, 7), 1.0, 3),
        engine_workload(
            "multi_commodity_grid_6x6",
            builders::multi_commodity_grid(6, 6, 7),
            1.0,
            12,
        ),
        engine_workload("layered_4x6", builders::layered_network(4, 6, 7), 1.0, 6),
    ]
}

/// Frontier workloads: path counts far beyond what the dense Θ(P²)
/// representation could even allocate, runnable only through the
/// matrix-free phase rates — `grid_network(10, 10, _)` has 48 620
/// paths (a dense rate matrix would be ~19 GB), and the 6-commodity
/// `many_commodity_grid(8, 8, 6, _)` mixes block sizes from 36 to
/// 3432 paths. `bench_report`'s `thread_scaling` section times them.
pub fn frontier_engine_workloads() -> Vec<EngineWorkload> {
    vec![
        engine_workload("grid_10x10", builders::grid_network(10, 10, 7), 1.0, 40),
        engine_workload(
            "many_commodity_grid_8x8x6",
            builders::many_commodity_grid(8, 8, 6, 7),
            1.0,
            40,
        ),
    ]
}

/// The 12×12 frontier workload: `C(22, 11) = 705 432` paths — ~7× the
/// `DEFAULT_PATH_CAP` and ~15.5 M CSR incidences, a scale only the
/// parallel matrix-free engine reaches in bench time. Built lazily
/// (enumeration alone takes seconds) and only run in `bench_report`'s
/// full mode; few phases keep the wall-clock bounded.
pub fn grid_12x12_frontier_workload() -> EngineWorkload {
    engine_workload(
        "grid_12x12",
        builders::grid_network_with_cap(12, 12, 7, 1_000_000),
        1.0,
        4,
    )
}

/// A named workload for the implicit-path (edge-flow) backend: the
/// instance is path-free, so the only size that matters up front is
/// the network itself.
pub struct EdgeEngineWorkload {
    /// Stable identifier recorded in `BENCH_engine.json`.
    pub name: &'static str,
    /// The path-free instance under load.
    pub edge: EdgeInstance,
    /// Simulation configuration (same defaults as the enumerated
    /// workloads).
    pub config: SimulationConfig,
    /// Whether the enumerated engine could even build this instance
    /// (`false` once the implicit path count dwarfs the path cap — the
    /// frontier the implicit backend exists for).
    pub enumerated_feasible: bool,
}

/// Implicit-path workloads (the backend's cost is network-sized, not
/// path-sized, so even the frontier row is CI-cheap):
///
/// * `grid_14x14` — `C(26, 13) = 10 400 600` implicit paths over 364
///   edges, ~100× the default path cap: the enumerated engine cannot
///   allocate it, the implicit backend treats it as routine.
///   `bench_report`'s `fault_overhead` section times it.
pub fn implicit_path_workloads() -> Vec<EdgeEngineWorkload> {
    vec![EdgeEngineWorkload {
        name: "grid_14x14",
        edge: builders::grid_edge_network(14, 14, 7),
        config: SimulationConfig::new(1.0, 40),
        enumerated_feasible: false,
    }]
}

/// Measures scenario-reconfiguration cost on a workload: the mean
/// nanoseconds of one [`Simulation::apply_event`] (instance mutation +
/// in-place re-evaluation), averaged over `events` alternating
/// degrade/repair latency events and taken best-of-3 so one scheduler
/// hiccup cannot masquerade as a regression in the committed report.
pub fn time_apply_event(w: &EngineWorkload, events: usize) -> f64 {
    let policy = uniform_linear(&w.instance);
    let mut sim = Simulation::new(&w.instance, &policy, &w.f0, &w.config);
    let edge = EdgeId::from_index(0);
    time_best_of(3, || {
        for k in 0..events {
            let factor = if k % 2 == 0 { 1.25 } else { 0.8 };
            sim.apply_event(&[EventAction::ScaleLatency { edge, factor }])
                .expect("scale events apply cleanly");
        }
    }) / events as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wardrop_core::board::BulletinBoard;
    use wardrop_core::edge_engine::{EdgeSimulation, PathSeeding};
    use wardrop_core::policy::{ReroutingPolicy, SmoothPolicy};
    use wardrop_core::{Linear, Uniform};

    #[test]
    fn workload_is_well_formed() {
        let w = engine_workload("braess", builders::braess(), 0.1, 10);
        assert!(w.f0.is_feasible(&w.instance, 1e-9));
        assert_eq!(w.config.num_phases, 10);
    }

    #[test]
    fn apply_event_timer_runs() {
        let w = &small_engine_workloads()[0];
        let ns = time_apply_event(w, 8);
        assert!(ns > 0.0);
    }

    #[test]
    fn implicit_workloads_cross_the_enumeration_frontier() {
        let ws = implicit_path_workloads();
        let frontier = ws
            .iter()
            .find(|w| w.name == "grid_14x14")
            .expect("the acceptance frontier row must exist");
        assert!(!frontier.enumerated_feasible);
        // C(26, 13) = 10 400 600 — two orders of magnitude past the
        // default enumeration cap.
        assert_eq!(frontier.edge.total_implicit_path_count(), 10_400_600.0);
        assert_eq!(frontier.config.num_phases, 40);
        // All 40 phases run on a handful of columns, never near the
        // enumeration the instance rules out.
        let policy = SmoothPolicy::new(
            Uniform,
            Linear::new(frontier.edge.latency_upper_bound().max(f64::MIN_POSITIVE)),
        );
        let mut sim = EdgeSimulation::new(
            &frontier.edge,
            &policy,
            &frontier.config,
            &PathSeeding::default(),
        )
        .expect("grid_14x14 seeds cleanly");
        while sim.step().is_some() {}
        assert_eq!(sim.phases_run(), 40);
        assert!(
            sim.active_path_count() <= 10_000,
            "grid_14x14 materialised {} columns",
            sim.active_path_count()
        );
    }

    #[test]
    fn frontier_workloads_cross_the_path_threshold() {
        let ws = frontier_engine_workloads();
        assert!(
            ws.iter().any(|w| w.instance.num_paths() >= 40_000),
            "need a P ≥ 40 000 frontier workload"
        );
        for w in &ws {
            assert_eq!(w.config.num_phases, 40);
            assert!(w.f0.is_feasible(&w.instance, 1e-9), "{}", w.name);
            let board = BulletinBoard::post(&w.instance, &w.f0, 0.0);
            let rates = uniform_linear(&w.instance).phase_rates(&w.instance, &board);
            assert!(
                rates.is_matrix_free(),
                "{} fell back to dense rates",
                w.name
            );
        }
        // The largest workload stays matrix-free through all 40 phases:
        // the rates filled from its final board allocate no dense block.
        let w = ws
            .iter()
            .find(|w| w.name == "grid_10x10")
            .expect("the P ≥ 40 000 workload");
        let policy = uniform_linear(&w.instance);
        let mut sim = Simulation::new(&w.instance, &policy, &w.f0, &w.config);
        while sim.step().is_some() {}
        assert_eq!(sim.phases_run(), 40);
        let rates = policy.phase_rates(&w.instance, sim.board());
        assert!(
            rates.is_matrix_free(),
            "grid_10x10 fell back to dense rates"
        );
        assert_eq!(rates.dense_elements(), 0);
    }
}
