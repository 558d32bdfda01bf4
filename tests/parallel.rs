//! Determinism of the multi-threaded engine: `Parallelism::Threads(n)`
//! must produce **bit-identical** trajectories to `Parallelism::Serial`
//! — same phase records, same recorded flows, same final flow — for
//! every policy in the stock zoo, across scenario events, for 2, 4 and
//! 8 workers.
//!
//! The instances are sized to genuinely cross the engine's parallel
//! dispatch gates (grid_8x8-based: 3432+ paths, 48k+ incidences), so
//! the pooled evaluation, rate fill and generator applies actually run
//! on the worker lanes rather than falling back to the serial loop.

use proptest::prelude::*;
use wardrop::core::ensemble::{run_many, RunSpec};
use wardrop::core::Parallelism;
use wardrop::core::WorkerPool;
use wardrop::prelude::*;

proptest! {
    // Each case runs the 12-policy zoo at 4 lane counts on a large
    // grid — keep the case count small; coverage comes from the zoo ×
    // worker sweep inside.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn parallel_matches_serial_bitwise(
        seed in 0u64..1000,
        k in 2usize..6,
        event_phase in 0usize..2,
        factor in 0.5f64..2.0,
        demand in 0.15f64..0.6,
        single in 0u32..2,
    ) {
        let single = single == 1;
        // Alternate between the single-commodity grid (pooled
        // evaluation; one block, so fill and sweeps run serially) and
        // the many-commodity grid (block-level fill and sweep fan-out,
        // mixed block sizes).
        let inst = if single {
            builders::grid_network(8, 8, seed)
        } else {
            builders::many_commodity_grid(8, 8, k, seed)
        };
        let f0 = FlowVec::uniform(&inst);
        // A scenario with a latency shock (and, when admissible, a
        // demand surge): events must not break bit-identity either.
        let mut scenario = Scenario::new("shock").with_event(Event::at(
            event_phase,
            "degrade",
            EventAction::ScaleLatency { edge: EdgeId::from_index(0), factor },
        ));
        if !single {
            scenario = scenario.with_event(Event::at(
                event_phase + 1,
                "surge",
                EventAction::SetDemand { commodity: 0, demand },
            ));
        }

        let policies = stock_policy_zoo(inst.latency_upper_bound().max(1e-6));
        prop_assert_eq!(policies.len(), 12);
        let serial_config = SimulationConfig::new(1.0, 3).with_flows();
        for policy in &policies {
            let serial = run_scenario(&inst, policy.as_ref(), &f0, &serial_config, &scenario)
                .expect("serial scenario run");
            for workers in [2usize, 4, 8] {
                let config = serial_config
                    .clone()
                    .with_parallelism(Parallelism::Threads(workers));
                let par = run_scenario(&inst, policy.as_ref(), &f0, &config, &scenario)
                    .expect("parallel scenario run");
                // Bit-identical phase records (potential, virtual gain,
                // regret, volumes — PhaseRecord equality is exact f64
                // equality), recorded flows and final flow.
                prop_assert!(
                    par.phases == serial.phases,
                    "records diverged: {} at {} workers", policy.name(), workers
                );
                prop_assert!(
                    par.flows == serial.flows,
                    "flows diverged: {} at {} workers", policy.name(), workers
                );
                prop_assert!(
                    par.final_flow == serial.final_flow,
                    "final flow diverged: {} at {} workers", policy.name(), workers
                );
                for (a, b) in par.phases.iter().zip(&serial.phases) {
                    prop_assert!(
                        a.potential_start.to_bits() == b.potential_start.to_bits(),
                        "potential bits diverged: {} at {} workers", policy.name(), workers
                    );
                }
            }
        }
    }

    /// The ensemble runner is lane-transparent too: fanning runs across
    /// a pool returns exactly the per-run serial results, in order.
    #[test]
    fn ensemble_runner_is_lane_transparent(
        m in 3usize..8,
        seeds in proptest::collection::vec(0u64..500, 2..6),
        t in 0.05f64..0.5,
    ) {
        let insts: Vec<Instance> = seeds
            .iter()
            .map(|s| builders::standard_random_links(m, *s))
            .collect();
        let policy = uniform_linear(&insts[0]);
        let config = SimulationConfig::new(t, 12).with_flows();
        let reference: Vec<Trajectory> = insts
            .iter()
            .map(|i| run(i, &policy, &FlowVec::uniform(i), &config))
            .collect();
        for lanes in [1usize, 3] {
            let pool = WorkerPool::new(lanes);
            let specs: Vec<RunSpec<'_, _>> = insts
                .iter()
                .map(|i| RunSpec::new(i, &policy, FlowVec::uniform(i), config.clone()))
                .collect();
            let got = run_many(Some(&pool), &specs);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(&g.phases, &r.phases);
                prop_assert_eq!(&g.flows, &r.flows);
                prop_assert_eq!(&g.final_flow, &r.final_flow);
            }
        }
    }
}

/// The implicit-path backend is lane-transparent too: seeded with the
/// full grid_8x8 path set (3432 columns — past the 2048-path parallel
/// dispatch gate, so the pooled evaluation genuinely runs on the worker
/// lanes), `Threads(n)` trajectories are bit-identical to
/// serial for 2, 4 and 8 lanes, through scenario events.
#[test]
fn edge_backend_is_lane_transparent() {
    use wardrop::core::edge_engine::{run_edge_scenario, PathSeeding};
    use wardrop::net::edge_flow::EdgeInstance;

    let inst = builders::grid_network(8, 8, 7);
    let edge = EdgeInstance::from_instance(&inst).expect("grids are DAGs");
    let seeding = PathSeeding::full(&inst);
    let policy = uniform_linear(&inst);
    let scenario = Scenario::new("shock").with_event(Event::at(
        1,
        "degrade",
        EventAction::ScaleLatency {
            edge: EdgeId::from_index(0),
            factor: 1.7,
        },
    ));
    let serial_config = SimulationConfig::new(1.0, 3).with_flows();
    let serial = run_edge_scenario(&edge, &policy, &serial_config, &seeding, &scenario)
        .expect("serial edge run");
    for workers in [1usize, 2, 4, 8] {
        let config = serial_config
            .clone()
            .with_parallelism(Parallelism::Threads(workers));
        let par = run_edge_scenario(&edge, &policy, &config, &seeding, &scenario)
            .expect("parallel edge run");
        assert!(
            par.phases == serial.phases,
            "edge records diverged at {workers} workers"
        );
        assert!(
            par.flows == serial.flows && par.final_flow == serial.final_flow,
            "edge flows diverged at {workers} workers"
        );
        for (a, b) in par.phases.iter().zip(&serial.phases) {
            assert!(
                a.potential_start.to_bits() == b.potential_start.to_bits(),
                "edge potential bits diverged at {workers} workers"
            );
        }
    }
}
