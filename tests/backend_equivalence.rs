//! Differential validation of the implicit-path (edge-flow) backend
//! against the enumerated engine.
//!
//! Seeding [`EdgeSimulation`] with the **full enumerated path set** (in
//! enumeration order) makes its restricted instance structurally
//! identical to the enumerated one — both go through the same CSR
//! assembly — so every phase of the two engines must agree. The suite
//! asserts agreement across random small DAG instances, the full
//! 12-policy stock zoo, and non-stationary scenario epochs
//! (`apply_event`). The ISSUE tolerance is 1e-9 on edge flows and
//! per-phase potentials; the engines actually agree **bitwise**, which
//! the assertions also pin (f64 `==` on every record field).
//!
//! Oracle seeding (the production mode) cannot be bit-compared to the
//! enumerated engine — it deliberately runs on a strict subset of
//! columns — so for it the suite checks the structural invariants:
//! feasibility on the restriction, potential bracketed by the
//! enumerated run's optimum certificate, and monotone improvement for
//! smooth policies within the safe period.

use proptest::prelude::*;
use wardrop::core::edge_engine::{run_edge, run_edge_scenario, PathSeeding};
use wardrop::core::engine::run_scenario_audited;
use wardrop::net::edge_flow::EdgeInstance;
use wardrop::prelude::*;

/// Largest absolute difference between two recorded flows' edge flows.
fn max_edge_flow_diff(inst: &Instance, a: &FlowVec, b: &FlowVec) -> f64 {
    a.edge_flows(inst)
        .iter()
        .zip(&b.edge_flows(inst))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    // Each case sweeps the 12-policy zoo on both backends; a handful
    // of cases gives broad instance coverage without a long run.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full-seed edge-flow runs reproduce the enumerated trajectories
    /// on random small DAG instances across the stock policy zoo,
    /// through scenario events.
    #[test]
    fn edge_backend_matches_enumerated(
        seed in 0u64..1000,
        k in 2usize..4,
        event_phase in 0usize..2,
        factor in 0.5f64..2.0,
        demand in 0.15f64..0.6,
        family in 0u32..3,
    ) {
        let inst = match family {
            0 => builders::grid_network(3, 3, seed),
            1 => builders::multi_commodity_grid(3, 3, seed),
            _ => builders::many_commodity_grid(3, 4, k, seed),
        };
        let edge = EdgeInstance::from_instance(&inst).expect("builders emit DAGs");
        let f0 = FlowVec::uniform(&inst);

        // A latency shock plus (when multi-commodity) a demand surge:
        // scenario epochs must preserve agreement too.
        let mut scenario = Scenario::new("shock").with_event(Event::at(
            event_phase,
            "degrade",
            EventAction::ScaleLatency { edge: EdgeId::from_index(0), factor },
        ));
        if inst.num_commodities() > 1 {
            scenario = scenario.with_event(Event::at(
                event_phase + 1,
                "surge",
                EventAction::SetDemand { commodity: 0, demand },
            ));
        }

        let policies = stock_policy_zoo(inst.latency_upper_bound().max(1e-6));
        prop_assert_eq!(policies.len(), 12);
        let config = SimulationConfig::new(0.5, 4).with_flows();
        let seeding = PathSeeding::full(&inst);
        for policy in &policies {
            let reference = run_scenario(&inst, policy.as_ref(), &f0, &config, &scenario)
                .expect("enumerated scenario run");
            let traj = run_edge_scenario(&edge, policy.as_ref(), &config, &seeding, &scenario)
                .expect("edge-flow scenario run");

            // ISSUE tolerances: ≤ 1e-9 per phase on potentials and
            // edge flows…
            prop_assert_eq!(traj.phases.len(), reference.phases.len());
            for (a, b) in traj.phases.iter().zip(&reference.phases) {
                prop_assert!(
                    (a.potential_start - b.potential_start).abs() <= 1e-9
                        && (a.potential_end - b.potential_end).abs() <= 1e-9,
                    "potential diverged for {} at phase {}", policy.name(), b.index
                );
            }
            prop_assert_eq!(traj.flows.len(), reference.flows.len());
            for (a, b) in traj.flows.iter().zip(&reference.flows) {
                prop_assert!(
                    max_edge_flow_diff(&inst, a, b) <= 1e-9,
                    "edge flows diverged for {}", policy.name()
                );
            }
            // …and the stronger truth: the trajectories are identical,
            // record for record (PhaseRecord equality is exact f64
            // equality on every field, epochs included).
            prop_assert!(
                traj.phases == reference.phases,
                "records diverged for {}", policy.name()
            );
            prop_assert!(
                traj.flows == reference.flows && traj.final_flow == reference.final_flow,
                "flows diverged for {}", policy.name()
            );
        }
    }

    /// Oracle seeding runs on a strict subset of columns, so instead of
    /// bit-equality: restricted feasibility, a potential no better than
    /// the true optimum, and Lemma-4 monotonicity for a smooth policy
    /// within the safe period.
    #[test]
    fn oracle_seeding_respects_enumerated_invariants(
        seed in 0u64..1000,
        random_paths in 0usize..6,
        rng_seed in 0u64..100,
    ) {
        let inst = builders::grid_network(4, 4, seed);
        let edge = EdgeInstance::from_instance(&inst).expect("grids are DAGs");
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(0.4, 30).with_flows();
        let seeding = PathSeeding::Oracle { random_paths, seed: rng_seed };
        let traj = run_edge(&edge, &policy, &config, &seeding).expect("oracle-seeded run");
        prop_assert_eq!(traj.phases.len(), 30);
        // Monotone potential (smooth policy, conservative period).
        for w in traj.phases.windows(2) {
            prop_assert!(w[1].potential_start <= w[0].potential_start + 1e-9);
        }
        // The restriction can never beat the full-polytope optimum.
        let phi_star = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default()).value;
        prop_assert!(traj.phases.last().unwrap().potential_end >= phi_star - 1e-6);
        // Recorded flows are genuine distributions: every phase-start
        // snapshot sums to the (unit) total demand per commodity.
        for flow in &traj.flows {
            let total: f64 = flow.values().iter().sum();
            prop_assert!((total - 1.0).abs() <= 1e-6, "mass drifted to {total}");
        }
    }
}

/// A path whose endpoints don't match the commodity is rejected at
/// seeding time, not silently mis-assembled.
#[test]
fn mismatched_explicit_seed_is_rejected() {
    let inst = builders::multi_commodity_grid(3, 3, 5);
    let edge = EdgeInstance::from_instance(&inst).unwrap();
    let policy = uniform_linear(&inst);
    let config = SimulationConfig::new(0.5, 2);
    // Swap the two commodities' path lists: every path now has the
    // wrong endpoints for its slot.
    let PathSeeding::Explicit(mut swapped) = PathSeeding::full(&inst) else {
        unreachable!("full seeding is explicit")
    };
    swapped.reverse();
    let err = run_edge(&edge, &policy, &config, &PathSeeding::Explicit(swapped)).unwrap_err();
    assert!(matches!(err, NetError::Inconsistent(_)), "got {err:?}");
}

/// The knob matrix of the full-seed equivalence test: every engine
/// option people actually run, alone and combined. Each config runs
/// eight phases so the scenario events, the fault outage and the early
/// stops all land inside the run.
fn knob_matrix() -> Vec<(&'static str, SimulationConfig)> {
    let base = SimulationConfig::new(0.5, 8).with_flows();
    let plan = FaultPlan::new(17)
        .with_drop_probability(0.25)
        .unwrap()
        .with_partial_updates(0.6)
        .unwrap()
        .with_noise(0.05)
        .unwrap()
        .with_outage(4, 6)
        .unwrap()
        .with_staleness(0, 2)
        .unwrap();
    let everything = base
        .clone()
        .with_integrator(Integrator::Rk4 { dt: 0.1 })
        .with_faults(plan.clone())
        .with_guard(GuardConfig::default())
        .with_stop_phase_delta(1e-4)
        .with_jitter(0.3, 7)
        .with_board_precision(BoardPrecision::F32)
        .with_stop_regret(1e-3)
        .with_record_stride(3);
    vec![
        ("default", base.clone()),
        (
            "euler",
            base.clone().with_integrator(Integrator::Euler { dt: 0.05 }),
        ),
        (
            "rk4",
            base.clone().with_integrator(Integrator::Rk4 { dt: 0.1 }),
        ),
        ("faults", base.clone().with_faults(plan.clone())),
        ("guard", base.clone().with_guard(GuardConfig::default())),
        (
            "faults+guard",
            base.clone()
                .with_faults(plan)
                .with_guard(GuardConfig::default()),
        ),
        ("phase_delta_stop", base.clone().with_stop_phase_delta(1e-4)),
        (
            "jitter+f32",
            base.clone()
                .with_jitter(0.3, 7)
                .with_board_precision(BoardPrecision::F32),
        ),
        ("regret_stop", base.clone().with_stop_regret(1e-3)),
        ("record_stride", base.with_record_stride(3)),
        ("everything", everything),
    ]
}

/// What one edge-backend run leaves behind: the trajectory plus the
/// audit trail `run_scenario_audited` reports for the enumerated run.
type AuditedRun = (Trajectory, Option<FaultStats>, Option<GuardLog>);

/// Drives an [`EdgeSimulation`] through `scenario` step by step,
/// collecting what `run_scenario_audited` collects.
fn run_edge_audited(
    edge: &EdgeInstance,
    policy: &dyn ReroutingPolicy,
    config: &SimulationConfig,
    seeding: &PathSeeding,
    scenario: &Scenario,
) -> AuditedRun {
    let mut sim = EdgeSimulation::new(edge, policy, config, seeding).expect("edge simulation");
    let stride = config.effective_stride();
    let (mut phases, mut flows) = (Vec::new(), Vec::new());
    let mut events = scenario.events().iter().peekable();
    loop {
        while let Some(event) = events.next_if(|e| e.at_phase <= sim.phases_run()) {
            sim.apply_event(&event.actions).expect("edge event");
        }
        let start = (config.record_flows && sim.phases_run().is_multiple_of(stride))
            .then(|| sim.flow().clone());
        let Some(record) = sim.step() else { break };
        flows.extend(start);
        phases.push(record);
    }
    let traj = Trajectory {
        update_period: config.update_period,
        deltas: config.deltas.clone(),
        phases,
        flows,
        flow_stride: stride,
        final_flow: sim.flow().clone(),
        dynamics: policy.name(),
    };
    (traj, sim.fault_stats().copied(), sim.guard_log().cloned())
}

/// Full-seed bit-identity under every engine knob: three instance
/// families × the 11-config knob matrix × the 12-policy zoo, each run
/// through a latency shock and (multi-commodity) a demand surge. The
/// edge backend must reproduce `run_scenario_audited` exactly — records,
/// recorded flows, final flow, fault counters and governor log — both
/// through `run_edge_scenario` and when stepped directly.
#[test]
fn full_seed_matches_enumerated_under_every_knob() {
    let mut pairs = 0;
    for (family, inst) in [
        ("grid", builders::grid_network(3, 3, 11)),
        ("multi", builders::multi_commodity_grid(3, 3, 5)),
        ("many", builders::many_commodity_grid(3, 4, 3, 9)),
    ] {
        let edge = EdgeInstance::from_instance(&inst).expect("builders emit DAGs");
        let f0 = FlowVec::uniform(&inst);
        let seeding = PathSeeding::full(&inst);
        let mut scenario = Scenario::new("shock").with_event(Event::at(
            2,
            "degrade",
            EventAction::ScaleLatency {
                edge: EdgeId::from_index(1),
                factor: 2.5,
            },
        ));
        if inst.num_commodities() > 1 {
            scenario = scenario.with_event(Event::at(
                3,
                "surge",
                EventAction::SetDemand {
                    commodity: 0,
                    demand: 0.6,
                },
            ));
        }
        let policies = stock_policy_zoo(inst.latency_upper_bound().max(1e-6));
        assert_eq!(policies.len(), 12);
        for (knobs, config) in knob_matrix() {
            for policy in &policies {
                let context = format!("{family} / {knobs} / {}", policy.name());
                let (reference, stats, log) =
                    run_scenario_audited(&inst, policy.as_ref(), &f0, &config, &scenario)
                        .expect("enumerated scenario run");
                let (traj, edge_stats, edge_log) =
                    run_edge_audited(&edge, policy.as_ref(), &config, &seeding, &scenario);
                assert!(traj.phases == reference.phases, "records: {context}");
                assert!(traj.flows == reference.flows, "flows: {context}");
                assert!(
                    traj.final_flow == reference.final_flow,
                    "final flow: {context}"
                );
                assert_eq!(edge_stats, stats, "fault stats: {context}");
                assert_eq!(edge_log, log, "guard log: {context}");
                let driven =
                    run_edge_scenario(&edge, policy.as_ref(), &config, &seeding, &scenario)
                        .expect("edge scenario run");
                assert!(driven == reference, "run_edge_scenario: {context}");
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 3 * 11 * 12);
}

/// Asserts that `eval`, left behind by an event, equals a fresh full
/// evaluation of `flow` on `inst` bit for bit.
fn assert_matches_fresh_evaluation(
    label: &str,
    inst: &Instance,
    flow: &FlowVec,
    eval: &EvalWorkspace,
) {
    let mut fresh = EvalWorkspace::new(inst);
    fresh.evaluate(inst, flow);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(eval.edge_flows()),
        bits(fresh.edge_flows()),
        "{label}: edge flows"
    );
    assert_eq!(
        bits(eval.edge_latencies()),
        bits(fresh.edge_latencies()),
        "{label}: edge latencies"
    );
    assert_eq!(
        bits(eval.path_latencies()),
        bits(fresh.path_latencies()),
        "{label}: path latencies"
    );
    assert_eq!(
        eval.potential().to_bits(),
        fresh.potential().to_bits(),
        "{label}: potential"
    );
    assert_eq!(
        bits(eval.commodity_min_latencies()),
        bits(fresh.commodity_min_latencies()),
        "{label}: commodity minima"
    );
    assert_eq!(
        bits(eval.commodity_avg_latencies()),
        bits(fresh.commodity_avg_latencies()),
        "{label}: commodity averages"
    );
    assert_eq!(
        eval.avg_latency().to_bits(),
        fresh.avg_latency().to_bits(),
        "{label}: average latency"
    );
}

/// `s → m` is a bridge every path uses, three routes lead on from `m`
/// to `t`, and `s → x` is a dead end no path uses.
fn bridged_network() -> Instance {
    let mut g = Graph::new();
    let [s, m, a, t, x] = [(); 5].map(|_| g.add_node());
    g.add_edge(s, m);
    g.add_edge(m, t);
    g.add_edge(m, a);
    g.add_edge(a, t);
    g.add_edge(m, t);
    g.add_edge(s, x);
    let latencies = vec![
        Latency::Affine { a: 0.2, b: 1.0 },
        Latency::Affine { a: 0.5, b: 2.0 },
        Latency::Affine { a: 0.1, b: 0.5 },
        Latency::Affine { a: 0.3, b: 0.7 },
        Latency::Affine { a: 0.9, b: 0.1 },
        Latency::Affine { a: 1.0, b: 1.0 },
    ];
    Instance::new(g, latencies, vec![Commodity::new(s, t, 1.0)]).unwrap()
}

/// The latency events of the refresh check on an instance with
/// `num_edges` edges: a replacement, ×4 and ×¼ scalings, and a
/// two-action event that hits the same edge twice.
fn latency_events(num_edges: usize) -> Vec<Vec<EventAction>> {
    let e = |i: usize| EdgeId::from_index(i % num_edges);
    vec![
        vec![EventAction::SetLatency {
            edge: e(1),
            latency: Latency::Affine { a: 0.4, b: 3.0 },
        }],
        vec![EventAction::ScaleLatency {
            edge: e(2),
            factor: 4.0,
        }],
        vec![EventAction::ScaleLatency {
            edge: e(2),
            factor: 0.25,
        }],
        vec![
            EventAction::ScaleLatency {
                edge: e(3),
                factor: 3.0,
            },
            EventAction::SetLatency {
                edge: e(3),
                latency: Latency::Affine { a: 0.05, b: 0.5 },
            },
        ],
    ]
}

/// A latency-only event refreshes the evaluation in place instead of
/// re-running it: the changed edges, the potential re-sum and the path
/// gather, without a scatter. After every such event — on an enumerated grid
/// large enough for the pooled evaluation (CI re-runs this suite at
/// `WARDROP_THREADS=2`), on a network with a bridge every path uses and
/// a dead-end edge none does, and on the oracle-seeded implicit
/// backend — the cached evaluation must equal a fresh full one bit for
/// bit.
#[test]
fn latency_event_refresh_matches_full_evaluation() {
    // grid_8x8: 48,048 incidences, above the pooled-evaluation gate.
    let grid = builders::grid_network(8, 8, 5);
    let bridged = bridged_network();
    let mut bridge_events = latency_events(bridged.num_edges());
    for (edge, factor) in [(0, 4.0), (5, 4.0), (0, 0.25), (5, 0.25)] {
        bridge_events.push(vec![EventAction::ScaleLatency {
            edge: EdgeId::from_index(edge),
            factor,
        }]);
    }
    let uses = |inst: &Instance, e: usize| {
        let e = EdgeId::from_index(e);
        let rows = inst.path_edge_rows();
        (0..inst.num_paths())
            .filter(|&p| rows.row(p).contains(&e))
            .count()
    };
    assert_eq!(uses(&bridged, 5), 0);
    assert_eq!(uses(&bridged, 0), bridged.num_paths());
    for (label, inst, events) in [
        ("grid_8x8", &grid, latency_events(grid.num_edges())),
        ("bridged", &bridged, bridge_events),
    ] {
        let policy = uniform_linear(inst);
        let config = SimulationConfig::new(0.5, 100);
        let mut sim = Simulation::new(inst, &policy, &FlowVec::uniform(inst), &config);
        let edge = EdgeInstance::from_instance(inst).expect("builders emit DAGs");
        let mut implicit =
            EdgeSimulation::new(&edge, &policy, &config, &PathSeeding::full(inst)).unwrap();
        for (k, actions) in events.iter().enumerate() {
            sim.step().unwrap();
            implicit.step().unwrap();
            sim.apply_event(actions).unwrap();
            implicit.apply_event(actions).unwrap();
            let label = format!("{label} event {k}");
            assert_matches_fresh_evaluation(&label, sim.instance(), sim.flow(), sim.eval());
            let (restricted, flow) = (implicit.restricted(), implicit.flow());
            assert_matches_fresh_evaluation(&label, restricted, flow, implicit.eval());
        }
    }

    // Oracle seeding leaves most edges outside the active set: cover an
    // edge no active path uses alongside the events above.
    let edge = builders::grid_edge_network(6, 6, 7);
    let policy = SmoothPolicy::new(
        Uniform,
        Linear::new(edge.latency_upper_bound().max(f64::MIN_POSITIVE)),
    );
    let config = SimulationConfig::new(0.5, 100);
    let mut sim = EdgeSimulation::new(&edge, &policy, &config, &PathSeeding::default()).unwrap();
    let events = latency_events(edge.num_edges());
    for k in 0..=events.len() {
        sim.step().unwrap();
        let actions = match events.get(k) {
            Some(actions) => actions.clone(),
            None => {
                let unused = (0..edge.num_edges())
                    .find(|&e| uses(sim.restricted(), e) == 0)
                    .expect("oracle seeding leaves edges unused");
                vec![EventAction::ScaleLatency {
                    edge: EdgeId::from_index(unused),
                    factor: 4.0,
                }]
            }
        };
        sim.apply_event(&actions).unwrap();
        let (restricted, flow) = (sim.restricted(), sim.flow());
        assert_matches_fresh_evaluation(&format!("oracle event {k}"), restricted, flow, sim.eval());
    }
}
