//! Property-based tests (proptest) on the model's invariants.
//!
//! Strategies generate random parallel-link and layered instances,
//! random feasible flows and random phase lengths; the properties are
//! the paper's structural facts: mass conservation, exact potential
//! decomposition (Lemma 3), monotone potential for smooth policies
//! within the safe period (Lemma 4), integrator agreement, and
//! equilibrium-notion orderings.

use proptest::prelude::*;
use wardrop::net::potential::lemma3_residual;
use wardrop::prelude::*;

/// Strategy: a random parallel-link instance with affine latencies.
fn arb_parallel_instance() -> impl Strategy<Value = Instance> {
    (2usize..10, 0u64..1000)
        .prop_map(|(m, seed)| builders::random_parallel_links(m, 1.0, 0.1, 2.0, seed))
}

/// Strategy: a random layered instance (small, multi-edge paths).
fn arb_layered_instance() -> impl Strategy<Value = Instance> {
    (1usize..3, 2usize..4, 0u64..1000)
        .prop_map(|(layers, width, seed)| builders::layered_network(layers, width, seed))
}

/// Strategy: a feasible random flow for an instance, built from
/// non-negative weights normalised per commodity.
fn arb_flow(inst: &Instance) -> impl Strategy<Value = FlowVec> {
    let n = inst.num_paths();
    let ranges: Vec<std::ops::Range<usize>> = (0..inst.num_commodities())
        .map(|i| inst.commodity_paths(i))
        .collect();
    let demands: Vec<f64> = inst.commodities().iter().map(|c| c.demand).collect();
    proptest::collection::vec(0.01f64..1.0, n).prop_map(move |mut w| {
        for (range, demand) in ranges.iter().zip(&demands) {
            let total: f64 = w[range.clone()].iter().sum();
            for v in &mut w[range.clone()] {
                *v *= demand / total;
            }
        }
        FlowVec::from_values_unchecked(w)
    })
}

/// Checks Lemma 4 ⇒ Corollary 5 under the configurations people run:
/// every α-smooth row of the stock zoo, each on the default integrator,
/// an `F32` board, Euler, RK4 and the oracle-seeded implicit-path
/// backend. `config_at` builds the run's configuration from the row's
/// safe period `T*`; the enumerated runs start from `f0`, the implicit
/// run from its own seeded columns.
fn assert_lemma4_under_zoo(
    inst: &Instance,
    f0: &FlowVec,
    config_at: impl Fn(f64) -> SimulationConfig,
) -> Result<(), TestCaseError> {
    let edge = EdgeInstance::from_instance(inst).expect("parallel links form a DAG");
    let seeding = PathSeeding::Oracle {
        random_paths: 2,
        seed: 0,
    };
    let zoo = stock_policy_zoo(inst.latency_upper_bound().max(1e-6));
    let smooth: Vec<_> = zoo.iter().filter(|p| p.smoothness().is_some()).collect();
    prop_assert_eq!(smooth.len(), 6);
    for policy in smooth {
        let config = config_at(safe_update_period(inst, policy.smoothness().unwrap()));
        let t = config.update_period;
        let variants = [
            ("default", config.clone()),
            (
                "f32",
                config.clone().with_board_precision(BoardPrecision::F32),
            ),
            (
                "euler",
                config
                    .clone()
                    .with_integrator(Integrator::Euler { dt: t / 16.0 }),
            ),
            (
                "rk4",
                config
                    .clone()
                    .with_integrator(Integrator::Rk4 { dt: t / 4.0 }),
            ),
        ];
        let mut runs: Vec<(&str, Trajectory)> = variants
            .iter()
            .map(|(name, cfg)| (*name, run(inst, policy.as_ref(), f0, cfg)))
            .collect();
        let implicit = run_edge(&edge, policy.as_ref(), &config, &seeding).expect("implicit run");
        runs.push(("implicit", implicit));
        for (name, traj) in &runs {
            let violations = (
                traj.monotonicity_violations(1e-10),
                traj.lemma4_violations(1e-10),
            );
            prop_assert!(
                violations == (0, 0),
                "{} / {name}: (monotonicity, Lemma 4) violations {violations:?}",
                policy.name()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 3 is an identity: the residual vanishes for every pair of
    /// feasible flows on every instance.
    #[test]
    fn lemma3_identity_universal(
        inst in arb_parallel_instance(),
    ) {
        let runner = |a: &FlowVec, b: &FlowVec| {
            prop_assert!(lemma3_residual(&inst, a, b).abs() < 1e-10);
            Ok(())
        };
        let uniform = FlowVec::uniform(&inst);
        let conc = FlowVec::concentrated(&inst);
        runner(&uniform, &conc)?;
        runner(&conc, &uniform)?;
    }

    /// Lemma 3 on layered networks with random flows.
    #[test]
    fn lemma3_identity_layered(
        (inst, seedflow) in arb_layered_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        })
    ) {
        let g = FlowVec::uniform(&inst);
        prop_assert!(lemma3_residual(&inst, &seedflow, &g).abs() < 1e-10);
    }

    /// One engine phase conserves mass per commodity and keeps flows
    /// non-negative, for random starts and phase lengths.
    #[test]
    fn engine_phase_preserves_feasibility(
        (inst, f0) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        tau in 0.01f64..2.0,
    ) {
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(tau, 3);
        let traj = run(&inst, &policy, &f0, &config);
        prop_assert!(traj.final_flow.is_feasible(&inst, 1e-6));
    }

    /// Uniformization and RK4 agree on arbitrary phases.
    #[test]
    fn integrators_agree(
        (inst, f0) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        tau in 0.01f64..3.0,
    ) {
        use wardrop::core::board::BulletinBoard;
        use wardrop::core::policy::ReroutingPolicy;
        let policy = uniform_linear(&inst);
        let board = BulletinBoard::post(&inst, &f0, 0.0);
        let rates = policy.phase_rates(&inst, &board);
        let mut a = f0.values().to_vec();
        Integrator::Uniformization { tol: 1e-13 }.advance(&rates, &mut a, tau);
        let mut b = f0.values().to_vec();
        Integrator::Rk4 { dt: 0.01 }.advance(&rates, &mut b, tau);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
        }
    }

    /// Strict (δ,ε)-equilibria are weak (δ,ε)-equilibria (Definitions
    /// 3 and 4), and unsatisfied volumes are monotone in δ.
    #[test]
    fn equilibrium_notions_ordered(
        (inst, f) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        delta in 0.0f64..1.0,
    ) {
        use wardrop::net::equilibrium::{unsatisfied_volume, weakly_unsatisfied_volume};
        let strict = unsatisfied_volume(&inst, &f, delta);
        let weak = weakly_unsatisfied_volume(&inst, &f, delta);
        prop_assert!(weak <= strict + 1e-12);
        let strict_wider = unsatisfied_volume(&inst, &f, delta + 0.1);
        prop_assert!(strict_wider <= strict + 1e-12);
    }

    /// The potential is bounded by ℓmax and the Frank–Wolfe optimum
    /// lower-bounds it for every feasible flow.
    #[test]
    fn potential_bounds(
        (inst, f) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
    ) {
        let phi = potential(&inst, &f);
        prop_assert!(phi >= 0.0);
        prop_assert!(phi <= inst.latency_upper_bound() + 1e-9);
        let phi_star = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default()).value;
        prop_assert!(phi >= phi_star - 1e-6);
    }

    /// Migration rules are α-smooth: µ ≤ α·gap on random latency pairs.
    #[test]
    fn migration_rules_respect_declared_smoothness(
        lmax in 0.5f64..10.0,
        lp in 0.0f64..10.0,
        lq in 0.0f64..10.0,
    ) {
        let lin = Linear::new(lmax);
        let alpha = lin.smoothness().unwrap();
        if lp > lq {
            prop_assert!(lin.probability(lp, lq) <= alpha * (lp - lq) + 1e-12);
        } else {
            prop_assert_eq!(lin.probability(lp, lq), 0.0);
        }
        let sl = ScaledLinear::new(2.0);
        if lp > lq {
            prop_assert!(sl.probability(lp, lq) <= 2.0 * (lp - lq) + 1e-12);
        }
    }

    /// The safe update period scales as predicted: halving α doubles T*.
    #[test]
    fn safe_period_scales_inversely_with_alpha(
        inst in arb_parallel_instance(),
        alpha in 0.01f64..10.0,
    ) {
        let t1 = safe_update_period(&inst, alpha);
        let t2 = safe_update_period(&inst, alpha / 2.0);
        if t1.is_finite() {
            prop_assert!((t2 / t1 - 2.0).abs() < 1e-9);
        }
    }

    /// The fused evaluation workspace reproduces every naive metric
    /// bit-for-bit (or within re-association error) on random
    /// instances and flows.
    #[test]
    fn fused_evaluation_matches_naive(
        (inst, f) in arb_layered_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        delta in 0.0f64..0.5,
    ) {
        use wardrop::net::equilibrium::{max_regret, unsatisfied_volume, weakly_unsatisfied_volume};
        use wardrop::net::eval::EvalWorkspace;
        let mut ws = EvalWorkspace::new(&inst);
        ws.evaluate(&inst, &f);
        prop_assert_eq!(ws.edge_flows().to_vec(), f.edge_flows(&inst));
        prop_assert_eq!(ws.edge_latencies().to_vec(), f.edge_latencies(&inst));
        prop_assert_eq!(ws.path_latencies().to_vec(), f.path_latencies(&inst));
        prop_assert_eq!(
            ws.commodity_min_latencies().to_vec(),
            f.commodity_min_latencies(&inst)
        );
        prop_assert_eq!(
            ws.commodity_avg_latencies().to_vec(),
            f.commodity_avg_latencies(&inst)
        );
        prop_assert_eq!(ws.potential(), potential(&inst, &f));
        prop_assert!((ws.avg_latency() - f.avg_latency(&inst)).abs() < 1e-12);
        prop_assert_eq!(
            ws.max_regret(&inst, &f, 1e-12),
            max_regret(&inst, &f, 1e-12)
        );
        prop_assert_eq!(
            ws.unsatisfied_volume(&inst, &f, delta),
            unsatisfied_volume(&inst, &f, delta)
        );
        prop_assert_eq!(
            ws.weakly_unsatisfied_volume(&inst, &f, delta),
            weakly_unsatisfied_volume(&inst, &f, delta)
        );
    }

    /// The zero-allocation phase loop records exactly the metrics a
    /// naive per-flow recomputation yields, across a whole run.
    #[test]
    fn engine_records_match_naive_recomputation(
        (inst, f0) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        t in 0.05f64..1.0,
    ) {
        use wardrop::net::equilibrium::{max_regret, unsatisfied_volume};
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(t, 12).with_flows().with_deltas(vec![0.05]);
        let traj = run(&inst, &policy, &f0, &config);
        prop_assert_eq!(traj.flows.len(), traj.phases.len());
        for (flow, rec) in traj.flows.iter().zip(&traj.phases) {
            prop_assert!((potential(&inst, flow) - rec.potential_start).abs() < 1e-12);
            prop_assert!((flow.avg_latency(&inst) - rec.avg_latency_start).abs() < 1e-12);
            prop_assert!(
                (max_regret(&inst, flow, 1e-12) - rec.max_regret_start).abs() < 1e-12
            );
            prop_assert!(
                (unsatisfied_volume(&inst, flow, 0.05) - rec.unsatisfied[0]).abs() < 1e-12
            );
        }
        // Consecutive records chain: Φ end of phase i = Φ start of i+1.
        for w in traj.phases.windows(2) {
            prop_assert_eq!(w[0].potential_end, w[1].potential_start);
        }
    }

    /// Dijkstra and the enumerated-path argmin agree on every random
    /// instance and flow.
    #[test]
    fn dijkstra_matches_path_argmin(
        (inst, f) in arb_layered_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
    ) {
        use wardrop::net::shortest_path::dijkstra;
        let weights = f.edge_latencies(&inst);
        let lp = f.path_latencies(&inst);
        let c = inst.commodities()[0];
        let sp = dijkstra(inst.graph(), c.source, &weights);
        let best = inst
            .commodity_paths(0)
            .map(|p| lp[p])
            .fold(f64::INFINITY, f64::min);
        prop_assert!((sp.distance(c.sink) - best).abs() < 1e-9);
    }

    /// Population regret is non-negative along any smooth run.
    #[test]
    fn regret_nonnegative(
        inst in arb_parallel_instance(),
        t in 0.05f64..0.5,
    ) {
        let policy = uniform_linear(&inst);
        let config = SimulationConfig::new(t, 30).with_flows();
        let traj = run(&inst, &policy, &FlowVec::concentrated(&inst), &config);
        let report = wardrop::analysis::regret::population_regret(&inst, &traj);
        for r in &report.regret {
            prop_assert!(*r >= -1e-10);
        }
    }

    /// Series-parallel builders always produce enumerable, feasible
    /// instances whose equilibria the solver certifies.
    #[test]
    fn series_parallel_instances_solve(
        depth in 0usize..5,
        seed in 0u64..200,
    ) {
        let inst = builders::series_parallel(depth, seed);
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        prop_assert!(eq.flow.is_feasible(&inst, 1e-6));
        prop_assert!(is_wardrop_equilibrium(&inst, &eq.flow, 1e-2));
    }

    /// Scenario mutations are semantically transparent: after a random
    /// sequence of `scale_latency` / `set_latency` / `set_demand`
    /// events, the mutated instance evaluates exactly like a fresh
    /// `Instance::new` built from the mutated graph, latencies and
    /// commodities — same cached invariants (up to the incremental
    /// update's float re-association), same fused evaluation, and the
    /// same engine trajectory phase by phase.
    #[test]
    fn post_event_instance_matches_fresh_construction(
        inst in arb_layered_instance(),
        scales in proptest::collection::vec((0usize..64, 0.25f64..4.0), 1..5),
        new_a in 0.0f64..2.0,
        t in 0.01f64..0.3,
    ) {
        let mut mutated = inst.clone();
        for (e, k) in &scales {
            let edge = EdgeId::from_index(e % mutated.num_edges());
            mutated.scale_latency(edge, *k).expect("valid scale");
        }
        mutated
            .set_latency(
                EdgeId::from_index(0),
                Latency::Affine { a: new_a, b: 1.0 },
            )
            .expect("valid latency");
        let fresh = Instance::new(
            mutated.graph().clone(),
            mutated.latencies().to_vec(),
            mutated.commodities().to_vec(),
        )
        .expect("mutated data stays valid");

        // The bounds agree bit for bit: both come from the same
        // computation on the same inputs.
        prop_assert_eq!(mutated.slope_bound().to_bits(), fresh.slope_bound().to_bits());
        prop_assert_eq!(
            mutated.latency_upper_bound().to_bits(),
            fresh.latency_upper_bound().to_bits()
        );

        // The fused evaluation is bit-identical.
        let f = FlowVec::uniform(&mutated);
        let mut ws_mut = wardrop::net::eval::EvalWorkspace::new(&mutated);
        let mut ws_fresh = wardrop::net::eval::EvalWorkspace::new(&fresh);
        ws_mut.evaluate(&mutated, &f);
        ws_fresh.evaluate(&fresh, &f);
        prop_assert_eq!(ws_mut.path_latencies(), ws_fresh.path_latencies());
        prop_assert_eq!(ws_mut.potential(), ws_fresh.potential());

        // And so is a short engine run.
        let policy = uniform_linear(&mutated);
        let config = SimulationConfig::new(t, 10);
        let a = run(&mutated, &policy, &f, &config);
        let b = run(&fresh, &policy, &f, &config);
        prop_assert_eq!(a.phases, b.phases);
        prop_assert_eq!(a.final_flow, b.final_flow);
    }

    /// Demand events preserve the unit normalisation and rescale
    /// engine flows into feasibility for the mutated instance.
    #[test]
    fn post_demand_event_matches_fresh_construction(
        seed in 0u64..500,
        demand in 0.05f64..0.95,
    ) {
        let inst = builders::multi_commodity_grid(2, 3, seed);
        let mut mutated = inst.clone();
        mutated.set_demand(0, demand).expect("valid demand");
        let total: f64 = mutated.commodities().iter().map(|c| c.demand).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let fresh = Instance::new(
            mutated.graph().clone(),
            mutated.latencies().to_vec(),
            mutated.commodities().to_vec(),
        )
        .expect("renormalised demands stay valid");
        let f = FlowVec::uniform(&mutated);
        prop_assert!(f.is_feasible(&fresh, 1e-9));
        let policy = uniform_linear(&mutated);
        let config = SimulationConfig::new(0.1, 5);
        let a = run(&mutated, &policy, &f, &config);
        let b = run(&fresh, &policy, &f, &config);
        prop_assert_eq!(a.phases, b.phases);
    }

    /// The matrix-free phase rates equal the frozen dense reference
    /// for every stock sampling × migration combination — entry by
    /// entry, exit rate by exit rate, and through a generator
    /// application — on random instances with latency ties
    /// (`two_class_links` repeats each class's constant) and zero-flow
    /// paths (the flow is concentrated on one path per commodity).
    #[test]
    fn matrix_free_rates_match_dense_reference(
        (inst, f) in (0usize..3, 2usize..6, 0u64..1000, 0.01f64..2.0)
            .prop_map(|(kind, half, seed, gap)| match kind {
                0 => builders::random_parallel_links(2 * half, 1.0, 0.1, 2.0, seed),
                1 => builders::layered_network(1 + half % 2, 2 + half % 3, seed),
                _ => builders::two_class_links(2 * half, gap),
            })
            .prop_flat_map(|inst| {
                let f = arb_flow(&inst);
                (Just(inst), f)
            }),
        concentrate in 0u32..2,
        tau in 0.01f64..2.0,
    ) {
        let concentrate = concentrate == 1;
        use wardrop::core::board::BulletinBoard;
        let f = if concentrate { FlowVec::concentrated(&inst) } else { f };
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let policies =
            wardrop::core::policy::stock_policy_zoo(inst.latency_upper_bound().max(1e-6));
        prop_assert_eq!(policies.len(), 12);
        for policy in &policies {
            let free = policy.phase_rates(&inst, &board);
            let dense = policy.phase_rates_dense(&inst, &board);
            prop_assert!(free.is_matrix_free(), "{}", policy.name());
            prop_assert_eq!(free.dense_elements(), 0);
            prop_assert!(!dense.is_matrix_free(), "{}", policy.name());
            prop_assert!(
                (free.max_exit_rate() - dense.max_exit_rate()).abs() < 1e-12,
                "{}: Λ {} vs {}", policy.name(), free.max_exit_rate(), dense.max_exit_rate()
            );
            for (a, b) in free.blocks().iter().zip(dense.blocks()) {
                for p in 0..a.len() {
                    prop_assert!(
                        (a.exit_rate(p) - b.exit_rate(p)).abs() < 1e-12,
                        "{}: exit[{}] {} vs {}", policy.name(), p, a.exit_rate(p), b.exit_rate(p)
                    );
                    for q in 0..a.len() {
                        prop_assert!(
                            (a.rate(p, q) - b.rate(p, q)).abs() < 1e-12,
                            "{}: c[{}][{}] {} vs {}", policy.name(), p, q, a.rate(p, q), b.rate(p, q)
                        );
                    }
                }
            }
            let mut out_free = vec![0.0; inst.num_paths()];
            let mut out_dense = vec![0.0; inst.num_paths()];
            free.apply(f.values(), &mut out_free);
            dense.apply(f.values(), &mut out_dense);
            for (x, y) in out_free.iter().zip(&out_dense) {
                prop_assert!((x - y).abs() < 1e-12, "{}: Af {} vs {}", policy.name(), x, y);
            }
            // An integrated phase agrees too (the engine-facing contract).
            let mut a = f.values().to_vec();
            Integrator::Uniformization { tol: 1e-13 }.advance(&free, &mut a, tau);
            let mut b = f.values().to_vec();
            Integrator::Uniformization { tol: 1e-13 }.advance(&dense, &mut b, tau);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9, "{}: phase {} vs {}", policy.name(), x, y);
            }
        }
    }

    /// A fault plan with no fault configured is bit-for-bit
    /// transparent: attaching it changes nothing — same phase records,
    /// recorded flows and final flow — on both the enumerated and the
    /// implicit-path backend, at 1, 2 and 4 worker lanes. This pins
    /// the clean-post fast path: fault-free phases must take the exact
    /// `post_from_eval` route the un-faulted engine takes.
    #[test]
    fn zero_fault_plan_is_bit_identical(
        (inst, f0) in arb_layered_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        t in 0.05f64..0.5,
        seed in 0u64..1000,
    ) {
        let plan = FaultPlan::new(seed);
        prop_assert!(plan.is_trivial());
        let policy = uniform_linear(&inst);
        let base = SimulationConfig::new(t, 12).with_flows().with_deltas(vec![0.05]);
        for lanes in [1usize, 2, 4] {
            let config = base.clone().with_parallelism(Parallelism::Threads(lanes));
            let plain = run(&inst, &policy, &f0, &config);
            let faulted = run(&inst, &policy, &f0, &config.clone().with_faults(plan.clone()));
            prop_assert!(plain.phases == faulted.phases, "records diverged at {} lanes", lanes);
            prop_assert!(plain.flows == faulted.flows, "flows diverged at {} lanes", lanes);
            prop_assert!(
                plain.final_flow == faulted.final_flow,
                "final flow diverged at {} lanes", lanes
            );
            for (a, b) in plain.phases.iter().zip(&faulted.phases) {
                prop_assert!(
                    a.potential_start.to_bits() == b.potential_start.to_bits()
                        && a.potential_end.to_bits() == b.potential_end.to_bits(),
                    "potential bits diverged at {} lanes", lanes
                );
            }
        }
        // The implicit-path backend, fully seeded so nothing is left to
        // discover.
        let edge = EdgeInstance::from_instance(&inst).expect("layered networks are DAGs");
        let seeding = PathSeeding::full(&inst);
        for lanes in [1usize, 2, 4] {
            let config = base.clone().with_parallelism(Parallelism::Threads(lanes));
            let plain = run_edge(&edge, &policy, &config, &seeding).expect("edge run");
            let faulted = run_edge(
                &edge,
                &policy,
                &config.clone().with_faults(plan.clone()),
                &seeding,
            )
            .expect("faulted edge run");
            prop_assert!(
                plain.phases == faulted.phases,
                "edge records diverged at {} lanes", lanes
            );
            prop_assert!(
                plain.flows == faulted.flows && plain.final_flow == faulted.final_flow,
                "edge flows diverged at {} lanes", lanes
            );
        }
    }

    /// Agent populations round-trip through flows within 1/N.
    #[test]
    fn population_round_trip(
        (inst, f) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        n in 10u64..10_000,
    ) {
        use wardrop::agents::Population;
        let pop = Population::apportion(&inst, n, &f);
        prop_assert_eq!(pop.num_agents(), n);
        // The empirical flow: each commodity's counts scaled to its demand.
        let mut g = FlowVec::from_values_unchecked(vec![0.0; inst.num_paths()]);
        for (i, c) in inst.commodities().iter().enumerate() {
            let scale = c.demand / pop.commodity_total(i) as f64;
            for p in inst.commodity_paths(i) {
                g.values_mut()[p] = pop.counts()[p] as f64 * scale;
            }
        }
        prop_assert!(g.is_feasible(&inst, 1e-9));
        prop_assert!(f.linf_distance(&g) <= 1.0 / n as f64 + 1e-9);
    }
}

proptest! {
    // Each case runs 30 trajectories: six zoo rows × five configs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Within the safe period the potential never increases across
    /// phases (Lemma 4 ⇒ Corollary 5), from any start, for every
    /// α-smooth zoo row under every config people run.
    #[test]
    fn potential_monotone_within_safe_period(
        (inst, f0) in arb_parallel_instance().prop_flat_map(|inst| {
            let f = arb_flow(&inst);
            (Just(inst), f)
        }),
        t_frac in 0.05f64..1.0,
    ) {
        assert_lemma4_under_zoo(&inst, &f0, |t_star| {
            SimulationConfig::new(t_star * t_frac, 30)
        })?;
    }

    /// Jittered schedules keep the Lemma 4 guarantee when the longest
    /// phase stays within T*, for every α-smooth zoo row under every
    /// config people run.
    #[test]
    fn jitter_preserves_guarantee(
        inst in arb_parallel_instance(),
        amplitude in 0.0f64..0.9,
        seed in 0u64..1000,
    ) {
        let f0 = FlowVec::concentrated(&inst);
        assert_lemma4_under_zoo(&inst, &f0, |t_star| {
            SimulationConfig::new(t_star / (1.0 + amplitude), 20).with_jitter(amplitude, seed)
        })?;
    }
}

proptest! {
    // Each case runs several full trajectories; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The movement early-out: a run with `stop_when_phase_delta_below`
    /// must be a bitwise prefix of the unstopped run, and must actually
    /// stop once the contraction drives per-phase movement below the
    /// threshold.
    #[test]
    fn phase_delta_stop_is_a_bitwise_prefix(
        seed in 0u64..1000,
        t in 0.5f64..1.5,
    ) {
        let inst = builders::grid_network(4, 4, seed);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        // The linear policy contracts slowly on grids (power-law-ish
        // tail): per-phase movement is ~1e-3 after 200 phases, so the
        // stop threshold must sit above that to fire mid-run.
        let base = SimulationConfig::new(t, 200).with_flows();
        let full = run(&inst, &policy, &f0, &base);
        let stopped = run(
            &inst,
            &policy,
            &f0,
            &base.clone().with_stop_phase_delta(5e-3),
        );
        prop_assert!(stopped.phases.len() < full.phases.len(), "early-out never fired");
        for (a, b) in stopped.phases.iter().zip(&full.phases) {
            prop_assert!(a.potential_start.to_bits() == b.potential_start.to_bits());
            prop_assert!(a.potential_end.to_bits() == b.potential_end.to_bits());
        }
    }

    /// An `F32` board stays a well-posed simulation — finite records,
    /// feasible final flow — and lands near the `F64` trajectory, while
    /// `F64` quantisation is exactly the legacy path.
    #[test]
    fn f32_board_is_close_and_f64_is_identity(
        seed in 0u64..1000,
        t in 0.1f64..0.6,
    ) {
        let inst = builders::multi_commodity_grid(4, 4, seed);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let base = SimulationConfig::new(t, 15).with_flows();
        let reference = run(&inst, &policy, &f0, &base);
        let f64_explicit = run(
            &inst,
            &policy,
            &f0,
            &base.clone().with_board_precision(BoardPrecision::F64),
        );
        prop_assert!(reference.phases == f64_explicit.phases);
        prop_assert!(reference.final_flow == f64_explicit.final_flow);
        let quantised = run(
            &inst,
            &policy,
            &f0,
            &base.clone().with_board_precision(BoardPrecision::F32),
        );
        prop_assert_eq!(quantised.phases.len(), reference.phases.len());
        prop_assert!(quantised.final_flow.is_feasible(&inst, 1e-6));
        for (a, b) in quantised.phases.iter().zip(&reference.phases) {
            prop_assert!(a.potential_end.is_finite());
            // f32 posts perturb the board by ~1e-7 relative; the
            // trajectories stay close but not bit-equal.
            prop_assert!((a.potential_end - b.potential_end).abs() <= 1e-3);
        }
    }

    /// Every phase end runs the one exact fused evaluation: after each
    /// step, before and after a latency shock and a demand surge, the
    /// engine's cached evaluation state is bit-identical to a
    /// from-scratch evaluation of the simulation's own current flow.
    #[test]
    fn phase_end_state_is_bit_identical_to_fresh_evaluation(
        seed in 0u64..1000,
        t in 0.1f64..0.8,
        factor in 0.5f64..2.0,
        demand in 0.15f64..0.6,
    ) {
        use wardrop::net::eval::EvalWorkspace;
        let inst = builders::multi_commodity_grid(4, 4, seed);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(t, 40).with_stop_phase_delta(0.0);
        let mut sim = Simulation::new(&inst, &policy, &f0, &config);
        let mut phases = 0;
        while sim.step().is_some() {
            phases += 1;
            let mut reference = EvalWorkspace::new(sim.instance());
            reference.evaluate(sim.instance(), sim.flow());
            prop_assert_eq!(
                sim.eval().potential().to_bits(),
                reference.potential().to_bits()
            );
            prop_assert_eq!(sim.eval().edge_flows(), reference.edge_flows());
            prop_assert_eq!(sim.eval().edge_latencies(), reference.edge_latencies());
            prop_assert_eq!(sim.eval().path_latencies(), reference.path_latencies());
            if phases == 10 {
                sim.apply_event(&[EventAction::ScaleLatency {
                    edge: EdgeId::from_index(0),
                    factor,
                }])
                .expect("latency event applies");
            }
            if phases == 20 {
                sim.apply_event(&[EventAction::SetDemand { commodity: 0, demand }])
                    .expect("demand event applies");
            }
        }
        prop_assert_eq!(phases, 40);
    }
}

/// A reused workspace, movement-stop buffer included, must be
/// indistinguishable from a fresh construction after `apply_event`
/// followed by `reset`, bitwise. A zero movement threshold never fires,
/// so the stop's state is live without ending the runs early.
#[test]
fn reused_workspace_after_apply_event_matches_fresh_bitwise() {
    let inst = builders::multi_commodity_grid(4, 4, 9);
    let policy = uniform_linear(&inst);
    let f0 = FlowVec::uniform(&inst);
    let first_cfg = SimulationConfig::new(0.4, 10).with_stop_phase_delta(0.0);
    let second_cfg = SimulationConfig::new(0.3, 25)
        .with_flows()
        .with_stop_phase_delta(0.0);

    // Dirty the workspace: run, mutate the instance via an event
    // mid-run, run further.
    let mut reused = Simulation::new(&inst, &policy, &f0, &first_cfg);
    for _ in 0..5 {
        reused.step();
    }
    reused
        .apply_event(&[EventAction::ScaleLatency {
            edge: EdgeId::from_index(0),
            factor: 1.7,
        }])
        .expect("event applies");
    for _ in 0..5 {
        reused.step();
    }

    // Fresh simulation against the *mutated* instance.
    let mutated = reused.instance().clone();
    let mut fresh = Simulation::new(&mutated, &policy, &f0, &second_cfg);

    reused.reset(&f0, &second_cfg);
    let reused_traj = reused.drive();
    let fresh_traj = fresh.drive();

    assert_eq!(reused_traj.phases, fresh_traj.phases);
    assert_eq!(reused_traj.flows, fresh_traj.flows);
    assert_eq!(reused_traj.final_flow, fresh_traj.final_flow);
    for (a, b) in reused_traj.phases.iter().zip(&fresh_traj.phases) {
        assert_eq!(a.potential_start.to_bits(), b.potential_start.to_bits());
        assert_eq!(a.potential_end.to_bits(), b.potential_end.to_bits());
        assert_eq!(a.virtual_gain.to_bits(), b.virtual_gain.to_bits());
    }
    assert_eq!(reused.last_phase_delta(), fresh.last_phase_delta());
}

/// Rebinding to another seed of the same family matches a fresh
/// construction bitwise.
#[test]
fn rebind_matches_fresh() {
    let a = builders::grid_network(4, 4, 1);
    let b = builders::grid_network(4, 4, 2);
    let policy = uniform_linear(&a);
    let f0 = FlowVec::uniform(&a);
    let cfg = SimulationConfig::new(0.5, 20)
        .with_flows()
        .with_stop_phase_delta(0.0);

    let mut sim = Simulation::new(&a, &policy, &f0, &cfg);
    for _ in 0..7 {
        sim.step();
    }
    sim.rebind(&b, &f0, &cfg);
    let rebound = sim.drive();

    let fresh = run(&b, &policy, &f0, &cfg);
    assert_eq!(rebound.phases, fresh.phases);
    assert_eq!(rebound.final_flow, fresh.final_flow);
}
