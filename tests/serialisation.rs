//! Serialisation round-trips: instances, flows, boards, trajectories
//! and configurations are data — they must survive JSON round-trips so
//! experiment artefacts are reloadable.

use wardrop::core::board::BulletinBoard;
use wardrop::prelude::*;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialise");
    serde_json::from_str(&json).expect("deserialise")
}

#[test]
fn instance_round_trips() {
    let inst = builders::braess();
    let back: Instance = round_trip(&inst);
    assert_eq!(back.num_paths(), inst.num_paths());
    assert_eq!(back.num_edges(), inst.num_edges());
    assert_eq!(back.max_path_len(), inst.max_path_len());
    assert_eq!(back.latency_upper_bound(), inst.latency_upper_bound());
    assert_eq!(back.latencies(), inst.latencies());
}

#[test]
fn all_latency_variants_round_trip() {
    let variants = vec![
        Latency::Constant(1.5),
        Latency::Affine { a: 0.5, b: 2.0 },
        Latency::Polynomial(vec![1.0, 0.0, 3.0]),
        Latency::Bpr {
            t0: 1.0,
            coef: 0.15,
            pow: 4,
        },
        Latency::oscillator(2.0),
        Latency::Mm1 { capacity: 1.7 },
        Latency::Mm1 { capacity: 1.7 }.scaled(2.5),
    ];
    for l in &variants {
        let back: Latency = round_trip(l);
        assert_eq!(&back, l);
        // The deserialised function computes identically.
        for x in [0.0, 0.3, 0.7, 1.0] {
            assert_eq!(back.eval(x), l.eval(x));
            assert_eq!(back.primitive(x), l.primitive(x));
        }
    }
}

#[test]
fn flow_round_trips() {
    let inst = builders::pigou();
    let f = FlowVec::from_values(&inst, vec![0.3, 0.7]).unwrap();
    let back: FlowVec = round_trip(&f);
    assert_eq!(back, f);
    assert!(back.is_feasible(&inst, 1e-12));
}

#[test]
fn board_round_trips() {
    let inst = builders::braess();
    let f = FlowVec::uniform(&inst);
    let board = BulletinBoard::post(&inst, &f, 2.5);
    let back: BulletinBoard = round_trip(&board);
    assert_eq!(back, board);
    assert_eq!(back.time(), 2.5);
}

#[test]
fn trajectory_round_trips_and_metrics_survive() {
    let inst = builders::pigou();
    let config = SimulationConfig::new(0.5, 25)
        .with_flows()
        .with_deltas(vec![0.1]);
    let traj = run(
        &inst,
        &uniform_linear(&inst),
        &FlowVec::uniform(&inst),
        &config,
    );
    let back: Trajectory = round_trip(&traj);
    assert_eq!(back, traj);
    assert_eq!(back.bad_phase_count(0, 0.05), traj.bad_phase_count(0, 0.05));
    assert_eq!(back.potential_series(), traj.potential_series());
}

#[test]
fn configs_round_trip() {
    let sim = SimulationConfig::new(0.25, 100)
        .with_deltas(vec![0.01, 0.1])
        .with_integrator(Integrator::Rk4 { dt: 0.01 });
    let back: SimulationConfig = round_trip(&sim);
    assert_eq!(back, sim);

    let agents = OpenSystemConfig::new(1000, 0.5, 50, 7)
        .with_flows()
        .with_churn(20.0, 0.02)
        .with_queueing(wardrop::agents::QueueingModel::new(4, 0.5))
        .with_faults(
            FaultPlan::new(3)
                .with_drop_probability(0.1)
                .unwrap()
                .with_outage(5, 8)
                .unwrap(),
        );
    let back: OpenSystemConfig = round_trip(&agents);
    assert_eq!(back, agents);
}

#[test]
fn scenarios_round_trip() {
    let scenario = Scenario::new("round-trip")
        .with_demand_schedule(0, &DemandSchedule::pulse(0.5, 0.8, 10, 10))
        .with_event(Event::at(
            5,
            "degrade",
            EventAction::ScaleLatency {
                edge: EdgeId::from_index(1),
                factor: 3.0,
            },
        ))
        .with_event(Event::at(
            7,
            "replace",
            EventAction::SetLatency {
                edge: EdgeId::from_index(0),
                latency: Latency::Mm1 { capacity: 2.0 }.scaled(1.5),
            },
        ));
    let back: Scenario = round_trip(&scenario);
    assert_eq!(back, scenario);
    // Replaying the deserialised scenario mutates instances identically.
    let inst = builders::multi_commodity_grid(3, 3, 5);
    let a = scenario.epoch_instances(&inst).unwrap();
    let b = back.epoch_instances(&inst).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.latencies(), y.latencies());
        assert_eq!(x.commodities(), y.commodities());
    }
    // Schedules and modulations are data too.
    let back: DemandSchedule = round_trip(&DemandSchedule::step(0.5, 3, 0.7));
    assert_eq!(back.demand_at(4), 0.7);
    let back: LatencyModulation = round_trip(&LatencyModulation::pulse(4.0, 2, 3));
    assert_eq!(back.factor_at(2), 4.0);
}

#[test]
fn scenario_trajectory_round_trips_with_epochs() {
    let inst = builders::multi_commodity_grid(3, 3, 5);
    let scenario =
        Scenario::new("pulse").with_demand_schedule(0, &DemandSchedule::pulse(0.5, 0.8, 5, 5));
    let config = SimulationConfig::new(0.1, 15).with_record_stride(5);
    let traj = run_scenario(
        &inst,
        &uniform_linear(&inst),
        &FlowVec::uniform(&inst),
        &config,
        &scenario,
    )
    .unwrap();
    let back: Trajectory = round_trip(&traj);
    assert_eq!(back, traj);
    assert_eq!(back.num_epochs(), 3);
    assert_eq!(back.flow_stride, 5);
    assert_eq!(back.epoch_ranges(), traj.epoch_ranges());
}

#[test]
fn deserialised_instance_runs_identically() {
    let inst = builders::grid_network(3, 3, 9);
    let back: Instance = round_trip(&inst);
    let config = SimulationConfig::new(0.2, 50);
    let a = run(
        &inst,
        &uniform_linear(&inst),
        &FlowVec::uniform(&inst),
        &config,
    );
    let b = run(
        &back,
        &uniform_linear(&back),
        &FlowVec::uniform(&back),
        &config,
    );
    assert_eq!(a.final_flow, b.final_flow);
    assert_eq!(a.potential_series(), b.potential_series());
}

#[test]
fn committed_artefacts_re_indent_byte_identically() {
    // The artefact writers pretty-print by parsing their compact text
    // back and re-indenting it; the committed files pin that output.
    let artefacts = [
        ("BENCH_engine.json", include_str!("../BENCH_engine.json")),
        ("BENCH_serve.json", include_str!("../BENCH_serve.json")),
        (
            "E11_fault_governor.json",
            include_str!("../E11_fault_governor.json"),
        ),
        (
            "E12_fluid_limit.json",
            include_str!("../E12_fluid_limit.json"),
        ),
    ];
    for (name, text) in artefacts {
        let body = text.strip_suffix('\n').unwrap_or(text);
        let value: serde_json::Value = serde_json::from_str(body).expect(name);
        assert_eq!(
            serde_json::to_string_pretty(&value).unwrap(),
            body,
            "{name}"
        );
    }
}

/// A configuration as builds that still had the incremental-evaluation
/// option wrote it: the same fields plus that option's key, `false`.
const LEGACY_CONFIG: &str = r##"{"update_period":0.5,"num_phases":12,"integrator":{"Rk4":{"dt":0.05}},"record_flows":false,"record_stride":1,"deltas":[0.01,0.1],"stop_when_regret_below":null,"schedule":{"Jittered":{"amplitude":0.2,"seed":3}},"parallelism":"Serial","faults":{"seed":4,"drop_probability":0.3,"refresh_fraction":1.0,"noise_amplitude":0.05,"staleness":[],"outages":[]},"guard":{"tolerance":0.000000001,"backoff":0.5,"restore_step":0.1,"quiet_phases":8,"floor":0.015625},"delta_eval":false,"stop_when_phase_delta_below":0.000000000001,"board_precision":"F32"}"##;

/// A checkpoint as the same builds wrote it: `braess` under the
/// uniform-linear policy with a fault plan and the governor, taken
/// after 4 of 12 phases. Its config carries the retired key too.
const LEGACY_SNAPSHOT: &str = r##"WARDROP-SNAPSHOT v1 len=1936 fnv=ff202db6ffebad40
{"instance":{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3},{"from":1,"to":2}],"out":[[0,1],[2,4],[3],[]],"r#in":[[],[0],[1,4],[2,3]]},"latencies":[{"Affine":{"a":0.0,"b":1.0}},{"Constant":1.0},{"Constant":1.0},{"Affine":{"a":0.0,"b":1.0}},{"Constant":0.0}],"commodities":[{"source":0,"sink":3,"demand":1.0}],"paths":[{"edges":[0,2]},{"edges":[0,4,3]},{"edges":[1,3]}],"path_ranges":[0,3],"path_edge_offsets":[0,2,5,7],"path_edge_ids":[0,2,0,4,3,1,3],"edge_path_offsets":[0,2,3,4,6,7],"edge_path_ids":[0,1,2,0,1,2,1],"path_commodity":[0,0,0],"path_cap_latencies":[2.0,2.0,2.0],"max_path_len":3,"slope_bound":1.0,"latency_upper_bound":2.0},"config":{"update_period":0.5,"num_phases":12,"integrator":{"Uniformization":{"tol":0.000000000001}},"record_flows":false,"record_stride":1,"deltas":[0.05],"stop_when_regret_below":null,"schedule":"Fixed","parallelism":"Serial","faults":{"seed":4,"drop_probability":0.3,"refresh_fraction":1.0,"noise_amplitude":0.0,"staleness":[],"outages":[]},"guard":{"tolerance":0.000000001,"backoff":0.5,"restore_step":0.1,"quiet_phases":8,"floor":0.015625},"delta_eval":false,"stop_when_phase_delta_below":null,"board_precision":"F64"},"flow":[0.29938057819245295,0.40123884361509404,0.29938057819245295],"board":{"time":1.5,"edge_flows":[0.692857815259797,0.30714218474020305,0.30714218474020305,0.692857815259797,0.3857156305195939],"edge_latencies":[0.692857815259797,1.0,1.0,0.692857815259797,0.0],"path_latencies":[1.692857815259797,1.385715630519594,1.692857815259797],"path_flows":[0.30714218474020305,0.3857156305195939,0.30714218474020305]},"index":4,"epoch":0,"start_time":2.0,"stopped":false,"guard":{"scale":1.0,"quiet":3,"last_potential":1.094336321646985,"log":{"events":[],"violations":0,"restores":0,"min_scale":null}},"fault":{"posted":true,"last_refresh":[3],"stats":{"posts":4,"dropped":1,"degraded":0,"edges_skipped":0,"stale_commodity_rows":0}}}"##;

fn legacy_config() -> SimulationConfig {
    let plan = FaultPlan::new(4)
        .with_drop_probability(0.3)
        .unwrap()
        .with_noise(0.05)
        .unwrap();
    SimulationConfig::new(0.5, 12)
        .with_deltas(vec![0.01, 0.1])
        .with_integrator(Integrator::Rk4 { dt: 0.05 })
        .with_faults(plan)
        .with_guard(GuardConfig::default())
        .with_stop_phase_delta(1e-12)
        .with_jitter(0.2, 3)
        .with_board_precision(BoardPrecision::F32)
}

/// The retired key is ignored on decode: an older config file still
/// loads, as the configuration it described.
#[test]
fn legacy_config_with_retired_key_decodes() {
    let decoded: SimulationConfig = serde_json::from_str(LEGACY_CONFIG).expect("legacy config");
    assert_eq!(decoded, legacy_config());
}

/// An instance as builds that kept a second, per-path copy of the path
/// arena wrote it: `grid_network(3, 3, 7)` with its `"paths"` member.
const LEGACY_INSTANCE: &str = r##"{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":3},{"from":1,"to":2},{"from":1,"to":4},{"from":2,"to":5},{"from":3,"to":4},{"from":3,"to":6},{"from":4,"to":5},{"from":4,"to":7},{"from":5,"to":8},{"from":6,"to":7},{"from":7,"to":8}],"out":[[0,1],[2,3],[4],[5,6],[7,8],[9],[10],[11],[]],"r#in":[[],[0],[2],[1],[3,5],[4,7],[6],[8,10],[9,11]]},"latencies":[{"Affine":{"a":0.7005764821796896,"b":0.3508761065264059}},{"Affine":{"a":0.8396274618764198,"b":0.9829879525134416}},{"Affine":{"a":0.9908602788330683,"b":0.8854965448706188}},{"Affine":{"a":0.060752079492816136,"b":0.19399221031853045}},{"Affine":{"a":0.40370652610252655,"b":0.2366344966007084}},{"Affine":{"a":0.5413675985383839,"b":0.7586723863410524}},{"Affine":{"a":0.938965598715603,"b":0.8927656856104648}},{"Affine":{"a":0.4514196527314658,"b":0.6047912037245319}},{"Affine":{"a":0.2566979885922164,"b":0.5196323507791876}},{"Affine":{"a":0.1564999085479981,"b":0.22033150169726667}},{"Affine":{"a":0.17142643255164425,"b":0.686220657742045}},{"Affine":{"a":0.6674532064492308,"b":0.35296885402926603}}],"commodities":[{"source":0,"sink":8,"demand":1.0}],"paths":[{"edges":[0,2,4,9]},{"edges":[0,3,7,9]},{"edges":[0,3,8,11]},{"edges":[1,5,7,9]},{"edges":[1,5,8,11]},{"edges":[1,6,10,11]}],"path_ranges":[0,6],"path_edge_offsets":[0,4,8,12,16,20,24],"path_edge_ids":[0,2,4,9,0,3,7,9,0,3,8,11,1,5,7,9,1,5,8,11,1,6,10,11],"edge_path_offsets":[0,3,6,7,9,10,12,13,15,17,20,21,24],"edge_path_ids":[0,1,2,3,4,5,0,1,2,0,3,4,5,1,3,2,4,0,1,3,5,2,4,5],"path_commodity":[0,0,0,0,0,0],"path_cap_latencies":[3.9449818453582823,2.739239145218704,3.1029492783673427,4.55569766597056,4.919407799119199,5.532415849488115],"max_path_len":4,"slope_bound":0.9829879525134416,"latency_upper_bound":5.532415849488115}"##;

/// The instance encoding lost its duplicate `"paths"` member, whose
/// rows the CSR keys carry too, its transposed `"edge_path_offsets"`
/// and `"edge_path_ids"` members, which follow from them, and its
/// cached `"path_cap_latencies"`, `"max_path_len"`, `"slope_bound"` and
/// `"latency_upper_bound"`, which follow from the rows and latencies:
/// an older encoding still decodes, is consistent, equals a fresh build
/// and re-encodes without those seven members.
#[test]
fn legacy_instance_with_paths_member_decodes() {
    let decoded: Instance = serde_json::from_str(LEGACY_INSTANCE).expect("legacy instance");
    decoded
        .check_consistent()
        .expect("legacy instance is consistent");
    assert_eq!(decoded, builders::grid_network(3, 3, 7));
    let at = |key: &str| LEGACY_INSTANCE.find(&format!("\"{key}\":")).unwrap();
    let expected = [
        &LEGACY_INSTANCE[..at("paths")],
        &LEGACY_INSTANCE[at("path_ranges")..at("edge_path_offsets")],
        &LEGACY_INSTANCE[at("path_commodity")..at("path_cap_latencies") - 1],
        "}",
    ]
    .concat();
    assert_eq!(serde_json::to_string(&decoded).unwrap(), expected);
}

/// `braess()` whose third path reads `[0, 3]` (s→a, then b→t), with
/// every cached key edited to match. Its endpoints are right, but it is
/// no path: decoding must not accept it as one.
const BROKEN_ROW_INSTANCE: &str = r##"{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3},{"from":1,"to":2}],"out":[[0,1],[2,4],[3],[]],"r#in":[[],[0],[1,4],[2,3]]},"latencies":[{"Affine":{"a":0.0,"b":1.0}},{"Constant":1.0},{"Constant":1.0},{"Affine":{"a":0.0,"b":1.0}},{"Constant":0.0}],"commodities":[{"source":0,"sink":3,"demand":1.0}],"paths":[{"edges":[0,2]},{"edges":[0,4,3]},{"edges":[0,3]}],"path_ranges":[0,3],"path_edge_offsets":[0,2,5,7],"path_edge_ids":[0,2,0,4,3,0,3],"edge_path_offsets":[0,3,3,4,6,7],"edge_path_ids":[0,1,2,0,1,2,1],"path_commodity":[0,0,0],"path_cap_latencies":[2.0,2.0,2.0],"max_path_len":3,"slope_bound":1.0,"latency_upper_bound":2.0}"##;

#[test]
fn decoded_row_that_is_not_a_path_is_rejected() {
    let decoded: Instance = serde_json::from_str(BROKEN_ROW_INSTANCE).expect("well-formed JSON");
    match decoded.check_consistent() {
        Err(NetError::Inconsistent(msg)) => assert!(msg.contains("consecutive"), "{msg}"),
        other => panic!("expected a typed inconsistency, got {other:?}"),
    }
}

/// `braess()` in the encoding that still cached the derived bounds,
/// with every cached member contradicting the latencies and rows: the
/// per-path at-capacity sums, `D`, `β` and `ℓmax` are all wrong.
const STALE_BOUNDS_INSTANCE: &str = r##"{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3},{"from":1,"to":2}],"out":[[0,1],[2,4],[3],[]],"r#in":[[],[0],[1,4],[2,3]]},"latencies":[{"Affine":{"a":0.0,"b":1.0}},{"Constant":1.0},{"Constant":1.0},{"Affine":{"a":0.0,"b":1.0}},{"Constant":0.0}],"commodities":[{"source":0,"sink":3,"demand":1.0}],"path_ranges":[0,3],"path_edge_offsets":[0,2,5,7],"path_edge_ids":[0,2,0,4,3,1,3],"path_commodity":[0,0,0],"path_cap_latencies":[3.5,0.25,7.0],"max_path_len":5,"slope_bound":4.0,"latency_upper_bound":7.0}"##;

/// A decoded instance's bounds come from its rows and latencies, never
/// from cached members an older encoding carries.
#[test]
fn cached_bounds_in_an_older_encoding_are_ignored() {
    let decoded: Instance = serde_json::from_str(STALE_BOUNDS_INSTANCE).expect("older instance");
    decoded
        .check_consistent()
        .expect("the cached members are not read");
    let fresh = builders::braess();
    assert_eq!(decoded, fresh);
    assert_eq!(decoded.max_path_len(), fresh.max_path_len());
    assert_eq!(
        decoded.slope_bound().to_bits(),
        fresh.slope_bound().to_bits()
    );
    assert_eq!(
        decoded.latency_upper_bound().to_bits(),
        fresh.latency_upper_bound().to_bits()
    );
}

/// `braess()` whose node 0 lists edge 17, which does not exist, as its
/// second outgoing edge, and the same with edge 3, which leaves node 2.
/// Both adjacency lists disagree with the edge list; decoding must say
/// so, not panic or report a cycle later. The literals are in the older
/// encoding that still carried the transposed incidence, whose members
/// decoding ignores.
const BAD_ADJACENCY_INSTANCES: [&str; 2] = [
    r##"{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3},{"from":1,"to":2}],"out":[[0,17],[2,4],[3],[]],"r#in":[[],[0],[1,4],[2,3]]},"latencies":[{"Affine":{"a":0.0,"b":1.0}},{"Constant":1.0},{"Constant":1.0},{"Affine":{"a":0.0,"b":1.0}},{"Constant":0.0}],"commodities":[{"source":0,"sink":3,"demand":1.0}],"path_ranges":[0,3],"path_edge_offsets":[0,2,5,7],"path_edge_ids":[0,2,0,4,3,1,3],"edge_path_offsets":[0,2,3,4,6,7],"edge_path_ids":[0,1,2,0,1,2,1],"path_commodity":[0,0,0],"path_cap_latencies":[2.0,2.0,2.0],"max_path_len":3,"slope_bound":1.0,"latency_upper_bound":2.0}"##,
    r##"{"graph":{"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3},{"from":1,"to":2}],"out":[[0,3],[2,4],[3],[]],"r#in":[[],[0],[1,4],[2,3]]},"latencies":[{"Affine":{"a":0.0,"b":1.0}},{"Constant":1.0},{"Constant":1.0},{"Affine":{"a":0.0,"b":1.0}},{"Constant":0.0}],"commodities":[{"source":0,"sink":3,"demand":1.0}],"path_ranges":[0,3],"path_edge_offsets":[0,2,5,7],"path_edge_ids":[0,2,0,4,3,1,3],"edge_path_offsets":[0,2,3,4,6,7],"edge_path_ids":[0,1,2,0,1,2,1],"path_commodity":[0,0,0],"path_cap_latencies":[2.0,2.0,2.0],"max_path_len":3,"slope_bound":1.0,"latency_upper_bound":2.0}"##,
];

#[test]
fn decoded_adjacency_that_disagrees_with_the_edges_is_rejected() {
    for (k, text) in BAD_ADJACENCY_INSTANCES.iter().enumerate() {
        let decoded: Instance = serde_json::from_str(text).expect("well-formed JSON");
        match decoded.check_consistent() {
            Err(NetError::Inconsistent(msg)) => assert!(msg.contains("adjacency"), "{k}: {msg}"),
            other => panic!("{k}: expected a typed inconsistency, got {other:?}"),
        }
    }
}

/// An older checkpoint, whose config carries the retired key, passes
/// its checksum, restores, and continues bit-identically to a run that
/// was never interrupted.
#[test]
fn legacy_snapshot_resumes_bit_identically() {
    let snapshot =
        wardrop::core::EngineSnapshot::from_bytes(LEGACY_SNAPSHOT.as_bytes()).expect("decode");
    assert_eq!(snapshot.index, 4);
    let inst = builders::braess();
    let policy = uniform_linear(&inst);
    let config = SimulationConfig::new(0.5, 12)
        .with_faults(FaultPlan::new(4).with_drop_probability(0.3).unwrap())
        .with_guard(GuardConfig::default());
    assert_eq!(snapshot.config, config);
    let mut uninterrupted = Simulation::new(&inst, &policy, &FlowVec::uniform(&inst), &config);
    for _ in 0..4 {
        uninterrupted.step().expect("prefix phase");
    }
    let mut resumed = Simulation::from_snapshot(&policy, &snapshot).expect("restore");
    assert_eq!(resumed.flow(), uninterrupted.flow());
    loop {
        let (a, b) = (resumed.step(), uninterrupted.step());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert_eq!(resumed.flow(), uninterrupted.flow());
    assert_eq!(resumed.fault_stats(), uninterrupted.fault_stats());
    assert_eq!(resumed.guard_log(), uninterrupted.guard_log());
}
