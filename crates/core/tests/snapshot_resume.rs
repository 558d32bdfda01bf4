//! Crash-resume bit-identity, property-tested across the policy zoo,
//! fault plans, guard configurations and scenario events — plus
//! component-level round-trip and corruption tests for every piece of
//! snapshotted state.
//!
//! The property: killing a run at an arbitrary phase, serialising the
//! engine through [`EngineSnapshot::to_bytes`], decoding the bytes
//! back and resuming with [`Simulation::from_snapshot`] yields exactly
//! the trajectory of the uninterrupted run — same phase records, same
//! final flow, and a byte-identical final snapshot (which pins the
//! board, guard log and fault counters bitwise).

use proptest::prelude::*;
use wardrop_core::engine::{Simulation, SimulationConfig};
use wardrop_core::fault::{FaultPlan, FaultSnapshot, FaultState};
use wardrop_core::guard::{GuardConfig, GuardSnapshot, SmoothnessGuard};
use wardrop_core::policy::{stock_policy_zoo, ReroutingPolicy};
use wardrop_core::snapshot::{fnv1a64, EngineSnapshot, SnapshotError, SNAPSHOT_VERSION};
use wardrop_core::PhaseRecord;
use wardrop_net::builders;
use wardrop_net::flow::FlowVec;
use wardrop_net::graph::EdgeId;
use wardrop_net::instance::Instance;
use wardrop_net::scenario::{Event, EventAction};

const PHASES: usize = 30;

fn pick_instance(index: usize) -> Instance {
    match index % 3 {
        0 => builders::braess(),
        1 => builders::uniform_parallel_links(5),
        _ => builders::multi_commodity_grid(2, 2, 7),
    }
}

fn pick_faults(index: usize, seed: u64) -> Option<FaultPlan> {
    match index % 5 {
        0 => None,
        1 => Some(FaultPlan::new(seed).with_drop_probability(0.3).unwrap()),
        2 => Some(FaultPlan::new(seed).with_partial_updates(0.5).unwrap()),
        3 => Some(FaultPlan::new(seed).with_staleness(0, 3).unwrap()),
        _ => Some(
            FaultPlan::new(seed)
                .with_drop_probability(0.15)
                .unwrap()
                .with_noise(0.02)
                .unwrap(),
        ),
    }
}

fn pick_events(on: bool, instance: &Instance) -> Vec<Event> {
    if !on {
        return Vec::new();
    }
    let mut events = Vec::new();
    // Single-commodity demand is pinned to 1 by the paper's
    // normalisation, so the demand shift only applies when there are
    // several commodities.
    if instance.num_commodities() > 1 {
        events.push(Event::at(
            5,
            "demand-shift",
            EventAction::SetDemand {
                commodity: 0,
                demand: 0.7,
            },
        ));
    }
    events.push(Event::at(
        13,
        "degrade",
        EventAction::ScaleLatency {
            edge: EdgeId::from_index(0),
            factor: 1.6,
        },
    ));
    events
}

/// Steps `sim` with the daemon's event cadence (everything due at or
/// before the current phase boundary is applied before stepping),
/// stopping after `stop_after` total phases if given.
fn drive(
    sim: &mut Simulation<'_, dyn ReroutingPolicy>,
    events: &[Event],
    cursor: &mut usize,
    stop_after: Option<usize>,
) -> Vec<PhaseRecord> {
    let mut records = Vec::new();
    loop {
        if let Some(limit) = stop_after {
            if sim.phases_run() >= limit {
                break;
            }
        }
        while *cursor < events.len() && events[*cursor].at_phase <= sim.phases_run() {
            sim.apply_event(&events[*cursor].actions).unwrap();
            *cursor += 1;
        }
        match sim.step() {
            Some(record) => records.push(record),
            None => break,
        }
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: kill at a random phase × the 12-policy zoo × fault
    /// plans × guard × scenario events, resume from serialized bytes,
    /// and demand the exact uninterrupted trajectory.
    #[test]
    fn crash_resume_is_bit_identical(
        (policy_index, instance_index) in (0usize..12, 0usize..3),
        (fault_index, guard_on) in (0usize..5, 0usize..2),
        (events_on, kill_phase) in (0usize..2, 1usize..PHASES - 1),
        fault_seed in 1u64..1_000,
    ) {
        let instance = pick_instance(instance_index);
        let policy =
            stock_policy_zoo(instance.latency_upper_bound()).swap_remove(policy_index);
        let dynamics: &dyn ReroutingPolicy = &*policy;
        let mut config = SimulationConfig::new(0.25, PHASES).with_flows();
        if let Some(plan) = pick_faults(fault_index, fault_seed) {
            config = config.with_faults(plan);
        }
        if guard_on == 1 {
            config = config.with_guard(GuardConfig::default());
        }
        let events = pick_events(events_on == 1, &instance);
        let f0 = FlowVec::uniform(&instance);

        // Uninterrupted reference.
        let mut reference = Simulation::new(&instance, dynamics, &f0, &config);
        let mut reference_cursor = 0;
        let reference_records = drive(&mut reference, &events, &mut reference_cursor, None);
        let reference_bytes = reference.snapshot().to_bytes();

        // Interrupted run: kill, serialise, decode, resume.
        let mut first = Simulation::new(&instance, dynamics, &f0, &config);
        let mut cursor = 0;
        let mut records = drive(&mut first, &events, &mut cursor, Some(kill_phase));
        let bytes = first.snapshot().to_bytes();
        drop(first);
        let decoded = EngineSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = Simulation::from_snapshot(dynamics, &decoded).unwrap();
        // Cursor recovery exactly as the daemon does it: everything
        // due strictly before the checkpoint phase was already applied.
        let mut resumed_cursor = events
            .iter()
            .take_while(|e| e.at_phase < resumed.phases_run())
            .count();
        prop_assert_eq!(resumed_cursor, cursor);
        records.extend(drive(&mut resumed, &events, &mut resumed_cursor, None));

        prop_assert_eq!(records.len(), reference_records.len());
        prop_assert_eq!(records, reference_records);
        prop_assert_eq!(resumed.snapshot().to_bytes(), reference_bytes);
    }
}

/// A fully-featured snapshot: faults, guard, an applied event, a few
/// phases of history — every optional component present.
fn rich_snapshot() -> EngineSnapshot {
    let instance = builders::braess();
    let policy = stock_policy_zoo(instance.latency_upper_bound()).swap_remove(4);
    let dynamics: &dyn ReroutingPolicy = &*policy;
    let config = SimulationConfig::new(0.25, 20)
        .with_flows()
        .with_faults(
            FaultPlan::new(11)
                .with_drop_probability(0.2)
                .unwrap()
                .with_staleness(0, 2)
                .unwrap(),
        )
        .with_guard(GuardConfig::default());
    let mut sim = Simulation::new(&instance, dynamics, &FlowVec::uniform(&instance), &config);
    for _ in 0..7 {
        sim.step().unwrap();
    }
    sim.apply_event(&[EventAction::ScaleLatency {
        edge: EdgeId::from_index(1),
        factor: 1.3,
    }])
    .unwrap();
    for _ in 0..3 {
        sim.step().unwrap();
    }
    sim.snapshot()
}

#[test]
fn rich_snapshot_round_trips_bit_exactly() {
    let snapshot = rich_snapshot();
    assert!(snapshot.guard.is_some(), "guard state must be present");
    assert!(snapshot.fault.is_some(), "fault state must be present");
    let bytes = snapshot.to_bytes();
    let decoded = EngineSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.to_bytes(), bytes);
}

#[test]
fn every_single_byte_flip_is_caught_typed() {
    // Satellite: corruption anywhere — header, checksum, payload —
    // must surface as a typed SnapshotError, never a panic and never
    // a silently-accepted snapshot.
    let bytes = rich_snapshot().to_bytes();
    for position in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 0x01;
        assert!(
            EngineSnapshot::from_bytes(&corrupt).is_err(),
            "flipping byte {position} ({:#04x}) was not detected",
            bytes[position],
        );
    }
}

#[test]
fn every_truncation_is_caught_typed() {
    let bytes = rich_snapshot().to_bytes();
    // Every proper prefix must fail typed (torn write at any point).
    for cut in (0..bytes.len()).step_by(97) {
        let error = EngineSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                error,
                SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)
            ),
            "prefix of {cut} bytes gave {error:?}"
        );
    }
}

#[test]
fn over_deep_payload_is_corrupt_not_a_stack_overflow() {
    // A payload that passes the length and checksum checks but nests
    // past the parser's limit is refused typed.
    let payload = "[".repeat(200_000);
    let bytes = format!(
        "WARDROP-SNAPSHOT v{SNAPSHOT_VERSION} len={} fnv={:016x}\n{payload}",
        payload.len(),
        fnv1a64(payload.as_bytes())
    );
    match EngineSnapshot::from_bytes(bytes.as_bytes()) {
        Err(SnapshotError::Corrupt(message)) => {
            assert!(message.contains("recursion"), "{message}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn foreign_schema_version_is_refused() {
    let bytes = rich_snapshot().to_bytes();
    let text = String::from_utf8(bytes).unwrap();
    let bumped = text.replacen(
        &format!("v{SNAPSHOT_VERSION} "),
        &format!("v{} ", SNAPSHOT_VERSION + 1),
        1,
    );
    match EngineSnapshot::from_bytes(bumped.as_bytes()) {
        Err(SnapshotError::SchemaMismatch { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

#[test]
fn fault_snapshot_round_trips_through_serde() {
    let instance = builders::braess();
    let plan = FaultPlan::new(42)
        .with_drop_probability(0.25)
        .unwrap()
        .with_partial_updates(0.75)
        .unwrap()
        .with_noise(0.01)
        .unwrap()
        .with_staleness(0, 4)
        .unwrap();
    let state = FaultState::new(plan, &instance).unwrap();
    let snapshot = state.snapshot();
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: FaultSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn guard_snapshot_round_trips_through_serde() {
    let mut guard = SmoothnessGuard::new(GuardConfig::default());
    // Record a violation and a restore so the log is non-trivial.
    guard.observe(0, 0.0, 1.0);
    guard.observe(1, 0.25, 2.0);
    guard.observe(2, 0.5, 1.5);
    let snapshot = guard.snapshot();
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: GuardSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    // And the restored guard continues from the same state.
    let restored = SmoothnessGuard::from_snapshot(GuardConfig::default(), &back).unwrap();
    assert_eq!(restored.scale(), guard.scale());
    assert_eq!(restored.log().events().len(), guard.log().events().len());
}

#[test]
fn sparse_fault_plan_decodes_with_defaults() {
    // The manual serde impl tolerates knobs missing from older
    // checkpoints: absent keys take the plan defaults.
    let sparse: FaultPlan = serde_json::from_str(r#"{"seed": 9}"#).unwrap();
    assert_eq!(sparse.seed(), 9);
    assert_eq!(sparse.drop_probability(), 0.0);
    assert_eq!(sparse.refresh_fraction(), 1.0);
    assert!(sparse.staleness().is_empty());
}

#[test]
fn snapshot_header_is_pinned() {
    // Golden: the payload length and checksum of a fixed snapshot. Any
    // change to the snapshot encoding changes these bytes, and with
    // them every checkpoint written before it.
    let bytes = rich_snapshot().to_bytes();
    let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
    assert_eq!(
        std::str::from_utf8(&bytes[..newline]).unwrap(),
        "WARDROP-SNAPSHOT v1 len=1724 fnv=56b561570507ec33"
    );
}

#[test]
fn instance_serialised_form_is_pinned() {
    // Golden: the length and FNV-1a hash of two instances' JSON. A
    // snapshot embeds its instance verbatim, so the encoding of every
    // field, the shared path arena included, must not move.
    for (name, instance, len, fnv) in [
        (
            "multi_commodity_grid(3, 3, 5)",
            builders::multi_commodity_grid(3, 3, 5),
            1323,
            0x31a6_01fb_b963_889a,
        ),
        (
            "grid_network(4, 4, 8)",
            builders::grid_network(4, 4, 8),
            2662,
            0xd058_1be6_f5ad_6e2b,
        ),
    ] {
        let json = serde_json::to_string(&instance).unwrap();
        assert_eq!((json.len(), fnv1a64(json.as_bytes())), (len, fnv), "{name}");
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, instance, "{name} round trip");
    }
}
