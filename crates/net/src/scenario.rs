//! Non-stationary scenarios: time-varying demands and latencies.
//!
//! The paper freezes an [`Instance`] forever; real systems do not. A
//! [`Scenario`] is a list of [`Event`]s — demand surges, link
//! degradations and repairs — pinned to bulletin-board phase indices.
//! Each event mutates the instance through the controlled setters
//! ([`Instance::set_demand`], [`Instance::set_latency`],
//! [`Instance::scale_latency`]), which replace only the changed demand
//! or latency function and never touch the path sets or the CSR
//! incidence — so the engine's pre-allocated buffers stay valid across
//! events. The theorem constants (`β`, `ℓmax`) are computed when read.
//!
//! Two small schedule languages, [`DemandSchedule`] and
//! [`LatencyModulation`], compile recurring patterns (steps, pulses)
//! into events, so scenarios like *rush-hour* or *link-failure* are a
//! few lines (see `wardrop_experiments::scenarios` and the
//! `wardrop-lab` binary).
//!
//! Epochs: the simulation engine increments an *epoch* counter at every
//! applied event; the per-epoch segments between shocks are what the
//! tracking analysis (`wardrop_analysis::tracking`) measures recovery
//! times and tracking regret on.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::EdgeId;
use crate::instance::{check_demand, check_edge, check_scale_factor, Instance};
use crate::latency::Latency;

/// One atomic mutation of an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventAction {
    /// Set commodity `commodity`'s demand to `demand`, renormalising
    /// the remaining commodities (see [`Instance::set_demand`]).
    SetDemand {
        /// Target commodity index.
        commodity: usize,
        /// New demand share in `(0, 1)`.
        demand: f64,
    },
    /// Replace edge `edge`'s latency function (see
    /// [`Instance::set_latency`]).
    SetLatency {
        /// Target edge.
        edge: EdgeId,
        /// The new latency function.
        latency: Latency,
    },
    /// Scale edge `edge`'s latency by `factor` (see
    /// [`Instance::scale_latency`]): degradation for `factor > 1`,
    /// repair for `factor < 1`.
    ScaleLatency {
        /// Target edge.
        edge: EdgeId,
        /// Non-negative scale factor.
        factor: f64,
    },
}

impl EventAction {
    /// Applies the action to `instance`.
    ///
    /// # Errors
    ///
    /// Propagates the setter's [`NetError`]; the instance is unchanged
    /// on error.
    pub fn apply(&self, instance: &mut Instance) -> Result<(), NetError> {
        match self {
            EventAction::SetDemand { commodity, demand } => {
                instance.set_demand(*commodity, *demand)
            }
            EventAction::SetLatency { edge, latency } => {
                instance.set_latency(*edge, latency.clone())
            }
            EventAction::ScaleLatency { edge, factor } => instance.scale_latency(*edge, *factor),
        }
    }

    /// Checks that applying `actions` to `instance` in order would
    /// succeed, without applying anything — the validation the setters
    /// run, in the order they run it, so the first error is the one the
    /// failing setter would return. Whether a scaled latency is valid
    /// depends on the function the earlier actions left on its edge
    /// (scaling can overflow), so each `ScaleLatency` is checked
    /// against that function.
    ///
    /// Allocates only to scale a latency function that owns heap data
    /// (polynomial, piecewise-linear, M/M/1).
    ///
    /// # Errors
    ///
    /// The first failing action's [`NetError`].
    pub fn check_all(actions: &[EventAction], instance: &Instance) -> Result<(), NetError> {
        for (j, action) in actions.iter().enumerate() {
            match action {
                EventAction::SetDemand { commodity, demand } => {
                    check_demand(*commodity, *demand, instance.num_commodities())?;
                }
                EventAction::SetLatency { edge, latency } => {
                    check_edge(*edge, instance.num_edges())?;
                    latency.validate()?;
                }
                EventAction::ScaleLatency { edge, factor } => {
                    check_edge(*edge, instance.num_edges())?;
                    check_scale_factor(*factor)?;
                    let mut current = Cow::Borrowed(instance.latency(*edge));
                    for earlier in &actions[..j] {
                        match earlier {
                            EventAction::SetLatency { edge: e, latency } if e == edge => {
                                current = Cow::Borrowed(latency);
                            }
                            EventAction::ScaleLatency { edge: e, factor } if e == edge => {
                                current = Cow::Owned(current.scaled(*factor));
                            }
                            _ => {}
                        }
                    }
                    current.scaled(*factor).validate()?;
                }
            }
        }
        Ok(())
    }

    /// The edge whose latency function the action replaces (`None` for
    /// demand actions).
    pub fn latency_edge(&self) -> Option<EdgeId> {
        match self {
            EventAction::SetDemand { .. } => None,
            EventAction::SetLatency { edge, .. } | EventAction::ScaleLatency { edge, .. } => {
                Some(*edge)
            }
        }
    }

    /// One-line human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            EventAction::SetDemand { commodity, demand } => {
                format!("demand[{commodity}] ← {demand}")
            }
            EventAction::SetLatency { edge, latency } => {
                format!("ℓ[{}] ← {latency}", edge.index())
            }
            EventAction::ScaleLatency { edge, factor } => {
                format!("ℓ[{}] ×= {factor}", edge.index())
            }
        }
    }
}

/// A shock: one or more actions applied atomically at the start of
/// phase `at_phase` (before the board for that phase is posted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Phase index at whose start the event fires.
    pub at_phase: usize,
    /// Label for reports (e.g. `"rush-hour onset"`).
    pub label: String,
    /// The mutations, applied in order.
    pub actions: Vec<EventAction>,
}

impl Event {
    /// Creates an event with a single action.
    pub fn at(at_phase: usize, label: impl Into<String>, action: EventAction) -> Self {
        Event {
            at_phase,
            label: label.into(),
            actions: vec![action],
        }
    }
}

/// A piecewise-constant demand profile over phases for one commodity.
///
/// Breakpoints `(phase, demand)` are sorted by phase; the demand from
/// phase `p` on is the value of the last breakpoint at or before `p`.
/// The value before the first breakpoint is the first breakpoint's
/// value (which should match the instance's initial demand — the
/// compiler emits events only for breakpoints at phase `> 0`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandSchedule {
    breakpoints: Vec<(usize, f64)>,
}

impl DemandSchedule {
    /// A schedule from raw breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `breakpoints` is empty or phases are not strictly
    /// increasing.
    pub fn piecewise(breakpoints: Vec<(usize, f64)>) -> Self {
        assert!(!breakpoints.is_empty(), "need at least one breakpoint");
        assert!(
            breakpoints.windows(2).all(|w| w[0].0 < w[1].0),
            "breakpoint phases must be strictly increasing"
        );
        DemandSchedule { breakpoints }
    }

    /// A single step: `before` until `at_phase`, `after` from then on.
    pub fn step(before: f64, at_phase: usize, after: f64) -> Self {
        Self::piecewise(vec![(0, before), (at_phase, after)])
    }

    /// A pulse: `base` except for `[start, start + duration)`, where
    /// the demand is `peak`.
    ///
    /// # Panics
    ///
    /// Panics if `start == 0` or `duration == 0` (use
    /// [`DemandSchedule::step`] for one-sided changes).
    pub fn pulse(base: f64, peak: f64, start: usize, duration: usize) -> Self {
        assert!(
            start > 0 && duration > 0,
            "pulse needs start > 0, duration > 0"
        );
        Self::piecewise(vec![(0, base), (start, peak), (start + duration, base)])
    }

    /// The scheduled demand from phase `phase` on.
    pub fn demand_at(&self, phase: usize) -> f64 {
        let mut value = self.breakpoints[0].1;
        for &(p, d) in &self.breakpoints {
            if p <= phase {
                value = d;
            } else {
                break;
            }
        }
        value
    }

    /// The change points after phase 0: `(phase, new_demand)` pairs.
    pub fn change_points(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.breakpoints.iter().copied().filter(|(p, _)| *p > 0)
    }
}

/// A piecewise-constant multiplicative latency profile for one edge,
/// with factors *relative to the original latency*.
///
/// Compiled into cumulative [`EventAction::ScaleLatency`] events: a
/// transition from factor `a` to factor `b` emits a scale by `b / a`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModulation {
    breakpoints: Vec<(usize, f64)>,
}

impl LatencyModulation {
    /// A modulation from raw breakpoints `(phase, factor)`.
    ///
    /// # Panics
    ///
    /// Panics if `breakpoints` is empty, phases are not strictly
    /// increasing, or any factor is not positive and finite (factors
    /// must be invertible so repairs can be expressed as scale events).
    pub fn piecewise(breakpoints: Vec<(usize, f64)>) -> Self {
        assert!(!breakpoints.is_empty(), "need at least one breakpoint");
        assert!(
            breakpoints.windows(2).all(|w| w[0].0 < w[1].0),
            "breakpoint phases must be strictly increasing"
        );
        assert!(
            breakpoints.iter().all(|(_, f)| f.is_finite() && *f > 0.0),
            "modulation factors must be positive and finite"
        );
        LatencyModulation { breakpoints }
    }

    /// A degradation pulse: factor 1 except for
    /// `[start, start + duration)`, where the latency is scaled by
    /// `peak_factor`.
    ///
    /// # Panics
    ///
    /// Panics if `start == 0` or `duration == 0`.
    pub fn pulse(peak_factor: f64, start: usize, duration: usize) -> Self {
        assert!(
            start > 0 && duration > 0,
            "pulse needs start > 0, duration > 0"
        );
        Self::piecewise(vec![
            (0, 1.0),
            (start, peak_factor),
            (start + duration, 1.0),
        ])
    }

    /// The factor (relative to the original latency) from phase
    /// `phase` on. Before the first breakpoint the factor is 1 — the
    /// edge carries its original latency until the schedule first
    /// touches it.
    pub fn factor_at(&self, phase: usize) -> f64 {
        let mut value = 1.0;
        for &(p, f) in &self.breakpoints {
            if p <= phase {
                value = f;
            } else {
                break;
            }
        }
        value
    }

    /// Cumulative scale events: `(phase, relative_factor)` with
    /// `relative_factor = factor_at(phase) / previous factor`, starting
    /// from the implicit factor 1 of the untouched edge. Applying the
    /// emitted `ScaleLatency` events in order reproduces exactly the
    /// [`LatencyModulation::factor_at`] profile.
    pub fn change_points(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut prev = 1.0;
        for &(p, f) in &self.breakpoints {
            if f != prev {
                out.push((p, f / prev));
            }
            prev = f;
        }
        out
    }
}

/// A named, phase-indexed shock sequence over one instance.
///
/// # Examples
///
/// ```
/// use wardrop_net::scenario::{DemandSchedule, LatencyModulation, Scenario};
/// use wardrop_net::EdgeId;
///
/// // Rush hour: commodity 0 surges at phase 50, relaxes at 100, while
/// // an arterial edge degrades 3× over the same window.
/// let s = Scenario::new("rush-hour")
///     .with_demand_schedule(0, &DemandSchedule::pulse(0.5, 0.75, 50, 50))
///     .with_latency_modulation(EdgeId::from_index(0), &LatencyModulation::pulse(3.0, 50, 50));
/// assert_eq!(s.events().len(), 4);
/// assert_eq!(s.events()[0].at_phase, 50);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Scenario {
    name: String,
    events: Vec<Event>,
}

impl Scenario {
    /// An empty scenario (a static run).
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The events, sorted by phase (stable for equal phases).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Adds an event (builder style).
    pub fn with_event(mut self, event: Event) -> Self {
        self.push_event(event);
        self
    }

    /// Adds an event, keeping the list sorted by phase (stable).
    pub fn push_event(&mut self, event: Event) {
        let pos = self
            .events
            .partition_point(|e| e.at_phase <= event.at_phase);
        self.events.insert(pos, event);
    }

    /// Compiles a demand schedule for `commodity` into events (builder
    /// style). Only change points after phase 0 emit events; the
    /// schedule's initial value must match the instance.
    pub fn with_demand_schedule(mut self, commodity: usize, schedule: &DemandSchedule) -> Self {
        for (phase, demand) in schedule.change_points() {
            self.push_event(Event::at(
                phase,
                format!("demand[{commodity}] → {demand}"),
                EventAction::SetDemand { commodity, demand },
            ));
        }
        self
    }

    /// Compiles a latency modulation for `edge` into cumulative scale
    /// events (builder style).
    pub fn with_latency_modulation(mut self, edge: EdgeId, modulation: &LatencyModulation) -> Self {
        for (phase, factor) in modulation.change_points() {
            self.push_event(Event::at(
                phase,
                format!("ℓ[{}] ×{factor:.4}", edge.index()),
                EventAction::ScaleLatency { edge, factor },
            ));
        }
        self
    }

    /// True if the scenario has no events.
    pub fn is_static(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest event phase, or `None` for a static scenario.
    pub fn last_event_phase(&self) -> Option<usize> {
        self.events.last().map(|e| e.at_phase)
    }

    /// Replays every event onto `instance` in order, yielding the
    /// instance state of each epoch: element `k` of the result is a
    /// clone of the instance after the first `k` events (element 0 is
    /// the unmodified base). The per-epoch tracking analysis compares
    /// trajectories against the Frank–Wolfe optimum of these states.
    ///
    /// # Errors
    ///
    /// Propagates the first failing event application.
    pub fn epoch_instances(&self, instance: &Instance) -> Result<Vec<Instance>, NetError> {
        let mut current = instance.clone();
        let mut out = Vec::with_capacity(self.events.len() + 1);
        out.push(current.clone());
        for event in &self.events {
            for action in &event.actions {
                action.apply(&mut current)?;
            }
            out.push(current.clone());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn demand_schedule_pulse_shape() {
        let s = DemandSchedule::pulse(0.5, 0.8, 10, 5);
        assert_eq!(s.demand_at(0), 0.5);
        assert_eq!(s.demand_at(9), 0.5);
        assert_eq!(s.demand_at(10), 0.8);
        assert_eq!(s.demand_at(14), 0.8);
        assert_eq!(s.demand_at(15), 0.5);
        let cps: Vec<_> = s.change_points().collect();
        assert_eq!(cps, vec![(10, 0.8), (15, 0.5)]);
    }

    #[test]
    fn demand_schedule_step_shape() {
        let s = DemandSchedule::step(0.5, 7, 0.9);
        assert_eq!(s.demand_at(6), 0.5);
        assert_eq!(s.demand_at(7), 0.9);
        assert_eq!(s.demand_at(1000), 0.9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn demand_schedule_rejects_unsorted_breakpoints() {
        let _ = DemandSchedule::piecewise(vec![(5, 0.5), (5, 0.6)]);
    }

    #[test]
    fn latency_modulation_emits_cumulative_factors() {
        let m = LatencyModulation::pulse(4.0, 10, 5);
        assert_eq!(m.factor_at(0), 1.0);
        assert_eq!(m.factor_at(12), 4.0);
        assert_eq!(m.factor_at(15), 1.0);
        let cps = m.change_points();
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0], (10, 4.0));
        assert!((cps[1].1 - 0.25).abs() < 1e-15);
    }

    #[test]
    fn modulation_with_initial_factor_emits_phase_zero_event() {
        let m = LatencyModulation::piecewise(vec![(0, 2.0), (5, 1.0)]);
        let cps = m.change_points();
        assert_eq!(cps[0], (0, 2.0));
        assert!((cps[1].1 - 0.5).abs() < 1e-15);
    }

    #[test]
    fn modulation_events_reproduce_factor_profile() {
        // Regression: a first breakpoint at phase > 0 with a non-unit
        // factor must be established by an event of its own — the
        // compiled events, applied cumulatively from the untouched
        // edge, must land exactly on factor_at at every phase.
        for m in [
            LatencyModulation::piecewise(vec![(3, 2.0), (6, 1.0)]),
            LatencyModulation::piecewise(vec![(0, 0.5), (4, 3.0), (9, 1.0)]),
            LatencyModulation::pulse(4.0, 2, 5),
        ] {
            let mut applied = 1.0;
            let mut cps = m.change_points().into_iter().peekable();
            for phase in 0..12 {
                while let Some(&(p, f)) = cps.peek() {
                    if p <= phase {
                        applied *= f;
                        cps.next();
                    } else {
                        break;
                    }
                }
                assert!(
                    (applied - m.factor_at(phase)).abs() < 1e-12,
                    "phase {phase}: applied {applied} vs factor_at {}",
                    m.factor_at(phase)
                );
            }
        }
    }

    #[test]
    fn modulation_factor_is_one_before_first_breakpoint() {
        let m = LatencyModulation::piecewise(vec![(3, 2.0), (6, 1.0)]);
        assert_eq!(m.factor_at(0), 1.0);
        assert_eq!(m.factor_at(2), 1.0);
        assert_eq!(m.factor_at(3), 2.0);
        assert_eq!(m.factor_at(6), 1.0);
        assert_eq!(m.change_points(), vec![(3, 2.0), (6, 0.5)]);
    }

    #[test]
    fn scenario_keeps_events_sorted() {
        let s = Scenario::new("test")
            .with_event(Event::at(
                20,
                "late",
                EventAction::ScaleLatency {
                    edge: EdgeId::from_index(0),
                    factor: 2.0,
                },
            ))
            .with_event(Event::at(
                5,
                "early",
                EventAction::ScaleLatency {
                    edge: EdgeId::from_index(1),
                    factor: 3.0,
                },
            ));
        let phases: Vec<_> = s.events().iter().map(|e| e.at_phase).collect();
        assert_eq!(phases, vec![5, 20]);
        assert_eq!(s.last_event_phase(), Some(20));
        assert!(!s.is_static());
        assert!(Scenario::new("empty").is_static());
    }

    #[test]
    fn actions_apply_to_instances() {
        let mut inst = builders::multi_commodity_grid(3, 3, 5);
        EventAction::SetDemand {
            commodity: 0,
            demand: 0.7,
        }
        .apply(&mut inst)
        .unwrap();
        assert!((inst.commodities()[0].demand - 0.7).abs() < 1e-12);
        let beta0 = inst.slope_bound();
        EventAction::ScaleLatency {
            edge: EdgeId::from_index(0),
            factor: 10.0,
        }
        .apply(&mut inst)
        .unwrap();
        assert!(inst.slope_bound() >= beta0);
        let bad = EventAction::SetDemand {
            commodity: 9,
            demand: 0.5,
        };
        assert!(bad.apply(&mut inst).is_err());
        assert!(!bad.describe().is_empty());
    }

    #[test]
    fn epoch_instances_replay_events() {
        let base = builders::multi_commodity_grid(3, 3, 5);
        let scenario = Scenario::new("two-shocks")
            .with_demand_schedule(0, &DemandSchedule::pulse(0.5, 0.8, 10, 10));
        let epochs = scenario.epoch_instances(&base).unwrap();
        assert_eq!(epochs.len(), 3);
        assert!((epochs[0].commodities()[0].demand - 0.5).abs() < 1e-12);
        assert!((epochs[1].commodities()[0].demand - 0.8).abs() < 1e-12);
        assert!((epochs[2].commodities()[0].demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip_latency_pulse_restores_instance() {
        let base = builders::grid_network(3, 3, 7);
        let scenario = Scenario::new("fail-repair")
            .with_latency_modulation(EdgeId::from_index(2), &LatencyModulation::pulse(25.0, 5, 5));
        let epochs = scenario.epoch_instances(&base).unwrap();
        let lmax0 = base.latency_upper_bound();
        assert!(epochs[1].latency_upper_bound() > lmax0);
        assert!((epochs[2].latency_upper_bound() - lmax0).abs() < 1e-9 * lmax0.max(1.0));
    }

    #[test]
    fn epoch_instances_share_their_base_arena() {
        // Demand and latency events touch only the owned state, so no
        // epoch copies the path arena.
        let base = builders::multi_commodity_grid(3, 3, 5);
        let scenario = Scenario::new("mixed")
            .with_demand_schedule(0, &DemandSchedule::pulse(0.5, 0.8, 10, 10))
            .with_latency_modulation(EdgeId::from_index(2), &LatencyModulation::pulse(4.0, 5, 20));
        let epochs = scenario.epoch_instances(&base).unwrap();
        assert_eq!(epochs.len(), 5);
        for (k, epoch) in epochs.iter().enumerate() {
            assert!(epoch.shares_paths_with(&base), "epoch {k}");
        }
        assert_ne!(epochs[1].latencies(), base.latencies());
    }
}
