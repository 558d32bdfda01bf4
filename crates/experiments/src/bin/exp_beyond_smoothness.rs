//! E8 — beyond α-smoothness: the relative-slack dynamics of the
//! follow-up work (\[10\] in the paper; Fischer–Räcke–Vöcking, STOC'06).
//!
//! The paper's conclusions point out two shortcomings of slope-based
//! smoothness: natural latency classes have unbounded slope, and the
//! convergence times are pseudopolynomial in `ℓmax`. Reference \[10\]
//! fixes both with a policy whose migration probability is the
//! *relative* slack `(ℓ_P − ℓ_Q)/ℓ_P` — not α-smooth for any α, and
//! governed by the latencies' **elasticity** instead of their slope.
//!
//! This experiment demonstrates the trade exactly as the two papers
//! describe it:
//!
//! * on instances with bounded elasticity and positive latencies, the
//!   relative-slack dynamics converges — and needs *fewer* phases than
//!   the slope-limited replicator precisely when `ℓmax`/slope is large
//!   (steep polynomial and M/M/1 latencies);
//! * on the §3.2 oscillator (vanishing latency ⇒ infinite elasticity)
//!   it degenerates into best response and oscillates, confirming it
//!   is outside the Corollary 5 guarantee.

use serde::Serialize;
use wardrop_analysis::oscillation::amplitude;
use wardrop_core::engine::{run, SimulationConfig};
use wardrop_core::policy::{fast_relative_slack, replicator};
use wardrop_core::theory::safe_update_period;
use wardrop_experiments::{banner, fmt_g, write_json, Table};
use wardrop_net::builders;
use wardrop_net::flow::FlowVec;
use wardrop_net::instance::Instance;
use wardrop_net::latency::Latency;

#[derive(Debug, Serialize)]
struct Row {
    network: String,
    elasticity: f64,
    slope: f64,
    t_period: f64,
    replicator_phases_to_eq: Option<usize>,
    relative_slack_phases_to_eq: Option<usize>,
}

/// Phases until the run first starts at a weak (δ, ε)-equilibrium and
/// stays there for the rest of the horizon.
fn phases_to_weak_eq(traj: &wardrop_core::trajectory::Trajectory, eps: f64) -> Option<usize> {
    let mut last_bad = None;
    for p in &traj.phases {
        if p.weakly_unsatisfied[0] > eps {
            last_bad = Some(p.index);
        }
    }
    match last_bad {
        None => Some(0),
        Some(i) if i + 1 < traj.len() => Some(i + 1),
        _ => None, // still bad at the end of the horizon
    }
}

fn main() {
    banner(
        "E8",
        "Beyond smoothness: relative-slack dynamics (paper's reference [10])",
    );

    // Steepness-stressed instances: polynomial and M/M/1 latencies have
    // moderate elasticity but large slope/ℓmax, the regime where the
    // slope-based safe period forces the replicator to crawl.
    let networks: Vec<(String, Instance)> = vec![
        (
            "affine(4)".into(),
            builders::parallel_links(vec![
                Latency::Affine { a: 1.0, b: 1.0 },
                Latency::Affine { a: 0.5, b: 2.0 },
                Latency::Affine { a: 0.2, b: 3.0 },
                Latency::Affine { a: 1.5, b: 0.5 },
            ]),
        ),
        (
            "poly-deg6(3)".into(),
            builders::parallel_links(vec![
                Latency::Polynomial(vec![0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0]),
                Latency::Polynomial(vec![0.2, 0.0, 0.0, 6.0]),
                Latency::Affine { a: 1.0, b: 1.0 },
            ]),
        ),
        (
            "mm1(3)".into(),
            builders::parallel_links(vec![
                Latency::Mm1 { capacity: 1.2 },
                Latency::Mm1 { capacity: 1.5 },
                Latency::Mm1 { capacity: 2.5 },
            ]),
        ),
    ];

    let (delta_frac, eps) = (0.02, 0.02);
    let horizon = 40_000;
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "network",
        "elasticity",
        "slope β",
        "T",
        "replicator phases",
        "rel-slack phases",
    ]);
    for (name, inst) in &networks {
        let elasticity = inst.elasticity_bound_estimate(256);
        let slope = inst.slope_bound();
        // Both policies run with the *replicator's* safe period so the
        // comparison is per-phase-fair; the relative-slack policy has no
        // safe period of its own in the paper's framework.
        let lmax = inst.latency_upper_bound();
        let alpha = 1.0 / lmax;
        let t = safe_update_period(inst, alpha).min(1.0);
        let delta = delta_frac * lmax;
        let config = SimulationConfig::new(t, horizon).with_deltas(vec![delta]);
        let f0 = FlowVec::uniform(inst);

        let rep = run(inst, &replicator(inst), &f0, &config);
        let fast = run(inst, &fast_relative_slack(), &f0, &config);
        let row = Row {
            network: name.clone(),
            elasticity,
            slope,
            t_period: t,
            replicator_phases_to_eq: phases_to_weak_eq(&rep, eps),
            relative_slack_phases_to_eq: phases_to_weak_eq(&fast, eps),
        };
        table.row(vec![
            name.clone(),
            fmt_g(elasticity),
            fmt_g(slope),
            fmt_g(t),
            row.replicator_phases_to_eq
                .map_or(">horizon".into(), |v| v.to_string()),
            row.relative_slack_phases_to_eq
                .map_or(">horizon".into(), |v| v.to_string()),
        ]);
        rows.push(row);
    }
    table.print();

    // The degenerate case: infinite elasticity (latency vanishes) —
    // relative slack becomes best response and oscillates.
    let osc = builders::two_link_oscillator(4.0);
    println!(
        "\n§3.2 oscillator elasticity estimate: {} (latency vanishes on half the range)",
        fmt_g(osc.elasticity_bound_estimate(256))
    );
    let f0 = FlowVec::from_values(&osc, vec![0.9, 0.1]).expect("feasible");
    let config = SimulationConfig::new(0.25, 800).with_flows();
    let fast = run(&osc, &fast_relative_slack(), &f0, &config);
    let amp = amplitude(&fast, 16);
    let increases = fast.monotonicity_violations(1e-10);
    println!(
        "relative-slack on the oscillator: tail amplitude {}, potential increases {}",
        fmt_g(amp),
        increases
    );

    write_json("e8_beyond_smoothness", &rows);

    for r in &rows {
        let fast = r
            .relative_slack_phases_to_eq
            .expect("relative slack must converge on bounded-elasticity instances");
        let rep = r
            .replicator_phases_to_eq
            .expect("replicator must converge within its guarantee");
        assert!(r.elasticity.is_finite());
        // On the steep (non-affine) instances the elasticity-based
        // dynamics must be strictly faster.
        if r.network != "affine(4)" {
            assert!(
                fast < rep,
                "{}: relative slack ({fast}) should beat the replicator ({rep})",
                r.network
            );
        }
    }
    assert!(amp > 0.05, "oscillator amplitude {amp}");
    assert!(increases > 0, "oscillator run must break monotonicity");
    println!("\nE8 PASS: elasticity-based dynamics faster on steep instances, but oscillates where elasticity is unbounded.");
}
