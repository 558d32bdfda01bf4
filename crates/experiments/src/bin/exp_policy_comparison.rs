//! E6a — The policy zoo under stale information.
//!
//! The paper's motivating comparison (§1–§2): on the same networks and
//! the same stale bulletin board, how do the candidate policies fare?
//!
//! * best response (not smooth) — oscillates on the §3.2 instance;
//! * smoothed best response (logit) with increasing greediness `c`;
//! * uniform + linear (Theorem 6);
//! * replicator = proportional + linear (Theorem 7).
//!
//! Reports final potential gap to the Frank–Wolfe ground truth,
//! monotonicity, orbit classification and bad-phase counts.

use serde::Serialize;
use wardrop_analysis::frank_wolfe::optimal_potential;
use wardrop_analysis::oscillation::{amplitude, detect_orbit, OrbitKind};
use wardrop_core::best_response::BestResponse;
use wardrop_core::engine::{run, Dynamics, SimulationConfig};
use wardrop_core::policy::{replicator, smoothed_best_response, uniform_linear};
use wardrop_core::theory::safe_update_period;
use wardrop_experiments::{banner, fmt_g, write_json, Table};
use wardrop_net::builders;
use wardrop_net::flow::FlowVec;
use wardrop_net::instance::Instance;

#[derive(Debug, Serialize)]
struct Row {
    network: String,
    policy: String,
    final_gap: f64,
    monotone: bool,
    orbit: String,
    trailing_amplitude: f64,
    bad_phases: usize,
}

fn orbit_name(kind: OrbitKind) -> String {
    match kind {
        OrbitKind::FixedPoint => "fixed point".into(),
        OrbitKind::Periodic(p) => format!("period-{p}"),
        OrbitKind::Aperiodic => "aperiodic".into(),
    }
}

fn main() {
    banner("E6a", "Policy comparison under stale information");

    let networks: Vec<(String, Instance, FlowVec)> = vec![
        {
            let inst = builders::two_link_oscillator(4.0);
            let f0 = FlowVec::from_values(&inst, vec![0.9, 0.1]).expect("feasible");
            ("oscillator(β=4)".to_string(), inst, f0)
        },
        {
            let inst = builders::braess();
            let f0 = FlowVec::uniform(&inst);
            ("braess".to_string(), inst, f0)
        },
        {
            let inst = builders::grid_network(3, 3, 42);
            let f0 = FlowVec::uniform(&inst);
            ("grid(3×3)".to_string(), inst, f0)
        },
    ];

    let mut rows = Vec::new();
    for (name, inst, f0) in &networks {
        println!("\nnetwork: {name}");
        let phi_star = optimal_potential(inst);
        let lmax = inst.latency_upper_bound();
        let alpha = 1.0 / lmax;
        let t = safe_update_period(inst, alpha);
        let phases = 3000;
        let mut table = Table::new(vec![
            "policy",
            "final gap",
            "monotone",
            "orbit",
            "tail amplitude",
            "bad phases (δ=0.1ℓmax, ε=0.05)",
        ]);

        let delta = 0.1 * lmax;
        let dynamics: Vec<(String, Box<dyn Dynamics>)> = vec![
            ("best-response".into(), Box::new(BestResponse::new())),
            (
                "logit(c=1)+linear".into(),
                Box::new(smoothed_best_response(inst, 1.0)),
            ),
            (
                "logit(c=100)+linear".into(),
                Box::new(smoothed_best_response(inst, 100.0)),
            ),
            ("uniform+linear".into(), Box::new(uniform_linear(inst))),
            ("replicator".into(), Box::new(replicator(inst))),
        ];
        for (pname, dyn_) in &dynamics {
            let config = SimulationConfig::new(t, phases)
                .with_flows()
                .with_deltas(vec![delta]);
            let traj = run(inst, dyn_.as_ref(), f0, &config);
            let row = Row {
                network: name.clone(),
                policy: pname.clone(),
                final_gap: traj.phases.last().expect("ran").potential_end - phi_star,
                monotone: traj.monotonicity_violations(1e-10) == 0,
                orbit: orbit_name(detect_orbit(&traj, 16, 4, 1e-7)),
                trailing_amplitude: amplitude(&traj, 16),
                bad_phases: traj.bad_phase_count(0, 0.05),
            };
            table.row(vec![
                pname.clone(),
                fmt_g(row.final_gap),
                row.monotone.to_string(),
                row.orbit.clone(),
                fmt_g(row.trailing_amplitude),
                row.bad_phases.to_string(),
            ]);
            rows.push(row);
        }
        table.print();
    }
    write_json("e6_policy_comparison", &rows);

    // Headline checks: smooth policies always converge monotonically.
    // ("aperiodic" with a tiny trailing amplitude is a run still
    // creeping toward the fixed point below the orbit tolerance, not
    // an oscillation.)
    for r in rows.iter().filter(|r| r.policy != "best-response") {
        assert!(
            r.monotone,
            "{}/{}: smooth policy not monotone",
            r.network, r.policy
        );
        assert!(
            r.final_gap < 1e-2,
            "{}/{}: gap {}",
            r.network,
            r.policy,
            r.final_gap
        );
        assert!(
            !r.orbit.starts_with("period-"),
            "{}/{}: {}",
            r.network,
            r.policy,
            r.orbit
        );
        assert!(
            r.trailing_amplitude < 1e-2,
            "{}/{}: tail amplitude {}",
            r.network,
            r.policy,
            r.trailing_amplitude
        );
    }
    // … while best response oscillates on the §3.2 instance.
    let br = rows
        .iter()
        .find(|r| r.network.starts_with("oscillator") && r.policy == "best-response")
        .expect("row exists");
    assert_eq!(br.orbit, "period-2", "best response must oscillate");
    // The §3.2 orbit flips between 1/(e^{−T}+1) and its mirror image:
    // amplitude (1−e^{−T})/(1+e^{−T}).
    let t_osc = {
        let inst = &networks[0].1;
        safe_update_period(inst, 1.0 / inst.latency_upper_bound())
    };
    let analytic_amp = (1.0 - (-t_osc).exp()) / (1.0 + (-t_osc).exp());
    assert!(
        br.trailing_amplitude > 0.9 * analytic_amp,
        "amplitude {} vs analytic {analytic_amp}",
        br.trailing_amplitude
    );
    assert!(!br.monotone);
    println!("\nE6a PASS: smooth policies converge monotonically everywhere; best response oscillates on §3.2.");
}
