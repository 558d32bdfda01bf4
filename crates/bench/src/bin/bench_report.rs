//! Machine-readable engine-performance report.
//!
//! Runs every section of [`SECTIONS`] and writes `BENCH_engine.json`
//! (schema `wardrop-bench/engine/v12`): `schema`, `mode`, then one key
//! per section in table order. Each section measures its rows and
//! checks its own gates next to the measurement — bit-identity across
//! lanes and the free zero-fault seam on both backends. The binary
//! always writes the report, then exits non-zero naming every failed
//! gate, so its exit status is the CI gate. Adding a section means
//! adding one table entry; the section history lives in `CHANGES.md`.
//!
//! The report holds only numbers nothing else measures. `perfbench/`
//! times the enumerated and implicit-path engines and the open-system
//! DES at full size, and unit tests own the structural facts
//! (matrix-free rates past 40 000 paths, bounded implicit columns,
//! population-independent agent state).
//!
//! Usage:
//!
//! ```text
//! bench_report [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` keeps only `grid_8x8` of the large `reconfig` workloads and
//! sweeps 1/2 threads on `grid_8x8` and `many_commodity_grid_8x8x6`
//! only; the default sweeps 1/2/4/8 threads and adds the `grid_10x10`
//! and `grid_12x12` rows.

use std::time::Instant;

use serde::Serialize;
use serde_json::Value;
use wardrop_bench::{
    frontier_engine_workloads, grid_12x12_frontier_workload, implicit_path_workloads,
    large_engine_workloads, small_engine_workloads, time_apply_event, EdgeEngineWorkload,
    EngineWorkload,
};
use wardrop_core::edge_engine::PathSeeding;
use wardrop_core::engine::{self, Parallelism};
use wardrop_core::ensemble::{run_many, RunSpec};
use wardrop_core::fault::FaultPlan;
use wardrop_core::{Trajectory, WorkerPool};
use wardrop_net::builders;
use wardrop_net::flow::FlowVec;

/// The schema version this binary emits.
const SCHEMA_VERSION: u32 = 12;

/// One report section: its JSON key and the function that measures
/// its rows and checks its gates.
struct Section {
    name: &'static str,
    run: fn(smoke: bool) -> Measured,
}

/// The only list of sections: emission order and keys both come
/// from here.
const SECTIONS: &[Section] = &[
    Section {
        name: "reconfig",
        run: reconfig,
    },
    Section {
        name: "thread_scaling",
        run: thread_scaling,
    },
    Section {
        name: "ensemble",
        run: ensemble,
    },
    Section {
        name: "fault_overhead",
        run: fault_overhead,
    },
];

/// A section's serialised rows and the gates they failed.
struct Measured {
    rows: Value,
    failures: Vec<String>,
}

impl Measured {
    fn new<T: Serialize>(rows: &[T], gates: fn(&[T]) -> Vec<String>) -> Self {
        Measured {
            rows: serde_json::from_str(&serde_json::to_string(rows).expect("serialise rows"))
                .expect("reparse rows"),
            failures: gates(rows),
        }
    }
}

/// Records `failure()` unless `pass` holds; a NaN measurement fails
/// every comparison and so every gate.
fn check(failures: &mut Vec<String>, pass: bool, failure: impl FnOnce() -> String) {
    if !pass {
        failures.push(failure());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let mode = if smoke { "smoke" } else { "full" };
    let mut report = vec![
        (
            "schema".to_string(),
            Value::Str(format!("wardrop-bench/engine/v{SCHEMA_VERSION}")),
        ),
        ("mode".to_string(), Value::Str(mode.to_string())),
    ];
    let mut failures = Vec::new();
    for section in SECTIONS {
        println!("== {}", section.name);
        let measured = (section.run)(smoke);
        failures.extend(
            measured
                .failures
                .into_iter()
                .map(|f| format!("{}: {f}", section.name)),
        );
        report.push((section.name.to_string(), measured.rows));
    }
    let json = serde_json::to_string_pretty(&Value::Map(report)).expect("serialise report");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");
    assert!(
        failures.is_empty(),
        "bench_report gates failed:\n  {}",
        failures.join("\n  ")
    );
}

#[derive(Debug, Serialize)]
struct ReconfigReport {
    name: String,
    paths: usize,
    edges: usize,
    events: usize,
    ns_per_apply_event: f64,
}

#[derive(Debug, Serialize)]
struct ThreadScalingReport {
    name: String,
    paths: usize,
    phases: usize,
    /// Requested worker count (1 = the serial loop, no pool).
    threads: usize,
    /// Lanes the run actually used: `Parallelism` clamps at the
    /// available CPU count, so on a 2-CPU box the 4- and 8-thread rows
    /// resolve to 2 lanes (results are lane-count independent; only
    /// the timing label differs).
    lanes: usize,
    /// Median run (reset, then every phase), per phase.
    ns_per_phase: f64,
    /// Median over the serial/this-lane-count run pairs of
    /// `serial / this` (1 on the serial row).
    speedup_vs_serial: f64,
    /// Whether this run's trajectory (phase records, final flow) is
    /// bit-identical to the serial run — the determinism contract.
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct FaultOverheadReport {
    name: String,
    /// `"fused"` (enumerated engine) or `"implicit-path"`.
    backend: String,
    phases: usize,
    /// Back-to-back plain/zero-fault run pairs.
    repeats: usize,
    /// Median plain run (reset or construction, then every phase),
    /// per phase.
    ns_per_phase_plain: f64,
    /// Median zero-fault run, per phase.
    ns_per_phase_zero_fault: f64,
    /// Median over the pairs of `(zero_fault − plain) / plain` — may be
    /// slightly negative from timer noise; gated below 1%.
    overhead_fraction: f64,
    /// Whether the zero-fault trajectory is bit-identical to the plain
    /// one (phase records and final flow).
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct EnsembleScalingReport {
    name: String,
    runs: usize,
    lanes: usize,
    /// Median sweep, per run.
    ns_per_run: f64,
    /// Median over the serial/this-lane-count sweep pairs of
    /// `serial / this` (1 on the serial row).
    speedup_vs_serial: f64,
}

/// Scenario-reconfiguration cost per row: the mean of one
/// `apply_event` (latency mutation and in-place re-evaluation) over 64
/// events on the small workloads and 16 on the large ones (smoke keeps
/// only `grid_8x8` of those).
fn reconfig(smoke: bool) -> Measured {
    let small = small_engine_workloads().into_iter().map(|w| (w, 64));
    let large = large_engine_workloads()
        .into_iter()
        .filter(|w| !smoke || w.name == "grid_8x8")
        .map(|w| (w, 16));
    let rows: Vec<_> = small
        .chain(large)
        .map(|(w, events)| {
            let ns = time_apply_event(&w, events);
            println!(
                "{:<28} |P|={:<6} apply_event {:>12.0} ns",
                w.name,
                w.instance.num_paths(),
                ns
            );
            ReconfigReport {
                name: w.name.to_string(),
                paths: w.instance.num_paths(),
                edges: w.instance.num_edges(),
                events,
                ns_per_apply_event: ns,
            }
        })
        .collect();
    Measured::new(&rows, |_| Vec::new())
}

/// Smoke trims the sweep to 1/2 workers on the two medium workloads;
/// full sweeps 1/2/4/8 and adds the grid_12x12 frontier row (705 432
/// paths — enumeration alone takes a while, so it is built only when
/// needed).
fn thread_scaling(smoke: bool) -> Measured {
    let counts: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    let mut workloads: Vec<EngineWorkload> = large_engine_workloads()
        .into_iter()
        .filter(|w| w.name == "grid_8x8")
        .collect();
    workloads.extend(
        frontier_engine_workloads()
            .into_iter()
            .filter(|w| !smoke || w.name == "many_commodity_grid_8x8x6"),
    );
    if !smoke {
        workloads.push(grid_12x12_frontier_workload());
    }
    let rows: Vec<_> = workloads
        .iter()
        .flat_map(|w| measure_thread_scaling(w, counts, if smoke { 5 } else { 7 }))
        .collect();
    Measured::new(&rows, thread_scaling_gates)
}

fn thread_scaling_gates(rows: &[ThreadScalingReport]) -> Vec<String> {
    let mut failures = Vec::new();
    let g8t2 = rows.iter().any(|r| r.name == "grid_8x8" && r.threads == 2);
    check(&mut failures, g8t2, || "no 2-thread grid_8x8 row".into());
    for r in rows {
        check(&mut failures, r.bit_identical, || {
            format!(
                "{} at {} threads diverged from the serial trajectory",
                r.name, r.threads
            )
        });
    }
    failures
}

/// Sweep pairs timed per parallel lane count in the ensemble section.
const ENSEMBLE_PAIRS: usize = 15;

/// Ensemble-runner throughput: `runs` independent grid simulations
/// fanned across 1/2/4 lanes through per-lane reusable workspaces, each
/// parallel lane count timed in [`ENSEMBLE_PAIRS`] alternating pairs
/// against the serial sweep.
fn ensemble(_smoke: bool) -> Measured {
    let insts: Vec<wardrop_net::Instance> = (0..16)
        .map(|s| builders::grid_network(5, 5, 100 + s))
        .collect();
    let policy = wardrop_core::policy::uniform_linear(&insts[0]);
    let config = engine::SimulationConfig::new(0.5, 40);
    let specs: Vec<RunSpec<'_, _>> = insts
        .iter()
        .map(|i| RunSpec::new(i, &policy, FlowVec::uniform(i), config.clone()))
        .collect();
    let serial = WorkerPool::new(1);
    let per_run = |ns: &[f64]| median(ns.to_vec()) / insts.len() as f64;
    let mut serial_ns = Vec::new();
    let mut rows = Vec::new();
    for lanes in [2usize, 4] {
        let pools = [&serial, &WorkerPool::new(lanes)];
        let [base, ns] = paired_ns(
            ENSEMBLE_PAIRS,
            |side| run_many(Some(pools[side]), &specs),
            |trajs| assert_eq!(trajs.len(), insts.len()),
        );
        rows.push(EnsembleScalingReport {
            name: "grid_5x5_sweep".to_string(),
            runs: insts.len(),
            lanes,
            ns_per_run: per_run(&ns),
            speedup_vs_serial: median(base.iter().zip(&ns).map(|(b, n)| b / n).collect()),
        });
        serial_ns.extend(base);
    }
    rows.insert(
        0,
        EnsembleScalingReport {
            name: "grid_5x5_sweep".to_string(),
            runs: insts.len(),
            lanes: 1,
            ns_per_run: per_run(&serial_ns),
            speedup_vs_serial: 1.0,
        },
    );
    for row in &rows {
        println!(
            "{:<28} runs={:<3} lanes {:<2} {:>12.0} ns/run   {:>5.2}x vs serial",
            row.name, row.runs, row.lanes, row.ns_per_run, row.speedup_vs_serial
        );
    }
    Measured::new(&rows, ensemble_gates)
}

fn ensemble_gates(rows: &[EnsembleScalingReport]) -> Vec<String> {
    let mut failures = Vec::new();
    check(&mut failures, !rows.is_empty(), || {
        "no ensemble rows".into()
    });
    failures
}

/// Fault-seam overhead: the zero-fault plan must be bit-identical and
/// cost < 1% ns/phase on both backends. The fused rows reset one
/// `Simulation` to either configuration, so both variants run on the
/// same buffers; an `EdgeSimulation` has no reset, so each implicit run
/// builds its own.
fn fault_overhead(_smoke: bool) -> Measured {
    let mut rows = Vec::new();
    for w in large_engine_workloads() {
        if w.name == "grid_8x8" {
            let policy = uniform(&w);
            let mut sim = engine::Simulation::new(&w.instance, &policy, &w.f0, &w.config);
            rows.push(measure_fault_overhead(
                w.name,
                "fused",
                &w.config,
                |config| {
                    sim.reset(&w.f0, config);
                    sim.drive()
                },
            ));
        }
    }
    for w in implicit_path_workloads() {
        if w.name == "grid_14x14" {
            let policy = edge_policy(&w);
            let seeding = PathSeeding::default();
            rows.push(measure_fault_overhead(
                w.name,
                "implicit-path",
                &w.config,
                |config| {
                    wardrop_core::edge_engine::run_edge(&w.edge, &policy, config, &seeding)
                        .expect("implicit workloads run cleanly")
                },
            ));
        }
    }
    Measured::new(&rows, fault_overhead_gates)
}

fn fault_overhead_gates(rows: &[FaultOverheadReport]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, backend) in [("grid_8x8", "fused"), ("grid_14x14", "implicit-path")] {
        let covered = rows.iter().any(|r| r.name == name && r.backend == backend);
        check(&mut failures, covered, || {
            format!("no {name} ({backend}) row")
        });
    }
    for r in rows {
        check(&mut failures, r.bit_identical, || {
            format!(
                "{} ({}): zero-fault plan diverged from the plain run",
                r.name, r.backend
            )
        });
        check(&mut failures, r.overhead_fraction < 0.01, || {
            format!(
                "{} ({}): zero-fault overhead {:.2}% exceeds 1%",
                r.name,
                r.backend,
                r.overhead_fraction * 100.0
            )
        });
    }
    failures
}

/// Thread sweep on one workload: the serial row, then one row per
/// entry of `thread_counts` (each above 1). Every parallel count is
/// timed in `pairs` alternating run pairs against the serial loop, and
/// its trajectory is checked bit-identical to the serial one.
fn measure_thread_scaling(
    w: &EngineWorkload,
    thread_counts: &[usize],
    pairs: usize,
) -> Vec<ThreadScalingReport> {
    let phases = w.config.num_phases;
    let policy = uniform(w);
    // Pool construction sits outside the timed region (it is
    // per-simulation, amortised over whole runs in practice), so time
    // through reused Simulations. Each is driven once untimed: a
    // warm-up and the determinism check.
    let build = |threads: usize| {
        let config = w
            .config
            .clone()
            .with_parallelism(Parallelism::Threads(threads));
        let mut sim = engine::Simulation::new(&w.instance, &policy, &w.f0, &config);
        let traj = sim.drive();
        assert_eq!(traj.len(), phases, "workload must run all phases");
        (sim, config, traj)
    };
    let (mut serial, serial_config, reference) = build(1);
    let row = |threads: usize, ns: &[f64], speedup: f64, bit_identical: bool| ThreadScalingReport {
        name: w.name.to_string(),
        paths: w.instance.num_paths(),
        phases,
        threads,
        lanes: Parallelism::Threads(threads)
            .build_pool()
            .map_or(1, |p| p.lanes()),
        ns_per_phase: median(ns.to_vec()) / phases as f64,
        speedup_vs_serial: speedup,
        bit_identical,
    };
    let mut serial_ns = Vec::new();
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let (mut sim, config, traj) = build(threads);
        let bit_identical =
            traj.phases == reference.phases && traj.final_flow == reference.final_flow;
        let mut sims = [(&mut serial, &serial_config), (&mut sim, &config)];
        let [base, ns] = paired_ns(
            pairs,
            |side| {
                let (sim, config) = &mut sims[side];
                sim.reset(&w.f0, config);
                sim.drive()
            },
            |traj| assert_eq!(traj.len(), phases),
        );
        let speedup = median(base.iter().zip(&ns).map(|(b, n)| b / n).collect());
        rows.push(row(threads, &ns, speedup, bit_identical));
        serial_ns.extend(base);
    }
    rows.insert(0, row(1, &serial_ns, 1.0, true));
    for row in &rows {
        println!(
            "{:<28} |P|={:<6} threads {:<2} (lanes {}) {:>12.0} ns/phase   {:>5.2}x vs serial   bit-identical: {}",
            row.name, row.paths, row.threads, row.lanes, row.ns_per_phase, row.speedup_vs_serial, row.bit_identical
        );
    }
    rows
}

/// Times `pairs` back-to-back pairs of `run(0)` and `run(1)`,
/// alternating which side runs first, and returns each side's wall
/// times in pair order. `seen` receives every output after the clock
/// stops.
///
/// A shared host's speed can jump by up to ~2× for tens to hundreds of
/// milliseconds at a time, and separate best-of floors then credit the
/// jump to whichever side happened to catch the fast window. The two
/// runs of a pair are close together, so drift cancels within the
/// pair, and a median over the pairs discards the pairs a jump split.
fn paired_ns<T>(
    pairs: usize,
    mut run: impl FnMut(usize) -> T,
    mut seen: impl FnMut(T),
) -> [Vec<f64>; 2] {
    let mut ns = [Vec::with_capacity(pairs), Vec::with_capacity(pairs)];
    for pair in 0..pairs {
        for side in [pair % 2, 1 - pair % 2] {
            let start = Instant::now();
            let output = run(side);
            ns[side].push(start.elapsed().as_nanos() as f64);
            seen(output);
        }
    }
    ns
}

/// Back-to-back plain/zero-fault run pairs per fault-overhead row.
const FAULT_PAIRS: usize = 400;

/// Times [`FAULT_PAIRS`] pairs of back-to-back runs, `run(config)`, of
/// the plain and the zero-fault configuration ([`paired_ns`]), and
/// checks every run bit-identical to the first plain one. The row
/// reports the median run of each variant and the median of the paired
/// relative differences.
fn measure_fault_overhead(
    name: &str,
    backend: &str,
    config: &engine::SimulationConfig,
    mut run: impl FnMut(&engine::SimulationConfig) -> Trajectory,
) -> FaultOverheadReport {
    let phases = config.num_phases;
    let configs = [
        config.clone(),
        config.clone().with_faults(FaultPlan::new(0)),
    ];
    let reference = run(&configs[0]);
    let mut bit_identical = true;
    let [plain, faulted] = paired_ns(
        FAULT_PAIRS,
        |variant| run(&configs[variant]),
        |traj| {
            assert_eq!(traj.len(), phases, "{name}: run must finish all phases");
            bit_identical &=
                traj.phases == reference.phases && traj.final_flow == reference.final_flow;
        },
    );
    let overhead: Vec<f64> = faulted
        .iter()
        .zip(&plain)
        .map(|(f, p)| f / p - 1.0)
        .collect();
    let [plain_ns, faulted_ns, overhead_fraction] = [plain, faulted, overhead].map(median);
    let report = FaultOverheadReport {
        name: name.to_string(),
        backend: backend.to_string(),
        phases,
        repeats: FAULT_PAIRS,
        ns_per_phase_plain: plain_ns / phases as f64,
        ns_per_phase_zero_fault: faulted_ns / phases as f64,
        overhead_fraction,
        bit_identical,
    };
    println!(
        "{:<28} {:<13} plain {:>12.0} ns/phase   zero-fault {:>12.0} ns/phase   overhead {:>6.2}%   bit-identical: {}",
        report.name,
        report.backend,
        report.ns_per_phase_plain,
        report.ns_per_phase_zero_fault,
        report.overhead_fraction * 100.0,
        report.bit_identical
    );
    report
}

/// The upper median.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn uniform(
    w: &EngineWorkload,
) -> wardrop_core::SmoothPolicy<wardrop_core::Uniform, wardrop_core::Linear> {
    wardrop_core::policy::uniform_linear(&w.instance)
}

fn edge_policy(
    w: &EdgeEngineWorkload,
) -> wardrop_core::SmoothPolicy<wardrop_core::Uniform, wardrop_core::Linear> {
    wardrop_core::policy::SmoothPolicy::new(
        wardrop_core::Uniform,
        wardrop_core::Linear::new(w.edge.latency_upper_bound().max(f64::MIN_POSITIVE)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_names_are_unique() {
        for (i, section) in SECTIONS.iter().enumerate() {
            assert!(
                SECTIONS[..i].iter().all(|s| s.name != section.name),
                "duplicate section {}",
                section.name
            );
        }
    }

    fn scaling_row(name: &str, threads: usize, bit_identical: bool) -> ThreadScalingReport {
        ThreadScalingReport {
            name: name.to_string(),
            paths: 3432,
            phases: 3,
            threads,
            lanes: threads,
            ns_per_phase: 1.0,
            speedup_vs_serial: 1.0,
            bit_identical,
        }
    }

    #[test]
    fn thread_scaling_gate_needs_a_bit_identical_two_thread_grid_8x8_row() {
        let serial = || scaling_row("grid_8x8", 1, true);
        assert!(thread_scaling_gates(&[serial(), scaling_row("grid_8x8", 2, true)]).is_empty());
        assert!(!thread_scaling_gates(&[serial()]).is_empty());
        let other = scaling_row("grid_10x10", 2, true);
        assert!(!thread_scaling_gates(&[serial(), other]).is_empty());
        let diverged = scaling_row("grid_8x8", 2, false);
        assert!(!thread_scaling_gates(&[serial(), diverged]).is_empty());
    }

    #[test]
    fn ensemble_gate_needs_a_row() {
        let row = EnsembleScalingReport {
            name: "grid_5x5_sweep".to_string(),
            runs: 16,
            lanes: 1,
            ns_per_run: 1.0,
            speedup_vs_serial: 1.0,
        };
        assert!(ensemble_gates(&[row]).is_empty());
        assert!(!ensemble_gates(&[]).is_empty());
    }

    fn fault_row(name: &str, backend: &str, overhead_fraction: f64) -> FaultOverheadReport {
        FaultOverheadReport {
            name: name.to_string(),
            backend: backend.to_string(),
            phases: 40,
            repeats: FAULT_PAIRS,
            ns_per_phase_plain: 1.0,
            ns_per_phase_zero_fault: 1.0 + overhead_fraction,
            overhead_fraction,
            bit_identical: true,
        }
    }

    #[test]
    fn fault_overhead_gate_covers_both_backends_under_one_percent() {
        let fused = || fault_row("grid_8x8", "fused", 0.002);
        let implicit = || fault_row("grid_14x14", "implicit-path", -0.001);
        assert!(fault_overhead_gates(&[fused(), implicit()]).is_empty());
        assert!(!fault_overhead_gates(&[fused()]).is_empty());
        let wrong_backend = fault_row("grid_14x14", "fused", 0.0);
        assert!(!fault_overhead_gates(&[fused(), wrong_backend]).is_empty());
        let slow = fault_row("grid_8x8", "fused", 0.01);
        assert!(!fault_overhead_gates(&[slow, implicit()]).is_empty());
        let mut diverged = implicit();
        diverged.bit_identical = false;
        assert!(!fault_overhead_gates(&[fused(), diverged]).is_empty());
    }
}
