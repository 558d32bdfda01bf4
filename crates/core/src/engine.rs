//! The phase-wise simulation engine for Eq. (3) — the fluid-limit
//! dynamics in the bulletin board model.
//!
//! The engine alternates two steps, exactly as the model prescribes:
//!
//! 1. **Post**: at the phase start `t̂`, a [`BulletinBoard`] snapshot of
//!    the current flow is published.
//! 2. **Relax**: for `τ ∈ [0, T)` agents react to the *board* only.
//!    For [smooth policies](crate::policy::ReroutingPolicy) the
//!    within-phase dynamics is the linear ODE of
//!    [`PhaseRates`]; for best response it
//!    is the differential inclusion Eq. (4) with an exponential
//!    closed-form solution (see [`crate::best_response`]).
//!
//! The engine records the per-phase quantities the paper's lemmas and
//! theorems are stated in (potential, virtual gain, unsatisfied
//! volumes) into a [`Trajectory`].
//!
//! The loop is built on a fused evaluation pipeline: a [`Simulation`]
//! owns an [`EngineWorkspace`] (evaluation buffers, a reusable rate
//! structure, integrator scratch) and evaluates the flow exactly once
//! per phase boundary — the phase-end evaluation doubles as the next
//! phase's start, boards are posted by copying cached arrays, and in
//! steady state a phase performs zero heap allocations. For the stock
//! policy zoo the rates are [matrix-free](crate::kernel): expected
//! O(P) per phase (O(P log P) at worst) and O(P) memory, never a dense
//! rate matrix.
//!
//! The engine also speaks the scenario language of
//! [`wardrop_net::scenario`]: [`run_scenario`] applies demand and
//! latency [events](wardrop_net::scenario::Event) between phases
//! ([`Simulation::apply_event`]), opening a new *epoch* per event while
//! preserving the zero-allocation property within each epoch.
//!
//! Finally, the loop can run **multi-threaded without changing a
//! single bit of any trajectory**: [`Parallelism`] attaches a
//! persistent [`WorkerPool`] whose lanes fan out the fused evaluation,
//! the per-commodity rate fills and the within-phase generator sweeps
//! (one whole commodity block per part), with every cross-chunk float
//! reduction kept on the dispatching thread (see the [pool
//! docs](wardrop_pool) for the determinism argument). Independent runs fan out one level higher
//! through [`crate::ensemble`].
//!
//! The same loop also runs the **implicit-path backend**
//! ([`crate::edge_engine`]). There a `Simulation` carries an optional
//! column source: before each phase's start metrics, the source probes
//! the true edge latencies of the current flow for a best reply outside
//! the active path set. On a discovery the simulation grows its
//! restricted instance in place: each new column is appended at zero
//! flow, so existing flows, edge flows and the evaluation stay as they
//! were, and the buffers keep their capacity. Scenario events reach
//! the source's path-free instance through [`Simulation::apply_event`],
//! so both backends share one phase pipeline and one driver.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wardrop_net::error::NetError;
use wardrop_net::eval::EvalWorkspace;
use wardrop_net::flow::FlowVec;
use wardrop_net::instance::Instance;
use wardrop_net::rng::splitmix_unit;
use wardrop_net::scenario::{EventAction, Scenario};
use wardrop_pool::WorkerPool;

use crate::board::{BoardPrecision, BulletinBoard};
use crate::edge_engine::ColumnOracle;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::guard::{GuardConfig, GuardLog, SmoothnessGuard};
use crate::integrator::{Integrator, IntegratorScratch};
use crate::policy::{PhaseRates, ReroutingPolicy};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::trajectory::{PhaseRecord, Trajectory};

/// Environment variable overriding the configured [`Parallelism`]:
/// when set to a positive integer `n`, every simulation resolves to
/// `n` lanes regardless of its configuration (`1` forces serial).
pub const THREADS_ENV: &str = "WARDROP_THREADS";

/// Execution mode of a simulation's phase loop.
///
/// The parallel mode fans the fused evaluation, the per-commodity
/// phase-rate fills and the within-phase generator sweeps across a
/// persistent [`WorkerPool`] whose workers park between phases. The
/// sweeps fan out whole commodity blocks, which never interact, so a
/// single-commodity instance sweeps serially. Every parallel stage is
/// element-wise with all cross-chunk float reductions kept on the
/// dispatching thread, so `Threads(n)` produces
/// **bit-identical trajectories** to `Serial` for every policy —
/// pinned by the `parallel_matches_serial_bitwise` proptest and CI's
/// bench-smoke assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// Single-threaded (the default): the original fused loop, no pool.
    #[default]
    Serial,
    /// Exactly `n` lanes: the calling thread plus `n − 1` pool workers.
    Threads(usize),
    /// One lane per available CPU ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// The lane count this mode resolves to, after applying the
    /// [`THREADS_ENV`] override (always ≥ 1).
    pub fn resolved_threads(self) -> usize {
        if let Ok(value) = std::env::var(THREADS_ENV) {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Builds the worker pool this mode calls for: `None` when it
    /// resolves to a single lane (the serial loop needs no pool).
    ///
    /// The lane count is clamped at the available CPU count:
    /// oversubscribed lanes cannot help (the pool's spin-then-park
    /// dispatch degrades badly when lanes outnumber cores) and cannot
    /// change results (trajectories are lane-count independent), so
    /// `Threads(8)` on a 2-core box runs 2 lanes.
    pub fn build_pool(self) -> Option<Arc<WorkerPool>> {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let lanes = self.resolved_threads().min(cores);
        (lanes > 1).then(|| Arc::new(WorkerPool::new(lanes)))
    }
}

/// State of the phase-movement early-out
/// (`stop_when_phase_delta_below`): the phase-start path flows the
/// movement is measured from, and the last phase's movement. Boxed in
/// the workspace and present only when the stop is set, so runs without
/// it pay one pointer.
#[derive(Debug, Clone)]
struct DeltaState {
    /// Phase-start path flows.
    start_flow: Vec<f64>,
    /// `‖f_end − f_start‖₁` of the last executed phase.
    last_phase_delta: f64,
}

/// `‖after − before‖₁`, summed block by block in commodity order.
/// Each block reduces in four independent stride accumulators (the
/// form LLVM turns into packed adds), combined as `(t0 + t1) + (t2 +
/// t3)` before the tail, so the phase a movement stop fires at is fixed
/// by this order.
fn phase_movement(instance: &Instance, before: &[f64], after: &[f64]) -> f64 {
    let mut moved = 0.0;
    for i in 0..instance.num_commodities() {
        let range = instance.commodity_paths(i);
        let (before, after) = (&before[range.clone()], &after[range]);
        let (b4, a4) = (before.chunks_exact(4), after.chunks_exact(4));
        let tail = b4.remainder().iter().zip(a4.remainder());
        let mut t = [0.0f64; 4];
        for (b, a) in b4.zip(a4) {
            for ((t, a), b) in t.iter_mut().zip(a).zip(b) {
                *t += (a - b).abs();
            }
        }
        let mut block = (t[0] + t[1]) + (t[2] + t[3]);
        for (b, a) in tail {
            block += (a - b).abs();
        }
        moved += block;
    }
    moved
}

/// All reusable state of the phase loop: the fused evaluation buffers,
/// the per-phase rate structure, integration scratch, and the
/// phase-start edge snapshot used for the virtual gain.
///
/// Built once per simulation ([`Simulation::new`]); after that a
/// steady-state phase performs zero heap allocations (verified by the
/// counting-allocator test in `crates/core/tests/zero_alloc.rs`).
#[derive(Debug, Clone)]
pub struct EngineWorkspace {
    /// Fused evaluation of the *current* flow (kept up to date at every
    /// phase boundary, so phase-start metrics are free).
    pub eval: EvalWorkspace,
    /// Reusable migration-rate structure for smooth policies. Shaped
    /// O(P): separable policies refill the matrix-free factors every
    /// phase; dense Θ(P²) blocks are allocated lazily only if a
    /// non-separable custom policy fills them.
    pub rates: PhaseRates,
    /// Reusable integrator buffers.
    pub scratch: IntegratorScratch,
    /// Edge flows `f̂_e` snapshotted at the phase start.
    start_edge_flows: Vec<f64>,
    /// Edge latencies `ℓ_e(f̂_e)` snapshotted at the phase start.
    start_edge_latencies: Vec<f64>,
    /// Per-commodity demands before a demand event, the base of its
    /// flow rescale.
    old_demands: Vec<f64>,
    /// The worker pool of the parallel mode (`None`: serial loop).
    /// Shared so cloned workspaces reuse the same parked workers.
    pool: Option<Arc<WorkerPool>>,
    /// Phase-movement state (`None` unless the configuration sets
    /// `stop_when_phase_delta_below`).
    delta: Option<Box<DeltaState>>,
}

impl EngineWorkspace {
    /// Allocates all buffers for `instance` (serial mode — no pool).
    pub fn new(instance: &Instance) -> Self {
        Self::with_pool(instance, None)
    }

    /// Allocates all buffers for `instance`, attaching a worker pool
    /// for the parallel phase loop.
    pub fn with_pool(instance: &Instance, pool: Option<Arc<WorkerPool>>) -> Self {
        EngineWorkspace {
            eval: EvalWorkspace::new(instance),
            rates: PhaseRates::for_instance(instance),
            scratch: IntegratorScratch::for_len(instance.num_paths()),
            start_edge_flows: vec![0.0; instance.num_edges()],
            start_edge_latencies: vec![0.0; instance.num_edges()],
            old_demands: Vec::with_capacity(instance.num_commodities()),
            pool,
            delta: None,
        }
    }

    /// (Re)configures the phase-movement state for `config`: drops it
    /// when `stop_when_phase_delta_below` is unset, reuses the existing
    /// buffer when its shape still matches, and allocates it otherwise.
    fn configure_delta(&mut self, instance: &Instance, config: &SimulationConfig) {
        if config.stop_when_phase_delta_below.is_none() {
            self.delta = None;
            return;
        }
        match &mut self.delta {
            Some(d) if d.start_flow.len() == instance.num_paths() => {
                d.last_phase_delta = f64::INFINITY;
            }
            _ => {
                self.delta = Some(Box::new(DeltaState {
                    start_flow: vec![0.0; instance.num_paths()],
                    last_phase_delta: f64::INFINITY,
                }));
            }
        }
    }

    /// Re-shapes the path-sized buffers for `instance`, which grew by
    /// [`Instance::push_path`], keeping their capacity: the rate blocks
    /// as [`EngineWorkspace::with_pool`] would shape them, and the
    /// phase-start flow of the movement stop (if any). The integrator
    /// sizes its own scratch on use; the evaluation is the caller's,
    /// extended column by column as the paths are admitted.
    fn grow_to(&mut self, instance: &Instance) {
        self.rates.reshape(instance);
        if let Some(d) = &mut self.delta {
            d.start_flow.resize(instance.num_paths(), 0.0);
        }
    }

    /// The attached worker pool, if the workspace runs in parallel
    /// mode.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_deref()
    }

    /// Snapshots `f̂_e` and `ℓ_e(f̂_e)` from the current evaluation into
    /// the phase-start buffers. Taken *before* the board is posted, so
    /// the virtual gain always measures against the **true** phase
    /// start even when the fault layer degrades the board.
    fn snapshot_start_edges(&mut self) {
        self.start_edge_flows
            .copy_from_slice(self.eval.edge_flows());
        self.start_edge_latencies
            .copy_from_slice(self.eval.edge_latencies());
    }
}

/// A dynamics that can advance the population through one phase given a
/// frozen bulletin board.
///
/// Implemented for every [`ReroutingPolicy`] (via its rate matrix and
/// the configured integrator) and by
/// [`BestResponse`](crate::best_response::BestResponse) (closed form).
///
/// `Send + Sync` so ensemble sweeps can drive independent simulations
/// against a shared dynamics from several lanes (every in-tree
/// implementor is a plain value type).
pub trait Dynamics: fmt::Debug + Send + Sync {
    /// Advances `flow` by `tau` time units against the frozen `board`,
    /// using (only) the reusable buffers in `workspace` for scratch —
    /// implementations must not rely on `workspace.eval`, which the
    /// engine owns.
    fn advance_phase(
        &self,
        instance: &Instance,
        board: &BulletinBoard,
        flow: &mut FlowVec,
        tau: f64,
        integrator: &Integrator,
        workspace: &mut EngineWorkspace,
    );

    /// Human-readable name for reports.
    fn dynamics_name(&self) -> String;
}

impl<P: ReroutingPolicy + ?Sized> Dynamics for P {
    fn advance_phase(
        &self,
        instance: &Instance,
        board: &BulletinBoard,
        flow: &mut FlowVec,
        tau: f64,
        integrator: &Integrator,
        workspace: &mut EngineWorkspace,
    ) {
        let EngineWorkspace {
            rates,
            scratch,
            pool,
            ..
        } = workspace;
        let pool = pool.as_deref();
        self.phase_rates_into_with(instance, board, rates, pool);
        integrator.advance_pooled(rates, flow.values_mut(), tau, scratch, pool);
    }

    fn dynamics_name(&self) -> String {
        self.name()
    }
}

/// How bulletin-board phase lengths are generated.
///
/// The paper's model refreshes the board at *regular* intervals of
/// length `T`; real systems broadcast metrics with jitter. The
/// Lemma 4 argument is per-phase — it only needs every individual
/// phase to satisfy `τ ≤ T*` — so convergence survives jitter as long
/// as the longest phase stays within the safe period (exercised by the
/// integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PhaseSchedule {
    /// Every phase has length exactly `update_period`.
    #[default]
    Fixed,
    /// Phase `i` has length `update_period · (1 + u_i · amplitude)`
    /// with `u_i ∈ [−1, 1)` drawn from a deterministic per-run
    /// generator (SplitMix64 on `seed`).
    Jittered {
        /// Relative jitter amplitude in `[0, 1)`.
        amplitude: f64,
        /// Seed of the deterministic jitter sequence.
        seed: u64,
    },
}

impl PhaseSchedule {
    /// Length of phase `index` for base period `t`.
    pub fn phase_length(&self, t: f64, index: usize) -> f64 {
        match *self {
            PhaseSchedule::Fixed => t,
            PhaseSchedule::Jittered { amplitude, seed } => {
                let u = splitmix_unit(seed.wrapping_add(index as u64)) * 2.0 - 1.0;
                t * (1.0 + amplitude * u)
            }
        }
    }

    /// The longest phase the schedule can produce for base period `t`
    /// — the quantity that must stay below `T*` for the Corollary 5
    /// guarantee.
    pub fn max_phase_length(&self, t: f64) -> f64 {
        match *self {
            PhaseSchedule::Fixed => t,
            PhaseSchedule::Jittered { amplitude, .. } => t * (1.0 + amplitude),
        }
    }
}

/// Configuration of a phase-wise simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Bulletin-board update period `T > 0`.
    pub update_period: f64,
    /// Number of phases to simulate.
    pub num_phases: usize,
    /// Within-phase integrator (ignored by closed-form dynamics).
    pub integrator: Integrator,
    /// Record full phase-start flow vectors (memory: one `|P|` vector
    /// per recorded phase — see `record_stride`).
    pub record_flows: bool,
    /// Record only every `record_stride`-th phase-start flow (0 and 1
    /// both mean "every phase"), bounding `Trajectory::flows` at
    /// `O(num_phases / stride)` on long runs. Ignored unless
    /// `record_flows` is set.
    #[serde(default)]
    pub record_stride: usize,
    /// `δ` thresholds for the per-phase unsatisfied-volume columns.
    pub deltas: Vec<f64>,
    /// Stop early once the phase-start max regret drops below this
    /// value (`None`: always run `num_phases`).
    pub stop_when_regret_below: Option<f64>,
    /// Phase-length schedule (regular by default).
    #[serde(default)]
    pub schedule: PhaseSchedule,
    /// Execution mode of the phase loop (serial by default; the
    /// [`THREADS_ENV`] environment variable overrides it). Parallel
    /// runs are bit-identical to serial ones — see [`Parallelism`].
    #[serde(default)]
    pub parallelism: Parallelism,
    /// Bulletin-board fault plan (`None` or a
    /// [trivial](FaultPlan::is_trivial) plan: the lossless board of the
    /// paper, bit-identical to the unfaulted loop).
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// AIMD smoothness governor (`None`: fixed α — the dynamics runs
    /// open-loop even if the potential climbs).
    #[serde(default)]
    pub guard: Option<GuardConfig>,
    /// Error-bounded early-out, distinct from the regret stop: finish
    /// once a phase's total flow movement `‖f_end − f_start‖₁` drops
    /// below this value (`None`: never). The phase that crosses the
    /// threshold still completes and is recorded.
    #[serde(default)]
    pub stop_when_phase_delta_below: Option<f64>,
    /// Precision of the posted bulletin-board snapshot (full `f64` by
    /// default; see [`BoardPrecision::F32`] for the quantised board).
    #[serde(default)]
    pub board_precision: BoardPrecision,
}

impl SimulationConfig {
    /// A reasonable default configuration: exact integration, no flow
    /// recording, a single `δ = 0.05` column.
    pub fn new(update_period: f64, num_phases: usize) -> Self {
        SimulationConfig {
            update_period,
            num_phases,
            integrator: Integrator::default(),
            record_flows: false,
            record_stride: 1,
            deltas: vec![0.05],
            stop_when_regret_below: None,
            schedule: PhaseSchedule::Fixed,
            parallelism: Parallelism::Serial,
            faults: None,
            guard: None,
            stop_when_phase_delta_below: None,
            board_precision: BoardPrecision::F64,
        }
    }

    /// Sets the phase-movement early-out threshold (builder style).
    pub fn with_stop_phase_delta(mut self, movement: f64) -> Self {
        self.stop_when_phase_delta_below = Some(movement);
        self
    }

    /// Sets the posted-board precision (builder style).
    pub fn with_board_precision(mut self, precision: BoardPrecision) -> Self {
        self.board_precision = precision;
        self
    }

    /// Attaches a bulletin-board fault plan (builder style). A trivial
    /// plan leaves the run bit-identical to an unfaulted one.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches the AIMD smoothness governor (builder style).
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Sets the execution mode of the phase loop (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets a jittered phase schedule (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ amplitude < 1`.
    pub fn with_jitter(mut self, amplitude: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "jitter amplitude must be in [0, 1)"
        );
        self.schedule = PhaseSchedule::Jittered { amplitude, seed };
        self
    }

    /// Enables flow recording (builder style).
    pub fn with_flows(mut self) -> Self {
        self.record_flows = true;
        self
    }

    /// Records only every `stride`-th phase-start flow (builder style),
    /// keeping `with_flows` runs over millions of phases at
    /// `O(num_phases / stride)` memory. Implies flow recording.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_record_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "record stride must be positive");
        self.record_flows = true;
        self.record_stride = stride;
        self
    }

    /// The effective flow-recording stride (`record_stride`, with the
    /// serde-default 0 normalised to 1).
    pub fn effective_stride(&self) -> usize {
        self.record_stride.max(1)
    }

    /// Sets the `δ` thresholds (builder style).
    pub fn with_deltas(mut self, deltas: Vec<f64>) -> Self {
        self.deltas = deltas;
        self
    }

    /// Sets the integrator (builder style).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Sets the early-stop regret threshold (builder style).
    pub fn with_stop_regret(mut self, regret: f64) -> Self {
        self.stop_when_regret_below = Some(regret);
        self
    }

    pub(crate) fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// Non-panicking validation of every knob — shared by the
    /// construction-time `validate` (which panics, like every other
    /// configuration error) and the checkpoint-restore path (which
    /// must treat a decoded configuration as untrusted input).
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range knob.
    pub fn check(&self) -> Result<(), String> {
        if !(self.update_period.is_finite() && self.update_period > 0.0) {
            return Err("update period must be positive".into());
        }
        // The same bounds `Integrator::advance_pooled` asserts, caught
        // here so a bad value is an error, not a panic mid-run.
        match self.integrator {
            Integrator::Euler { dt } | Integrator::Rk4 { dt } if dt.is_nan() || dt <= 0.0 => {
                return Err(format!(
                    "integrator step must be positive, got {}",
                    self.integrator.name()
                ));
            }
            Integrator::Uniformization { tol } if tol.is_nan() || tol <= 0.0 => {
                return Err("uniformization tolerance must be positive".into());
            }
            _ => {}
        }
        if let PhaseSchedule::Jittered { amplitude, .. } = self.schedule {
            if !(0.0..1.0).contains(&amplitude) {
                return Err("jitter amplitude must be in [0, 1)".into());
            }
        }
        if let Some(movement) = self.stop_when_phase_delta_below {
            if !(movement.is_finite() && movement >= 0.0) {
                return Err("phase-delta stop threshold must be finite and non-negative".into());
            }
        }
        if let Some(guard) = &self.guard {
            guard.check()?;
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// An in-flight phase-wise simulation with all buffers pre-allocated.
///
/// [`Simulation::step`] executes one bulletin-board phase through the
/// fused pipeline: every metric of the phase start is read from the
/// single [`EvalWorkspace`] evaluation left behind by the previous
/// step, the board is posted by copying those cached arrays, and the
/// phase end is evaluated exactly once (becoming the next phase's
/// start). In steady state a step performs **zero heap allocations**
/// when no `δ` columns are configured.
///
/// The simulation holds its own [`Instance`] clone and configuration,
/// which enables two things beyond the static phase loop:
///
/// * **scenario epochs** — [`Simulation::apply_event`] mutates the
///   simulation's instance (demand surges, link degradations) between
///   phases, rescales the per-commodity flows and refreshes the
///   evaluation in place; the zero-allocation property keeps holding
///   between events because mutation never changes buffer shapes;
/// * **reuse across runs** — [`Simulation::reset`] and
///   [`Simulation::rebind`] start a fresh run inside the already
///   allocated [`EngineWorkspace`], which parameter sweeps (E4/E5) use
///   to avoid rebuilding the O(P) rate/evaluation buffers per run
///   (plus the lazily allocated dense blocks, for non-separable
///   custom policies).
///
/// The clone shares the caller's path arena and copies only the
/// per-instance latency and demand state (see the instance's
/// [clone cost](Instance#clone-cost)): construction never copies a
/// path, and events mutate the clone without copying the arena or
/// touching the caller's instance.
///
/// [`run`] drives a `Simulation` to completion; use this type directly
/// for streaming consumption of phases without materialising a
/// [`Trajectory`].
#[derive(Debug)]
pub struct Simulation<'a, D: Dynamics + ?Sized> {
    instance: Instance,
    dynamics: &'a D,
    config: SimulationConfig,
    flow: FlowVec,
    board: BulletinBoard,
    workspace: EngineWorkspace,
    fault: Option<FaultState>,
    guard: Option<SmoothnessGuard>,
    index: usize,
    epoch: usize,
    start_time: f64,
    stopped: bool,
    /// Wall-clock nanoseconds spent in phase-end evaluation,
    /// accumulated across steps.
    eval_nanos: u64,
    /// Column source of the implicit-path backend (`None`: the
    /// enumerated path set is fixed). Only
    /// [`EdgeSimulation`](crate::edge_engine::EdgeSimulation) attaches
    /// one.
    columns: Option<Box<ColumnOracle>>,
}

impl<'a, D: Dynamics + ?Sized> Simulation<'a, D> {
    /// Prepares a simulation from `f0`, allocating every buffer the
    /// phase loop needs and evaluating the initial flow. The instance
    /// and configuration are cloned into the simulation so scenario
    /// events can mutate them without aliasing the caller's copies; the
    /// instance clone shares the caller's path arena, so it allocates
    /// per buffer, never per path.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (non-positive update
    /// period), `f0` is infeasible for `instance`, or the fault plan
    /// names a commodity `instance` does not have.
    pub fn new(
        instance: &Instance,
        dynamics: &'a D,
        f0: &FlowVec,
        config: &SimulationConfig,
    ) -> Self {
        let pool = config.parallelism.build_pool();
        Self::with_worker_pool(instance, dynamics, f0, config, pool)
    }

    /// As [`Simulation::new`], but with an explicit worker pool instead
    /// of resolving `config.parallelism` (and the [`THREADS_ENV`]
    /// override). Pass `None` to force the serial loop — the ensemble
    /// runner does this for its inner simulations so lane counts never
    /// multiply — or share one [`Arc`]ed pool across simulations. The
    /// instance is cloned as in [`Simulation::new`]: the path arena is
    /// shared, not copied.
    pub fn with_worker_pool(
        instance: &Instance,
        dynamics: &'a D,
        f0: &FlowVec,
        config: &SimulationConfig,
        pool: Option<Arc<WorkerPool>>,
    ) -> Self {
        config.validate();
        assert!(
            f0.is_feasible(instance, 1e-6),
            "initial flow must be feasible"
        );
        Self::assemble(instance.clone(), dynamics, f0.clone(), config, pool, None)
            .expect("invalid fault plan for this instance")
    }

    /// Allocates the workspace, evaluates `flow` and attaches the
    /// fault, guard and column layers — the constructor both backends
    /// share. The implicit-path backend moves its freshly built
    /// restriction in as `instance`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidFault`] when the fault plan does not fit
    /// `instance`.
    pub(crate) fn assemble(
        instance: Instance,
        dynamics: &'a D,
        flow: FlowVec,
        config: &SimulationConfig,
        pool: Option<Arc<WorkerPool>>,
        columns: Option<Box<ColumnOracle>>,
    ) -> Result<Self, NetError> {
        let mut workspace = EngineWorkspace::with_pool(&instance, pool);
        workspace.configure_delta(&instance, config);
        let EngineWorkspace { eval, pool, .. } = &mut workspace;
        eval.evaluate_with(&instance, &flow, pool.as_deref());
        let fault = match config.faults.clone() {
            Some(plan) => Some(FaultState::new(plan, &instance)?),
            None => None,
        };
        Ok(Simulation {
            board: BulletinBoard::for_instance(&instance),
            instance,
            dynamics,
            config: config.clone(),
            flow,
            workspace,
            fault,
            guard: config.guard.clone().map(SmoothnessGuard::new),
            index: 0,
            epoch: 0,
            start_time: 0.0,
            stopped: false,
            eval_nanos: 0,
            columns,
        })
    }

    /// The current flow (the start of the next phase, or the final flow
    /// once stepping has finished).
    #[inline]
    pub fn flow(&self) -> &FlowVec {
        &self.flow
    }

    /// The simulation's (possibly event-mutated) instance.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The column source, on the implicit-path backend.
    #[inline]
    pub(crate) fn columns(&self) -> Option<&ColumnOracle> {
        self.columns.as_deref()
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The current scenario epoch: the number of events applied so far.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The posted bulletin board — what agents (and route-advice
    /// queries) see. Before the first phase this is the unposted
    /// all-zero board; after a step it holds the post of the last
    /// phase start (which, under faults, may be older still).
    #[inline]
    pub fn board(&self) -> &BulletinBoard {
        &self.board
    }

    /// The fused evaluation of the current flow.
    #[inline]
    pub fn eval(&self) -> &EvalWorkspace {
        &self.workspace.eval
    }

    /// Whether the workspace carries a worker pool — the parallel
    /// phase loop is active (subject to the per-stage size gates).
    #[inline]
    pub fn uses_worker_pool(&self) -> bool {
        self.workspace.pool.is_some()
    }

    /// The AIMD governor's intervention log, when one is attached.
    #[inline]
    pub fn guard_log(&self) -> Option<&GuardLog> {
        self.guard.as_ref().map(SmoothnessGuard::log)
    }

    /// The governor's current α throttle (`1.0` when no guard is
    /// attached or it has not intervened).
    #[inline]
    pub fn guard_scale(&self) -> f64 {
        self.guard.as_ref().map_or(1.0, SmoothnessGuard::scale)
    }

    /// The fault layer's running counters, when a plan is attached.
    #[inline]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(FaultState::stats)
    }

    /// Wall-clock nanoseconds spent in phase-end evaluation,
    /// accumulated since construction or the last
    /// [`Simulation::reset`].
    #[inline]
    pub fn eval_nanos(&self) -> u64 {
        self.eval_nanos
    }

    /// `‖f_end − f_start‖₁` of the last executed phase — the quantity
    /// `stop_when_phase_delta_below` tests. `None` unless that stop is
    /// set and a phase has run.
    #[inline]
    pub fn last_phase_delta(&self) -> Option<f64> {
        self.workspace
            .delta
            .as_ref()
            .map(|d| d.last_phase_delta)
            .filter(|m| m.is_finite())
    }

    /// Number of phases executed so far.
    #[inline]
    pub fn phases_run(&self) -> usize {
        self.index
    }

    /// True once the simulation has finished (phase budget exhausted or
    /// early stop triggered).
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.stopped || self.index >= self.config.num_phases
    }

    /// Consumes the simulation, returning the current flow.
    pub fn into_flow(self) -> FlowVec {
        self.flow
    }

    /// Captures the complete dynamic state at the current phase
    /// boundary. Taken between [`Simulation::step`] calls; a fresh
    /// engine restored with [`Simulation::from_snapshot`] continues
    /// the run bit-identically — see [`crate::snapshot`]. The
    /// snapshot's instance is a clone that shares the simulation's
    /// path arena, so taking one copies no path (encoding it with
    /// [`EngineSnapshot::to_bytes`] writes the arena out in full).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            instance: self.instance.clone(),
            config: self.config.clone(),
            flow: self.flow.values().to_vec(),
            board: self.board.clone(),
            index: self.index,
            epoch: self.epoch,
            start_time: self.start_time,
            stopped: self.stopped,
            guard: self.guard.as_ref().map(SmoothnessGuard::snapshot),
            fault: self.fault.as_ref().map(FaultState::snapshot),
        }
    }

    /// Rebuilds a simulation from a checkpoint, resolving the worker
    /// pool from the checkpointed `config.parallelism` (and the
    /// [`THREADS_ENV`] override), exactly as [`Simulation::new`] does.
    ///
    /// Everything recomputable is recomputed rather than trusted: the
    /// evaluation workspace is rebuilt from the restored flow.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Shape`] / [`SnapshotError::Corrupt`] when the
    /// decoded state violates a structural invariant
    /// ([`EngineSnapshot::check`]) — a checkpoint is untrusted input
    /// and never panics the restore path.
    pub fn from_snapshot(
        dynamics: &'a D,
        snapshot: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        let pool = snapshot.config.parallelism.build_pool();
        Self::from_snapshot_with_pool(dynamics, snapshot, pool)
    }

    /// As [`Simulation::from_snapshot`], but with an explicit worker
    /// pool (pass `None` to force the serial loop).
    ///
    /// # Errors
    ///
    /// See [`Simulation::from_snapshot`].
    pub fn from_snapshot_with_pool(
        dynamics: &'a D,
        snapshot: &EngineSnapshot,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self, SnapshotError> {
        snapshot.check()?;
        let instance = snapshot.instance.clone();
        let flow = FlowVec::from_values(&instance, snapshot.flow.clone())
            .map_err(|e| SnapshotError::Shape(e.to_string()))?;
        let mut workspace = EngineWorkspace::with_pool(&instance, pool);
        workspace.configure_delta(&instance, &snapshot.config);
        let EngineWorkspace { eval, pool, .. } = &mut workspace;
        eval.evaluate_with(&instance, &flow, pool.as_deref());
        let fault = match (&snapshot.config.faults, &snapshot.fault) {
            (Some(plan), Some(captured)) => {
                let mut state = FaultState::new(plan.clone(), &instance)
                    .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
                state.restore(captured).map_err(SnapshotError::Shape)?;
                Some(state)
            }
            // check() already rejected mixed presence.
            _ => None,
        };
        let guard = match (&snapshot.config.guard, &snapshot.guard) {
            (Some(config), Some(captured)) => Some(
                SmoothnessGuard::from_snapshot(config.clone(), captured)
                    .map_err(SnapshotError::Shape)?,
            ),
            _ => None,
        };
        Ok(Simulation {
            board: snapshot.board.clone(),
            instance,
            dynamics,
            config: snapshot.config.clone(),
            flow,
            workspace,
            fault,
            guard,
            index: snapshot.index,
            epoch: snapshot.epoch,
            start_time: snapshot.start_time,
            stopped: snapshot.stopped,
            eval_nanos: 0,
            columns: None,
        })
    }

    /// Applies a scenario event between phases: mutates the owned
    /// instance through its controlled setters (and, on the
    /// implicit-path backend, the column source's path-free instance,
    /// so later probes see the mutated latencies), rescales each
    /// commodity's flow block to its (possibly renormalised) new
    /// demand, refreshes the evaluation in place, and opens a new
    /// epoch.
    ///
    /// A latency-only event skips the scatter: the flow has not moved,
    /// so the workspace re-evaluates only the changed edges, re-sums
    /// `Φ` from its cached per-edge terms and runs the path gather
    /// ([`EvalWorkspace::refresh_latencies`], bit-identical to the full
    /// evaluation). Demand events evaluate in full.
    ///
    /// An event allocates only when it installs a latency function
    /// that owns heap data (polynomial, piecewise-linear, or a scaled
    /// M/M/1), which the action has to clone or build; affine and
    /// constant latencies and demand changes allocate nothing. Path
    /// sets and the CSR incidence are immutable under events, so the
    /// phases between events stay allocation-free too. Verified by
    /// `crates/core/tests/zero_alloc.rs`.
    ///
    /// # Errors
    ///
    /// The first failing action's error ([`EventAction::check_all`]).
    /// Every action is checked before any is applied, so on error the
    /// simulation is exactly as it was.
    pub fn apply_event(&mut self, actions: &[EventAction]) -> Result<(), NetError> {
        EventAction::check_all(actions, &self.instance)?;
        let demand_event = actions
            .iter()
            .any(|a| matches!(a, EventAction::SetDemand { .. }));
        let old_demands = &mut self.workspace.old_demands;
        old_demands.clear();
        if demand_event {
            old_demands.extend(self.instance.commodities().iter().map(|c| c.demand));
        }
        // Both instances share edges, commodities and latencies, so the
        // check above covers the column source's path-free copy too.
        for action in actions {
            action
                .apply(&mut self.instance)
                .expect("actions were checked before applying");
            if let Some(columns) = &mut self.columns {
                columns
                    .apply_action(action)
                    .expect("actions were checked before applying");
            }
        }
        // Demand events renormalise every commodity; rescale each
        // commodity's flow block so it remains feasible (the within-
        // block split — the interesting state — is preserved).
        for (i, &old) in self.workspace.old_demands.iter().enumerate() {
            let new = self.instance.commodities()[i].demand;
            if new != old {
                let scale = new / old;
                let range = self.instance.commodity_paths(i);
                for v in &mut self.flow.values_mut()[range] {
                    *v *= scale;
                }
            }
        }
        let EngineWorkspace { eval, pool, .. } = &mut self.workspace;
        if demand_event {
            eval.evaluate_with(&self.instance, &self.flow, pool.as_deref());
        } else {
            let edges = actions.iter().filter_map(EventAction::latency_edge);
            eval.refresh_latencies(&self.instance, &self.flow, edges);
        }
        // The event legitimately moves the potential; the governor must
        // not read the jump as a Lemma-4 violation.
        if let Some(guard) = &mut self.guard {
            guard.reset_baseline();
        }
        self.epoch += 1;
        Ok(())
    }

    /// Starts a fresh run from `f0` under `config`, reusing every
    /// buffer of the existing [`EngineWorkspace`] and keeping the
    /// simulation's instance as it stands, events applied so far
    /// included. Parameter sweeps use this to
    /// amortise the workspace allocations across runs — O(P) rate and
    /// evaluation buffers, plus any lazily allocated dense blocks when
    /// the policy is a non-separable custom rule.
    ///
    /// The worker pool (if any) keeps its identity across resets —
    /// `config.parallelism` is not re-resolved; build a new
    /// [`Simulation`] to change lane counts.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `f0` is infeasible for the
    /// *current* instance.
    pub fn reset(&mut self, f0: &FlowVec, config: &SimulationConfig) {
        config.validate();
        assert!(
            f0.is_feasible(&self.instance, 1e-6),
            "initial flow must be feasible"
        );
        self.config = config.clone();
        self.flow.values_mut().copy_from_slice(f0.values());
        self.workspace.configure_delta(&self.instance, config);
        let EngineWorkspace { eval, pool, .. } = &mut self.workspace;
        eval.evaluate_with(&self.instance, &self.flow, pool.as_deref());
        self.fault = config.faults.clone().map(|plan| {
            FaultState::new(plan, &self.instance).expect("invalid fault plan for this instance")
        });
        self.guard = config.guard.clone().map(SmoothnessGuard::new);
        self.index = 0;
        self.epoch = 0;
        self.start_time = 0.0;
        self.stopped = false;
        self.eval_nanos = 0;
    }

    /// Whether `instance` has the exact shape this simulation's buffers
    /// were allocated for — the precondition of
    /// [`Simulation::rebind`]. Ensemble sweeps use this to decide
    /// between rebinding a per-lane simulation and rebuilding it.
    pub fn shape_matches(&self, instance: &Instance) -> bool {
        instance.num_paths() == self.instance.num_paths()
            && instance.num_edges() == self.instance.num_edges()
            && instance.num_commodities() == self.instance.num_commodities()
            && (0..instance.num_commodities())
                .all(|i| instance.commodity_paths(i) == self.instance.commodity_paths(i))
    }

    /// Swaps the dynamics reference driving this simulation. The
    /// workspace is dynamics-agnostic (rate shapes depend on the
    /// instance only), so this composes with [`Simulation::reset`] /
    /// [`Simulation::rebind`] for sweeps that vary the policy per run.
    pub fn set_dynamics(&mut self, dynamics: &'a D) {
        self.dynamics = dynamics;
    }

    /// Runs the simulation to completion from its current state,
    /// materialising the [`Trajectory`] of the remaining phases. The
    /// simulation (and its workspace, including any worker pool) stays
    /// usable afterwards — [`Simulation::reset`] / [`Simulation::rebind`]
    /// start the next run in the same buffers.
    pub fn drive(&mut self) -> Trajectory {
        try_drive(self, &[]).expect("static runs cannot fail event application")
    }

    /// Rebinds the simulation to a different instance of the **same
    /// shape** (equal path, edge and commodity counts — e.g. another
    /// seed of the same builder family) and starts a fresh run,
    /// reusing the workspace buffers. The simulation takes a clone of
    /// `instance` that shares its path arena, so a rebind copies no
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ, `config` is invalid, or `f0` is
    /// infeasible for `instance`.
    pub fn rebind(&mut self, instance: &Instance, f0: &FlowVec, config: &SimulationConfig) {
        assert!(
            self.shape_matches(instance),
            "rebind requires an instance of identical shape"
        );
        self.instance.clone_from(instance);
        self.reset(f0, config);
    }

    /// Grows the instance in place by the columns the column source
    /// just admitted: each is appended to its commodity's path set
    /// ([`Instance::push_path`]) at zero flow, and the evaluation is
    /// extended by its latency alone. A zero-flow column moves no edge
    /// flow, so edge flows, the potential and every existing path
    /// latency stay bitwise unchanged. The workspace buffers are
    /// re-shaped keeping their capacity, and the board is blanked, so
    /// the fault layer's next post is a clean bootstrap.
    fn adopt_columns(&mut self) {
        let Some(columns) = self.columns.as_mut() else {
            return;
        };
        for (i, path) in columns.admitted() {
            let p = self
                .instance
                .push_path(i, path)
                .expect("oracle columns are valid for their commodity");
            self.flow.insert_unused(p);
            self.workspace.eval.admit_unused_path(&self.instance, p);
        }
        self.workspace.grow_to(&self.instance);
        self.board.blank_for(&self.instance);
        if let Some(fault) = &mut self.fault {
            fault.rebind(&self.instance);
        }
    }

    /// Executes one phase and returns its record, or `None` when the
    /// phase budget is exhausted or the early-stop regret threshold is
    /// met at the phase start (in which case the phase does not run).
    pub fn step(&mut self) -> Option<PhaseRecord> {
        if self.is_finished() {
            self.stopped = true;
            return None;
        }

        // Column generation (implicit-path backend only): probe the
        // current edge latencies for best replies outside the active
        // set, and grow the restriction before the phase starts.
        let latencies = self.workspace.eval.edge_latencies();
        if let Some(columns) = self.columns.as_mut() {
            if columns.discover(latencies, &self.instance) {
                self.adopt_columns();
            }
        }

        // Phase-start metrics: all read off the one evaluation of the
        // current flow maintained across steps.
        let potential_start = self.workspace.eval.potential();
        let avg_latency_start = self.workspace.eval.avg_latency();
        let max_regret_start = self
            .workspace
            .eval
            .max_regret(&self.instance, &self.flow, 1e-12);
        if let Some(threshold) = self.config.stop_when_regret_below {
            if max_regret_start < threshold {
                self.stopped = true;
                return None;
            }
        }
        let unsatisfied: Vec<f64> = self
            .config
            .deltas
            .iter()
            .map(|d| {
                self.workspace
                    .eval
                    .unsatisfied_volume(&self.instance, &self.flow, *d)
            })
            .collect();
        let weakly_unsatisfied: Vec<f64> = self
            .config
            .deltas
            .iter()
            .map(|d| {
                self.workspace
                    .eval
                    .weakly_unsatisfied_volume(&self.instance, &self.flow, *d)
            })
            .collect();

        // Snapshot f̂_e and ℓ_e(f̂_e) for the end-of-phase virtual gain
        // — from the *true* evaluation, before any board fault — and
        // post the board by copying the cached arrays (through the
        // fault layer when a plan is attached). The movement stop also
        // snapshots the phase-start path flows it measures from.
        self.workspace.snapshot_start_edges();
        if let Some(delta) = &mut self.workspace.delta {
            delta.start_flow.copy_from_slice(self.flow.values());
        }
        match &mut self.fault {
            Some(state) => state.post(
                &mut self.board,
                &self.instance,
                &self.workspace.eval,
                &self.flow,
                self.index,
                self.start_time,
            ),
            None => self
                .board
                .post_from_eval(&self.workspace.eval, &self.flow, self.start_time),
        }
        self.board.quantize(self.config.board_precision);

        let tau = self
            .config
            .schedule
            .phase_length(self.config.update_period, self.index);
        // The governor throttles the effective α by time dilation:
        // advancing the board-frozen linear dynamics for `s·τ` is
        // exactly the trajectory of `s`-scaled migration rates over τ
        // (see the guard module docs). Wall-clock time still advances
        // by the full τ below.
        let tau_dynamics = match &mut self.guard {
            Some(guard) => tau * guard.observe(self.index, self.start_time, potential_start),
            None => tau,
        };
        self.dynamics.advance_phase(
            &self.instance,
            &self.board,
            &mut self.flow,
            tau_dynamics,
            &self.config.integrator,
            &mut self.workspace,
        );
        self.flow.renormalise(&self.instance);

        // One evaluation per phase boundary: the phase end doubles as
        // the next phase's start.
        let eval_started = Instant::now();
        let EngineWorkspace { eval, pool, .. } = &mut self.workspace;
        eval.evaluate_with(&self.instance, &self.flow, pool.as_deref());
        self.eval_nanos += eval_started.elapsed().as_nanos() as u64;
        if let (Some(d), Some(threshold)) = (
            &mut self.workspace.delta,
            self.config.stop_when_phase_delta_below,
        ) {
            d.last_phase_delta = phase_movement(&self.instance, &d.start_flow, self.flow.values());
            if d.last_phase_delta < threshold {
                self.stopped = true;
            }
        }
        let potential_end = self.workspace.eval.potential();
        let virtual_gain = self.workspace.eval.virtual_gain_from(
            &self.workspace.start_edge_flows,
            &self.workspace.start_edge_latencies,
        );

        let record = PhaseRecord {
            index: self.index,
            epoch: self.epoch,
            start_time: self.start_time,
            potential_start,
            potential_end,
            virtual_gain,
            avg_latency_start,
            max_regret_start,
            unsatisfied,
            weakly_unsatisfied,
        };
        self.start_time += tau;
        self.index += 1;
        Some(record)
    }
}

/// Runs `dynamics` from `f0` under the bulletin board model.
///
/// Returns the per-phase [`Trajectory`]. The flow is renormalised after
/// every phase so floating-point drift never violates feasibility.
/// When the early-stop threshold triggers, no bookkeeping is done for
/// the phase that never ran — `trajectory.flows` (when recording) has
/// exactly one entry per *recorded* phase (every
/// `config.record_stride`-th executed phase).
///
/// # Panics
///
/// Panics if the configuration is invalid (non-positive update period)
/// or `f0` is infeasible for `instance`.
pub fn run<D: Dynamics + ?Sized>(
    instance: &Instance,
    dynamics: &D,
    f0: &FlowVec,
    config: &SimulationConfig,
) -> Trajectory {
    let mut sim = Simulation::new(instance, dynamics, f0, config);
    sim.drive()
}

/// Runs `dynamics` from `f0` through a non-stationary [`Scenario`]:
/// before each phase, every event scheduled at that phase index is
/// applied ([`Simulation::apply_event`]) — demands surge, links degrade
/// — and the run continues against the mutated instance in a new
/// epoch. [`PhaseRecord::epoch`] marks the segments.
///
/// Events scheduled at or beyond `config.num_phases` (or beyond an
/// early stop) never fire. Scenario runs normally leave
/// `stop_when_regret_below` unset so the run survives quiet stretches
/// between shocks.
///
/// # Errors
///
/// Propagates the first failing event application.
///
/// # Panics
///
/// Panics if the configuration is invalid or `f0` is infeasible.
pub fn run_scenario<D: Dynamics + ?Sized>(
    instance: &Instance,
    dynamics: &D,
    f0: &FlowVec,
    config: &SimulationConfig,
    scenario: &Scenario,
) -> Result<Trajectory, NetError> {
    let mut sim = Simulation::new(instance, dynamics, f0, config);
    try_drive(&mut sim, scenario.events())
}

/// Like [`run_scenario`], but also returns the run's audit trail: the
/// [`FaultStats`] of an attached fault plan and the [`GuardLog`] of an
/// attached smoothness governor (each `None` when not configured).
///
/// # Errors
///
/// Propagates the first failing event application.
///
/// # Panics
///
/// Panics if the configuration is invalid or `f0` is infeasible.
#[allow(clippy::type_complexity)]
pub fn run_scenario_audited<D: Dynamics + ?Sized>(
    instance: &Instance,
    dynamics: &D,
    f0: &FlowVec,
    config: &SimulationConfig,
    scenario: &Scenario,
) -> Result<(Trajectory, Option<FaultStats>, Option<GuardLog>), NetError> {
    let mut sim = Simulation::new(instance, dynamics, f0, config);
    let traj = try_drive(&mut sim, scenario.events())?;
    let stats = sim.fault_stats().copied();
    let log = sim.guard_log().cloned();
    Ok((traj, stats, log))
}

/// Drives a simulation to completion against a (possibly empty) sorted
/// event list, materialising the [`Trajectory`]. Leaves the simulation
/// — and its pre-allocated workspace — reusable via
/// [`Simulation::reset`] / [`Simulation::rebind`].
pub(crate) fn try_drive<D: Dynamics + ?Sized>(
    sim: &mut Simulation<'_, D>,
    events: &[wardrop_net::scenario::Event],
) -> Result<Trajectory, NetError> {
    let config = sim.config().clone();
    let stride = config.effective_stride();
    let mut phases = Vec::with_capacity(config.num_phases.min(1 << 20));
    let mut flows = Vec::new();
    let mut next_event = 0usize;
    loop {
        while next_event < events.len() && events[next_event].at_phase <= sim.phases_run() {
            sim.apply_event(&events[next_event].actions)?;
            next_event += 1;
        }
        let snapshot = if config.record_flows && sim.phases_run().is_multiple_of(stride) {
            Some(sim.flow().clone())
        } else {
            None
        };
        match sim.step() {
            Some(record) => {
                if let Some(start_flow) = snapshot {
                    flows.push(start_flow);
                }
                phases.push(record);
            }
            None => break,
        }
    }

    Ok(Trajectory {
        update_period: config.update_period,
        deltas: config.deltas.clone(),
        phases,
        flows,
        flow_stride: stride,
        final_flow: sim.flow().clone(),
        dynamics: sim.dynamics.dynamics_name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{replicator, uniform_linear};
    use wardrop_net::builders;
    use wardrop_net::equilibrium::{is_wardrop_equilibrium, max_regret};

    #[test]
    fn pigou_converges_to_equilibrium_under_uniform_linear() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.25, 2000);
        let traj = run(&inst, &policy, &f0, &config);
        // Equilibrium: all flow on the x-link (both latencies 1).
        let f = &traj.final_flow;
        assert!(
            is_wardrop_equilibrium(&inst, f, 1e-2),
            "final flow {:?} not an equilibrium",
            f.values()
        );
        assert!(f.get(wardrop_net::PathId::from_index(0)) > 0.95);
    }

    #[test]
    fn potential_is_monotone_for_smooth_policy_within_safe_period() {
        let inst = builders::braess();
        let policy = uniform_linear(&inst);
        let alpha = policy.smoothness().unwrap();
        let t_star = crate::theory::safe_update_period(&inst, alpha);
        let f0 = FlowVec::concentrated(&inst);
        let config = SimulationConfig::new(t_star, 300);
        let traj = run(&inst, &policy, &f0, &config);
        assert_eq!(traj.monotonicity_violations(1e-10), 0);
        assert_eq!(traj.lemma4_violations(1e-10), 0);
    }

    #[test]
    fn replicator_converges_on_braess() {
        let inst = builders::braess();
        let policy = replicator(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.1, 4000);
        let traj = run(&inst, &policy, &f0, &config);
        // Braess equilibrium: everyone on the zig-zag path, latency 2.
        let lat = traj.final_flow.path_latencies(&inst);
        let regret = max_regret(&inst, &traj.final_flow, 1e-6);
        assert!(regret < 0.05, "regret {regret}, latencies {lat:?}");
    }

    #[test]
    fn early_stop_truncates_run() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.25, 5000).with_stop_regret(0.05);
        let traj = run(&inst, &policy, &f0, &config);
        assert!(traj.len() < 5000);
        assert!(max_regret(&inst, &traj.final_flow, 1e-12) < 0.06);
    }

    #[test]
    fn early_stop_keeps_flow_and_phase_counts_consistent() {
        // Regression: the pre-fused loop pushed a recorded flow before
        // checking the stop threshold, leaving flows.len() ==
        // phases.len() + 1 when the early stop triggered.
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.25, 5000)
            .with_stop_regret(0.05)
            .with_flows();
        let traj = run(&inst, &policy, &f0, &config);
        assert!(traj.len() < 5000, "must stop early");
        assert_eq!(
            traj.flows.len(),
            traj.phases.len(),
            "one recorded flow per executed phase"
        );
        // The recorded flows are exactly the phase starts.
        assert_eq!(traj.flows[0], f0);
    }

    #[test]
    fn stepping_matches_run() {
        let inst = builders::braess();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::concentrated(&inst);
        let config = SimulationConfig::new(0.2, 25);
        let traj = run(&inst, &policy, &f0, &config);
        let mut sim = Simulation::new(&inst, &policy, &f0, &config);
        let mut records = Vec::new();
        while let Some(r) = sim.step() {
            records.push(r);
        }
        assert!(sim.is_finished());
        assert_eq!(sim.phases_run(), 25);
        assert_eq!(records, traj.phases);
        assert_eq!(sim.flow(), &traj.final_flow);
    }

    #[test]
    fn threads_mode_is_bit_identical_to_serial() {
        // Large enough that the parallel gates (eval, rate fill,
        // apply) genuinely engage — grid_8x8 crosses all thresholds.
        let inst = builders::grid_network(8, 8, 7);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let serial_config = SimulationConfig::new(1.0, 4).with_flows();
        let serial = run(&inst, &policy, &f0, &serial_config);
        for n in [2usize, 4] {
            let config = serial_config
                .clone()
                .with_parallelism(Parallelism::Threads(n));
            let par = run(&inst, &policy, &f0, &config);
            assert_eq!(par.phases, serial.phases, "records diverged at {n} threads");
            assert_eq!(par.flows, serial.flows, "flows diverged at {n} threads");
            assert_eq!(par.final_flow, serial.final_flow, "{n} threads");
        }
    }

    #[test]
    fn parallelism_resolves_threads_and_env_override() {
        // The resolution asserts below only hold when the environment
        // override is absent (a developer shell may export it).
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(Parallelism::Serial.resolved_threads(), 1);
            assert_eq!(Parallelism::Threads(3).resolved_threads(), 3);
            assert_eq!(Parallelism::Threads(0).resolved_threads(), 1);
            assert!(Parallelism::Auto.resolved_threads() >= 1);
            assert!(Parallelism::Serial.build_pool().is_none());
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            match Parallelism::Threads(2).build_pool() {
                // Clamped at the CPU count: a pool exists iff ≥ 2
                // lanes resolve, and never more than requested.
                Some(pool) => assert_eq!(pool.lanes(), 2.min(cores)),
                None => assert_eq!(cores, 1),
            }
        }
        // Serde round-trip of the new config field.
        let config = SimulationConfig::new(0.5, 3).with_parallelism(Parallelism::Threads(4));
        let json = serde_json::to_string(&config).expect("serialise");
        let back: SimulationConfig = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.parallelism, Parallelism::Threads(4));
        // Configs serialised before the field existed still load.
        let legacy: SimulationConfig = serde_json::from_str(
            &json
                .replace("\"parallelism\":{\"Threads\":4},", "")
                .replace(",\"parallelism\":{\"Threads\":4}", ""),
        )
        .expect("legacy config");
        assert_eq!(legacy.parallelism, Parallelism::Serial);
    }

    #[test]
    fn record_flows_stores_phase_starts() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.5, 10).with_flows();
        let traj = run(&inst, &policy, &f0, &config);
        assert_eq!(traj.flows.len(), 10);
        assert_eq!(traj.flows[0], f0);
    }

    #[test]
    fn unsatisfied_columns_match_deltas() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.5, 5).with_deltas(vec![0.01, 0.2]);
        let traj = run(&inst, &policy, &f0, &config);
        for p in &traj.phases {
            assert_eq!(p.unsatisfied.len(), 2);
            // Larger δ never increases unsatisfied volume.
            assert!(p.unsatisfied[1] <= p.unsatisfied[0] + 1e-12);
        }
    }

    #[test]
    fn virtual_gain_is_nonpositive_for_smooth_policies() {
        let inst = builders::braess();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::concentrated(&inst);
        let config = SimulationConfig::new(0.2, 100);
        let traj = run(&inst, &policy, &f0, &config);
        for p in &traj.phases {
            assert!(
                p.virtual_gain <= 1e-10,
                "phase {} has V = {}",
                p.index,
                p.virtual_gain
            );
        }
    }

    #[test]
    fn jittered_schedule_lengths_are_deterministic_and_bounded() {
        let s = PhaseSchedule::Jittered {
            amplitude: 0.3,
            seed: 42,
        };
        for i in 0..100 {
            let a = s.phase_length(0.5, i);
            let b = s.phase_length(0.5, i);
            assert_eq!(a, b);
            assert!((0.5 * 0.7 - 1e-12..0.5 * 1.3 + 1e-12).contains(&a));
        }
        assert!((s.max_phase_length(0.5) - 0.65).abs() < 1e-12);
        assert_eq!(PhaseSchedule::Fixed.phase_length(0.5, 7), 0.5);
        // Jitter actually varies across phases.
        let l0 = s.phase_length(0.5, 0);
        let distinct = (1..20).any(|i| (s.phase_length(0.5, i) - l0).abs() > 1e-6);
        assert!(distinct);
    }

    #[test]
    fn jittered_run_accumulates_start_times() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.5, 20).with_jitter(0.4, 9);
        let traj = run(&inst, &policy, &f0, &config);
        for w in traj.phases.windows(2) {
            let tau = w[1].start_time - w[0].start_time;
            assert!((0.5 * 0.6 - 1e-12..0.5 * 1.4 + 1e-12).contains(&tau));
        }
    }

    #[test]
    fn jitter_within_safe_period_keeps_monotonicity() {
        // Base period chosen so even the longest jittered phase stays
        // below T*: T(1 + amp) ≤ T*.
        let inst = builders::braess();
        let policy = uniform_linear(&inst);
        let alpha = policy.smoothness().unwrap();
        let t_star = crate::theory::safe_update_period(&inst, alpha);
        let amp = 0.5;
        let config = SimulationConfig::new(t_star / (1.0 + amp), 400).with_jitter(amp, 3);
        assert!(config.schedule.max_phase_length(config.update_period) <= t_star + 1e-12);
        let traj = run(&inst, &policy, &FlowVec::concentrated(&inst), &config);
        assert_eq!(traj.monotonicity_violations(1e-10), 0);
        assert_eq!(traj.lemma4_violations(1e-10), 0);
    }

    #[test]
    fn record_stride_bounds_flow_memory() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let dense = run(
            &inst,
            &policy,
            &f0,
            &SimulationConfig::new(0.25, 100).with_flows(),
        );
        let strided_config = SimulationConfig::new(0.25, 100).with_record_stride(10);
        let strided = run(&inst, &policy, &f0, &strided_config);
        assert_eq!(strided.flows.len(), 10);
        assert_eq!(strided.flow_stride, 10);
        // Strided flows are exactly the dense phase starts.
        for (i, f) in strided.flows.iter().enumerate() {
            assert_eq!(f, &dense.flows[strided.flow_phase(i)]);
        }
        // Phase records — and the metrics built on them — are complete.
        assert_eq!(strided.phases.len(), 100);
        assert_eq!(
            strided.bad_phase_count(0, 0.01),
            dense.bad_phase_count(0, 0.01)
        );
        assert_eq!(strided.potential_series(), dense.potential_series());
    }

    #[test]
    fn apply_event_rescales_flows_and_opens_epoch() {
        let inst = builders::multi_commodity_grid(3, 3, 5);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.1, 50);
        let mut sim = Simulation::new(&inst, &policy, &f0, &config);
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(sim.epoch(), 0);
        sim.apply_event(&[wardrop_net::EventAction::SetDemand {
            commodity: 0,
            demand: 0.8,
        }])
        .unwrap();
        assert_eq!(sim.epoch(), 1);
        // The rescaled flow is feasible for the mutated demands...
        assert!(sim.flow().is_feasible(sim.instance(), 1e-9));
        assert!((sim.instance().commodities()[0].demand - 0.8).abs() < 1e-12);
        // ...and the refreshed evaluation matches a from-scratch one.
        assert_eq!(
            sim.eval().path_latencies(),
            sim.flow().path_latencies(sim.instance()).as_slice()
        );
        let record = sim.step().unwrap();
        assert_eq!(record.epoch, 1);
    }

    #[test]
    fn run_scenario_segments_epochs_at_events() {
        let inst = builders::multi_commodity_grid(3, 3, 5);
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.1, 60);
        let scenario = wardrop_net::Scenario::new("pulse")
            .with_demand_schedule(0, &wardrop_net::DemandSchedule::pulse(0.5, 0.8, 20, 20));
        let traj = run_scenario(&inst, &policy, &f0, &config, &scenario).unwrap();
        assert_eq!(traj.len(), 60);
        assert_eq!(traj.num_epochs(), 3);
        assert_eq!(
            traj.epoch_ranges(),
            vec![(0, 0..20), (1, 20..40), (2, 40..60)]
        );
        assert!(traj.final_flow.is_feasible(&inst, 1e-6));
        // Events at or beyond the horizon never fire.
        let late = wardrop_net::Scenario::new("late").with_event(wardrop_net::Event::at(
            90,
            "never",
            wardrop_net::EventAction::SetDemand {
                commodity: 0,
                demand: 0.7,
            },
        ));
        let traj = run_scenario(&inst, &policy, &f0, &config, &late).unwrap();
        assert_eq!(traj.num_epochs(), 1);
    }

    #[test]
    fn run_scenario_propagates_event_errors() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        let config = SimulationConfig::new(0.25, 10);
        let bad = wardrop_net::Scenario::new("bad").with_event(wardrop_net::Event::at(
            2,
            "impossible",
            wardrop_net::EventAction::SetDemand {
                commodity: 0,
                demand: 0.5, // single commodity: pinned to 1
            },
        ));
        assert!(run_scenario(&inst, &policy, &f0, &config, &bad).is_err());
    }

    #[test]
    fn reset_replays_identically_and_reuses_buffers() {
        let inst = builders::braess();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::concentrated(&inst);
        let config_a = SimulationConfig::new(0.2, 30);
        let config_b = SimulationConfig::new(0.05, 40);
        let fresh_a = run(&inst, &policy, &f0, &config_a);
        let fresh_b = run(&inst, &policy, &f0, &config_b);

        let mut sim = Simulation::new(&inst, &policy, &f0, &config_a);
        let mut records = Vec::new();
        while let Some(r) = sim.step() {
            records.push(r);
        }
        assert_eq!(records, fresh_a.phases);
        // Re-run with a different period inside the same workspace.
        sim.reset(&f0, &config_b);
        assert_eq!(sim.phases_run(), 0);
        assert!(!sim.is_finished());
        let mut records = Vec::new();
        while let Some(r) = sim.step() {
            records.push(r);
        }
        assert_eq!(records, fresh_b.phases);
        assert_eq!(sim.flow(), &fresh_b.final_flow);
    }

    #[test]
    fn rebind_switches_to_same_shape_instance() {
        let a = builders::standard_random_links(6, 11);
        let b = builders::standard_random_links(6, 22);
        let policy = uniform_linear(&a);
        let f0 = FlowVec::uniform(&a);
        let config = SimulationConfig::new(0.1, 25);
        let fresh_b = run(&b, &policy, &f0, &config);

        let mut sim = Simulation::new(&a, &policy, &f0, &config);
        while sim.step().is_some() {}
        sim.rebind(&b, &f0, &config);
        let mut records = Vec::new();
        while let Some(r) = sim.step() {
            records.push(r);
        }
        assert_eq!(records, fresh_b.phases);
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn rebind_rejects_shape_mismatch() {
        let a = builders::standard_random_links(6, 11);
        let b = builders::standard_random_links(7, 11);
        let policy = uniform_linear(&a);
        let f0 = FlowVec::uniform(&a);
        let config = SimulationConfig::new(0.1, 5);
        let mut sim = Simulation::new(&a, &policy, &f0, &config);
        sim.rebind(&b, &FlowVec::uniform(&b), &config);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn jitter_amplitude_validated() {
        let _ = SimulationConfig::new(0.5, 10).with_jitter(1.5, 1);
    }

    #[test]
    fn check_rejects_bad_integrators_and_jitter() {
        let bad_integrators = [
            Integrator::Euler { dt: 0.0 },
            Integrator::Euler { dt: -0.1 },
            Integrator::Euler { dt: f64::NAN },
            Integrator::Rk4 { dt: 0.0 },
            Integrator::Rk4 { dt: f64::NAN },
            Integrator::Uniformization { tol: 0.0 },
            Integrator::Uniformization { tol: -1e-12 },
            Integrator::Uniformization { tol: f64::NAN },
        ];
        for integrator in bad_integrators {
            let config = SimulationConfig::new(0.5, 10).with_integrator(integrator);
            let err = config.check().expect_err(&integrator.name());
            assert!(err.contains("must be positive"), "{err}");
        }
        for amplitude in [-0.1, 1.0, 1.5, f64::NAN] {
            let mut config = SimulationConfig::new(0.5, 10);
            config.schedule = PhaseSchedule::Jittered { amplitude, seed: 1 };
            let err = config.check().expect_err("bad jitter amplitude");
            assert!(err.contains("amplitude"), "{err}");
        }
        let good = SimulationConfig::new(0.5, 10)
            .with_integrator(Integrator::Rk4 { dt: 0.01 })
            .with_jitter(0.0, 1);
        assert_eq!(good.check(), Ok(()));
        // A restored checkpoint goes through the same check.
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let sim = Simulation::new(&inst, &policy, &FlowVec::uniform(&inst), &good);
        let mut snapshot = sim.snapshot();
        snapshot.config.integrator = Integrator::Euler { dt: 0.0 };
        assert!(matches!(
            Simulation::from_snapshot(&policy, &snapshot),
            Err(SnapshotError::Shape(_))
        ));
    }

    #[test]
    #[should_panic(expected = "update period")]
    fn zero_period_rejected() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::uniform(&inst);
        run(&inst, &policy, &f0, &SimulationConfig::new(0.0, 1));
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn infeasible_initial_flow_rejected() {
        let inst = builders::pigou();
        let policy = uniform_linear(&inst);
        let f0 = FlowVec::from_values_unchecked(vec![0.0, 0.0]);
        run(&inst, &policy, &f0, &SimulationConfig::new(1.0, 1));
    }
}
