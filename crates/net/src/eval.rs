//! Fused, allocation-free evaluation of all per-flow quantities.
//!
//! Every metric the phase loop needs — edge flows, edge and path
//! latencies, the Beckmann–McGuire–Winsten potential, overall and
//! per-commodity average latencies, per-commodity minimum latencies —
//! derives from the same `edge_flows → edge_latencies → path_latencies`
//! chain. The naive API on [`FlowVec`] recomputes that chain (and
//! allocates) once *per metric*; an [`EvalWorkspace`] computes it once
//! per flow into reusable buffers, so a steady-state simulation phase
//! touches the CSR incidence a constant number of times and performs
//! zero heap allocations.
//!
//! Results are identical to the naive implementations (the scatter,
//! gather and reduction orders are preserved, so most quantities match
//! bit-for-bit; cross-commodity sums may differ by float re-association
//! only). `tests/properties.rs` asserts this on random instances.

use crate::equilibrium::{
    max_regret_from, unsatisfied_volume_from, weakly_unsatisfied_volume_from,
};
use crate::flow::FlowVec;
use crate::graph::EdgeId;
use crate::instance::Instance;
use crate::path::PathId;
use wardrop_pool::WorkerPool;

/// Incidence count below which [`EvalWorkspace::evaluate_with`] ignores
/// the pool: dispatch overhead (a couple of condvar round-trips) beats
/// the win on small instances.
const PARALLEL_EVAL_MIN_INCIDENCES: usize = 1 << 14;

/// Reusable buffers holding every derived quantity of one flow.
///
/// Call [`EvalWorkspace::evaluate`] whenever the flow changes; all
/// accessors then read the cached arrays.
///
/// # Examples
///
/// ```
/// use wardrop_net::{builders, eval::EvalWorkspace, flow::FlowVec};
///
/// let inst = builders::braess();
/// let f = FlowVec::uniform(&inst);
/// let mut ws = EvalWorkspace::new(&inst);
/// ws.evaluate(&inst, &f);
/// assert_eq!(ws.path_latencies(), f.path_latencies(&inst).as_slice());
/// assert_eq!(ws.avg_latency(), f.avg_latency(&inst));
/// ```
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    edge_flows: Vec<f64>,
    edge_latencies: Vec<f64>,
    /// Per-edge potential terms `∫₀^{f_e} ℓ_e` of the cached edge
    /// flows; `Φ` is their left-to-right sum.
    edge_potentials: Vec<f64>,
    path_latencies: Vec<f64>,
    commodity_min: Vec<f64>,
    commodity_avg: Vec<f64>,
    /// Per-commodity `(min, Σ f_P ℓ_P)` scratch for the parallel
    /// gather; the serial combine turns it into min/avg/overall.
    commodity_scratch: Vec<[f64; 2]>,
    potential: f64,
    avg_latency: f64,
}

impl EvalWorkspace {
    /// Creates a workspace sized for `instance` (all buffers zeroed; no
    /// evaluation has happened yet).
    pub fn new(instance: &Instance) -> Self {
        EvalWorkspace {
            edge_flows: vec![0.0; instance.num_edges()],
            edge_latencies: vec![0.0; instance.num_edges()],
            edge_potentials: vec![0.0; instance.num_edges()],
            path_latencies: vec![0.0; instance.num_paths()],
            commodity_min: vec![0.0; instance.num_commodities()],
            commodity_avg: vec![0.0; instance.num_commodities()],
            commodity_scratch: vec![[0.0; 2]; instance.num_commodities()],
            potential: 0.0,
            avg_latency: 0.0,
        }
    }

    /// Recomputes every cached quantity for `flow` in one fused pass:
    /// a CSR scatter (edge flows), one sweep over edges (latencies and
    /// potential) and a CSR gather (path latencies, mins, averages).
    ///
    /// Equivalent to [`EvalWorkspace::evaluate_edges`] followed by
    /// [`EvalWorkspace::finish_paths`].
    ///
    /// # Panics
    ///
    /// Panics if `flow` or the workspace does not match `instance`.
    pub fn evaluate(&mut self, instance: &Instance, flow: &FlowVec) {
        self.evaluate_edges(instance, flow);
        self.finish_paths(instance, flow);
    }

    /// Recomputes the *edge-level* quantities only: edge flows, edge
    /// latencies and the potential. Path latencies, per-commodity
    /// minima/averages and the overall average latency are left stale.
    ///
    /// This is the fast path for metric-only callers that need `Φ`,
    /// the edge arrays or a [virtual gain](EvalWorkspace::virtual_gain_from)
    /// but none of the per-path quantities — it skips the CSR gather
    /// and the per-commodity min/avg pass entirely (half the fused
    /// work on `grid_10x10`-sized instances). Call
    /// [`EvalWorkspace::finish_paths`] with the same flow to complete
    /// the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `flow` or the workspace does not match `instance`.
    pub fn evaluate_edges(&mut self, instance: &Instance, flow: &FlowVec) {
        let values = flow.values();
        assert_eq!(values.len(), instance.num_paths());
        assert_eq!(self.path_latencies.len(), instance.num_paths());
        assert_eq!(self.edge_flows.len(), instance.num_edges());

        // Scatter: f_e = Σ_{P ∋ e} f_P (same visit order as the naive
        // FlowVec::edge_flows, so results are bit-identical). The
        // 4-wide stride keeps the per-edge update order while giving
        // the compiler independent address streams to overlap.
        self.edge_flows.fill(0.0);
        let path_edges = instance.path_edge_rows();
        for (idx, &fp) in values.iter().enumerate() {
            if fp == 0.0 {
                continue;
            }
            let edges = path_edges.row(idx);
            let mut quads = edges.chunks_exact(4);
            for q in &mut quads {
                self.edge_flows[q[0].index()] += fp;
                self.edge_flows[q[1].index()] += fp;
                self.edge_flows[q[2].index()] += fp;
                self.edge_flows[q[3].index()] += fp;
            }
            for e in quads.remainder() {
                self.edge_flows[e.index()] += fp;
            }
        }
        self.edge_sweep(instance);
    }

    /// Edge sweep: ℓ_e(f_e) and Φ = Σ_e ∫₀^{f_e} ℓ_e. Cheap (O(|E|))
    /// and kept on one thread in every mode, so the potential's
    /// left-to-right float association never depends on lane count.
    fn edge_sweep(&mut self, instance: &Instance) {
        let mut potential = 0.0;
        for (((le, pe), &fe), lat) in self
            .edge_latencies
            .iter_mut()
            .zip(&mut self.edge_potentials)
            .zip(&self.edge_flows)
            .zip(instance.latencies())
        {
            *le = lat.eval(fe);
            *pe = lat.primitive(fe);
            potential += *pe;
        }
        self.potential = potential;
    }

    /// Completes an [`EvalWorkspace::evaluate_edges`] into a full
    /// evaluation: the CSR gather (path latencies) and the
    /// per-commodity min/avg pass.
    ///
    /// # Panics
    ///
    /// Panics if `flow` does not match `instance`. The caller must have
    /// evaluated the edge quantities at the *same* flow.
    pub fn finish_paths(&mut self, instance: &Instance, flow: &FlowVec) {
        let values = flow.values();
        assert_eq!(values.len(), instance.num_paths());
        // Gather: ℓ_P, per-commodity min/avg, overall average latency.
        // The per-path sum keeps a single left-to-right accumulator
        // (bit-identical to the naive iterator sum) but strides the
        // loads four at a time so the gather addresses pipeline.
        let path_edges = instance.path_edge_rows();
        let mut avg_latency = 0.0;
        for (i, c) in instance.commodities().iter().enumerate() {
            let mut min_i = f64::INFINITY;
            let mut acc = 0.0;
            for p in instance.commodity_paths(i) {
                let edges = path_edges.row(p);
                let mut lp = 0.0;
                let mut quads = edges.chunks_exact(4);
                for q in &mut quads {
                    let l0 = self.edge_latencies[q[0].index()];
                    let l1 = self.edge_latencies[q[1].index()];
                    let l2 = self.edge_latencies[q[2].index()];
                    let l3 = self.edge_latencies[q[3].index()];
                    lp += l0;
                    lp += l1;
                    lp += l2;
                    lp += l3;
                }
                for e in quads.remainder() {
                    lp += self.edge_latencies[e.index()];
                }
                self.path_latencies[p] = lp;
                min_i = min_i.min(lp);
                acc += values[p] * lp;
            }
            self.commodity_min[i] = min_i;
            self.commodity_avg[i] = acc / c.demand;
            avg_latency += acc;
        }
        self.avg_latency = avg_latency;
    }

    /// [`EvalWorkspace::evaluate`] with its path stages optionally
    /// fanned across a [`WorkerPool`] — **bit-identical** to the serial
    /// evaluation for every lane count.
    ///
    /// The edge stage is the serial [`EvalWorkspace::evaluate_edges`]
    /// in every mode: the path-order scatter over the path rows, then
    /// the edge sweep. The pooled stages preserve every float-operation
    /// sequence of the serial pass:
    ///
    /// * **path latencies** are per-path independent sums;
    /// * the **per-commodity min/avg** pass runs per commodity (the
    ///   serial order within each block), and the cross-commodity
    ///   fold — the overall average latency — stays on the dispatching
    ///   thread in commodity order.
    ///
    /// With `pool = None`, or on instances too small to amortise a
    /// dispatch, this is exactly the serial [`EvalWorkspace::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if `flow` or the workspace does not match `instance`.
    pub fn evaluate_with(
        &mut self,
        instance: &Instance,
        flow: &FlowVec,
        pool: Option<&WorkerPool>,
    ) {
        self.evaluate_edges(instance, flow);
        self.finish_paths_with(instance, flow, pool);
    }

    /// [`EvalWorkspace::finish_paths`], optionally pooled (see
    /// [`EvalWorkspace::evaluate_with`] for the determinism argument).
    ///
    /// # Panics
    ///
    /// Panics if `flow` does not match `instance`.
    pub fn finish_paths_with(
        &mut self,
        instance: &Instance,
        flow: &FlowVec,
        pool: Option<&WorkerPool>,
    ) {
        let pool = match pool {
            Some(p)
                if p.lanes() > 1 && instance.incidence_count() >= PARALLEL_EVAL_MIN_INCIDENCES =>
            {
                p
            }
            _ => return self.finish_paths(instance, flow),
        };
        let values = flow.values();
        assert_eq!(values.len(), instance.num_paths());
        assert_eq!(self.path_latencies.len(), instance.num_paths());

        // Per-path latency gather.
        let EvalWorkspace {
            path_latencies,
            edge_latencies,
            ..
        } = self;
        let path_edges = instance.path_edge_rows();
        pool.fill_with(path_latencies, |p| {
            path_edges
                .row(p)
                .iter()
                .map(|e| edge_latencies[e.index()])
                .sum()
        });

        // Per-commodity (min, Σ f_P ℓ_P) in block-serial order; the
        // cross-commodity combine stays serial.
        let EvalWorkspace {
            path_latencies,
            commodity_scratch,
            ..
        } = self;
        pool.fill_with(commodity_scratch, |i| {
            let mut min_i = f64::INFINITY;
            let mut acc = 0.0;
            for p in instance.commodity_paths(i) {
                let lp = path_latencies[p];
                min_i = min_i.min(lp);
                acc += values[p] * lp;
            }
            [min_i, acc]
        });
        let mut avg_latency = 0.0;
        for (i, c) in instance.commodities().iter().enumerate() {
            let [min_i, acc] = self.commodity_scratch[i];
            self.commodity_min[i] = min_i;
            self.commodity_avg[i] = acc / c.demand;
            avg_latency += acc;
        }
        self.avg_latency = avg_latency;
    }

    /// Refreshes an exact evaluation of `flow` after the latency
    /// functions of `edges` were replaced, with `flow` unchanged — the
    /// latency-event form of [`EvalWorkspace::evaluate`], bit-identical
    /// to it whenever the workspace held an exact evaluation of `flow`
    /// before the replacement and `edges` lists every replaced edge
    /// (repeats are harmless).
    ///
    /// The edge flows have not moved, so nothing is scattered and only
    /// the listed edges' latencies and potential terms are recomputed;
    /// `Φ` is re-summed from the cached per-edge terms in edge order.
    /// The path stage is then [`EvalWorkspace::finish_paths`], the one
    /// gather a full evaluation runs, so the result equals it bit for
    /// bit. Cost: `O(|E| + nnz + |P|)` additions and no latency
    /// evaluation beyond the listed edges.
    ///
    /// # Panics
    ///
    /// Panics if `flow` or the workspace does not match `instance`.
    pub fn refresh_latencies(
        &mut self,
        instance: &Instance,
        flow: &FlowVec,
        edges: impl IntoIterator<Item = EdgeId>,
    ) {
        assert_eq!(self.edge_flows.len(), instance.num_edges());
        for e in edges {
            let (lat, fe) = (instance.latency(e), self.edge_flows[e.index()]);
            self.edge_latencies[e.index()] = lat.eval(fe);
            self.edge_potentials[e.index()] = lat.primitive(fe);
        }
        let mut potential = 0.0;
        for &term in &self.edge_potentials {
            potential += term;
        }
        self.potential = potential;
        self.finish_paths(instance, flow);
    }

    /// Extends an evaluation of `flow` to the zero-flow path `p` that
    /// [`Instance::push_path`] just admitted (and
    /// [`FlowVec::insert_unused`] mirrored into `flow`), without
    /// re-evaluating anything else.
    ///
    /// A zero-flow path moves no edge flow, so the edge arrays, the
    /// potential, every other path latency and the averages stay as
    /// they are (`x + 0.0 == x` for the non-negative sums). The new
    /// path's latency is summed from the cached edge latencies in the
    /// order of the full gather and, as its commodity's last path, is
    /// folded into that commodity's minimum last — so when the
    /// workspace held an exact evaluation before, it is bit-identical
    /// to a fresh [`EvalWorkspace::evaluate`] after.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not the last path of its commodity, or the
    /// workspace was not sized for the instance before the push.
    pub fn admit_unused_path(&mut self, instance: &Instance, p: PathId) {
        assert_eq!(self.path_latencies.len() + 1, instance.num_paths());
        let i = instance.commodity_of_path(p);
        assert_eq!(p.index() + 1, instance.commodity_paths(i).end);
        let mut lp = 0.0;
        for e in instance.path_edges(p) {
            lp += self.edge_latencies[e.index()];
        }
        self.path_latencies.insert(p.index(), lp);
        self.commodity_min[i] = self.commodity_min[i].min(lp);
    }

    /// Cached edge flows `f_e` of the last evaluated flow.
    #[inline]
    pub fn edge_flows(&self) -> &[f64] {
        &self.edge_flows
    }

    /// Cached edge latencies `ℓ_e(f_e)`.
    #[inline]
    pub fn edge_latencies(&self) -> &[f64] {
        &self.edge_latencies
    }

    /// Cached path latencies `ℓ_P(f)`.
    #[inline]
    pub fn path_latencies(&self) -> &[f64] {
        &self.path_latencies
    }

    /// Cached per-commodity minimum path latencies `ℓ^i_min`.
    #[inline]
    pub fn commodity_min_latencies(&self) -> &[f64] {
        &self.commodity_min
    }

    /// Cached per-commodity average latencies `L_i`.
    #[inline]
    pub fn commodity_avg_latencies(&self) -> &[f64] {
        &self.commodity_avg
    }

    /// Cached potential `Φ(f)`.
    #[inline]
    pub fn potential(&self) -> f64 {
        self.potential
    }

    /// Cached overall average latency `L = Σ_P f_P ℓ_P`.
    #[inline]
    pub fn avg_latency(&self) -> f64 {
        self.avg_latency
    }

    /// Maximum regret of any used path, from the cached latencies (see
    /// [`crate::equilibrium::max_regret`]).
    pub fn max_regret(&self, instance: &Instance, flow: &FlowVec, tol: f64) -> f64 {
        max_regret_from(
            instance,
            flow.values(),
            &self.path_latencies,
            &self.commodity_min,
            tol,
        )
    }

    /// `δ`-unsatisfied volume from the cached latencies (see
    /// [`crate::equilibrium::unsatisfied_volume`]).
    pub fn unsatisfied_volume(&self, instance: &Instance, flow: &FlowVec, delta: f64) -> f64 {
        unsatisfied_volume_from(
            instance,
            flow.values(),
            &self.path_latencies,
            &self.commodity_min,
            delta,
        )
    }

    /// Weakly `δ`-unsatisfied volume from the cached latencies (see
    /// [`crate::equilibrium::weakly_unsatisfied_volume`]).
    pub fn weakly_unsatisfied_volume(
        &self,
        instance: &Instance,
        flow: &FlowVec,
        delta: f64,
    ) -> f64 {
        weakly_unsatisfied_volume_from(
            instance,
            flow.values(),
            &self.path_latencies,
            &self.commodity_avg,
            delta,
        )
    }

    /// The virtual potential gain `V(f̂, f) = Σ_e ℓ_e(f̂_e) (f_e − f̂_e)`
    /// of moving from the snapshot `(f̂_e, ℓ_e(f̂_e))` to the *currently
    /// evaluated* flow (see [`crate::potential::virtual_gain`]).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot slices do not have one entry per edge.
    pub fn virtual_gain_from(&self, start_edge_flows: &[f64], start_edge_latencies: &[f64]) -> f64 {
        crate::potential::virtual_gain_from_edge(
            start_edge_flows,
            start_edge_latencies,
            &self.edge_flows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::equilibrium::{max_regret, unsatisfied_volume, weakly_unsatisfied_volume};
    use crate::potential::{potential, virtual_gain};

    fn assert_slices_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn fused_matches_naive_on_braess() {
        let inst = builders::braess();
        for f in [
            FlowVec::uniform(&inst),
            FlowVec::concentrated(&inst),
            FlowVec::from_values(&inst, vec![0.3, 0.6, 0.1]).unwrap(),
        ] {
            let mut ws = EvalWorkspace::new(&inst);
            ws.evaluate(&inst, &f);
            assert_slices_eq(ws.edge_flows(), &f.edge_flows(&inst));
            assert_slices_eq(ws.edge_latencies(), &f.edge_latencies(&inst));
            assert_slices_eq(ws.path_latencies(), &f.path_latencies(&inst));
            assert_slices_eq(
                ws.commodity_min_latencies(),
                &f.commodity_min_latencies(&inst),
            );
            assert_slices_eq(
                ws.commodity_avg_latencies(),
                &f.commodity_avg_latencies(&inst),
            );
            assert_eq!(ws.potential(), potential(&inst, &f));
            assert!((ws.avg_latency() - f.avg_latency(&inst)).abs() < 1e-15);
            assert_eq!(
                ws.max_regret(&inst, &f, 1e-12),
                max_regret(&inst, &f, 1e-12)
            );
            for d in [0.0, 0.05, 0.5] {
                assert_eq!(
                    ws.unsatisfied_volume(&inst, &f, d),
                    unsatisfied_volume(&inst, &f, d)
                );
                assert_eq!(
                    ws.weakly_unsatisfied_volume(&inst, &f, d),
                    weakly_unsatisfied_volume(&inst, &f, d)
                );
            }
        }
    }

    #[test]
    fn reevaluation_overwrites_stale_state() {
        let inst = builders::pigou();
        let mut ws = EvalWorkspace::new(&inst);
        let a = FlowVec::from_values(&inst, vec![1.0, 0.0]).unwrap();
        ws.evaluate(&inst, &a);
        let phi_a = ws.potential();
        let b = FlowVec::from_values(&inst, vec![0.0, 1.0]).unwrap();
        ws.evaluate(&inst, &b);
        assert_ne!(ws.potential(), phi_a);
        assert_eq!(ws.potential(), potential(&inst, &b));
        assert_slices_eq(ws.edge_flows(), &b.edge_flows(&inst));
    }

    #[test]
    fn virtual_gain_from_matches_naive() {
        let inst = builders::braess();
        let start = FlowVec::uniform(&inst);
        let end = FlowVec::concentrated(&inst);
        let mut ws = EvalWorkspace::new(&inst);
        ws.evaluate(&inst, &start);
        let fe_hat = ws.edge_flows().to_vec();
        let le_hat = ws.edge_latencies().to_vec();
        ws.evaluate(&inst, &end);
        assert_eq!(
            ws.virtual_gain_from(&fe_hat, &le_hat),
            virtual_gain(&inst, &start, &end)
        );
    }

    #[test]
    fn evaluate_edges_then_finish_matches_full_evaluation() {
        let inst = builders::multi_commodity_grid(3, 3, 11);
        let f = FlowVec::uniform(&inst);
        let mut full = EvalWorkspace::new(&inst);
        full.evaluate(&inst, &f);
        let mut split = EvalWorkspace::new(&inst);
        split.evaluate_edges(&inst, &f);
        // The edge-level quantities are already final…
        assert_slices_eq(split.edge_flows(), full.edge_flows());
        assert_slices_eq(split.edge_latencies(), full.edge_latencies());
        assert_eq!(split.potential(), full.potential());
        // …and the completed gather matches the fused pass exactly.
        split.finish_paths(&inst, &f);
        assert_slices_eq(split.path_latencies(), full.path_latencies());
        assert_slices_eq(
            split.commodity_min_latencies(),
            full.commodity_min_latencies(),
        );
        assert_slices_eq(
            split.commodity_avg_latencies(),
            full.commodity_avg_latencies(),
        );
        assert_eq!(split.avg_latency(), full.avg_latency());
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        // Large enough to clear the parallel gate (grid_8x8 has 48048
        // incidences).
        let inst = builders::grid_network(8, 8, 3);
        assert!(inst.incidence_count() >= super::PARALLEL_EVAL_MIN_INCIDENCES);
        let flows = [FlowVec::uniform(&inst), FlowVec::concentrated(&inst)];
        for lanes in [2usize, 3, 8] {
            let pool = wardrop_pool::WorkerPool::new(lanes);
            for f in &flows {
                let mut serial = EvalWorkspace::new(&inst);
                serial.evaluate(&inst, f);
                let mut par = EvalWorkspace::new(&inst);
                par.evaluate_with(&inst, f, Some(&pool));
                assert_slices_eq(par.edge_flows(), serial.edge_flows());
                assert_slices_eq(par.edge_latencies(), serial.edge_latencies());
                assert_slices_eq(par.path_latencies(), serial.path_latencies());
                assert_slices_eq(
                    par.commodity_min_latencies(),
                    serial.commodity_min_latencies(),
                );
                assert_slices_eq(
                    par.commodity_avg_latencies(),
                    serial.commodity_avg_latencies(),
                );
                assert_eq!(par.potential().to_bits(), serial.potential().to_bits());
                assert_eq!(par.avg_latency().to_bits(), serial.avg_latency().to_bits());
            }
        }
    }

    #[test]
    fn small_instances_bypass_the_pool() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        let pool = wardrop_pool::WorkerPool::new(2);
        let mut a = EvalWorkspace::new(&inst);
        a.evaluate_with(&inst, &f, Some(&pool));
        let mut b = EvalWorkspace::new(&inst);
        b.evaluate(&inst, &f);
        assert_slices_eq(a.path_latencies(), b.path_latencies());
        assert_eq!(a.potential(), b.potential());
    }

    #[test]
    fn multi_commodity_averages_match() {
        let inst = builders::multi_commodity_grid(3, 3, 11);
        let f = FlowVec::uniform(&inst);
        let mut ws = EvalWorkspace::new(&inst);
        ws.evaluate(&inst, &f);
        assert_slices_eq(
            ws.commodity_avg_latencies(),
            &f.commodity_avg_latencies(&inst),
        );
        assert!((ws.avg_latency() - f.avg_latency(&inst)).abs() < 1e-12);
    }
}
