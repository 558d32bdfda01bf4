//! Path-flow vectors over an instance.
//!
//! A [`FlowVec`] is the population state of the Wardrop game: `f_P` is
//! the fraction of agents (volume of flow) on path `P`. This module
//! provides feasibility checks, the induced edge flows and latencies,
//! and the per-commodity average latency `L_i` used by the weak
//! equilibrium notion of Theorem 7.

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::instance::Instance;
use crate::path::PathId;

/// Default feasibility tolerance for flow checks.
pub const FLOW_TOLERANCE: f64 = 1e-9;

/// A path-flow vector `f = (f_P)_{P ∈ P}` over a fixed instance.
///
/// The vector does not hold a reference to its instance; all derived
/// quantities take the instance as an argument. Lengths are checked.
///
/// # Examples
///
/// ```
/// use wardrop_net::builders;
/// use wardrop_net::flow::FlowVec;
///
/// let inst = builders::pigou();
/// let f = FlowVec::uniform(&inst);
/// assert!(f.is_feasible(&inst, 1e-9));
/// let lat = f.path_latencies(&inst);
/// assert_eq!(lat.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowVec {
    values: Vec<f64>,
}

impl FlowVec {
    /// Creates a flow vector from raw path values.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InfeasibleFlow`] if the length does not match
    /// `instance.num_paths()`, any entry is negative/non-finite, or a
    /// commodity's demand is not met within [`FLOW_TOLERANCE`].
    pub fn from_values(instance: &Instance, values: Vec<f64>) -> Result<Self, NetError> {
        let f = FlowVec { values };
        f.check_feasible(instance, FLOW_TOLERANCE)?;
        Ok(f)
    }

    /// Creates a flow vector without feasibility checks.
    ///
    /// Intended for integrators that maintain feasibility as an
    /// invariant; prefer [`FlowVec::from_values`] at API boundaries.
    pub fn from_values_unchecked(values: Vec<f64>) -> Self {
        FlowVec { values }
    }

    /// The uniform flow: every path of commodity `i` carries
    /// `r_i / |P_i|`.
    pub fn uniform(instance: &Instance) -> Self {
        let mut values = vec![0.0; instance.num_paths()];
        for (i, c) in instance.commodities().iter().enumerate() {
            let range = instance.commodity_paths(i);
            let share = c.demand / range.len() as f64;
            for v in &mut values[range] {
                *v = share;
            }
        }
        FlowVec { values }
    }

    /// Puts each commodity's entire demand on a single path
    /// (the first path of each commodity by default ordering).
    pub fn concentrated(instance: &Instance) -> Self {
        let mut values = vec![0.0; instance.num_paths()];
        for (i, c) in instance.commodities().iter().enumerate() {
            let range = instance.commodity_paths(i);
            values[range.start] = c.demand;
        }
        FlowVec { values }
    }

    /// Number of path entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Flow on path `p`.
    #[inline]
    pub fn get(&self, p: PathId) -> f64 {
        self.values[p.index()]
    }

    /// Raw values, path-indexed.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values. Callers must preserve feasibility.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Inserts a zero-flow entry at `p`, following
    /// [`Instance::push_path`] (which admitted a path at index `p`).
    /// Feasibility is preserved: the new path carries no flow.
    ///
    /// # Panics
    ///
    /// Panics if `p > len()`.
    pub fn insert_unused(&mut self, p: PathId) {
        self.values.insert(p.index(), 0.0);
    }

    /// Consumes the vector, returning the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Checks feasibility, returning a detailed error.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InfeasibleFlow`] describing the violation.
    pub fn check_feasible(&self, instance: &Instance, tol: f64) -> Result<(), NetError> {
        if self.values.len() != instance.num_paths() {
            return Err(NetError::InfeasibleFlow(format!(
                "flow has {} entries for {} paths",
                self.values.len(),
                instance.num_paths()
            )));
        }
        for (i, v) in self.values.iter().enumerate() {
            if !v.is_finite() || *v < -tol {
                return Err(NetError::InfeasibleFlow(format!(
                    "path {i} carries invalid flow {v}"
                )));
            }
        }
        for (i, c) in instance.commodities().iter().enumerate() {
            let total: f64 = self.values[instance.commodity_paths(i)].iter().sum();
            if (total - c.demand).abs() > tol.max(1e-12 * c.demand) {
                return Err(NetError::InfeasibleFlow(format!(
                    "commodity {i} routes {total}, demand is {}",
                    c.demand
                )));
            }
        }
        Ok(())
    }

    /// Returns true if the flow is feasible within `tol`.
    pub fn is_feasible(&self, instance: &Instance, tol: f64) -> bool {
        self.check_feasible(instance, tol).is_ok()
    }

    /// Induced edge flows `f_e = Σ_{P ∋ e} f_P`.
    pub fn edge_flows(&self, instance: &Instance) -> Vec<f64> {
        let mut fe = vec![0.0; instance.num_edges()];
        self.edge_flows_into(instance, &mut fe);
        fe
    }

    /// Writes the induced edge flows into `out` (allocation-free; `out`
    /// is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != instance.num_edges()` or the flow length
    /// does not match the instance.
    pub fn edge_flows_into(&self, instance: &Instance, out: &mut [f64]) {
        assert_eq!(out.len(), instance.num_edges());
        assert_eq!(self.values.len(), instance.num_paths());
        out.fill(0.0);
        let path_edges = instance.path_edge_rows();
        for (idx, &fp) in self.values.iter().enumerate() {
            if fp == 0.0 {
                continue;
            }
            for e in path_edges.row(idx) {
                out[e.index()] += fp;
            }
        }
    }

    /// Edge latencies `ℓ_e(f_e)` under this flow.
    pub fn edge_latencies(&self, instance: &Instance) -> Vec<f64> {
        let fe = self.edge_flows(instance);
        instance
            .latencies()
            .iter()
            .zip(&fe)
            .map(|(l, x)| l.eval(*x))
            .collect()
    }

    /// Path latencies `ℓ_P(f) = Σ_{e ∈ P} ℓ_e(f_e)`.
    pub fn path_latencies(&self, instance: &Instance) -> Vec<f64> {
        let le = self.edge_latencies(instance);
        path_latencies_from_edge(instance, &le)
    }

    /// Per-commodity average latency `L_i = Σ_P (f_P / r_i) ℓ_P`.
    pub fn commodity_avg_latencies(&self, instance: &Instance) -> Vec<f64> {
        let lp = self.path_latencies(instance);
        instance
            .commodities()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let range = instance.commodity_paths(i);
                let s: f64 = range.clone().map(|p| self.values[p] * lp[p]).sum();
                s / c.demand
            })
            .collect()
    }

    /// Overall average latency `L = Σ_P f_P ℓ_P`.
    pub fn avg_latency(&self, instance: &Instance) -> f64 {
        let lp = self.path_latencies(instance);
        self.values.iter().zip(&lp).map(|(f, l)| f * l).sum()
    }

    /// Per-commodity minimum path latency `ℓ^i_min`.
    pub fn commodity_min_latencies(&self, instance: &Instance) -> Vec<f64> {
        let lp = self.path_latencies(instance);
        (0..instance.num_commodities())
            .map(|i| {
                instance
                    .commodity_paths(i)
                    .map(|p| lp[p])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Maximum latency over paths actually carrying flow (> `tol`).
    pub fn max_used_latency(&self, instance: &Instance, tol: f64) -> f64 {
        let lp = self.path_latencies(instance);
        self.values
            .iter()
            .zip(&lp)
            .filter(|(f, _)| **f > tol)
            .map(|(_, l)| *l)
            .fold(0.0, f64::max)
    }

    /// L∞ distance to another flow vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn linf_distance(&self, other: &FlowVec) -> f64 {
        assert_eq!(self.values.len(), other.values.len());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// L1 distance to another flow vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn l1_distance(&self, other: &FlowVec) -> f64 {
        assert_eq!(self.values.len(), other.values.len());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Clamps tiny negative entries (from floating-point integration) to
    /// zero and renormalises each commodity to its demand.
    ///
    /// Integrators call this after every phase so error never
    /// accumulates into infeasibility.
    pub fn renormalise(&mut self, instance: &Instance) {
        for v in &mut self.values {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        for (i, c) in instance.commodities().iter().enumerate() {
            let range = instance.commodity_paths(i);
            let total: f64 = self.values[range.clone()].iter().sum();
            if total > 0.0 {
                let scale = c.demand / total;
                for v in &mut self.values[range] {
                    *v *= scale;
                }
            } else {
                // Degenerate: all mass vanished numerically; reset uniform.
                let share = c.demand / range.len() as f64;
                for v in &mut self.values[range] {
                    *v = share;
                }
            }
        }
    }
}

/// Computes path latencies from precomputed edge latencies.
///
/// Exposed separately because the bulletin board stores *stale* edge
/// latencies and needs the same aggregation.
pub fn path_latencies_from_edge(instance: &Instance, edge_latencies: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; instance.num_paths()];
    path_latencies_from_edge_into(instance, edge_latencies, &mut out);
    out
}

/// Allocation-free variant of [`path_latencies_from_edge`]: writes the
/// path latencies into `out` using the instance's CSR incidence.
///
/// # Panics
///
/// Panics if slice lengths do not match the instance.
pub fn path_latencies_from_edge_into(instance: &Instance, edge_latencies: &[f64], out: &mut [f64]) {
    assert_eq!(edge_latencies.len(), instance.num_edges());
    assert_eq!(out.len(), instance.num_paths());
    let path_edges = instance.path_edge_rows();
    for (idx, o) in out.iter_mut().enumerate() {
        *o = path_edges
            .row(idx)
            .iter()
            .map(|e| edge_latencies[e.index()])
            .sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn uniform_flow_is_feasible() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        assert!(f.is_feasible(&inst, 1e-12));
    }

    #[test]
    fn concentrated_flow_is_feasible() {
        let inst = builders::braess();
        let f = FlowVec::concentrated(&inst);
        assert!(f.is_feasible(&inst, 1e-12));
        assert_eq!(f.values().iter().filter(|v| **v > 0.0).count(), 1);
    }

    #[test]
    fn from_values_validates_length() {
        let inst = builders::pigou();
        assert!(FlowVec::from_values(&inst, vec![1.0]).is_err());
    }

    #[test]
    fn from_values_validates_demand() {
        let inst = builders::pigou();
        assert!(FlowVec::from_values(&inst, vec![0.3, 0.3]).is_err());
        assert!(FlowVec::from_values(&inst, vec![0.3, 0.7]).is_ok());
    }

    #[test]
    fn from_values_rejects_negative_and_nan() {
        let inst = builders::pigou();
        assert!(FlowVec::from_values(&inst, vec![-0.1, 1.1]).is_err());
        assert!(FlowVec::from_values(&inst, vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn pigou_edge_flows_and_latencies() {
        // Pigou: edge 0 has ℓ(x) = x, edge 1 has ℓ(x) = 1.
        let inst = builders::pigou();
        let f = FlowVec::from_values(&inst, vec![0.25, 0.75]).unwrap();
        let fe = f.edge_flows(&inst);
        assert_eq!(fe, vec![0.25, 0.75]);
        let le = f.edge_latencies(&inst);
        assert!((le[0] - 0.25).abs() < 1e-12);
        assert!((le[1] - 1.0).abs() < 1e-12);
        let lp = f.path_latencies(&inst);
        assert_eq!(lp.len(), 2);
        assert!((lp[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn braess_edge_flows_aggregate_paths() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        let fe = f.edge_flows(&inst);
        // Total edge flow = Σ_P f_P |P|; Braess has 2 paths of length 2
        // and one (the zig-zag) of length 3.
        let total: f64 = fe.iter().sum();
        let expected: f64 = inst
            .path_ids()
            .zip(f.values())
            .map(|(p, v)| v * inst.path_edges(p).len() as f64)
            .sum();
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn avg_latency_matches_weighted_sum() {
        let inst = builders::pigou();
        let f = FlowVec::from_values(&inst, vec![0.5, 0.5]).unwrap();
        // L = 0.5·0.5 + 0.5·1 = 0.75
        assert!((f.avg_latency(&inst) - 0.75).abs() < 1e-12);
        let li = f.commodity_avg_latencies(&inst);
        assert!((li[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_latency_per_commodity() {
        let inst = builders::pigou();
        let f = FlowVec::from_values(&inst, vec![0.25, 0.75]).unwrap();
        let mins = f.commodity_min_latencies(&inst);
        assert!((mins[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_used_latency_ignores_unused_paths() {
        let inst = builders::pigou();
        let f = FlowVec::from_values(&inst, vec![1.0, 0.0]).unwrap();
        // Only path 0 (ℓ = x) is used: latency 1. Path 1 (ℓ = 1) unused.
        assert!((f.max_used_latency(&inst, 1e-12) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        let inst = builders::pigou();
        let a = FlowVec::from_values(&inst, vec![0.5, 0.5]).unwrap();
        let b = FlowVec::from_values(&inst, vec![0.25, 0.75]).unwrap();
        assert!((a.linf_distance(&b) - 0.25).abs() < 1e-12);
        assert!((a.l1_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renormalise_restores_feasibility() {
        let inst = builders::pigou();
        let mut f = FlowVec::from_values_unchecked(vec![-1e-12, 1.0]);
        f.renormalise(&inst);
        assert!(f.is_feasible(&inst, 1e-9));
        assert!(f.values().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn renormalise_handles_vanished_mass() {
        let inst = builders::pigou();
        let mut f = FlowVec::from_values_unchecked(vec![0.0, 0.0]);
        f.renormalise(&inst);
        assert!(f.is_feasible(&inst, 1e-9));
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        let mut fe = vec![1.0; inst.num_edges()]; // stale contents overwritten
        f.edge_flows_into(&inst, &mut fe);
        assert_eq!(fe, f.edge_flows(&inst));
        let le = f.edge_latencies(&inst);
        let mut lp = vec![0.0; inst.num_paths()];
        path_latencies_from_edge_into(&inst, &le, &mut lp);
        assert_eq!(lp, f.path_latencies(&inst));
    }

    #[test]
    fn path_latencies_from_edge_matches_flow_version() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        let le = f.edge_latencies(&inst);
        assert_eq!(
            f.path_latencies(&inst),
            path_latencies_from_edge(&inst, &le)
        );
    }
}
