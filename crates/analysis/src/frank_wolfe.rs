//! Frank–Wolfe (conditional gradient) minimisation over the flow
//! polytope.
//!
//! Two convex objectives matter for the paper:
//!
//! * the Beckmann–McGuire–Winsten **potential** `Φ(f)` — its minimisers
//!   are exactly the Wardrop equilibria, giving the ground-truth `Φ*`
//!   against which trajectories are measured;
//! * the **social cost** `C(f) = Σ_e f_e ℓ_e(f_e)` — its minimisers are
//!   the system optima, needed for price-of-anarchy numbers.
//!
//! Frank–Wolfe fits the path formulation perfectly: the linear
//! minimisation oracle puts each commodity's demand on the path with
//! the smallest gradient component (a "shortest path" under gradient
//! edge weights), and the duality gap `∇obj(f)·(f − s)` upper-bounds
//! the suboptimality, giving a certified stopping rule. Because the
//! plain FW step converges only at rate O(1/k), the solver takes
//! *pairwise* (path-equilibration) steps — shifting mass from the
//! costliest used path to the cheapest path of each commodity with
//! exact line search — which converge linearly in practice while the
//! FW gap still certifies optimality.

use serde::{Deserialize, Serialize};
use wardrop_net::flow::FlowVec;
use wardrop_net::instance::Instance;
use wardrop_net::potential::potential;

/// The convex objective to minimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// The Beckmann–McGuire–Winsten potential; minimisers are Wardrop
    /// equilibria.
    Potential,
    /// Total travel time `Σ_e f_e ℓ_e(f_e)`; minimisers are system
    /// optima.
    SocialCost,
}

impl Objective {
    /// Evaluates the objective at `flow`.
    pub fn eval(&self, instance: &Instance, flow: &FlowVec) -> f64 {
        match self {
            Objective::Potential => potential(instance, flow),
            Objective::SocialCost => {
                let fe = flow.edge_flows(instance);
                instance
                    .latencies()
                    .iter()
                    .zip(&fe)
                    .map(|(l, x)| x * l.eval(*x))
                    .sum()
            }
        }
    }

    /// Per-path gradient components at `flow`.
    ///
    /// * Potential: `∂Φ/∂f_P = ℓ_P(f)`.
    /// * Social cost: `∂C/∂f_P = Σ_{e ∈ P} (ℓ_e(f_e) + f_e ℓ'_e(f_e))`
    ///   (marginal-cost latencies).
    pub fn gradient(&self, instance: &Instance, flow: &FlowVec) -> Vec<f64> {
        let fe = flow.edge_flows(instance);
        let edge_grad: Vec<f64> = match self {
            Objective::Potential => instance
                .latencies()
                .iter()
                .zip(&fe)
                .map(|(l, x)| l.eval(*x))
                .collect(),
            Objective::SocialCost => instance
                .latencies()
                .iter()
                .zip(&fe)
                .map(|(l, x)| l.eval(*x) + x * l.derivative(*x))
                .collect(),
        };
        let rows = instance.path_edge_rows();
        (0..instance.num_paths())
            .map(|p| rows.row(p).iter().map(|e| edge_grad[e.index()]).sum())
            .collect()
    }
}

/// Configuration for the Frank–Wolfe solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrankWolfeConfig {
    /// Stop when the duality gap drops below this value.
    pub gap_tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Bisection steps for the exact line search.
    pub line_search_steps: usize,
}

impl Default for FrankWolfeConfig {
    fn default() -> Self {
        // Frank–Wolfe converges at rate O(1/k); a 1e-6 certified gap is
        // reachable in tens of thousands of iterations even for interior
        // optima and is far below the tolerances the experiments use.
        FrankWolfeConfig {
            gap_tolerance: 1e-6,
            max_iterations: 50_000,
            line_search_steps: 50,
        }
    }
}

/// Result of a Frank–Wolfe run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrankWolfeResult {
    /// The (approximately) optimal flow.
    pub flow: FlowVec,
    /// Objective value at `flow`.
    pub value: f64,
    /// Final duality gap (suboptimality certificate).
    pub gap: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Minimises `objective` over the feasible flows of `instance`.
///
/// Starts from the uniform flow. Deterministic.
///
/// # Examples
///
/// ```
/// use wardrop_net::builders;
/// use wardrop_analysis::frank_wolfe::{minimise, Objective, FrankWolfeConfig};
///
/// let inst = builders::pigou();
/// let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
/// // Pigou equilibrium: all flow on the ℓ(x) = x link, Φ* = ½.
/// assert!((eq.value - 0.5).abs() < 1e-6);
/// ```
pub fn minimise(
    instance: &Instance,
    objective: Objective,
    config: &FrankWolfeConfig,
) -> FrankWolfeResult {
    let mut flow = FlowVec::uniform(instance);
    let mut gap = f64::INFINITY;
    let mut iterations = 0;

    for it in 0..config.max_iterations {
        iterations = it + 1;
        let grad = objective.gradient(instance, &flow);

        // FW duality gap with the linear-oracle vertex s (all demand on
        // the best path per commodity): gap = ∇obj(f)·(f − s).
        gap = 0.0;
        let mut best_paths = Vec::with_capacity(instance.num_commodities());
        for (i, c) in instance.commodities().iter().enumerate() {
            let range = instance.commodity_paths(i);
            let best = range
                .clone()
                .min_by(|a, b| grad[*a].partial_cmp(&grad[*b]).expect("finite gradients"))
                .expect("commodities have paths");
            best_paths.push(best);
            for p in instance.commodity_paths(i) {
                gap += grad[p] * flow.values()[p];
            }
            gap -= grad[best] * c.demand;
        }
        if gap <= config.gap_tolerance {
            break;
        }

        // Pairwise (path-equilibration) step per commodity: shift mass
        // from the costliest *used* path to the best path, with exact
        // line search by bisection on the directional derivative. This
        // moves along polytope edges and avoids the O(1/k) zig-zagging
        // of the plain FW step, giving fast convergence to tight gaps.
        let mut moved = false;
        for (i, &best) in best_paths.iter().enumerate() {
            let grad = objective.gradient(instance, &flow);
            let worst = instance
                .commodity_paths(i)
                .filter(|p| flow.values()[*p] > 0.0)
                .max_by(|a, b| grad[*a].partial_cmp(&grad[*b]).expect("finite gradients"))
                .expect("demand is positive");
            if worst == best || grad[worst] - grad[best] <= 0.0 {
                continue;
            }
            let budget = flow.values()[worst];
            let dderiv = |t: f64| -> f64 {
                let mut probe = flow.values().to_vec();
                probe[worst] -= t;
                probe[best] += t;
                let g = objective.gradient(instance, &FlowVec::from_values_unchecked(probe));
                g[best] - g[worst]
            };
            let step = if dderiv(budget) <= 0.0 {
                budget
            } else {
                let (mut lo, mut hi) = (0.0, budget);
                for _ in 0..config.line_search_steps {
                    let mid = 0.5 * (lo + hi);
                    if dderiv(mid) <= 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            };
            if step > 0.0 {
                flow.values_mut()[worst] -= step;
                flow.values_mut()[best] += step;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    let value = objective.eval(instance, &flow);
    FrankWolfeResult {
        flow,
        value,
        gap,
        iterations,
    }
}

/// Convenience: the Wardrop-equilibrium potential `Φ*` of an instance.
pub fn optimal_potential(instance: &Instance) -> f64 {
    minimise(instance, Objective::Potential, &FrankWolfeConfig::default()).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use wardrop_net::builders;
    use wardrop_net::equilibrium::is_wardrop_equilibrium;

    #[test]
    fn pigou_equilibrium_and_optimum() {
        let inst = builders::pigou();
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        assert!(eq.gap <= 1e-9);
        assert!(is_wardrop_equilibrium(&inst, &eq.flow, 1e-4));
        assert!((eq.flow.values()[0] - 1.0).abs() < 1e-4);

        let opt = minimise(&inst, Objective::SocialCost, &FrankWolfeConfig::default());
        // Optimum: f₁ = ½ (marginal cost 2x = 1 = constant link).
        assert!((opt.flow.values()[0] - 0.5).abs() < 1e-4);
        assert!((opt.value - 0.75).abs() < 1e-6);
    }

    #[test]
    fn braess_equilibrium_uses_zigzag() {
        let inst = builders::braess();
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        assert!(is_wardrop_equilibrium(&inst, &eq.flow, 1e-4));
        // Equilibrium: all flow on s-a-b-t, cost 2.
        let cost = eq.flow.avg_latency(&inst);
        assert!((cost - 2.0).abs() < 1e-3, "avg latency {cost}");
    }

    #[test]
    fn braess_social_optimum_splits() {
        let inst = builders::braess();
        let opt = minimise(&inst, Objective::SocialCost, &FrankWolfeConfig::default());
        // Optimum ignores the chord and splits evenly: C = 1.5.
        assert!((opt.value - 1.5).abs() < 1e-4, "social cost {}", opt.value);
    }

    #[test]
    fn oscillator_equilibrium_is_half_half() {
        let inst = builders::two_link_oscillator(2.0);
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        // Φ* = 0, achieved on a plateau containing (½, ½).
        assert!(eq.value.abs() < 1e-9);
        assert!(eq.flow.values()[0] <= 0.5 + 1e-6);
        assert!(eq.flow.values()[1] <= 0.5 + 1e-6);
    }

    #[test]
    fn equilibrium_on_random_parallel_links() {
        let inst = builders::standard_random_links(6, 11);
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        assert!(eq.gap <= 1e-6);
        assert!(is_wardrop_equilibrium(&inst, &eq.flow, 1e-3));
    }

    #[test]
    fn equilibrium_on_grid() {
        let inst = builders::grid_network(3, 3, 5);
        let eq = minimise(&inst, Objective::Potential, &FrankWolfeConfig::default());
        assert!(is_wardrop_equilibrium(&inst, &eq.flow, 1e-3));
    }

    #[test]
    fn gap_certifies_suboptimality() {
        let inst = builders::braess();
        let loose = FrankWolfeConfig {
            gap_tolerance: 1e-2,
            ..FrankWolfeConfig::default()
        };
        let tight = FrankWolfeConfig::default();
        let a = minimise(&inst, Objective::Potential, &loose);
        let b = minimise(&inst, Objective::Potential, &tight);
        // By convexity: value(a) − value* ≤ gap(a).
        assert!(a.value - b.value <= a.gap + 1e-9);
        assert!(b.value <= a.value + 1e-12);
    }

    #[test]
    fn iteration_cap_respected() {
        let inst = builders::braess();
        let config = FrankWolfeConfig {
            gap_tolerance: 0.0,
            max_iterations: 5,
            line_search_steps: 30,
        };
        let r = minimise(&inst, Objective::Potential, &config);
        // The cap bounds the work; the solver may stop earlier if it
        // lands exactly on a vertex optimum (gap = 0).
        assert!(r.iterations <= 5);
    }

    #[test]
    fn optimal_potential_helper() {
        let inst = builders::pigou();
        assert!((optimal_potential(&inst) - 0.5).abs() < 1e-6);
    }
}
