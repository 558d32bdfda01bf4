//! Integrators for the within-phase linear ODE `ḟ = A f`.
//!
//! Within one bulletin-board phase the migration rates are frozen, so
//! the fluid-limit dynamics (paper Eq. (3)) is a *linear* ODE whose
//! matrix is a CTMC generator (block-diagonal per commodity, exit rates
//! ≤ 1). Three integrators are provided:
//!
//! * [`Integrator::Euler`] — explicit Euler, the textbook baseline;
//! * [`Integrator::Rk4`] — classical 4th-order Runge–Kutta;
//! * [`Integrator::Uniformization`] — *exact* evaluation of
//!   `exp(τA) f` via the uniformization series
//!   `e^{−Λτ} Σ_k (Λτ)^k / k! · M^k f` with `M = I + A/Λ`. Because exit
//!   rates never exceed 1, `Λ = max_P Σ_Q c_PQ ≤ 1` makes `M`
//!   (sub)stochastic, so the series is numerically stable and the
//!   truncation error is bounded by the Poisson tail. This gives
//!   machine-precision phase transitions at modest cost and is the
//!   default for experiments.
//!
//! All three run in the rates' [sorted layout](crate::policy#sorted-layout):
//! the flow is gathered into layout order once at phase start, every
//! generator product is one front-to-back sweep over contiguous
//! arrays, and the result is scattered back once at phase end. A
//! uniformization term is a single fused pass — the sweep writes
//! `M v` into a second buffer and adds its weighted copy to the running
//! sum as it goes; Euler and RK4 store `A v` and update their stages
//! element-wise. Every float operation is the one the natural-order
//! formulation performs, in the same order, so the layout changes no
//! bit of the result.

use serde::{Deserialize, Serialize};

use crate::policy::{Epilogue, PhaseRates};
use wardrop_pool::WorkerPool;

/// Integration scheme for one phase of length `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Integrator {
    /// Explicit Euler with fixed step `dt` (the last step is shortened
    /// to land exactly on the phase end).
    Euler {
        /// Step size; must be positive.
        dt: f64,
    },
    /// Classical RK4 with fixed step `dt`.
    Rk4 {
        /// Step size; must be positive.
        dt: f64,
    },
    /// Exact `exp(τA) f` via uniformization, truncated when the Poisson
    /// tail mass drops below `tol`.
    Uniformization {
        /// Series truncation tolerance (e.g. `1e-12`).
        tol: f64,
    },
}

impl Default for Integrator {
    fn default() -> Self {
        Integrator::Uniformization { tol: 1e-12 }
    }
}

/// Reusable integration buffers, so stepping a phase allocates nothing.
///
/// All vectors are in the rates' layout order. Each phase sizes only
/// the buffers its scheme reads (Euler: `state`, `next`;
/// uniformization: also `acc`; RK4: all four), and buffers are retained
/// across phases; a scratch can be shared between integrator variants.
#[derive(Debug, Clone, Default)]
pub struct IntegratorScratch {
    /// The state: `f` (Euler, RK4) or the current `M^k f`
    /// (uniformization).
    state: Vec<f64>,
    /// Sweep output: `A v` (Euler, RK4) or the next `M^k f`.
    next: Vec<f64>,
    /// Running sum: the Poisson-weighted series (uniformization) or
    /// the RK4 slope combination.
    acc: Vec<f64>,
    /// The RK4 stage input.
    tmp: Vec<f64>,
}

impl IntegratorScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch with the buffers of the default scheme
    /// (uniformization) pre-sized for `n` paths, so its first phase
    /// allocates nothing. The RK4 stage buffer grows on the first RK4
    /// phase.
    pub fn for_len(n: usize) -> Self {
        let mut s = Self::default();
        s.resize(n, &Integrator::default());
        s
    }

    /// Sizes the buffers `scheme` reads to `n`; the others are left
    /// alone, so a scheme never zeroes memory it does not use.
    fn resize(&mut self, n: usize, scheme: &Integrator) {
        self.state.resize(n, 0.0);
        self.next.resize(n, 0.0);
        if !matches!(scheme, Integrator::Euler { .. }) {
            self.acc.resize(n, 0.0);
        }
        if matches!(scheme, Integrator::Rk4 { .. }) {
            self.tmp.resize(n, 0.0);
        }
    }
}

impl Integrator {
    /// Advances `f` by `tau` time units under the frozen rates.
    ///
    /// Allocates fresh work buffers; the phase loop uses
    /// [`Integrator::advance_with`] with a reusable scratch instead.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is negative/non-finite or the scheme parameters
    /// are invalid (`dt ≤ 0`, `tol ≤ 0`).
    pub fn advance(&self, rates: &PhaseRates, f: &mut [f64], tau: f64) {
        let mut scratch = IntegratorScratch::new();
        self.advance_with(rates, f, tau, &mut scratch);
    }

    /// Advances `f` by `tau` time units under the frozen rates, using
    /// caller-owned buffers (allocation-free once `scratch` has grown
    /// to the path count).
    ///
    /// # Panics
    ///
    /// As [`Integrator::advance`].
    pub fn advance_with(
        &self,
        rates: &PhaseRates,
        f: &mut [f64],
        tau: f64,
        scratch: &mut IntegratorScratch,
    ) {
        self.advance_pooled(rates, f, tau, scratch, None);
    }

    /// [`Integrator::advance_with`], optionally fanning every generator
    /// sweep across a [`WorkerPool`] one commodity block per part —
    /// bit-identical to the serial integration for every lane count
    /// (blocks never interact, the element-wise epilogues are
    /// order-free, and the scalar recurrences — Poisson weights, step
    /// bookkeeping — stay on the dispatching thread).
    ///
    /// # Panics
    ///
    /// As [`Integrator::advance`].
    pub fn advance_pooled(
        &self,
        rates: &PhaseRates,
        f: &mut [f64],
        tau: f64,
        scratch: &mut IntegratorScratch,
        pool: Option<&WorkerPool>,
    ) {
        assert!(tau.is_finite() && tau >= 0.0, "phase length must be ≥ 0");
        if tau == 0.0 {
            return;
        }
        scratch.resize(f.len(), self);
        match *self {
            Integrator::Euler { dt } => {
                assert!(dt > 0.0, "Euler step must be positive");
                euler(rates, f, tau, dt, scratch, pool);
            }
            Integrator::Rk4 { dt } => {
                assert!(dt > 0.0, "RK4 step must be positive");
                rk4(rates, f, tau, dt, scratch, pool);
            }
            Integrator::Uniformization { tol } => {
                assert!(tol > 0.0, "uniformization tolerance must be positive");
                uniformization(rates, f, tau, tol, scratch, pool);
            }
        }
    }

    /// A short identifier for reports.
    pub fn name(&self) -> String {
        match self {
            Integrator::Euler { dt } => format!("euler(dt={dt})"),
            Integrator::Rk4 { dt } => format!("rk4(dt={dt})"),
            Integrator::Uniformization { tol } => format!("uniformization(tol={tol})"),
        }
    }
}

fn euler(
    rates: &PhaseRates,
    f: &mut [f64],
    tau: f64,
    dt: f64,
    scratch: &mut IntegratorScratch,
    pool: Option<&WorkerPool>,
) {
    let IntegratorScratch {
        state: x,
        next: deriv,
        ..
    } = scratch;
    rates.gather(f, x);
    let mut remaining = tau;
    while remaining > 1e-15 {
        let h = dt.min(remaining);
        rates.sweep(x, deriv, &mut [], Epilogue::Store, pool);
        for (xi, d) in x.iter_mut().zip(deriv.iter()) {
            *xi += h * d;
        }
        remaining -= h;
    }
    rates.scatter(x, f);
}

/// Classical RK4. The slope combination `k1 + 2k2 + 2k3` is
/// accumulated stage by stage, left to right — the association order
/// of the textbook one-line update — so only one stage output is live
/// at a time.
fn rk4(
    rates: &PhaseRates,
    f: &mut [f64],
    tau: f64,
    dt: f64,
    scratch: &mut IntegratorScratch,
    pool: Option<&WorkerPool>,
) {
    let IntegratorScratch {
        state: x,
        next: k,
        acc: slope,
        tmp,
    } = scratch;
    rates.gather(f, x);
    let mut remaining = tau;
    while remaining > 1e-15 {
        let h = dt.min(remaining);
        rates.sweep(x, slope, &mut [], Epilogue::Store, pool);
        for ((t, xi), k1) in tmp.iter_mut().zip(x.iter()).zip(slope.iter()) {
            *t = xi + 0.5 * h * k1;
        }
        rates.sweep(tmp, k, &mut [], Epilogue::Store, pool);
        for (((t, s), xi), k2) in tmp
            .iter_mut()
            .zip(slope.iter_mut())
            .zip(x.iter())
            .zip(k.iter())
        {
            *t = xi + 0.5 * h * k2;
            *s += 2.0 * k2;
        }
        rates.sweep(tmp, k, &mut [], Epilogue::Store, pool);
        for (((t, s), xi), k3) in tmp
            .iter_mut()
            .zip(slope.iter_mut())
            .zip(x.iter())
            .zip(k.iter())
        {
            *t = xi + h * k3;
            *s += 2.0 * k3;
        }
        rates.sweep(tmp, k, &mut [], Epilogue::Store, pool);
        for ((xi, s), k4) in x.iter_mut().zip(slope.iter()).zip(k.iter()) {
            *xi += h / 6.0 * (s + k4);
        }
        remaining -= h;
    }
    rates.scatter(x, f);
}

/// Exact `exp(τA) f` by uniformization.
///
/// With Λ bounding every exit rate, `M = I + A/Λ` has non-negative
/// entries and row sums ≤ 1 interpreted as a DTMC on paths, and
/// `exp(τA) = Σ_k Poisson_{Λτ}(k) M^k`. The iteration keeps a running
/// Poisson weight in log-safe form to avoid overflow for large `Λτ`.
fn uniformization(
    rates: &PhaseRates,
    f: &mut [f64],
    tau: f64,
    tol: f64,
    scratch: &mut IntegratorScratch,
    pool: Option<&WorkerPool>,
) {
    // Λ is tracked during the rate fill (for matrix-free blocks it
    // falls out of the sorted-extreme sweep), so this is O(commodities).
    let lambda = rates.max_exit_rate();
    if lambda <= 0.0 {
        return; // A = 0: nothing moves.
    }
    let lt = lambda * tau;
    // v_k = M^k f, accumulated with Poisson(Λτ) weights.
    let IntegratorScratch {
        state: v,
        next,
        acc: out,
        ..
    } = scratch;
    rates.gather(f, v);
    let mut weight = (-lt).exp(); // Poisson pmf at k = 0
    let mut cumulative = weight;
    for (o, vi) in out.iter_mut().zip(v.iter()) {
        *o = weight * vi;
    }
    // Cap iterations defensively: mean Λτ, tail needs ~Λτ + 40√Λτ terms.
    let max_k = (lt + 40.0 * lt.sqrt() + 64.0).ceil() as usize;
    for k in 1..=max_k {
        // v ← M v = v + (A v)/Λ and out += weight · v, in one pass.
        weight *= lt / k as f64;
        let epilogue = Epilogue::Uniformize { lambda, weight };
        rates.sweep(v, next, out, epilogue, pool);
        std::mem::swap(v, next);
        cumulative += weight;
        if 1.0 - cumulative < tol && k as f64 > lt {
            break;
        }
    }
    rates.scatter(out, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::BulletinBoard;
    use crate::policy::{uniform_linear, ReroutingPolicy};
    use wardrop_net::builders;
    use wardrop_net::flow::FlowVec;

    /// The natural-order formulation the layout integrators replaced,
    /// frozen as the bit-identity reference: the two-pointer apply
    /// gathering through the latency order on every product, a dense
    /// row-major stream, and the textbook scheme loops.
    mod reference {
        use crate::kernel::SeparableKernel;
        use crate::policy::{CommodityRates, PhaseRates};

        fn recip_or_zero(l: f64) -> f64 {
            if l > 0.0 {
                1.0 / l
            } else {
                0.0
            }
        }

        fn apply_block(b: &CommodityRates, kernel: SeparableKernel, f: &[f64], out: &mut [f64]) {
            let (order, weights, latencies, exit) = b.natural_factors();
            let n = order.len();
            let x = |p: usize| match kernel {
                SeparableKernel::RelativeSlack => f[p] * recip_or_zero(latencies[p]),
                _ => f[p] * latencies[p],
            };
            let mut suf_f = 0.0;
            let mut suf_fx = 0.0;
            for &p in &order {
                suf_f += f[p as usize];
                suf_fx += x(p as usize);
            }
            let (mut k_gt, mut k_cl) = (0usize, 0usize);
            let mut suf_f_cl = suf_f;
            let mut suf_fl_cl = suf_fx;
            for &q in &order {
                let q = q as usize;
                let lq = latencies[q];
                while k_gt < n {
                    let p = order[k_gt] as usize;
                    if latencies[p] > lq {
                        break;
                    }
                    suf_f -= f[p];
                    suf_fx -= x(p);
                    k_gt += 1;
                }
                let inflow = match kernel {
                    SeparableKernel::Indicator => suf_f,
                    SeparableKernel::ClampedLinear { alpha } => {
                        let saturation = lq + 1.0 / alpha;
                        while k_cl < n {
                            let p = order[k_cl] as usize;
                            if latencies[p] >= saturation {
                                break;
                            }
                            suf_f_cl -= f[p];
                            suf_fl_cl -= f[p] * latencies[p];
                            k_cl += 1;
                        }
                        alpha * ((suf_fx - suf_fl_cl) - lq * (suf_f - suf_f_cl)) + suf_f_cl
                    }
                    SeparableKernel::RelativeSlack => suf_f - lq * suf_fx,
                };
                out[q] = weights[q] * inflow.max(0.0) - f[q] * exit[q];
            }
        }

        pub(super) fn apply(rates: &PhaseRates, f: &[f64], out: &mut [f64]) {
            for b in rates.blocks() {
                let r = b.start()..b.start() + b.len();
                let (fs, os) = (&f[r.clone()], &mut out[r]);
                match b.kernel() {
                    Some(k) => apply_block(b, k, fs, os),
                    None => {
                        // Dense (a zero block answers 0 everywhere).
                        for (q, o) in os.iter_mut().enumerate() {
                            *o = -fs[q] * b.exit_rate(q);
                        }
                        for (p, &fp) in fs.iter().enumerate() {
                            if fp == 0.0 {
                                continue;
                            }
                            for (q, o) in os.iter_mut().enumerate() {
                                *o += fp * b.rate(p, q);
                            }
                        }
                    }
                }
            }
        }

        pub(super) fn euler(rates: &PhaseRates, f: &mut [f64], tau: f64, dt: f64) {
            let mut deriv = vec![0.0; f.len()];
            let mut remaining = tau;
            while remaining > 1e-15 {
                let h = dt.min(remaining);
                apply(rates, f, &mut deriv);
                for i in 0..f.len() {
                    f[i] += h * deriv[i];
                }
                remaining -= h;
            }
        }

        pub(super) fn rk4(rates: &PhaseRates, f: &mut [f64], tau: f64, dt: f64) {
            let n = f.len();
            let (mut k1, mut k2, mut k3, mut k4) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut tmp = vec![0.0; n];
            let mut remaining = tau;
            while remaining > 1e-15 {
                let h = dt.min(remaining);
                apply(rates, f, &mut k1);
                for i in 0..n {
                    tmp[i] = f[i] + 0.5 * h * k1[i];
                }
                apply(rates, &tmp, &mut k2);
                for i in 0..n {
                    tmp[i] = f[i] + 0.5 * h * k2[i];
                }
                apply(rates, &tmp, &mut k3);
                for i in 0..n {
                    tmp[i] = f[i] + h * k3[i];
                }
                apply(rates, &tmp, &mut k4);
                for i in 0..n {
                    f[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                }
                remaining -= h;
            }
        }

        pub(super) fn uniformization(rates: &PhaseRates, f: &mut [f64], tau: f64, tol: f64) {
            let lambda = rates.max_exit_rate();
            if lambda <= 0.0 {
                return;
            }
            let lt = lambda * tau;
            let mut v = f.to_vec();
            let mut av = vec![0.0; f.len()];
            let mut weight = (-lt).exp();
            let mut cumulative = weight;
            let mut out: Vec<f64> = v.iter().map(|vi| weight * vi).collect();
            let max_k = (lt + 40.0 * lt.sqrt() + 64.0).ceil() as usize;
            for k in 1..=max_k {
                apply(rates, &v, &mut av);
                weight *= lt / k as f64;
                for (vi, a) in v.iter_mut().zip(&av) {
                    *vi += a / lambda;
                }
                for (o, vi) in out.iter_mut().zip(&v) {
                    *o += weight * vi;
                }
                cumulative += weight;
                if 1.0 - cumulative < tol && k as f64 > lt {
                    break;
                }
            }
            f.copy_from_slice(&out);
        }
    }

    /// Runs every scheme in sorted layout (serially and on each pool)
    /// and asserts the result equals the natural-order reference bit
    /// for bit, for the flow `f0` under `rates`.
    fn assert_layout_matches_reference(
        label: &str,
        rates: &PhaseRates,
        f0: &[f64],
        pools: &[Option<&WorkerPool>],
    ) {
        let tau = 1.0;
        let schemes = [
            Integrator::Uniformization { tol: 1e-12 },
            Integrator::Euler { dt: 0.15 },
            Integrator::Rk4 { dt: 0.3 },
        ];
        let wants = schemes.map(|integ| {
            let mut want = f0.to_vec();
            match integ {
                Integrator::Euler { dt } => reference::euler(rates, &mut want, tau, dt),
                Integrator::Rk4 { dt } => reference::rk4(rates, &mut want, tau, dt),
                Integrator::Uniformization { tol } => {
                    reference::uniformization(rates, &mut want, tau, tol)
                }
            }
            want
        });
        // One scratch shared by every scheme, lane count and pass (as
        // the engine's workspace is across rebinds): no state may leak
        // from one phase into the next, whichever scheme ran it.
        let mut scratch = IntegratorScratch::new();
        for &pool in pools {
            for pass in 0..2 {
                for (integ, want) in schemes.iter().zip(&wants) {
                    let mut got = f0.to_vec();
                    integ.advance_pooled(rates, &mut got, tau, &mut scratch, pool);
                    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{label} {} lanes={:?} pass {pass}: f[{i}] {x} vs {y}",
                            integ.name(),
                            pool.map(|p| p.lanes())
                        );
                    }
                }
            }
        }
    }

    /// The layout integrators are bit-identical to the natural-order
    /// formulation: every stock policy, ties (Braess at uniform flow),
    /// many commodities, a dense custom rule, and pooled sweeps that
    /// fan out across blocks.
    #[test]
    fn layout_integration_matches_natural_order_reference() {
        use crate::migration::{Linear, MigrationRule};
        use crate::policy::{stock_policy_zoo, SmoothPolicy};
        use crate::sampling::Proportional;

        let serial: &[Option<&WorkerPool>] = &[None];
        let instances = [
            ("braess", builders::braess()),
            ("grid_4x4", builders::grid_network(4, 4, 7)),
            (
                "many_commodity_4x5x3",
                builders::many_commodity_grid(4, 5, 3, 5),
            ),
        ];
        for (name, inst) in &instances {
            let lmax = inst.latency_upper_bound();
            for f in [FlowVec::uniform(inst), FlowVec::concentrated(inst)] {
                let board = BulletinBoard::post(inst, &f, 0.0);
                for policy in stock_policy_zoo(lmax) {
                    let rates = policy.phase_rates(inst, &board);
                    let label = format!("{name}/{}", policy.name());
                    assert_layout_matches_reference(&label, &rates, f.values(), serial);
                }
            }
        }

        // A rule without a kernel runs on dense blocks.
        #[derive(Debug, Clone, Copy)]
        struct Opaque(Linear);
        impl MigrationRule for Opaque {
            fn probability(&self, l_from: f64, l_to: f64) -> f64 {
                self.0.probability(l_from, l_to)
            }
            fn smoothness(&self) -> Option<f64> {
                self.0.smoothness()
            }
            fn name(&self) -> String {
                "opaque".to_string()
            }
        }
        let inst = builders::multi_commodity_grid(3, 3, 5);
        let f = FlowVec::uniform(&inst);
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let dense = SmoothPolicy::new(
            Proportional,
            Opaque(Linear::new(inst.latency_upper_bound())),
        );
        let rates = dense.phase_rates(&inst, &board);
        assert!(!rates.is_matrix_free());
        assert_layout_matches_reference("dense", &rates, f.values(), serial);

        // Pooled: block-level fan-out.
        let (two, four) = (WorkerPool::new(2), WorkerPool::new(4));
        let pools: &[Option<&WorkerPool>] = &[None, Some(&two), Some(&four)];
        let inst = builders::many_commodity_grid(8, 8, 6, 7);
        let f = FlowVec::concentrated(&inst);
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let rates = uniform_linear(&inst).phase_rates(&inst, &board);
        assert_layout_matches_reference("many_commodity_8x8x6", &rates, f.values(), pools);
    }

    /// Two-path rates with a single transition 1 → 0 at rate `r` admit
    /// the closed form f₁(τ) = f₁(0) e^{−rτ}.
    fn single_rate_setup(r_expected: f64) -> (wardrop_net::Instance, PhaseRates, Vec<f64>) {
        let inst = builders::pigou();
        let f = FlowVec::from_values(&inst, vec![0.2, 0.8]).unwrap();
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let rates = uniform_linear(&inst).phase_rates(&inst, &board);
        assert!((rates.blocks()[0].rate(1, 0) - r_expected).abs() < 1e-12);
        (inst, rates, f.values().to_vec())
    }

    #[test]
    fn uniformization_matches_closed_form() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let tau = 2.0_f64;
        let mut f = f0.clone();
        Integrator::Uniformization { tol: 1e-14 }.advance(&rates, &mut f, tau);
        let expected1 = 0.8 * (-0.4 * tau).exp();
        assert!(
            (f[1] - expected1).abs() < 1e-12,
            "got {}, want {expected1}",
            f[1]
        );
        assert!((f[0] + f[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rk4_matches_closed_form() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let tau = 2.0_f64;
        let mut f = f0.clone();
        Integrator::Rk4 { dt: 0.01 }.advance(&rates, &mut f, tau);
        let expected1 = 0.8 * (-0.4 * tau).exp();
        assert!((f[1] - expected1).abs() < 1e-9);
    }

    #[test]
    fn euler_converges_with_step() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let tau = 2.0_f64;
        let expected1 = 0.8 * (-0.4 * tau).exp();
        let mut coarse = f0.clone();
        Integrator::Euler { dt: 0.1 }.advance(&rates, &mut coarse, tau);
        let mut fine = f0.clone();
        Integrator::Euler { dt: 0.001 }.advance(&rates, &mut fine, tau);
        assert!((fine[1] - expected1).abs() < (coarse[1] - expected1).abs());
        assert!((fine[1] - expected1).abs() < 1e-3);
    }

    #[test]
    fn integrators_agree_on_braess() {
        let inst = builders::braess();
        let f = FlowVec::uniform(&inst);
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let rates = uniform_linear(&inst).phase_rates(&inst, &board);
        let tau = 1.0;

        let mut a = f.values().to_vec();
        Integrator::Uniformization { tol: 1e-14 }.advance(&rates, &mut a, tau);
        let mut b = f.values().to_vec();
        Integrator::Rk4 { dt: 0.005 }.advance(&rates, &mut b, tau);
        let mut c = f.values().to_vec();
        Integrator::Euler { dt: 0.0005 }.advance(&rates, &mut c, tau);

        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-8, "rk4 vs unif at {i}");
            assert!((a[i] - c[i]).abs() < 1e-3, "euler vs unif at {i}");
        }
    }

    #[test]
    fn mass_is_conserved_by_all_schemes() {
        let inst = builders::braess();
        let f = FlowVec::concentrated(&inst);
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let rates = uniform_linear(&inst).phase_rates(&inst, &board);
        for integ in [
            Integrator::Euler { dt: 0.05 },
            Integrator::Rk4 { dt: 0.05 },
            Integrator::Uniformization { tol: 1e-13 },
        ] {
            let mut g = f.values().to_vec();
            integ.advance(&rates, &mut g, 3.0);
            let total: f64 = g.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", integ.name());
            assert!(g.iter().all(|x| *x >= -1e-9), "{}", integ.name());
        }
    }

    #[test]
    fn advance_with_reused_scratch_matches_advance() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let mut scratch = IntegratorScratch::for_len(f0.len());
        for integ in [
            Integrator::Euler { dt: 0.05 },
            Integrator::Rk4 { dt: 0.05 },
            Integrator::Uniformization { tol: 1e-13 },
        ] {
            let mut fresh = f0.clone();
            integ.advance(&rates, &mut fresh, 1.5);
            let mut reused = f0.clone();
            integ.advance_with(&rates, &mut reused, 1.5, &mut scratch);
            assert_eq!(fresh, reused, "{}", integ.name());
            // A second run with the now-dirty scratch is identical.
            let mut again = f0.clone();
            integ.advance_with(&rates, &mut again, 1.5, &mut scratch);
            assert_eq!(fresh, again, "{}", integ.name());
        }
    }

    #[test]
    fn scratch_sizes_only_the_buffers_its_scheme_reads() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let n = f0.len();
        let lens = |s: &IntegratorScratch| [s.state.len(), s.next.len(), s.acc.len(), s.tmp.len()];
        let mut scratch = IntegratorScratch::for_len(n);
        assert_eq!(lens(&scratch), [n, n, n, 0]);
        let mut f = f0.clone();
        Integrator::default().advance_with(&rates, &mut f, 1.5, &mut scratch);
        assert_eq!(lens(&scratch), [n, n, n, 0]);
        Integrator::Rk4 { dt: 0.05 }.advance_with(&rates, &mut f, 1.5, &mut scratch);
        assert_eq!(lens(&scratch), [n, n, n, n]);
        let mut euler = IntegratorScratch::new();
        Integrator::Euler { dt: 0.05 }.advance_with(&rates, &mut f, 1.5, &mut euler);
        assert_eq!(lens(&euler), [n, n, 0, 0]);
    }

    #[test]
    fn zero_phase_is_identity() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let mut f = f0.clone();
        Integrator::default().advance(&rates, &mut f, 0.0);
        assert_eq!(f, f0);
    }

    #[test]
    fn zero_rates_are_identity() {
        let inst = builders::pigou();
        // At equilibrium the board shows equal latencies: no movement.
        let f = FlowVec::from_values(&inst, vec![1.0, 0.0]).unwrap();
        let board = BulletinBoard::post(&inst, &f, 0.0);
        let rates = uniform_linear(&inst).phase_rates(&inst, &board);
        let mut g = f.values().to_vec();
        Integrator::default().advance(&rates, &mut g, 10.0);
        assert_eq!(g, f.values());
    }

    #[test]
    fn long_phase_reaches_absorbing_state() {
        // With only 1 → 0 transitions, τ → ∞ sends all mass to path 0.
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let mut f = f0;
        Integrator::Uniformization { tol: 1e-14 }.advance(&rates, &mut f, 200.0);
        assert!(f[1] < 1e-9);
        assert!((f[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn euler_rejects_zero_step() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let mut f = f0;
        Integrator::Euler { dt: 0.0 }.advance(&rates, &mut f, 1.0);
    }

    #[test]
    #[should_panic(expected = "phase length")]
    fn negative_tau_rejected() {
        let (_inst, rates, f0) = single_rate_setup(0.4);
        let mut f = f0;
        Integrator::default().advance(&rates, &mut f, -1.0);
    }
}
