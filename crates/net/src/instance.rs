//! Validated Wardrop instances.
//!
//! An [`Instance`] bundles a graph, per-edge latency functions and
//! commodities, together with the path arena used by the path
//! formulation of the model. The arena is a flat path→edge CSR
//! incidence, the only incidence kept: no per-path vector and no
//! edge→path transpose. Construction validates every standing
//! assumption of the paper. The constants that appear in its theorems
//! are computed from the inputs when read, never cached:
//!
//! * `D` — the maximum path length ([`Instance::max_path_len`]),
//! * `β` — the maximum latency slope ([`Instance::slope_bound`]),
//! * `ℓmax` — an upper bound on any path latency
//!   ([`Instance::latency_upper_bound`]).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::commodity::Commodity;
use crate::error::NetError;
use crate::graph::{EdgeId, Graph};
use crate::latency::Latency;
use crate::path::{check_edge_sequence, enumerate_simple_paths, row_end, Path, PathId};

/// Default cap on simple paths per commodity during enumeration.
pub const DEFAULT_PATH_CAP: usize = 100_000;

/// Tolerance for the `Σ r_i = 1` demand normalisation check.
pub const DEMAND_TOLERANCE: f64 = 1e-9;

/// The at-capacity latency `Σ_{e ∈ P} ℓ_e(1)` of a path with `edges`,
/// summed in path order.
fn cap_latency(latencies: &[Latency], edges: &[EdgeId]) -> f64 {
    edges
        .iter()
        .map(|e| latencies[e.index()].at_capacity())
        .sum()
}

/// The edge check of every latency setter: `e` must be one of
/// `edge_count` edges.
pub(crate) fn check_edge(e: EdgeId, edge_count: usize) -> Result<(), NetError> {
    if e.index() >= edge_count {
        return Err(NetError::Inconsistent(format!(
            "edge {} out of range for {edge_count} edges",
            e.index()
        )));
    }
    Ok(())
}

/// The factor check of the `scale_latency` setters: a scaled latency
/// must stay non-negative and non-decreasing.
pub(crate) fn check_scale_factor(factor: f64) -> Result<(), NetError> {
    if !factor.is_finite() || factor < 0.0 {
        return Err(NetError::InvalidLatency(format!(
            "scale factor must be finite and non-negative, got {factor}"
        )));
    }
    Ok(())
}

/// The checks of the `set_demand` setters on `k` commodities: `demand`
/// must lie in `(0, 1)`, or be `1` (within [`DEMAND_TOLERANCE`]) when
/// there is a single commodity.
pub(crate) fn check_demand(i: usize, demand: f64, k: usize) -> Result<(), NetError> {
    if i >= k {
        return Err(NetError::InvalidCommodity(format!(
            "commodity {i} out of range for {k} commodities"
        )));
    }
    if !demand.is_finite() || demand <= 0.0 {
        return Err(NetError::InvalidCommodity(format!(
            "demand must be positive and finite, got {demand}"
        )));
    }
    if k == 1 {
        if (demand - 1.0).abs() > DEMAND_TOLERANCE {
            return Err(NetError::InvalidCommodity(
                "single-commodity demand is pinned to 1 by the paper's normalisation".into(),
            ));
        }
    } else if demand >= 1.0 {
        return Err(NetError::InvalidCommodity(format!(
            "demand {demand} leaves no mass for the other {} commodities",
            k - 1
        )));
    }
    Ok(())
}

/// Sets commodity `i`'s demand and rescales the others so `Σ_j r_j = 1`
/// keeps holding — the one renormalisation both instance types run.
/// The commodities are unchanged on error.
pub(crate) fn set_demand_in(
    commodities: &mut [Commodity],
    i: usize,
    demand: f64,
) -> Result<(), NetError> {
    check_demand(i, demand, commodities.len())?;
    if commodities.len() == 1 {
        commodities[0].demand = 1.0;
        return Ok(());
    }
    let others = 1.0 - commodities[i].demand;
    debug_assert!(others > 0.0, "validated demands keep every r_j > 0");
    let scale = (1.0 - demand) / others;
    for (j, c) in commodities.iter_mut().enumerate() {
        if j == i {
            c.demand = demand;
        } else {
            c.demand *= scale;
        }
    }
    Ok(())
}

/// `β = max_e sup ℓ'_e`: the left-to-right `f64::max` fold over
/// `latencies`, the one expression both instance types read `β`
/// through.
pub(crate) fn slope_bound(latencies: &[Latency]) -> f64 {
    latencies
        .iter()
        .map(Latency::slope_bound)
        .fold(0.0, f64::max)
}

/// The borrowed path→edge CSR incidence of an [`Instance`]: row `p`
/// is `ids[offsets[p] .. offsets[p + 1]]`, path `p`'s edges in path
/// order.
///
/// Take it once per call ([`Instance::path_edge_rows`]) and read rows
/// from it in the loop: it holds plain slices, so the loop does not go
/// through the shared arena's `Arc` for every row.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a> {
    offsets: &'a [u32],
    ids: &'a [EdgeId],
}

impl<'a> CsrRows<'a> {
    /// Row `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn row(&self, p: usize) -> &'a [EdgeId] {
        &self.ids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// A validated instance of the Wardrop routing game.
///
/// # Path arena
///
/// The path→edge CSR incidence is the only store of the paths and the
/// only incidence: path `p`'s edges are row `p` of it
/// ([`Instance::path_edges`], [`Instance::path_edge_rows`]). No
/// per-path vector, no edge→path transpose and no per-path sum is
/// kept, so a latency event ([`Instance::set_latency`]) replaces one
/// function and touches no row. A [`Path`] is
/// only the validated input of [`Instance::with_explicit_paths`] and
/// [`Instance::push_path`].
///
/// # Clone cost
///
/// The graph and the path structure (the CSR incidence and the
/// path→commodity map) sit behind `Arc`s that clones share,
/// copy-on-write. A clone copies only what is owned per instance: the
/// latency functions, the commodities and the per-commodity path
/// ranges, one buffer each. It never allocates per path. The latency
/// and demand setters ([`Instance::set_latency`],
/// [`Instance::scale_latency`], [`Instance::set_demand`]) touch only
/// that owned state, so events
/// leave the arena shared. [`Instance::push_path`] copies the arena
/// once if it is shared and then grows its own copy; on a uniquely
/// owned instance, such as the implicit-path backend's restriction, it
/// copies nothing.
///
/// # Examples
///
/// ```
/// use wardrop_net::builders;
///
/// let inst = builders::pigou();
/// assert_eq!(inst.num_commodities(), 1);
/// assert_eq!(inst.num_paths(), 2);
/// assert_eq!(inst.max_path_len(), 1);
/// ```
///
/// Equality compares every field, the CSR incidence included. No
/// derived bound is stored, so none is compared: `D`, `β` and `ℓmax`
/// follow from the compared inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    graph: Arc<Graph>,
    latencies: Vec<Latency>,
    commodities: Vec<Commodity>,
    /// Half-open path-index ranges per commodity: commodity `i` owns
    /// paths `path_ranges[i] .. path_ranges[i + 1]` (paths are
    /// commodity-contiguous).
    path_ranges: Vec<usize>,
    /// CSR path→edge incidence, the path arena: path `p` uses
    /// `path_edge_ids[path_edge_offsets[p] .. path_edge_offsets[p+1]]`,
    /// in path order. Flat and cache-friendly; the hot loops of
    /// [`crate::eval::EvalWorkspace`] traverse it row by row.
    path_edge_offsets: Arc<Vec<u32>>,
    /// Flat edge ids of the CSR path→edge incidence.
    path_edge_ids: Arc<Vec<EdgeId>>,
    /// Owning commodity per path (O(1) `commodity_of_path`).
    path_commodity: Arc<Vec<u32>>,
}

impl Instance {
    /// Builds and validates an instance, enumerating all simple paths
    /// per commodity with the [default cap](DEFAULT_PATH_CAP).
    ///
    /// # Errors
    ///
    /// See [`Instance::with_path_cap`].
    pub fn new(
        graph: Graph,
        latencies: Vec<Latency>,
        commodities: Vec<Commodity>,
    ) -> Result<Self, NetError> {
        Self::with_path_cap(graph, latencies, commodities, DEFAULT_PATH_CAP)
    }

    /// Builds and validates an instance with an explicit path cap.
    ///
    /// # Errors
    ///
    /// * [`NetError::Inconsistent`] if `latencies.len() != edge count`,
    ///   there are no commodities, or total demand is not 1 (within
    ///   [`DEMAND_TOLERANCE`]).
    /// * [`NetError::InvalidLatency`] if any latency violates the
    ///   standing assumptions.
    /// * [`NetError::InvalidCommodity`] for malformed commodities.
    /// * [`NetError::NoPath`] if a commodity has no source–sink path.
    /// * [`NetError::TooManyPaths`] if enumeration exceeds `path_cap`.
    pub fn with_path_cap(
        graph: Graph,
        latencies: Vec<Latency>,
        commodities: Vec<Commodity>,
        path_cap: usize,
    ) -> Result<Self, NetError> {
        Self::validate_base(&graph, &latencies, &commodities)?;

        let (mut offsets, mut ids) = (vec![0u32], Vec::new());
        let mut path_ranges = vec![0usize];
        for (i, c) in commodities.iter().enumerate() {
            let found =
                enumerate_simple_paths(&graph, c.source, c.sink, path_cap, &mut offsets, &mut ids)
                    .map_err(|e| match e {
                        NetError::TooManyPaths { cap, .. } => {
                            NetError::TooManyPaths { commodity: i, cap }
                        }
                        other => other,
                    })?;
            if found == 0 {
                return Err(NetError::NoPath { commodity: i });
            }
            path_ranges.push(offsets.len() - 1);
        }
        Ok(Self::assemble(
            graph,
            latencies,
            commodities,
            offsets,
            ids,
            path_ranges,
        ))
    }

    /// Builds a validated instance over an **explicitly given** path set
    /// instead of enumerating all simple paths.
    ///
    /// `commodity_paths[i]` becomes the path set of commodity `i`, in
    /// the given order: the paths' edges are copied into the CSR
    /// incidence, and the `Path`s themselves are not kept. This is the
    /// column-generation entry point of the
    /// implicit-path backend (`wardrop_core::edge_engine`): on networks
    /// whose full path set is astronomically large, the engine keeps a
    /// small *active* set discovered by shortest-path / random-path
    /// oracles, builds a restricted instance around its seeds and grows
    /// it with [`Instance::push_path`], so every downstream component
    /// (evaluation, phase rates, integrator, board) runs unchanged.
    /// Handing over the full enumerated path set in
    /// enumeration order reproduces [`Instance::new`] exactly.
    ///
    /// Duplicate paths within a commodity are not rejected — callers
    /// performing column generation are expected to deduplicate (a
    /// duplicated column would double-count its edge flow contribution).
    ///
    /// # Errors
    ///
    /// The base validations of [`Instance::with_path_cap`] apply, plus:
    ///
    /// * [`NetError::Inconsistent`] if `commodity_paths.len()` differs
    ///   from the commodity count, a path is not a simple path of the
    ///   graph, a path's endpoints do not match its commodity, or the
    ///   incidence would leave the `u32` range;
    /// * [`NetError::NoPath`] if a commodity's path list is empty.
    pub fn with_explicit_paths(
        graph: Graph,
        latencies: Vec<Latency>,
        commodities: Vec<Commodity>,
        commodity_paths: &[Vec<Path>],
    ) -> Result<Self, NetError> {
        Self::validate_base(&graph, &latencies, &commodities)?;
        if commodity_paths.len() != commodities.len() {
            return Err(NetError::Inconsistent(format!(
                "{} path lists for {} commodities",
                commodity_paths.len(),
                commodities.len()
            )));
        }
        let mut offsets =
            Vec::with_capacity(commodity_paths.iter().map(Vec::len).sum::<usize>() + 1);
        offsets.push(0u32);
        let mut ids = Vec::with_capacity(commodity_paths.iter().flatten().map(Path::len).sum());
        let mut path_ranges = vec![0usize];
        for (i, (c, ps)) in commodities.iter().zip(commodity_paths).enumerate() {
            if ps.is_empty() {
                return Err(NetError::NoPath { commodity: i });
            }
            for p in ps {
                Self::check_path(&graph, i, c, p.edges())?;
                ids.extend_from_slice(p.edges());
                offsets.push(row_end(&ids)?);
            }
            path_ranges.push(offsets.len() - 1);
        }
        Ok(Self::assemble(
            graph,
            latencies,
            commodities,
            offsets,
            ids,
            path_ranges,
        ))
    }

    /// Checks that `edges` is a simple path of `graph` (the one check
    /// [`Path::new`] runs) from commodity `i`'s source to its sink.
    fn check_path(
        graph: &Graph,
        i: usize,
        c: &Commodity,
        edges: &[EdgeId],
    ) -> Result<(), NetError> {
        check_edge_sequence(graph, edges)?;
        let (first, last) = (edges[0], edges[edges.len() - 1]);
        if graph.edge(first).from != c.source || graph.edge(last).to != c.sink {
            return Err(NetError::Inconsistent(format!(
                "commodity {i} has a path whose endpoints do not match its source/sink"
            )));
        }
        Ok(())
    }

    /// Shared construction-time validation of the path-free data.
    fn validate_base(
        graph: &Graph,
        latencies: &[Latency],
        commodities: &[Commodity],
    ) -> Result<(), NetError> {
        if latencies.len() != graph.edge_count() {
            return Err(NetError::Inconsistent(format!(
                "{} latencies for {} edges",
                latencies.len(),
                graph.edge_count()
            )));
        }
        for l in latencies {
            l.validate()?;
        }
        if commodities.is_empty() {
            return Err(NetError::Inconsistent(
                "instance needs at least one commodity".into(),
            ));
        }
        for c in commodities {
            c.validate(graph)?;
        }
        let total_demand: f64 = commodities.iter().map(|c| c.demand).sum();
        if (total_demand - 1.0).abs() > DEMAND_TOLERANCE {
            return Err(NetError::Inconsistent(format!(
                "total demand must be 1 (paper normalisation), got {total_demand}"
            )));
        }
        Ok(())
    }

    /// Assembles the path→commodity map over an already-validated
    /// path→edge CSR (commodity-contiguous rows with half-open
    /// `path_ranges`). Shared by the enumerating and the
    /// explicit-path constructors so both produce bit-identical
    /// instances for the same path set.
    fn assemble(
        graph: Graph,
        latencies: Vec<Latency>,
        commodities: Vec<Commodity>,
        path_edge_offsets: Vec<u32>,
        path_edge_ids: Vec<EdgeId>,
        path_ranges: Vec<usize>,
    ) -> Self {
        let mut path_commodity = vec![0u32; path_edge_offsets.len() - 1];
        for i in 0..commodities.len() {
            for slot in &mut path_commodity[path_ranges[i]..path_ranges[i + 1]] {
                *slot = i as u32;
            }
        }
        Instance {
            graph: Arc::new(graph),
            latencies,
            commodities,
            path_ranges,
            path_edge_offsets: Arc::new(path_edge_offsets),
            path_edge_ids: Arc::new(path_edge_ids),
            path_commodity: Arc::new(path_commodity),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Latency function of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the instance's graph.
    #[inline]
    pub fn latency(&self, e: EdgeId) -> &Latency {
        &self.latencies[e.index()]
    }

    /// All latency functions, indexed by edge.
    #[inline]
    pub fn latencies(&self) -> &[Latency] {
        &self.latencies
    }

    /// The commodities.
    #[inline]
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Number of commodities `k`.
    #[inline]
    pub fn num_commodities(&self) -> usize {
        self.commodities.len()
    }

    /// Total number of paths `|P|` across all commodities.
    #[inline]
    pub fn num_paths(&self) -> usize {
        self.path_edge_offsets.len() - 1
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Iterates over all path ids.
    pub fn path_ids(&self) -> impl ExactSizeIterator<Item = PathId> + '_ {
        (0..self.num_paths()).map(PathId::from_index)
    }

    /// Path-index range `[start, end)` of commodity `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ num_commodities()`.
    #[inline]
    pub fn commodity_paths(&self, i: usize) -> std::ops::Range<usize> {
        self.path_ranges[i]..self.path_ranges[i + 1]
    }

    /// Number of paths `|P_i|` of commodity `i`.
    #[inline]
    pub fn commodity_path_count(&self, i: usize) -> usize {
        self.path_ranges[i + 1] - self.path_ranges[i]
    }

    /// The largest `|P_i|` over commodities — the `m` of Theorem 6.
    pub fn max_commodity_path_count(&self) -> usize {
        (0..self.num_commodities())
            .map(|i| self.commodity_path_count(i))
            .max()
            .unwrap_or(0)
    }

    /// The commodity owning path `p` (O(1) table lookup).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn commodity_of_path(&self, p: PathId) -> usize {
        self.path_commodity[p.index()] as usize
    }

    /// The edges of path `p`, in path order: row `p` of the path→edge
    /// CSR incidence, the only store of the paths.
    ///
    /// A loop over many paths should read rows from
    /// [`Instance::path_edge_rows`] instead, taken once before it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn path_edges(&self, p: PathId) -> &[EdgeId] {
        self.path_edge_rows().row(p.index())
    }

    /// The path→edge CSR incidence: row `p` is
    /// [`Instance::path_edges`]`(p)`.
    #[inline]
    pub fn path_edge_rows(&self) -> CsrRows<'_> {
        CsrRows {
            offsets: &self.path_edge_offsets,
            ids: &self.path_edge_ids,
        }
    }

    /// Whether `self` and `other` share one path arena: true for
    /// clones of one instance until [`Instance::push_path`] un-shares
    /// one of them.
    #[cfg(test)]
    pub(crate) fn shares_paths_with(&self, other: &Instance) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph)
            && Arc::ptr_eq(&self.path_edge_offsets, &other.path_edge_offsets)
            && Arc::ptr_eq(&self.path_edge_ids, &other.path_edge_ids)
            && Arc::ptr_eq(&self.path_commodity, &other.path_commodity)
    }

    /// Total number of (path, edge) incidences — the `nnz` of the CSR
    /// incidence and the per-evaluation work of the fused pipeline.
    #[inline]
    pub fn incidence_count(&self) -> usize {
        self.path_edge_ids.len()
    }

    /// Maximum path length `D = max_P |P|`: the longest row, read
    /// from the CSR offsets on every call in `O(|P|)`.
    pub fn max_path_len(&self) -> usize {
        self.path_edge_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Maximum latency slope `β = max_e sup ℓ'_e`, folded over the
    /// latency functions on every call in `O(E)`.
    pub fn slope_bound(&self) -> f64 {
        slope_bound(&self.latencies)
    }

    /// Upper bound `ℓmax = max_P Σ_{e ∈ P} ℓ_e(1)` on any path latency:
    /// each row's at-capacity sum in path order, then the max over the
    /// rows in row order — run on every call in `O(nnz)`, so latency
    /// events never pay for it. Policy construction and the theory
    /// helpers read it; a caller that needs it repeatedly reads it once.
    pub fn latency_upper_bound(&self) -> f64 {
        let rows = self.path_edge_rows();
        (0..self.num_paths())
            .map(|p| cap_latency(&self.latencies, rows.row(p)))
            .fold(0.0_f64, f64::max)
    }

    /// Re-validates every invariant of an instance that arrived
    /// through deserialization rather than a constructor — the serde
    /// derive necessarily fills private fields verbatim, so a decoded
    /// checkpoint could otherwise smuggle in an inconsistent CSR arena.
    ///
    /// The graph's adjacency lists must be the ones its edge list
    /// builds ([`Graph::check_consistent`]), and the base data is
    /// re-validated exactly as at construction. Every decoded
    /// path→edge row must be a simple path of the graph between its
    /// commodity's endpoints (the checks of [`Path::new`]), and the
    /// path→commodity map must be the one the path ranges give,
    /// exactly. No derived bound is stored, so a decoded instance
    /// cannot carry a stale `D`, `β` or `ℓmax`: they are computed from
    /// the decoded rows and latencies when read. The serialized values
    /// stay authoritative — this check only rejects corruption, it
    /// never rewrites state (which would break bit-identical restores).
    ///
    /// # Errors
    ///
    /// [`NetError::Inconsistent`] (or the base-validation errors of
    /// [`Instance::with_path_cap`]) naming the first violated
    /// invariant.
    pub fn check_consistent(&self) -> Result<(), NetError> {
        self.graph.check_consistent()?;
        Self::validate_base(&self.graph, &self.latencies, &self.commodities)?;
        let offsets = self.path_edge_offsets.as_slice();
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().map(|&o| o as usize) != Some(self.path_edge_ids.len())
        {
            return Err(NetError::Inconsistent(
                "path-edge offsets do not delimit the incidence".into(),
            ));
        }
        if self.path_ranges.len() != self.commodities.len() + 1
            || self.path_ranges.first() != Some(&0)
            || self.path_ranges.windows(2).any(|w| w[0] > w[1])
            || self.path_ranges.last() != Some(&self.num_paths())
        {
            return Err(NetError::Inconsistent(
                "path ranges do not cover the path arena".into(),
            ));
        }
        if self.path_commodity.len() != self.num_paths() {
            return Err(NetError::Inconsistent(
                "path→commodity map disagrees with the path arena".into(),
            ));
        }
        let rows = self.path_edge_rows();
        for (i, c) in self.commodities.iter().enumerate() {
            let (lo, hi) = (self.path_ranges[i], self.path_ranges[i + 1]);
            if lo >= hi {
                return Err(NetError::NoPath { commodity: i });
            }
            for p in lo..hi {
                Self::check_path(&self.graph, i, c, rows.row(p))?;
                if self.path_commodity[p] as usize != i {
                    return Err(NetError::Inconsistent(
                        "path→commodity map disagrees with the path arena".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Appends `path` to commodity `i`'s path set in place — the
    /// column-generation step of the implicit-path backend, which grows
    /// its restricted instance one discovered column at a time.
    ///
    /// The path takes global index `commodity_paths(i).end` (returned);
    /// the paths of later commodities shift up by one. The path's edges
    /// are spliced in as a new CSR row (the `Path` itself is dropped),
    /// and the path→commodity map gains its entry; the buffers grow by
    /// amortised doubling. The cost is one `O(nnz + |P|)` move of the
    /// rows and offsets behind the new row (none when `i` is the last
    /// commodity) and, amortised, `O(1)` allocations. If the arena is
    /// shared with a clone, it is copied first (once: the copy is then
    /// owned) and the clone is left unchanged. The result equals, field for
    /// field, what [`Instance::with_explicit_paths`] builds over the
    /// same per-commodity path lists.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidCommodity`] if `i` is out of range, and
    /// [`NetError::Inconsistent`] if the path is not a simple path of
    /// the graph, its endpoints do not match the commodity, or the
    /// incidence count would leave the `u32` range. The instance is
    /// unchanged on error.
    pub fn push_path(&mut self, i: usize, path: Path) -> Result<PathId, NetError> {
        let k = self.commodities.len();
        if i >= k {
            return Err(NetError::InvalidCommodity(format!(
                "commodity {i} out of range for {k} commodities"
            )));
        }
        Self::check_path(&self.graph, i, &self.commodities[i], path.edges())?;
        let len = path.len();
        if u32::try_from(self.path_edge_ids.len() + len).is_err() {
            return Err(NetError::Inconsistent(
                "path-edge incidence exceeds u32 range".into(),
            ));
        }
        let at = self.path_ranges[i + 1];
        let path_edge_offsets = Arc::make_mut(&mut self.path_edge_offsets);
        let lo = path_edge_offsets[at];
        Arc::make_mut(&mut self.path_edge_ids)
            .splice(lo as usize..lo as usize, path.edges().iter().copied());
        for off in &mut path_edge_offsets[at + 1..] {
            *off += len as u32;
        }
        path_edge_offsets.insert(at + 1, lo + len as u32);
        for end in &mut self.path_ranges[i + 1..] {
            *end += 1;
        }
        Arc::make_mut(&mut self.path_commodity).insert(at, i as u32);
        Ok(PathId::from_index(at))
    }

    /// Replaces the latency function of edge `e`: check, validate,
    /// replace, in `O(1)` beyond the validation.
    ///
    /// The graph and the CSR incidence are untouched (latency changes
    /// never alter the path sets) and stay shared with any clone.
    /// Nothing else is refreshed: `β` and `ℓmax` are computed when
    /// read, so they equal a fresh build's bit for bit after any
    /// events. No heap allocation is performed, which keeps scenario
    /// reconfiguration compatible with the engine's zero-allocation
    /// steady state.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidLatency`] if `latency` violates the
    /// standing assumptions, or [`NetError::Inconsistent`] if `e` is not
    /// an edge of the graph. The instance is unchanged on error.
    pub fn set_latency(&mut self, e: EdgeId, latency: Latency) -> Result<(), NetError> {
        check_edge(e, self.graph.edge_count())?;
        latency.validate()?;
        self.latencies[e.index()] = latency;
        Ok(())
    }

    /// Scales the latency function of edge `e` by `factor` (see
    /// [`Latency::scaled`]) — the scenario-event form of link
    /// degradation (`factor > 1`) and repair (`factor < 1`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidLatency`] if `factor` is NaN,
    /// negative or non-finite (a scaled latency must stay non-negative
    /// and non-decreasing); otherwise see [`Instance::set_latency`].
    /// The instance is unchanged on error.
    pub fn scale_latency(&mut self, e: EdgeId, factor: f64) -> Result<(), NetError> {
        check_edge(e, self.graph.edge_count())?;
        check_scale_factor(factor)?;
        let scaled = self.latencies[e.index()].scaled(factor);
        self.set_latency(e, scaled)
    }

    /// Sets the demand of commodity `i` to `demand`, rescaling the
    /// remaining commodities proportionally so the paper's
    /// normalisation `Σ_j r_j = 1` keeps holding.
    ///
    /// This is the scenario-event form of demand surges: a flash crowd
    /// on commodity `i` raises its *share* of the unit total while the
    /// background traffic shrinks correspondingly. With a single
    /// commodity the only admissible demand is `1.0` (the normalisation
    /// leaves nothing to trade against).
    ///
    /// Path sets, the CSR incidence and latency invariants are untouched;
    /// existing flows become infeasible and must be rescaled by the
    /// caller (the engine's `apply_event` does this per commodity).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidCommodity`] if `i` is out of range,
    /// `demand` is not in `(0, 1)` (or `≠ 1` for single-commodity
    /// instances). The instance is unchanged on error.
    pub fn set_demand(&mut self, i: usize, demand: f64) -> Result<(), NetError> {
        set_demand_in(&mut self.commodities, i, demand)
    }

    /// Grid estimate of the instance's elasticity bound
    /// `d = max_e sup_x x·ℓ'_e(x)/ℓ_e(x)`.
    ///
    /// The parameter the follow-up work \[10\] replaces the slope bound
    /// with; see [`Latency::elasticity_bound_estimate`]. `+∞` if any
    /// edge's latency vanishes where its derivative does not.
    pub fn elasticity_bound_estimate(&self, grid: usize) -> f64 {
        self.latencies
            .iter()
            .map(|l| l.elasticity_bound_estimate(grid))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn two_link(latencies: Vec<Latency>) -> Result<Instance, NetError> {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        for _ in 0..latencies.len() {
            g.add_edge(s, t);
        }
        Instance::new(g, latencies, vec![Commodity::new(s, t, 1.0)])
    }

    #[test]
    fn builds_two_link_instance() {
        let inst = two_link(vec![Latency::identity(), Latency::Constant(1.0)]).unwrap();
        assert_eq!(inst.num_paths(), 2);
        assert_eq!(inst.num_commodities(), 1);
        assert_eq!(inst.max_path_len(), 1);
        assert_eq!(inst.slope_bound(), 1.0);
        assert_eq!(inst.latency_upper_bound(), 1.0);
    }

    #[test]
    fn latency_count_mismatch_rejected() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let err = Instance::new(g, vec![], vec![Commodity::new(s, t, 1.0)]).unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn demand_normalisation_enforced() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let err = Instance::new(
            g,
            vec![Latency::identity()],
            vec![Commodity::new(s, t, 0.5)],
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn missing_path_detected() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        let u = g.add_node();
        g.add_edge(s, t);
        let err = Instance::new(
            g,
            vec![Latency::identity()],
            vec![Commodity::new(s, t, 0.5), Commodity::new(s, u, 0.5)],
        )
        .unwrap_err();
        assert_eq!(err, NetError::NoPath { commodity: 1 });
    }

    #[test]
    fn path_cap_reports_commodity() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        for _ in 0..5 {
            g.add_edge(s, t);
        }
        let err = Instance::with_path_cap(
            g,
            vec![Latency::identity(); 5],
            vec![Commodity::new(s, t, 1.0)],
            3,
        )
        .unwrap_err();
        assert_eq!(
            err,
            NetError::TooManyPaths {
                commodity: 0,
                cap: 3
            }
        );
    }

    #[test]
    fn invalid_latency_rejected() {
        let err = two_link(vec![Latency::Constant(-1.0), Latency::identity()]).unwrap_err();
        assert!(matches!(err, NetError::InvalidLatency(_)));
    }

    #[test]
    fn no_commodities_rejected() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let err = Instance::new(g, vec![Latency::identity()], vec![]).unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn commodity_path_ranges_partition_paths() {
        // Two commodities on a shared 4-node graph.
        let mut g = Graph::new();
        let s1 = g.add_node();
        let t1 = g.add_node();
        let s2 = g.add_node();
        let t2 = g.add_node();
        g.add_edge(s1, t1);
        g.add_edge(s1, t1);
        g.add_edge(s2, t2);
        let inst = Instance::new(
            g,
            vec![Latency::identity(); 3],
            vec![Commodity::new(s1, t1, 0.5), Commodity::new(s2, t2, 0.5)],
        )
        .unwrap();
        assert_eq!(inst.commodity_paths(0), 0..2);
        assert_eq!(inst.commodity_paths(1), 2..3);
        assert_eq!(inst.commodity_path_count(0), 2);
        assert_eq!(inst.max_commodity_path_count(), 2);
        assert_eq!(inst.commodity_of_path(PathId::from_index(0)), 0);
        assert_eq!(inst.commodity_of_path(PathId::from_index(1)), 0);
        assert_eq!(inst.commodity_of_path(PathId::from_index(2)), 1);
    }

    #[test]
    fn constants_on_two_edge_path() {
        // s -> m -> t with affine latencies.
        let mut g = Graph::new();
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m);
        g.add_edge(m, t);
        let inst = Instance::new(
            g,
            vec![
                Latency::Affine { a: 1.0, b: 2.0 },
                Latency::Affine { a: 0.5, b: 4.0 },
            ],
            vec![Commodity::new(s, t, 1.0)],
        )
        .unwrap();
        assert_eq!(inst.max_path_len(), 2);
        assert_eq!(inst.slope_bound(), 4.0);
        // ℓmax = (1 + 2·1) + (0.5 + 4·1) = 7.5
        assert!((inst.latency_upper_bound() - 7.5).abs() < 1e-12);
        let _ = NodeId::from_index(0);
    }

    /// Path `p` of `inst`, decoded from its CSR row.
    fn path_of(inst: &Instance, p: usize) -> Path {
        Path::new(
            inst.graph(),
            inst.path_edges(PathId::from_index(p)).to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn csr_incidence_matches_paths() {
        let inst = crate::builders::braess();
        // s→a→t, s→a→b→t, s→b→t in depth-first order.
        let expected: [&[usize]; 3] = [&[0, 2], &[0, 4, 3], &[1, 3]];
        for (idx, edges) in expected.iter().enumerate() {
            let row: Vec<usize> = inst
                .path_edges(PathId::from_index(idx))
                .iter()
                .map(|e| e.index())
                .collect();
            assert_eq!(row, *edges, "path {idx}");
        }
        assert_eq!(inst.num_paths(), 3);
        assert_eq!(inst.incidence_count(), 7);
    }

    #[test]
    fn csr_incidence_on_multi_commodity_grid() {
        let inst = crate::builders::multi_commodity_grid(3, 3, 5);
        let rows = inst.path_edge_rows();
        let total: usize = (0..inst.num_paths()).map(|p| rows.row(p).len()).sum();
        assert_eq!(inst.incidence_count(), total);
        for i in 0..inst.num_commodities() {
            let c = inst.commodities()[i];
            for p in inst.commodity_paths(i) {
                let path = path_of(&inst, p);
                assert_eq!(path.source(inst.graph()), c.source);
                assert_eq!(path.sink(inst.graph()), c.sink);
            }
        }
    }

    /// Reference reconstruction: an instance freshly built from the
    /// mutated graph/latencies/commodities.
    fn rebuild(inst: &Instance) -> Instance {
        Instance::new(
            inst.graph().clone(),
            inst.latencies().to_vec(),
            inst.commodities().to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn set_latency_moves_the_bounds() {
        let mut inst = crate::builders::braess();
        // Edge 1 (s→b, constant 1) becomes steep: slope and ℓmax move.
        inst.set_latency(EdgeId::from_index(1), Latency::Affine { a: 1.0, b: 9.0 })
            .unwrap();
        let fresh = rebuild(&inst);
        assert_eq!(inst.slope_bound(), fresh.slope_bound());
        assert_eq!(inst.latency_upper_bound(), fresh.latency_upper_bound());
        assert_eq!(inst.slope_bound(), 9.0);
        // Replacing the maximum-slope edge with a flat one shrinks β.
        inst.set_latency(EdgeId::from_index(1), Latency::Constant(1.0))
            .unwrap();
        let fresh = rebuild(&inst);
        assert_eq!(inst.slope_bound(), fresh.slope_bound());
        assert_eq!(inst.latency_upper_bound(), fresh.latency_upper_bound());
        assert_eq!(inst.slope_bound(), 1.0);
    }

    #[test]
    fn latency_events_keep_bounds_equal_to_a_fresh_build() {
        // Every edge ×4, then every edge ×¼: after each event the
        // bounds of the mutated instance, and of its path-free
        // counterpart, equal a fresh build's bit for bit.
        let mut inst = crate::builders::grid_network(4, 4, 7);
        let mut edge = crate::edge_flow::EdgeInstance::from_instance(&inst).unwrap();
        for factor in [4.0, 0.25] {
            for e in 0..inst.num_edges() {
                let e = EdgeId::from_index(e);
                inst.scale_latency(e, factor).unwrap();
                edge.scale_latency(e, factor).unwrap();
                let fresh = rebuild(&inst);
                assert_eq!(
                    inst.latency_upper_bound().to_bits(),
                    fresh.latency_upper_bound().to_bits(),
                    "×{factor} on {e}"
                );
                assert_eq!(inst.slope_bound().to_bits(), fresh.slope_bound().to_bits());
                assert_eq!(inst.max_path_len(), fresh.max_path_len());
                let fresh_edge = crate::edge_flow::EdgeInstance::from_instance(&fresh).unwrap();
                assert_eq!(
                    edge.slope_bound().to_bits(),
                    fresh_edge.slope_bound().to_bits(),
                    "×{factor} on {e}"
                );
                assert_eq!(
                    edge.latency_upper_bound().to_bits(),
                    fresh_edge.latency_upper_bound().to_bits(),
                    "×{factor} on {e}"
                );
                assert_eq!(edge.max_path_len(), fresh_edge.max_path_len());
            }
        }
    }

    #[test]
    fn scale_latency_round_trips_bounds() {
        let mut inst = crate::builders::grid_network(3, 3, 7);
        let before_beta = inst.slope_bound();
        let before_lmax = inst.latency_upper_bound();
        let e = EdgeId::from_index(2);
        inst.scale_latency(e, 25.0).unwrap();
        assert!(inst.slope_bound() >= before_beta);
        let fresh = rebuild(&inst);
        assert!((inst.latency_upper_bound() - fresh.latency_upper_bound()).abs() < 1e-12);
        inst.scale_latency(e, 1.0 / 25.0).unwrap();
        assert!((inst.slope_bound() - before_beta).abs() < 1e-9 * before_beta.max(1.0));
        assert!((inst.latency_upper_bound() - before_lmax).abs() < 1e-9 * before_lmax.max(1.0));
    }

    #[test]
    fn scale_latency_rejects_nan_negative_and_infinite_factors() {
        let mut inst = crate::builders::pigou();
        let before = inst.latency(EdgeId::from_index(0)).clone();
        for bad in [f64::NAN, -0.5, f64::INFINITY, f64::NEG_INFINITY] {
            let err = inst.scale_latency(EdgeId::from_index(0), bad).unwrap_err();
            assert!(matches!(err, NetError::InvalidLatency(_)), "factor {bad}");
            // The instance is untouched on error — the poisoned factor
            // never reaches the latency table.
            assert_eq!(inst.latency(EdgeId::from_index(0)), &before);
        }
        let err = inst.scale_latency(EdgeId::from_index(9), 2.0).unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    #[test]
    fn set_demand_rejects_nan_and_nonfinite() {
        let mut inst = crate::builders::multi_commodity_grid(2, 2, 3);
        let before: Vec<f64> = inst.commodities().iter().map(|c| c.demand).collect();
        for bad in [f64::NAN, -0.2, 0.0, f64::INFINITY] {
            let err = inst.set_demand(0, bad).unwrap_err();
            assert!(matches!(err, NetError::InvalidCommodity(_)), "demand {bad}");
            let after: Vec<f64> = inst.commodities().iter().map(|c| c.demand).collect();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn set_latency_rejects_invalid_inputs() {
        let mut inst = crate::builders::pigou();
        let err = inst
            .set_latency(EdgeId::from_index(0), Latency::Constant(-1.0))
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidLatency(_)));
        let err = inst
            .set_latency(EdgeId::from_index(9), Latency::identity())
            .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
        // Untouched on error.
        assert_eq!(inst.latency(EdgeId::from_index(0)), &Latency::identity());
    }

    #[test]
    fn set_demand_renormalises_other_commodities() {
        let mut inst = crate::builders::multi_commodity_grid(3, 3, 5);
        inst.set_demand(0, 0.75).unwrap();
        let demands: Vec<f64> = inst.commodities().iter().map(|c| c.demand).collect();
        assert!((demands[0] - 0.75).abs() < 1e-12);
        assert!((demands.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((demands[1] - 0.25).abs() < 1e-12);
        // Back to the even split.
        inst.set_demand(0, 0.5).unwrap();
        assert!((inst.commodities()[1].demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_demand_rejects_degenerate_targets() {
        let mut inst = crate::builders::multi_commodity_grid(3, 3, 5);
        assert!(inst.set_demand(0, 0.0).is_err());
        assert!(inst.set_demand(0, 1.0).is_err());
        assert!(inst.set_demand(0, f64::NAN).is_err());
        assert!(inst.set_demand(7, 0.5).is_err());
        // Untouched on error.
        assert!((inst.commodities()[0].demand - 0.5).abs() < 1e-12);

        let mut single = crate::builders::pigou();
        assert!(single.set_demand(0, 0.5).is_err());
        assert!(single.set_demand(0, 1.0).is_ok());
    }

    #[test]
    fn mutated_instance_matches_fresh_construction() {
        let mut inst = crate::builders::multi_commodity_grid(3, 3, 11);
        inst.set_demand(1, 0.3).unwrap();
        inst.scale_latency(EdgeId::from_index(0), 4.0).unwrap();
        inst.set_latency(EdgeId::from_index(3), Latency::Constant(2.5))
            .unwrap();
        let fresh = rebuild(&inst);
        assert_eq!(inst.slope_bound(), fresh.slope_bound());
        // ℓmax is computed on read by the same expression, so it
        // agrees bit for bit.
        assert_eq!(
            inst.latency_upper_bound().to_bits(),
            fresh.latency_upper_bound().to_bits()
        );
        assert_eq!(inst.latencies(), fresh.latencies());
        for (a, b) in inst.commodities().iter().zip(fresh.commodities()) {
            assert_eq!(a.demand, b.demand);
        }
        // CSR incidence untouched by mutation.
        for p in inst.path_ids() {
            assert_eq!(inst.path_edges(p), fresh.path_edges(p));
        }

        // Shrink the edge carrying β and an edge of the path carrying
        // ℓmax, so both maxima move to another carrier, then raise them
        // again; every step must equal a fresh build field for field,
        // both bounds included.
        let mut inst = crate::builders::multi_commodity_grid(3, 3, 11);
        let steepest = |inst: &Instance| {
            (0..inst.num_edges())
                .map(EdgeId::from_index)
                .max_by(|a, b| {
                    let slope = |e: &EdgeId| inst.latency(*e).slope_bound();
                    slope(a).total_cmp(&slope(b))
                })
                .unwrap()
        };
        let on_longest = |inst: &Instance| {
            let longest = inst
                .path_ids()
                .max_by(|a, b| {
                    let cap = |p: &PathId| cap_latency(inst.latencies(), inst.path_edges(*p));
                    cap(a).total_cmp(&cap(b))
                })
                .unwrap();
            inst.path_edges(longest)[0]
        };
        for (carrier, factor) in [
            ("β", 0.25),
            ("ℓmax", 0.25),
            ("β", 4.0),
            ("ℓmax", 0.5),
            ("ℓmax", 8.0),
            ("β", 0.5),
        ] {
            let e = if carrier == "β" {
                steepest(&inst)
            } else {
                on_longest(&inst)
            };
            let (beta, lmax) = (inst.slope_bound(), inst.latency_upper_bound());
            inst.scale_latency(e, factor).unwrap();
            let fresh = rebuild(&inst);
            assert_eq!(inst, fresh, "×{factor} on the {carrier} carrier");
            assert_eq!(inst.slope_bound().to_bits(), fresh.slope_bound().to_bits());
            assert_eq!(
                inst.latency_upper_bound().to_bits(),
                fresh.latency_upper_bound().to_bits()
            );
            if factor < 1.0 {
                let shrunk = if carrier == "β" {
                    inst.slope_bound() < beta
                } else {
                    inst.latency_upper_bound() < lmax
                };
                assert!(shrunk, "the {carrier} maximum moved");
            }
        }
        let steepest = steepest(&inst);
        inst.set_latency(steepest, Latency::Constant(0.5)).unwrap();
        let fresh = rebuild(&inst);
        assert_eq!(inst, fresh);
        assert_eq!(inst.slope_bound().to_bits(), fresh.slope_bound().to_bits());
        assert_eq!(
            inst.latency_upper_bound().to_bits(),
            fresh.latency_upper_bound().to_bits()
        );
    }

    #[test]
    fn explicit_paths_reproduce_enumeration() {
        // Handing the full enumerated path set back to the explicit
        // constructor must yield a bit-identical instance — the
        // invariant the differential backend tests rely on.
        let inst = crate::builders::multi_commodity_grid(3, 3, 9);
        let rebuilt = explicit(&inst, &path_lists(&inst));
        assert_eq!(rebuilt, inst);
        assert_eq!(rebuilt.incidence_count(), inst.incidence_count());
        assert_eq!(rebuilt.max_path_len(), inst.max_path_len());
        assert_eq!(
            rebuilt.slope_bound().to_bits(),
            inst.slope_bound().to_bits()
        );
        assert_eq!(
            rebuilt.latency_upper_bound().to_bits(),
            inst.latency_upper_bound().to_bits()
        );
        for p in inst.path_ids() {
            assert_eq!(rebuilt.path_edges(p), inst.path_edges(p));
            assert_eq!(rebuilt.commodity_of_path(p), inst.commodity_of_path(p));
        }
    }

    #[test]
    fn explicit_paths_accept_strict_subsets() {
        let inst = crate::builders::braess();
        // Keep only the first two of the three Braess paths; demands
        // and validation must still hold on the restriction.
        let subset = vec![vec![path_of(&inst, 0), path_of(&inst, 1)]];
        let restricted = explicit(&inst, &subset);
        assert_eq!(restricted.num_paths(), 2);
        for p in restricted.path_ids() {
            assert_eq!(restricted.path_edges(p), inst.path_edges(p));
        }
    }

    #[test]
    fn explicit_paths_validate_shape_and_endpoints() {
        let inst = crate::builders::braess();
        let graph = inst.graph().clone();
        let latencies = inst.latencies().to_vec();
        let commodities = inst.commodities().to_vec();
        // Path-list count must match the commodity count.
        let err = Instance::with_explicit_paths(
            graph.clone(),
            latencies.clone(),
            commodities.clone(),
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
        // Empty path list surfaces as NoPath.
        let err = Instance::with_explicit_paths(
            graph.clone(),
            latencies.clone(),
            commodities.clone(),
            &[vec![]],
        )
        .unwrap_err();
        assert_eq!(err, NetError::NoPath { commodity: 0 });
        // A path with the wrong endpoints is rejected: Braess paths all
        // run s→t, so a single-edge s→a path cannot serve commodity 0.
        let first_edge = inst.path_edges(PathId::from_index(0))[0];
        let stub = Path::new(&graph, vec![first_edge]).unwrap();
        let err = Instance::with_explicit_paths(graph, latencies, commodities, &[vec![stub]])
            .unwrap_err();
        assert!(matches!(err, NetError::Inconsistent(_)));
    }

    /// Per-commodity path lists of `inst`, in arena order.
    fn path_lists(inst: &Instance) -> Vec<Vec<Path>> {
        (0..inst.num_commodities())
            .map(|i| inst.commodity_paths(i).map(|p| path_of(inst, p)).collect())
            .collect()
    }

    fn explicit(inst: &Instance, lists: &[Vec<Path>]) -> Instance {
        Instance::with_explicit_paths(
            inst.graph().clone(),
            inst.latencies().to_vec(),
            inst.commodities().to_vec(),
            lists,
        )
        .unwrap()
    }

    #[test]
    fn push_path_matches_explicit_build() {
        // Start each commodity from its last enumerated path, then admit
        // the rest round-robin, so most pushes land mid-arena.
        let full = crate::builders::many_commodity_grid(4, 4, 3, 5);
        let all = path_lists(&full);
        let mut lists: Vec<Vec<Path>> = all
            .iter()
            .map(|ps| vec![ps[ps.len() - 1].clone()])
            .collect();
        let mut grown = explicit(&full, &lists);
        let longest = all.iter().map(Vec::len).max().unwrap();
        for j in 0..longest - 1 {
            for (i, ps) in all.iter().enumerate() {
                let Some(p) = ps.get(j).filter(|_| j + 1 < ps.len()) else {
                    continue;
                };
                let id = grown.push_path(i, p.clone()).unwrap();
                assert_eq!(id.index(), grown.commodity_paths(i).end - 1);
                lists[i].push(p.clone());
                let fresh = explicit(&full, &lists);
                assert_eq!(grown, fresh, "after pushing path {j} of commodity {i}");
                assert_eq!(
                    grown.latency_upper_bound().to_bits(),
                    fresh.latency_upper_bound().to_bits()
                );
                assert_eq!(grown.slope_bound().to_bits(), fresh.slope_bound().to_bits());
            }
        }
        assert_eq!(grown.num_paths(), full.num_paths());
        assert!(grown.check_consistent().is_ok());
    }

    #[test]
    fn clone_shares_the_path_arena() {
        let inst = crate::builders::multi_commodity_grid(3, 3, 5);
        let clone = inst.clone();
        assert!(clone.shares_paths_with(&inst));
        assert!(Arc::ptr_eq(&clone.path_edge_ids, &inst.path_edge_ids));
        assert_eq!(Arc::strong_count(&inst.path_edge_ids), 2);
        // The per-instance state is owned, not shared.
        assert_ne!(clone.latencies.as_ptr(), inst.latencies.as_ptr());
        assert_eq!(clone, inst);
    }

    #[test]
    fn events_on_a_clone_leave_the_arena_shared() {
        let inst = crate::builders::multi_commodity_grid(3, 3, 5);
        // An independent copy (its own arena), equal field for field.
        let before = explicit(&inst, &path_lists(&inst));
        assert_eq!(before, inst);
        assert!(!before.shares_paths_with(&inst));

        let mut clone = inst.clone();
        clone
            .set_latency(EdgeId::from_index(3), Latency::Constant(2.5))
            .unwrap();
        clone.scale_latency(EdgeId::from_index(0), 4.0).unwrap();
        clone.set_demand(1, 0.3).unwrap();
        assert!(clone.shares_paths_with(&inst));
        assert_eq!(inst, before, "the original is untouched");
        assert_ne!(clone.latencies(), inst.latencies());
        assert_ne!(clone.commodities(), inst.commodities());
        assert_eq!(clone, rebuild(&clone), "the clone's bounds are exact");
    }

    #[test]
    fn push_path_on_a_clone_unshares_the_arena() {
        let full = crate::builders::many_commodity_grid(4, 4, 3, 5);
        let all = path_lists(&full);
        let mut lists: Vec<Vec<Path>> = all.iter().map(|ps| vec![ps[0].clone()]).collect();
        let original = explicit(&full, &lists);
        let before = explicit(&full, &lists);
        let mut grown = original.clone();

        // The first push copies the shared arena; the original keeps
        // its own, unchanged.
        grown.push_path(0, all[0][1].clone()).unwrap();
        lists[0].push(all[0][1].clone());
        assert!(!grown.shares_paths_with(&original));
        assert_eq!(original, before);
        assert_eq!(Arc::strong_count(&original.path_edge_ids), 1);
        assert_eq!(grown, explicit(&full, &lists));

        // Later pushes grow the now uniquely owned copy in place.
        let arena = Arc::as_ptr(&grown.path_edge_ids);
        for (i, ps) in all.iter().enumerate().skip(1) {
            grown.push_path(i, ps[1].clone()).unwrap();
            lists[i].push(ps[1].clone());
            assert_eq!(Arc::as_ptr(&grown.path_edge_ids), arena);
            assert_eq!(
                grown,
                explicit(&full, &lists),
                "after pushing to commodity {i}"
            );
        }
        assert_eq!(original, before);
        assert!(grown.check_consistent().is_ok());
    }

    #[test]
    fn push_path_rejects_bad_columns_untouched() {
        let inst = crate::builders::braess();
        let mut grown = explicit(&inst, &[vec![path_of(&inst, 0)]]);
        let before = grown.clone();
        let stub = Path::new(
            inst.graph(),
            vec![inst.path_edges(PathId::from_index(0))[0]],
        )
        .unwrap();
        assert!(matches!(
            grown.push_path(0, stub),
            Err(NetError::Inconsistent(_))
        ));
        assert!(matches!(
            grown.push_path(1, path_of(&inst, 1)),
            Err(NetError::InvalidCommodity(_))
        ));
        assert_eq!(grown, before);
    }

    #[test]
    fn check_consistent_rejects_malformed_rows_without_panicking() {
        let inst = crate::builders::braess();
        assert!(inst.check_consistent().is_ok());
        let mut bad = inst.clone();
        // Offsets that run backwards.
        bad.path_edge_offsets = Arc::new(vec![0, 5, 2, 7]);
        assert!(matches!(
            bad.check_consistent(),
            Err(NetError::Inconsistent(_))
        ));
        // An edge outside the graph.
        let mut bad = inst.clone();
        bad.path_edge_ids = Arc::new(
            [0, 2, 0, 4, 3, 1, 9]
                .into_iter()
                .map(EdgeId::from_index)
                .collect(),
        );
        assert!(matches!(
            bad.check_consistent(),
            Err(NetError::Inconsistent(_))
        ));
        // Ranges that point past the arena.
        let mut bad = inst.clone();
        bad.path_ranges = vec![0, 4];
        assert!(matches!(
            bad.check_consistent(),
            Err(NetError::Inconsistent(_))
        ));
    }

    #[test]
    fn commodity_of_path_at_range_boundaries() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        g.add_edge(s, t);
        g.add_edge(t, s);
        let inst = Instance::new(
            g,
            vec![Latency::identity(); 3],
            vec![Commodity::new(s, t, 0.7), Commodity::new(t, s, 0.3)],
        )
        .unwrap();
        assert_eq!(inst.num_paths(), 3);
        assert_eq!(inst.commodity_of_path(PathId::from_index(2)), 1);
    }
}
