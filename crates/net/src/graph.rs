//! Directed multigraph substrate.
//!
//! The Wardrop model is defined on a finite directed *multigraph*: two
//! nodes may be connected by several parallel edges with different
//! latency functions (the canonical "parallel links" instances of the
//! paper rely on this). This module provides a small, purpose-built
//! graph with stable integer identifiers and O(1) incidence lookups.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::NetError;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices assigned in insertion order.
///
/// # Examples
///
/// ```
/// use wardrop_net::graph::Graph;
///
/// let mut g = Graph::new();
/// let v = g.add_node();
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a raw index.
    ///
    /// Useful when reconstructing references to a known graph; the id is
    /// only meaningful for the graph it was created for.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a directed edge in a [`Graph`].
///
/// Edge ids are dense indices assigned in insertion order; parallel
/// edges receive distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an edge id from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge endpoint pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Tail (origin) node.
    pub from: NodeId,
    /// Head (destination) node.
    pub to: NodeId,
}

/// A finite directed multigraph.
///
/// Nodes and edges are created through [`Graph::add_node`] and
/// [`Graph::add_edge`] and referred to by dense ids. The graph stores
/// outgoing adjacency lists for path enumeration.
///
/// # Examples
///
/// ```
/// use wardrop_net::graph::Graph;
///
/// let mut g = Graph::new();
/// let s = g.add_node();
/// let t = g.add_node();
/// let e1 = g.add_edge(s, t);
/// let e2 = g.add_edge(s, t); // parallel edge
/// assert_ne!(e1, e2);
/// assert_eq!(g.out_edges(s).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    r#in: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            edges: Vec::with_capacity(edges),
            out: Vec::with_capacity(nodes),
            r#in: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.out.len() as u32);
        self.out.push(Vec::new());
        self.r#in.push(Vec::new());
        id
    }

    /// Adds `n` nodes and returns their ids in insertion order.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Adds a directed edge from `from` to `to` and returns its id.
    ///
    /// Parallel edges and self-loops are permitted at this layer;
    /// instance validation rejects self-loops because they can never
    /// appear on a simple source–sink path.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        assert!(
            from.index() < self.out.len(),
            "edge tail {from} is not a node of this graph"
        );
        assert!(
            to.index() < self.out.len(),
            "edge head {to} is not a node of this graph"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to });
        self.out[from.index()].push(id);
        self.r#in[to.index()].push(id);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the endpoints of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of this graph.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Returns true if `e` is an edge of this graph.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        e.index() < self.edges.len()
    }

    /// Returns true if `v` is a node of this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.out.len()
    }

    /// Outgoing edges of `v` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this graph.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.index()]
    }

    /// Incoming edges of `v` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this graph.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.r#in[v.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.out.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(|i| EdgeId(i as u32))
    }

    /// Iterates over `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), *e))
    }

    /// Checks that the adjacency lists are the ones the edge list
    /// builds: every edge's endpoints are nodes, and node `v`'s
    /// outgoing (incoming) list holds exactly the edges leaving
    /// (entering) `v`, in insertion order. [`Graph::add_edge`] keeps
    /// this by construction; a decoded graph carries all three lists
    /// verbatim and needs the check.
    ///
    /// # Errors
    ///
    /// [`NetError::Inconsistent`] naming the mismatch.
    pub fn check_consistent(&self) -> Result<(), NetError> {
        let n = self.out.len();
        if let Some((e, _)) = self
            .edges()
            .find(|(_, edge)| edge.from.index() >= n || edge.to.index() >= n)
        {
            return Err(NetError::Inconsistent(format!(
                "edge {e} has an endpoint outside the graph's {n} nodes"
            )));
        }
        let mut rebuilt = Graph::with_capacity(n, self.edges.len());
        rebuilt.add_nodes(n);
        for edge in &self.edges {
            rebuilt.add_edge(edge.from, edge.to);
        }
        if rebuilt != *self {
            return Err(NetError::Inconsistent(
                "adjacency lists disagree with the edge list".into(),
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn add_nodes_returns_all_ids() {
        let mut g = Graph::new();
        let ids = g.add_nodes(5);
        assert_eq!(ids.len(), 5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(ids[4].index(), 4);
    }

    #[test]
    fn add_edge_updates_incidence_lists() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        let e = g.add_edge(s, t);
        assert_eq!(g.edge(e), Edge { from: s, to: t });
        assert_eq!(g.out_edges(s), &[e]);
        assert_eq!(g.in_edges(t), &[e]);
        assert!(g.out_edges(t).is_empty());
        assert!(g.in_edges(s).is_empty());
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        let e1 = g.add_edge(s, t);
        let e2 = g.add_edge(s, t);
        assert_ne!(e1, e2);
        assert_eq!(g.out_edges(s).len(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "not a node")]
    fn add_edge_rejects_unknown_tail() {
        let mut g = Graph::new();
        let t = g.add_node();
        g.add_edge(NodeId::from_index(7), t);
    }

    #[test]
    fn display_is_nonempty() {
        let g = Graph::new();
        assert!(!format!("{g}").is_empty());
        assert!(!format!("{}", NodeId::from_index(3)).is_empty());
        assert!(!format!("{}", EdgeId::from_index(3)).is_empty());
    }

    #[test]
    fn iterators_cover_all_items() {
        let mut g = Graph::new();
        let vs = g.add_nodes(3);
        g.add_edge(vs[0], vs[1]);
        g.add_edge(vs[1], vs[2]);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.edge_ids().count(), 2);
        let pairs: Vec<_> = g.edges().collect();
        assert_eq!(pairs[1].1.from, vs[1]);
    }
}
