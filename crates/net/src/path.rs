//! Paths and path enumeration.
//!
//! The paper works in the *path formulation* of the Wardrop model: the
//! strategy space of commodity `i` is the set `P_i` of simple
//! source–sink paths, and the population state is a flow vector indexed
//! by paths. We therefore enumerate `P_i` explicitly (with a safety cap,
//! since the number of simple paths can be exponential) and store all
//! paths of all commodities in one arena indexed by [`PathId`]: the
//! flat path→edge CSR incidence of an [`crate::Instance`], into which
//! [`enumerate_simple_paths`] writes each path as it finds it. A
//! [`Path`] is the validated input form of a single path (an explicit
//! seed or a discovered column); instances never store one.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::{EdgeId, Graph, NodeId};

/// Identifier of a path in an instance's path arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// Returns the dense index of this path.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a path id from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        PathId(index as u32)
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A simple directed path: a sequence of consecutive edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    edges: Vec<EdgeId>,
}

impl Path {
    /// Creates a path from consecutive edges.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Inconsistent`] if the edge sequence is empty,
    /// uses an edge outside `graph`, is not consecutive in `graph`, or
    /// visits a node twice.
    pub fn new(graph: &Graph, edges: Vec<EdgeId>) -> Result<Self, NetError> {
        check_edge_sequence(graph, &edges)?;
        Ok(Path { edges })
    }

    /// The edges of the path, in order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges, `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns true if the path has no edges (never constructible via
    /// [`Path::new`], provided for completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First node of the path.
    pub fn source(&self, graph: &Graph) -> NodeId {
        graph.edge(self.edges[0]).from
    }

    /// Last node of the path.
    pub fn sink(&self, graph: &Graph) -> NodeId {
        graph
            .edge(*self.edges.last().expect("paths are non-empty"))
            .to
    }

    /// Returns true if the path uses edge `e`.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }
}

/// Checks that `edges` is a simple path of `graph`: non-empty, every
/// edge inside the graph, consecutive, and visiting no node twice. The
/// one check every path goes through, whether it arrives as a
/// [`Path`] or as a decoded row of an instance's incidence.
///
/// # Errors
///
/// Returns [`NetError::Inconsistent`] naming the first violated
/// condition.
pub(crate) fn check_edge_sequence(graph: &Graph, edges: &[EdgeId]) -> Result<(), NetError> {
    if edges.is_empty() {
        return Err(NetError::Inconsistent("path must be non-empty".into()));
    }
    if let Some(e) = edges.iter().find(|e| !graph.contains_edge(**e)) {
        return Err(NetError::Inconsistent(format!(
            "path edge {} is outside the graph",
            e.index()
        )));
    }
    for w in edges.windows(2) {
        if graph.edge(w[0]).to != graph.edge(w[1]).from {
            return Err(NetError::Inconsistent(
                "path edges are not consecutive".into(),
            ));
        }
    }
    // The visited nodes are the first tail and every earlier head;
    // scanning them in place keeps validation allocation-free.
    let origin = graph.edge(edges[0]).from;
    for (j, &e) in edges.iter().enumerate() {
        let head = graph.edge(e).to;
        if head == origin || edges[..j].iter().any(|&f| graph.edge(f).to == head) {
            return Err(NetError::Inconsistent("path revisits a node".into()));
        }
    }
    Ok(())
}

/// The offset that ends a CSR row whose last edge is `ids`' last entry.
///
/// # Errors
///
/// Returns [`NetError::Inconsistent`] if it leaves the `u32` range.
pub(crate) fn row_end(ids: &[EdgeId]) -> Result<u32, NetError> {
    u32::try_from(ids.len())
        .map_err(|_| NetError::Inconsistent("path-edge incidence exceeds u32 range".into()))
}

/// Enumerates all simple `source → sink` paths of `graph` straight into
/// a CSR path→edge incidence: each path found appends its edges to
/// `ids` and its end offset to `offsets`. No vector is allocated per
/// path.
///
/// `offsets` must hold the row ends of what `ids` already holds,
/// starting with a `0` (so `offsets.last() == ids.len()`); the rows
/// appended follow them. Paths are produced in depth-first order,
/// following edge insertion order at each node, so enumeration is
/// deterministic. Returns the number of paths appended.
///
/// # Errors
///
/// Returns [`NetError::TooManyPaths`] (with `commodity = usize::MAX`,
/// rewritten by the instance builder) once more than `cap` paths have
/// been found, and [`NetError::Inconsistent`] if the incidence would
/// leave the `u32` offset range. On error both buffers are truncated
/// back to their lengths on entry.
pub fn enumerate_simple_paths(
    graph: &Graph,
    source: NodeId,
    sink: NodeId,
    cap: usize,
    offsets: &mut Vec<u32>,
    ids: &mut Vec<EdgeId>,
) -> Result<usize, NetError> {
    debug_assert_eq!(
        offsets.last().map(|&o| o as usize),
        Some(ids.len()),
        "offsets must end at the rows already in ids"
    );
    let (rows_before, ids_before) = (offsets.len(), ids.len());
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    let mut on_stack = vec![false; graph.node_count()];
    on_stack[source.index()] = true;

    // Iterative DFS over out-edge indices to avoid recursion limits on
    // deep graphs: frame = (node, next out-edge index to try).
    let mut frames: Vec<(NodeId, usize)> = vec![(source, 0)];
    let mut found = 0;
    while let Some((node, idx)) = frames.last_mut() {
        let node = *node;
        let out = graph.out_edges(node);
        if *idx >= out.len() {
            frames.pop();
            on_stack[node.index()] = false;
            edge_stack.pop();
            continue;
        }
        let e = out[*idx];
        *idx += 1;
        let head = graph.edge(e).to;
        if on_stack[head.index()] {
            continue;
        }
        if head == sink {
            found += 1;
            ids.extend_from_slice(&edge_stack);
            ids.push(e);
            let end = if found > cap {
                Err(NetError::TooManyPaths {
                    commodity: usize::MAX,
                    cap,
                })
            } else {
                row_end(ids)
            };
            match end {
                Ok(end) => offsets.push(end),
                Err(err) => {
                    offsets.truncate(rows_before);
                    ids.truncate(ids_before);
                    return Err(err);
                }
            }
            continue;
        }
        edge_stack.push(e);
        on_stack[head.index()] = true;
        frames.push((head, 0));
    }
    // The source frame pops an extra sentinel from edge_stack; guard by
    // construction: we only push edges when descending, and pop exactly
    // when a frame is exhausted, so the stacks stay balanced.
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paths [`enumerate_simple_paths`] writes, decoded from its
    /// rows.
    fn enumerate(g: &Graph, s: NodeId, t: NodeId, cap: usize) -> Result<Vec<Path>, NetError> {
        let (mut offsets, mut ids) = (vec![0], Vec::new());
        let found = enumerate_simple_paths(g, s, t, cap, &mut offsets, &mut ids)?;
        assert_eq!(offsets.len(), found + 1);
        Ok(offsets
            .windows(2)
            .map(|w| Path::new(g, ids[w[0] as usize..w[1] as usize].to_vec()).unwrap())
            .collect())
    }

    fn diamond() -> (Graph, NodeId, NodeId) {
        // s -> a -> t, s -> b -> t, plus a -> b chord.
        let mut g = Graph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, t);
        g.add_edge(b, t);
        g.add_edge(a, b);
        (g, s, t)
    }

    #[test]
    fn enumerates_all_simple_paths_in_diamond() {
        let (g, s, t) = diamond();
        let paths = enumerate(&g, s, t, 100).unwrap();
        // s-a-t, s-a-b-t, s-b-t
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(p.source(&g), s);
            assert_eq!(p.sink(&g), t);
        }
    }

    #[test]
    fn parallel_edges_give_distinct_paths() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        g.add_edge(s, t);
        g.add_edge(s, t);
        let paths = enumerate(&g, s, t, 100).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn cycle_does_not_trap_enumeration() {
        let mut g = Graph::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a);
        g.add_edge(a, s); // back edge forming a cycle
        g.add_edge(a, t);
        let paths = enumerate(&g, s, t, 100).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    fn cap_is_enforced() {
        let (g, s, t) = diamond();
        let err = enumerate(&g, s, t, 2).unwrap_err();
        assert!(matches!(err, NetError::TooManyPaths { cap: 2, .. }));
    }

    #[test]
    fn no_path_yields_empty_vec() {
        let mut g = Graph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_node(); // isolated
        let paths = enumerate(&g, s, t, 100).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn path_new_validates_consecutiveness() {
        let (g, s, t) = diamond();
        let e_sa = g.out_edges(s)[0];
        let e_bt = g.out_edges(NodeId::from_index(2))[0];
        assert!(Path::new(&g, vec![e_sa, e_bt]).is_err());
        let e_at = g.out_edges(NodeId::from_index(1))[0];
        let p = Path::new(&g, vec![e_sa, e_at]).unwrap();
        assert_eq!(p.source(&g), s);
        assert_eq!(p.sink(&g), t);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn enumeration_appends_rows_and_truncates_on_error() {
        let (g, s, t) = diamond();
        let (mut offsets, mut ids) = (vec![0, 1], vec![EdgeId::from_index(0)]);
        assert_eq!(
            enumerate_simple_paths(&g, s, t, 100, &mut offsets, &mut ids).unwrap(),
            3
        );
        // s-a-t, s-a-b-t, s-b-t after the existing one-edge row.
        assert_eq!(offsets, vec![0, 1, 3, 6, 8]);
        assert_eq!(ids[1..3], [EdgeId::from_index(0), EdgeId::from_index(2)]);
        let (before_offsets, before_ids) = (offsets.clone(), ids.clone());
        let err = enumerate_simple_paths(&g, s, t, 2, &mut offsets, &mut ids).unwrap_err();
        assert!(matches!(err, NetError::TooManyPaths { cap: 2, .. }));
        assert_eq!((offsets, ids), (before_offsets, before_ids));
    }

    #[test]
    fn path_new_rejects_edges_outside_the_graph() {
        let (g, s, _) = diamond();
        let e_sa = g.out_edges(s)[0];
        assert!(matches!(
            Path::new(&g, vec![e_sa, EdgeId::from_index(5)]),
            Err(NetError::Inconsistent(_))
        ));
    }

    #[test]
    fn path_new_rejects_empty() {
        let (g, _, _) = diamond();
        assert!(Path::new(&g, vec![]).is_err());
    }

    #[test]
    fn path_new_rejects_node_revisit() {
        let mut g = Graph::new();
        let s = g.add_node();
        let a = g.add_node();
        let e1 = g.add_edge(s, a);
        let e2 = g.add_edge(a, s);
        assert!(Path::new(&g, vec![e1, e2]).is_err());
    }

    #[test]
    fn contains_reports_edge_membership() {
        let (g, s, t) = diamond();
        let paths = enumerate(&g, s, t, 100).unwrap();
        // The diamond has no 1-edge path; every path has ≥ 2 edges.
        assert!(paths.iter().all(|p| p.len() >= 2));
        // s-b-t uses edge 1 (s->b) and edge 3 (b->t) but not edge 0 (s->a).
        let sbt = paths
            .iter()
            .find(|p| p.edges()[0] == EdgeId::from_index(1))
            .unwrap();
        assert!(sbt.contains(EdgeId::from_index(3)));
        assert!(!sbt.contains(EdgeId::from_index(0)));
    }

    #[test]
    fn deep_line_graph_enumerates_without_stack_overflow() {
        let mut g = Graph::new();
        let nodes = g.add_nodes(10_001);
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let paths = enumerate(&g, nodes[0], nodes[10_000], 10).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 10_000);
    }

    #[test]
    fn display_path_id() {
        assert_eq!(format!("{}", PathId::from_index(4)), "P4");
    }
}
