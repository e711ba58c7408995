//! Incremental construction of [`Dfg`] values.

use crate::error::DfgError;
use crate::graph::{new_edge, new_node, Dfg, Edge, EdgeKind, Node, NodeId};
use crate::op::Opcode;

/// Builder for [`Dfg`] graphs.
///
/// Nodes receive dense ids in insertion order. Edge-level invariants
/// (known endpoints, positive loop-carried distance, no duplicates) are
/// checked eagerly; the data-DAG invariant is checked by [`finish`].
///
/// [`finish`]: DfgBuilder::finish
///
/// # Example
///
/// ```
/// use iced_dfg::{DfgBuilder, Opcode};
///
/// # fn main() -> Result<(), iced_dfg::DfgError> {
/// let mut b = DfgBuilder::new("axpy");
/// let x = b.node(Opcode::Load, "x[i]");
/// let y = b.node(Opcode::Load, "y[i]");
/// let m = b.node(Opcode::Mul, "a*x");
/// let s = b.node(Opcode::Add, "+y");
/// let st = b.node(Opcode::Store, "y[i]=");
/// b.data_chain(&[x, m, s, st])?;
/// b.data(y, s)?;
/// let dfg = b.finish()?;
/// assert_eq!(dfg.node_count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl DfgBuilder {
    /// Creates an empty builder for a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    pub fn node(&mut self, op: Opcode, label: impl Into<String>) -> NodeId {
        let id = self.nodes.len() as u32;
        self.nodes.push(new_node(id, op, label));
        NodeId(id)
    }

    /// Adds an edge of the given kind.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, the edge duplicates an
    /// existing one, or a loop-carried edge has distance zero.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> Result<(), DfgError> {
        let n = self.nodes.len() as u32;
        if src.0 >= n {
            return Err(DfgError::UnknownNode(src));
        }
        if dst.0 >= n {
            return Err(DfgError::UnknownNode(dst));
        }
        if kind.is_loop_carried() && kind.distance() == 0 {
            return Err(DfgError::ZeroDistance { src, dst });
        }
        if self
            .edges
            .iter()
            .any(|e| e.src() == src && e.dst() == dst && e.kind() == kind)
        {
            return Err(DfgError::DuplicateEdge { src, dst });
        }
        let id = self.edges.len() as u32;
        self.edges.push(new_edge(id, src, dst, kind));
        Ok(())
    }

    /// Adds an edge unless an identical one exists (transforms and
    /// generators whose endpoints may coincide).
    ///
    /// # Errors
    ///
    /// Same conditions as [`edge`](DfgBuilder::edge), less the duplicate.
    pub fn edge_once(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> Result<(), DfgError> {
        match self.edge(src, dst, kind) {
            Ok(()) | Err(DfgError::DuplicateEdge { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Adds an intra-iteration data edge.
    ///
    /// # Errors
    ///
    /// Same conditions as [`edge`](DfgBuilder::edge).
    pub fn data(&mut self, src: NodeId, dst: NodeId) -> Result<(), DfgError> {
        self.edge(src, dst, EdgeKind::Data)
    }

    /// Adds a loop-carried edge with iteration distance 1 (the common case).
    ///
    /// # Errors
    ///
    /// Same conditions as [`edge`](DfgBuilder::edge).
    pub fn carry(&mut self, src: NodeId, dst: NodeId) -> Result<(), DfgError> {
        self.edge(src, dst, EdgeKind::loop_carried(1))
    }

    /// Adds data edges along `nodes` forming a chain `n0 -> n1 -> …`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`edge`](DfgBuilder::edge).
    pub fn data_chain(&mut self, nodes: &[NodeId]) -> Result<(), DfgError> {
        for pair in nodes.windows(2) {
            self.data(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Finishes construction and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Empty`] for a node-less graph or
    /// [`DfgError::DataCycle`] if intra-iteration edges form a cycle.
    pub fn finish(self) -> Result<Dfg, DfgError> {
        Dfg::from_parts(self.name, self.nodes, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_builds_linear_edges() {
        let mut b = DfgBuilder::new("chain");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.node(Opcode::Add, format!("a{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn unknown_node_is_reported() {
        let mut b = DfgBuilder::new("u");
        let a = b.node(Opcode::Add, "a");
        let ghost = NodeId(42);
        assert_eq!(b.data(a, ghost).unwrap_err(), DfgError::UnknownNode(ghost));
    }

    #[test]
    fn counts_track_insertions() {
        let mut b = DfgBuilder::new("c");
        assert_eq!(b.node_count(), 0);
        let a = b.node(Opcode::Add, "a");
        let c = b.node(Opcode::Mul, "c");
        b.data(a, c).unwrap();
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.edge_count(), 1);
    }
}
