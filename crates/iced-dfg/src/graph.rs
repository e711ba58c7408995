//! The dataflow graph data structure.

use std::fmt;

use crate::error::DfgError;
use crate::op::Opcode;

/// Identifier of a node within a [`Dfg`].
///
/// Ids are dense indices assigned in insertion order; they are stable for the
/// lifetime of a graph (nodes are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a dense index.
    ///
    /// Ids are only meaningful for the graph they came from; callers are
    /// responsible for keeping indices in range.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl EdgeId {
    /// Dense index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an edge id from a dense index.
    ///
    /// Ids are only meaningful for the graph they came from; callers are
    /// responsible for keeping indices in range.
    pub fn from_index(index: usize) -> EdgeId {
        EdgeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Intra-iteration data dependency. The destination consumes the value the
    /// source produces in the same loop iteration.
    Data,
    /// Loop-carried (inter-iteration) dependency: the destination in iteration
    /// `i + distance` consumes the value produced in iteration `i`.
    LoopCarried {
        /// Iteration distance (≥ 1).
        distance: u32,
    },
}

impl EdgeKind {
    /// Convenience constructor for a loop-carried edge.
    ///
    /// Note: a distance of `0` is representable but will be rejected when the
    /// edge is added to a graph.
    pub fn loop_carried(distance: u32) -> Self {
        EdgeKind::LoopCarried { distance }
    }

    /// Iteration distance of the edge (`0` for intra-iteration data edges).
    pub fn distance(self) -> u32 {
        match self {
            EdgeKind::Data => 0,
            EdgeKind::LoopCarried { distance } => distance,
        }
    }

    /// Whether the edge crosses loop iterations.
    pub fn is_loop_carried(self) -> bool {
        matches!(self, EdgeKind::LoopCarried { .. })
    }
}

/// A DFG node: one operation executed on a CGRA functional unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    op: Opcode,
    label: String,
}

impl Node {
    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Operation the node performs.
    pub fn op(&self) -> Opcode {
        self.op
    }

    /// Human-readable label (e.g. `"x[i]*c[i]"`).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A DFG edge: a data dependency between two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    id: EdgeId,
    src: NodeId,
    dst: NodeId,
    kind: EdgeKind,
}

impl Edge {
    /// Edge identifier.
    pub fn id(&self) -> EdgeId {
        self.id
    }

    /// Producer node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Consumer node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Dependency kind.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }
}

/// A kernel dataflow graph.
///
/// Nodes are operations, edges are data dependencies; loop-carried
/// dependencies carry an iteration distance. The intra-iteration (data-edge)
/// subgraph is guaranteed acyclic by construction — recurrences can only
/// close through loop-carried edges, which is what makes the modulo-scheduling
/// analyses in [`crate::recurrence`] well-defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node (all kinds).
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node (all kinds).
    in_edges: Vec<Vec<EdgeId>>,
}

impl Dfg {
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        edges: Vec<Edge>,
    ) -> Result<Self, DfgError> {
        if nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        let mut out_edges = vec![Vec::new(); nodes.len()];
        let mut in_edges = vec![Vec::new(); nodes.len()];
        for e in &edges {
            out_edges[e.src.index()].push(e.id);
            in_edges[e.dst.index()].push(e.id);
        }
        let dfg = Dfg {
            name,
            nodes,
            edges,
            out_edges,
            in_edges,
        };
        dfg.validate()?;
        Ok(dfg)
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (data + loop-carried).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterator over all nodes in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &Node> + '_ {
        self.nodes.iter()
    }

    /// Iterator over all node ids in id order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + 'static {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edges in id order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Outgoing edges of `id` (all kinds).
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_edges[id.index()]
            .iter()
            .map(|e| &self.edges[e.index()])
    }

    /// Incoming edges of `id` (all kinds).
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges[id.index()]
            .iter()
            .map(|e| &self.edges[e.index()])
    }

    /// Successor nodes through intra-iteration data edges only.
    pub fn data_succs(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id)
            .filter(|e| !e.kind().is_loop_carried())
            .map(Edge::dst)
    }

    /// Number of nodes whose opcode satisfies `pred`.
    pub fn count_ops(&self, pred: impl Fn(Opcode) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(n.op())).count()
    }

    /// A topological order of the intra-iteration data DAG.
    ///
    /// Loop-carried edges are ignored, so the order always exists. Ties are
    /// broken by node id, making the order deterministic.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if !e.kind.is_loop_carried() {
                indeg[e.dst.index()] += 1;
            }
        }
        // Min-heap on id for determinism; graphs are small so a sorted Vec
        // scan is fine.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest from the back
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(NodeId(i as u32));
            let mut newly = Vec::new();
            for eid in &self.out_edges[i] {
                let e = &self.edges[eid.index()];
                if !e.kind.is_loop_carried() {
                    let d = e.dst.index();
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        newly.push(d);
                    }
                }
            }
            newly.sort_unstable();
            for d in newly.into_iter().rev() {
                let pos = ready.partition_point(|&x| x > d);
                ready.insert(pos, d);
            }
        }
        debug_assert_eq!(order.len(), n, "data subgraph must be a DAG");
        order
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns an error if an edge references an unknown node, a
    /// loop-carried edge has distance zero, a duplicate edge exists, or the
    /// intra-iteration data subgraph contains a cycle.
    pub fn validate(&self) -> Result<(), DfgError> {
        use std::collections::HashSet;
        let n = self.nodes.len() as u32;
        let mut seen = HashSet::new();
        for e in &self.edges {
            if e.src.0 >= n {
                return Err(DfgError::UnknownNode(e.src));
            }
            if e.dst.0 >= n {
                return Err(DfgError::UnknownNode(e.dst));
            }
            if e.kind.is_loop_carried() && e.kind.distance() == 0 {
                return Err(DfgError::ZeroDistance {
                    src: e.src,
                    dst: e.dst,
                });
            }
            if !seen.insert((e.src, e.dst, e.kind)) {
                return Err(DfgError::DuplicateEdge {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        // Kahn over data edges; leftovers indicate a data cycle.
        let mut indeg = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            if !e.kind.is_loop_carried() {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..self.nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = stack.pop() {
            visited += 1;
            for eid in &self.out_edges[i] {
                let e = &self.edges[eid.index()];
                if !e.kind.is_loop_carried() {
                    let d = e.dst.index();
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        stack.push(d);
                    }
                }
            }
        }
        if visited != self.nodes.len() {
            // Find one offending edge for the error message.
            let bad = self
                .edges
                .iter()
                .find(|e| !e.kind.is_loop_carried() && indeg[e.dst.index()] > 0)
                .expect("a data cycle implies a residual data edge");
            return Err(DfgError::DataCycle {
                src: bad.src,
                dst: bad.dst,
            });
        }
        Ok(())
    }

    /// The recurrence-constrained minimum initiation interval.
    ///
    /// Delegates to [`crate::recurrence::rec_mii`]. Returns `1` for graphs
    /// without loop-carried dependencies (the II is then bounded only by
    /// resources).
    pub fn rec_mii(&self) -> u32 {
        crate::recurrence::rec_mii(self)
    }
}

pub(crate) fn new_node(id: u32, op: Opcode, label: impl Into<String>) -> Node {
    Node {
        id: NodeId(id),
        op,
        label: label.into(),
    }
}

pub(crate) fn new_edge(id: u32, src: NodeId, dst: NodeId, kind: EdgeKind) -> Edge {
    Edge {
        id: EdgeId(id),
        src,
        dst,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let a = b.node(Opcode::Load, "a");
        let l = b.node(Opcode::Add, "l");
        let r = b.node(Opcode::Mul, "r");
        let j = b.node(Opcode::Store, "j");
        b.data(a, l).unwrap();
        b.data(a, r).unwrap();
        b.data(l, j).unwrap();
        b.data(r, j).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn topological_order_is_deterministic_and_valid() {
        let g = diamond();
        let order = g.topological_order();
        assert_eq!(order.len(), 4);
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, n) in order.iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        for e in g.edges() {
            if !e.kind().is_loop_carried() {
                assert!(pos[e.src().index()] < pos[e.dst().index()]);
            }
        }
        assert_eq!(order, g.topological_order());
    }

    #[test]
    fn data_cycle_is_rejected() {
        let mut b = DfgBuilder::new("cyc");
        let a = b.node(Opcode::Add, "a");
        let c = b.node(Opcode::Add, "c");
        b.data(a, c).unwrap();
        b.data(c, a).unwrap();
        match b.finish() {
            Err(DfgError::DataCycle { .. }) => {}
            other => panic!("expected DataCycle, got {other:?}"),
        }
    }

    #[test]
    fn zero_distance_rejected() {
        let mut b = DfgBuilder::new("z");
        let a = b.node(Opcode::Add, "a");
        let c = b.node(Opcode::Add, "c");
        b.data(a, c).unwrap();
        let err = b.edge(c, a, EdgeKind::loop_carried(0)).unwrap_err();
        assert!(matches!(err, DfgError::ZeroDistance { .. }));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = DfgBuilder::new("d");
        let a = b.node(Opcode::Add, "a");
        let c = b.node(Opcode::Add, "c");
        b.data(a, c).unwrap();
        let err = b.data(a, c).unwrap_err();
        assert!(matches!(err, DfgError::DuplicateEdge { .. }));
    }

    #[test]
    fn empty_graph_rejected() {
        let b = DfgBuilder::new("e");
        assert!(matches!(b.finish(), Err(DfgError::Empty)));
    }

    #[test]
    fn loop_carried_cycle_is_allowed() {
        let mut b = DfgBuilder::new("lc");
        let phi = b.node(Opcode::Phi, "phi");
        let add = b.node(Opcode::Add, "add");
        b.data(phi, add).unwrap();
        b.edge(add, phi, EdgeKind::loop_carried(1)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rec_mii(), 2);
    }

    #[test]
    fn data_pred_succ_filters_kinds() {
        let mut b = DfgBuilder::new("f");
        let phi = b.node(Opcode::Phi, "phi");
        let add = b.node(Opcode::Add, "add");
        b.data(phi, add).unwrap();
        b.edge(add, phi, EdgeKind::loop_carried(1)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.data_succs(phi).collect::<Vec<_>>(), vec![add]);
        assert_eq!(g.out_edges(add).count(), 1);
        assert_eq!(g.data_succs(add).count(), 0);
    }
}
