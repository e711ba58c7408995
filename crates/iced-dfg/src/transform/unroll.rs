//! Generic DFG loop unrolling.

use std::collections::HashSet;

use crate::builder::DfgBuilder;
use crate::error::DfgError;
use crate::graph::{Dfg, EdgeKind, NodeId};

/// Options controlling [`unroll`].
#[derive(Debug, Clone, Default)]
pub struct UnrollOptions {
    factor: u32,
    shared: HashSet<NodeId>,
}

impl UnrollOptions {
    /// Unroll by `factor` (1 = identity).
    pub fn new(factor: u32) -> Self {
        UnrollOptions {
            factor,
            shared: HashSet::new(),
        }
    }

    /// Marks `node` as *shared*: it is not duplicated across unrolled copies.
    ///
    /// Typical shared nodes are loop-invariant loads and induction-variable
    /// bookkeeping that real compilers re-use across unrolled iterations.
    /// Shared nodes must not participate in any recurrence cycle.
    pub fn share(mut self, node: NodeId) -> Self {
        self.shared.insert(node);
        self
    }

    /// The configured unroll factor.
    pub fn factor(&self) -> u32 {
        self.factor
    }
}

/// Unrolls `dfg` by `opts.factor()`.
///
/// Copy `i` of the loop body computes iteration `k·n + i`. Intra-iteration
/// edges are replicated per copy. A loop-carried edge `u → v` with distance
/// `d` becomes, for each copy `i`, an edge from copy `i` of `u` to copy
/// `(i + d) mod k` of `v`: an intra-iteration data edge when `i + d < k`,
/// otherwise a loop-carried edge with distance `(i + d) / k`. This is the
/// textbook unrolling semantics for modulo scheduling, and is what makes the
/// RecMII of a serialising accumulator grow with the unroll factor while
/// parallel recurrences keep theirs.
///
/// # Errors
///
/// Returns [`DfgError::ZeroUnrollFactor`] for factor 0, and
/// [`DfgError::UnsupportedControlFlow`] if a shared node lies on a
/// recurrence cycle (the collapse would create an intra-iteration cycle).
pub fn unroll(dfg: &Dfg, opts: &UnrollOptions) -> Result<Dfg, DfgError> {
    let k = opts.factor;
    if k == 0 {
        return Err(DfgError::ZeroUnrollFactor);
    }
    if k == 1 {
        return Ok(dfg.clone());
    }
    if !opts.shared.is_empty() {
        for cycle in crate::recurrence::enumerate_cycles(dfg) {
            if let Some(n) = cycle.nodes().iter().find(|n| opts.shared.contains(n)) {
                return Err(DfgError::UnsupportedControlFlow(format!(
                    "shared node {} lies on a recurrence cycle",
                    dfg.node(*n).label()
                )));
            }
        }
    }
    let mut b = DfgBuilder::new(format!("{}_x{}", dfg.name(), k));
    // copy_of[i][node] = id in the unrolled graph.
    let mut copy_of: Vec<Vec<NodeId>> = Vec::with_capacity(k as usize);
    let mut shared_ids: Vec<Option<NodeId>> = vec![None; dfg.node_count()];
    for i in 0..k {
        let mut row = Vec::with_capacity(dfg.node_count());
        for node in dfg.nodes() {
            if opts.shared.contains(&node.id()) {
                let id = *shared_ids[node.id().index()]
                    .get_or_insert_with(|| b.node(node.op(), node.label().to_string()));
                row.push(id);
            } else {
                row.push(b.node(node.op(), format!("{}@{}", node.label(), i)));
            }
        }
        copy_of.push(row);
    }
    for e in dfg.edges() {
        match e.kind() {
            EdgeKind::Data => {
                for row in copy_of.iter().take(k as usize) {
                    let (s, d) = (row[e.src().index()], row[e.dst().index()]);
                    b.edge_once(s, d, EdgeKind::Data)?;
                }
            }
            EdgeKind::LoopCarried { distance } => {
                for i in 0..k {
                    let j = i + distance;
                    let (wrap, jj) = (j / k, j % k);
                    let s = copy_of[i as usize][e.src().index()];
                    let d = copy_of[jj as usize][e.dst().index()];
                    let kind = if wrap == 0 {
                        EdgeKind::Data
                    } else {
                        EdgeKind::loop_carried(wrap)
                    };
                    if s == d && kind == EdgeKind::Data {
                        return Err(DfgError::UnsupportedControlFlow(format!(
                            "shared node {} lies on a recurrence cycle",
                            dfg.node(e.src()).label()
                        )));
                    }
                    b.edge_once(s, d, kind)?;
                }
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::recurrence::rec_mii;

    /// acc-chain kernel: phi -> add -> (carried) phi, with a feeder mul.
    fn accumulator() -> Dfg {
        let mut b = DfgBuilder::new("acc");
        let phi = b.node(Opcode::Phi, "acc");
        let x = b.node(Opcode::Load, "x");
        let m = b.node(Opcode::Mul, "m");
        let add = b.node(Opcode::Add, "add");
        b.data(x, m).unwrap();
        b.data(m, add).unwrap();
        b.data(phi, add).unwrap();
        b.carry(add, phi).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn factor_one_is_identity() {
        let g = accumulator();
        let u = unroll(&g, &UnrollOptions::new(1)).unwrap();
        assert_eq!(u.node_count(), g.node_count());
        assert_eq!(u.edge_count(), g.edge_count());
    }

    #[test]
    fn factor_zero_rejected() {
        let g = accumulator();
        assert!(matches!(
            unroll(&g, &UnrollOptions::new(0)),
            Err(DfgError::ZeroUnrollFactor)
        ));
    }

    #[test]
    fn serial_accumulator_rec_mii_grows() {
        let g = accumulator();
        assert_eq!(rec_mii(&g), 2); // phi -> add -> phi
        let u2 = unroll(&g, &UnrollOptions::new(2)).unwrap();
        // Chain phi0 -> add0 -> phi1 -> add1 -> (carried) phi0: length 4.
        assert_eq!(u2.node_count(), 8);
        assert_eq!(rec_mii(&u2), 4);
        let u4 = unroll(&g, &UnrollOptions::new(4)).unwrap();
        assert_eq!(rec_mii(&u4), 8);
    }

    #[test]
    fn distance_two_recurrence_interleaves() {
        // Two independent accumulator streams (distance 2): unroll by 2
        // separates them, keeping RecMII at 2.
        let mut b = DfgBuilder::new("d2");
        let phi = b.node(Opcode::Phi, "acc");
        let add = b.node(Opcode::Add, "add");
        b.data(phi, add).unwrap();
        b.edge(add, phi, EdgeKind::loop_carried(2)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(rec_mii(&g), 1); // ceil(2/2)
        let u = unroll(&g, &UnrollOptions::new(2)).unwrap();
        assert_eq!(rec_mii(&u), 2); // each stream now a 2-cycle of distance 1
        assert_eq!(u.node_count(), 4);
    }

    #[test]
    fn shared_nodes_are_not_duplicated() {
        let g = accumulator();
        let x = g
            .nodes()
            .find(|n| n.label() == "x")
            .map(|n| n.id())
            .unwrap();
        let u = unroll(&g, &UnrollOptions::new(2).share(x)).unwrap();
        // 4 nodes duplicated except x: 2*4 - 1 = 7.
        assert_eq!(u.node_count(), 7);
        assert_eq!(u.count_ops(|op| op == Opcode::Load), 1);
    }

    #[test]
    fn shared_node_on_recurrence_is_rejected() {
        let mut b = DfgBuilder::new("bad");
        let phi = b.node(Opcode::Phi, "acc");
        let add = b.node(Opcode::Add, "add");
        b.data(phi, add).unwrap();
        b.carry(add, phi).unwrap();
        let g = b.finish().unwrap();
        let opts = g
            .node_ids()
            .fold(UnrollOptions::new(2), UnrollOptions::share);
        assert!(matches!(
            unroll(&g, &opts),
            Err(DfgError::UnsupportedControlFlow(_))
        ));
    }

    #[test]
    fn unrolled_graph_validates() {
        let g = accumulator();
        for k in 2..=5 {
            let u = unroll(&g, &UnrollOptions::new(k)).unwrap();
            u.validate().unwrap();
            assert_eq!(u.node_count(), g.node_count() * k as usize);
        }
    }
}
