//! Loop-nest flattening: two-level (imperfect) loop nests → one loop body.
//!
//! CGRA modulo scheduling maps a *single* loop body, so multi-level loop
//! nests have to be flattened before mapping. A **perfect** nest — nothing
//! between the outer loop header and the inner loop — is just unrolling the
//! inner body by its trip count ([`flatten_perfect`]). The interesting case
//! is the **imperfect** nest:
//!
//! ```text
//! for i {            // outer iteration = one flattened loop body
//!     A;             // prologue, once per outer iteration
//!     for j in 0..T { B; }   // inner body, T copies
//!     C;             // epilogue, once per outer iteration
//! }
//! ```
//!
//! [`flatten_nest`] builds the flattened body from an *outer* DFG (holding
//! the prologue/epilogue nodes `A`/`C` and outer-carried recurrences) and an
//! *inner* DFG (the body `B` with its own intra- and loop-carried edges):
//!
//! * outer nodes appear once; outer data/carried edges are preserved
//!   verbatim (an outer-carried distance `d` stays distance `d` — outer
//!   iterations are the flattened iterations);
//! * the inner body is replicated `trip` times; an inner-carried edge with
//!   distance `d` from copy `i` becomes a data edge to copy `i + d` when it
//!   stays inside the nest, and wraps into an *outer*-carried edge with
//!   distance `(i + d) / trip` otherwise — the same redistribution rule as
//!   [`unroll`](crate::transform::unroll::unroll), because the inner
//!   recurrence now advances once per outer iteration;
//! * [`NestLink`]s glue the levels: prologue values feed the first or every
//!   inner copy, and the last (or every) inner copy feeds the epilogue.

use crate::builder::DfgBuilder;
use crate::error::DfgError;
use crate::graph::{Dfg, EdgeKind, NodeId};

/// A dataflow connection between the outer and inner level of a nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestLink {
    /// A prologue value consumed by the first inner copy only (e.g. an
    /// induction base address).
    PrologueToFirst {
        /// Node in the outer DFG producing the value.
        outer: NodeId,
        /// Node in the inner DFG consuming it.
        inner: NodeId,
    },
    /// A prologue value consumed by every inner copy (loop-invariant
    /// operand of the inner body).
    PrologueToAll {
        /// Node in the outer DFG producing the value.
        outer: NodeId,
        /// Node in the inner DFG consuming it.
        inner: NodeId,
    },
    /// The last inner copy's value consumed by the epilogue (e.g. the final
    /// partial sum of the inner reduction).
    LastToEpilogue {
        /// Node in the inner DFG producing the value.
        inner: NodeId,
        /// Node in the outer DFG consuming it.
        outer: NodeId,
    },
    /// Every inner copy's value consumed by the epilogue (tree-reduction
    /// style epilogues).
    AllToEpilogue {
        /// Node in the inner DFG producing the value.
        inner: NodeId,
        /// Node in the outer DFG consuming it.
        outer: NodeId,
    },
}

/// Flattens a *perfect* two-level nest: the inner body replicated by its
/// trip count with recurrence redistribution, nothing at the outer level.
///
/// # Errors
///
/// Returns [`DfgError::ZeroUnrollFactor`] for `trip == 0`.
pub fn flatten_perfect(inner: &Dfg, trip: u32) -> Result<Dfg, DfgError> {
    crate::transform::unroll(inner, &crate::transform::UnrollOptions::new(trip))
}

/// Flattens an *imperfect* two-level nest. See the module docs for the
/// construction; `links` glue the prologue/epilogue in `outer` to the
/// `trip` replicated copies of `inner`.
///
/// # Errors
///
/// * [`DfgError::ZeroUnrollFactor`] for `trip == 0`;
/// * [`DfgError::UnknownNode`] if a link references a node outside its DFG;
/// * [`DfgError::DataCycle`] if the links close an intra-iteration cycle
///   (e.g. an epilogue value feeding the prologue without a carried edge);
/// * any other construction error bubbled up from edge insertion.
pub fn flatten_nest(
    outer: &Dfg,
    inner: &Dfg,
    trip: u32,
    links: &[NestLink],
) -> Result<Dfg, DfgError> {
    if trip == 0 {
        return Err(DfgError::ZeroUnrollFactor);
    }
    for link in links {
        let (outer_ref, inner_ref) = match *link {
            NestLink::PrologueToFirst { outer, inner }
            | NestLink::PrologueToAll { outer, inner }
            | NestLink::LastToEpilogue { inner, outer }
            | NestLink::AllToEpilogue { inner, outer } => (outer, inner),
        };
        if outer_ref.index() >= outer.node_count() {
            return Err(DfgError::UnknownNode(outer_ref));
        }
        if inner_ref.index() >= inner.node_count() {
            return Err(DfgError::UnknownNode(inner_ref));
        }
    }
    let mut b = DfgBuilder::new(format!("{}+{}x{}", outer.name(), inner.name(), trip));
    // Outer nodes first, ids preserved in order.
    let outer_ids: Vec<NodeId> = outer
        .nodes()
        .map(|n| b.node(n.op(), n.label().to_string()))
        .collect();
    // trip copies of the inner body.
    let mut copy_of: Vec<Vec<NodeId>> = Vec::with_capacity(trip as usize);
    for j in 0..trip {
        copy_of.push(
            inner
                .nodes()
                .map(|n| b.node(n.op(), format!("{}#{}", n.label(), j)))
                .collect(),
        );
    }
    // Outer edges verbatim.
    for e in outer.edges() {
        let (s, d) = (outer_ids[e.src().index()], outer_ids[e.dst().index()]);
        b.edge_once(s, d, e.kind())?;
    }
    // Inner edges per copy, with carried-edge redistribution.
    for e in inner.edges() {
        match e.kind() {
            EdgeKind::Data => {
                for row in &copy_of {
                    b.edge_once(row[e.src().index()], row[e.dst().index()], e.kind())?;
                }
            }
            EdgeKind::LoopCarried { distance } => {
                for i in 0..trip {
                    let j = i + distance;
                    let (wrap, jj) = (j / trip, j % trip);
                    let s = copy_of[i as usize][e.src().index()];
                    let d = copy_of[jj as usize][e.dst().index()];
                    let kind = if wrap == 0 {
                        EdgeKind::Data
                    } else {
                        // The wrapped recurrence now advances once per
                        // *outer* iteration.
                        EdgeKind::loop_carried(wrap)
                    };
                    b.edge_once(s, d, kind)?;
                }
            }
        }
    }
    // Glue links.
    for link in links {
        match *link {
            NestLink::PrologueToFirst { outer, inner } => {
                b.edge_once(
                    outer_ids[outer.index()],
                    copy_of[0][inner.index()],
                    EdgeKind::Data,
                )?;
            }
            NestLink::PrologueToAll { outer, inner } => {
                for row in &copy_of {
                    b.edge_once(outer_ids[outer.index()], row[inner.index()], EdgeKind::Data)?;
                }
            }
            NestLink::LastToEpilogue { inner, outer } => {
                b.edge_once(
                    copy_of[trip as usize - 1][inner.index()],
                    outer_ids[outer.index()],
                    EdgeKind::Data,
                )?;
            }
            NestLink::AllToEpilogue { inner, outer } => {
                for row in &copy_of {
                    b.edge_once(row[inner.index()], outer_ids[outer.index()], EdgeKind::Data)?;
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

    /// Outer level: base-address load (prologue) and a store of the inner
    /// reduction (epilogue), with an outer-carried running total.
    fn outer_body() -> Dfg {
        let mut b = DfgBuilder::new("row");
        let base = b.node(Opcode::Load, "base");
        let tot = b.node(Opcode::Phi, "total");
        let upd = b.node(Opcode::Add, "upd");
        let st = b.node(Opcode::Store, "out[i]");
        b.data(tot, upd).unwrap();
        b.data(upd, st).unwrap();
        b.carry(upd, tot).unwrap();
        let _ = base;
        b.finish().unwrap()
    }

    /// Inner level: load/mul/accumulate with a serial recurrence.
    fn inner_body() -> Dfg {
        let mut b = DfgBuilder::new("dot");
        let x = b.node(Opcode::Load, "x");
        let m = b.node(Opcode::Mul, "m");
        let acc = b.node(Opcode::Phi, "acc");
        let add = b.node(Opcode::Add, "add");
        b.data(x, m).unwrap();
        b.data(m, add).unwrap();
        b.data(acc, add).unwrap();
        b.carry(add, acc).unwrap();
        b.finish().unwrap()
    }

    fn links() -> Vec<NestLink> {
        // base feeds every inner load; the last partial sum feeds the
        // outer update.
        vec![
            NestLink::PrologueToAll {
                outer: NodeId::from_index(0),
                inner: NodeId::from_index(0),
            },
            NestLink::LastToEpilogue {
                inner: NodeId::from_index(3),
                outer: NodeId::from_index(2),
            },
        ]
    }

    #[test]
    fn flatten_counts_nodes_and_validates() {
        let (o, i) = (outer_body(), inner_body());
        for trip in 1..=4u32 {
            let g = flatten_nest(&o, &i, trip, &links()).unwrap();
            g.validate().unwrap();
            assert_eq!(
                g.node_count(),
                o.node_count() + i.node_count() * trip as usize
            );
        }
    }

    #[test]
    fn inner_recurrence_becomes_outer_carried() {
        let (o, i) = (outer_body(), inner_body());
        let g = flatten_nest(&o, &i, 3, &links()).unwrap();
        // Inner serial recurrence phi->add (distance 1) over 3 copies: the
        // in-nest hops become data edges; exactly one wraps into an
        // outer-carried distance-1 edge, plus the outer total recurrence.
        let carried = g
            .edges()
            .filter(|e| matches!(e.kind(), EdgeKind::LoopCarried { .. }))
            .count();
        assert_eq!(carried, 2);
        // The flattened serial chain phi->add0->...->add2 raises RecMII.
        assert!(rec_mii(&g) >= 4, "rec_mii = {}", rec_mii(&g));
    }

    #[test]
    fn zero_trip_rejected() {
        let (o, i) = (outer_body(), inner_body());
        assert!(matches!(
            flatten_nest(&o, &i, 0, &links()),
            Err(DfgError::ZeroUnrollFactor)
        ));
    }

    #[test]
    fn out_of_range_link_rejected() {
        let (o, i) = (outer_body(), inner_body());
        let bad = vec![NestLink::PrologueToFirst {
            outer: NodeId::from_index(99),
            inner: NodeId::from_index(0),
        }];
        assert!(matches!(
            flatten_nest(&o, &i, 2, &bad),
            Err(DfgError::UnknownNode(_))
        ));
    }

    #[test]
    fn cycle_closing_links_rejected() {
        let (o, i) = (outer_body(), inner_body());
        // Epilogue store feeding the first inner load closes a data cycle
        // with LastToEpilogue.
        let bad = vec![
            NestLink::LastToEpilogue {
                inner: NodeId::from_index(3),
                outer: NodeId::from_index(3),
            },
            NestLink::PrologueToAll {
                outer: NodeId::from_index(3),
                inner: NodeId::from_index(1),
            },
        ];
        assert!(matches!(
            flatten_nest(&o, &i, 2, &bad),
            Err(DfgError::DataCycle { .. })
        ));
    }

    #[test]
    fn perfect_nest_is_unroll() {
        let i = inner_body();
        let g = flatten_perfect(&i, 4).unwrap();
        assert_eq!(g.node_count(), i.node_count() * 4);
        g.validate().unwrap();
    }
}
