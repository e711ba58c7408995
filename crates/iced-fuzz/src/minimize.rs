//! Greedy failure-preserving shrinking.
//!
//! When the harness finds a [`Bug`], the offending kernel is usually a
//! dozen-plus nodes of mostly-irrelevant structure.
//! [`minimize`] shrinks it by greedy deletion — drop a node (with its
//! edges), drop an edge — keeping each deletion only when the failure
//! *signature* survives, and repeating to a fixpoint. The result is the
//! small `.dfg` repro committed under the regression corpus.
//!
//! Everything here is deterministic: deletions are attempted in a fixed
//! order (highest node id first, then highest edge id first), so the same
//! input and the same predicate shrink to the same repro on every run and
//! any thread count.

use iced_dfg::{Dfg, DfgBuilder, NodeId};

use crate::harness::{Bug, Outcome};

/// The coarse failure signature the minimizer preserves.
///
/// Signatures intentionally drop detail (IIs, panic message suffixes,
/// node ids) so a shrink step that perturbs the numbers but keeps the
/// *kind* of failure still counts as the same bug.
pub fn signature(outcome: &Outcome) -> Option<String> {
    match outcome {
        Outcome::Fault(bug) => Some(match bug {
            Bug::Panic { stage, .. } => format!("panic:{stage}"),
            Bug::LowerBoundViolation { .. } => "lower_bound_violation".to_string(),
            Bug::DependencyViolation => "dependency_violation".to_string(),
            Bug::BackendDisagreement { .. } => "backend_disagreement".to_string(),
            Bug::EngineDivergence { .. } => "engine_divergence".to_string(),
            Bug::EngineRejectedMapping { .. } => "engine_rejected_mapping".to_string(),
            Bug::RoundTripMismatch => "round_trip_mismatch".to_string(),
        }),
        _ => None,
    }
}

/// Rebuilds `dfg` without node `victim`, densely renumbering the
/// survivors and dropping every edge touching the victim. Returns `None`
/// when the result is not a valid DFG (empty, or an edge rebuild fails).
pub fn delete_node(dfg: &Dfg, victim: NodeId) -> Option<Dfg> {
    if victim.index() >= dfg.node_count() || dfg.node_count() <= 1 {
        return None;
    }
    let mut b = DfgBuilder::new(dfg.name());
    // Dense renumber: survivors keep their relative order.
    let mut remap = vec![None; dfg.node_count()];
    for node in dfg.nodes() {
        if node.id() == victim {
            continue;
        }
        remap[node.id().index()] = Some(b.node(node.op(), node.label()));
    }
    for edge in dfg.edges() {
        let (Some(src), Some(dst)) = (remap[edge.src().index()], remap[edge.dst().index()]) else {
            continue;
        };
        b.edge(src, dst, edge.kind()).ok()?;
    }
    b.finish().ok()
}

/// Rebuilds `dfg` without its `victim`-th edge (by edge id order).
/// Returns `None` when the result is not a valid DFG.
pub fn delete_edge(dfg: &Dfg, victim: usize) -> Option<Dfg> {
    if victim >= dfg.edge_count() {
        return None;
    }
    let mut b = DfgBuilder::new(dfg.name());
    for node in dfg.nodes() {
        b.node(node.op(), node.label());
    }
    for (i, edge) in dfg.edges().enumerate() {
        if i == victim {
            continue;
        }
        b.edge(edge.src(), edge.dst(), edge.kind()).ok()?;
    }
    b.finish().ok()
}

/// What [`minimize`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeReport {
    /// The shrunk kernel (possibly the input, when nothing could go).
    pub dfg: Dfg,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Full greedy passes run (last one made no progress).
    pub passes: usize,
}

/// Greedily shrinks `dfg` while `check` stays `true`, up to `max_evals`
/// predicate evaluations.
///
/// `check` must return `true` exactly when a candidate still exhibits the
/// original failure signature (the caller composes [`signature`] with the
/// harness). The input itself is assumed to satisfy `check`; it is not
/// re-evaluated. Each pass tries deleting every node (highest id first,
/// so late scaffolding goes before early producers) and then every edge;
/// passes repeat until one makes no progress or the budget runs out.
pub fn minimize(
    dfg: &Dfg,
    mut check: impl FnMut(&Dfg) -> bool,
    max_evals: usize,
) -> MinimizeReport {
    let mut cur = dfg.clone();
    let mut evals = 0usize;
    let mut passes = 0usize;
    loop {
        passes += 1;
        let mut progressed = false;
        // Node deletions, highest id first.
        let mut idx = cur.node_count();
        while idx > 0 {
            idx -= 1;
            if evals >= max_evals {
                return MinimizeReport {
                    dfg: cur,
                    evals,
                    passes,
                };
            }
            let Some(candidate) = delete_node(&cur, NodeId::from_index(idx)) else {
                continue;
            };
            evals += 1;
            if check(&candidate) {
                cur = candidate;
                progressed = true;
                // Restart the scan below the deleted slot; ids above it
                // shifted down by one.
                idx = idx.min(cur.node_count());
            }
        }
        // Edge deletions, highest id first.
        let mut eidx = cur.edge_count();
        while eidx > 0 {
            eidx -= 1;
            if evals >= max_evals {
                return MinimizeReport {
                    dfg: cur,
                    evals,
                    passes,
                };
            }
            let Some(candidate) = delete_edge(&cur, eidx) else {
                continue;
            };
            evals += 1;
            if check(&candidate) {
                cur = candidate;
                progressed = true;
                eidx = eidx.min(cur.edge_count());
            }
        }
        if !progressed {
            return MinimizeReport {
                dfg: cur,
                evals,
                passes,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_dfg::Opcode;

    fn chain(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.node(Opcode::Add, format!("n{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn delete_node_renumbers_densely() {
        let g = chain(4);
        let shrunk = delete_node(&g, NodeId::from_index(3)).unwrap();
        assert_eq!(shrunk.node_count(), 3);
        assert_eq!(shrunk.edge_count(), 2);
        shrunk.validate().unwrap();
    }

    #[test]
    fn delete_last_node_refused() {
        let mut b = DfgBuilder::new("one");
        b.node(Opcode::Add, "only");
        let g = b.finish().unwrap();
        assert!(delete_node(&g, NodeId::from_index(0)).is_none());
    }

    #[test]
    fn delete_edge_drops_exactly_one() {
        let g = chain(4);
        let shrunk = delete_edge(&g, 1).unwrap();
        assert_eq!(shrunk.node_count(), 4);
        assert_eq!(shrunk.edge_count(), 2);
    }

    #[test]
    fn minimize_shrinks_to_predicate_core() {
        // "Bug" = graph still contains a node labelled n1. Minimizer
        // should strip everything else down to that single node.
        let g = chain(8);
        let report = minimize(&g, |d| d.nodes().any(|n| n.label() == "n1"), 10_000);
        assert_eq!(report.dfg.node_count(), 1);
        assert_eq!(report.dfg.nodes().next().unwrap().label(), "n1");
        assert!(report.passes >= 1);
    }

    #[test]
    fn minimize_is_deterministic() {
        let g = chain(10);
        let pred = |d: &Dfg| d.node_count() >= 3 || d.nodes().any(|n| n.label() == "n0");
        let a = minimize(&g, pred, 10_000);
        let b = minimize(&g, pred, 10_000);
        assert_eq!(a, b);
        assert_eq!(a.dfg.canonical_hash(), b.dfg.canonical_hash());
    }

    #[test]
    fn minimize_respects_budget() {
        let g = chain(12);
        let report = minimize(&g, |_| false, 5);
        assert_eq!(report.evals, 5);
        assert_eq!(report.dfg.node_count(), 12);
    }
}
