//! Recurrence (loop-carried dependency) analysis.
//!
//! Two related results are computed:
//!
//! * [`rec_mii`] — the recurrence-constrained minimum initiation interval.
//!   For every dependence cycle `c` with total latency `L(c)` and total
//!   iteration distance `D(c)`, a modulo schedule needs
//!   `II ≥ ⌈L(c) / D(c)⌉`; RecMII is the maximum over all cycles. It is
//!   computed exactly with a parametric longest-path feasibility check
//!   (binary search on `II`, Bellman–Ford positive-cycle detection on edge
//!   weights `lat(src) − II·dist(e)`), so cycles threading *multiple*
//!   loop-carried edges are handled correctly.
//! * [`enumerate_cycles`] — the explicit recurrence cycles used by the
//!   paper's Algorithm 1 (`GetRecurrenceCycles`) to label DVFS levels. Each
//!   loop-carried edge `u → v` is closed by every simple intra-iteration
//!   path `v ⇝ u`; enumeration is capped (the evaluated kernels have at most
//!   a handful of cycles).

use std::collections::HashSet;

use crate::graph::{Dfg, NodeId};

/// Safety cap on the number of enumerated recurrence cycles.
pub const MAX_CYCLES: usize = 4096;

/// One recurrence cycle of a DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceCycle {
    nodes: Vec<NodeId>,
    distance: u32,
}

impl RecurrenceCycle {
    /// Nodes on the cycle, starting at the head of the closing loop-carried
    /// edge, in dataflow order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Cycle length in nodes (equals total latency for single-cycle FUs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cycle is empty (never true for constructed cycles).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total iteration distance around the cycle.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// The minimum II this cycle alone imposes: `⌈len / distance⌉`.
    pub fn mii(&self) -> u32 {
        let len = self.nodes.len() as u32;
        len.div_ceil(self.distance.max(1))
    }
}

/// Summary of the recurrence structure of a DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceReport {
    cycles: Vec<RecurrenceCycle>,
    rec_mii: u32,
}

impl RecurrenceReport {
    /// Analyses `dfg`.
    pub fn new(dfg: &Dfg) -> Self {
        RecurrenceReport {
            cycles: enumerate_cycles(dfg),
            rec_mii: rec_mii(dfg),
        }
    }

    /// All enumerated recurrence cycles, longest first.
    pub fn cycles(&self) -> &[RecurrenceCycle] {
        &self.cycles
    }

    /// The recurrence-constrained minimum II.
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// Length in nodes of the longest recurrence cycle (0 if none).
    pub fn longest_len(&self) -> usize {
        self.cycles.first().map_or(0, RecurrenceCycle::len)
    }
}

/// Computes the recurrence-constrained minimum initiation interval.
///
/// Returns `1` when the graph has no loop-carried edges: iterations are then
/// independent and the II is bounded only by resources (ResMII).
pub fn rec_mii(dfg: &Dfg) -> u32 {
    if dfg.edges().all(|e| !e.kind().is_loop_carried()) {
        return 1;
    }
    // Upper bound: a simple cycle visits each node at most once and has
    // distance >= 1, so RecMII <= node_count.
    let mut lo = 1u32;
    let mut hi = dfg.node_count() as u32;
    debug_assert!(!has_positive_cycle(dfg, hi), "II = N must be feasible");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(dfg, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Bellman–Ford positive-cycle detection with edge weight
/// `lat(src) − ii·dist(e)` (longest-path orientation).
fn has_positive_cycle(dfg: &Dfg, ii: u32) -> bool {
    let n = dfg.node_count();
    let mut dist = vec![0i64; n];
    for round in 0..n {
        let mut changed = false;
        for e in dfg.edges() {
            let w =
                dfg.node(e.src()).op().latency() as i64 - ii as i64 * e.kind().distance() as i64;
            let cand = dist[e.src().index()] + w;
            if cand > dist[e.dst().index()] {
                dist[e.dst().index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n - 1 {
            return true;
        }
    }
    false
}

/// Enumerates recurrence cycles: for every loop-carried edge `u → v`, every
/// simple intra-iteration path `v ⇝ u` closes one cycle.
///
/// Cycles are deduplicated by node set and returned longest first (ties by
/// node ids), matching the deterministic needs of the DVFS labeling
/// algorithm. Enumeration stops after [`MAX_CYCLES`] cycles.
pub fn enumerate_cycles(dfg: &Dfg) -> Vec<RecurrenceCycle> {
    let mut cycles = Vec::new();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    for e in dfg.edges() {
        if !e.kind().is_loop_carried() {
            continue;
        }
        let (u, v, d) = (e.src(), e.dst(), e.kind().distance());
        if u == v {
            // Self-recurrence, e.g. an accumulator phi feeding itself.
            push_cycle(&mut cycles, &mut seen, vec![u], d);
            continue;
        }
        // DFS over data edges from v towards u.
        let mut path = vec![v];
        let mut on_path = vec![false; dfg.node_count()];
        on_path[v.index()] = true;
        dfs_paths(
            dfg,
            v,
            u,
            d,
            &mut path,
            &mut on_path,
            &mut cycles,
            &mut seen,
        );
        if cycles.len() >= MAX_CYCLES {
            break;
        }
    }
    cycles.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.nodes.cmp(&b.nodes)));
    cycles
}

/// Marks, by node index, every node on some recurrence cycle that
/// [`enumerate_cycles`] finds.
pub fn on_cycle(dfg: &Dfg) -> Vec<bool> {
    let mut marks = vec![false; dfg.node_count()];
    for cycle in enumerate_cycles(dfg) {
        for n in cycle.nodes() {
            marks[n.index()] = true;
        }
    }
    marks
}

#[allow(clippy::too_many_arguments)]
fn dfs_paths(
    dfg: &Dfg,
    cur: NodeId,
    target: NodeId,
    distance: u32,
    path: &mut Vec<NodeId>,
    on_path: &mut [bool],
    cycles: &mut Vec<RecurrenceCycle>,
    seen: &mut HashSet<Vec<NodeId>>,
) {
    if cycles.len() >= MAX_CYCLES {
        return;
    }
    if cur == target {
        push_cycle(cycles, seen, path.clone(), distance);
        return;
    }
    let mut succs: Vec<NodeId> = dfg.data_succs(cur).collect();
    succs.sort_unstable();
    succs.dedup();
    for s in succs {
        if on_path[s.index()] {
            continue;
        }
        on_path[s.index()] = true;
        path.push(s);
        dfs_paths(dfg, s, target, distance, path, on_path, cycles, seen);
        path.pop();
        on_path[s.index()] = false;
    }
}

fn push_cycle(
    cycles: &mut Vec<RecurrenceCycle>,
    seen: &mut HashSet<Vec<NodeId>>,
    nodes: Vec<NodeId>,
    distance: u32,
) {
    let mut key = nodes.clone();
    key.sort_unstable();
    if seen.insert(key) {
        cycles.push(RecurrenceCycle { nodes, distance });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::graph::EdgeKind;
    use crate::op::Opcode;

    /// Builds a ring of `len` nodes closed by a loop-carried edge of
    /// distance `dist`.
    fn ring(len: usize, dist: u32) -> Dfg {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..len)
            .map(|i| b.node(Opcode::Add, format!("r{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.edge(ids[len - 1], ids[0], EdgeKind::loop_carried(dist))
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn rec_mii_of_simple_ring() {
        assert_eq!(rec_mii(&ring(4, 1)), 4);
        assert_eq!(rec_mii(&ring(7, 1)), 7);
    }

    #[test]
    fn distance_divides_rec_mii() {
        assert_eq!(rec_mii(&ring(4, 2)), 2);
        assert_eq!(rec_mii(&ring(5, 2)), 3); // ceil(5/2)
        assert_eq!(rec_mii(&ring(4, 4)), 1);
    }

    #[test]
    fn acyclic_graph_has_rec_mii_one() {
        let mut b = DfgBuilder::new("acyc");
        let a = b.node(Opcode::Load, "a");
        let c = b.node(Opcode::Store, "c");
        b.data(a, c).unwrap();
        assert_eq!(rec_mii(&b.finish().unwrap()), 1);
    }

    #[test]
    fn longest_cycle_dominates() {
        // Two cycles sharing no nodes: lengths 3 and 5.
        let mut b = DfgBuilder::new("two");
        let xs: Vec<_> = (0..3)
            .map(|i| b.node(Opcode::Add, format!("x{i}")))
            .collect();
        let ys: Vec<_> = (0..5)
            .map(|i| b.node(Opcode::Mul, format!("y{i}")))
            .collect();
        b.data_chain(&xs).unwrap();
        b.data_chain(&ys).unwrap();
        b.carry(xs[2], xs[0]).unwrap();
        b.carry(ys[4], ys[0]).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(rec_mii(&g), 5);
        let report = RecurrenceReport::new(&g);
        assert_eq!(report.cycles().len(), 2);
        assert_eq!(report.longest_len(), 5);
        assert_eq!(report.cycles()[0].mii(), 5);
        assert_eq!(report.rec_mii(), 5);
    }

    #[test]
    fn multi_carried_edge_cycle_is_captured_by_rec_mii() {
        // a -> b (data), b -> a (carried, d=1) gives II >= 2;
        // additionally a -> b carried chain that forms a longer compound
        // cycle is still bounded by Bellman-Ford.
        let mut b = DfgBuilder::new("multi");
        let a = b.node(Opcode::Add, "a");
        let c = b.node(Opcode::Add, "c");
        let d = b.node(Opcode::Add, "d");
        b.data(a, c).unwrap();
        b.data(c, d).unwrap();
        b.carry(d, a).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(rec_mii(&g), 3);
    }

    #[test]
    fn self_recurrence_enumerates_unit_cycle() {
        let mut b = DfgBuilder::new("self");
        let acc = b.node(Opcode::Phi, "acc");
        let out = b.node(Opcode::Store, "out");
        b.data(acc, out).unwrap();
        b.carry(acc, acc).unwrap();
        let g = b.finish().unwrap();
        let cycles = enumerate_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert_eq!(cycles[0].mii(), 1);
    }

    #[test]
    fn shared_prefix_paths_enumerate_distinct_cycles() {
        // v -> m1 -> u and v -> m2 -> u, closed by u -> v carried.
        let mut b = DfgBuilder::new("branchy");
        let v = b.node(Opcode::Phi, "v");
        let m1 = b.node(Opcode::Add, "m1");
        let m2 = b.node(Opcode::Mul, "m2");
        let u = b.node(Opcode::Add, "u");
        b.data(v, m1).unwrap();
        b.data(v, m2).unwrap();
        b.data(m1, u).unwrap();
        b.data(m2, u).unwrap();
        b.carry(u, v).unwrap();
        let g = b.finish().unwrap();
        let cycles = enumerate_cycles(&g);
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 3));
        assert_eq!(rec_mii(&g), 3);
    }
}
