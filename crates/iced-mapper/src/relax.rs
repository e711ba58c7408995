//! Per-tile DVFS and power-gating post-passes over a conventional mapping.
//!
//! [`relax_per_tile`] models the paper's *Per-tile DVFS + Power-gating*
//! comparator — UE-CGRA's fine-grained DVFS upgraded to a spatio-temporal
//! CGRA. Given a baseline (all-normal) mapping, each tile is independently
//! slowed to the lowest legal rate or gated when idle. A rate divisor `r`
//! is legal for a tile when (paper §II-B's tile9-vs-tile0 discussion):
//!
//! 1. **No recurrence node** — the tile hosts no DFG node on any recurrence
//!    cycle; slowing such a node would stretch the cycle beyond `II·distance`
//!    and destroy the II. Off-cycle delays are absorbed by the
//!    predication-based dataflow (results simply become valid whole
//!    iterations later).
//! 2. **Port capacity** — bucketing the tile's scheduled events by slow
//!    window (`r` base cycles), at most one FU op falls in any window and at
//!    most one departure per outgoing link per window: a slow crossbar can
//!    drive each port once per slow cycle.
//! 3. **Operand phase** — every input of every op on the tile has arrived
//!    by the start of the op's slow window. An operand landing mid-window
//!    (the paper's tile0: inputs at cycle 0 *and* cycle 3) cannot be
//!    sampled by the slow clock edge without skewing operand iterations.
//!
//! Idle tiles (no ops, no driven hops) are power-gated. [`power_gate_idle`]
//! applies only the gating step — the paper's *baseline + power-gating*
//! ablation (~1.12× energy efficiency on its own).

use std::collections::{HashMap, HashSet};

use iced_arch::{Dir, DvfsLevel, TileId};
use iced_dfg::{recurrence, Dfg, NodeId};

use crate::mapping::Mapping;

/// Applies per-tile DVFS + power-gating to a conventional mapping.
///
/// The input is expected to come from [`map_baseline`](crate::map_baseline)
/// (every tile at `normal`); the returned mapping has identical placement,
/// routing, and II, with only `tile_level` refined per tile.
pub fn relax_per_tile(dfg: &Dfg, mapping: &Mapping) -> Mapping {
    let mut out = mapping.clone();
    let on_cycle = recurrence::on_cycle(dfg);
    let ii = mapping.ii();
    for tile in mapping.config().tiles() {
        let events = TileEvents::collect(dfg, mapping, tile);
        if events.is_idle() {
            out.set_tile_level(tile, DvfsLevel::PowerGated);
            continue;
        }
        let mut chosen = DvfsLevel::Normal;
        for level in [DvfsLevel::Rest, DvfsLevel::Relax] {
            let r = level.rate_divisor().expect("active level");
            if ii.is_multiple_of(r) && events.legal_at(r, ii, &on_cycle) {
                chosen = level;
                break;
            }
        }
        out.set_tile_level(tile, chosen);
    }
    out
}

/// Final island-level adjustment of a DVFS-aware mapping (the paper's
/// "the final DVFS level of each DFG node can still be adjusted by the
/// heuristic mapping algorithm", §IV-A).
///
/// Algorithm 2 pins an island to `normal` the moment a route is committed
/// through it at base-clock granularity, even when the island hosts
/// nothing but a handful of slack-rich forwards. This pass revisits every
/// `normal` island of the finished mapping and lowers it to the slowest
/// rate at which **all** of its tiles satisfy the per-tile legality rules
/// (no recurrence nodes, port capacity, operand phase) — the same
/// predication-based argument that justifies the per-tile comparator.
/// Islands at `relax`/`rest` were deliberate Algorithm-2 choices and are
/// left alone.
pub fn relax_islands(dfg: &Dfg, mapping: &Mapping) -> Mapping {
    let mut out = mapping.clone();
    let on_cycle = recurrence::on_cycle(dfg);
    let ii = mapping.ii();
    let cfg = mapping.config().clone();
    for island in cfg.islands() {
        if mapping.island_level(island) != DvfsLevel::Normal {
            continue;
        }
        let tiles = cfg.island_tiles(island);
        let events: Vec<TileEvents> = tiles
            .iter()
            .map(|&t| TileEvents::collect(dfg, mapping, t))
            .collect();
        if events.iter().all(TileEvents::is_idle) {
            // Never happens for mapper output (idle islands are gated), but
            // keeps the pass total for hand-built mappings.
            for &t in &tiles {
                out.set_tile_level(t, DvfsLevel::PowerGated);
            }
            continue;
        }
        for level in [DvfsLevel::Rest, DvfsLevel::Relax] {
            let r = level.rate_divisor().expect("active level");
            if ii.is_multiple_of(r) && events.iter().all(|e| e.legal_at(r, ii, &on_cycle)) {
                for &t in &tiles {
                    out.set_tile_level(t, level);
                }
                break;
            }
        }
    }
    out
}

/// Gates idle tiles, leaving busy tiles at `normal` (baseline + PG).
pub fn power_gate_idle(dfg: &Dfg, mapping: &Mapping) -> Mapping {
    let mut out = mapping.clone();
    for tile in mapping.config().tiles() {
        if TileEvents::collect(dfg, mapping, tile).is_idle() {
            out.set_tile_level(tile, DvfsLevel::PowerGated);
        }
    }
    out
}

/// The scheduled activity of one tile within a modulo period.
struct TileEvents {
    /// (node, start) of FU ops on this tile.
    ops: Vec<(NodeId, u64)>,
    /// Departure cycles per outgoing link.
    departures: Vec<(Dir, u64)>,
    /// Per op: effective operand arrival times (already shifted by
    /// `distance·II` for loop-carried inputs, so they are comparable with
    /// the op's own start on the absolute axis).
    operand_arrivals: HashMap<NodeId, Vec<i64>>,
}

impl TileEvents {
    fn collect(dfg: &Dfg, mapping: &Mapping, tile: TileId) -> Self {
        let ii = mapping.ii() as i64;
        let mut ops = Vec::new();
        let mut operand_arrivals: HashMap<NodeId, Vec<i64>> = HashMap::new();
        for node in dfg.node_ids() {
            let p = mapping.placement(node);
            if p.tile == tile {
                ops.push((node, p.start));
                operand_arrivals.entry(node).or_default();
            }
        }
        for r in mapping.routes() {
            let e = dfg.edge(r.edge);
            let dst_p = mapping.placement(e.dst());
            if dst_p.tile == tile {
                // Shift loop-carried arrivals back into the consumer's
                // iteration-0 frame.
                let eff = r.arrival as i64 - e.kind().distance() as i64 * ii;
                operand_arrivals.entry(e.dst()).or_default().push(eff);
            }
        }
        let mut departures = Vec::new();
        for r in mapping.routes() {
            for h in &r.hops {
                if h.from == tile {
                    departures.push((h.dir, h.depart));
                }
            }
        }
        TileEvents {
            ops,
            departures,
            operand_arrivals,
        }
    }

    fn is_idle(&self) -> bool {
        self.ops.is_empty() && self.departures.is_empty()
    }

    fn legal_at(&self, r: u32, ii: u32, on_cycle: &[bool]) -> bool {
        let r = r as u64;
        // Rule 1: no recurrence node.
        if self.ops.iter().any(|(n, _)| on_cycle[n.index()]) {
            return false;
        }
        // Rule 2a: one FU op per slow window (windows taken modulo II).
        let mut fu_windows = HashSet::new();
        for &(_, start) in &self.ops {
            let w = (start % ii as u64) / r;
            if !fu_windows.insert(w) {
                return false;
            }
        }
        // Rule 2b: one departure per link per window.
        let mut link_windows = HashSet::new();
        for &(dir, depart) in &self.departures {
            let w = (depart % ii as u64) / r;
            if !link_windows.insert((dir, w)) {
                return false;
            }
        }
        // Rule 3: operand phase — inputs present by the slow window start.
        for &(node, start) in &self.ops {
            let window_start = (start / r * r) as i64;
            if let Some(arrivals) = self.operand_arrivals.get(&node) {
                if arrivals.iter().any(|&a| a > window_start) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::map_baseline;
    use iced_arch::CgraConfig;
    use iced_dfg::{DfgBuilder, Opcode};

    fn fir_like() -> Dfg {
        let mut b = DfgBuilder::new("fir");
        let x = b.node(Opcode::Load, "x");
        let c = b.node(Opcode::Load, "c");
        let m = b.node(Opcode::Mul, "xc");
        let phi = b.node(Opcode::Phi, "acc");
        let a1 = b.node(Opcode::Add, "a1");
        let a2 = b.node(Opcode::Add, "a2");
        let a3 = b.node(Opcode::Add, "a3");
        let st = b.node(Opcode::Store, "st");
        b.data(x, m).unwrap();
        b.data(c, m).unwrap();
        b.data(m, a1).unwrap();
        b.data(phi, a1).unwrap();
        b.data(a1, a2).unwrap();
        b.data(a2, a3).unwrap();
        b.data(a3, st).unwrap();
        b.carry(a3, phi).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn idle_tiles_are_gated() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let base = map_baseline(&dfg, &cfg).unwrap();
        let relaxed = relax_per_tile(&dfg, &base);
        let gated = cfg
            .tiles()
            .filter(|&t| relaxed.tile_level(t) == DvfsLevel::PowerGated)
            .count();
        assert!(gated >= 20, "8-node kernel on 36 tiles, got {gated} gated");
        // Placement unchanged.
        for n in dfg.node_ids() {
            assert_eq!(relaxed.placement(n), base.placement(n));
        }
        assert_eq!(relaxed.ii(), base.ii());
    }

    #[test]
    fn recurrence_tiles_stay_normal() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let base = map_baseline(&dfg, &cfg).unwrap();
        let relaxed = relax_per_tile(&dfg, &base);
        let cyc = recurrence::on_cycle(&dfg);
        for n in dfg.node_ids() {
            if cyc[n.index()] {
                let t = base.placement(n).tile;
                assert_eq!(relaxed.tile_level(t), DvfsLevel::Normal);
            }
        }
    }

    #[test]
    fn power_gate_only_never_slows_active_tiles() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let base = map_baseline(&dfg, &cfg).unwrap();
        let pg = power_gate_idle(&dfg, &base);
        for t in cfg.tiles() {
            let lvl = pg.tile_level(t);
            assert!(
                lvl == DvfsLevel::Normal || lvl == DvfsLevel::PowerGated,
                "{t} is {lvl}"
            );
            if base.tile_is_used(t) {
                assert_eq!(lvl, DvfsLevel::Normal);
            }
        }
    }

    #[test]
    fn average_dvfs_level_improves_over_baseline() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let base = map_baseline(&dfg, &cfg).unwrap();
        let relaxed = relax_per_tile(&dfg, &base);
        assert!(relaxed.average_dvfs_level() < base.average_dvfs_level());
    }
}
