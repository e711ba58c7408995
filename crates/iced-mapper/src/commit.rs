//! The commit kernel shared by the placer and the exact search.
//!
//! Both search one decision space: one `(tile, FU start slot)` decision
//! per DFG node, taken in a fixed node order, with every edge routed by
//! the shared router the moment its second endpoint is placed. They
//! differ only in how they choose among the slots of a tile: the placer
//! takes the first that fits, the exact search tries every slot of a
//! window and backtracks. Everything else lives here, once:
//!
//! * [`Prepared`] — a kernel prepared once per `map_with` or `certify`
//!   call: its usable tiles, recurrence-cycle nodes and placement order,
//!   and the FU capacity per class that the tiles offer and the order
//!   asks for;
//! * [`lower_bound`] — the admissible minimum II both start from;
//! * [`modulo_asap`] — the modulo-ASAP schedule, with the edge weight as
//!   an argument;
//! * [`Partial`] — a partial mapping at one II and the primitives that
//!   extend it: the placed consumers of a node, the arithmetic window,
//!   the deadline-miss test, the FU-slot test, the capacity cut, in- and
//!   out-edge routing, the holds test, placing and unplacing a node, and
//!   assembling the finished [`Mapping`].
//!
//! # Failing before routing
//!
//! Routing is what a commit costs, so both searches run every test that
//! needs no routing first and give a candidate up before it routes:
//!
//! * the arithmetic window ([`Partial::window_lo`],
//!   [`Partial::misses_deadline`]): an out-route that cannot meet its
//!   consumer's deadline from the earliest possible start misses it from
//!   every later one;
//! * the FU slot ([`Partial::has_fu_slot`]): the slot search after
//!   routing finds a start exactly when some phase `j·rate` of the period
//!   has `rate` free FU cycles. The router never reserves FU cycles, every
//!   rate divides II, both slot windows (the placer's `6·II/rate` steps,
//!   the exact search's `2·II`) cover every phase, and every start at or
//!   after the first one the in-routes allow reads them all. So a tile
//!   with no free phase fails after routing, and is skipped before.
//!
//! [`Partial::capacity_cut`] is the third test: fewer free FU cycles
//! than unplaced nodes (in total, or on memory or multiplier tiles)
//! refutes every extension of a partial mapping, since placements only
//! consume capacity. The exact search cuts a subtree with it; the placer
//! ends an attempt with it (see `place.rs`).

use iced_arch::{CgraConfig, Dir, DvfsLevel, IslandId, Mrrg, TileId};
use iced_dfg::{Dfg, Edge, EdgeId, NodeId};
use iced_fault::FaultMask;

use crate::error::MapError;
use crate::mapping::{Mapping, Placement, Route};
use crate::router::{arrival_lower_bound, in_route_horizon, route, FoundRoute, RouterScratch, Txn};

/// A kernel prepared once per `map_with` or `certify` call and shared by
/// every attempt of it: the serial loop, the portfolio workers, and each
/// II of the exact search.
pub struct Prepared<'a> {
    /// The kernel.
    pub dfg: &'a Dfg,
    /// The target fabric.
    pub cfg: &'a CgraConfig,
    /// Dead resources, pre-occupied in every MRRG this kernel is mapped on.
    mask: Option<&'a FaultMask>,
    /// Tiles nodes may be placed on ([`usable_tiles`]).
    pub tiles: Vec<TileId>,
    /// Whether each node lies on a recurrence cycle.
    pub(crate) on_cycle: Vec<bool>,
    /// The order nodes are placed in.
    pub order: Vec<NodeId>,
    /// Usable FUs per capacity class ([`fu_classes`]).
    fus: [u64; 3],
    /// Per position `d` of `order`, and one past the end: how many nodes
    /// from `d` on need an FU of each capacity class.
    demand: Vec<[u64; 3]>,
}

impl<'a> Prepared<'a> {
    /// Prepares `dfg` for placement on the `island_budget` tiles of `cfg`
    /// that `mask` leaves alive, in cycle-first or plain topological
    /// order.
    pub fn new(
        dfg: &'a Dfg,
        cfg: &'a CgraConfig,
        island_budget: Option<usize>,
        mask: Option<&'a FaultMask>,
        cycle_first: bool,
    ) -> Prepared<'a> {
        let on_cycle = iced_dfg::recurrence::on_cycle(dfg);
        let order = if cycle_first {
            cycle_first_order(dfg, &on_cycle)
        } else {
            dfg.topological_order()
        };
        let tiles = usable_tiles(cfg, island_budget, mask);
        let mut fus = [0u64; 3];
        for &t in &tiles {
            add_classes(&mut fus, fu_classes(cfg, t), 1);
        }
        let mut demand = vec![[0u64; 3]; order.len() + 1];
        for d in (0..order.len()).rev() {
            let op = dfg.node(order[d]).op();
            let needs = [
                true,
                op.is_memory(),
                op.class() == iced_dfg::OpcodeClass::Mul,
            ];
            demand[d] = demand[d + 1];
            add_classes(&mut demand[d], needs, 1);
        }
        Prepared {
            dfg,
            cfg,
            mask,
            tiles,
            on_cycle,
            order,
            fus,
            demand,
        }
    }

    /// Whether `tile` has the FU class `node`'s op needs: an SPM-connected
    /// FU for a memory op, a multiplier for a multiply.
    pub fn hosts(&self, node: NodeId, tile: TileId) -> bool {
        let op = self.dfg.node(node).op();
        (!op.is_memory() || self.cfg.is_memory_tile(tile))
            && (op.class() != iced_dfg::OpcodeClass::Mul || self.cfg.tile_has_multiplier(tile))
    }

    /// An empty MRRG at `ii` with every faulted resource pre-occupied for
    /// the whole period, so the search itself stays fault-oblivious.
    /// Reuses `slot`'s allocation when it already has this II.
    ///
    /// # Errors
    ///
    /// [`MapError::Arch`] when `ii` is zero.
    pub fn mrrg<'m>(&self, slot: &'m mut Option<Mrrg>, ii: u32) -> Result<&'m mut Mrrg, MapError> {
        let mrrg = match slot.take() {
            Some(mut m) if m.ii() == ii => {
                m.reset();
                m
            }
            _ => Mrrg::new(self.cfg, ii)?,
        };
        let mrrg = slot.insert(mrrg);
        if let Some(mask) = self.mask {
            apply_fault_mask(mrrg, self.cfg, mask);
        }
        Ok(mrrg)
    }
}

/// The capacity classes an FU counts in: every FU, SPM-connected FUs
/// (memory ops), multiplier FUs (multiplies).
fn fu_classes(cfg: &CgraConfig, tile: TileId) -> [bool; 3] {
    [
        true,
        cfg.is_memory_tile(tile),
        cfg.tile_has_multiplier(tile),
    ]
}

/// Adds `n` to each count of `counts` whose class is set in `classes`.
fn add_classes(counts: &mut [u64; 3], classes: [bool; 3], n: u64) {
    for (c, on) in counts.iter_mut().zip(classes) {
        if on {
            *c += n;
        }
    }
}

/// Pre-occupies every faulted resource for the whole II window: a dead FU
/// can never fire, and a dead or stuck link can never carry a value.
fn apply_fault_mask(mrrg: &mut Mrrg, cfg: &CgraConfig, mask: &FaultMask) {
    let ii = mrrg.ii();
    for t in cfg.tiles() {
        if !mask.fu_usable(t) {
            mrrg.occupy_fu(t, 0, ii);
        }
        for d in Dir::ALL {
            if cfg.neighbor(t, d).is_some() && !mask.link_usable(t, d) {
                mrrg.occupy_link(t, d, 0, ii);
            }
        }
    }
}

/// Tiles the mapper may place on: inside the first `island_budget`
/// islands (all tiles when `None`), and — when a fault mask is present —
/// with a live FU (a tile with a dead FU may still be routed *through*;
/// the MRRG pre-occupation handles dead links).
pub fn usable_tiles(
    config: &CgraConfig,
    island_budget: Option<usize>,
    mask: Option<&FaultMask>,
) -> Vec<TileId> {
    let live = |t: &TileId| mask.is_none_or(|m| m.fu_usable(*t));
    match island_budget {
        None => config.tiles().filter(live).collect(),
        Some(n) => {
            let mut tiles = Vec::new();
            for island in config.islands().take(n) {
                tiles.extend(config.island_tiles(island).into_iter().filter(|t| live(t)));
            }
            tiles.sort_unstable();
            tiles
        }
    }
}

/// Cycle-first placement order: recurrence-cycle nodes first in
/// topological order, then the remaining nodes topologically. Placing the
/// II-critical cycles before their feeders keeps each cycle tight; feeders
/// then route *towards* fixed consumers under a deadline instead of
/// painting the cycle into a corner.
fn cycle_first_order(dfg: &Dfg, on_cycle: &[bool]) -> Vec<NodeId> {
    let topo = dfg.topological_order();
    let mut order: Vec<NodeId> = topo
        .iter()
        .copied()
        .filter(|n| on_cycle[n.index()])
        .collect();
    order.extend(topo.iter().copied().filter(|n| !on_cycle[n.index()]));
    order
}

/// The admissible lower bound on II for `dfg` placed on `tiles` of `cfg`:
/// the maximum of RecMII, resource MII (all FUs, SPM-connected FUs,
/// multiplier FUs), and the routing-capacity bound (a node of degree `d`
/// needs `d − (II−1)` link slots at a tile offering at most `links·II` per
/// period).
///
/// Every component is admissible — no mapping can exist below the
/// returned II — so the placer starts its II search there and `certify`
/// never searches below it.
///
/// # Errors
///
/// [`MapError::MemoryPressure`] when `tiles` is empty, or when the kernel
/// has memory ops or multiplies and no tile of that class is in `tiles`:
/// no II can map it then.
pub fn lower_bound(dfg: &Dfg, cfg: &CgraConfig, tiles: &[TileId]) -> Result<u32, MapError> {
    let mem_nodes = dfg.count_ops(|op| op.is_memory());
    let mul_nodes = dfg.count_ops(|op| op.class() == iced_dfg::OpcodeClass::Mul);
    let mem_tiles = tiles.iter().filter(|&&t| cfg.is_memory_tile(t)).count();
    let mul_tiles = tiles
        .iter()
        .filter(|&&t| cfg.tile_has_multiplier(t))
        .count();
    if tiles.is_empty() || (mem_nodes > 0 && mem_tiles == 0) || (mul_nodes > 0 && mul_tiles == 0) {
        return Err(MapError::MemoryPressure);
    }
    let class_mii = |nodes: usize, tiles: usize| (nodes as u32).div_ceil(tiles.max(1) as u32);
    // Routing capacity: all of a node's off-tile transfers enter or leave
    // its tile over at most `links` directed links carrying II transfers
    // per period each, while at most II−1 other FU slots on the tile can
    // host same-tile neighbors. So degree d needs d − (II−1) ≤ links·II,
    // i.e. II ≥ ceil((d + 1) / (links + 1)). Degree counts *distinct*
    // non-self neighbors, not edges: parallel edges between one node pair
    // (a data edge plus loop-carried edges at several distances) share one
    // physical transfer per iteration — carried copies are buffered at the
    // destination — and a self-edge never leaves the tile at all.
    let links = tiles
        .iter()
        .map(|&t| cfg.neighbors(t).count() as u32)
        .max()
        .unwrap_or(0);
    let distinct = |mut ends: Vec<NodeId>| {
        ends.sort_unstable();
        ends.dedup();
        ends.len() as u32
    };
    let route_mii = dfg
        .node_ids()
        .map(|n| {
            let deg_in = distinct(
                dfg.in_edges(n)
                    .map(|e| e.src())
                    .filter(|&s| s != n)
                    .collect(),
            );
            let deg_out = distinct(
                dfg.out_edges(n)
                    .map(|e| e.dst())
                    .filter(|&d| d != n)
                    .collect(),
            );
            (deg_in.max(deg_out) + 1).div_ceil(links + 1)
        })
        .max()
        .unwrap_or(1);
    Ok(dfg
        .rec_mii()
        .max(class_mii(dfg.node_count(), tiles.len()))
        .max(class_mii(mem_nodes, mem_tiles))
        .max(class_mii(mul_nodes, mul_tiles))
        .max(route_mii)
        .max(1))
}

/// Modulo-scheduling ASAP times: the longest-path fixpoint of
/// `σ(v) ≥ σ(u) + weight(e) − d·II` over all edges, clamped at zero. For
/// `II ≥ RecMII` and weights that add no positive cycle, Bellman–Ford
/// converges.
pub fn modulo_asap(dfg: &Dfg, ii: u32, weight: impl Fn(&Edge) -> i64) -> Vec<u64> {
    let n = dfg.node_count();
    let ii = i64::from(ii);
    let mut t = vec![0i64; n];
    for _ in 0..=n {
        let mut changed = false;
        for e in dfg.edges() {
            let cand = t[e.src().index()] + weight(e) - i64::from(e.kind().distance()) * ii;
            if cand > t[e.dst().index()] {
                t[e.dst().index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    t.into_iter().map(|x| x.max(0) as u64).collect()
}

/// A routed in-edge: the edge, its route, and its loop-carried distance.
pub type InRoute = (EdgeId, FoundRoute, u32);

/// A placed consumer of the node being placed: the edge, the consumer's
/// tile, and the cycle by which it reads the value.
pub type Consumer = (EdgeId, TileId, u64);

/// The reservations and island assignments of one commit in progress,
/// undone together by [`Partial::rollback`].
#[derive(Default)]
pub struct Draft {
    txn: Txn,
    opened: Vec<IslandId>,
}

/// A partial mapping at one II: MRRG reservations, the router's scratch,
/// tile rates and virgin flags, island DVFS assignments, and the
/// placements and routes committed so far.
///
/// Routing through an island with no level yet pins it to `normal`: its
/// links were reserved at base-clock granularity, so a slower clock could
/// no longer honour the reservation. A partial mapping built with every
/// island assigned never pins anything.
pub struct Partial<'a> {
    dfg: &'a Dfg,
    cfg: &'a CgraConfig,
    ii: u32,
    mrrg: &'a mut Mrrg,
    scratch: &'a mut RouterScratch,
    rates: Vec<u32>,
    virgin: Vec<bool>,
    islands: Vec<Option<DvfsLevel>>,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Route>>,
    /// FU cycles the placements hold, per capacity class.
    held: [u64; 3],
}

impl<'a> Partial<'a> {
    /// An empty partial mapping on `mrrg`. `islands` assigns every island
    /// that level up front; `None` leaves each to be opened on first use.
    pub fn new(
        dfg: &'a Dfg,
        cfg: &'a CgraConfig,
        mrrg: &'a mut Mrrg,
        scratch: &'a mut RouterScratch,
        islands: Option<DvfsLevel>,
    ) -> Partial<'a> {
        let rate = islands.map_or(1, |l| l.rate_divisor().expect("active level"));
        Partial {
            dfg,
            cfg,
            ii: mrrg.ii(),
            mrrg,
            scratch,
            rates: vec![rate; cfg.tile_count()],
            virgin: vec![islands.is_none(); cfg.tile_count()],
            islands: vec![islands; cfg.island_count()],
            placements: vec![None; dfg.node_count()],
            routes: vec![None; dfg.edge_count()],
            held: [0; 3],
        }
    }

    /// The II of this mapping.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The MRRG with every reservation made so far.
    pub fn mrrg(&self) -> &Mrrg {
        self.mrrg
    }

    /// Where `node` is placed, if it is.
    pub(crate) fn placement(&self, node: NodeId) -> Option<Placement> {
        self.placements[node.index()]
    }

    /// The level `island` is assigned, if any.
    pub(crate) fn island_level(&self, island: IslandId) -> Option<DvfsLevel> {
        self.islands[island.index()]
    }

    /// Assigns `level` to the unassigned `island`, recorded in `draft`.
    pub(crate) fn open_island(&mut self, island: IslandId, level: DvfsLevel, draft: &mut Draft) {
        debug_assert!(self.islands[island.index()].is_none());
        self.islands[island.index()] = Some(level);
        let div = level.rate_divisor().expect("active level");
        for t in self.cfg.island_tiles(island) {
            self.rates[t.index()] = div;
            self.virgin[t.index()] = false;
        }
        draft.opened.push(island);
    }

    /// The out-routes every slot of `node` must make: edges to placed
    /// consumers, tightest deadline first (ties by edge). The overlapped
    /// first hop is a scarce link slot and must serve the most
    /// constrained consumer.
    pub fn placed_consumers(&self, node: NodeId) -> Vec<Consumer> {
        let ii = u64::from(self.ii);
        let mut consumers: Vec<Consumer> = self
            .dfg
            .out_edges(node)
            .filter_map(|e| {
                let p = self.placements[e.dst().index()]?;
                Some((
                    e.id(),
                    p.tile,
                    p.start + u64::from(e.kind().distance()) * ii,
                ))
            })
            .collect();
        consumers.sort_unstable_by_key(|&(id, _, deadline)| (deadline, id));
        consumers
    }

    /// Start of the arithmetic window of `node` on `tile`, and whether
    /// `node` has a placed predecessor. No in-route arrives before its
    /// [`arrival_lower_bound`], so no slot starts before
    /// `max(earliest, bound − d·II)` over the placed in-edges.
    pub fn window_lo(&self, node: NodeId, tile: TileId, earliest: u64) -> (u64, bool) {
        let mut lo = earliest;
        let mut has_placed_pred = false;
        for e in self.dfg.in_edges(node) {
            if let Some(p) = self.placements[e.src().index()] {
                has_placed_pred = true;
                let lb = arrival_lower_bound(self.cfg, &self.rates, p.tile, p.ready(), tile);
                lo = lo.max(lb.saturating_sub(u64::from(e.kind().distance()) * u64::from(self.ii)));
            }
        }
        (lo, has_placed_pred)
    }

    /// Whether a value ready on `tile` at `ready` reaches some consumer
    /// only after its deadline, by [`arrival_lower_bound`] alone. The
    /// router rejects such an out-route before searching, and since the
    /// bound never decreases in `ready`, every later ready cycle misses
    /// too.
    pub fn misses_deadline(&self, consumers: &[Consumer], tile: TileId, ready: u64) -> bool {
        consumers.iter().any(|&(_, dst, deadline)| {
            arrival_lower_bound(self.cfg, &self.rates, tile, ready, dst) > deadline
        })
    }

    /// Whether `tile`'s FU has `rate` free cycles from some start `j·rate`
    /// with `j < II/rate`: the phases a node at that rate can start in
    /// (`rate` divides II).
    pub fn has_fu_slot(&self, tile: TileId, rate: u32) -> bool {
        if rate == 1 {
            return self.mrrg.fu_busy_cycles(tile) < self.ii;
        }
        (0..self.ii / rate).any(|j| self.mrrg.fu_free(tile, u64::from(j * rate), rate))
    }

    /// Capacity propagation: whether the nodes from position `placed` of
    /// `prep.order` on cannot all find a free FU cycle on `prep.tiles`.
    /// Each needs at least one (a memory op on an SPM-connected tile, a
    /// multiply on a multiplier tile), and placements only consume
    /// capacity, so a partial mapping this holds for has no completion.
    ///
    /// Every FU cycle of a usable tile is free or held by a placement:
    /// the router never reserves one, and the fault mask pre-occupies only
    /// FUs that [`usable_tiles`] leaves out. So the free cycles are the
    /// usable ones less those the placements hold.
    pub fn capacity_cut(&self, prep: &Prepared<'_>, placed: usize) -> bool {
        let ii = u64::from(self.ii);
        debug_assert_eq!(
            prep.fus[0] * ii - self.held[0],
            prep.tiles
                .iter()
                .map(|&t| u64::from(self.ii - self.mrrg.fu_busy_cycles(t)))
                .sum::<u64>(),
            "free FU cycles"
        );
        (0..3).any(|c| prep.demand[placed][c] > prep.fus[c] * ii - self.held[c])
    }

    /// Routes every placed-predecessor edge of `node` (data and
    /// loop-carried) to `tile`, earliest arrival first, in edge order.
    /// Returns the routes and the earliest start they allow, no earlier
    /// than `earliest`; `None` when a route fails. Either way the
    /// reservations made are in `draft`.
    pub fn route_in_edges(
        &mut self,
        node: NodeId,
        tile: TileId,
        earliest: u64,
        draft: &mut Draft,
    ) -> Option<(Vec<InRoute>, u64)> {
        let mut in_routes = Vec::new();
        let mut min_start = earliest;
        for e in self.dfg.in_edges(node) {
            let Some(p) = self.placements[e.src().index()] else {
                continue; // carried edge from a not-yet-placed node
            };
            let ready = p.ready();
            let horizon = in_route_horizon(self.cfg, p.tile, ready, tile, self.ii);
            let found = route(
                self.cfg,
                self.mrrg,
                &self.rates,
                &self.virgin,
                p.tile,
                ready,
                tile,
                None,
                horizon,
                &mut draft.txn,
                self.scratch,
            )?;
            self.pin_route_islands(&found, draft);
            let d = e.kind().distance();
            min_start = min_start.max(
                found
                    .arrival
                    .saturating_sub(u64::from(d) * u64::from(self.ii)),
            );
            in_routes.push((e.id(), found, d));
        }
        Some((in_routes, min_start))
    }

    /// Whether a start at `start` reads every in-route after it arrived.
    /// Values wait at the consumer in per-port input FIFOs, so arrival
    /// order is the only constraint; the register file is charged for
    /// route-through staging inside the router instead.
    pub fn holds(&self, in_routes: &[InRoute], start: u64) -> bool {
        in_routes
            .iter()
            .all(|(_, fr, d)| start + u64::from(*d) * u64::from(self.ii) >= fr.arrival)
    }

    /// Reserves `tile`'s FU for `rate` cycles from `start`, in `draft`.
    pub fn occupy_fu(&mut self, tile: TileId, start: u64, rate: u32, draft: &mut Draft) {
        draft.txn.occupy_fu(self.mrrg, tile, start, rate);
    }

    /// Routes a value ready on `tile` at `ready` to every consumer in
    /// order, each bounded by its deadline. `None` when one fails; the
    /// reservations made are in `draft` either way.
    pub fn route_out_edges(
        &mut self,
        tile: TileId,
        ready: u64,
        consumers: &[Consumer],
        draft: &mut Draft,
    ) -> Option<Vec<FoundRoute>> {
        let mut out = Vec::with_capacity(consumers.len());
        for &(_, dst, deadline) in consumers {
            let found = route(
                self.cfg,
                self.mrrg,
                &self.rates,
                &self.virgin,
                tile,
                ready,
                dst,
                Some(deadline),
                deadline,
                &mut draft.txn,
                self.scratch,
            )?;
            self.pin_route_islands(&found, draft);
            out.push(found);
        }
        Some(out)
    }

    /// Records `node` at `p` with a route for each of its in-edges and
    /// each of its placed consumers (`out` in `consumers` order).
    pub fn place(
        &mut self,
        node: NodeId,
        p: Placement,
        in_routes: &[InRoute],
        consumers: &[Consumer],
        out: Vec<FoundRoute>,
    ) {
        for (edge, fr, d) in in_routes {
            self.routes[edge.index()] = Some(Route {
                edge: *edge,
                hops: fr.hops.clone(),
                src_ready: fr.src_ready(),
                arrival: fr.arrival,
                consume_at: p.start + u64::from(*d) * u64::from(self.ii),
            });
        }
        for (&(edge, _, deadline), fr) in consumers.iter().zip(out) {
            self.routes[edge.index()] = Some(Route {
                edge,
                hops: fr.hops,
                src_ready: p.ready(),
                arrival: fr.arrival,
                consume_at: deadline,
            });
        }
        add_classes(
            &mut self.held,
            fu_classes(self.cfg, p.tile),
            u64::from(p.rate),
        );
        self.placements[node.index()] = Some(p);
    }

    /// Undoes the [`Partial::place`] of `node` and the reservations in
    /// `draft`. Every route on an edge of `node` came from that placement
    /// or from a later one already undone, so all of them go.
    pub fn unplace(&mut self, node: NodeId, draft: Draft) {
        if let Some(p) = self.placements[node.index()].take() {
            for (h, on) in self.held.iter_mut().zip(fu_classes(self.cfg, p.tile)) {
                if on {
                    *h -= u64::from(p.rate);
                }
            }
        }
        for e in self.dfg.in_edges(node).chain(self.dfg.out_edges(node)) {
            self.routes[e.id().index()] = None;
        }
        self.rollback(draft);
    }

    /// Undoes every reservation and island assignment in `draft`.
    pub fn rollback(&mut self, draft: Draft) {
        draft.txn.rollback(self.mrrg);
        for island in draft.opened {
            self.islands[island.index()] = None;
            for t in self.cfg.island_tiles(island) {
                self.rates[t.index()] = 1;
                self.virgin[t.index()] = true;
            }
        }
    }

    fn pin_route_islands(&mut self, found: &FoundRoute, draft: &mut Draft) {
        for hop in &found.hops {
            let island = self.cfg.island_of(hop.from);
            if self.islands[island.index()].is_none() {
                self.open_island(island, DvfsLevel::Normal, draft);
            }
        }
    }

    /// The finished mapping, once every node is placed. Islands that were
    /// never assigned a level run at `unused`.
    pub fn finish(&self, unused: DvfsLevel) -> Mapping {
        let island_levels: Vec<DvfsLevel> =
            self.islands.iter().map(|a| a.unwrap_or(unused)).collect();
        let tile_levels = self
            .cfg
            .tiles()
            .map(|t| island_levels[self.cfg.island_of(t).index()])
            .collect();
        Mapping {
            kernel: self.dfg.name().to_string(),
            config: self.cfg.clone(),
            ii: self.ii,
            placements: self
                .placements
                .iter()
                .map(|p| p.expect("all nodes placed on success"))
                .collect(),
            routes: self.routes.iter().flatten().cloned().collect(),
            island_levels,
            tile_levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::FuLayout;
    use iced_dfg::{DfgBuilder, Opcode};

    /// `load → mul → add → add`.
    fn chain() -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ids = [
            b.node(Opcode::Load, "x"),
            b.node(Opcode::Mul, "m"),
            b.node(Opcode::Add, "a"),
            b.node(Opcode::Add, "b"),
        ];
        b.data_chain(&ids).unwrap();
        b.finish().unwrap()
    }

    /// `has_fu_slot` against the placer's slot loop (starts `base + k·rate`
    /// for `k < max(⌈6·II/rate⌉, 4)`, `base` a multiple of the rate) over
    /// every FU occupancy of one tile at II 4 and 8.
    #[test]
    fn has_fu_slot_is_the_slot_loop_over_every_phase() {
        let dfg = chain();
        let cfg = CgraConfig::square(2).unwrap();
        let t = TileId(3);
        for ii in [4u32, 8] {
            for busy in 0u32..1 << ii {
                let mut mrrg = Mrrg::new(&cfg, ii).unwrap();
                for c in (0..ii).filter(|c| busy >> c & 1 == 1) {
                    mrrg.occupy_fu(t, u64::from(c), 1);
                }
                let mut scratch = RouterScratch::default();
                let state = Partial::new(&dfg, &cfg, &mut mrrg, &mut scratch, None);
                for rate in [1u32, 2, 4] {
                    let r = u64::from(rate);
                    for base in (0..2 * u64::from(ii)).step_by(rate as usize) {
                        let found = (0..(6 * u64::from(ii)).div_ceil(r).max(4))
                            .any(|k| state.mrrg().fu_free(t, base + k * r, rate));
                        assert_eq!(state.has_fu_slot(t, rate), found, "ii {ii} busy {busy:b}");
                    }
                }
            }
        }
    }

    /// A node at rate 2 starts on an even cycle: a tile whose only free
    /// cycles are odd has a slot at rate 1 but none at rate 2, even with
    /// two free cycles in the period.
    #[test]
    fn a_rate_two_slot_needs_an_even_start() {
        let dfg = chain();
        let cfg = CgraConfig::square(2).unwrap();
        let t = TileId(1);
        let mut mrrg = Mrrg::new(&cfg, 4).unwrap();
        mrrg.occupy_fu(t, 0, 1);
        mrrg.occupy_fu(t, 2, 1);
        let mut scratch = RouterScratch::default();
        let state = Partial::new(&dfg, &cfg, &mut mrrg, &mut scratch, None);
        assert!(state.has_fu_slot(t, 1));
        assert!(!state.has_fu_slot(t, 2));
        assert!(!state.has_fu_slot(t, 4));
        assert!(state.has_fu_slot(TileId(0), 4));
    }

    /// The capacity cut both searches run: the nodes still to place need
    /// one free FU cycle each, in total and per class. On 2×2 with the
    /// checkerboard layout at II 8: 32 FU cycles, 16 on the SPM-connected
    /// tiles 0 and 2, 16 on the multiplier tiles 0 and 3.
    #[test]
    fn capacity_cut_counts_free_cycles_in_total_and_per_class() {
        let mut b = DfgBuilder::new("wide");
        let mut ids = vec![b.node(Opcode::Load, "x"), b.node(Opcode::Mul, "m")];
        ids.extend((0..10).map(|i| b.node(Opcode::Add, format!("a{i}"))));
        b.data_chain(&ids).unwrap();
        let dfg = b.finish().unwrap();
        let cfg = CgraConfig::builder(2, 2)
            .fu_layout(FuLayout::CheckerboardMul)
            .build()
            .unwrap();
        let prep = Prepared::new(&dfg, &cfg, None, None, false);
        // Places adds from the back of the order at `(tile, start, rate)`
        // and reports the cut with the first `placed` nodes counted placed.
        let cut = |holds: &[(u16, u64, u32)], placed: usize| {
            let mut mrrg = Mrrg::new(&cfg, 8).unwrap();
            let mut scratch = RouterScratch::default();
            let mut state = Partial::new(&dfg, &cfg, &mut mrrg, &mut scratch, None);
            for (&(tile, start, rate), &node) in holds.iter().zip(prep.order.iter().rev()) {
                let tile = TileId(tile);
                state.occupy_fu(tile, start, rate, &mut Draft::default());
                state.place(node, Placement { tile, start, rate }, &[], &[], Vec::new());
            }
            state.capacity_cut(&prep, placed)
        };
        assert!(!cut(&[], 0));
        // 21 cycles held, 11 free for 12 nodes; enough once one is placed.
        let total = [
            (1, 0, 4),
            (1, 4, 4),
            (2, 0, 4),
            (2, 4, 4),
            (3, 0, 4),
            (3, 4, 1),
        ];
        assert!(cut(&total, 0));
        assert!(!cut(&total, 1));
        // Every SPM-connected cycle held: the load has nowhere to go.
        let mem = [(0, 0, 4), (0, 4, 4), (2, 0, 4), (2, 4, 4)];
        assert!(cut(&mem, 0));
        assert!(!cut(&mem, 1));
        // Every multiplier cycle held: the multiply has nowhere to go.
        let mul = [(0, 0, 4), (0, 4, 4), (3, 0, 4), (3, 4, 4)];
        assert!(cut(&mul, 1));
        assert!(!cut(&mul, 2));
    }
}
