//! Per-II branch-and-bound search over the MRRG.
//!
//! The search explores the *same decision space* the heuristic engine
//! commits into — one `(tile, FU slot)` decision per DFG node, taken in
//! the heuristic's cycle-first topological order, with every edge routed
//! by the shared Dijkstra router the moment its second endpoint is
//! placed — but exhaustively, with chronological backtracking upgraded to
//! conservative conflict-driven backjumping. A `Refuted` verdict is a
//! certificate that *no assignment in this decision space* maps the
//! kernel at the given II (see the crate docs for the exact space
//! definition and its relation to full place-and-route freedom).
//!
//! Determinism: the search is single-threaded and every iteration order
//! (nodes, tiles, slots, edges) is fixed, so the same inputs always
//! explore the same tree and return the same mapping. Budget and deadline
//! knobs can only truncate the search (turning a verdict into
//! [`Verdict::Budget`]/[`Verdict::Deadline`]); they never change *which*
//! mapping a completed search finds.
//!
//! Arithmetic window: before routing anything for a candidate tile, the
//! search bounds the FU start cycles the tile could accept. No in-route
//! arrives before [`arrival_lower_bound`], so no slot starts before
//! `lo = max(asap, max over placed in-edges of (bound − d·II))`. A placed
//! consumer read by `deadline` is out of reach from slot `s` when the
//! bound from `(tile, s + 1)` exceeds the deadline; the router rejects
//! that out-route before searching, and since the bound never decreases
//! in `s`, from every later slot too. So a tile whose window is empty at
//! `lo` is skipped whole, and the slot loop stops at the first slot whose
//! window is empty. Both taint the conflict in place of the routing they
//! skip, and the tree is unchanged:
//!
//! * every skipped path would have ended in a tainted `Fail` — an in-route
//!   failure, a busy or unholdable slot on a tile with a placed
//!   predecessor, or an out-route failure in `try_slot`;
//! * `explored` is only counted once the out-routes succeed, so no skipped
//!   path counted a node;
//! * taint is sticky, and `max_level` is never read once a conflict is
//!   tainted, so the `add_level` calls of skipped busy slots are moot.
//!
//! A tile with no placed predecessor is never skipped whole: its busy
//! slots record `add_level` rather than taint, and a tile whose every
//! slot is busy must keep that conflict attributable.

use iced_arch::{CgraConfig, DvfsLevel, Mrrg, TileId};
use iced_dfg::{Dfg, EdgeId, NodeId};
use iced_fault::FaultMask;
use iced_mapper::engine_internals::{
    apply_fault_mask, arrival_lower_bound, cycle_first_order, in_route_horizon, recurrence_nodes,
    route, usable_tiles, FoundRoute, RouterScratch, Txn,
};
use iced_mapper::{MapError, Mapping, Placement, Route};
use iced_trace::Phase;

/// Search knobs threaded down from `ExactOptions`.
pub(crate) struct Limits {
    /// Abort once this many decisions have been committed (cumulative
    /// across the IIs of one certification run).
    pub node_budget: u64,
    /// Abort once this instant passes (checked between decisions).
    pub deadline: Option<std::time::Instant>,
    /// Conflict-driven backjumping (disabling falls back to plain
    /// chronological backtracking; the verdict is unchanged, only the
    /// number of explored nodes differs).
    pub backjump: bool,
}

/// Outcome of searching one II exhaustively.
pub(crate) enum Verdict {
    /// A complete mapping exists at this II; here is the first one in the
    /// search's canonical order.
    Feasible(Box<Mapping>),
    /// The entire decision space at this II was exhausted: no mapping.
    Refuted,
    /// The node budget ran out before a verdict.
    Budget,
    /// The deadline passed before a verdict.
    Deadline,
}

/// What a failed subtree knows about *why* it failed.
///
/// `max_level` is the deepest decision level implicated in every failure
/// seen (or `-1` when none was — a structural conflict no earlier choice
/// can fix). `tainted` means at least one failure could not be attributed
/// (routing contention involves global link/register state), so the only
/// sound move is chronological backtracking.
#[derive(Clone, Copy, Debug)]
struct Conflict {
    tainted: bool,
    max_level: i64,
}

impl Conflict {
    fn none() -> Conflict {
        Conflict {
            tainted: false,
            max_level: -1,
        }
    }

    fn taint(&mut self) {
        self.tainted = true;
    }

    fn add_level(&mut self, level: i64) {
        self.max_level = self.max_level.max(level);
    }
}

enum Step {
    Found,
    Fail(Conflict),
    Stop(Verdict),
}

pub(crate) struct Search<'a> {
    dfg: &'a Dfg,
    cfg: &'a CgraConfig,
    ii: u32,
    limits: &'a Limits,
    mrrg: Mrrg,
    scratch: RouterScratch,
    rates: Vec<u32>,
    virgin: Vec<bool>,
    tiles: Vec<TileId>,
    order: Vec<NodeId>,
    asap: Vec<u64>,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Route>>,
    /// Which decision level owns each `(tile, cycle mod II)` FU slot;
    /// `-1` = free or pre-occupied by the fault mask (structural).
    fu_owner: Vec<i64>,
    /// Suffix counts over `order`: how many nodes from depth `d` on are
    /// memory ops / need a multiplier (for the capacity propagation cut).
    mem_suffix: Vec<u32>,
    mul_suffix: Vec<u32>,
    explored: u64,
}

impl<'a> Search<'a> {
    pub(crate) fn new(
        dfg: &'a Dfg,
        cfg: &'a CgraConfig,
        ii: u32,
        limits: &'a Limits,
        mask: Option<&FaultMask>,
    ) -> Result<Search<'a>, MapError> {
        let mut mrrg = Mrrg::new(cfg, ii)?;
        if let Some(mask) = mask {
            // The heuristic's fault handling: dead resources are
            // pre-occupied for the whole period, so the search itself
            // stays fault-oblivious.
            apply_fault_mask(&mut mrrg, cfg, mask);
        }
        // No island budget: the exact search may place on every live tile.
        let tiles = usable_tiles(cfg, None, mask);
        // The heuristic's placement order keeps the exact tree's first
        // leaf close to the heuristic's mapping.
        let order = cycle_first_order(dfg, &recurrence_nodes(dfg));
        let asap = asap_times(dfg, ii);
        let n = dfg.node_count();
        let mut mem_suffix = vec![0u32; n + 1];
        let mut mul_suffix = vec![0u32; n + 1];
        for d in (0..n).rev() {
            let op = dfg.node(order[d]).op();
            mem_suffix[d] = mem_suffix[d + 1] + u32::from(op.is_memory());
            mul_suffix[d] = mul_suffix[d + 1] + u32::from(op.class() == iced_dfg::OpcodeClass::Mul);
        }
        Ok(Search {
            dfg,
            cfg,
            ii,
            limits,
            mrrg,
            scratch: RouterScratch::default(),
            rates: vec![1; cfg.tile_count()],
            virgin: vec![false; cfg.tile_count()],
            tiles,
            order,
            asap,
            placements: vec![None; dfg.node_count()],
            routes: vec![None; dfg.edge_count()],
            fu_owner: vec![-1; cfg.tile_count() * ii as usize],
            mem_suffix,
            mul_suffix,
            explored: 0,
        })
    }

    /// Runs the search to a verdict. `explored` accumulates committed
    /// decisions across calls (one certification run shares a budget over
    /// all its IIs).
    pub(crate) fn run(mut self, explored: &mut u64) -> Verdict {
        self.explored = *explored;
        let before = self.explored;
        let step = self.extend(0);
        *explored = self.explored;
        iced_trace::counter(
            Phase::Mapper,
            "exact_nodes_explored",
            self.explored - before,
        );
        match step {
            Step::Found => Verdict::Feasible(Box::new(self.finish())),
            Step::Fail(_) => {
                iced_trace::counter(Phase::Mapper, "exact_refutations", 1);
                Verdict::Refuted
            }
            Step::Stop(v) => v,
        }
    }

    /// Capacity propagation: every yet-unplaced node still needs one free
    /// FU cycle in the period (memory ops one on an SPM-connected tile,
    /// multiplies one on a multiplier tile). Placements only ever consume
    /// capacity, so failing this test refutes the whole subtree.
    fn capacity_cut(&self, depth: usize) -> bool {
        let remaining = (self.order.len() - depth) as u64;
        let mut free = 0u64;
        let mut free_mem = 0u64;
        let mut free_mul = 0u64;
        for &t in &self.tiles {
            let f = u64::from(self.ii - self.mrrg.fu_busy_cycles(t));
            free += f;
            if self.cfg.is_memory_tile(t) {
                free_mem += f;
            }
            if self.cfg.tile_has_multiplier(t) {
                free_mul += f;
            }
        }
        remaining > free
            || u64::from(self.mem_suffix[depth]) > free_mem
            || u64::from(self.mul_suffix[depth]) > free_mul
    }

    fn extend(&mut self, depth: usize) -> Step {
        if depth == self.order.len() {
            return Step::Found;
        }
        if self.explored >= self.limits.node_budget {
            return Step::Stop(Verdict::Budget);
        }
        if self
            .limits
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            return Step::Stop(Verdict::Deadline);
        }
        if self.capacity_cut(depth) {
            // The cut compares totals touched by every earlier level; the
            // precise blocker set is unknown, so backtrack chronologically.
            let mut c = Conflict::none();
            c.taint();
            return Step::Fail(c);
        }
        let node = self.order[depth];
        let op = self.dfg.node(node).op();
        let is_mem = op.is_memory();
        let needs_mul = op.class() == iced_dfg::OpcodeClass::Mul;
        let mut conflict = Conflict::none();
        let ii = u64::from(self.ii);
        let span = (2 * ii).max(4);
        // The out-routes every slot must make: edges to placed consumers,
        // with the cycle by which each reads the value, tightest deadline
        // first, exactly like the heuristic commit.
        let mut consumers: Vec<(EdgeId, TileId, u64)> = self
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

        for ti in 0..self.tiles.len() {
            let tile = self.tiles[ti];
            if is_mem && !self.cfg.is_memory_tile(tile) {
                continue;
            }
            if needs_mul && !self.cfg.tile_has_multiplier(tile) {
                continue;
            }
            // Arithmetic window: no in-route arrives before its lower
            // bound, so no slot starts before `lo`. If an out-route
            // already misses its deadline from `lo`, every slot's would
            // (see the module docs): skip the tile without routing.
            let mut lo = self.asap[node.index()];
            let mut has_placed_pred = false;
            for e in self.dfg.in_edges(node) {
                if let Some(p) = self.placements[e.src().index()] {
                    has_placed_pred = true;
                    let lb = arrival_lower_bound(self.cfg, &self.rates, p.tile, p.ready(), tile);
                    lo = lo.max(lb.saturating_sub(u64::from(e.kind().distance()) * ii));
                }
            }
            if has_placed_pred && self.misses_deadline(&consumers, tile, lo + 1) {
                conflict.taint();
                continue;
            }
            // Route every placed-predecessor edge with the shared router
            // (earliest arrival, fixed edge order). Failures contend with
            // global link/register state — unattributable, so tainted.
            let mut txn_in = Txn::default();
            let mut in_routes: Vec<(usize, FoundRoute, u32)> = Vec::new();
            let mut in_ok = true;
            let mut min_start = self.asap[node.index()];
            for e in self.dfg.in_edges(node) {
                let Some(p) = self.placements[e.src().index()] else {
                    continue;
                };
                let ready = p.ready();
                let horizon = in_route_horizon(self.cfg, p.tile, ready, tile, self.ii);
                let Some(found) = route(
                    self.cfg,
                    &mut self.mrrg,
                    &self.rates,
                    &self.virgin,
                    p.tile,
                    ready,
                    tile,
                    None,
                    horizon,
                    &mut txn_in,
                    &mut self.scratch,
                ) else {
                    conflict.taint();
                    in_ok = false;
                    break;
                };
                let d = e.kind().distance();
                min_start = min_start.max(
                    found
                        .arrival
                        .saturating_sub(u64::from(d) * u64::from(self.ii)),
                );
                in_routes.push((e.id().index(), found, d));
            }
            if !in_ok {
                txn_in.rollback(&mut self.mrrg);
                continue;
            }

            let mut backjump_out: Option<Conflict> = None;
            for s in min_start..min_start + span {
                if !self.mrrg.fu_free(tile, s, 1) {
                    if has_placed_pred {
                        // The window position itself depends on routed
                        // arrivals — attribution would be unsound.
                        conflict.taint();
                    } else {
                        let slot =
                            tile.index() * self.ii as usize + (s % u64::from(self.ii)) as usize;
                        conflict.add_level(self.fu_owner[slot]);
                    }
                    continue;
                }
                let holds_ok = in_routes
                    .iter()
                    .all(|(_, fr, d)| s + u64::from(*d) * u64::from(self.ii) >= fr.arrival);
                if !holds_ok {
                    conflict.taint();
                    continue;
                }
                if self.misses_deadline(&consumers, tile, s + 1) {
                    // So does every later slot: the bound never
                    // decreases as the value is ready later.
                    conflict.taint();
                    break;
                }
                match self.try_slot(depth, tile, s, &in_routes, &consumers, &mut conflict) {
                    Step::Found => {
                        // Leave reservations in place; `finish` reads them.
                        return Step::Found;
                    }
                    Step::Stop(v) => {
                        txn_in.rollback(&mut self.mrrg);
                        return Step::Stop(v);
                    }
                    Step::Fail(c) => {
                        if self.limits.backjump && !c.tainted && c.max_level < depth as i64 {
                            // No alternative at this level can repair the
                            // conflict: jump straight through.
                            backjump_out = Some(c);
                            break;
                        }
                        conflict.taint();
                    }
                }
            }
            txn_in.rollback(&mut self.mrrg);
            if let Some(c) = backjump_out {
                return Step::Fail(c);
            }
        }
        if !self.limits.backjump {
            conflict.taint();
        }
        Step::Fail(conflict)
    }

    /// Whether a value ready on `tile` at `ready` reaches some consumer
    /// only after its deadline, by [`arrival_lower_bound`] alone. The
    /// router rejects such an out-route before searching.
    fn misses_deadline(
        &self,
        consumers: &[(EdgeId, TileId, u64)],
        tile: TileId,
        ready: u64,
    ) -> bool {
        consumers.iter().any(|&(_, dst, deadline)| {
            arrival_lower_bound(self.cfg, &self.rates, tile, ready, dst) > deadline
        })
    }

    /// Commits the node at `depth` on `(tile, start)` — FU slot,
    /// deadline-bounded out-routes to `consumers` in their order,
    /// route/placement bookkeeping — then recurses. On failure everything
    /// is rolled back.
    fn try_slot(
        &mut self,
        depth: usize,
        tile: TileId,
        start: u64,
        in_routes: &[(usize, FoundRoute, u32)],
        consumers: &[(EdgeId, TileId, u64)],
        conflict: &mut Conflict,
    ) -> Step {
        let node = self.order[depth];
        let mut txn = Txn::default();
        txn.occupy_fu(&mut self.mrrg, tile, start, 1);
        let slot = tile.index() * self.ii as usize + (start % u64::from(self.ii)) as usize;
        self.fu_owner[slot] = depth as i64;

        let mut new_routes: Vec<(usize, Route)> = Vec::new();
        for (eid, fr, d) in in_routes {
            let consume = start + u64::from(*d) * u64::from(self.ii);
            new_routes.push((
                *eid,
                Route {
                    edge: iced_dfg::EdgeId::from_index(*eid),
                    hops: fr.hops.clone(),
                    src_ready: fr.src_ready(),
                    arrival: fr.arrival,
                    consume_at: consume,
                },
            ));
        }

        let ready = start + 1;
        for &(eid, dst, deadline) in consumers {
            let Some(found) = route(
                self.cfg,
                &mut self.mrrg,
                &self.rates,
                &self.virgin,
                tile,
                ready,
                dst,
                Some(deadline),
                deadline,
                &mut txn,
                &mut self.scratch,
            ) else {
                conflict.taint();
                self.fu_owner[slot] = -1;
                txn.rollback(&mut self.mrrg);
                return Step::Fail(Conflict {
                    tainted: true,
                    max_level: depth as i64,
                });
            };
            new_routes.push((
                eid.index(),
                Route {
                    edge: eid,
                    hops: found.hops.clone(),
                    src_ready: ready,
                    arrival: found.arrival,
                    consume_at: deadline,
                },
            ));
        }

        self.placements[node.index()] = Some(Placement {
            tile,
            start,
            rate: 1,
        });
        let route_ids: Vec<usize> = new_routes.iter().map(|(i, _)| *i).collect();
        for (eid, r) in new_routes {
            self.routes[eid] = Some(r);
        }
        self.explored += 1;

        let step = self.extend(depth + 1);
        if matches!(step, Step::Found) {
            return step;
        }
        // Unwind this decision (both on Fail and on Stop).
        self.placements[node.index()] = None;
        for eid in route_ids {
            self.routes[eid] = None;
        }
        self.fu_owner[slot] = -1;
        txn.rollback(&mut self.mrrg);
        step
    }

    /// Assembles the found mapping. The exact backend searches the
    /// all-normal schedule space, so — like the conventional baseline —
    /// every island runs at nominal V/F.
    fn finish(&self) -> Mapping {
        let island_levels = vec![DvfsLevel::Normal; self.cfg.island_count()];
        let tile_levels = vec![DvfsLevel::Normal; self.cfg.tile_count()];
        Mapping::assemble(
            self.dfg.name().to_string(),
            self.cfg.clone(),
            self.ii,
            self.placements
                .iter()
                .map(|p| p.expect("all nodes placed on success"))
                .collect(),
            self.routes.iter().flatten().cloned().collect(),
            island_levels,
            tile_levels,
        )
    }
}

/// Admissible modulo-scheduling ASAP times over the all-normal schedule:
/// the longest-path fixpoint of `σ(v) ≥ σ(u) + 1 − d·II`. Unlike the
/// heuristic's label-aware version there is no transport pad — a
/// same-tile consumer really can read at the producer's ready cycle, so
/// padding would cut feasible schedules out of the certified space.
fn asap_times(dfg: &Dfg, ii: u32) -> Vec<u64> {
    let n = dfg.node_count();
    let ii = i64::from(ii);
    let mut t = vec![0i64; n];
    for _ in 0..=n {
        let mut changed = false;
        for e in dfg.edges() {
            let w = 1 - i64::from(e.kind().distance()) * ii;
            let cand = t[e.src().index()] + w;
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
