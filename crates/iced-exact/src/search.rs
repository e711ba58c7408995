//! Per-II branch-and-bound search over the MRRG.
//!
//! The search explores the *same decision space* the heuristic engine
//! commits into — one `(tile, FU slot)` decision per DFG node, taken in
//! the heuristic's cycle-first topological order, with every edge routed
//! by the shared Dijkstra router the moment its second endpoint is
//! placed — but exhaustively, with chronological backtracking upgraded to
//! conservative conflict-driven backjumping. It commits through the
//! mapper's own commit kernel (`iced_mapper::engine_internals::Partial`):
//! routing, route records, island state and the finished mapping are the
//! placer's code, and only the slot loop, FU-slot ownership, conflicts and
//! backjumping live here. A `Refuted` verdict is a
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
//! Arithmetic window and FU slot: before routing anything for a
//! candidate tile, the search bounds the FU start cycles the tile could
//! accept. No in-route
//! arrives before its `arrival_lower_bound`, so no slot starts before
//! `lo = max(asap, max over placed in-edges of (bound − d·II))`. A placed
//! consumer read by `deadline` is out of reach from slot `s` when the
//! bound from `(tile, s + 1)` exceeds the deadline; the router rejects
//! that out-route before searching, and since the bound never decreases
//! in `s`, from every later slot too. So a tile whose window is empty at
//! `lo` is skipped whole, and the slot loop stops at the first slot whose
//! window is empty. A tile with a placed predecessor whose FU has no free
//! cycle in the period (`Partial::has_fu_slot` at rate 1) is skipped
//! whole too: its `2·II` slot window covers every phase, so every slot
//! would be busy. All three taint the conflict in place of the routing
//! they skip, and the tree is unchanged:
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

use iced_arch::{DvfsLevel, Mrrg, TileId};
use iced_mapper::engine_internals::{
    modulo_asap, Consumer, Draft, InRoute, Partial, Prepared, RouterScratch,
};
use iced_mapper::{Mapping, Placement};
use iced_trace::Phase;

use crate::ExactOptions;

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
    /// The kernel, prepared once per certification and shared by every
    /// II: its live tiles, placement order and FU capacity per class.
    prep: &'a Prepared<'a>,
    /// The search reads its node budget, deadline and backjumping.
    opts: &'a ExactOptions,
    /// The partial mapping, every island at nominal V/F: the exact
    /// backend searches the all-normal schedule space, so — like the
    /// conventional baseline — no island is ever opened or pinned.
    state: Partial<'a>,
    /// Admissible modulo-ASAP times over the all-normal schedule (unit
    /// latency). Unlike the heuristic's label-aware version there is no
    /// transport pad — a same-tile consumer really can read at the
    /// producer's ready cycle, so padding would cut feasible schedules out
    /// of the certified space.
    asap: Vec<u64>,
    /// Which decision level owns each `(tile, cycle mod II)` FU slot;
    /// `-1` = free or pre-occupied by the fault mask (structural).
    fu_owner: Vec<i64>,
    explored: u64,
}

impl<'a> Search<'a> {
    /// A search at `mrrg`'s II, which must be empty apart from the fault
    /// mask ([`Prepared::mrrg`]).
    pub(crate) fn new(
        prep: &'a Prepared<'a>,
        opts: &'a ExactOptions,
        mrrg: &'a mut Mrrg,
        scratch: &'a mut RouterScratch,
    ) -> Search<'a> {
        let (dfg, cfg, ii) = (prep.dfg, prep.cfg, mrrg.ii());
        Search {
            prep,
            opts,
            asap: modulo_asap(dfg, ii, |_| 1),
            fu_owner: vec![-1; cfg.tile_count() * ii as usize],
            state: Partial::new(dfg, cfg, mrrg, scratch, Some(DvfsLevel::Normal)),
            explored: 0,
        }
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
            Step::Found => Verdict::Feasible(Box::new(self.state.finish(DvfsLevel::Normal))),
            Step::Fail(_) => {
                iced_trace::counter(Phase::Mapper, "exact_refutations", 1);
                Verdict::Refuted
            }
            Step::Stop(v) => v,
        }
    }

    fn extend(&mut self, depth: usize) -> Step {
        let prep = self.prep;
        if depth == prep.order.len() {
            return Step::Found;
        }
        if self.explored >= self.opts.node_budget {
            return Step::Stop(Verdict::Budget);
        }
        if self
            .opts
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            return Step::Stop(Verdict::Deadline);
        }
        if self.state.capacity_cut(prep, depth) {
            // The cut compares totals touched by every earlier level; the
            // precise blocker set is unknown, so backtrack chronologically.
            let mut c = Conflict::none();
            c.taint();
            return Step::Fail(c);
        }
        let node = prep.order[depth];
        let mut conflict = Conflict::none();
        let ii = u64::from(self.state.ii());
        let span = (2 * ii).max(4);
        let consumers = self.state.placed_consumers(node);
        let asap = self.asap[node.index()];

        for &tile in &prep.tiles {
            if !prep.hosts(node, tile) {
                continue;
            }
            // Arithmetic window and FU slot: if an out-route already
            // misses its deadline from `lo`, every slot's would, and if
            // the FU has no free cycle, every slot is busy (see the
            // module docs): skip the tile without routing.
            let (lo, has_placed_pred) = self.state.window_lo(node, tile, asap);
            if has_placed_pred
                && (self.state.misses_deadline(&consumers, tile, lo + 1)
                    || !self.state.has_fu_slot(tile, 1))
            {
                conflict.taint();
                continue;
            }
            // Route every placed-predecessor edge with the shared router.
            // Failures contend with global link/register state —
            // unattributable, so tainted.
            let mut draft_in = Draft::default();
            let Some((in_routes, min_start)) =
                self.state.route_in_edges(node, tile, asap, &mut draft_in)
            else {
                conflict.taint();
                self.state.rollback(draft_in);
                continue;
            };

            let mut backjump_out: Option<Conflict> = None;
            for s in min_start..min_start + span {
                if !self.state.mrrg().fu_free(tile, s, 1) {
                    if has_placed_pred {
                        // The window position itself depends on routed
                        // arrivals — attribution would be unsound.
                        conflict.taint();
                    } else {
                        let slot = tile.index() * ii as usize + (s % ii) as usize;
                        conflict.add_level(self.fu_owner[slot]);
                    }
                    continue;
                }
                if !self.state.holds(&in_routes, s) {
                    conflict.taint();
                    continue;
                }
                if self.state.misses_deadline(&consumers, tile, s + 1) {
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
                        self.state.rollback(draft_in);
                        return Step::Stop(v);
                    }
                    Step::Fail(c) => {
                        if self.opts.backjump && !c.tainted && c.max_level < depth as i64 {
                            // No alternative at this level can repair the
                            // conflict: jump straight through.
                            backjump_out = Some(c);
                            break;
                        }
                        conflict.taint();
                    }
                }
            }
            self.state.rollback(draft_in);
            if let Some(c) = backjump_out {
                return Step::Fail(c);
            }
        }
        if !self.opts.backjump {
            conflict.taint();
        }
        Step::Fail(conflict)
    }

    /// Commits the node at `depth` on `(tile, start)` — FU slot,
    /// deadline-bounded out-routes to `consumers` in their order, and the
    /// placement with its routes — then recurses. On failure everything
    /// is rolled back.
    fn try_slot(
        &mut self,
        depth: usize,
        tile: TileId,
        start: u64,
        in_routes: &[InRoute],
        consumers: &[Consumer],
        conflict: &mut Conflict,
    ) -> Step {
        let node = self.prep.order[depth];
        let ii = u64::from(self.state.ii());
        let mut draft = Draft::default();
        self.state.occupy_fu(tile, start, 1, &mut draft);
        let slot = tile.index() * ii as usize + (start % ii) as usize;
        self.fu_owner[slot] = depth as i64;

        let Some(out) = self
            .state
            .route_out_edges(tile, start + 1, consumers, &mut draft)
        else {
            conflict.taint();
            self.fu_owner[slot] = -1;
            self.state.rollback(draft);
            return Step::Fail(Conflict {
                tainted: true,
                max_level: depth as i64,
            });
        };
        let p = Placement {
            tile,
            start,
            rate: 1,
        };
        self.state.place(node, p, in_routes, consumers, out);
        self.explored += 1;

        let step = self.extend(depth + 1);
        if matches!(step, Step::Found) {
            return step;
        }
        // Unwind this decision (both on Fail and on Stop).
        self.state.unplace(node, draft);
        self.fu_owner[slot] = -1;
        step
    }
}
