//! Dijkstra routing over the time-extended MRRG (Algorithm 2, line 18's
//! "shortest path between tiles").
//!
//! A value produced on tile `s` at base cycle `ready` travels to tile `d`
//! through mesh hops. Each hop out of a tile whose island runs at rate
//! divisor `r` occupies the directed link for one of the tile's slow cycles
//! (`r` base cycles, phase-aligned); waiting at a tile pins a register-file
//! slot per base cycle. The search minimises arrival time; reservations are
//! journalled in a [`Txn`] so a failed placement candidate can be rolled
//! back without rebuilding the MRRG.
//!
//! # Fast path
//!
//! The search state space is `tiles × [ready, horizon]` — small, dense, and
//! integer-keyed — so the classic heap-and-hash-set Dijkstra is replaced by
//! cache-friendly flat structures (the mapper spends most of its wall time
//! here):
//!
//! * the **visited set** is an earliest-pop table indexed
//!   `tile · II + t mod II` instead of a `HashSet<(TileId, u64)>`: the
//!   smallest time at which each (tile, phase) was expanded in the current
//!   pass (see *modulo-phase dominance* below);
//! * the **frontier** is a monotone bucket queue keyed on the primary cost
//!   (arrival time for open routes, island-pinning aux for deadline
//!   routes). Every expansion strictly increases the primary key, so each
//!   bucket is sorted once on first entry and drained in `(secondary, idx)`
//!   order — exactly the pop order of the former
//!   `BinaryHeap<Reverse<((primary, secondary), idx)>>`, making the rewrite
//!   bit-identical to the heap version;
//! * arena, earliest-pop table, and buckets live in a caller-owned
//!   [`RouterScratch`] reused across the thousands of `route` calls of one
//!   mapping attempt;
//! * the search applies **modulo-phase dominance**. The MRRG is modulo II:
//!   link and FU probes and `reg_available` depend only on `t mod II` (and
//!   the wait length), every rate divides II so the phase-aligned departure
//!   `⌈t/r⌉·r` shifts with `t`, and a hop's aux depends only on its tile.
//!   So the successors of `(tile, t + k·II)` are exactly those of
//!   `(tile, t)` shifted by `k·II`; horizon, deadline, and pass bound are
//!   upper limits only, so they cut the later copy no less. Any path through
//!   the later copy maps to one through the earlier copy that arrives
//!   `k·II` sooner with the same suffix aux. A state is therefore skipped
//!   when its tile was already expanded at an earlier time of the same
//!   phase. For open routes (key: arrival, then aux) the earlier copy always
//!   pops first and the mapped path is strictly better. For deadline routes
//!   (key: aux, then arrival) the earlier copy pops first only when its aux
//!   is at most the later copy's — exactly when the mapped path is no worse
//!   in aux and strictly earlier; otherwise both copies are expanded. Either
//!   way no state on the first goal's parent chain is ever skipped, so the
//!   goal, its chain, and the committed occupancy are those of the full
//!   search, and a failed pass expands each (tile, phase) at most once
//!   whatever the horizon;
//! * the search is **goal-bounded**. Every hop after the overlapped first
//!   one takes a base cycle or more, so a state `(tile, t)` with
//!   `t + manhattan(tile, dst)` past the pass's limit lies on no route
//!   within it and is never pushed; a route whose Manhattan lower bound
//!   [`arrival_lower_bound`] (`ready + manhattan(src, dst) − overlap`) is
//!   already past `min(deadline, horizon)` is rejected before any search
//!   (the placer and the exact search apply the same bound to skip
//!   candidates before routing at all). Deadness depends only on
//!   `(tile, t)` and is closed under successors, and an
//!   earlier copy of a live state is live, so pruning leaves the skip
//!   decisions, parent chains, and relative arena order of the live states
//!   — hence their pop order — unchanged. Open
//!   routes *deepen*: a first pass is bounded by the lower bound, each
//!   failed pass raises the limit to the smallest bound among the states
//!   it pruned (any limit below that repeats the pass), and after
//!   [`DEEPENING_PASSES`] one pass runs at the full limit. A pass whose
//!   limit is below the earliest arrival `T` finds nothing (its states
//!   are a subset of the full search's); the first pass at or above `T`
//!   pops the same goal as the unbounded search. Deadline routes run one
//!   pass at their full limit: their primary key is aux, and a smaller
//!   limit could drop a lower-aux route that arrives later but on time.

use iced_arch::{CgraConfig, Dir, Mrrg, TileId};
use iced_trace::Phase;

use crate::mapping::Hop;

/// Journal of MRRG reservations that can be rolled back as a unit.
#[derive(Debug, Default)]
pub struct Txn {
    fu: Vec<(TileId, u64, u32)>,
    links: Vec<(TileId, Dir, u64, u32)>,
    regs: Vec<(TileId, u64, u64)>,
}

impl Txn {
    /// Occupies an FU window and journals it.
    pub fn occupy_fu(&mut self, m: &mut Mrrg, tile: TileId, start: u64, len: u32) {
        m.occupy_fu(tile, start, len);
        self.fu.push((tile, start, len));
    }

    /// Occupies a link window and journals it.
    pub fn occupy_link(&mut self, m: &mut Mrrg, tile: TileId, dir: Dir, start: u64, len: u32) {
        m.occupy_link(tile, dir, start, len);
        self.links.push((tile, dir, start, len));
    }

    /// Occupies register slots and journals them (no-op for `len == 0`).
    pub fn occupy_reg(&mut self, m: &mut Mrrg, tile: TileId, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        m.occupy_reg(tile, start, len);
        self.regs.push((tile, start, len));
    }

    /// Undoes every reservation in this journal.
    pub fn rollback(self, m: &mut Mrrg) {
        for (t, s, l) in self.fu.into_iter().rev() {
            m.release_fu(t, s, l);
        }
        for (t, d, s, l) in self.links.into_iter().rev() {
            m.release_link(t, d, s, l);
        }
        for (t, s, l) in self.regs.into_iter().rev() {
            m.release_reg(t, s, l);
        }
    }
}

/// A found route: arrival time plus the hops taken.
#[derive(Debug, Clone)]
pub struct FoundRoute {
    /// Base cycle the value reaches the destination tile.
    pub arrival: u64,
    /// Mesh hops taken, in order (empty for same-tile routes).
    pub hops: Vec<Hop>,
}

impl FoundRoute {
    /// Base cycle the value left its source: the first hop's departure,
    /// or the arrival itself for a same-tile route.
    pub fn src_ready(&self) -> u64 {
        self.hops
            .first()
            .map_or(self.arrival, |h| h.depart.min(self.arrival))
    }
}

#[derive(Debug, Clone, Copy)]
struct SearchNode {
    tile: TileId,
    time: u64,
    /// Secondary cost: hop count plus penalties for pinning virgin islands
    /// and threading slow tiles (tie-break below arrival time).
    aux: u64,
    parent: usize, // index into the arena; usize::MAX for the root
    hop: Option<(TileId, Dir, u64, u32)>, // (from, dir, depart, len) that led here
}

/// Reusable search buffers: the node arena, the earliest-pop table (the
/// smallest expanded time per `tile · II + t mod II`, `u64::MAX` when
/// none), and the bucket-queue spine. One instance serves every `route`
/// call of a mapping attempt, so steady-state routing allocates nothing.
#[derive(Debug, Default)]
pub struct RouterScratch {
    arena: Vec<SearchNode>,
    earliest: Vec<u64>,
    buckets: Vec<Vec<(u64, usize)>>,
}

/// Monotone bucket queue over `(primary, secondary, arena idx)`.
///
/// Exploits the Dijkstra invariant that every pushed key's primary strictly
/// exceeds the primary currently being drained (open routes: arrival time
/// strictly grows per hop; deadline routes: aux strictly grows per hop), so
/// a bucket can be sorted once when first entered and never receives a
/// late insert. Pop order is ascending `(primary, secondary, idx)` — the
/// exact order of the `BinaryHeap` this replaces.
struct BucketQueue<'a> {
    buckets: &'a mut Vec<Vec<(u64, usize)>>,
    cur: usize,
    pos: usize,
    live: usize,
}

impl<'a> BucketQueue<'a> {
    fn new(buckets: &'a mut Vec<Vec<(u64, usize)>>) -> Self {
        for b in buckets.iter_mut() {
            b.clear();
        }
        BucketQueue {
            buckets,
            cur: 0,
            pos: 0,
            live: 0,
        }
    }

    fn push(&mut self, primary: usize, secondary: u64, idx: usize) {
        debug_assert!(
            primary > self.cur || (primary == self.cur && self.pos == 0),
            "bucket queue requires monotone primary keys"
        );
        if self.buckets.len() <= primary {
            self.buckets.resize_with(primary + 1, Vec::new);
        }
        self.buckets[primary].push((secondary, idx));
        self.live += 1;
    }

    fn pop(&mut self) -> Option<usize> {
        while self.live > 0 {
            let bucket = &mut self.buckets[self.cur];
            if self.pos == 0 && bucket.len() > 1 {
                bucket.sort_unstable();
            }
            if self.pos < bucket.len() {
                let (_, idx) = bucket[self.pos];
                self.pos += 1;
                self.live -= 1;
                return Some(idx);
            }
            self.cur += 1;
            self.pos = 0;
        }
        None
    }
}

/// Bounded passes an open route may run below its full limit before the
/// one pass at the full limit. Chosen by a scan of total expansions
/// (standalone suite, both option sets; cold-compile benchmark at seed 1):
/// 0 → 535k / 2.11M, 1 → 504k / 918k, 2 → 493k / 835k, 4 → 475k / 779k,
/// 6 → 475k / 763k, 8 → 479k / 771k. Beyond four, failing routes pay for
/// extra passes about as much as succeeding ones save.
const DEEPENING_PASSES: usize = 4;

/// Time window an in-edge route may search when its consumer is not yet
/// scheduled: four base cycles per mesh hop of detour and waiting, six
/// modulo periods of link contention, and a fixed margin. Shared by the
/// heuristic placer and the exact search so both route over the same
/// window.
pub fn in_route_horizon(cfg: &CgraConfig, src: TileId, ready: u64, dst: TileId, ii: u32) -> u64 {
    ready + 4 * cfg.manhattan(src, dst) as u64 + 6 * u64::from(ii) + 32
}

/// A lower bound on the arrival at `dst` of any route of a value ready
/// on `src` at `ready`: `ready` itself on the same tile, otherwise
/// `ready + manhattan(src, dst) − overlap`. The overlapped first hop
/// (`overlap = 1` once `ready >= rates[src]`) reaches a neighbour at
/// `ready`; every other hop takes a base cycle or more.
///
/// The bound never decreases as `ready` grows. Within either side of the
/// overlap step it grows one for one, and at the step (`ready = rate − 1`
/// to `ready = rate`) the `+1` and the `−1` cancel. So once it exceeds a
/// deadline at some `ready`, it does so at every later `ready` too: the
/// placer and the exact search use that to rule out whole windows of
/// start cycles without routing. `route` returns `None` whenever the bound
/// exceeds `min(deadline, horizon)`, except that a same-tile route needs
/// no search and is bounded by its deadline alone.
pub fn arrival_lower_bound(
    cfg: &CgraConfig,
    rates: &[u32],
    src: TileId,
    ready: u64,
    dst: TileId,
) -> u64 {
    if src == dst {
        return ready;
    }
    let overlap = u64::from(ready >= u64::from(rates[src.index()]));
    ready + cfg.manhattan(src, dst) as u64 - overlap
}

/// Finds the earliest-arrival route from (`src`, `ready`) to `dst`.
///
/// `rates[tile]` is each tile's DVFS rate divisor (1/2/4). `deadline`
/// bounds the arrival (used for loop-carried edges whose consumer is
/// already scheduled); `horizon` bounds the search in time. On success the
/// route's link and register reservations are committed into `mrrg` and
/// journalled in `txn`; the hold at the *destination* tile (arrival →
/// consume time) is the caller's responsibility because the consume time
/// may not be known yet.
///
/// `virgin[tile]` marks tiles whose island has no DVFS level assigned yet;
/// routing out of such a tile pins the island to `normal`, so among
/// equally fast paths the search prefers ones that pin fewer islands and
/// take fewer hops (especially through slow tiles, whose links are a scarce
/// one-transfer-per-period resource).
#[allow(clippy::too_many_arguments)]
pub fn route(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    rates: &[u32],
    virgin: &[bool],
    src: TileId,
    ready: u64,
    dst: TileId,
    deadline: Option<u64>,
    horizon: u64,
    txn: &mut Txn,
    scratch: &mut RouterScratch,
) -> Option<FoundRoute> {
    let mut effort = Effort::default();
    let found = search(
        cfg,
        mrrg,
        rates,
        virgin,
        src,
        ready,
        dst,
        deadline,
        horizon,
        txn,
        scratch,
        &mut effort,
    );
    if iced_trace::enabled() {
        iced_trace::counter(Phase::Router, "routes_requested", 1);
        iced_trace::counter(Phase::Router, "dijkstra_expansions", effort.expansions);
        iced_trace::counter(Phase::Router, "route_passes", effort.passes);
        match &found {
            Some(fr) => iced_trace::counter(Phase::Router, "hops_committed", fr.hops.len() as u64),
            None => {
                iced_trace::counter(Phase::Router, "route_failures", 1);
                iced_trace::counter(Phase::Router, "failed_route_expansions", effort.expansions);
            }
        }
    }
    found
}

/// Search effort of one `route` call, summed over its passes.
#[derive(Debug, Default)]
struct Effort {
    expansions: u64,
    passes: u64,
}

/// The fixed inputs of one route search.
struct Query<'a> {
    cfg: &'a CgraConfig,
    rates: &'a [u32],
    virgin: &'a [bool],
    src: TileId,
    ready: u64,
    dst: TileId,
    deadline: Option<u64>,
    horizon: u64,
}

/// How a search pass ended.
enum Pass {
    /// The goal was popped at this arena index.
    Found(usize),
    /// No route within the pass's limit. Carries the smallest goal bound
    /// `t + manhattan(tile, dst)` among the states the limit pruned, or
    /// `None` when the pass pruned nothing (no limit can do better).
    Failed(Option<u64>),
}

#[allow(clippy::too_many_arguments)]
fn search(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    rates: &[u32],
    virgin: &[bool],
    src: TileId,
    ready: u64,
    dst: TileId,
    deadline: Option<u64>,
    horizon: u64,
    txn: &mut Txn,
    scratch: &mut RouterScratch,
    effort: &mut Effort,
) -> Option<FoundRoute> {
    if src == dst {
        if deadline.is_some_and(|d| ready > d) {
            return None;
        }
        return Some(FoundRoute {
            arrival: ready,
            hops: Vec::new(),
        });
    }
    // Every route arrives by `limit`, and none before `lb`.
    let limit = deadline.map_or(horizon, |d| d.min(horizon));
    let lb = arrival_lower_bound(cfg, rates, src, ready, dst);
    if lb > limit {
        return None;
    }
    let q = Query {
        cfg,
        rates,
        virgin,
        src,
        ready,
        dst,
        deadline,
        horizon,
    };
    // Deadline routes minimise aux, not arrival, so a limit below the
    // deadline could drop their answer: one pass at the full limit. Open
    // routes deepen from the lower bound; every pass below the earliest
    // arrival fails, and the first at or above it pops the same goal as
    // the full pass would.
    let mut bound = if deadline.is_some() { limit } else { lb };
    let mut deeper = DEEPENING_PASSES;
    loop {
        let last = bound >= limit || deeper == 0;
        if last {
            bound = limit;
        }
        effort.passes += 1;
        match search_pass(&q, mrrg, scratch, bound, !last, &mut effort.expansions) {
            Pass::Found(goal) => return Some(commit(cfg, mrrg, src, &scratch.arena, goal, txn)),
            // A pass whose pruned states all miss the limit is the full
            // pass already.
            Pass::Failed(Some(next)) if next <= limit => {
                bound = next;
                deeper -= 1;
            }
            Pass::Failed(_) => return None,
        }
    }
}

/// One Dijkstra pass that pushes only states `(tile, t)` with
/// `t + manhattan(tile, dst) <= bound` (the root excepted). With `deepen`
/// set, it also finds the smallest goal bound among the states it pruned,
/// so the caller can skip every limit that would repeat this pass.
fn search_pass(
    q: &Query,
    mrrg: &Mrrg,
    scratch: &mut RouterScratch,
    bound: u64,
    deepen: bool,
    expansions: &mut u64,
) -> Pass {
    let Query {
        cfg,
        rates,
        virgin,
        src,
        ready,
        dst,
        deadline,
        horizon,
    } = *q;
    let hop_aux = |from: TileId| -> u64 {
        let mut a = 1;
        if virgin[from.index()] {
            a += 8;
        }
        if from != src && rates[from.index()] > 1 {
            a += 4;
        }
        a
    };
    // Deadline routes have slack by construction (any on-time arrival is
    // equally good), so they minimise island-pinning first and time second;
    // open routes minimise arrival time (the consumer starts sooner).
    // Times are rebased to `ready` so open-route buckets start at 0.
    let key = |time: u64, aux: u64| -> (usize, u64) {
        if deadline.is_some() {
            (aux as usize, time)
        } else {
            ((time - ready) as usize, aux)
        }
    };
    let dist = |tile: TileId| -> u64 { cfg.manhattan(tile, dst) as u64 };
    // Smallest pruned goal bound. A pass that does not deepen starts it at
    // `bound + 1`, so it never scans link slots past the bound.
    let mut next = if deepen {
        u64::MAX
    } else {
        bound.saturating_add(1)
    };
    // Modulo-phase dominance: a state whose tile was expanded at an
    // earlier time of the same phase is skipped. The shift lemma behind it
    // needs every phase-aligned departure to shift with the period.
    let ii = u64::from(mrrg.ii());
    debug_assert!(
        rates.iter().all(|&r| ii.is_multiple_of(u64::from(r))),
        "every rate divides II"
    );
    let phase = |tile: TileId, time: u64| tile.index() * ii as usize + (time % ii) as usize;
    let RouterScratch {
        arena,
        earliest,
        buckets,
    } = scratch;
    arena.clear();
    earliest.clear();
    earliest.resize(cfg.tile_count() * ii as usize, u64::MAX);
    let mut queue = BucketQueue::new(buckets);

    arena.push(SearchNode {
        tile: src,
        time: ready,
        aux: 0,
        parent: usize::MAX,
        hop: None,
    });
    let (p, s) = key(ready, 0);
    queue.push(p, s, 0);

    // First hop is overlapped with the producing operation: the FU output
    // drives the crossbar during the execution window [ready − r, ready),
    // so a neighbour receives the value at `ready` with no extra latency
    // (this is what lets the paper's Fig. 1 chain the critical cycle across
    // neighbouring tiles at II = RecMII).
    let r_src = rates[src.index()] as u64;
    if ready >= r_src {
        let window = ready - r_src;
        for (dir, nbr) in cfg.neighbors(src) {
            if mrrg.link_free(src, dir, window, r_src as u32) {
                let goal_bound = ready + dist(nbr);
                if goal_bound > bound {
                    next = next.min(goal_bound);
                    continue;
                }
                let aux = hop_aux(src);
                arena.push(SearchNode {
                    tile: nbr,
                    time: ready,
                    aux,
                    parent: 0,
                    hop: Some((src, dir, window, r_src as u32)),
                });
                let (p, s) = key(ready, aux);
                queue.push(p, s, arena.len() - 1);
            }
        }
    }

    while let Some(idx) = queue.pop() {
        *expansions += 1;
        let node = arena[idx];
        let time = node.time;
        let first = &mut earliest[phase(node.tile, time)];
        if *first <= time {
            continue;
        }
        *first = time;
        if node.tile == dst {
            debug_assert!(
                deadline.is_none_or(|d| time <= d),
                "pruning admits no late arrival"
            );
            return Pass::Found(idx);
        }
        let r = rates[node.tile.index()] as u64;
        for (dir, nbr) in cfg.neighbors(node.tile) {
            // Earliest phase-aligned slow cycle >= current time with a free
            // link, holding the value in registers while waiting. The
            // producer's own tile holds its result in the FU output latch,
            // so waiting there is free and shared across fan-out edges.
            // `next > bound` always, and a slot whose goal bound reaches
            // `next` can neither be pushed nor lower it: the scan stops.
            let d_nbr = dist(nbr);
            let mut w = time.div_ceil(r) * r;
            while w + r <= horizon && w + r + d_nbr < next {
                if node.tile != src && !mrrg.reg_available(node.tile, time, w.saturating_sub(time))
                {
                    break; // cannot hold the value this long here
                }
                if mrrg.link_free(node.tile, dir, w, r as u32) {
                    let arrive = w + r;
                    // A state that cannot reach `dst` by `bound` (every
                    // hop takes a base cycle or more) is on no route
                    // within this pass.
                    if arrive + d_nbr > bound {
                        next = next.min(arrive + d_nbr);
                    } else if earliest[phase(nbr, arrive)] > arrive {
                        let aux = node.aux + hop_aux(node.tile);
                        arena.push(SearchNode {
                            tile: nbr,
                            time: arrive,
                            aux,
                            parent: idx,
                            hop: Some((node.tile, dir, w, r as u32)),
                        });
                        let (p, s) = key(arrive, aux);
                        queue.push(p, s, arena.len() - 1);
                    }
                    break;
                }
                w += r;
            }
        }
    }
    Pass::Failed((deepen && next != u64::MAX).then_some(next))
}

/// Walks the parent chain, committing link occupancy and wait-holds.
fn commit(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    src: TileId,
    arena: &[SearchNode],
    goal: usize,
    txn: &mut Txn,
) -> FoundRoute {
    let mut chain = Vec::new();
    let mut idx = goal;
    while idx != usize::MAX {
        chain.push(idx);
        idx = arena[idx].parent;
    }
    chain.reverse();
    let mut hops = Vec::new();
    for pair in chain.windows(2) {
        let prev = arena[pair[0]];
        let cur = arena[pair[1]];
        let (from, dir, depart, len) = cur.hop.expect("non-root nodes carry hop info");
        // Hold at `from` while waiting for the link slot; free at the
        // producer's tile (FU output latch, shared by all fan-out edges).
        if from != src {
            txn.occupy_reg(mrrg, from, prev.time, depart.saturating_sub(prev.time));
        }
        txn.occupy_link(mrrg, from, dir, depart, len);
        let to = cfg.neighbor(from, dir).expect("hop used an existing link");
        hops.push(Hop {
            from,
            to,
            dir,
            depart,
            arrive: cur.time,
        });
    }
    FoundRoute {
        arrival: arena[goal].time,
        hops,
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use super::*;
    use iced_arch::CgraConfig;
    use proptest::test_runner::TestRng;

    fn setup(n: usize) -> (CgraConfig, Mrrg, Vec<u32>, Vec<bool>) {
        let cfg = CgraConfig::square(n).unwrap();
        let mrrg = Mrrg::new(&cfg, 4).unwrap();
        let rates = vec![1u32; cfg.tile_count()];
        let virgin = vec![false; cfg.tile_count()];
        (cfg, mrrg, rates, virgin)
    }

    #[test]
    fn straight_line_route_takes_manhattan_hops() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 3);
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            1,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(r.hops.len(), 3);
        // First hop overlaps the producing cycle (arrival at (0,1) at time
        // 1), then one cycle per store-and-forward hop.
        assert_eq!(r.arrival, 3);
        assert_eq!(r.hops[0].dir, Dir::East);
    }

    #[test]
    fn same_tile_route_is_free() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let t = cfg.tile_at(1, 1);
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            t,
            7,
            t,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert!(r.hops.is_empty());
        assert_eq!(r.arrival, 7);
    }

    #[test]
    fn busy_link_forces_wait_or_detour() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 1);
        // Block the direct east link at every cycle of the period except 3.
        for c in 0..3 {
            mrrg.occupy_link(src, Dir::East, c, 1);
        }
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        // Either waits for cycle 3 or detours south->east->north (3 hops).
        assert!(r.arrival >= 3 || r.hops.len() == 3, "arrival {}", r.arrival);
    }

    #[test]
    fn deadline_rejects_late_arrivals() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(3, 3);
        // Manhattan distance 6, ready at 0 → arrival >= 6 > deadline 3.
        assert!(route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            Some(3),
            64,
            &mut txn,
            &mut scratch,
        )
        .is_none());
    }

    #[test]
    fn ready_past_horizon_fails_cleanly() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 1);
        assert!(route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            80,
            dst,
            Some(3),
            3,
            &mut txn,
            &mut scratch,
        )
        .is_none());
    }

    #[test]
    fn slow_tile_departures_are_phase_aligned() {
        let cfg = CgraConfig::square(4).unwrap();
        let mut mrrg = Mrrg::new(&cfg, 4).unwrap();
        let mut rates = vec![1u32; cfg.tile_count()];
        let virgin = vec![false; cfg.tile_count()];
        let src = cfg.tile_at(0, 0);
        rates[src.index()] = 4; // rest tile
        let dst = cfg.tile_at(0, 1);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        // Value ready at 4 (one rest cycle in), link transfer spans 4..8.
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            4,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(r.hops[0].depart % 4, 0);
        assert_eq!(r.arrival, r.hops[0].depart + 4);
    }

    #[test]
    fn rollback_restores_mrrg() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 2);
        route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert!(!mrrg.link_free(src, Dir::East, 0, 1));
        txn.rollback(&mut mrrg);
        assert!(mrrg.link_free(src, Dir::East, 0, 1));
        for t in cfg.tiles() {
            assert_eq!(mrrg.link_busy_cycles(t), 0);
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_searches() {
        // The same scratch must not leak visited/frontier state between
        // calls: two identical searches return identical routes.
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(2, 0);
        let dst = cfg.tile_at(0, 2);
        let mut txn1 = Txn::default();
        let a = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            2,
            dst,
            None,
            64,
            &mut txn1,
            &mut scratch,
        )
        .unwrap();
        txn1.rollback(&mut mrrg);
        let mut txn2 = Txn::default();
        let b = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            2,
            dst,
            None,
            64,
            &mut txn2,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.hops, b.hops);
    }

    /// Textbook reference for `route`: one Dijkstra pass over the whole
    /// `[ready, horizon]` window with a `BinaryHeap` keyed
    /// `((primary, secondary), idx)` and a hash set of visited states, no
    /// pruning and no deepening. Commits its own reservations.
    #[allow(clippy::too_many_arguments)]
    fn oracle_route(
        cfg: &CgraConfig,
        mrrg: &mut Mrrg,
        rates: &[u32],
        virgin: &[bool],
        src: TileId,
        ready: u64,
        dst: TileId,
        deadline: Option<u64>,
        horizon: u64,
    ) -> Option<FoundRoute> {
        if src == dst {
            return deadline.is_none_or(|d| ready <= d).then(|| FoundRoute {
                arrival: ready,
                hops: Vec::new(),
            });
        }
        let on_time = |t: u64| t <= horizon && deadline.is_none_or(|d| t <= d);
        let key = |time: u64, aux: u64| match deadline {
            Some(_) => (aux, time),
            None => (time, aux),
        };
        let step_aux = |from: TileId| {
            1 + if virgin[from.index()] { 8 } else { 0 }
                + if from != src && rates[from.index()] > 1 {
                    4
                } else {
                    0
                }
        };
        // (tile, time, aux, parent, hop)
        let mut nodes = vec![(src, ready, 0u64, usize::MAX, None)];
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((key(ready, 0), 0usize)));
        let r_src = u64::from(rates[src.index()]);
        if ready >= r_src && on_time(ready) {
            for (dir, nbr) in cfg.neighbors(src) {
                if mrrg.link_free(src, dir, ready - r_src, r_src as u32) {
                    let aux = step_aux(src);
                    nodes.push((nbr, ready, aux, 0, Some((src, dir, ready - r_src))));
                    heap.push(Reverse((key(ready, aux), nodes.len() - 1)));
                }
            }
        }
        let mut visited = HashSet::new();
        let goal = loop {
            let Reverse((_, idx)) = heap.pop()?;
            let (tile, time, aux, _, _) = nodes[idx];
            if !visited.insert((tile, time)) {
                continue;
            }
            if tile == dst {
                break idx;
            }
            let r = u64::from(rates[tile.index()]);
            for (dir, nbr) in cfg.neighbors(tile) {
                let mut w = time.div_ceil(r) * r;
                while w + r <= horizon {
                    if tile != src && !mrrg.reg_available(tile, time, w - time) {
                        break;
                    }
                    if mrrg.link_free(tile, dir, w, r as u32) {
                        if on_time(w + r) {
                            let a = aux + step_aux(tile);
                            nodes.push((nbr, w + r, a, idx, Some((tile, dir, w))));
                            heap.push(Reverse((key(w + r, a), nodes.len() - 1)));
                        }
                        break;
                    }
                    w += r;
                }
            }
        };
        let mut chain = Vec::new();
        let mut idx = goal;
        while let (to, arrive, _, parent, Some((from, dir, depart))) = nodes[idx] {
            chain.push((from, to, dir, depart, arrive, nodes[parent].1));
            idx = parent;
        }
        chain.reverse();
        let mut hops = Vec::new();
        for (from, to, dir, depart, arrive, held_from) in chain {
            if from != src && depart > held_from {
                mrrg.occupy_reg(from, held_from, depart - held_from);
            }
            mrrg.occupy_link(from, dir, depart, rates[from.index()]);
            hops.push(Hop {
                from,
                to,
                dir,
                depart,
                arrive,
            });
        }
        Some(FoundRoute {
            arrival: nodes[goal].1,
            hops,
        })
    }

    /// Runs `route` and the oracle on copies of `mrrg`; asserts the same
    /// answer and the same occupancy, then keeps the routed copy.
    #[allow(clippy::too_many_arguments)]
    fn route_matches_oracle(
        cfg: &CgraConfig,
        mrrg: &mut Mrrg,
        rates: &[u32],
        virgin: &[bool],
        src: TileId,
        ready: u64,
        dst: TileId,
        deadline: Option<u64>,
        horizon: u64,
        scratch: &mut RouterScratch,
    ) -> Option<FoundRoute> {
        let mut expected_mrrg = mrrg.clone();
        let expected = oracle_route(
            cfg,
            &mut expected_mrrg,
            rates,
            virgin,
            src,
            ready,
            dst,
            deadline,
            horizon,
        );
        let mut txn = Txn::default();
        let got = route(
            cfg, mrrg, rates, virgin, src, ready, dst, deadline, horizon, &mut txn, scratch,
        );
        let summary = |r: &Option<FoundRoute>| r.as_ref().map(|f| (f.arrival, f.hops.clone()));
        let case = format!(
            "{src:?}@{ready} -> {dst:?}, deadline {deadline:?}, horizon {horizon}, rates {rates:?}"
        );
        assert_eq!(summary(&got), summary(&expected), "{case}");
        assert!(*mrrg == expected_mrrg, "occupancy differs: {case}");
        got
    }

    #[test]
    fn route_matches_textbook_dijkstra_on_random_congestion() {
        let mut rng = TestRng::for_test("router::route_matches_textbook_dijkstra");
        let mut pick = |n: u64| rng.next_u64() % n;
        let mut scratch = RouterScratch::default();
        let (mut open, mut deadline_routes, mut found, mut bounded_out) = (0, 0, 0, 0);
        for case in 0..400 {
            let cfg = if case % 2 == 0 {
                CgraConfig::square(4).unwrap()
            } else {
                CgraConfig::iced_prototype()
            };
            let n = cfg.tile_count();
            // Short periods and long horizons make later copies of a
            // (tile, phase) common, so modulo-phase dominance fires often.
            let ii = [2u32, 4, 6, 8][pick(4) as usize];
            let mut mrrg = Mrrg::new(&cfg, ii).unwrap();
            let divisors: Vec<u32> = [1, 1, 2, 4]
                .into_iter()
                .filter(|r| ii.is_multiple_of(*r))
                .collect();
            let rates: Vec<u32> = (0..n)
                .map(|_| divisors[pick(divisors.len() as u64) as usize])
                .collect();
            let virgin: Vec<bool> = (0..n).map(|_| pick(3) == 0).collect();
            // Pre-occupy links and fill register slots at a random density.
            let density = [0, 20, 45, 70][pick(4) as usize];
            for t in cfg.tiles() {
                for c in 0..u64::from(ii) {
                    for dir in Dir::ALL {
                        if pick(100) < density {
                            mrrg.occupy_link(t, dir, c, 1);
                        }
                    }
                    if pick(100) < density / 2 {
                        while mrrg.reg_available(t, c, 1) {
                            mrrg.occupy_reg(t, c, 1);
                        }
                    }
                }
            }
            // A few routes in sequence, so later ones see earlier ones.
            for _ in 0..4 {
                let src = TileId(pick(n as u64) as u16);
                let dst = TileId(pick(n as u64) as u16);
                let ready = pick(24);
                let dist = cfg.manhattan(src, dst) as u64;
                let horizon = match pick(4) {
                    0 => (ready + dist + pick(6)).saturating_sub(2),
                    1 => ready + dist + pick(24),
                    2 => ready + dist + 8 * u64::from(ii),
                    _ => in_route_horizon(&cfg, src, ready, dst, ii),
                };
                let deadline = (pick(2) == 0)
                    .then(|| (ready + dist + pick(3 * u64::from(ii) + 4)).saturating_sub(2));
                if deadline.is_some() {
                    deadline_routes += 1;
                } else {
                    open += 1;
                }
                let r = route_matches_oracle(
                    &cfg,
                    &mut mrrg,
                    &rates,
                    &virgin,
                    src,
                    ready,
                    dst,
                    deadline,
                    horizon,
                    &mut scratch,
                );
                found += usize::from(r.is_some());
                // The bound is a true lower bound, and `route` rejects
                // whatever it puts past the limit (a same-tile route
                // needs no search: only its deadline bounds it).
                let lb = arrival_lower_bound(&cfg, &rates, src, ready, dst);
                if let Some(f) = &r {
                    assert!(f.arrival >= lb, "arrival {} below bound {lb}", f.arrival);
                }
                let limit = if src == dst {
                    deadline.unwrap_or(u64::MAX)
                } else {
                    deadline.map_or(horizon, |d| d.min(horizon))
                };
                if lb > limit {
                    assert!(r.is_none(), "bound {lb} past limit {limit} but routed");
                    bounded_out += 1;
                }
            }
        }
        // The cases exercise both route kinds and both outcomes.
        assert!(
            open > 400 && deadline_routes > 400,
            "{open} / {deadline_routes}"
        );
        assert!(found > 400 && found < 1400, "{found} of 1600 routed");
        assert!(bounded_out > 50, "{bounded_out} routes past the bound");
        // The bound never decreases in `ready`, also across the overlap
        // step from `ready = rate − 1` to `ready = rate`.
        let cfg = CgraConfig::iced_prototype();
        for rate in [1u32, 2, 4] {
            let rates = vec![rate; cfg.tile_count()];
            for src in cfg.tiles() {
                for dst in cfg.tiles() {
                    for ready in 0..3 * u64::from(rate) {
                        let at = |t| arrival_lower_bound(&cfg, &rates, src, t, dst);
                        assert!(
                            at(ready + 1) >= at(ready),
                            "{src:?} -> {dst:?} at rate {rate}: bound falls after {ready}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deadline_one_below_manhattan_is_met_by_the_overlapped_first_hop() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 3);
        // dist 3: the first hop lands at `ready` = 1, then 2 and 3.
        let r = route_matches_oracle(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            1,
            dst,
            Some(3),
            3,
            &mut scratch,
        )
        .expect("ready + dist - 1 is reachable through the overlapped hop");
        assert_eq!(r.arrival, 3);
        assert_eq!(r.hops.len(), 3);
        assert_eq!(r.hops[0].arrive, 1);
    }

    #[test]
    fn deadline_route_keeps_the_lowest_aux_path_over_the_earliest() {
        let (cfg, mut mrrg, rates, mut virgin) = setup(4);
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 2);
        // Routing out of (0,1) would pin its island: the direct path
        // arrives first but costs more than the detour through row 1.
        virgin[cfg.tile_at(0, 1).index()] = true;
        let earliest = route_matches_oracle(
            &cfg,
            &mut mrrg.clone(),
            &rates,
            &virgin,
            src,
            1,
            dst,
            None,
            16,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(earliest.arrival, 2);
        let r = route_matches_oracle(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            1,
            dst,
            Some(6),
            6,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(r.arrival, 4, "the on-time detour, not the earliest path");
        assert!(r.hops.iter().all(|h| h.from != cfg.tile_at(0, 1)));
    }

    #[test]
    fn failed_route_effort_is_bounded_by_the_period_not_the_horizon() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let ii = u64::from(mrrg.ii());
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(2, 2);
        // Wall off `dst`: every link into it is busy for the whole period.
        for t in cfg.tiles() {
            for (dir, nbr) in cfg.neighbors(t) {
                if nbr == dst {
                    for c in 0..ii {
                        mrrg.occupy_link(t, dir, c, 1);
                    }
                }
            }
        }
        let effort_at = |horizon: u64| {
            let mut effort = Effort::default();
            let found = search(
                &cfg,
                &mut mrrg.clone(),
                &rates,
                &virgin,
                src,
                1,
                dst,
                None,
                horizon,
                &mut Txn::default(),
                &mut RouterScratch::default(),
                &mut effort,
            );
            assert!(found.is_none(), "horizon {horizon}: dst is walled off");
            effort
        };
        let (short, long) = (effort_at(64), effort_at(640));
        assert_eq!(short.expansions, long.expansions);
        // Each (tile, phase) is expanded at most once per pass and pushes at
        // most four successors; the root adds itself and its overlapped hops.
        let per_pass = 4 * cfg.tile_count() as u64 * ii + 5;
        assert!(
            long.expansions <= long.passes * per_pass,
            "{} expansions over {} passes",
            long.expansions,
            long.passes
        );
    }

    #[test]
    fn routes_that_wait_out_a_period_or_revisit_a_tile_match_the_oracle() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let ii = u64::from(mrrg.ii());
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let x = cfg.tile_at(0, 1);
        let y = cfg.tile_at(1, 1);
        let dst = cfg.tile_at(0, 2);
        // `dst` is reachable only over x's east link, and only at phase 0.
        // Every way into x arrives at phase 1 except y's north link, which
        // is free only at phase 3: the value leaves x at phase 0 or waits
        // out the period there.
        for c in 0..ii {
            mrrg.occupy_link(cfg.tile_at(0, 3), Dir::West, c, 1);
            mrrg.occupy_link(cfg.tile_at(1, 2), Dir::North, c, 1);
            mrrg.occupy_link(cfg.tile_at(1, 0), Dir::East, c, 1);
            if c != 0 {
                mrrg.occupy_link(x, Dir::East, c, 1);
                mrrg.occupy_link(src, Dir::East, c, 1);
            }
            if c != 3 {
                mrrg.occupy_link(y, Dir::North, c, 1);
            }
        }
        let long = 1 + 2 + 8 * ii;
        // x holds the value from 1 to 4, a full period less one cycle.
        let waits = route_matches_oracle(
            &cfg,
            &mut mrrg.clone(),
            &rates,
            &virgin,
            src,
            1,
            dst,
            None,
            long,
            &mut scratch,
        )
        .expect("x can hold the value");
        assert_eq!(waits.arrival, 5);
        assert_eq!(waits.hops.len(), 2);
        assert_eq!(waits.hops[1].depart - waits.hops[0].arrive, ii - 1);
        // With x's registers full it cannot wait: the only on-time route
        // leaves x for y and re-enters x at phase 0, about a period later.
        for c in 0..ii {
            while mrrg.reg_available(x, c, 1) {
                mrrg.occupy_reg(x, c, 1);
            }
        }
        for deadline in [None, Some(long)] {
            let revisits = route_matches_oracle(
                &cfg,
                &mut mrrg.clone(),
                &rates,
                &virgin,
                src,
                1,
                dst,
                deadline,
                long,
                &mut scratch,
            )
            .expect("the detour through y is on time");
            let tiles: Vec<TileId> = revisits.hops.iter().map(|h| h.to).collect();
            assert_eq!(tiles, [x, y, x, dst], "deadline {deadline:?}");
            assert_eq!(revisits.hops[2].arrive % ii, 0);
        }
    }
}
