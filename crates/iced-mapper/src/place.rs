//! Algorithm 2 — DVFS-aware modulo mapping.
//!
//! Nodes are placed in topological order onto the MRRG. For every node the
//! engine ranks candidate tiles by a cost estimate (routing distance, DVFS
//! mismatch against the node's Algorithm-1 label, island-opening and
//! congestion penalties), then attempts to *commit* candidates in cost
//! order: route all dependencies with the Dijkstra router, pick the
//! earliest phase-aligned FU slot, and reserve every resource. The first
//! candidate that commits wins; if none does, the II is incremented and the
//! whole mapping restarts (Algorithm 2's `II = II + 1` loop).
//!
//! Failing work fails before it routes. A candidate runs the commit
//! kernel's pre-routing tests (egress, arithmetic window, FU slot) first;
//! a (tile, level) that failed for a node is not retried when the node's
//! label escalates; and an attempt ends once it is doomed — the capacity
//! cut holds, or a neighbour of the node just placed has no tile left
//! that passes the pre-routing tests. Each only drops work whose outcome
//! is decided, so no mapping changes.
//!
//! Island DVFS levels are assigned on first use (Algorithm 2 lines 14–16):
//! the first node placed in an island fixes the island's level to the
//! node's label; later nodes may only join islands at least as fast as
//! their label (line 17). Routing through a not-yet-assigned island pins it
//! to `normal` — its crossbar was reserved at base-clock granularity, so a
//! slower clock could no longer honour the reservation. Unused islands are
//! power-gated in the final mapping.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use iced_arch::{CgraConfig, DvfsLevel, Mrrg, TileId};
use iced_dfg::{Dfg, NodeId};
use iced_fault::FaultMask;
use iced_trace::Phase;

use crate::commit::{lower_bound, modulo_asap, Consumer, Draft, Partial, Prepared};
use crate::error::MapError;
use crate::labeling::label_dvfs_levels;
use crate::mapping::{Mapping, Placement};
use crate::router::RouterScratch;

/// Options controlling the mapping engine.
#[derive(Debug, Clone)]
pub struct MapperOptions {
    /// Use Algorithm 1 labels and per-island DVFS assignment (ICED mode).
    /// When `false`, every label and island is pinned to `normal` — the
    /// paper's conventional *Baseline* mapper.
    pub dvfs_aware: bool,
    /// DVFS levels the mapper may assign to islands. Streaming-application
    /// kernel mapping restricts this to `{normal, relax}` (paper §IV-B).
    pub allowed_levels: Vec<DvfsLevel>,
    /// Give up once the II exceeds this bound.
    pub max_ii: u32,
    /// Lower bound on the starting II (e.g. to reproduce a sweep); the
    /// engine still starts no lower than the admissible lower bound
    /// (`iced_exact::lower_bound` on the usable tiles).
    pub min_ii: u32,
    /// Restrict the mapper to the first `n` islands (row-major). Used by the
    /// streaming partitioner to map one kernel per island group; `None`
    /// means the whole fabric.
    pub island_budget: Option<usize>,
    /// Load-balance placements across tiles (conventional II-minimising
    /// mappers spread work to keep routing easy — the paper's Figure 1
    /// mapping uses a fresh tile per op). The DVFS-aware flow instead
    /// clusters, so whole islands can power-gate.
    pub spread: bool,
    /// Place recurrence-cycle nodes before their feeders (ablation knob;
    /// disabling reverts to plain topological order and typically costs
    /// II on recurrence-heavy kernels).
    pub cycle_first: bool,
    /// Retry each II with progressively conservative labels before
    /// escalating the II (ablation knob; disabling gives up DVFS quality
    /// whenever the most aggressive labeling fails).
    pub label_ladder: bool,
    /// Worker threads for the speculative portfolio search over
    /// `(II, label-rung)` attempts. `0` (the default) resolves the
    /// `ICED_MAP_THREADS` environment variable and falls back to the
    /// machine's available parallelism; `1` runs the exact serial
    /// escalation loop. Every thread count returns a bit-identical
    /// `Mapping`: a speculative success is only accepted once each attempt
    /// the serial loop would have tried first has failed.
    pub threads: usize,
    /// Abort the search once this instant passes. The deadline is checked
    /// *between* attempts — a running placement/routing attempt always
    /// finishes — so the II-escalation loop can no longer run unbounded
    /// under a serving deadline. `None` (the default) never aborts; an
    /// expired deadline surfaces as [`MapError::DeadlineExceeded`].
    /// Like `threads`, this knob never changes *which* mapping is
    /// produced when a mapping is produced at all, and is excluded from
    /// [`MapperOptions::canonical_hash`].
    pub deadline: Option<std::time::Instant>,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            dvfs_aware: true,
            allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax, DvfsLevel::Rest],
            max_ii: 96,
            min_ii: 1,
            island_budget: None,
            spread: false,
            cycle_first: true,
            label_ladder: true,
            threads: 0,
            deadline: None,
        }
    }
}

impl MapperOptions {
    /// Options for the conventional no-DVFS baseline mapper.
    pub fn baseline() -> Self {
        MapperOptions {
            dvfs_aware: false,
            allowed_levels: vec![DvfsLevel::Normal],
            spread: true,
            ..MapperOptions::default()
        }
    }

    /// A stable content digest of the *semantic* options, for cache keys.
    ///
    /// Only fields that can change the produced mapping participate:
    /// `threads` (bit-identical by the portfolio's determinism rule) and
    /// `deadline` (a per-request serving knob) are deliberately excluded,
    /// so a warm cache entry is valid for any thread count or deadline.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = iced_hash::StableHasher::new();
        h.write_str("mapper-options");
        h.write_str("dvfs_aware");
        h.write_bool(self.dvfs_aware);
        h.write_str("allowed_levels");
        h.write_usize(self.allowed_levels.len());
        for &l in &self.allowed_levels {
            h.write_u8(match l {
                DvfsLevel::PowerGated => 0,
                DvfsLevel::Rest => 1,
                DvfsLevel::Relax => 2,
                DvfsLevel::Normal => 3,
            });
        }
        h.write_str("max_ii");
        h.write_u32(self.max_ii);
        h.write_str("min_ii");
        h.write_u32(self.min_ii);
        h.write_str("island_budget");
        match self.island_budget {
            Some(n) => {
                h.write_bool(true);
                h.write_usize(n);
            }
            None => h.write_bool(false),
        }
        h.write_str("spread");
        h.write_bool(self.spread);
        h.write_str("cycle_first");
        h.write_bool(self.cycle_first);
        h.write_str("label_ladder");
        h.write_bool(self.label_ladder);
        h.finish()
    }

    /// Whether the configured deadline (if any) has passed.
    fn deadline_hit(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// Maps `dfg` with the conventional (no-DVFS) strategy: minimise II, all
/// tiles at nominal V/F.
///
/// # Errors
///
/// See [`map_with`].
pub fn map_baseline(dfg: &Dfg, config: &CgraConfig) -> Result<Mapping, MapError> {
    map_with(dfg, config, &MapperOptions::baseline())
}

/// Maps `dfg` with the full ICED flow: Algorithm 1 labeling followed by
/// Algorithm 2 island-aware placement and routing.
///
/// # Errors
///
/// See [`map_with`].
pub fn map_dvfs_aware(dfg: &Dfg, config: &CgraConfig) -> Result<Mapping, MapError> {
    map_with(dfg, config, &MapperOptions::default())
}

/// Maps `dfg` onto `config` with explicit options.
///
/// # Errors
///
/// Returns [`MapError::IiExceeded`] when no mapping exists up to
/// `opts.max_ii`, or [`MapError::MemoryPressure`] when no usable tile can
/// host one of the kernel's op classes (memory ops need the SPM-connected
/// column, multiplies a multiplier tile), before any attempt.
pub fn map_with(dfg: &Dfg, config: &CgraConfig, opts: &MapperOptions) -> Result<Mapping, MapError> {
    map_with_mask(dfg, config, opts, None)
}

/// [`map_with`] against a partially dead fabric: tiles/FUs/links excluded
/// by `mask` are never placed on or routed through. `None` (and the empty
/// mask) is bit-identical to the fault-free path — the mask only removes
/// candidates, it never reorders the surviving ones.
pub(crate) fn map_with_mask(
    dfg: &Dfg,
    config: &CgraConfig,
    opts: &MapperOptions,
    mask: Option<&FaultMask>,
) -> Result<Mapping, MapError> {
    let prep = Prepared::new(dfg, config, opts.island_budget, mask, opts.cycle_first);
    let start_ii = lower_bound(dfg, config, &prep.tiles)?.max(opts.min_ii);
    let threads = resolve_threads(opts);
    let _map_span = iced_trace::span(
        Phase::Mapper,
        "map",
        &[
            ("kernel", dfg.name().into()),
            ("start_ii", u64::from(start_ii).into()),
            ("max_ii", u64::from(opts.max_ii).into()),
            ("dvfs_aware", opts.dvfs_aware.into()),
            ("threads", (threads as u64).into()),
        ],
    );
    let outcome = if threads <= 1 || start_ii > opts.max_ii {
        map_serial(&prep, opts, start_ii)
    } else {
        map_portfolio(&prep, opts, start_ii, threads)
    };
    match outcome {
        SearchOutcome::Found(mapping) => {
            trace_mapped(&mapping, start_ii);
            Ok(mapping)
        }
        SearchOutcome::Deadline => {
            iced_trace::counter(Phase::Mapper, "map_deadline_aborts", 1);
            Err(MapError::DeadlineExceeded)
        }
        SearchOutcome::Exhausted => {
            iced_trace::counter(Phase::Mapper, "map_failures", 1);
            Err(MapError::IiExceeded {
                max_ii: opts.max_ii,
            })
        }
    }
}

/// How an attempt search ended: with a mapping, with the attempt space
/// exhausted up to `max_ii`, or aborted between attempts by the deadline.
enum SearchOutcome {
    Found(Mapping),
    Exhausted,
    Deadline,
}

/// Worker-thread count: an explicit `opts.threads` wins, then the
/// `ICED_MAP_THREADS` environment variable, then available parallelism.
fn resolve_threads(opts: &MapperOptions) -> usize {
    if opts.threads != 0 {
        return opts.threads;
    }
    if let Some(v) = std::env::var_os("ICED_MAP_THREADS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The serial II-escalation loop (Algorithm 2's `II = II + 1`), also the
/// reference semantics the portfolio must reproduce.
fn map_serial(prep: &Prepared<'_>, opts: &MapperOptions, start_ii: u32) -> SearchOutcome {
    let mut runner = AttemptRunner::default();
    for ii in start_ii..=opts.max_ii {
        let _ii_span =
            iced_trace::span(Phase::Mapper, "ii_attempt", &[("ii", u64::from(ii).into())]);
        iced_trace::counter(Phase::Mapper, "ii_attempts", 1);
        // Retry ladder: the greedy engine cannot backtrack across nodes, so
        // before paying an II increase it retries the same II with
        // progressively conservative labels (rest → relax, then all-normal).
        // The all-normal attempt makes the DVFS-aware mapper never slower
        // than the baseline at the same II — the paper's Fig. 4 property.
        let mut ladder = LabelLadder::new(prep.dfg, prep.cfg, opts, ii);
        for rung in 0..ladder.rungs() {
            if !ladder.active(rung) {
                continue;
            }
            // Abort between attempts, never inside one (so results stay
            // complete-or-absent, and a generous deadline cannot change
            // which mapping is found).
            if opts.deadline_hit() {
                return SearchOutcome::Deadline;
            }
            iced_trace::counter(Phase::Mapper, "label_attempts", 1);
            let (labels, spread) = ladder.rung(rung);
            if let Some(mapping) = runner.run(prep, opts, ii, labels, spread, CancelToken::none()) {
                return SearchOutcome::Found(mapping);
            }
        }
    }
    SearchOutcome::Exhausted
}

/// Speculative parallel search over the same attempt sequence. Attempts are
/// numbered globally — attempt `g` is `(II = start_ii + g / grid, rung =
/// g % grid)`, exactly the serial order — and claimed from a shared counter
/// by scoped worker threads.
fn map_portfolio(
    prep: &Prepared<'_>,
    opts: &MapperOptions,
    start_ii: u32,
    threads: usize,
) -> SearchOutcome {
    let grid = LabelLadder::grid(opts);
    let total = (opts.max_ii - start_ii + 1) as usize * grid;
    let portfolio = Portfolio {
        prep,
        opts,
        start_ii,
        grid,
        total,
        next: AtomicUsize::new(0),
        best: AtomicUsize::new(usize::MAX),
        deadline_hit: AtomicBool::new(false),
        winner: Mutex::new(None),
    };
    let workers = threads.min(total).max(1);
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| portfolio.worker());
        }
        portfolio.worker();
    });
    let deadline = portfolio.deadline_hit.load(Ordering::Acquire);
    let winner = portfolio
        .winner
        .into_inner()
        .expect("portfolio winner lock");
    match winner {
        Some((_, mapping)) => SearchOutcome::Found(mapping),
        None if deadline => SearchOutcome::Deadline,
        None => SearchOutcome::Exhausted,
    }
}

/// Shared state of one portfolio search.
///
/// Determinism rule: a success at global index `s` may only be returned
/// once every attempt with index `< s` has *failed*. Workers enforce this
/// by never cancelling an attempt unless a strictly earlier one succeeded
/// (`best < idx`), so everything the serial loop would have executed before
/// the winner runs to completion here too; the final winner — the minimum
/// successful index — is then exactly the serial result. `best` doubles as
/// the cancellation signal for later speculative attempts and the claim
/// cutoff (no new attempt past a known success is started).
struct Portfolio<'a> {
    prep: &'a Prepared<'a>,
    opts: &'a MapperOptions,
    start_ii: u32,
    grid: usize,
    total: usize,
    next: AtomicUsize,
    best: AtomicUsize,
    deadline_hit: AtomicBool,
    winner: Mutex<Option<(usize, Mapping)>>,
}

impl Portfolio<'_> {
    fn worker(&self) {
        let mut runner = AttemptRunner::default();
        let mut ladder: Option<(u32, LabelLadder)> = None;
        loop {
            // Same between-attempts deadline as the serial loop: a worker
            // mid-attempt always finishes (a strictly earlier success may
            // still cancel it), but no new attempt starts past the
            // deadline.
            if self.opts.deadline_hit() {
                self.deadline_hit.store(true, Ordering::Release);
                return;
            }
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total || idx > self.best.load(Ordering::Acquire) {
                return;
            }
            let ii = self.start_ii + (idx / self.grid) as u32;
            let rung = idx % self.grid;
            if !matches!(&ladder, Some((lii, _)) if *lii == ii) {
                ladder = Some((
                    ii,
                    LabelLadder::new(self.prep.dfg, self.prep.cfg, self.opts, ii),
                ));
            }
            let lad = &mut ladder.as_mut().expect("ladder just set").1;
            if !lad.active(rung) {
                continue;
            }
            if rung == 0 {
                iced_trace::counter(Phase::Mapper, "ii_attempts", 1);
            }
            iced_trace::counter(Phase::Mapper, "label_attempts", 1);
            let _attempt_span = iced_trace::span(
                Phase::Mapper,
                "ii_attempt",
                &[("ii", u64::from(ii).into()), ("rung", (rung as u64).into())],
            );
            let (labels, spread) = lad.rung(rung);
            let cancel = CancelToken {
                best: &self.best,
                idx,
            };
            if let Some(mapping) = runner.run(self.prep, self.opts, ii, labels, spread, cancel) {
                self.record(idx, mapping);
            }
        }
    }

    fn record(&self, idx: usize, mapping: Mapping) {
        let mut winner = self.winner.lock().expect("portfolio winner lock");
        if winner.as_ref().is_none_or(|&(best_idx, _)| idx < best_idx) {
            *winner = Some((idx, mapping));
            self.best.fetch_min(idx, Ordering::AcqRel);
        }
    }
}

/// Cooperative cancellation for speculative attempts: attempt `idx` stops
/// early once some strictly earlier attempt has succeeded. The winner
/// itself (`best == idx`) and every attempt before it are never cancelled
/// — required for the portfolio's determinism rule.
#[derive(Clone, Copy)]
struct CancelToken<'a> {
    best: &'a AtomicUsize,
    idx: usize,
}

impl CancelToken<'_> {
    fn none() -> CancelToken<'static> {
        static NEVER: AtomicUsize = AtomicUsize::new(usize::MAX);
        CancelToken {
            best: &NEVER,
            idx: 0,
        }
    }

    #[inline]
    fn cancelled(&self) -> bool {
        self.best.load(Ordering::Relaxed) < self.idx
    }
}

/// Per-worker attempt driver owning the reusable allocations: one `Mrrg`
/// (reset in place between rungs at the same II instead of reallocated)
/// and the router's scratch buffers (arena, earliest-pop table, bucket
/// spine).
#[derive(Default)]
struct AttemptRunner {
    mrrg: Option<Mrrg>,
    scratch: RouterScratch,
}

impl AttemptRunner {
    fn run(
        &mut self,
        prep: &Prepared<'_>,
        opts: &MapperOptions,
        ii: u32,
        labels: &[DvfsLevel],
        spread: bool,
        cancel: CancelToken<'_>,
    ) -> Option<Mapping> {
        let mrrg = prep
            .mrrg(&mut self.mrrg, ii)
            .expect("mapper II is always nonzero");
        let state = Partial::new(prep.dfg, prep.cfg, mrrg, &mut self.scratch, None);
        Engine::new(prep, opts, labels, spread, state, cancel).run()
    }
}

/// Emits the final-mapping instant event: achieved II, how far the II
/// escalated, and the island DVFS-level histogram (the "level histogram"
/// part of the tentpole trace).
fn trace_mapped(mapping: &Mapping, start_ii: u32) {
    if !iced_trace::enabled() {
        return;
    }
    let mut hist = [0u64; 4];
    for &level in &mapping.island_levels {
        let slot = match level {
            DvfsLevel::Normal => 0,
            DvfsLevel::Relax => 1,
            DvfsLevel::Rest => 2,
            DvfsLevel::PowerGated => 3,
        };
        hist[slot] += 1;
    }
    iced_trace::counter(Phase::Mapper, "maps_succeeded", 1);
    iced_trace::instant(
        Phase::Mapper,
        "mapped",
        &[
            ("kernel", mapping.kernel().into()),
            ("ii", u64::from(mapping.ii()).into()),
            ("ii_escalations", u64::from(mapping.ii() - start_ii).into()),
            ("islands_normal", hist[0].into()),
            ("islands_relax", hist[1].into()),
            ("islands_rest", hist[2].into()),
            ("islands_gated", hist[3].into()),
        ],
    );
}

struct Engine<'a> {
    prep: &'a Prepared<'a>,
    opts: &'a MapperOptions,
    labels: &'a [DvfsLevel],
    spread: bool,
    state: Partial<'a>,
    cancel: CancelToken<'a>,
    asap: Vec<u64>,
    /// For the node being placed: per tile, a bit `1 << level` for each
    /// level a commit on that tile has already failed at.
    failed: Vec<u8>,
}

/// Cost-function weights. One mesh hop of input transport costs [`W_HOP`];
/// everything else is scaled relative to it. Transport dominates congestion
/// so recurrence chains stay tight (a scattered critical cycle cannot close
/// within the II); DVFS mismatch dominates transport so labeled nodes seek
/// matching islands before seeking proximity.
const W_HOP: u64 = 8;
const W_CARRY: u64 = 16;
const W_LEVEL: u64 = 48;
const W_OPEN: u64 = 6;
const W_MEM: u64 = 20;

impl<'a> Engine<'a> {
    /// An attempt at `state`'s II.
    ///
    /// Its ASAP times are *label-aware*: a node labeled `rest` occupies
    /// its tile for 4 base cycles, so its consumers — including II-critical
    /// cycles it feeds — must be scheduled late enough to absorb that. This
    /// is what lets slow feeders coexist with a tight recurrence cycle at
    /// the same II (the paper's Fig. 3(e)): the cycle simply starts a few
    /// cycles later and the prologue deepens, while the steady-state period
    /// is unchanged. Critical-cycle nodes are labeled `normal` (divisor 1),
    /// so the label-aware weights cannot create a positive cycle either.
    fn new(
        prep: &'a Prepared<'a>,
        opts: &'a MapperOptions,
        labels: &'a [DvfsLevel],
        spread: bool,
        state: Partial<'a>,
        cancel: CancelToken<'a>,
    ) -> Self {
        let asap = modulo_asap(prep.dfg, state.ii(), |e| {
            let lat = labels[e.src().index()]
                .rate_divisor()
                .expect("labels are active levels") as i64
                * prep.dfg.node(e.src()).op().latency() as i64;
            // One-cycle transport pad on edges leaving off-cycle nodes:
            // feeders rarely share a tile with their consumers, so the
            // schedule budgets one store-and-forward hop per feeder
            // level. Intra-cycle edges stay unpadded (they must chain
            // with overlapped hops anyway, and padding them would create
            // a positive cycle at II = RecMII).
            lat + i64::from(!prep.on_cycle[e.src().index()])
        });
        Engine {
            prep,
            opts,
            labels,
            spread,
            failed: vec![0; prep.cfg.tile_count()],
            state,
            cancel,
            asap,
        }
    }

    /// Places every node in order, ending the attempt as soon as it is
    /// [`doomed`](Self::doomed). A debug build instead runs a doomed
    /// attempt on, untraced, and asserts that it fails: the test suite
    /// then re-checks every early abort it triggers.
    fn run(&mut self) -> Option<Mapping> {
        let prep = self.prep;
        let mut doomed = None;
        for (placed, &node) in prep.order.iter().enumerate() {
            if self.cancel.cancelled() {
                iced_trace::counter(Phase::Mapper, "attempts_cancelled", 1);
                return None;
            }
            if !self.place_node(node) {
                return None;
            }
            if doomed.is_none() && self.doomed(placed + 1, node) {
                iced_trace::counter(Phase::Mapper, "doomed_attempts", 1);
                if !cfg!(debug_assertions) {
                    return None;
                }
                doomed = Some(iced_trace::mute());
            }
        }
        debug_assert!(
            doomed.is_none(),
            "{}: an attempt at II {} ended early as doomed, but it maps",
            prep.dfg.name(),
            self.state.ii()
        );
        // ICED power-gates islands that host no work; the conventional
        // baseline has no DVFS support at all, so its unused islands keep
        // burning nominal power.
        Some(self.state.finish(if self.opts.dvfs_aware {
            DvfsLevel::PowerGated
        } else {
            DvfsLevel::Normal
        }))
    }

    /// The level an unassigned island would get for a node labeled `label`:
    /// the slowest allowed level that is at least as fast as the label and
    /// whose clock tessellates the II.
    fn usable_level(&self, label: DvfsLevel) -> DvfsLevel {
        let mut lvl = label;
        loop {
            let div = lvl.rate_divisor().expect("labels are active levels");
            if self.state.ii().is_multiple_of(div) && self.opts.allowed_levels.contains(&lvl) {
                return lvl;
            }
            if lvl == DvfsLevel::Normal {
                return DvfsLevel::Normal;
            }
            lvl = lvl.raised();
        }
    }

    /// Whether the attempt can no longer map, now that the first `placed`
    /// nodes of the order are placed, the last of them `node`. Within an
    /// attempt nothing is undone (placements, FU reservations and island
    /// levels only accumulate, so windows only shrink and arrival bounds
    /// never fall), so both tests stay true for the rest of the attempt:
    ///
    /// * the capacity cut ([`Partial::capacity_cut`]);
    /// * a dead neighbour: an unplaced neighbour of `node` that no tile
    ///   [`admits`](Self::admits) at any label from its own up to
    ///   `normal`. An unassigned island is tried at rate 1, which admits
    ///   whatever a slower rate would.
    fn doomed(&self, placed: usize, node: NodeId) -> bool {
        let dfg = self.prep.dfg;
        if self.state.capacity_cut(self.prep, placed) {
            return true;
        }
        dfg.in_edges(node)
            .map(|e| e.src())
            .chain(dfg.out_edges(node).map(|e| e.dst()))
            .any(|n| self.state.placement(n).is_none() && !self.has_candidate(n))
    }

    /// Whether some tile passes every test a commit of `node` runs before
    /// routing, at some label from its own up to `normal`: op class, an
    /// island level at least the label, and [`admits`](Self::admits).
    fn has_candidate(&self, node: NodeId) -> bool {
        let cfg = self.prep.cfg;
        let label = self.labels[node.index()];
        let consumers = self.state.placed_consumers(node);
        self.prep.tiles.iter().any(|&tile| {
            if !self.prep.hosts(node, tile) {
                return false;
            }
            let rate = match self.state.island_level(cfg.island_of(tile)) {
                Some(l) if label > l => return false,
                Some(l) => l.rate_divisor().expect("active level"),
                None => 1,
            };
            self.admits(node, tile, rate, &consumers)
        })
    }

    fn place_node(&mut self, node: NodeId) -> bool {
        let consumers = self.state.placed_consumers(node);
        self.failed.fill(0);
        // Per-node label escalation: if a node cannot be committed anywhere
        // at its preferred level, retry it one level faster instead of
        // abandoning the whole attempt — Algorithm 1's labels guide the
        // mapping, "the final DVFS level of each DFG node can still be
        // adjusted by the heuristic mapping algorithm" (paper §IV-A).
        let mut label = self.labels[node.index()];
        loop {
            if self.try_place_at_label(node, label, &consumers) {
                return true;
            }
            if label == DvfsLevel::Normal {
                return false;
            }
            label = label.raised();
            iced_trace::counter(Phase::Mapper, "label_escalations", 1);
        }
    }

    fn try_place_at_label(
        &mut self,
        node: NodeId,
        label: DvfsLevel,
        consumers: &[Consumer],
    ) -> bool {
        let is_mem = self.prep.dfg.node(node).op().is_memory();
        let mut candidates: Vec<(u64, TileId, DvfsLevel)> = Vec::new();
        for &tile in &self.prep.tiles {
            if !self.prep.hosts(node, tile) {
                continue;
            }
            if let Some((cost, level)) = self.estimate(node, label, tile, is_mem) {
                candidates.push((cost, tile, level));
            }
        }
        candidates.sort_unstable_by_key(|&(c, t, _)| (c, t));
        iced_trace::counter(
            Phase::Mapper,
            "placement_candidates",
            candidates.len() as u64,
        );
        for (_, tile, level) in candidates {
            if self.cancel.cancelled() {
                return false;
            }
            // A commit depends on the label only through the level, and
            // every failed commit is rolled back whole: a (tile, level)
            // that failed at a lower label fails again.
            let bit = 1u8 << level as u8;
            if self.failed[tile.index()] & bit != 0 {
                continue;
            }
            if self.commit(node, tile, level, consumers) {
                iced_trace::counter(Phase::Mapper, "nodes_placed", 1);
                return true;
            }
            self.failed[tile.index()] |= bit;
        }
        false
    }

    /// The cost of placing `node` labeled `label` on `tile`, and the level
    /// the tile's island runs at once it does; `None` when the island's
    /// level is below the label.
    fn estimate(
        &self,
        node: NodeId,
        label: DvfsLevel,
        tile: TileId,
        is_mem: bool,
    ) -> Option<(u64, DvfsLevel)> {
        let (dfg, cfg) = (self.prep.dfg, self.prep.cfg);
        let assigned = self.state.island_level(cfg.island_of(tile));
        let level = match assigned {
            Some(l) => {
                if label > l {
                    return None; // line 17: label must not exceed island level
                }
                l
            }
            None => self.usable_level(label),
        };
        let mut cost = 0u64;
        for e in dfg.in_edges(node) {
            if let Some(p) = self.state.placement(e.src()) {
                cost += W_HOP * cfg.manhattan(p.tile, tile) as u64;
            }
        }
        for e in dfg.out_edges(node) {
            match self.state.placement(e.dst()) {
                Some(p) => {
                    let w = if e.kind().is_loop_carried() {
                        W_CARRY
                    } else {
                        W_HOP
                    };
                    cost += w * cfg.manhattan(tile, p.tile) as u64;
                }
                None => {
                    // Second-order attraction: pull feeders towards the
                    // placed consumers of their (unplaced) consumer, so
                    // feeder chains land near the cycle they feed.
                    for e2 in dfg.out_edges(e.dst()) {
                        if let Some(p2) = self.state.placement(e2.dst()) {
                            cost += (W_HOP / 2) * cfg.manhattan(tile, p2.tile) as u64;
                        }
                    }
                }
            }
        }
        let label_div = label.rate_divisor().expect("active") as u64;
        let level_div = level.rate_divisor().expect("active") as u64;
        cost += W_LEVEL * label_div.saturating_sub(level_div);
        if assigned.is_none() {
            cost += W_OPEN;
        }
        if !is_mem && cfg.is_memory_tile(tile) {
            cost += W_MEM;
        }
        let busy = self.state.mrrg().fu_busy_cycles(tile) as u64;
        if self.spread {
            // Conventional mode: strongly prefer fresh tiles (one op per
            // tile where possible) — routing stays easy thanks to the
            // overlapped first hop, and this is how II-minimising mappers
            // behave (paper Fig. 1 uses a fresh tile per op).
            cost += W_HOP * busy;
        } else {
            // Clustered mode: moderate load balancing — enough to keep
            // fan-in hotspots routable (half a hop per occupied FU slot),
            // low enough that proximity still packs islands for gating.
            cost += (W_HOP / 2) * busy;
        }
        Some((cost, level))
    }

    /// The earliest start `node`'s schedule allows. Cycle nodes get one
    /// extra period of slack beyond their ASAP: shifting a recurrence
    /// cycle later in absolute time only deepens the prologue (steady
    /// state is unchanged), and the headroom lets congested or
    /// slow-labeled feeder chains meet the cycle's read deadlines instead
    /// of forcing an II increase.
    fn earliest(&self, node: NodeId) -> u64 {
        let slack = if self.prep.on_cycle[node.index()] {
            u64::from(self.state.ii()) + 4
        } else {
            0
        };
        self.asap[node.index()] + slack
    }

    /// The tests a commit of `node` on `tile` at `rate` runs before it
    /// routes anything; a candidate that fails one would fail after
    /// routing too. [`doomed`](Self::doomed) asks the same question of
    /// the nodes still to place.
    fn admits(&self, node: NodeId, tile: TileId, rate: u32, consumers: &[Consumer]) -> bool {
        let rate64 = u64::from(rate);
        let ii = u64::from(self.state.ii());

        // Egress capacity: each outgoing link of a tile at rate divisor `r`
        // carries one transfer per slow cycle, i.e. II/r per period. A node
        // whose fan-out exceeds the tile's total link budget can never route
        // all its consumers from here (consumers on the same tile need no
        // link, so this is conservative — it only pushes the node to a
        // faster island or another tile).
        let egress = self.prep.dfg.out_edges(node).count() as u64;
        if egress > self.prep.cfg.neighbors(tile).count() as u64 * (ii / rate64) {
            return false;
        }

        // Arithmetic window: the slot search starts no earlier than `lo`
        // rounded up to the rate, and no value leaves this tile before
        // that plus `rate`. An out-route that misses its consumer's deadline
        // from there misses it from every later ready cycle too.
        let (lo, _) = self.state.window_lo(node, tile, self.earliest(node));
        if self
            .state
            .misses_deadline(consumers, tile, lo.div_ceil(rate64) * rate64 + rate64)
        {
            return false;
        }

        // FU slot: the slot search covers every phase of the period, so
        // with no free phase it finds nothing (see `commit.rs`).
        self.state.has_fu_slot(tile, rate)
    }

    /// Attempts to fully commit `node` on `tile` with the shared commit
    /// kernel, its island at `level` (opened now if it has none), taking
    /// the first FU slot that fits; on failure all reservations and
    /// island assignments are rolled back.
    fn commit(
        &mut self,
        node: NodeId,
        tile: TileId,
        level: DvfsLevel,
        consumers: &[Consumer],
    ) -> bool {
        let island = self.prep.cfg.island_of(tile);
        let mut draft = Draft::default();
        if self.state.island_level(island).is_none() {
            self.state.open_island(island, level, &mut draft);
        }
        let rate = level.rate_divisor().expect("active level");
        let rate64 = u64::from(rate);
        let ii = u64::from(self.state.ii());
        if !self.admits(node, tile, rate, consumers) {
            return self.abort(draft);
        }
        let earliest = self.earliest(node);
        let Some((in_routes, min_start)) =
            self.state.route_in_edges(node, tile, earliest, &mut draft)
        else {
            return self.abort(draft);
        };

        // Earliest phase-aligned FU slot that reads every in-route.
        let base = min_start.div_ceil(rate64) * rate64;
        let start = (0..(6 * ii).div_ceil(rate64).max(4))
            .map(|k| base + k * rate64)
            .find(|&s| self.state.mrrg().fu_free(tile, s, rate) && self.state.holds(&in_routes, s));
        let Some(start) = start else {
            return self.abort(draft);
        };
        self.state.occupy_fu(tile, start, rate, &mut draft);

        // Out-edges whose consumer is already placed: recurrence-closing
        // routes (loop-carried) and feeder routes into earlier-placed cycle
        // nodes (data), both bounded by the consumer's read deadline.
        let Some(out) = self
            .state
            .route_out_edges(tile, start + rate64, consumers, &mut draft)
        else {
            return self.abort(draft);
        };
        let p = Placement { tile, start, rate };
        self.state.place(node, p, &in_routes, consumers, out);
        true
    }

    fn abort(&mut self, draft: Draft) -> bool {
        iced_trace::counter(Phase::Mapper, "commit_aborts", 1);
        self.state.rollback(draft);
        false
    }
}

/// The label sets attempted at one II, most aggressive first: `(full,
/// clustered)`, `(softened, clustered)`, `(all-normal, clustered)`, then
/// the same three label sets with spread placement. The spread rungs fall
/// back to load-balanced placement when clustering cannot reach this II;
/// the final rung is the conventional spread mapper itself (all-normal
/// labels), which guarantees the DVFS-aware flow is never slower than the
/// baseline at any II — the Fig. 4 property.
///
/// The ladder is lazy: softened / all-normal label vectors are only
/// materialised when their rung is actually attempted, so a first-rung
/// success allocates nothing beyond the full labeling. Duplicate rungs
/// (softened == full when no node is labeled rest; all-normal == softened
/// when no node is labeled below normal) are skipped via [`Self::active`],
/// mirroring the dedup of the eager attempt list this replaces.
struct LabelLadder {
    full: Vec<DvfsLevel>,
    /// `full` contains at least one `Rest` (softened differs from full).
    has_rest: bool,
    /// `full` contains a non-`Normal` label (all-normal differs from full
    /// and from softened).
    has_slow: bool,
    /// `Some(spread)` collapses the ladder to a single rung with that
    /// spread flag (dvfs-unaware mapping, or `label_ladder` disabled).
    single: Option<bool>,
    softened: Option<Vec<DvfsLevel>>,
    all_normal: Option<Vec<DvfsLevel>>,
}

impl LabelLadder {
    fn new(dfg: &Dfg, config: &CgraConfig, opts: &MapperOptions, ii: u32) -> LabelLadder {
        if !opts.dvfs_aware {
            return LabelLadder {
                full: vec![DvfsLevel::Normal; dfg.node_count()],
                has_rest: false,
                has_slow: false,
                single: Some(opts.spread),
                softened: None,
                all_normal: None,
            };
        }
        let full: Vec<DvfsLevel> = label_dvfs_levels(dfg, config, ii)
            .labels()
            .iter()
            .map(|&l| clamp_to_allowed(l, &opts.allowed_levels))
            .collect();
        let has_rest = full.contains(&DvfsLevel::Rest);
        let has_slow = full.iter().any(|&l| l != DvfsLevel::Normal);
        let single = if opts.label_ladder { None } else { Some(false) };
        LabelLadder {
            full,
            has_rest,
            has_slow,
            single,
            softened: None,
            all_normal: None,
        }
    }

    /// Rung-grid width for these options, independent of any particular
    /// labeling — the portfolio uses it to enumerate `(II, rung)` attempts
    /// without building a ladder first.
    fn grid(opts: &MapperOptions) -> usize {
        if opts.dvfs_aware && opts.label_ladder {
            6
        } else {
            1
        }
    }

    fn rungs(&self) -> usize {
        if self.single.is_some() {
            1
        } else {
            6
        }
    }

    /// Whether rung `r` would appear in the eager attempt list, i.e. is
    /// the first occurrence of its `(labels, spread)` pair.
    fn active(&self, r: usize) -> bool {
        if self.single.is_some() {
            return r == 0;
        }
        match r {
            0 | 3 => true,
            1 | 4 => self.has_rest,
            2 | 5 => self.has_slow,
            _ => false,
        }
    }

    /// Labels + spread flag for rung `r`, materialised on first use.
    fn rung(&mut self, r: usize) -> (&[DvfsLevel], bool) {
        if let Some(spread) = self.single {
            debug_assert_eq!(r, 0);
            return (&self.full, spread);
        }
        let LabelLadder {
            full,
            softened,
            all_normal,
            ..
        } = self;
        let labels: &[DvfsLevel] = match r % 3 {
            0 => full,
            1 => softened.get_or_insert_with(|| {
                full.iter()
                    .map(|&l| {
                        if l == DvfsLevel::Rest {
                            DvfsLevel::Relax
                        } else {
                            l
                        }
                    })
                    .collect()
            }),
            _ => all_normal.get_or_insert_with(|| vec![DvfsLevel::Normal; full.len()]),
        };
        (labels, r >= 3)
    }
}

fn clamp_to_allowed(label: DvfsLevel, allowed: &[DvfsLevel]) -> DvfsLevel {
    let mut lvl = label;
    loop {
        if allowed.contains(&lvl) {
            return lvl;
        }
        if lvl == DvfsLevel::Normal {
            return DvfsLevel::Normal;
        }
        lvl = lvl.raised();
    }
}

/// Checks that a finished mapping respects every dependency of `dfg`
/// (used by tests and the simulator's validation layer).
pub fn check_dependencies(dfg: &Dfg, mapping: &Mapping) -> bool {
    for e in dfg.edges() {
        let src = mapping.placement(e.src());
        let dst = mapping.placement(e.dst());
        let produced = src.ready();
        let consumed = dst.start + e.kind().distance() as u64 * mapping.ii() as u64;
        if consumed < produced {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::IslandId;
    use iced_dfg::{DfgBuilder, Opcode};
    use std::collections::HashSet;

    fn ring(len: usize) -> Dfg {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..len)
            .map(|i| b.node(Opcode::Add, format!("r{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.carry(ids[len - 1], ids[0]).unwrap();
        b.finish().unwrap()
    }

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
    fn ring_maps_at_rec_mii() {
        let dfg = ring(4);
        let cfg = CgraConfig::square(4).unwrap();
        let m = map_baseline(&dfg, &cfg).unwrap();
        assert_eq!(m.ii(), 4);
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn baseline_keeps_everything_normal() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_baseline(&dfg, &cfg).unwrap();
        for t in cfg.tiles() {
            assert_eq!(m.tile_level(t), DvfsLevel::Normal);
        }
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn dvfs_aware_gates_unused_islands() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        assert!(check_dependencies(&dfg, &m));
        // 8 nodes on a 36-tile fabric: most islands must be power-gated.
        let gated = cfg
            .islands()
            .filter(|&i| m.island_level(i) == DvfsLevel::PowerGated)
            .count();
        assert!(gated >= 4, "only {gated} islands gated");
    }

    #[test]
    fn dvfs_aware_matches_baseline_ii_on_kernel_set() {
        // The paper's Fig. 4 claim for 2x2 islands: no performance loss.
        let cfg = CgraConfig::iced_prototype();
        for dfg in [ring(4), ring(7), fir_like()] {
            let b = map_baseline(&dfg, &cfg).unwrap();
            let d = map_dvfs_aware(&dfg, &cfg).unwrap();
            assert_eq!(b.ii(), d.ii(), "kernel {}", dfg.name());
        }
    }

    #[test]
    fn memory_ops_stay_on_leftmost_column() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        for node in dfg.nodes() {
            if node.op().is_memory() {
                let p = m.placement(node.id());
                assert!(cfg.is_memory_tile(p.tile), "{} on {}", node.label(), p.tile);
            }
        }
    }

    #[test]
    fn island_budget_restricts_tiles() {
        let dfg = ring(4);
        let cfg = CgraConfig::iced_prototype();
        let opts = MapperOptions {
            island_budget: Some(1),
            ..MapperOptions::default()
        };
        let m = map_with(&dfg, &cfg, &opts).unwrap();
        let allowed: HashSet<TileId> = cfg.island_tiles(IslandId(0)).into_iter().collect();
        for p in m.placements() {
            assert!(allowed.contains(&p.tile));
        }
    }

    #[test]
    fn too_small_fabric_raises_ii() {
        // 16 independent ops on a 2x2 fabric need II >= 4 by ResMII.
        let mut b = DfgBuilder::new("wide");
        let root = b.node(Opcode::Load, "r");
        for i in 0..15 {
            let n = b.node(Opcode::Add, format!("n{i}"));
            b.data(root, n).unwrap();
        }
        let dfg = b.finish().unwrap();
        let cfg = CgraConfig::square(2).unwrap();
        let m = map_baseline(&dfg, &cfg).unwrap();
        assert!(m.ii() >= 4);
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn max_ii_is_respected() {
        let dfg = ring(8);
        let cfg = CgraConfig::square(2).unwrap();
        let opts = MapperOptions {
            max_ii: 2,
            ..MapperOptions::baseline()
        };
        assert!(matches!(
            map_with(&dfg, &cfg, &opts),
            Err(MapError::IiExceeded { max_ii: 2 })
        ));
    }

    #[test]
    fn heterogeneous_fabric_keeps_multiplies_on_mul_tiles() {
        let dfg = fir_like();
        let cfg = iced_arch::CgraConfig::builder(6, 6)
            .fu_layout(iced_arch::FuLayout::CheckerboardMul)
            .build()
            .unwrap();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        for node in dfg.nodes() {
            if node.op().class() == iced_dfg::OpcodeClass::Mul {
                let p = m.placement(node.id());
                assert!(
                    cfg.tile_has_multiplier(p.tile),
                    "{} on {}",
                    node.label(),
                    p.tile
                );
            }
        }
    }

    #[test]
    fn rest_labeled_nodes_land_on_slow_islands() {
        // Feeders off the critical path should end up on relax/rest islands.
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        let slow = cfg
            .islands()
            .filter(|&i| matches!(m.island_level(i), DvfsLevel::Rest | DvfsLevel::Relax))
            .count();
        assert!(slow >= 1, "expected at least one slow island");
    }

    /// Reference implementation of the eager attempt list the lazy
    /// [`LabelLadder`] replaced — kept as the oracle for its dedup rules.
    fn eager_attempts(
        dfg: &Dfg,
        config: &CgraConfig,
        opts: &MapperOptions,
        ii: u32,
    ) -> Vec<(Vec<DvfsLevel>, bool)> {
        let all_normal = vec![DvfsLevel::Normal; dfg.node_count()];
        if !opts.dvfs_aware {
            return vec![(all_normal, opts.spread)];
        }
        let full: Vec<DvfsLevel> = label_dvfs_levels(dfg, config, ii)
            .labels()
            .iter()
            .map(|&l| clamp_to_allowed(l, &opts.allowed_levels))
            .collect();
        if !opts.label_ladder {
            return vec![(full, false)];
        }
        let softened: Vec<DvfsLevel> = full
            .iter()
            .map(|&l| {
                if l == DvfsLevel::Rest {
                    DvfsLevel::Relax
                } else {
                    l
                }
            })
            .collect();
        let mut attempts = vec![(full.clone(), false)];
        for cand in [
            (softened.clone(), false),
            (all_normal.clone(), false),
            (full, true),
            (softened, true),
            (all_normal, true),
        ] {
            if !attempts.contains(&cand) {
                attempts.push(cand);
            }
        }
        attempts
    }

    #[test]
    fn lazy_ladder_matches_eager_attempt_list() {
        let cfg = CgraConfig::iced_prototype();
        let variants = [
            MapperOptions::default(),
            MapperOptions::baseline(),
            MapperOptions {
                label_ladder: false,
                ..MapperOptions::default()
            },
            MapperOptions {
                allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax],
                ..MapperOptions::default()
            },
        ];
        for dfg in [ring(4), ring(7), fir_like()] {
            for opts in &variants {
                for ii in 1..=8 {
                    let eager = eager_attempts(&dfg, &cfg, opts, ii);
                    let mut ladder = LabelLadder::new(&dfg, &cfg, opts, ii);
                    let mut lazy = Vec::new();
                    for r in 0..ladder.rungs() {
                        if ladder.active(r) {
                            let (labels, spread) = ladder.rung(r);
                            lazy.push((labels.to_vec(), spread));
                        }
                    }
                    assert_eq!(eager, lazy, "kernel {} ii {ii}", dfg.name());
                }
            }
        }
    }

    #[test]
    fn expired_deadline_aborts_between_attempts() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        // Already-expired deadline: the loop must abort before the first
        // attempt, in both the serial and portfolio paths.
        for threads in [1, 3] {
            let opts = MapperOptions {
                deadline: Some(std::time::Instant::now()),
                threads,
                ..MapperOptions::default()
            };
            assert!(
                matches!(map_with(&dfg, &cfg, &opts), Err(MapError::DeadlineExceeded)),
                "threads={threads}"
            );
        }
        // A generous deadline changes nothing.
        let opts = MapperOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            threads: 1,
            ..MapperOptions::default()
        };
        let with_deadline = map_with(&dfg, &cfg, &opts).unwrap();
        let without = map_dvfs_aware(&dfg, &cfg).unwrap();
        assert!(with_deadline.result_eq(&without));
    }

    #[test]
    fn options_hash_is_pinned_and_ignores_serving_knobs() {
        // Cross-process stability contract (service disk cache).
        assert_eq!(
            MapperOptions::default().canonical_hash(),
            0xaddd_866a_3893_55f5
        );
        let base = MapperOptions::default();
        let serving = MapperOptions {
            threads: 7,
            deadline: Some(std::time::Instant::now()),
            ..MapperOptions::default()
        };
        assert_eq!(base.canonical_hash(), serving.canonical_hash());
        let semantic = [
            MapperOptions::baseline(),
            MapperOptions {
                max_ii: 32,
                ..MapperOptions::default()
            },
            MapperOptions {
                min_ii: 3,
                ..MapperOptions::default()
            },
            MapperOptions {
                island_budget: Some(2),
                ..MapperOptions::default()
            },
            MapperOptions {
                allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax],
                ..MapperOptions::default()
            },
            MapperOptions {
                cycle_first: false,
                ..MapperOptions::default()
            },
            MapperOptions {
                label_ladder: false,
                ..MapperOptions::default()
            },
        ];
        for v in &semantic {
            assert_ne!(base.canonical_hash(), v.canonical_hash(), "{v:?}");
        }
    }

    #[test]
    fn portfolio_matches_serial_mapping() {
        let cfg = CgraConfig::iced_prototype();
        for dfg in [ring(4), ring(7), fir_like()] {
            for base in [MapperOptions::default(), MapperOptions::baseline()] {
                let serial = map_with(
                    &dfg,
                    &cfg,
                    &MapperOptions {
                        threads: 1,
                        ..base.clone()
                    },
                )
                .unwrap();
                let parallel = map_with(&dfg, &cfg, &MapperOptions { threads: 3, ..base }).unwrap();
                assert!(
                    serial.result_eq(&parallel),
                    "kernel {} diverged across thread counts",
                    dfg.name()
                );
                assert!(check_dependencies(&dfg, &parallel));
            }
        }
    }

    #[test]
    fn portfolio_respects_max_ii() {
        let dfg = ring(8);
        let cfg = CgraConfig::square(2).unwrap();
        let opts = MapperOptions {
            max_ii: 2,
            threads: 4,
            ..MapperOptions::baseline()
        };
        assert!(matches!(
            map_with(&dfg, &cfg, &opts),
            Err(MapError::IiExceeded { max_ii: 2 })
        ));
    }

    #[test]
    fn thread_count_resolution_order() {
        // An explicit option beats everything (the env fallback is
        // process-global, so it is not exercised here).
        let explicit = MapperOptions {
            threads: 3,
            ..MapperOptions::default()
        };
        assert_eq!(resolve_threads(&explicit), 3);
        // threads = 0 resolves to *something* usable.
        assert!(resolve_threads(&MapperOptions::default()) >= 1);
    }
}
