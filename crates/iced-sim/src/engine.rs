//! Cycle-stepped execution engine over a compiled periodic event table.
//!
//! This module is the value check of a mapping: it actually *runs* the
//! machine. FU executions fire at their scheduled cycles, link transfers
//! drive the mesh, value tokens move through per-edge elastic FIFOs, and
//! opcode semantics execute as tokens meet at consumers. It is the closest equivalent of the paper's
//! "cycle-accurate simulation according to the kernel mapping".
//!
//! The engine checks, at every event:
//!
//! * **FU exclusivity** — a tile's FU never starts two ops in one of its
//!   slow-cycle windows;
//! * **link exclusivity** — a directed link never carries two transfers in
//!   overlapping base cycles;
//! * **token availability** — an op only fires if every operand token for
//!   its iteration has arrived (a missing token is a timing bug, reported
//!   as [`EngineError::TokenNotReady`], never silently absorbed);
//! * **value correctness** — computed tokens are compared against the
//!   reference interpreter bit-for-bit.
//!
//! # The compiled periodic schedule
//!
//! A modulo schedule is periodic by construction: every event of iteration
//! `i` happens exactly `i·II` base cycles after its iteration-0 time. The
//! engine exploits that instead of materialising one event per
//! (occurrence × iteration): the mapping is compiled **once** into a
//! per-period program — each event stored as `(phase, shift)` with
//! `offset = shift·II + phase` — and the run iterates periods `k`, firing
//! every event whose iteration `i = k − shift` lies in `0..iterations`.
//! Prologue and epilogue fall out of that range check; no per-iteration
//! timeline ever exists.
//!
//! The program keeps three homogeneous lists per phase, run in this order
//! within a cycle: deliveries (edge order), firings (node order), hops
//! (edge, then route order) — the oracle's per-cycle order, so both
//! machines report the same first error. Each record is precomputed: a
//! firing carries its tile, rate, opcode, value-ring slot and a range
//! into one flat operand table; a delivery carries its producer's slot; a
//! hop its link, tile and length. The loop never looks up the mapping or
//! the DFG per event. Periods `k ∈ [max_shift, iterations)` have every
//! event live, so they run a copy of the loop without the liveness and
//! horizon tests; every machine check above still runs on every event
//! of every period the machine steps.
//!
//! # The steady-state skip
//!
//! An all-live period is a pure function of the machine's value-free
//! state at its start, taken relative to that start: every FIFO entry as
//! `(k − iteration, k·II − delivered)`, and `fu_free_at`, `link_free_at`
//! and `link_cover_until` as cycles past `k·II` (0 when already free).
//! No check and no counter there reads a value or an absolute cycle,
//! except the horizon clamp on link-busy intervals. So once that state
//! at two consecutive all-live boundaries is equal (`repeats`), every
//! later all-live period repeats the verified one: same checks passed,
//! same counter deltas, same relative state at its end. The clamp does
//! not break this before period `iterations − 1`. A hop longer than II
//! leaves its link busy past the next instance's start, so the verified
//! period, which starts in its own end state, would have failed its link
//! check. Every hop of an earlier period therefore ends by
//! `iterations·II`, before the horizon.
//!
//! The run then finishes as the run `s = iterations − 1 − k` periods
//! shorter, `k` being the verified boundary: it adds `s` times the
//! verified period's deltas of `fu_busy`, `link_busy`, `token_wait` and
//! `ops_executed`, lowers its iteration count by `s` and its horizon by
//! `s·II`, and steps on from `k` with every check. The report's horizon
//! gets `s·II` back, and an error raised past the skip moves `s`
//! iterations and `s·II` cycles on, into the full run's coordinates.
//!
//! This is exact because no check and no counter reads a value: the
//! seed only feeds the value compare. Each FIFO hands its k-th pop the
//! k-th push, so a firing in the band, or in the tail (compared with
//! frames near `iterations − s`, not near `iterations`), consumes the
//! reference's own tokens and computes the reference value. So the
//! [`ReferenceStream`] stops at the verified boundary, and a run's cost
//! does not depend on its length. `fifo_peak` repeats too, so the
//! verified periods have already reached it. Fault-injected runs, which
//! draw an upset per firing, and runs recording per-firing detail
//! events step every period.
//!
//! All machine state is flat-indexed: per-edge token FIFOs preallocated to
//! the [`crate::edge_fifo_depths`] bound, tile×direction link-occupancy
//! arrays, a node-value ring covering the in-flight iteration window, and a
//! streaming [`ReferenceStream`] that retires reference
//! frames as soon as the last consumer has used them. The value ring and
//! the reference ring are rounded up to a power of two, so a slot is a
//! mask, not a division. Memory is O(fabric + DFG) — **independent of the
//! iteration count** — and busy cycles are accounted per event instead of
//! by scanning every tile on every base cycle.
//!
//! The original naive engine survives as [`crate::oracle::run_oracle`]; the
//! test-suite proves this compiled path returns an equal [`EngineReport`]
//! (and emits the same trace counters) across the whole kernel suite, both
//! mappers, unroll factors, and random DFGs.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use iced_arch::{Dir, TileId};
use iced_dfg::{Dfg, EdgeId, NodeId, Opcode};
use iced_fault::FaultPlan;
use iced_mapper::Mapping;
use iced_trace::Phase;

use crate::functional::{self, ReferenceStream};

/// Errors detected while stepping the machine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// An op fired before one of its operand tokens arrived.
    TokenNotReady {
        /// The starving edge.
        edge: EdgeId,
        /// The base cycle at which the consumer fired.
        cycle: u64,
    },
    /// Two ops started in the same FU window of one tile.
    FuCollision {
        /// The tile.
        tile: TileId,
        /// The base cycle of the collision.
        cycle: u64,
    },
    /// Two transfers drove one directed link in the same base cycle.
    LinkCollision {
        /// The driving tile.
        tile: TileId,
        /// The base cycle of the collision.
        cycle: u64,
    },
    /// A computed value diverged from the reference interpretation.
    ValueMismatch {
        /// The producing node.
        node: NodeId,
        /// The iteration whose value diverged.
        iteration: u64,
    },
    /// The mapping does not belong to this kernel: its placement/route
    /// tables cannot index the DFG (or vice versa). Detected up front so a
    /// mismatched (kernel, mapping) pair from an untrusted caller yields a
    /// typed error instead of an out-of-bounds panic mid-run.
    KernelMismatch {
        /// Nodes in the DFG handed to the engine.
        nodes: usize,
        /// Placements in the mapping (one per node of *its* kernel).
        placements: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TokenNotReady { edge, cycle } => {
                write!(f, "edge {edge} starved at cycle {cycle}")
            }
            EngineError::FuCollision { tile, cycle } => {
                write!(f, "fu collision on {tile} at cycle {cycle}")
            }
            EngineError::LinkCollision { tile, cycle } => {
                write!(f, "link collision on {tile} at cycle {cycle}")
            }
            EngineError::ValueMismatch { node, iteration } => {
                write!(f, "value mismatch for {node} in iteration {iteration}")
            }
            EngineError::KernelMismatch { nodes, placements } => {
                write!(
                    f,
                    "mapping does not fit kernel: {nodes} nodes vs {placements} placements"
                )
            }
        }
    }
}

impl EngineError {
    /// This error as the run `periods` periods longer reports it: after
    /// the steady-state skip a run finishes as the shorter run it is
    /// equivalent to, so its cycles and iterations trail the full run's.
    fn shifted(mut self, periods: u64, ii: u64) -> Self {
        match &mut self {
            EngineError::TokenNotReady { cycle, .. }
            | EngineError::FuCollision { cycle, .. }
            | EngineError::LinkCollision { cycle, .. } => *cycle += periods * ii,
            EngineError::ValueMismatch { iteration, .. } => *iteration += periods,
            EngineError::KernelMismatch { .. } => {}
        }
        self
    }
}

impl Error for EngineError {
    // Engine errors are root causes detected by the machine itself — there
    // is never an underlying error to chain to. Spelled out (rather than
    // inherited) so the contract is explicit and tested.
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        None
    }
}

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Base cycles stepped.
    pub cycles: u64,
    /// Completed loop iterations (all nodes executed).
    pub iterations: u64,
    /// Per-tile base cycles in which the FU was executing.
    pub fu_busy: Vec<u64>,
    /// Per-tile base cycles in which at least one outgoing link was driven.
    pub link_busy: Vec<u64>,
    /// Deepest per-edge FIFO occupancy observed.
    pub fifo_peak: usize,
    /// Total ops executed.
    pub ops_executed: u64,
}

impl EngineReport {
    /// Whole-fabric busy fraction over the run (FU activity only).
    pub fn fu_activity(&self) -> f64 {
        if self.cycles == 0 || self.fu_busy.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.fu_busy.iter().sum();
        busy as f64 / (self.cycles * self.fu_busy.len() as u64) as f64
    }
}

/// Result of a fault-injected run: the clean-machine report plus the
/// resilience accounting. With an empty [`FaultPlan`] the wrapped `report`
/// is bit-identical to [`run`]'s and every fault counter is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimReport {
    /// The underlying machine report (cycles, busy counters, ops).
    pub report: EngineReport,
    /// Transient upsets the plan injected into computed values.
    pub upsets_injected: u64,
    /// Upsets the reference checker caught. Equal to `upsets_injected` by
    /// construction — every produced value is compared — kept separate so
    /// the report states the guarantee rather than implying it.
    pub upsets_detected: u64,
    /// Iteration re-executions triggered by detected upsets.
    pub rollbacks: u64,
    /// Base cycles spent re-executing rolled-back iterations (one mapping
    /// makespan per rollback — the pipeline restarts from the corrupted
    /// iteration).
    pub recovery_cycles: u64,
}

impl FaultSimReport {
    /// Fraction of the run spent on recovery re-execution.
    pub fn recovery_overhead(&self) -> f64 {
        if self.report.cycles == 0 {
            return 0.0;
        }
        self.recovery_cycles as f64 / (self.report.cycles + self.recovery_cycles) as f64
    }
}

/// A value landing in the consumer-side FIFO of an edge.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    /// Dense edge index: the FIFO.
    edge: u32,
    /// The producer's first slot in the value ring (`node · win`).
    src_slot: usize,
}

/// A node firing on its tile's FU.
#[derive(Debug, Clone, Copy)]
struct Firing {
    /// Base cycles the op holds the FU.
    rate: u64,
    tile: TileId,
    /// Dense node index.
    node: u32,
    /// The node's first slot in the value ring (`node · win`).
    slot: usize,
    /// The node's operands: `operands[first..end]`.
    first: u32,
    end: u32,
    op: Opcode,
}

/// A hop starting to drive a link.
#[derive(Debug, Clone, Copy)]
struct HopStart {
    /// Base cycles the transfer occupies.
    len: u64,
    /// The driving tile.
    tile: TileId,
    /// Flat `tile·4 + dir` link index.
    link: u32,
}

/// One operand of a firing: the FIFO it pops and the edge's carried
/// distance.
#[derive(Debug, Clone, Copy)]
struct Operand {
    edge: u32,
    distance: u32,
}

/// One kind of periodic event, grouped by phase. Each item is
/// `(shift, event)`: the event of iteration `i` fires at base cycle
/// `(shift + i)·II + phase`, i.e. in period `k = shift + i`.
#[derive(Debug)]
struct PhaseList<T> {
    items: Vec<(u64, T)>,
    /// Phase `p`'s events are `items[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
}

impl<T> PhaseList<T> {
    /// Groups `(iteration-0 offset, event)` pairs by phase, keeping their
    /// order within a phase.
    fn new(ii: u64, mut events: Vec<(u64, T)>) -> Self {
        events.sort_by_key(|&(offset, _)| offset % ii);
        let starts = (0..=ii)
            .map(|p| events.partition_point(|&(offset, _)| offset % ii < p) as u32)
            .collect();
        let items = events
            .into_iter()
            .map(|(offset, ev)| (offset / ii, ev))
            .collect();
        PhaseList { items, starts }
    }

    fn phase(&self, p: usize) -> &[(u64, T)] {
        &self.items[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    fn max_shift(&self) -> u64 {
        self.items
            .iter()
            .map(|&(shift, _)| shift)
            .max()
            .unwrap_or(0)
    }
}

/// The mapping compiled into one period of the schedule. Within a cycle
/// the machine runs deliveries (in edge order), then firings (in node
/// order), then hops (in edge, then route order): a consumer may fire in
/// the cycle a value lands (the overlapped first hop produces exactly that
/// pattern), and the order matches the oracle's, so both report the same
/// first error.
#[derive(Debug)]
struct Program {
    ii: u64,
    deliveries: PhaseList<Delivery>,
    firings: PhaseList<Firing>,
    hops: PhaseList<HopStart>,
    /// Operands of every firing, back to back, each node's in edge-id
    /// order (the operand order of the reference interpreter).
    operands: Vec<Operand>,
    /// The largest in-degree: the size of the operand buffer.
    arity: usize,
    /// Largest shift of any event: from period `max_shift` on, every
    /// event is live until the last iteration has started.
    max_shift: u64,
}

impl Program {
    /// Compiles `mapping`; `win` is the value ring's per-node window.
    fn compile(dfg: &Dfg, mapping: &Mapping, win: usize) -> Program {
        let ii = u64::from(mapping.ii());
        let mut operands = Vec::with_capacity(dfg.edge_count());
        let firings = dfg
            .node_ids()
            .map(|node| {
                let p = mapping.placement(node);
                let first = operands.len() as u32;
                operands.extend(
                    functional::operand_edges(dfg, node)
                        .iter()
                        .map(|e| Operand {
                            edge: e.id().index() as u32,
                            distance: e.kind().distance(),
                        }),
                );
                let firing = Firing {
                    rate: u64::from(p.rate),
                    tile: p.tile,
                    node: node.index() as u32,
                    slot: node.index() * win,
                    first,
                    end: operands.len() as u32,
                    op: dfg.node(node).op(),
                };
                (p.start, firing)
            })
            .collect();
        let mut routed: Vec<Option<&iced_mapper::Route>> = vec![None; dfg.edge_count()];
        for r in mapping.routes() {
            routed[r.edge.index()] = Some(r);
        }
        let mut deliveries = Vec::with_capacity(dfg.edge_count());
        let mut hops = Vec::new();
        for e in dfg.edges() {
            // Same-tile edges deliver directly at producer-ready time.
            let arrival = match routed[e.id().index()] {
                Some(route) => {
                    hops.extend(route.hops.iter().map(|h| {
                        let hop = HopStart {
                            len: h.arrive - h.depart,
                            tile: h.from,
                            link: (h.from.index() * Dir::ALL.len() + h.dir.index()) as u32,
                        };
                        (h.depart, hop)
                    }));
                    route.arrival
                }
                None => mapping.placement(e.src()).ready(),
            };
            let delivery = Delivery {
                edge: e.id().index() as u32,
                src_slot: e.src().index() * win,
            };
            deliveries.push((arrival, delivery));
        }
        let deliveries = PhaseList::new(ii, deliveries);
        let firings = PhaseList::new(ii, firings);
        let hops = PhaseList::new(ii, hops);
        let arity = dfg
            .node_ids()
            .map(|n| dfg.in_edges(n).count())
            .max()
            .unwrap_or(0);
        let max_shift = deliveries
            .max_shift()
            .max(firings.max_shift())
            .max(hops.max_shift());
        Program {
            ii,
            deliveries,
            firings,
            hops,
            operands,
            arity,
            max_shift,
        }
    }
}

/// Runs `iterations` loop iterations of `mapping` on the compiled
/// cycle-stepped machine, checking timing and values at every event.
///
/// Equivalent to [`crate::oracle::run_oracle`] — bit-identical
/// [`EngineReport`] and trace counters on every valid mapping (enforced by
/// the equivalence suite) — but with memory independent of `iterations`.
/// On *invalid* mappings both paths return an [`EngineError`], though tied
/// same-cycle violations may name a different culprit.
///
/// # Errors
///
/// Returns the first [`EngineError`] encountered; a correct mapping never
/// produces one (asserted over the whole kernel suite by the tests).
pub fn run(
    dfg: &Dfg,
    mapping: &Mapping,
    iterations: u64,
    seed: u64,
) -> Result<EngineReport, EngineError> {
    run_inner(dfg, mapping, iterations, seed, None).map(|r| r.report)
}

/// [`run`] with seeded transient-fault injection and re-execution recovery.
///
/// At every FU firing the plan's deterministic upset schedule may flip one
/// bit of the computed value (SEU model; per-DVFS-level rates, so slowed
/// tiles fault more often). The streaming reference checker detects the
/// divergence at the firing itself, and the machine recovers by rolling
/// the iteration back and re-executing — modeled as one mapping makespan
/// of extra latency per rollback, accounted in
/// [`FaultSimReport::recovery_cycles`] and the `sim_rollbacks` /
/// `sim_recovery_cycles` trace counters. A genuine divergence (one not
/// injected this cycle) still fails with [`EngineError::ValueMismatch`].
///
/// Same plan, kernel, mapping, and seed → byte-identical report; an empty
/// plan is bit-identical to [`run`].
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_with_faults(
    dfg: &Dfg,
    mapping: &Mapping,
    iterations: u64,
    seed: u64,
    plan: &FaultPlan,
) -> Result<FaultSimReport, EngineError> {
    run_inner(dfg, mapping, iterations, seed, Some(plan))
}

/// The run behind [`run`] and [`run_with_faults`].
fn run_inner(
    dfg: &Dfg,
    mapping: &Mapping,
    iterations: u64,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<FaultSimReport, EngineError> {
    // Arity gate: a mapping only indexes into the kernel it was compiled
    // from. Service callers can pair an arbitrary kernel with a cached
    // mapping, so the mismatch must surface as a typed error up front.
    if mapping.placements().len() != dfg.node_count()
        || mapping.routes().len() > dfg.edge_count()
        || mapping
            .routes()
            .iter()
            .any(|r| r.edge.index() >= dfg.edge_count())
    {
        return Err(EngineError::KernelMismatch {
            nodes: dfg.node_count(),
            placements: mapping.placements().len(),
        });
    }
    let _run_span = iced_trace::span(
        Phase::Sim,
        "engine_run",
        &[
            ("kernel", mapping.kernel().into()),
            ("ii", u64::from(mapping.ii()).into()),
            ("iterations", iterations.into()),
        ],
    );
    let (program, mut m) = Machine::new(dfg, mapping, iterations, seed, faults);
    m.run(&program)?;

    if iced_trace::enabled() {
        emit_run_counters(
            mapping,
            m.horizon,
            m.ops_executed,
            &m.fu_busy,
            &m.link_busy,
            &m.token_wait,
        );
        // Resilience counters only exist on the fault path, so the
        // fault-free trace surface (checked by the oracle-equivalence
        // suite) is untouched.
        if faults.is_some() {
            iced_trace::counter(Phase::Sim, "sim_upsets_injected", m.upsets_injected);
            iced_trace::counter(Phase::Sim, "sim_rollbacks", m.rollbacks);
            iced_trace::counter(Phase::Sim, "sim_recovery_cycles", m.recovery_cycles);
        }
    }

    Ok(FaultSimReport {
        report: EngineReport {
            cycles: m.horizon,
            iterations,
            fu_busy: m.fu_busy,
            link_busy: m.link_busy,
            fifo_peak: m.fifo_peak,
            ops_executed: m.ops_executed,
        },
        upsets_injected: m.upsets_injected,
        upsets_detected: m.upsets_injected,
        rollbacks: m.rollbacks,
        recovery_cycles: m.recovery_cycles,
    })
}

/// The running machine: flat state, all O(fabric + DFG).
struct Machine<'a> {
    dfg: &'a Dfg,
    mapping: &'a Mapping,
    iterations: u64,
    /// Base cycles stepped; nothing happens at or past it.
    horizon: u64,
    makespan: u64,
    faults: Option<&'a FaultPlan>,
    /// Whether to record one trace event per firing (read once per run).
    detail: bool,
    /// Next base cycle each FU is free.
    fu_free_at: Vec<u64>,
    /// Next base cycle each `tile·4 + dir` link is free.
    link_free_at: Vec<u64>,
    /// Per-tile end of the busiest transfer seen so far: events arrive in
    /// time order, so the union of transfer intervals (what the oracle
    /// counts cycle by cycle) accumulates incrementally.
    link_cover_until: Vec<u64>,
    fu_busy: Vec<u64>,
    link_busy: Vec<u64>,
    token_wait: Vec<u64>,
    /// Per-edge FIFO entries; the delivery cycle feeds the per-tile
    /// token-wait counters. Capacities come from the analytic per-edge
    /// bound; `VecDeque` still grows if an invalid schedule overshoots it.
    fifos: Vec<VecDeque<Token>>,
    fifo_peak: usize,
    ops_executed: u64,
    // Resilience accounting (stays zero on the fault-free path).
    upsets_injected: u64,
    rollbacks: u64,
    recovery_cycles: u64,
    /// The value ring (see `Machine::new`), `win` slots per node.
    values: Vec<i64>,
    /// `win − 1`.
    mask: u64,
    reference: ReferenceStream<'a>,
    /// Operand values of the firing in progress, sized to the largest
    /// in-degree and written by index.
    args: Vec<i64>,
}

impl<'a> Machine<'a> {
    /// The compiled program and a machine at its start.
    fn new(
        dfg: &'a Dfg,
        mapping: &'a Mapping,
        iterations: u64,
        seed: u64,
        faults: Option<&'a FaultPlan>,
    ) -> (Program, Machine<'a>) {
        let ii = u64::from(mapping.ii());
        let tiles = mapping.config().tile_count();
        let makespan = mapping.makespan();
        let horizon = makespan + iterations * ii + 1;

        // Value ring: slot `node·win + (i & (win − 1))` holds the node's
        // iteration-`i` value from its firing until every delivery has read
        // it. A delivery trails its producer's firing by at most one makespan
        // plus the edge's carried distance in periods (arrival ≤ consume =
        // dst.start + d·II), and within a cycle delivers run before fires, so
        // `makespan/II + 2 + maxd` periods of slack guarantee the slot is only
        // recycled after its last reader; the window is rounded up to a power
        // of two so a slot is a mask, not a division.
        let maxd = dfg
            .edges()
            .map(|e| u64::from(e.kind().distance()))
            .max()
            .unwrap_or(0);
        let win = (makespan / ii + 2 + maxd).next_power_of_two();
        let program = Program::compile(dfg, mapping, win as usize);

        let m = Machine {
            dfg,
            mapping,
            iterations,
            horizon,
            makespan,
            faults,
            detail: iced_trace::detail_enabled(),
            fu_free_at: vec![0; tiles],
            link_free_at: vec![0; tiles * Dir::ALL.len()],
            link_cover_until: vec![0; tiles],
            fu_busy: vec![0; tiles],
            link_busy: vec![0; tiles],
            token_wait: vec![0; tiles],
            fifos: crate::validate::edge_fifo_depths(dfg, mapping)
                .iter()
                .map(|&d| VecDeque::with_capacity(d as usize + 1))
                .collect(),
            fifo_peak: 0,
            ops_executed: 0,
            upsets_injected: 0,
            rollbacks: 0,
            recovery_cycles: 0,
            values: vec![0; dfg.node_count() * win as usize],
            mask: win - 1,
            // Period `k` fires iterations `k − max_shift ..= k`, so no frame
            // older than `max_shift` behind the newest is ever read.
            reference: ReferenceStream::new(dfg, seed, program.max_shift),
            args: vec![0; program.arity],
        };
        (program, m)
    }

    fn timing(&self) -> Timing<'_> {
        Timing {
            fifos: &self.fifos,
            fu_free_at: &self.fu_free_at,
            link_free_at: &self.link_free_at,
            link_cover_until: &self.link_cover_until,
        }
    }

    /// Steps the run and returns how many periods the steady-state skip
    /// left out: past the skip the machine is the shorter run, and only
    /// its horizon and its errors move back to the full run's coordinates.
    fn run(&mut self, program: &Program) -> Result<u64, EngineError> {
        let ii = program.ii;
        // The steady-state skip replays no per-firing side effect, so runs
        // that draw upsets or record firings step every period.
        let mut probe = (self.faults.is_none() && !self.detail).then(Probe::default);
        let mut skipped = 0;
        let mut k = 0;
        // With no iterations, no event of the `max_shift` periods is live.
        while k < program.max_shift + self.iterations {
            let all_live = k >= program.max_shift && k < self.iterations;
            if let Some(p) = probe.as_mut().filter(|_| all_live) {
                match self.probe(program, p, k) {
                    Probing::Continue => {}
                    Probing::Stop => probe = None,
                    Probing::Skip(s) => {
                        self.shorten(p, s, ii);
                        skipped = s;
                        probe = None;
                    }
                }
            }
            let stepped = if all_live {
                self.period::<true>(program, k)
            } else {
                self.period::<false>(program, k)
            };
            stepped.map_err(|e| e.shifted(skipped, ii))?;
            k += 1;
        }
        self.iterations += skipped;
        self.horizon += skipped * ii;
        Ok(skipped)
    }

    /// Steady-state detection at all-live boundary `k`: skips once the
    /// relative timing state equals the previous boundary's, or records
    /// this boundary for the next comparison. A run that does not fail
    /// always gets to skip: from boundary `max_shift` + the largest
    /// carried distance on, every period pushes and pops each FIFO once
    /// and drives every resource, so the state repeats.
    fn probe(&self, program: &Program, p: &mut Probe, k: u64) -> Probing {
        // The last all-live period steps with every check, like the
        // epilogue after it.
        let last = self.iterations - 1;
        if k + 1 >= last {
            return Probing::Stop;
        }
        let timing = self.timing();
        if p.armed && repeats(&p.boundary, timing, k, program.ii) {
            return Probing::Skip(last - k);
        }
        p.boundary.capture(timing, k, program.ii);
        p.fu_busy.clone_from(&self.fu_busy);
        p.link_busy.clone_from(&self.link_busy);
        p.token_wait.clone_from(&self.token_wait);
        p.ops_executed = self.ops_executed;
        p.armed = true;
        Probing::Continue
    }

    /// Turns the machine into the run `s` periods shorter, charged for
    /// the periods it leaves out: period `k − 1` (whose start `p` holds)
    /// left the relative timing state unchanged, so each left-out period
    /// repeats its checks and its counter deltas.
    fn shorten(&mut self, p: &Probe, s: u64, ii: u64) {
        for (now, then) in [
            (&mut self.fu_busy, &p.fu_busy),
            (&mut self.link_busy, &p.link_busy),
            (&mut self.token_wait, &p.token_wait),
        ] {
            for (c, &was) in now.iter_mut().zip(then) {
                *c += s * (*c - was);
            }
        }
        self.ops_executed += s * (self.ops_executed - p.ops_executed);
        self.iterations -= s;
        self.horizon -= s * ii;
    }

    /// Runs period `k`: every phase's deliveries, firings and hops, in
    /// that order. With `ALL_LIVE` the caller guarantees
    /// `max_shift ≤ k < iterations`, where every event's iteration
    /// `k − shift` is in `0..iterations` and every cycle is before the
    /// horizon, so the liveness tests are skipped; every machine check
    /// still runs.
    fn period<const ALL_LIVE: bool>(
        &mut self,
        program: &Program,
        k: u64,
    ) -> Result<(), EngineError> {
        for p in 0..program.ii as usize {
            let cycle = k * program.ii + p as u64;
            for &(shift, d) in program.deliveries.phase(p) {
                let Some(i) = self.live::<ALL_LIVE>(k, shift, cycle) else {
                    continue;
                };
                let v = self.values[d.src_slot + (i & self.mask) as usize];
                let q = &mut self.fifos[d.edge as usize];
                q.push_back((i, v, cycle));
                self.fifo_peak = self.fifo_peak.max(q.len());
            }
            for (shift, f) in program.firings.phase(p) {
                let Some(i) = self.live::<ALL_LIVE>(k, *shift, cycle) else {
                    continue;
                };
                self.fire(&program.operands, f, i, cycle)?;
            }
            for &(shift, h) in program.hops.phase(p) {
                if self.live::<ALL_LIVE>(k, shift, cycle).is_none() {
                    continue;
                }
                self.hop(h, cycle)?;
            }
        }
        Ok(())
    }

    /// The iteration an event of `shift` runs in period `k`, if it runs.
    #[inline(always)]
    fn live<const ALL_LIVE: bool>(&self, k: u64, shift: u64, cycle: u64) -> Option<u64> {
        if ALL_LIVE {
            debug_assert!(k >= shift && k - shift < self.iterations && cycle < self.horizon);
            return Some(k - shift);
        }
        let i = k.checked_sub(shift)?;
        // The run stops at the horizon: epilogue deliveries/hops of
        // far-carried edges (distance ≥ 2) can land past it and then
        // simply never happen. FU firings always finish in bounds.
        (i < self.iterations && cycle < self.horizon).then_some(i)
    }

    #[inline(always)]
    fn hop(&mut self, h: HopStart, cycle: u64) -> Result<(), EngineError> {
        let link = h.link as usize;
        if self.link_free_at[link] > cycle {
            return Err(EngineError::LinkCollision {
                tile: h.tile,
                cycle,
            });
        }
        self.link_free_at[link] = cycle + h.len;
        let t = h.tile.index();
        // Busy cycles past the horizon are never stepped.
        let end = (cycle + h.len).min(self.horizon);
        let covered = self.link_cover_until[t];
        if cycle >= covered {
            self.link_busy[t] += h.len;
        } else if end > covered {
            self.link_busy[t] += end - covered;
        }
        self.link_cover_until[t] = covered.max(end);
        Ok(())
    }

    #[inline(always)]
    fn fire(
        &mut self,
        operands: &[Operand],
        f: &Firing,
        i: u64,
        cycle: u64,
    ) -> Result<(), EngineError> {
        let t = f.tile.index();
        if self.fu_free_at[t] > cycle {
            return Err(EngineError::FuCollision {
                tile: f.tile,
                cycle,
            });
        }
        self.fu_free_at[t] = cycle + f.rate;
        // Firings on one FU never overlap, so each contributes exactly its
        // rate to the tile's busy count.
        self.fu_busy[t] += f.rate;
        // Gather operand tokens: pop one per in-edge; iterations below the
        // carried distance read the 0-init prologue value without
        // consuming a token.
        let operands = &operands[f.first as usize..f.end as usize];
        for (arg, o) in self.args.iter_mut().zip(operands) {
            let d = u64::from(o.distance);
            if i < d {
                *arg = 0;
                continue;
            }
            match self.fifos[o.edge as usize].pop_front() {
                Some((it, v, delivered)) => {
                    debug_assert_eq!(it, i - d, "fifo order");
                    self.token_wait[t] += cycle - delivered;
                    *arg = v;
                }
                None => {
                    return Err(EngineError::TokenNotReady {
                        edge: EdgeId::from_index(o.edge as usize),
                        cycle,
                    });
                }
            }
        }
        let node = NodeId::from_index(f.node as usize);
        let rv = self.reference.value(node, i);
        let mut v = if f.op == Opcode::Load {
            rv
        } else {
            functional::eval_public(f.op, &self.args[..operands.len()])
        };
        // Seeded SEU: flip one bit of the produced value. The flip is pure
        // in (plan seed, tile, cycle), so the whole recovery trace replays
        // under the same plan.
        let mut injected = false;
        if let Some(plan) = self.faults {
            if let Some(bit) = plan.upset(f.tile, self.mapping.tile_level(f.tile), cycle) {
                v ^= 1i64 << bit;
                injected = true;
                self.upsets_injected += 1;
            }
        }
        if v != rv {
            if !injected {
                return Err(EngineError::ValueMismatch { node, iteration: i });
            }
            // The checker caught the upset at the firing: roll the
            // iteration back and re-execute. The pipeline refills from
            // this iteration, so the recovery costs one makespan; the
            // re-executed value is the reference value by definition.
            self.rollbacks += 1;
            self.recovery_cycles += self.makespan;
            v = rv;
        }
        self.values[f.slot + (i & self.mask) as usize] = v;
        self.ops_executed += 1;
        if self.detail {
            // One virtual-time record per firing, laned by tile, for
            // timeline replay in Perfetto.
            iced_trace::complete(
                Phase::Sim,
                &f.tile.to_string(),
                self.dfg.node(node).label(),
                cycle,
                f.rate,
                &[("iter", i.into())],
            );
        }
        Ok(())
    }
}

/// An entry of an edge's FIFO: (iteration, value, base cycle the token
/// landed).
type Token = (u64, i64, u64);

/// The machine's timing state, borrowed: everything an all-live period
/// reads apart from values.
#[derive(Clone, Copy)]
struct Timing<'s> {
    fifos: &'s [VecDeque<Token>],
    fu_free_at: &'s [u64],
    link_free_at: &'s [u64],
    link_cover_until: &'s [u64],
}

impl<'s> Timing<'s> {
    /// Every FIFO entry, FIFO by FIFO, relative to the start of period
    /// `k`: `(k − iteration, k·II − delivered)`.
    fn tokens(self, k: u64, ii: u64) -> impl Iterator<Item = (u64, u64)> + 's {
        let start = k * ii;
        self.fifos
            .iter()
            .flatten()
            .map(move |&(it, _, delivered)| (k.wrapping_sub(it), start.wrapping_sub(delivered)))
    }

    /// `fu_free_at`, `link_free_at` and `link_cover_until` as cycles past
    /// the start of period `k`. Every event of the period starts at or
    /// after it, so a resource free by then reads 0 however long ago it
    /// was freed.
    fn resources(self, k: u64, ii: u64) -> impl Iterator<Item = u64> + 's {
        let start = k * ii;
        self.fu_free_at
            .iter()
            .chain(self.link_free_at)
            .chain(self.link_cover_until)
            .map(move |&c| c.saturating_sub(start))
    }
}

/// A [`Timing`] recorded at a period boundary, relative to its start.
#[derive(Debug, Default, PartialEq, Eq)]
struct Boundary {
    /// Entries per FIFO.
    lens: Vec<usize>,
    tokens: Vec<(u64, u64)>,
    resources: Vec<u64>,
}

impl Boundary {
    fn capture(&mut self, now: Timing<'_>, k: u64, ii: u64) {
        self.lens.clear();
        self.lens.extend(now.fifos.iter().map(VecDeque::len));
        self.tokens.clear();
        self.tokens.extend(now.tokens(k, ii));
        self.resources.clear();
        self.resources.extend(now.resources(k, ii));
    }
}

/// Whether the timing state `now` at the start of period `k` is `prev`,
/// the state recorded at the start of period `k − 1`, one period on: the
/// steady-state skip's only license to shorten the run.
fn repeats(prev: &Boundary, now: Timing<'_>, k: u64, ii: u64) -> bool {
    prev.lens.len() == now.fifos.len()
        && prev.lens.iter().zip(now.fifos).all(|(&n, q)| n == q.len())
        && prev.tokens.iter().copied().eq(now.tokens(k, ii))
        && prev.resources.iter().copied().eq(now.resources(k, ii))
}

/// Steady-state detection state across consecutive all-live boundaries.
#[derive(Debug, Default)]
struct Probe {
    /// The relative timing state at the previous boundary.
    boundary: Boundary,
    /// Counters at the previous boundary, the verified period's start.
    fu_busy: Vec<u64>,
    link_busy: Vec<u64>,
    token_wait: Vec<u64>,
    ops_executed: u64,
    /// Whether `boundary` and the counters hold the previous boundary.
    armed: bool,
}

/// What the run does at an all-live boundary.
enum Probing {
    /// Step this period and compare again at the next boundary.
    Continue,
    /// Step every remaining period.
    Stop,
    /// The verified period repeats this many more times: finish as the
    /// run that many periods shorter.
    Skip(u64),
}

/// End-of-run trace counters, shared by the compiled engine and the naive
/// oracle so both emit the exact same observability surface.
pub(crate) fn emit_run_counters(
    mapping: &Mapping,
    horizon: u64,
    ops_executed: u64,
    fu_busy: &[u64],
    link_busy: &[u64],
    token_wait: &[u64],
) {
    let cfg = mapping.config();
    iced_trace::counter(Phase::Sim, "cycles", horizon);
    iced_trace::counter(Phase::Sim, "ops_executed", ops_executed);
    iced_trace::counter(Phase::Sim, "fu_busy_cycles", fu_busy.iter().sum());
    iced_trace::counter(Phase::Sim, "link_busy_cycles", link_busy.iter().sum());
    iced_trace::counter(Phase::Sim, "token_wait_cycles", token_wait.iter().sum());
    // Per-tile activity: one counter triple per tile that hosted work
    // (stall = cycles the tile's FU sat idle during the run).
    let mut hosts = vec![false; cfg.tile_count()];
    for p in mapping.placements() {
        hosts[p.tile.index()] = true;
    }
    for tile in cfg.tiles() {
        let t = tile.index();
        if !hosts[t] {
            continue;
        }
        iced_trace::counter(Phase::Sim, &format!("{tile}.fu_busy"), fu_busy[t]);
        iced_trace::counter(Phase::Sim, &format!("{tile}.stall"), horizon - fu_busy[t]);
        iced_trace::counter(Phase::Sim, &format!("{tile}.token_wait"), token_wait[t]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::CgraConfig;
    use iced_kernels::{Kernel, UnrollFactor};
    use iced_mapper::{map_baseline, map_dvfs_aware, relax_islands};

    #[test]
    fn engine_error_messages_name_the_culprit() {
        let cfg = CgraConfig::iced_prototype();
        let tile = cfg.tile_at(1, 2);
        let edge = iced_dfg::EdgeId::from_index(3);
        let node = {
            let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
            dfg.node_ids().nth(2).expect("fir has nodes")
        };
        // Every variant's Display must name the resource it concerns and
        // the cycle/iteration it happened at, so a failure is actionable
        // without re-running under a debugger.
        let cases: [(EngineError, [String; 2]); 5] = [
            (
                EngineError::TokenNotReady { edge, cycle: 17 },
                [edge.to_string(), "cycle 17".to_string()],
            ),
            (
                EngineError::FuCollision { tile, cycle: 23 },
                [tile.to_string(), "cycle 23".to_string()],
            ),
            (
                EngineError::LinkCollision { tile, cycle: 29 },
                [tile.to_string(), "cycle 29".to_string()],
            ),
            (
                EngineError::ValueMismatch { node, iteration: 7 },
                [node.to_string(), "iteration 7".to_string()],
            ),
            (
                EngineError::KernelMismatch {
                    nodes: 12,
                    placements: 31,
                },
                ["12 nodes".to_string(), "31 placements".to_string()],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in &needles {
                assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
            }
            // Root causes: no chained source, ever.
            assert!(err.source().is_none(), "{msg:?} has a source");
        }
    }

    #[test]
    fn engine_runs_the_whole_suite_cleanly() {
        let cfg = CgraConfig::iced_prototype();
        for k in Kernel::STANDALONE {
            let dfg = k.dfg(UnrollFactor::X1);
            for mapping in [
                map_baseline(&dfg, &cfg).unwrap(),
                map_dvfs_aware(&dfg, &cfg).unwrap(),
            ] {
                let r = run(&dfg, &mapping, 12, 99).unwrap_or_else(|e| panic!("{}: {e}", k.name()));
                assert_eq!(r.ops_executed, 12 * dfg.node_count() as u64, "{}", k.name());
                assert!(r.fifo_peak >= 1);
            }
        }
    }

    #[test]
    fn engine_activity_matches_analytic_stats_in_steady_state() {
        let cfg = CgraConfig::iced_prototype();
        let dfg = Kernel::Conv.dfg(UnrollFactor::X1);
        let mapping = map_baseline(&dfg, &cfg).unwrap();
        let iters = 64u64;
        let r = run(&dfg, &mapping, iters, 5).unwrap();
        // Per tile: FU busy cycles ≈ iterations × (busy cycles per period).
        let stats = crate::FabricStats::analyze(&mapping);
        for (t, s) in stats.tiles().iter().enumerate() {
            let expected = s.fu_windows as u64 * iters;
            let measured = r.fu_busy[t];
            // The prologue/epilogue adds at most one makespan of slack.
            assert!(
                measured >= expected && measured <= expected + mapping.makespan(),
                "tile {t}: measured {measured}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn tampering_with_the_schedule_is_caught() {
        // Run with zero iterations: trivially clean.
        let cfg = CgraConfig::iced_prototype();
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let mapping = map_baseline(&dfg, &cfg).unwrap();
        let r = run(&dfg, &mapping, 0, 1).unwrap();
        assert_eq!(r.ops_executed, 0);
    }

    #[test]
    fn dvfs_mappings_stretch_fu_occupancy() {
        let cfg = CgraConfig::iced_prototype();
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let mapping = map_dvfs_aware(&dfg, &cfg).unwrap();
        let iters = 16u64;
        let r = run(&dfg, &mapping, iters, 3).unwrap();
        // Each op occupies `rate` base cycles per firing; totals match.
        let expected: u64 = mapping
            .placements()
            .iter()
            .map(|p| p.rate as u64 * iters)
            .sum();
        let measured: u64 = r.fu_busy.iter().sum();
        assert_eq!(measured, expected);
    }

    #[test]
    fn fifo_capacity_bound_matches_observed_peak() {
        // The analytic per-edge bound from `edge_fifo_depths` is exactly
        // what the running machine observes once the pipeline has filled
        // and drained (iterations comfortably past depth + distance).
        let cfg = CgraConfig::iced_prototype();
        for k in Kernel::STANDALONE {
            let dfg = k.dfg(UnrollFactor::X1);
            for mapping in [
                map_baseline(&dfg, &cfg).unwrap(),
                map_dvfs_aware(&dfg, &cfg).unwrap(),
            ] {
                let bound = crate::validate::edge_fifo_depths(&dfg, &mapping)
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                let r = run(&dfg, &mapping, 48, 11).unwrap();
                assert_eq!(
                    r.fifo_peak as u64,
                    bound,
                    "{}: observed peak vs analytic bound",
                    k.name()
                );
            }
        }
    }

    /// A hand-built timing state: two FIFOs, three tiles.
    #[derive(Clone)]
    struct State {
        fifos: Vec<VecDeque<Token>>,
        fu_free_at: Vec<u64>,
        link_free_at: Vec<u64>,
        link_cover_until: Vec<u64>,
    }

    impl State {
        fn timing(&self) -> Timing<'_> {
            Timing {
                fifos: &self.fifos,
                fu_free_at: &self.fu_free_at,
                link_free_at: &self.link_free_at,
                link_cover_until: &self.link_cover_until,
            }
        }

        /// The state one period of `ii` cycles on, with fresh values.
        /// Resources already free stay wherever they were freed.
        fn next(&self, ii: u64) -> State {
            let mut s = self.clone();
            for q in &mut s.fifos {
                for (it, v, delivered) in q.iter_mut() {
                    *it += 1;
                    *v = v.wrapping_mul(31).wrapping_add(7);
                    *delivered += ii;
                }
            }
            for c in s
                .fu_free_at
                .iter_mut()
                .chain(&mut s.link_free_at)
                .chain(&mut s.link_cover_until)
            {
                if *c > 7 * ii {
                    *c += ii;
                }
            }
            s
        }
    }

    #[test]
    fn repeats_detects_any_single_change_of_the_relative_state() {
        // Boundary 7 of an II-4 schedule starts at cycle 28; boundary 8
        // at 32. Resources at or below 28 are free at either start.
        let ii = 4;
        let at7 = State {
            fifos: vec![
                VecDeque::from([(5, 11, 25), (6, -3, 27)]),
                VecDeque::from([(6, 40, 26)]),
            ],
            fu_free_at: vec![30, 0, 29],
            link_free_at: vec![0, 31, 0, 0, 12, 0, 0, 0, 0, 0, 30, 0],
            link_cover_until: vec![29, 3, 31],
        };
        let mut prev = Boundary::default();
        prev.capture(at7.timing(), 7, ii);
        let at8 = at7.next(ii);
        assert!(repeats(&prev, at8.timing(), 8, ii), "one period on repeats");
        // The same state read against the wrong period start does not.
        assert!(!repeats(&prev, at7.timing(), 8, ii));
        assert!(!repeats(&prev, at8.timing(), 9, ii));

        let mut cases: Vec<(&str, State)> = Vec::new();
        let mut s = at8.clone();
        s.fifos[0][1].0 += 1;
        cases.push(("a token's iteration", s));
        let mut s = at8.clone();
        s.fifos[1][0].2 -= 1;
        cases.push(("a token's delivery cycle", s));
        let mut s = at8.clone();
        let moved = s.fifos[0].pop_back().expect("two tokens");
        s.fifos[1].push_front(moved);
        cases.push(("which FIFO holds a token", s));
        let mut s = at8.clone();
        s.fifos[1].clear();
        cases.push(("a FIFO's occupancy", s));
        let mut s = at8.clone();
        s.fu_free_at[2] += 1;
        cases.push(("an fu_free_at", s));
        let mut s = at8.clone();
        s.fu_free_at[1] = 33;
        cases.push(("an fu_free_at becoming busy", s));
        let mut s = at8.clone();
        s.link_free_at[10] -= 1;
        cases.push(("a link_free_at", s));
        let mut s = at8.clone();
        s.link_cover_until[0] += 1;
        cases.push(("a link_cover_until", s));
        for (what, state) in &cases {
            assert!(
                !repeats(&prev, state.timing(), 8, ii),
                "changing {what} must break the repetition"
            );
        }
        // Values are not timing state: they never break a repetition.
        let mut s = at8.clone();
        s.fifos[0][0].1 ^= 1;
        assert!(repeats(&prev, s.timing(), 8, ii));
    }

    #[test]
    fn long_runs_step_only_prologue_verified_period_and_epilogue() {
        // On every suite schedule the state repeats at the first chance:
        // the machine steps the `max_shift` prologue periods, the one
        // verified period, the last all-live period and the `max_shift`
        // epilogue periods of the shorter run, whatever the run length,
        // and the reference stream stops near the start of the run.
        let cfg = CgraConfig::iced_prototype();
        for k in Kernel::STANDALONE {
            let dfg = k.dfg(UnrollFactor::X1);
            let mapping = relax_islands(&dfg, &map_dvfs_aware(&dfg, &cfg).unwrap());
            for iters in [20_000, 10_000_000] {
                let (program, mut m) = Machine::new(&dfg, &mapping, iters, 5, None);
                let max_shift = program.max_shift;
                let skipped = m.run(&program).unwrap();
                let stepped = max_shift + iters - skipped;
                assert_eq!(stepped, 2 * max_shift + 2, "{} at {iters}", k.name());
                assert!(
                    m.reference.frames_computed() < 3 * max_shift + 3,
                    "{} at {iters}: {} reference frames",
                    k.name(),
                    m.reference.frames_computed()
                );
            }
            assert_eq!(
                run(&dfg, &mapping, 20_000, 5).unwrap(),
                full_loop(&dfg, &mapping, 20_000, 5),
                "{}",
                k.name()
            );
        }
    }

    #[test]
    fn reports_do_not_depend_on_the_seed() {
        // The seed only feeds the value compare: no check and no counter
        // reads a value, which is what lets a skipped run finish as a
        // shorter one whose tail compares other reference frames.
        let cfg = CgraConfig::iced_prototype();
        for k in Kernel::STANDALONE {
            let dfg = k.dfg(UnrollFactor::X1);
            for mapping in [
                map_baseline(&dfg, &cfg).unwrap(),
                relax_islands(&dfg, &map_dvfs_aware(&dfg, &cfg).unwrap()),
            ] {
                assert_eq!(
                    run(&dfg, &mapping, 300, 1).unwrap(),
                    run(&dfg, &mapping, 300, 0xdead_beef).unwrap(),
                    "{} ii {}",
                    k.name(),
                    mapping.ii()
                );
            }
        }
    }

    #[test]
    fn errors_after_the_skip_read_in_the_full_runs_coordinates() {
        let tile = CgraConfig::iced_prototype().tile_at(1, 2);
        let edge = EdgeId::from_index(3);
        let node = NodeId::from_index(2);
        let kernel = EngineError::KernelMismatch {
            nodes: 12,
            placements: 31,
        };
        // 100 left-out periods of II 3: cycles move by 300, iterations
        // by 100, and a mismatch of arities names no time at all.
        let cases = [
            (
                EngineError::TokenNotReady { edge, cycle: 17 },
                EngineError::TokenNotReady { edge, cycle: 317 },
            ),
            (
                EngineError::FuCollision { tile, cycle: 23 },
                EngineError::FuCollision { tile, cycle: 323 },
            ),
            (
                EngineError::LinkCollision { tile, cycle: 29 },
                EngineError::LinkCollision { tile, cycle: 329 },
            ),
            (
                EngineError::ValueMismatch { node, iteration: 7 },
                EngineError::ValueMismatch {
                    node,
                    iteration: 107,
                },
            ),
            (kernel.clone(), kernel),
        ];
        for (short, full) in cases {
            assert_eq!(short.clone().shifted(0, 3), short, "no skip, no shift");
            assert_eq!(short.shifted(100, 3), full);
        }
    }

    /// The report of a run that steps every period: the fault path.
    fn full_loop(dfg: &Dfg, mapping: &Mapping, iters: u64, seed: u64) -> EngineReport {
        let plan = FaultPlan::empty();
        let (program, mut m) = Machine::new(dfg, mapping, iters, seed, Some(&plan));
        assert_eq!(m.run(&program), Ok(0), "the fault path skips nothing");
        run_with_faults(dfg, mapping, iters, seed, &plan)
            .unwrap()
            .report
    }
}
