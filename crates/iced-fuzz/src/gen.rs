//! Structure-aware, seeded DFG generation.
//!
//! The generator grows the shape family of the random-DFG proptests in
//! `iced-dfg` into a corpus generator: every kernel is derived entirely
//! from a `u64` seed, so corpora are reproducible across machines, thread
//! counts, and runs. Structure is controlled by [`GenOptions`]:
//!
//! * **op mix** — weighted opcode draws; memory (`Load`/`Store`) and
//!   multiplier (`Mul`/`Div`) pressure are first-class knobs because they
//!   drive the mapper's MemMII/MulMII bounds;
//! * **recurrences** — a carried accumulator ring with configurable
//!   distance plus extra random carried edges (bounded, so cycle
//!   enumeration stays cheap);
//! * **control flow** — [`CfShape`]s lowered through the `iced-dfg`
//!   predication pass (triangles, diamonds, nested branches, early exits)
//!   or the loop-nest flattener (perfect/imperfect nests);
//! * **unroll** — an optional final ×2 unroll.

use iced_dfg::transform::{self, CfgBuilder, NestLink, Terminator, UnrollOptions};
use iced_dfg::{Dfg, DfgBuilder, DfgError, EdgeKind, NodeId, Opcode};

/// Deterministic SplitMix64 stream (the same generator the bench and
/// proptest layers use).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Control-flow shape of a generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfShape {
    /// Pure dataflow: accumulator ring + feeders + forward extras.
    Straight,
    /// Single if-triangle lowered through partial predication.
    Triangle,
    /// Single if-diamond.
    Diamond,
    /// A diamond nested inside one arm of an outer branch.
    NestedBranch,
    /// A branch whose arms only reconverge at the loop-body exit (early
    /// exit / tail split).
    EarlyExit,
    /// A perfect two-level loop nest flattened by its inner trip count.
    PerfectNest,
    /// An imperfect two-level nest: prologue/epilogue around the inner
    /// copies, inner recurrences redistributed to outer-carried edges.
    ImperfectNest,
}

impl CfShape {
    /// Every shape, in taxonomy order.
    pub const ALL: [CfShape; 7] = [
        CfShape::Straight,
        CfShape::Triangle,
        CfShape::Diamond,
        CfShape::NestedBranch,
        CfShape::EarlyExit,
        CfShape::PerfectNest,
        CfShape::ImperfectNest,
    ];

    /// Stable lower-case name (bench reports and repro headers).
    pub fn name(self) -> &'static str {
        match self {
            CfShape::Straight => "straight",
            CfShape::Triangle => "triangle",
            CfShape::Diamond => "diamond",
            CfShape::NestedBranch => "nested_branch",
            CfShape::EarlyExit => "early_exit",
            CfShape::PerfectNest => "perfect_nest",
            CfShape::ImperfectNest => "imperfect_nest",
        }
    }
}

/// Options controlling [`generate`].
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Minimum straight-line node count (before control-flow expansion).
    pub min_nodes: usize,
    /// Maximum straight-line node count.
    pub max_nodes: usize,
    /// Maximum loop-carried distance drawn for recurrences.
    pub max_distance: u32,
    /// Relative weight of memory opcodes (`Load`/`Store`) in the op mix;
    /// plain ALU opcodes each have weight 1.
    pub mem_weight: u32,
    /// Relative weight of multiplier opcodes (`Mul`/`Div`).
    pub mul_weight: u32,
    /// Maximum extra carried edges beyond the accumulator ring (bounds
    /// recurrence-cycle enumeration).
    pub max_extra_carries: usize,
    /// Control-flow shapes the generator may draw from; must be non-empty.
    pub shapes: Vec<CfShape>,
    /// Allow a final ×2 unroll step (drawn with probability ½).
    pub unroll: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            min_nodes: 3,
            max_nodes: 18,
            max_distance: 4,
            mem_weight: 2,
            mul_weight: 2,
            max_extra_carries: 3,
            shapes: CfShape::ALL.to_vec(),
            unroll: true,
        }
    }
}

impl GenOptions {
    /// A small-kernel profile whose graphs stay inside the exact backend's
    /// quick certification range.
    pub fn small() -> Self {
        GenOptions {
            min_nodes: 2,
            max_nodes: 8,
            unroll: false,
            ..GenOptions::default()
        }
    }
}

/// ALU opcodes with unit weight in the mix.
const ALU_OPS: [Opcode; 9] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Shift,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Max,
    Opcode::Min,
    Opcode::Mov,
];

fn draw_op(rng: &mut Rng, opts: &GenOptions) -> Opcode {
    let alu = ALU_OPS.len() as u64;
    let mem = 2 * u64::from(opts.mem_weight);
    let mul = 2 * u64::from(opts.mul_weight);
    let total = alu + mem + mul;
    let d = rng.below(total.max(1));
    if d < alu {
        ALU_OPS[d as usize]
    } else if d < alu + mem {
        if (d - alu).is_multiple_of(2) {
            Opcode::Load
        } else {
            Opcode::Store
        }
    } else if (d - alu - mem).is_multiple_of(2) {
        Opcode::Mul
    } else {
        Opcode::Div
    }
}

/// Generates the seed's kernel.
///
/// Same `(seed, opts)` → identical graph, bit for bit. The result is
/// always structurally valid when `Ok`; construction failures (a drawn
/// shape the transforms reject, e.g. an unrollable carried pattern) are
/// returned as the typed [`DfgError`] so harnesses can count them as a
/// taxonomy class rather than silently retrying.
///
/// # Errors
///
/// Propagates [`DfgError`] from graph construction or the control-flow
/// transforms; never panics for any seed.
pub fn generate(seed: u64, opts: &GenOptions) -> Result<Dfg, DfgError> {
    let mut rng = Rng::new(seed ^ 0xD1F7_5EED_0000_0001);
    let shape = if opts.shapes.is_empty() {
        CfShape::Straight
    } else {
        opts.shapes[rng.below(opts.shapes.len() as u64) as usize]
    };
    let name = format!("fuzz_{:016x}_{}", seed, shape.name());
    let dfg = match shape {
        CfShape::Straight => straight(&name, &mut rng, opts)?,
        CfShape::Triangle | CfShape::Diamond | CfShape::NestedBranch | CfShape::EarlyExit => {
            branchy(&name, &mut rng, opts, shape)?
        }
        CfShape::PerfectNest => {
            let inner = straight(&name, &mut rng, &shrunk(opts))?;
            let trip = rng.range(2, 3) as u32;
            transform::flatten_perfect(&inner, trip)?
        }
        CfShape::ImperfectNest => imperfect(&name, &mut rng, opts)?,
    };
    if opts.unroll && rng.chance(1, 2) {
        transform::unroll(&dfg, &UnrollOptions::new(2))
    } else {
        Ok(dfg)
    }
}

/// Halves the node budget for nest components so flattened graphs stay in
/// the configured range.
fn shrunk(opts: &GenOptions) -> GenOptions {
    GenOptions {
        min_nodes: (opts.min_nodes / 2).max(2),
        max_nodes: (opts.max_nodes / 3).max(3),
        max_extra_carries: 1,
        unroll: false,
        ..opts.clone()
    }
}

/// Pure-dataflow kernel: a carried accumulator ring, weighted-op feeders,
/// forward extras, and a bounded number of extra recurrences.
fn straight(name: &str, rng: &mut Rng, opts: &GenOptions) -> Result<Dfg, DfgError> {
    let n = rng.range(
        opts.min_nodes as u64,
        opts.max_nodes.max(opts.min_nodes) as u64,
    ) as usize;
    let ring = rng.range(1, n.min(5) as u64) as usize;
    let mut b = DfgBuilder::new(name);
    let ring_ids: Vec<NodeId> = (0..ring)
        .map(|i| {
            let op = if i == 0 {
                Opcode::Phi
            } else {
                draw_op(rng, opts)
            };
            b.node(op, format!("r{i}"))
        })
        .collect();
    b.data_chain(&ring_ids)?;
    let dist = rng.range(1, u64::from(opts.max_distance.max(1))) as u32;
    b.edge(
        ring_ids[ring - 1],
        ring_ids[0],
        EdgeKind::loop_carried(dist),
    )?;
    let mut all = ring_ids.clone();
    // Feeders: each points at a ring node or an earlier feeder target,
    // keeping the data subgraph acyclic (nothing ever points back at a
    // feeder from the ring).
    for i in ring..n {
        let op = draw_op(rng, opts);
        let id = b.node(op, format!("f{i}"));
        let tgt = all[rng.below(all.len().min(ring + i) as u64) as usize];
        b.edge_once(id, tgt, EdgeKind::Data)?;
        all.push(id);
    }
    // Extra data edges from feeders to strictly earlier nodes. Feeder
    // edges always flow newer→older (into the ring eventually), and ring
    // nodes never point back out, so any `d < s` edge keeps the graph
    // acyclic by construction.
    let extras = rng.below((n as u64) + 1);
    for _ in 0..extras {
        let s = rng.below(all.len() as u64) as usize;
        let d = rng.below(all.len() as u64) as usize;
        if s >= ring && d < s {
            b.edge_once(all[s], all[d], EdgeKind::Data)?;
        }
    }
    // Extra recurrences: ring-interior or feeder→ring carried edges.
    let carries = rng.below(opts.max_extra_carries as u64 + 1);
    for _ in 0..carries {
        let s = all[rng.below(all.len() as u64) as usize];
        let d = all[rng.below(ring as u64) as usize];
        let dist = rng.range(1, u64::from(opts.max_distance.max(1))) as u32;
        b.edge_once(s, d, EdgeKind::loop_carried(dist))?;
    }
    b.finish()
}

/// Variable-pool helper for CFG generation: picks an argument name, biased
/// towards already-defined values over fresh live-ins.
fn arg<'p>(rng: &mut Rng, pool: &[&'p str], live: &'p [&'p str]) -> &'p str {
    if !pool.is_empty() && rng.chance(3, 4) {
        pool[rng.below(pool.len() as u64) as usize]
    } else {
        live[rng.below(live.len() as u64) as usize]
    }
}

/// Kernels with real control flow, lowered through partial predication.
fn branchy(name: &str, rng: &mut Rng, opts: &GenOptions, shape: CfShape) -> Result<Dfg, DfgError> {
    const LIVE: [&str; 4] = ["in0", "in1", "coef", "acc"];
    const VARS: [&str; 6] = ["x", "y", "z", "w", "u", "v"];
    let mut cfg = CfgBuilder::new(name);
    let entry = cfg.block();
    // Entry: mix in the carried accumulator (so the loop_carry below always
    // has a live-in Phi target), then a couple of computes and the
    // predicate.
    let mut defined: Vec<&str> = Vec::new();
    cfg.inst(entry, "mix", draw_op(rng, opts), &["acc", "in0"]);
    defined.push("mix");
    let n_entry = rng.range(1, 3) as usize;
    for &dest in &VARS[..n_entry] {
        let op = draw_op(rng, opts);
        let a0 = arg(rng, &defined, &LIVE);
        let a1 = arg(rng, &defined, &LIVE);
        cfg.inst(entry, dest, op, &[a0, a1]);
        if !defined.contains(&dest) {
            defined.push(dest);
        }
    }
    cfg.inst(entry, "p", Opcode::Cmp, &[arg(rng, &defined, &LIVE), "in1"]);

    // Emits one weighted-op instruction into `blk`, writing `dest`.
    let fill = |cfg: &mut CfgBuilder, blk, dest: &str, rng: &mut Rng, defined: &[&str]| {
        let op = draw_op(rng, opts);
        let a0 = arg(rng, defined, &LIVE);
        let a1 = arg(rng, defined, &LIVE);
        cfg.inst(blk, dest, op, &[a0, a1]);
    };

    match shape {
        CfShape::Triangle => {
            let t = cfg.block();
            let m = cfg.block();
            cfg.terminate(entry, Terminator::branch("p", t, m));
            fill(&mut cfg, t, "y", rng, &defined);
            cfg.terminate(t, Terminator::Jump(m));
            cfg.inst(m, "st", Opcode::Store, &["y"]);
            cfg.terminate(m, Terminator::Return);
        }
        CfShape::Diamond => {
            let t = cfg.block();
            let e = cfg.block();
            let m = cfg.block();
            cfg.terminate(entry, Terminator::branch("p", t, e));
            fill(&mut cfg, t, "y", rng, &defined);
            cfg.terminate(t, Terminator::Jump(m));
            fill(&mut cfg, e, "y", rng, &defined);
            cfg.terminate(e, Terminator::Jump(m));
            cfg.inst(m, "st", Opcode::Store, &["y"]);
            cfg.terminate(m, Terminator::Return);
        }
        CfShape::NestedBranch => {
            let outer_t = cfg.block();
            let inner_t = cfg.block();
            let inner_e = cfg.block();
            let inner_m = cfg.block();
            let outer_e = cfg.block();
            let outer_m = cfg.block();
            cfg.inst(
                entry,
                "q",
                Opcode::Cmp,
                &[arg(rng, &defined, &LIVE), "coef"],
            );
            cfg.terminate(entry, Terminator::branch("p", outer_t, outer_e));
            cfg.terminate(outer_t, Terminator::branch("q", inner_t, inner_e));
            fill(&mut cfg, inner_t, "y", rng, &defined);
            cfg.terminate(inner_t, Terminator::Jump(inner_m));
            fill(&mut cfg, inner_e, "y", rng, &defined);
            cfg.terminate(inner_e, Terminator::Jump(inner_m));
            cfg.terminate(inner_m, Terminator::Jump(outer_m));
            fill(&mut cfg, outer_e, "y", rng, &defined);
            cfg.terminate(outer_e, Terminator::Jump(outer_m));
            cfg.inst(outer_m, "st", Opcode::Store, &["y"]);
            cfg.terminate(outer_m, Terminator::Return);
        }
        CfShape::EarlyExit => {
            let bail = cfg.block();
            let rest = cfg.block();
            cfg.terminate(entry, Terminator::branch("p", bail, rest));
            cfg.inst(bail, "st", Opcode::Store, &[arg(rng, &defined, &LIVE)]);
            cfg.terminate(bail, Terminator::Return);
            fill(&mut cfg, rest, "y", rng, &defined);
            fill(&mut cfg, rest, "y2", rng, &defined);
            cfg.inst(rest, "st", Opcode::Store, &["y2"]);
            cfg.terminate(rest, Terminator::Return);
        }
        _ => unreachable!("branchy only handles branch shapes"),
    }
    // A recurrence through the predicated body with a drawn distance.
    let dist = rng.range(1, u64::from(opts.max_distance.max(1))) as u32;
    cfg.loop_carry("y", "acc", dist);
    cfg.finish()?.predicate()
}

/// Imperfect two-level nest: prologue/epilogue DFG around `trip` inner
/// copies with glue links.
fn imperfect(name: &str, rng: &mut Rng, opts: &GenOptions) -> Result<Dfg, DfgError> {
    // Outer level: base load → (epilogue add ← carried total phi) → store.
    let mut ob = DfgBuilder::new(format!("{name}_outer"));
    let base = ob.node(Opcode::Load, "base");
    let total = ob.node(Opcode::Phi, "total");
    let upd = ob.node(Opcode::Add, "upd");
    let st = ob.node(Opcode::Store, "out");
    ob.data(total, upd)?;
    ob.data(upd, st)?;
    ob.edge(
        upd,
        total,
        EdgeKind::loop_carried(rng.range(1, u64::from(opts.max_distance.max(1))) as u32),
    )?;
    let outer = ob.finish()?;
    let inner = straight(&format!("{name}_inner"), rng, &shrunk(opts))?;
    let trip = rng.range(2, 3) as u32;
    // Glue: base feeds the first (or every) inner ring head; the inner
    // ring's last node feeds the epilogue update.
    let inner_head = NodeId::from_index(0);
    let inner_tail = NodeId::from_index(inner.node_count() - 1);
    let prologue = if rng.chance(1, 2) {
        NestLink::PrologueToAll {
            outer: base,
            inner: inner_head,
        }
    } else {
        NestLink::PrologueToFirst {
            outer: base,
            inner: inner_head,
        }
    };
    let epilogue = if rng.chance(1, 2) {
        NestLink::LastToEpilogue {
            inner: inner_tail,
            outer: upd,
        }
    } else {
        NestLink::AllToEpilogue {
            inner: inner_tail,
            outer: upd,
        }
    };
    transform::flatten_nest(&outer, &inner, trip, &[prologue, epilogue])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph() {
        let opts = GenOptions::default();
        for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let a = generate(seed, &opts).unwrap();
            let b = generate(seed, &opts).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_generate_valid_graphs() {
        let opts = GenOptions::default();
        for seed in 0..200u64 {
            let g = generate(seed, &opts).expect("generator is total over seeds");
            g.validate().unwrap();
            assert!(g.node_count() >= 1);
        }
    }

    #[test]
    fn every_shape_is_reachable() {
        let opts = GenOptions::default();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..300u64 {
            let g = generate(seed, &opts).unwrap();
            for shape in CfShape::ALL {
                if g.name().contains(shape.name()) {
                    seen.insert(shape.name());
                }
            }
        }
        // nested_branch contains no other shape name as a substring except
        // none; early_exit etc. are distinct tokens.
        assert!(seen.len() >= 6, "only shapes {seen:?} reached in 300 seeds");
    }

    #[test]
    fn single_shape_option_is_respected() {
        for shape in CfShape::ALL {
            let opts = GenOptions {
                shapes: vec![shape],
                unroll: false,
                ..GenOptions::default()
            };
            let g = generate(42, &opts).unwrap();
            assert!(
                g.name().contains(shape.name()),
                "{} missing from {}",
                shape.name(),
                g.name()
            );
        }
    }

    #[test]
    fn mem_pressure_knob_changes_op_mix() {
        let lean = GenOptions {
            mem_weight: 0,
            shapes: vec![CfShape::Straight],
            ..GenOptions::default()
        };
        let heavy = GenOptions {
            mem_weight: 20,
            shapes: vec![CfShape::Straight],
            ..GenOptions::default()
        };
        let count_mem = |opts: &GenOptions| -> usize {
            (0..50)
                .map(|s| {
                    let g = generate(s, opts).unwrap();
                    g.count_ops(|op| matches!(op, Opcode::Load | Opcode::Store))
                })
                .sum()
        };
        // Phi-ring heads aside, a 20× weight must dominate a 0 weight.
        assert!(count_mem(&heavy) > count_mem(&lean));
    }
}
