//! Functional (value-level) reference semantics.
//!
//! * [`interpret`] — the reference: a token-dataflow interpreter that
//!   evaluates the DFG iteration by iteration with well-defined integer
//!   semantics per opcode. Loads produce a pure pseudorandom stream
//!   (function of node id, iteration, and seed), so any two runs agree.
//! * [`ReferenceStream`] — the same frames, produced one iteration at a
//!   time in bounded memory.
//!
//! Neither reads a mapping. The value check *through* the mapping is the
//! cycle-stepped engine ([`crate::engine`]): it moves real tokens through
//! per-edge FIFOs at their scheduled cycles and compares every fired value
//! with a [`ReferenceStream`], so a schedule that reads a value before it
//! arrives, or computes a wrong one, fails there.
//!
//! Predication semantics: iterations `i < d` of a loop-carried input read
//! the initial value 0 — the paper's "output is invalid until the first
//! valid execution" prologue behaviour.

use std::marker::PhantomData;

use iced_dfg::{Dfg, Edge, NodeId, Opcode};

/// Value-level trace: `trace[iteration][node]`.
pub type Trace = Vec<Vec<i64>>;

/// Pure pseudorandom input stream for a load node (splitmix64-style).
fn load_value(node: NodeId, iteration: u64, seed: u64) -> i64 {
    let mut z = seed
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(node.index() as u64 + 1))
        .wrapping_add(iteration.wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    ((z ^ (z >> 31)) & 0xffff) as i64 - 0x8000
}

/// Evaluates one opcode over its ordered inputs.
#[inline]
fn eval(op: Opcode, inputs: &[i64]) -> i64 {
    let a = inputs.first().copied().unwrap_or(0);
    let b = inputs.get(1).copied().unwrap_or(0);
    match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 {
                a
            } else {
                a.wrapping_div(b)
            }
        }
        Opcode::Shift => a.wrapping_shl((b & 0xf) as u32),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Cmp => i64::from(a > b),
        Opcode::Select => {
            let c = inputs.get(2).copied().unwrap_or(0);
            if a != 0 {
                b
            } else {
                c
            }
        }
        Opcode::Max => a.max(b),
        Opcode::Min => a.min(b),
        Opcode::Mov | Opcode::Store => a,
        // A phi merges its (initial, loop-carried) inputs; after the
        // prologue the carried input dominates. Summing keeps it total and
        // deterministic for arbitrary in-degrees.
        Opcode::Phi => inputs.iter().copied().fold(0i64, i64::wrapping_add),
        Opcode::Load => unreachable!("loads are sourced from the input stream"),
        // `Opcode` is non_exhaustive; future opcodes default to pass-through.
        _ => a,
    }
}

/// Evaluates one opcode over ordered inputs — the engine's ALU. Exposed for
/// the cycle-stepped engine; see [`eval`] for the semantics table.
#[inline]
pub(crate) fn eval_public(op: Opcode, inputs: &[i64]) -> i64 {
    eval(op, inputs)
}

/// The in-edges of `node` in edge-id order: the operand order of [`eval`].
pub(crate) fn operand_edges(dfg: &Dfg, node: NodeId) -> Vec<&Edge> {
    let mut edges: Vec<_> = dfg.in_edges(node).collect();
    edges.sort_by_key(|e| e.id());
    edges
}

/// Gathers the ordered input values of `node` at `iteration` from `trace`.
fn gather(dfg: &Dfg, trace: &Trace, node: NodeId, iteration: u64) -> Vec<i64> {
    operand_edges(dfg, node)
        .iter()
        .map(|e| {
            let d = e.kind().distance() as u64;
            if iteration < d {
                0 // prologue: predicated-invalid values read as 0
            } else {
                trace[(iteration - d) as usize][e.src().index()]
            }
        })
        .collect()
}

/// Reference interpretation of `dfg` for `iterations` iterations.
pub fn interpret(dfg: &Dfg, iterations: u64, seed: u64) -> Trace {
    let order = dfg.topological_order();
    let mut trace: Trace = Vec::with_capacity(iterations as usize);
    for i in 0..iterations {
        trace.push(vec![0; dfg.node_count()]);
        for &node in &order {
            let v = if dfg.node(node).op() == Opcode::Load {
                load_value(node, i, seed)
            } else {
                let inputs = gather(dfg, &trace, node, i);
                eval(dfg.node(node).op(), &inputs)
            };
            trace[i as usize][node.index()] = v;
        }
    }
    trace
}

/// Streaming reference interpreter: the same iteration frames as
/// [`interpret`], produced one at a time into a fixed ring of recent frames.
///
/// The DFG is compiled once into a flat program: one step per node in
/// topological order, each holding its opcode and a range into one operand
/// table of `(source node, carried distance)` pairs in edge-id order (the
/// operand order [`interpret`] uses). Frames live in one frame-major ring,
/// and each frame is computed in place: a distance-0 operand reads the
/// current frame (its producer ran earlier in topological order), a carried
/// one reads an older frame.
///
/// The ring holds the deepest loop-carried distance of the graph (what the
/// interpreter itself must look back over) plus the caller's `lookback`
/// (how far behind the newest frame the caller may still read), rounded up
/// to a power of two so a frame's slot is a mask, not a division. Memory is
/// O(window × nodes) — independent of how many iterations are streamed.
/// The compiled engine uses this to check a billion-iteration run without
/// ever materialising a full trace. The stream never reads the machine's
/// state: it is the independent side of the engine's value check.
#[derive(Debug)]
pub struct ReferenceStream<'a> {
    /// One step per node, in topological order.
    program: Vec<RefStep>,
    /// Operands of every step, back to back.
    operands: Vec<RefOperand>,
    seed: u64,
    /// Nodes per frame.
    width: usize,
    /// Frame `i` is `ring[(i & mask)·width..][..width]` while
    /// `next − (mask + 1) ≤ i < next`.
    ring: Vec<i64>,
    mask: u64,
    /// Operand values of the step being evaluated, sized to the largest
    /// in-degree and written by index.
    args: Vec<i64>,
    next: u64,
    /// The frames borrow nothing, but the stream is tied to its graph.
    _dfg: PhantomData<&'a Dfg>,
}

/// One node of the reference program.
#[derive(Debug, Clone, Copy)]
struct RefStep {
    op: Opcode,
    node: u32,
    /// `operands[first..end]`.
    first: u32,
    end: u32,
}

/// One operand: the producing node and the edge's carried distance.
#[derive(Debug, Clone, Copy)]
struct RefOperand {
    src: u32,
    distance: u32,
}

impl<'a> ReferenceStream<'a> {
    /// Creates a stream over `dfg` whose frames stay readable for at least
    /// `lookback` iterations behind the newest one requested.
    pub fn new(dfg: &'a Dfg, seed: u64, lookback: u64) -> Self {
        let maxdist = dfg
            .edges()
            .map(|e| u64::from(e.kind().distance()))
            .max()
            .unwrap_or(0);
        let cap = (maxdist.max(lookback) + 1).next_power_of_two();
        let mut program = Vec::with_capacity(dfg.node_count());
        let mut operands = Vec::with_capacity(dfg.edge_count());
        for node in dfg.topological_order() {
            let first = operands.len() as u32;
            operands.extend(operand_edges(dfg, node).iter().map(|e| RefOperand {
                src: e.src().index() as u32,
                distance: e.kind().distance(),
            }));
            program.push(RefStep {
                op: dfg.node(node).op(),
                node: node.index() as u32,
                first,
                end: operands.len() as u32,
            });
        }
        let arity = program.iter().map(|s| s.end - s.first).max().unwrap_or(0);
        ReferenceStream {
            program,
            operands,
            seed,
            width: dfg.node_count(),
            ring: vec![0; cap as usize * dfg.node_count()],
            mask: cap - 1,
            args: vec![0; arity as usize],
            next: 0,
            _dfg: PhantomData,
        }
    }

    /// Reference value of `node` in `iteration`, computing frames forward
    /// as needed.
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is older than the stream's lookback window
    /// (its frame has been retired).
    #[inline]
    pub fn value(&mut self, node: NodeId, iteration: u64) -> i64 {
        self.frame(iteration)[node.index()]
    }

    /// The full frame of `iteration` (values indexed by dense node id).
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is older than the stream's lookback window.
    #[inline]
    pub fn frame(&mut self, iteration: u64) -> &[i64] {
        while self.next <= iteration {
            self.advance();
        }
        assert!(
            iteration + self.mask + 1 >= self.next,
            "reference frame {iteration} already retired (newest is {})",
            self.next - 1
        );
        let at = (iteration & self.mask) as usize * self.width;
        &self.ring[at..at + self.width]
    }

    /// How many frames the stream has computed.
    #[cfg(test)]
    pub(crate) fn frames_computed(&self) -> u64 {
        self.next
    }

    /// Computes the next frame in place, over the oldest one.
    fn advance(&mut self) {
        let i = self.next;
        let Self {
            program,
            operands,
            seed,
            width,
            ring,
            mask,
            args,
            ..
        } = self;
        let frame = (i & *mask) as usize * *width;
        for step in program.iter() {
            let v = if step.op == Opcode::Load {
                load_value(NodeId::from_index(step.node as usize), i, *seed)
            } else {
                let ops = &operands[step.first as usize..step.end as usize];
                for (arg, o) in args.iter_mut().zip(ops) {
                    let d = u64::from(o.distance);
                    *arg = if i < d {
                        0 // prologue: predicated-invalid values read as 0
                    } else {
                        ring[((i - d) & *mask) as usize * *width + o.src as usize]
                    };
                }
                eval(step.op, &args[..ops.len()])
            };
            ring[frame + step.node as usize] = v;
        }
        self.next = i + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::CgraConfig;
    use iced_kernels::{Kernel, UnrollFactor};
    use iced_mapper::map_dvfs_aware;

    #[test]
    fn interpret_is_deterministic_and_seed_sensitive() {
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        assert_eq!(interpret(&dfg, 16, 1), interpret(&dfg, 16, 1));
        assert_ne!(interpret(&dfg, 16, 1), interpret(&dfg, 16, 2));
    }

    #[test]
    fn prologue_reads_zero_then_recurrence_takes_over() {
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let t = interpret(&dfg, 8, 3);
        // The phi (node c0) reads 0-init in iteration 0.
        let phi = dfg
            .nodes()
            .find(|n| n.op() == Opcode::Phi)
            .map(|n| n.id())
            .unwrap();
        assert_eq!(t[0][phi.index()], 0);
        // And the dataflow is live: load-fed nodes carry real values.
        assert!(t.iter().skip(1).any(|row| row.iter().any(|&v| v != 0)));
    }

    #[test]
    fn fifo_depths_stay_small() {
        // The mapper holds values between arrival and read; elastic depth
        // beyond a handful of entries would be unrealistic hardware.
        let cfg = CgraConfig::iced_prototype();
        for k in [Kernel::Fir, Kernel::Gemm, Kernel::Histogram] {
            let dfg = k.dfg(UnrollFactor::X1);
            let m = map_dvfs_aware(&dfg, &cfg).unwrap();
            let depth = crate::run_engine(&dfg, &m, 8, 7).unwrap().fifo_peak;
            assert!(depth <= 16, "{}: depth {depth}", k.name());
        }
    }

    #[test]
    fn eval_covers_all_opcodes() {
        assert_eq!(eval(Opcode::Add, &[2, 3]), 5);
        assert_eq!(eval(Opcode::Sub, &[2, 3]), -1);
        assert_eq!(eval(Opcode::Mul, &[2, 3]), 6);
        assert_eq!(eval(Opcode::Div, &[6, 3]), 2);
        assert_eq!(eval(Opcode::Div, &[6, 0]), 6);
        assert_eq!(eval(Opcode::Cmp, &[4, 3]), 1);
        assert_eq!(eval(Opcode::Select, &[1, 10, 20]), 10);
        assert_eq!(eval(Opcode::Select, &[0, 10, 20]), 20);
        assert_eq!(eval(Opcode::Max, &[4, 9]), 9);
        assert_eq!(eval(Opcode::Min, &[4, 9]), 4);
        assert_eq!(eval(Opcode::Mov, &[7]), 7);
        assert_eq!(eval(Opcode::And, &[6, 3]), 2);
        assert_eq!(eval(Opcode::Or, &[6, 3]), 7);
        assert_eq!(eval(Opcode::Xor, &[6, 3]), 5);
        assert_eq!(eval(Opcode::Shift, &[1, 3]), 8);
        assert_eq!(eval(Opcode::Phi, &[5, 6]), 11);
    }
}
