//! Partial predication: structured control flow → `Select` dataflow.
//!
//! CGRAs execute a single modulo schedule, so the paper converts the control
//! flow of a loop body into data flow using partial predication (Hamzeh et
//! al., DAC'14). This module provides a deliberately small CFG IR — enough
//! to express the loop bodies of the evaluated kernels (`relu`'s
//! `max(0, x)` branch, histogram's conditional update, …) — and the
//! if-conversion pass.
//!
//! Supported shapes: any *acyclic* CFG. Each `Branch` reconverges at the
//! immediate postdominator of the branching block, discovered by a
//! postdominator analysis over the CFG augmented with a virtual exit node.
//! This covers single-level diamonds and triangles, nested branches inside
//! arms, arms made of multi-block chains, and early exits / irregular
//! branching where the arms only reconverge at the loop-body exit (a *tail
//! split*: both tails lower to completion and their final environments are
//! `Select`-merged). Cyclic CFGs are rejected with
//! [`DfgError::UnsupportedControlFlow`]; loops are expressed with
//! [`CfgBuilder::loop_carry`] recurrences or the
//! [`nest`](crate::transform::nest) flattening transform instead.
//!
//! # Example
//!
//! ```
//! use iced_dfg::transform::{CfgBuilder, Terminator};
//! use iced_dfg::Opcode;
//!
//! # fn main() -> Result<(), iced_dfg::DfgError> {
//! // out[i] = x > 0 ? x : 0   (relu, as an if-triangle)
//! let mut cfg = CfgBuilder::new("relu");
//! let entry = cfg.block();
//! let then_blk = cfg.block();
//! let merge = cfg.block();
//! cfg.inst(entry, "x", Opcode::Load, &["in"]);
//! cfg.inst(entry, "y", Opcode::Mov, &["zero"]);
//! cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
//! cfg.terminate(entry, Terminator::branch("p", then_blk, merge));
//! cfg.inst(then_blk, "y", Opcode::Mov, &["x"]);
//! cfg.terminate(then_blk, Terminator::Jump(merge));
//! cfg.inst(merge, "st", Opcode::Store, &["y"]);
//! cfg.terminate(merge, Terminator::Return);
//! let dfg = cfg.finish()?.predicate()?;
//! assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::builder::DfgBuilder;
use crate::error::DfgError;
use crate::graph::{Dfg, EdgeKind, NodeId};
use crate::op::Opcode;

/// Identifier of a basic block inside a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a previously defined predicate value.
    Branch {
        /// Name of the predicate value.
        cond: String,
        /// Block taken when the predicate holds.
        then_blk: BlockId,
        /// Block taken otherwise (may be the merge block for triangles).
        else_blk: BlockId,
    },
    /// Loop-body exit.
    Return,
}

impl Terminator {
    /// Convenience constructor for [`Terminator::Branch`].
    pub fn branch(cond: impl Into<String>, then_blk: BlockId, else_blk: BlockId) -> Self {
        Terminator::Branch {
            cond: cond.into(),
            then_blk,
            else_blk,
        }
    }
}

#[derive(Debug, Clone)]
struct Inst {
    dest: String,
    op: Opcode,
    args: Vec<String>,
}

#[derive(Debug, Clone)]
struct Block {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

/// A structured control-flow graph for one loop body.
#[derive(Debug, Clone)]
pub struct Cfg {
    name: String,
    blocks: Vec<Block>,
    carries: Vec<(String, String, u32)>,
}

/// Builder for [`Cfg`].
#[derive(Debug, Clone)]
pub struct CfgBuilder {
    cfg: Cfg,
}

impl CfgBuilder {
    /// Creates a builder for a loop body named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CfgBuilder {
            cfg: Cfg {
                name: name.into(),
                blocks: Vec::new(),
                carries: Vec::new(),
            },
        }
    }

    /// Appends an empty basic block; the first block created is the entry.
    pub fn block(&mut self) -> BlockId {
        self.cfg.blocks.push(Block {
            insts: Vec::new(),
            term: None,
        });
        BlockId(self.cfg.blocks.len() - 1)
    }

    /// Appends an instruction `dest = op(args…)` to `block`. Arguments that
    /// are never defined become live-in values of the loop body.
    pub fn inst(&mut self, block: BlockId, dest: impl Into<String>, op: Opcode, args: &[&str]) {
        self.cfg.blocks[block.0].insts.push(Inst {
            dest: dest.into(),
            op,
            args: args.iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Sets the terminator of `block`.
    pub fn terminate(&mut self, block: BlockId, term: Terminator) {
        self.cfg.blocks[block.0].term = Some(term);
    }

    /// Declares that the final value of `from_var` feeds the live-in
    /// `to_var` of the iteration `distance` later (a loop-carried
    /// dependency; `to_var` becomes a `Phi` node).
    pub fn loop_carry(
        &mut self,
        from_var: impl Into<String>,
        to_var: impl Into<String>,
        distance: u32,
    ) {
        self.cfg
            .carries
            .push((from_var.into(), to_var.into(), distance));
    }

    /// Finishes the CFG.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnsupportedControlFlow`] if any block lacks a
    /// terminator, a terminator targets an unknown block, or the CFG is
    /// empty.
    pub fn finish(self) -> Result<Cfg, DfgError> {
        let n = self.cfg.blocks.len();
        if n == 0 {
            return Err(DfgError::UnsupportedControlFlow("empty cfg".into()));
        }
        for (i, blk) in self.cfg.blocks.iter().enumerate() {
            match &blk.term {
                None => {
                    return Err(DfgError::UnsupportedControlFlow(format!(
                        "block {i} has no terminator"
                    )))
                }
                Some(t) => {
                    for s in successor_ids(t) {
                        if s >= n {
                            return Err(DfgError::UnsupportedControlFlow(format!(
                                "block {i} targets unknown block {s}"
                            )));
                        }
                    }
                }
            }
        }
        Ok(self.cfg)
    }
}

/// Successor block indices of a terminator (`Return` has none here; the
/// postdominator analysis adds the virtual exit edge itself).
fn successor_ids(term: &Terminator) -> Vec<usize> {
    match term {
        Terminator::Jump(t) => vec![t.0],
        Terminator::Branch {
            then_blk, else_blk, ..
        } => vec![then_blk.0, else_blk.0],
        Terminator::Return => Vec::new(),
    }
}

/// Per-path value environment during if-conversion.
type Env = HashMap<String, NodeId>;

struct Lowering<'a> {
    cfg: &'a Cfg,
    b: DfgBuilder,
    live_ins: HashMap<String, NodeId>,
    /// Immediate postdominator of each block (`blocks.len()` = virtual exit).
    ipdom: Vec<usize>,
    /// Remaining block-lowering budget; a backstop against shapes the
    /// analysis mis-handles (duplicated or re-entered regions).
    budget: usize,
}

impl Cfg {
    /// Runs partial predication, producing a pure dataflow graph.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnsupportedControlFlow`] for cyclic CFGs or
    /// malformed loop carries, or any graph-construction error bubbled up
    /// from edge insertion.
    pub fn predicate(&self) -> Result<Dfg, DfgError> {
        self.reject_cycles()?;
        let exit = self.blocks.len();
        let mut lo = Lowering {
            cfg: self,
            b: DfgBuilder::new(self.name.clone()),
            live_ins: HashMap::new(),
            ipdom: self.postdominators()?,
            budget: self.blocks.len() * 4 + 16,
        };
        let env = lo.lower_region(0, Env::new(), exit)?;
        // Loop-carried edges close the recurrences.
        for (from_var, to_var, distance) in &self.carries {
            let src = lo.value(from_var, &env);
            let dst = *lo.live_ins.get(to_var).ok_or_else(|| {
                DfgError::UnsupportedControlFlow(format!(
                    "loop-carry target '{to_var}' is not a live-in value"
                ))
            })?;
            lo.b.edge(src, dst, EdgeKind::loop_carried((*distance).max(1)))?;
        }
        lo.b.finish()
    }

    /// Rejects CFGs with cycles (iterative DFS three-colouring from the
    /// entry block).
    fn reject_cycles(&self) -> Result<(), DfgError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.blocks.len()];
        // Stack of (block, next-successor-index) frames.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        colour[0] = Colour::Grey;
        while let Some(&(b, next)) = stack.last() {
            let succs = successor_ids(self.blocks[b].term.as_ref().expect("validated"));
            if next < succs.len() {
                if let Some(frame) = stack.last_mut() {
                    frame.1 += 1;
                }
                let s = succs[next];
                match colour[s] {
                    Colour::Grey => {
                        return Err(DfgError::UnsupportedControlFlow(format!(
                            "cyclic control flow (back edge {b} -> {s}); express loops \
                             as loop_carry recurrences or flatten with transform::nest"
                        )));
                    }
                    Colour::White => {
                        colour[s] = Colour::Grey;
                        stack.push((s, 0));
                    }
                    Colour::Black => {}
                }
            } else {
                colour[b] = Colour::Black;
                stack.pop();
            }
        }
        Ok(())
    }

    /// Immediate postdominators over the acyclic CFG augmented with a
    /// virtual exit node (index `blocks.len()`) that every `Return` feeds.
    ///
    /// Blocks are processed in reverse topological order, so a single pass
    /// computes the full postdominator sets; the immediate postdominator of
    /// `b` is the *closest* strict postdominator — the one with the largest
    /// postdominator set of its own (strict postdominators form a chain).
    fn postdominators(&self) -> Result<Vec<usize>, DfgError> {
        let n = self.blocks.len();
        let exit = n;
        // Kahn topological order over forward edges (cycles already rejected).
        let mut indeg = vec![0usize; n];
        for blk in &self.blocks {
            for s in successor_ids(blk.term.as_ref().expect("validated")) {
                indeg[s] += 1;
            }
        }
        let mut order: Vec<usize> = (0..n).filter(|&b| indeg[b] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let b = order[head];
            head += 1;
            for s in successor_ids(self.blocks[b].term.as_ref().expect("validated")) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    order.push(s);
                }
            }
        }
        if order.len() != n {
            // DFS-based rejection only covers blocks reachable from the
            // entry; a cycle among unreachable blocks lands here.
            return Err(DfgError::UnsupportedControlFlow(
                "cyclic control flow among unreachable blocks".into(),
            ));
        }
        // pdom sets as dense bool rows over n+1 nodes; exit postdominates
        // only itself.
        let mut pdom: Vec<Vec<bool>> = vec![vec![false; n + 1]; n + 1];
        pdom[exit][exit] = true;
        for &b in order.iter().rev() {
            let succs = {
                let s = successor_ids(self.blocks[b].term.as_ref().expect("validated"));
                if s.is_empty() {
                    vec![exit]
                } else {
                    s
                }
            };
            let mut row = pdom[succs[0]].clone();
            for &s in &succs[1..] {
                for (r, v) in row.iter_mut().zip(&pdom[s]) {
                    *r = *r && *v;
                }
            }
            row[b] = true;
            pdom[b] = row;
        }
        let mut ipdom = vec![exit; n];
        for (b, slot) in ipdom.iter_mut().enumerate() {
            let mut best = exit;
            let mut best_size = 0usize;
            for (x, x_set) in pdom.iter().enumerate() {
                if x != b && pdom[b][x] {
                    let size = x_set.iter().filter(|&&v| v).count();
                    if size > best_size {
                        best = x;
                        best_size = size;
                    }
                }
            }
            *slot = best;
        }
        Ok(ipdom)
    }
}

impl Lowering<'_> {
    /// Resolves a value name, creating a live-in `Mov` node on first use of
    /// an undefined name.
    fn value(&mut self, name: &str, env: &Env) -> NodeId {
        if let Some(&id) = env.get(name) {
            return id;
        }
        if let Some(&id) = self.live_ins.get(name) {
            return id;
        }
        let is_carry_target = self.cfg.carries.iter().any(|(_, to, _)| to == name);
        let op = if is_carry_target {
            Opcode::Phi
        } else {
            Opcode::Mov
        };
        let id = self.b.node(op, name.to_string());
        self.live_ins.insert(name.to_string(), id);
        id
    }

    fn lower_block(&mut self, blk: usize, env: &mut Env) -> Result<(), DfgError> {
        // Clone the instruction list to sidestep borrowing self.cfg while
        // mutating the builder; blocks are tiny.
        let insts = self.cfg.blocks[blk].insts.clone();
        for inst in insts {
            let args: Vec<NodeId> = inst.args.iter().map(|a| self.value(a, env)).collect();
            let id = self.b.node(inst.op, inst.dest.clone());
            for a in args {
                self.b.edge_once(a, id, EdgeKind::Data)?;
            }
            env.insert(inst.dest, id);
        }
        Ok(())
    }

    /// Lowers the single-entry region from `entry` up to (not including)
    /// `stop`, returning the environment that reaches `stop`. Branches
    /// recurse into their arm regions bounded by the branch block's
    /// immediate postdominator, which handles nesting and multi-block arms;
    /// when that postdominator is the virtual exit both arms lower to
    /// completion and their final environments are `Select`-merged (early
    /// exit / tail split).
    fn lower_region(&mut self, entry: usize, mut env: Env, stop: usize) -> Result<Env, DfgError> {
        let mut cur = entry;
        loop {
            if cur == stop {
                return Ok(env);
            }
            self.budget = self.budget.checked_sub(1).ok_or_else(|| {
                DfgError::UnsupportedControlFlow(
                    "cfg lowering exceeded its block budget (irreducible shape)".into(),
                )
            })?;
            self.lower_block(cur, &mut env)?;
            match self.cfg.blocks[cur].term.clone().expect("validated") {
                Terminator::Return => {
                    if stop != self.cfg.blocks.len() {
                        return Err(DfgError::UnsupportedControlFlow(format!(
                            "block {cur} returns before reaching merge block {stop}"
                        )));
                    }
                    return Ok(env);
                }
                Terminator::Jump(next) => cur = next.0,
                Terminator::Branch {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let cond_id = self.value(&cond, &env);
                    let merge = self.ipdom[cur];
                    let then_env = self.lower_region(then_blk.0, env.clone(), merge)?;
                    let else_env = self.lower_region(else_blk.0, env.clone(), merge)?;
                    env = self.merge_envs(cond_id, &then_env, &else_env)?;
                    cur = merge;
                }
            }
        }
    }

    /// Inserts `Select` nodes for every value whose definition differs
    /// between the two arms.
    fn merge_envs(
        &mut self,
        cond: NodeId,
        then_env: &Env,
        else_env: &Env,
    ) -> Result<Env, DfgError> {
        let mut out = Env::new();
        let mut names: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            match (then_env.get(name), else_env.get(name)) {
                (Some(&t), Some(&e)) if t == e => {
                    out.insert(name.clone(), t);
                }
                (Some(&t), Some(&e)) => {
                    let sel = self.b.node(Opcode::Select, format!("sel_{name}"));
                    self.b.data(cond, sel)?;
                    self.b.data(t, sel)?;
                    self.b.data(e, sel)?;
                    out.insert(name.clone(), sel);
                }
                (Some(&one), None) | (None, Some(&one)) => {
                    // Defined on one path only: value is dead on the other
                    // path, keep the single definition (LLVM would emit an
                    // undef phi input).
                    out.insert(name.clone(), one);
                }
                (None, None) => unreachable!("name came from one of the envs"),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relu_cfg() -> Cfg {
        let mut cfg = CfgBuilder::new("relu");
        let entry = cfg.block();
        let then_blk = cfg.block();
        let merge = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "y", Opcode::Mov, &["zero"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
        cfg.terminate(entry, Terminator::branch("p", then_blk, merge));
        cfg.inst(then_blk, "y", Opcode::Mov, &["x"]);
        cfg.terminate(then_blk, Terminator::Jump(merge));
        cfg.inst(merge, "st", Opcode::Store, &["y"]);
        cfg.terminate(merge, Terminator::Return);
        cfg.finish().unwrap()
    }

    #[test]
    fn triangle_produces_one_select() {
        let dfg = relu_cfg().predicate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 1);
        assert_eq!(dfg.count_ops(|op| op == Opcode::Store), 1);
        dfg.validate().unwrap();
    }

    #[test]
    fn diamond_merges_both_definitions() {
        let mut cfg = CfgBuilder::new("abs");
        let entry = cfg.block();
        let t = cfg.block();
        let e = cfg.block();
        let m = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
        cfg.terminate(entry, Terminator::branch("p", t, e));
        cfg.inst(t, "y", Opcode::Mov, &["x"]);
        cfg.terminate(t, Terminator::Jump(m));
        cfg.inst(e, "y", Opcode::Sub, &["zero", "x"]);
        cfg.terminate(e, Terminator::Jump(m));
        cfg.inst(m, "st", Opcode::Store, &["y"]);
        cfg.terminate(m, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 1);
        // select feeds the store
        let sel = dfg.nodes().find(|n| n.op() == Opcode::Select).unwrap().id();
        let st = dfg.nodes().find(|n| n.op() == Opcode::Store).unwrap().id();
        assert!(dfg.data_succs(sel).any(|s| s == st));
    }

    #[test]
    fn loop_carry_creates_phi_and_recurrence() {
        let mut cfg = CfgBuilder::new("acc");
        let entry = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "sum", Opcode::Add, &["acc", "x"]);
        cfg.terminate(entry, Terminator::Return);
        cfg.loop_carry("sum", "acc", 1);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Phi), 1);
        assert_eq!(dfg.rec_mii(), 2); // phi(acc) -> add(sum) -> phi
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut cfg = CfgBuilder::new("bad");
        let _ = cfg.block();
        assert!(matches!(
            cfg.finish(),
            Err(DfgError::UnsupportedControlFlow(_))
        ));
    }

    #[test]
    fn tail_split_merges_at_exit() {
        // Early exit / irregular branching: the arms never reconverge inside
        // the body — each tail runs to its own Return. Both tails lower and
        // their final environments select-merge at the virtual exit.
        let mut cfg = CfgBuilder::new("tail");
        let entry = cfg.block();
        let a = cfg.block();
        let b_blk = cfg.block();
        let m1 = cfg.block();
        let m2 = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "limit"]);
        cfg.terminate(entry, Terminator::branch("p", a, b_blk));
        cfg.inst(a, "y", Opcode::Add, &["x", "one"]);
        cfg.terminate(a, Terminator::Jump(m1));
        cfg.inst(b_blk, "y", Opcode::Sub, &["x", "one"]);
        cfg.terminate(b_blk, Terminator::Jump(m2));
        cfg.inst(m1, "st", Opcode::Store, &["y"]);
        cfg.terminate(m1, Terminator::Return);
        cfg.inst(m2, "st", Opcode::Store, &["y"]);
        cfg.terminate(m2, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        dfg.validate().unwrap();
        // Each tail keeps its own Store; every name defined differently on
        // the two tails (`y`, and the store results `st`) select-merges at
        // the virtual exit.
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 2);
        assert_eq!(dfg.count_ops(|op| op == Opcode::Store), 2);
    }

    #[test]
    fn early_exit_with_one_returning_arm() {
        // if (p) { store; return }  else fall through to more work.
        let mut cfg = CfgBuilder::new("early");
        let entry = cfg.block();
        let bail = cfg.block();
        let rest = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "limit"]);
        cfg.terminate(entry, Terminator::branch("p", bail, rest));
        cfg.inst(bail, "st0", Opcode::Store, &["x"]);
        cfg.terminate(bail, Terminator::Return);
        cfg.inst(rest, "y", Opcode::Mul, &["x", "x"]);
        cfg.inst(rest, "st1", Opcode::Store, &["y"]);
        cfg.terminate(rest, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        dfg.validate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Store), 2);
    }

    #[test]
    fn nested_diamond_inside_arm() {
        // outer: p ? (inner: q ? a : b) : c, all merging on `y`.
        let mut cfg = CfgBuilder::new("nested");
        let entry = cfg.block();
        let outer_t = cfg.block();
        let inner_t = cfg.block();
        let inner_e = cfg.block();
        let inner_m = cfg.block();
        let outer_e = cfg.block();
        let outer_m = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
        cfg.inst(entry, "q", Opcode::Cmp, &["x", "hundred"]);
        cfg.terminate(entry, Terminator::branch("p", outer_t, outer_e));
        cfg.terminate(outer_t, Terminator::branch("q", inner_t, inner_e));
        cfg.inst(inner_t, "y", Opcode::Add, &["x", "one"]);
        cfg.terminate(inner_t, Terminator::Jump(inner_m));
        cfg.inst(inner_e, "y", Opcode::Sub, &["x", "one"]);
        cfg.terminate(inner_e, Terminator::Jump(inner_m));
        cfg.terminate(inner_m, Terminator::Jump(outer_m));
        cfg.inst(outer_e, "y", Opcode::Mul, &["x", "two"]);
        cfg.terminate(outer_e, Terminator::Jump(outer_m));
        cfg.inst(outer_m, "st", Opcode::Store, &["y"]);
        cfg.terminate(outer_m, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        dfg.validate().unwrap();
        // one Select for the inner merge, one for the outer merge
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 2);
        let st = dfg.nodes().find(|n| n.op() == Opcode::Store).unwrap().id();
        // the outer select feeds the store
        assert!(dfg
            .nodes()
            .filter(|n| n.op() == Opcode::Select)
            .any(|n| dfg.data_succs(n.id()).any(|s| s == st)));
    }

    #[test]
    fn multi_block_arm_chain() {
        let mut cfg = CfgBuilder::new("chain");
        let entry = cfg.block();
        let a1 = cfg.block();
        let a2 = cfg.block();
        let m = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "y", Opcode::Mov, &["zero"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
        cfg.terminate(entry, Terminator::branch("p", a1, m));
        cfg.inst(a1, "t", Opcode::Mul, &["x", "x"]);
        cfg.terminate(a1, Terminator::Jump(a2));
        cfg.inst(a2, "y", Opcode::Add, &["t", "one"]);
        cfg.terminate(a2, Terminator::Jump(m));
        cfg.inst(m, "st", Opcode::Store, &["y"]);
        cfg.terminate(m, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        dfg.validate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 1);
        assert_eq!(dfg.count_ops(|op| op == Opcode::Mul), 1);
    }

    #[test]
    fn cyclic_cfg_rejected() {
        let mut cfg = CfgBuilder::new("loopy");
        let a = cfg.block();
        let b = cfg.block();
        cfg.inst(a, "x", Opcode::Add, &["x", "one"]);
        cfg.terminate(a, Terminator::Jump(b));
        cfg.terminate(b, Terminator::Jump(a));
        assert!(matches!(
            cfg.finish().unwrap().predicate(),
            Err(DfgError::UnsupportedControlFlow(_))
        ));
    }

    #[test]
    fn dangling_block_target_rejected() {
        let mut cfg = CfgBuilder::new("dangling");
        let a = cfg.block();
        cfg.terminate(a, Terminator::Jump(BlockId(7)));
        assert!(matches!(
            cfg.finish(),
            Err(DfgError::UnsupportedControlFlow(_))
        ));
    }

    #[test]
    fn values_unchanged_on_both_arms_need_no_select() {
        let mut cfg = CfgBuilder::new("noop");
        let entry = cfg.block();
        let t = cfg.block();
        let e = cfg.block();
        let m = cfg.block();
        cfg.inst(entry, "x", Opcode::Load, &["in"]);
        cfg.inst(entry, "p", Opcode::Cmp, &["x", "zero"]);
        cfg.terminate(entry, Terminator::branch("p", t, e));
        cfg.terminate(t, Terminator::Jump(m));
        cfg.terminate(e, Terminator::Jump(m));
        cfg.inst(m, "st", Opcode::Store, &["x"]);
        cfg.terminate(m, Terminator::Return);
        let dfg = cfg.finish().unwrap().predicate().unwrap();
        assert_eq!(dfg.count_ops(|op| op == Opcode::Select), 0);
    }
}
