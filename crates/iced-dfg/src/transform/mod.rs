//! Structural DFG transforms used by the ICED compiler front end.
//!
//! * [`mod@unroll`] — generic loop unrolling on the DFG level, with support for
//!   *shared* nodes (loop-invariant values / induction bookkeeping that a
//!   compiler would not duplicate).
//! * [`predication`] — a small CFG IR plus the partial-predication pass that
//!   converts structured control flow into `Cmp`/`Select` dataflow, the way
//!   the paper's LLVM front end does (Hamzeh et al.'s partial predication);
//!   handles nested branches, multi-block arms, and early-exit tail splits
//!   via postdominator-driven region lowering.
//! * [`nest`] — two-level (perfect and imperfect) loop-nest flattening into
//!   a single mappable loop body, with inner-recurrence redistribution.

pub mod nest;
pub mod predication;
pub mod unroll;

pub use nest::{flatten_nest, flatten_perfect, NestLink};
pub use predication::{Cfg, CfgBuilder, Terminator};
pub use unroll::{unroll, UnrollOptions};
