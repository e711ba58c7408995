//! Benchmark kernels, streaming applications, and workload generators for
//! the ICED evaluation.
//!
//! The paper evaluates 10 standalone kernels (embedded / ML / HPC domains)
//! plus two streaming applications — a 2-layer GCN (5 unique kernels) and a
//! synthesized LU decomposition (6 kernels). Table I pins the structure of
//! every kernel's dataflow graph: node count, edge count, and RecMII at
//! unroll factors 1 and 2.
//!
//! The paper generates these DFGs with an LLVM front end; reproducing a full
//! LLVM pipeline is out of scope, so this crate *synthesises* each DFG from
//! a per-kernel structural specification — critical recurrence cycle,
//! secondary cycles, feeder chains of loads and arithmetic, store sinks, and
//! cross dependencies — such that the published Table I statistics are
//! reproduced **exactly** (asserted by unit tests). The mapper and the
//! simulators depend only on this structure, which is precisely what Table I
//! fixes. See `DESIGN.md` §2 for the substitution argument.
//!
//! Also provided:
//!
//! * [`workloads`] — seeded synthetic datasets standing in for ENZYMES
//!   (600 protein graphs) and the SuiteSparse LU matrices (150 matrices),
//!   matching the published distribution statistics;
//! * [`pipelines`] — the GCN and LU streaming-pipeline descriptions
//!   (stages, island allocations from Table I, and per-input work models).
//!
//! # Example
//!
//! ```
//! use iced_kernels::{Kernel, UnrollFactor};
//!
//! let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
//! assert_eq!(dfg.node_count(), 12);
//! assert_eq!(dfg.edge_count(), 16);
//! assert_eq!(dfg.rec_mii(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod suite;
mod synth;

pub mod pipelines;
pub mod spm;
pub mod workloads;

pub use suite::{motivating_example, Domain, Kernel, UnrollFactor};
pub use synth::SynthSpec;
