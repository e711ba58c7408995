//! DVFS-aware modulo mapping for the ICED CGRA.
//!
//! This crate implements the paper's primary contribution — the compiler
//! back end that places and routes a kernel's dataflow graph onto the
//! time-extended MRRG of a DVFS-island CGRA:
//!
//! * [`label_dvfs_levels`] — **Algorithm 1** (`LabelDVFSLevel`): assign each
//!   DFG node a preferred DVFS level from its recurrence-cycle membership
//!   and the tile-slot budget of each level class.
//! * [`map_dvfs_aware`] — **Algorithm 2**: topological-order placement onto
//!   the MRRG with Dijkstra-routed communication, per-island DVFS
//!   assignment, and iterative II escalation.
//! * [`map_baseline`] — the conventional (no-DVFS) mapper used as the
//!   paper's *Baseline*: same engine with all labels and islands pinned to
//!   `normal`.
//! * [`relax_per_tile`] — the *Per-tile DVFS + power-gating* comparator (an
//!   UE-CGRA upgraded to spatio-temporal execution): a post-pass over a
//!   conventional mapping that slows or gates individual tiles where the
//!   schedule allows.
//! * [`power_gate_idle`] — power-gating-only post-pass (the paper's
//!   *baseline + power-gating* ablation).
//!
//! # Example
//!
//! ```
//! use iced_arch::CgraConfig;
//! use iced_dfg::{DfgBuilder, Opcode};
//! use iced_mapper::map_dvfs_aware;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new("dotp");
//! let x = b.node(Opcode::Load, "x");
//! let y = b.node(Opcode::Load, "y");
//! let m = b.node(Opcode::Mul, "xy");
//! let acc = b.node(Opcode::Phi, "acc");
//! let s = b.node(Opcode::Add, "sum");
//! b.data(x, m)?;
//! b.data(y, m)?;
//! b.data(m, s)?;
//! b.data(acc, s)?;
//! b.carry(s, acc)?;
//! let dfg = b.finish()?;
//!
//! let mapping = map_dvfs_aware(&dfg, &CgraConfig::iced_prototype())?;
//! assert!(mapping.ii() >= 2); // phi -> add recurrence
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Input-reachable code must fail with typed errors, never panic: the
// differential fuzzer treats any panic as a bug, and the service feeds
// untrusted DFG text straight into these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bitstream;
mod commit;
mod error;
mod fault;
mod labeling;
mod mapping;
mod place;
mod relax;
mod router;

/// The commit kernel, re-exported for the `iced-exact` backend.
///
/// The exact mapper must account for resources *exactly* the way the
/// heuristic does — same router, same reservation journal, same MRRG
/// occupancy rules, same island pinning — or its certificates would speak
/// about a different machine. So the placer and the exact search commit
/// through one kernel: [`Prepared`](engine_internals::Prepared) prepares a
/// kernel once per call, [`lower_bound`](engine_internals::lower_bound)
/// is the start II of both, and [`Partial`](engine_internals::Partial)
/// holds the partial mapping with every commit primitive. Only slot
/// selection differs: the placer takes the first FU slot that fits, the
/// exact search tries each slot of its window and backtracks. Not a
/// public API: hidden from docs and exempt from stability promises.
#[doc(hidden)]
pub mod engine_internals {
    pub use crate::commit::{
        lower_bound, modulo_asap, usable_tiles, Consumer, Draft, InRoute, Partial, Prepared,
    };
    pub use crate::router::RouterScratch;
}

pub use bitstream::{Bitstream, ConfigWord, LinkSource};
pub use error::MapError;
pub use fault::map_with_faults;
pub use labeling::{label_dvfs_levels, LabelSummary};
pub use mapping::{Hop, Mapping, Placement, Route};
pub use place::{check_dependencies, map_baseline, map_dvfs_aware, map_with, MapperOptions};
pub use relax::{power_gate_idle, relax_islands, relax_per_tile};
