//! Cycle-level simulation and accounting for mapped ICED kernels.
//!
//! The paper's evaluation is "based on a cycle-accurate simulation according
//! to the kernel mapping" (§V-B) combined with the post-layout power model.
//! This crate provides the equivalents:
//!
//! * [`FabricStats`] — per-tile activity extracted from a [`Mapping`](iced_mapper::Mapping)'s
//!   modulo schedule: busy windows (FU + crossbar) in each tile's own clock
//!   domain, the utilization and average-DVFS-level metrics of Figs. 9/10/12;
//! * [`validate_schedule`] — an independent re-check that a mapping's
//!   schedule respects every dependency and never double-books a resource
//!   (used by tests and as a sanity gate by the benchmark harness);
//! * [`energy`] — Equation (2)–(4) accounting: activity-scaled tile power,
//!   DVFS controller overhead, SRAM activity, execution time → mW / nJ;
//! * [`functional`] — the reference token-dataflow interpreter
//!   ([`functional::interpret`]) and its bounded-memory streaming form,
//!   which never read a mapping;
//! * [`engine`] — a cycle-stepped machine simulation (FU firings, link
//!   transfers, per-edge token FIFOs) driven by a compiled periodic event
//!   table, with memory independent of the iteration count. It is the
//!   value check: every fired value is compared with the reference
//!   interpreter, so a timing bug that structural checks miss surfaces as
//!   a missing token or a wrong value. It also cross-checks the analytic
//!   metrics;
//! * [`oracle`] — the original naive per-cycle engine, kept as the compiled
//!   engine's bit-identical reference for the equivalence tests and
//!   benchmark baselines;
//! * [`render`] — ASCII schedule tables and DVFS level grids, the textual
//!   equivalent of the paper's Figure 1/3 panels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Input-reachable code must fail with typed errors, never panic: the
// differential fuzzer treats any panic as a bug, and the service feeds
// untrusted DFG text straight into these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod energy;
pub mod engine;
pub mod functional;
mod metrics;
pub mod oracle;
pub mod render;
mod validate;

pub use energy::{DvfsSupport, EnergyBreakdown};
pub use engine::{run as run_engine, run_with_faults, EngineError, EngineReport, FaultSimReport};
pub use metrics::{FabricStats, TileStats};
pub use oracle::run_oracle;
pub use validate::{edge_fifo_depths, validate_schedule, ScheduleError};
