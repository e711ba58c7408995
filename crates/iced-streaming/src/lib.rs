//! Streaming-application support for ICED (paper §III-B and §IV-B).
//!
//! Data-dependent streaming applications (the 2-layer GCN, the synthesized
//! LU pipeline) are mapped as a pipeline of kernels, each occupying one or
//! more DVFS islands. Because per-input work varies with the data (graph
//! density, matrix sparsity), the bottleneck stage shifts at runtime; the
//! ICED **DVFS Controller** observes a 10-input window (`exeTable` /
//! `mapTable`), then raises the bottleneck kernel's islands one V/F level
//! and lowers everyone else's (§III-B). The **DRIPS** comparator instead
//! re-partitions islands towards the bottleneck while keeping everything at
//! nominal V/F (Tan et al., HPCA'22) — it optimises throughput where ICED
//! optimises power at equal throughput.
//!
//! * [`partition`] — per-kernel II-vs-islands profiles and the offline
//!   exhaustive partition search (paper: "exhaustively evaluate the mapping
//!   for each kernel on a varying number of islands");
//! * [`DvfsController`] — the windowed runtime level controller;
//! * [`mod@simulate`] — the pipeline event simulator producing throughput,
//!   power, and energy-efficiency series (Fig. 13).
//!
//! # Example
//!
//! ```
//! use iced_arch::CgraConfig;
//! use iced_kernels::pipelines::Pipeline;
//! use iced_kernels::workloads;
//! use iced_power::PowerModel;
//! use iced_streaming::{simulate, Partition, RuntimePolicy};
//!
//! # fn main() -> Result<(), iced_mapper::MapError> {
//! let cfg = CgraConfig::iced_prototype();
//! let pipeline = Pipeline::gcn();
//! let partition = Partition::table1(&pipeline, &cfg)?;
//! let inputs: Vec<u64> = workloads::enzymes_like(40, 7).iter().map(|g| g.nnz()).collect();
//! let report = simulate(
//!     &pipeline, &partition, &PowerModel::asap7(), &inputs, RuntimePolicy::IcedDvfs,
//! );
//! assert!(report.perf_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod partition;
pub mod simulate;

pub use controller::{ControllerDecision, DvfsController};
pub use partition::{KernelProfile, Partition};
pub use simulate::{
    simulate, simulate_with_faults, simulate_with_window, FailoverEvent, FailoverReport,
    RuntimePolicy, StreamReport, WindowSample,
};
