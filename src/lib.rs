//! # ICED — Integrated CGRA framework Enabling DVFS-aware acceleration
//!
//! A Rust reproduction of *"ICED: An Integrated CGRA Framework Enabling
//! DVFS-Aware Acceleration"* (MICRO 2024): a coarse-grained reconfigurable
//! array with DVFS **power islands**, the DVFS-aware compilation toolchain
//! that maps kernels onto it (Algorithms 1 and 2), runtime DVFS for
//! data-dependent streaming applications, and the full evaluation harness.
//!
//! The workspace is split into focused crates, all re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dfg`] | `iced-dfg` | dataflow-graph IR, recurrence analysis, unrolling, predication |
//! | [`arch`] | `iced-arch` | CGRA configuration, islands, MRRG |
//! | [`power`] | `iced-power` | V/F levels, power/energy/area model (ASAP7 calibration) |
//! | [`mapper`] | `iced-mapper` | Algorithm 1 + 2, baseline/per-tile comparators |
//! | [`sim`] | `iced-sim` | schedule validation, activity metrics, value-checking engine |
//! | [`streaming`] | `iced-streaming` | partitioning, runtime DVFS controller, DRIPS |
//! | [`fault`] | `iced-fault` | deterministic fault plans, masks, SEU schedules |
//! | [`fuzz`] | `iced-fuzz` | seeded DFG corpus generator, differential cross-backend harness |
//! | [`kernels`] | `iced-kernels` | Table I kernel suite, workloads, pipelines |
//! | [`trace`] | `iced-trace` | structured tracing, counters, Chrome-trace/JSONL export |
//!
//! The [`Toolchain`] type provides the integrated flow the paper's Figure 7
//! describes: pick a strategy, compile a kernel, inspect utilization / DVFS
//! levels / power.
//!
//! # Quickstart
//!
//! ```
//! use iced::{Strategy, Toolchain};
//! use iced::kernels::{Kernel, UnrollFactor};
//!
//! # fn main() -> Result<(), iced::mapper::MapError> {
//! let toolchain = Toolchain::prototype(); // 6×6, 2×2 islands, ASAP7 power
//! let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
//!
//! let baseline = toolchain.compile(&dfg, Strategy::Baseline)?;
//! let iced = toolchain.compile(&dfg, Strategy::IcedIslands)?;
//!
//! assert!(iced.mapping().ii() <= baseline.mapping().ii());
//! assert!(iced.average_utilization() > baseline.average_utilization());
//! assert!(iced.power_mw(1000) < baseline.power_mw(1000));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iced_arch as arch;
pub use iced_dfg as dfg;
pub use iced_exact as exact;
pub use iced_fault as fault;
pub use iced_fuzz as fuzz;
pub use iced_kernels as kernels;
pub use iced_mapper as mapper;
pub use iced_power as power;
pub use iced_sim as sim;
pub use iced_streaming as streaming;
pub use iced_trace as trace;

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_mapper::{
    map_with, power_gate_idle, relax_islands, relax_per_tile, MapError, MapperOptions, Mapping,
};
use iced_power::PowerModel;
use iced_sim::{DvfsSupport, EnergyBreakdown, FabricStats};

/// The CGRA configurations evaluated in the paper (§V, "Evaluated CGRA
/// Designs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Conventional CGRA without DVFS support.
    Baseline,
    /// Conventional CGRA with power-gating of idle tiles (the paper's
    /// baseline + power-gating ablation, ~1.12× energy efficiency).
    BaselinePowerGated,
    /// Per-tile DVFS + power-gating: UE-CGRA upgraded to spatio-temporal
    /// execution (one LDO/ADPLL per tile, > 30 % overhead each).
    PerTileDvfs,
    /// Full ICED: Algorithm 1 labeling + Algorithm 2 island-aware mapping
    /// with per-island DVFS and island power-gating.
    IcedIslands,
}

impl Strategy {
    /// All four evaluated configurations, in the paper's order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Baseline,
        Strategy::BaselinePowerGated,
        Strategy::PerTileDvfs,
        Strategy::IcedIslands,
    ];

    /// Display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Baseline => "baseline",
            Strategy::BaselinePowerGated => "baseline+pg",
            Strategy::PerTileDvfs => "per-tile",
            Strategy::IcedIslands => "iced",
        }
    }

    /// The DVFS hardware this configuration pays for.
    pub fn dvfs_support(self) -> DvfsSupport {
        match self {
            Strategy::Baseline | Strategy::BaselinePowerGated => DvfsSupport::None,
            Strategy::PerTileDvfs => DvfsSupport::PerTile,
            Strategy::IcedIslands => DvfsSupport::PerIsland,
        }
    }

    /// The mapper options this configuration maps with: Algorithm 1
    /// labeling and Algorithm 2 island-aware placement for ICED, the
    /// all-normal mapper for the others.
    pub fn mapper_options(self) -> MapperOptions {
        match self {
            Strategy::IcedIslands => MapperOptions::default(),
            _ => MapperOptions::baseline(),
        }
    }

    /// The post-pass this configuration applies to `base`, a mapping made
    /// with [`Strategy::mapper_options`].
    pub fn post_pass(self, dfg: &Dfg, base: Mapping) -> Mapping {
        match self {
            Strategy::Baseline => base,
            Strategy::BaselinePowerGated => power_gate_idle(dfg, &base),
            Strategy::PerTileDvfs => relax_per_tile(dfg, &base),
            // Final per-island adjustment: islands pinned to normal by
            // routing alone are lowered where legal (§IV-A).
            Strategy::IcedIslands => relax_islands(dfg, &base),
        }
    }
}

/// The integrated compiler toolchain (paper Figure 7): architecture
/// description + power model + mapping strategies.
#[derive(Debug, Clone)]
pub struct Toolchain {
    config: CgraConfig,
    model: PowerModel,
}

impl Toolchain {
    /// Toolchain for an arbitrary CGRA configuration with the ASAP7 power
    /// calibration.
    pub fn new(config: CgraConfig) -> Self {
        Toolchain {
            config,
            model: PowerModel::asap7(),
        }
    }

    /// The paper's 6×6 prototype with 2×2 islands.
    pub fn prototype() -> Self {
        Toolchain::new(CgraConfig::iced_prototype())
    }

    /// Target configuration.
    pub fn config(&self) -> &CgraConfig {
        &self.config
    }

    /// Power model in use.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Compiles `dfg` under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] when the kernel cannot be mapped onto the
    /// configured fabric.
    pub fn compile(&self, dfg: &Dfg, strategy: Strategy) -> Result<Compiled, MapError> {
        let base = map_with(dfg, &self.config, &strategy.mapper_options())?;
        let mapping = strategy.post_pass(dfg, base);
        let stats = FabricStats::analyze(&mapping);
        Ok(Compiled {
            dfg: dfg.clone(),
            strategy,
            mapping,
            stats,
            model: self.model.clone(),
        })
    }
}

impl Default for Toolchain {
    fn default() -> Self {
        Toolchain::prototype()
    }
}

/// A compiled kernel: mapping plus the derived metrics the evaluation
/// consumes.
#[derive(Debug, Clone)]
pub struct Compiled {
    dfg: Dfg,
    strategy: Strategy,
    mapping: Mapping,
    stats: FabricStats,
    model: PowerModel,
}

impl Compiled {
    /// The strategy that produced this result.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The placement/routing/DVFS result.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Per-tile activity statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Average utilization of active tiles (Fig. 9 metric).
    pub fn average_utilization(&self) -> f64 {
        self.stats.average_utilization()
    }

    /// Average utilization over all tiles (Fig. 2 metric).
    pub fn average_utilization_all_tiles(&self) -> f64 {
        self.stats.average_utilization_all_tiles()
    }

    /// Average DVFS level across tiles (Fig. 10/12 metric).
    pub fn average_dvfs_level(&self) -> f64 {
        self.stats.average_dvfs_level()
    }

    /// Full Equation (2)–(4) accounting for `iterations` loop iterations.
    pub fn energy(&self, iterations: u64) -> EnergyBreakdown {
        EnergyBreakdown::account(
            &self.dfg,
            &self.mapping,
            &self.model,
            self.strategy.dvfs_support(),
            iterations,
        )
    }

    /// Average power in mW for `iterations` loop iterations (Fig. 11).
    pub fn power_mw(&self, iterations: u64) -> f64 {
        self.energy(iterations).total_power_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_kernels::{Kernel, UnrollFactor};

    #[test]
    fn all_strategies_compile_fir() {
        let tc = Toolchain::prototype();
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        for s in Strategy::ALL {
            let c = tc.compile(&dfg, s).unwrap();
            assert_eq!(c.strategy(), s);
            assert!(c.power_mw(100) > 0.0, "{}", s.name());
        }
    }

    #[test]
    fn headline_orderings_hold_for_fir() {
        let tc = Toolchain::prototype();
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let base = tc.compile(&dfg, Strategy::Baseline).unwrap();
        let pg = tc.compile(&dfg, Strategy::BaselinePowerGated).unwrap();
        let iced = tc.compile(&dfg, Strategy::IcedIslands).unwrap();
        assert!(iced.average_utilization() > base.average_utilization());
        assert!(pg.power_mw(1000) < base.power_mw(1000));
        assert!(iced.power_mw(1000) < base.power_mw(1000));
        assert!(iced.average_dvfs_level() < 1.0);
    }
}
