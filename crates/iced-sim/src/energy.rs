//! Equation (2)–(4) energy accounting for a mapped kernel.

use iced_dfg::Dfg;
use iced_mapper::Mapping;
use iced_power::{PowerModel, VfPoint};

use crate::metrics::FabricStats;

/// Which DVFS hardware the evaluated configuration carries — this decides
/// the controller count in Equation (3)'s `P_DVFS_overhead` term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DvfsSupport {
    /// Conventional CGRA: no LDO/ADPLL anywhere.
    None,
    /// UE-CGRA-style: one controller per tile (> 30 % of a tile each).
    PerTile,
    /// ICED: one controller per island.
    PerIsland,
}

/// Energy/power breakdown of one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Σ tile power (mW), activity- and V/F-scaled.
    pub tiles_mw: f64,
    /// DVFS controller power (mW).
    pub controllers_mw: f64,
    /// SRAM power (mW), access-activity-scaled.
    pub sram_mw: f64,
    /// Steady-state execution time for the requested iterations (µs).
    pub exec_time_us: f64,
    /// Iterations accounted.
    pub iterations: u64,
}

impl EnergyBreakdown {
    /// Accounts `iterations` steady-state loop iterations of `mapping`.
    ///
    /// Tile power uses each tile's DVFS level and its busy fraction from the
    /// modulo schedule; SRAM activity is the fraction of bank-cycles the
    /// kernel's loads/stores occupy per period; execution time is
    /// `iterations · II` base cycles at the nominal clock (the II is in
    /// base-clock cycles, so this holds regardless of island levels).
    pub fn account(
        dfg: &Dfg,
        mapping: &Mapping,
        model: &PowerModel,
        support: DvfsSupport,
        iterations: u64,
    ) -> EnergyBreakdown {
        let stats = FabricStats::analyze(mapping);
        let tiles_mw: f64 = stats
            .tiles()
            .iter()
            .map(|t| model.tile_power_mw(t.level, t.power_activity()))
            .sum();
        let cfg = mapping.config();
        let controllers = match support {
            DvfsSupport::None => 0,
            DvfsSupport::PerTile => cfg.tile_count(),
            DvfsSupport::PerIsland => cfg.island_count(),
        };
        let mem_ops = dfg.count_ops(|op| op.is_memory()) as f64;
        let sram_activity = mem_ops / (cfg.spm_banks() as f64 * mapping.ii() as f64).max(1.0);
        let base_clock_mhz = VfPoint::nominal().freq_mhz();
        let exec_time_us = iterations as f64 * mapping.ii() as f64 / base_clock_mhz;
        EnergyBreakdown {
            tiles_mw,
            controllers_mw: model.controllers_power_mw(controllers),
            sram_mw: model.sram_power_mw(sram_activity),
            exec_time_us,
            iterations,
        }
    }

    /// Total average power in mW (Equation 3 plus the tile sum).
    pub fn total_power_mw(&self) -> f64 {
        self.tiles_mw + self.controllers_mw + self.sram_mw
    }

    /// Total energy in nJ (Equation 4): `P × ExecTime`.
    pub fn energy_nj(&self) -> f64 {
        self.total_power_mw() * self.exec_time_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::CgraConfig;
    use iced_kernels::{Kernel, UnrollFactor};
    use iced_mapper::{
        map_baseline, map_dvfs_aware, power_gate_idle, relax_islands, relax_per_tile,
    };

    fn breakdowns(k: Kernel, uf: UnrollFactor) -> (f64, f64, f64, f64) {
        let cfg = CgraConfig::iced_prototype();
        let model = PowerModel::asap7();
        let dfg = k.dfg(uf);
        let base = map_baseline(&dfg, &cfg).unwrap();
        let iters = 1000;
        let p_base = EnergyBreakdown::account(&dfg, &base, &model, DvfsSupport::None, iters)
            .total_power_mw();
        let p_pg = EnergyBreakdown::account(
            &dfg,
            &power_gate_idle(&dfg, &base),
            &model,
            DvfsSupport::None,
            iters,
        )
        .total_power_mw();
        let p_pt = EnergyBreakdown::account(
            &dfg,
            &relax_per_tile(&dfg, &base),
            &model,
            DvfsSupport::PerTile,
            iters,
        )
        .total_power_mw();
        // Full ICED flow: Algorithm 2 plus the final island relaxation.
        let iced = relax_islands(&dfg, &map_dvfs_aware(&dfg, &cfg).unwrap());
        let p_iced = EnergyBreakdown::account(&dfg, &iced, &model, DvfsSupport::PerIsland, iters)
            .total_power_mw();
        (p_base, p_pg, p_pt, p_iced)
    }

    #[test]
    fn iced_beats_baseline_power_on_the_suite() {
        for k in [Kernel::Fir, Kernel::Spmv, Kernel::Histogram, Kernel::Mvt] {
            let (base, pg, _pt, iced) = breakdowns(k, UnrollFactor::X1);
            assert!(iced < base, "{}: iced {iced} vs base {base}", k.name());
            assert!(pg < base, "{}: pg {pg} vs base {base}", k.name());
        }
    }

    #[test]
    fn per_tile_controllers_cost_30_percent_of_the_array() {
        let (base, _pg, pt, iced) = breakdowns(Kernel::Fir, UnrollFactor::X1);
        // Per-tile DVFS saves tile power but pays 36 controllers; ICED pays 9.
        let model = PowerModel::asap7();
        assert!(pt > iced, "per-tile {pt} vs iced {iced}");
        let _ = base;
        assert!(model.controllers_power_mw(36) > 4.0 * model.controllers_power_mw(9) - 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let r = EnergyBreakdown {
            tiles_mw: 100.0,
            controllers_mw: 10.0,
            sram_mw: 40.0,
            exec_time_us: 2.0,
            iterations: 1,
        };
        assert!((r.total_power_mw() - 150.0).abs() < 1e-12);
        assert!((r.energy_nj() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_linearly_with_iterations() {
        let cfg = CgraConfig::iced_prototype();
        let model = PowerModel::asap7();
        let dfg = Kernel::Conv.dfg(UnrollFactor::X1);
        let m = map_baseline(&dfg, &cfg).unwrap();
        let e1 = EnergyBreakdown::account(&dfg, &m, &model, DvfsSupport::None, 100).energy_nj();
        let e2 = EnergyBreakdown::account(&dfg, &m, &model, DvfsSupport::None, 200).energy_nj();
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sram_activity_reflects_memory_intensity() {
        let cfg = CgraConfig::iced_prototype();
        let model = PowerModel::asap7();
        // fft has far more loads than fir.
        let d_small = Kernel::Fir.dfg(UnrollFactor::X1);
        let d_big = Kernel::Fft.dfg(UnrollFactor::X1);
        let m_small = map_baseline(&d_small, &cfg).unwrap();
        let m_big = map_baseline(&d_big, &cfg).unwrap();
        let b_small = EnergyBreakdown::account(&d_small, &m_small, &model, DvfsSupport::None, 1);
        let b_big = EnergyBreakdown::account(&d_big, &m_big, &model, DvfsSupport::None, 1);
        assert!(b_big.sram_mw > b_small.sram_mw);
    }
}
