//! Power and energy model (Equations 2–4 of the paper).

use iced_arch::DvfsLevel;

use crate::vf::VfPoint;

/// Power model of one ICED CGRA instance, calibrated against the paper's
/// ASAP7 post-layout numbers.
///
/// Per-tile power at voltage `V`, frequency `f`, and FU/crossbar activity
/// `a ∈ [0, 1]` (measured in the tile's own clock domain) follows
/// Equation (2):
///
/// ```text
/// P(tile) = C·V²·f·(clk + (1 − clk)·a)  +  P_static(V)
/// ```
///
/// where `clk` is the clock-tree share of dynamic power — an un-gated tile
/// keeps toggling its clock network even when idle, which is precisely the
/// waste DVFS and power-gating attack. `P_static(V)` scales quadratically
/// with voltage (a standard near-threshold leakage fit); a power-gated tile
/// consumes nothing. The effective capacitance `C` is calibrated so that a
/// fully-active 6×6 array at nominal V/F draws the published 113.95 mW.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    tile_dynamic_nominal_mw: f64,
    tile_static_nominal_mw: f64,
    clock_tree_fraction: f64,
    controller_power_mw: f64,
    sram_max_power_mw: f64,
    sram_static_fraction: f64,
}

/// Published average power of the 6×6 array (no SRAM) at nominal V/F.
pub const ARRAY_NOMINAL_POWER_MW: f64 = 113.95;
/// Tiles in the published layout.
pub const ARRAY_TILE_COUNT: f64 = 36.0;
/// Peak power of the 32 KB / 8-bank SRAM (CACTI 6.5, 22 nm).
pub const SRAM_MAX_POWER_MW: f64 = 62.653;

impl PowerModel {
    /// The calibration used throughout the evaluation: ASAP7 post-layout
    /// anchors, a 95 % dynamic / 5 % static split at nominal (FinFET
    /// leakage is small), a 15 % residual clock share when idle (clock
    /// gating leaves the local clock spine toggling — this sets how much a
    /// power-gating-only design can still save, the paper's 1.12×), a 20 %
    /// SRAM static share, and a DVFS controller (LDO + ADPLL + control
    /// unit) costing 30 % of a nominal tile (UE-CGRA's published overhead).
    /// The fractions are fixed calibration constants; the numbers they
    /// produce are pinned through Figs. 8 and 11 in `BENCH_figures.json`
    /// (`cargo run --release -p iced-bench --bin figures`).
    pub fn asap7() -> Self {
        PowerModel::with_fractions(0.05, 0.15, 0.20)
    }

    /// A custom calibration: `static_fraction` of nominal tile power is
    /// leakage, `clock_fraction` of dynamic power persists when idle, and
    /// `sram_static_fraction` of SRAM peak power persists at zero activity.
    /// Used by sensitivity studies; the evaluation uses
    /// [`PowerModel::asap7`].
    pub fn with_fractions(
        static_fraction: f64,
        clock_fraction: f64,
        sram_static_fraction: f64,
    ) -> Self {
        let tile_nominal = ARRAY_NOMINAL_POWER_MW / ARRAY_TILE_COUNT;
        let sf = static_fraction.clamp(0.0, 1.0);
        PowerModel {
            tile_dynamic_nominal_mw: (1.0 - sf) * tile_nominal,
            tile_static_nominal_mw: sf * tile_nominal,
            clock_tree_fraction: clock_fraction.clamp(0.0, 1.0),
            controller_power_mw: 0.30 * tile_nominal,
            sram_max_power_mw: SRAM_MAX_POWER_MW,
            sram_static_fraction: sram_static_fraction.clamp(0.0, 1.0),
        }
    }

    /// Average power of one tile at `level` with activity `activity`
    /// (Equation 2). Activity is clamped to `[0, 1]`.
    pub fn tile_power_mw(&self, level: DvfsLevel, activity: f64) -> f64 {
        let Some(vf) = VfPoint::of(level) else {
            return 0.0; // power-gated
        };
        let a = activity.clamp(0.0, 1.0);
        let nominal = VfPoint::nominal();
        let v_ratio = vf.voltage_v() / nominal.voltage_v();
        let f_ratio = vf.freq_mhz() / nominal.freq_mhz();
        let dynamic = self.tile_dynamic_nominal_mw
            * v_ratio.powi(2)
            * f_ratio
            * (self.clock_tree_fraction + (1.0 - self.clock_tree_fraction) * a);
        let static_p = self.tile_static_nominal_mw * v_ratio.powi(2);
        dynamic + static_p
    }

    /// Power of `n` DVFS controllers (one per island; `n = tiles` for the
    /// per-tile comparator, `0` for the no-DVFS baseline). Part of
    /// `P_non_tile` in Equation (3).
    pub fn controllers_power_mw(&self, n: usize) -> f64 {
        self.controller_power_mw * n as f64
    }

    /// SRAM power at access activity `a ∈ [0, 1]` (Equation 3's
    /// `P_SRAM`): static share plus activity-scaled dynamic share.
    pub fn sram_power_mw(&self, activity: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        self.sram_max_power_mw * (self.sram_static_fraction + (1.0 - self.sram_static_fraction) * a)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::asap7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_array_matches_published_nominal_power() {
        let m = PowerModel::asap7();
        let p = ARRAY_TILE_COUNT * m.tile_power_mw(DvfsLevel::Normal, 1.0);
        assert!((p - ARRAY_NOMINAL_POWER_MW).abs() < 1e-9);
    }

    #[test]
    fn levels_are_strictly_cheaper_when_slower() {
        let m = PowerModel::asap7();
        for a in [0.0, 0.5, 1.0] {
            let n = m.tile_power_mw(DvfsLevel::Normal, a);
            let rl = m.tile_power_mw(DvfsLevel::Relax, a);
            let rs = m.tile_power_mw(DvfsLevel::Rest, a);
            assert!(n > rl && rl > rs && rs > 0.0, "activity {a}");
        }
        assert_eq!(m.tile_power_mw(DvfsLevel::PowerGated, 1.0), 0.0);
    }

    #[test]
    fn idle_tile_burns_residual_clock_and_leakage_only() {
        let m = PowerModel::asap7();
        let idle = m.tile_power_mw(DvfsLevel::Normal, 0.0);
        let busy = m.tile_power_mw(DvfsLevel::Normal, 1.0);
        // Clock-gated idle tiles are leakage-dominated: a small but
        // non-zero fraction of busy power.
        assert!(idle > 0.05 * busy);
        assert!(idle < 0.3 * busy);
    }

    #[test]
    fn activity_is_clamped() {
        let m = PowerModel::asap7();
        assert_eq!(
            m.tile_power_mw(DvfsLevel::Normal, 2.0),
            m.tile_power_mw(DvfsLevel::Normal, 1.0)
        );
        assert_eq!(
            m.tile_power_mw(DvfsLevel::Normal, -1.0),
            m.tile_power_mw(DvfsLevel::Normal, 0.0)
        );
    }

    #[test]
    fn per_tile_controller_overhead_is_30_percent() {
        let m = PowerModel::asap7();
        let per_tile_over = m.controllers_power_mw(36);
        assert!((per_tile_over / ARRAY_NOMINAL_POWER_MW - 0.30).abs() < 1e-9);
        // Island controllers (9) cost a quarter of that.
        assert!((m.controllers_power_mw(9) * 4.0 - per_tile_over).abs() < 1e-9);
    }

    #[test]
    fn sram_power_spans_static_to_max() {
        let m = PowerModel::asap7();
        assert!(m.sram_power_mw(0.0) > 0.0);
        assert!((m.sram_power_mw(1.0) - SRAM_MAX_POWER_MW).abs() < 1e-9);
        assert!(m.sram_power_mw(0.5) < SRAM_MAX_POWER_MW);
    }
}
