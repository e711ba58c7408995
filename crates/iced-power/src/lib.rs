//! Analytical power, energy, area, and timing model for the ICED CGRA.
//!
//! The paper obtains power/area from a placed-and-routed 6×6 design in the
//! ASAP7 predictive PDK and SRAM numbers from CACTI 6.5 (§V-A); the
//! evaluation then combines those constants with per-tile activity from the
//! cycle-level simulation (Equations 2–4). This crate embeds the published
//! post-layout constants and implements those equations, so the benchmark
//! harness reproduces the figures the same way the paper does — cycle counts
//! and activities in, milliwatts out.
//!
//! Published anchors (paper §V-A):
//!
//! * 6×6 array without SRAM: 6.63 mm², 113.95 mW @ 0.7 V / 434 MHz;
//! * V/F levels: normal 0.7 V/434 MHz, relax 0.5 V/217 MHz,
//!   rest 0.42 V/108.5 MHz, plus power-gating;
//! * per-tile DVFS controller overhead: > 30 % of a tile (UE-CGRA);
//! * SRAM (32 KB, 8 banks, 22 nm CACTI): 0.559 mm², up to 62.653 mW.
//!
//! # Example
//!
//! ```
//! use iced_arch::DvfsLevel;
//! use iced_power::PowerModel;
//!
//! let model = PowerModel::asap7();
//! let busy = model.tile_power_mw(DvfsLevel::Normal, 1.0);
//! let rest = model.tile_power_mw(DvfsLevel::Rest, 1.0);
//! assert!(rest < 0.25 * busy); // V² scaling beats the 4x frequency drop alone
//! assert_eq!(model.tile_power_mw(DvfsLevel::PowerGated, 0.0), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod model;
mod transition;
mod vf;

pub use area::{AreaModel, Fig8Breakdown};
pub use model::PowerModel;
pub use transition::TransitionModel;
pub use vf::VfPoint;
