//! End-to-end integration: every Table I kernel through the full toolchain,
//! every strategy, with schedule validation, and a run of each mapping on
//! the cycle-stepped engine, which compares every fired value with the
//! reference interpreter.

use iced::kernels::{Kernel, UnrollFactor};
use iced::sim::{run_engine, validate_schedule};
use iced::{Strategy, Toolchain};

#[test]
fn every_kernel_compiles_and_validates_under_every_strategy() {
    let tc = Toolchain::prototype();
    for kernel in Kernel::ALL {
        let dfg = kernel.dfg(UnrollFactor::X1);
        for strategy in Strategy::ALL {
            let c = tc
                .compile(&dfg, strategy)
                .unwrap_or_else(|e| panic!("{} {}: {e}", kernel.name(), strategy.name()));
            validate_schedule(&dfg, c.mapping())
                .unwrap_or_else(|e| panic!("{} {}: {e}", kernel.name(), strategy.name()));
        }
    }
}

#[test]
fn unrolled_kernels_compile_and_validate() {
    let tc = Toolchain::prototype();
    for kernel in Kernel::STANDALONE {
        let dfg = kernel.dfg(UnrollFactor::X2);
        for strategy in [Strategy::Baseline, Strategy::IcedIslands] {
            let c = tc
                .compile(&dfg, strategy)
                .unwrap_or_else(|e| panic!("{} x2 {}: {e}", kernel.name(), strategy.name()));
            validate_schedule(&dfg, c.mapping())
                .unwrap_or_else(|e| panic!("{} x2 {}: {e}", kernel.name(), strategy.name()));
        }
    }
}

#[test]
fn iced_never_slower_than_baseline() {
    // The Fig. 4 property at the prototype's 2×2 island size.
    let tc = Toolchain::prototype();
    for kernel in Kernel::STANDALONE {
        for uf in UnrollFactor::ALL {
            let dfg = kernel.dfg(uf);
            let base = tc.compile(&dfg, Strategy::Baseline).unwrap();
            let iced = tc.compile(&dfg, Strategy::IcedIslands).unwrap();
            assert!(
                iced.mapping().ii() <= base.mapping().ii(),
                "{} {uf:?}: iced II {} > baseline II {}",
                kernel.name(),
                iced.mapping().ii(),
                base.mapping().ii()
            );
        }
    }
}

#[test]
fn engine_reproduces_reference_values_for_all_mapped_kernels() {
    let tc = Toolchain::prototype();
    for kernel in Kernel::STANDALONE {
        let dfg = kernel.dfg(UnrollFactor::X1);
        for strategy in [Strategy::Baseline, Strategy::IcedIslands] {
            let c = tc.compile(&dfg, strategy).unwrap();
            let report = run_engine(&dfg, c.mapping(), 24, 1234)
                .unwrap_or_else(|e| panic!("{} {}: {e}", kernel.name(), strategy.name()));
            // Every firing went through the engine's value comparison.
            assert_eq!(
                report.ops_executed,
                dfg.node_count() as u64 * 24,
                "{} {}",
                kernel.name(),
                strategy.name()
            );
        }
    }
}

#[test]
fn iced_always_improves_utilization_and_power_over_baseline() {
    let tc = Toolchain::prototype();
    let iters = 4096;
    for kernel in Kernel::STANDALONE {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let base = tc.compile(&dfg, Strategy::Baseline).unwrap();
        let iced = tc.compile(&dfg, Strategy::IcedIslands).unwrap();
        assert!(
            iced.average_utilization() >= base.average_utilization(),
            "{}: util {:.3} vs {:.3}",
            kernel.name(),
            iced.average_utilization(),
            base.average_utilization()
        );
        // Per-kernel energy: ICED wins broadly; a kernel that falls back
        // to the conventional mapping may pay the island-controller
        // overhead, so allow a small per-kernel slack. The suite-average
        // claim (1.32x) is asserted in `paper_claims.rs`.
        let e_base = base.energy(iters).energy_nj();
        let e_iced = iced.energy(iters).energy_nj();
        assert!(
            e_iced < e_base * 1.15,
            "{}: iced energy {:.1} vs baseline {:.1}",
            kernel.name(),
            e_iced,
            e_base
        );
    }
}

#[test]
fn memory_ops_always_sit_on_spm_column() {
    let tc = Toolchain::prototype();
    for kernel in [Kernel::Fft, Kernel::Histogram, Kernel::LuSolver1] {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let c = tc.compile(&dfg, Strategy::IcedIslands).unwrap();
        for node in dfg.nodes() {
            if node.op().is_memory() {
                let p = c.mapping().placement(node.id());
                assert!(
                    tc.config().is_memory_tile(p.tile),
                    "{}: {} on {}",
                    kernel.name(),
                    node.label(),
                    p.tile
                );
            }
        }
    }
}

#[test]
fn works_across_fabric_sizes() {
    for n in [4usize, 6, 8] {
        let tc = Toolchain::new(iced::arch::CgraConfig::square(n).unwrap());
        let dfg = Kernel::Spmv.dfg(UnrollFactor::X1);
        let c = tc.compile(&dfg, Strategy::IcedIslands).unwrap();
        validate_schedule(&dfg, c.mapping()).unwrap_or_else(|e| panic!("{n}x{n}: {e}"));
        // Bigger fabrics never increase the II.
        assert!(c.mapping().ii() <= 8, "{n}x{n}: II {}", c.mapping().ii());
    }
}
