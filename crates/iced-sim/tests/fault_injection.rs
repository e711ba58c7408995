//! Fault-injected simulation: SEU upsets must be deterministic, recovered
//! without failing the run, accounted in the report, and — with an empty
//! plan — the fault path must stay bit-identical to the clean engine.

use iced_arch::CgraConfig;
use iced_fault::{FaultPlan, SeuRates};
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_baseline, map_dvfs_aware, relax_islands};
use iced_sim::{run_engine, run_with_faults};
use proptest::prelude::*;

fn seu_plan(seed: u64, scale: u32) -> FaultPlan {
    FaultPlan {
        seed,
        permanent: Vec::new(),
        seu: SeuRates {
            normal_per_million: 2_000 * scale,
            relax_per_million: 8_000 * scale,
            rest_per_million: 16_000 * scale,
        },
        midrun: Vec::new(),
    }
}

#[test]
fn empty_plan_is_bit_identical_to_clean_run() {
    let cfg = CgraConfig::iced_prototype();
    let plan = FaultPlan::empty();
    for k in Kernel::STANDALONE {
        let dfg = k.dfg(UnrollFactor::X1);
        for mapping in [
            map_baseline(&dfg, &cfg).unwrap(),
            map_dvfs_aware(&dfg, &cfg).unwrap(),
        ] {
            let clean = run_engine(&dfg, &mapping, 24, 7).unwrap();
            let faulty = run_with_faults(&dfg, &mapping, 24, 7, &plan)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert_eq!(clean, faulty.report, "{}", k.name());
            assert_eq!(faulty.upsets_injected, 0, "{}", k.name());
            assert_eq!(faulty.rollbacks, 0, "{}", k.name());
            assert_eq!(faulty.recovery_cycles, 0, "{}", k.name());
            assert_eq!(faulty.recovery_overhead(), 0.0, "{}", k.name());
        }
    }
}

#[test]
fn steady_state_skip_matches_the_full_loop_at_long_counts() {
    // The fault path steps every period, so with an empty plan its report
    // is the full loop's; the clean engine skips the proven-periodic band.
    let cfg = CgraConfig::iced_prototype();
    let plan = FaultPlan::empty();
    let full = |dfg: &iced_dfg::Dfg, mapping: &iced_mapper::Mapping, iters: u64, seed: u64| {
        run_with_faults(dfg, mapping, iters, seed, &plan)
            .unwrap()
            .report
    };
    // The cluster-churn workload's kernels and run length, on ICED
    // island mappings.
    for k in [
        Kernel::Relu,
        Kernel::Histogram,
        Kernel::LuInit,
        Kernel::LuInvert,
        Kernel::GcnPooling,
        Kernel::Conv,
    ] {
        let dfg = k.dfg(UnrollFactor::X1);
        let mapping = relax_islands(&dfg, &map_dvfs_aware(&dfg, &cfg).unwrap());
        let skipped = run_engine(&dfg, &mapping, 20_000, 31).unwrap();
        assert_eq!(skipped, full(&dfg, &mapping, 20_000, 31), "{}", k.name());
    }
    for k in Kernel::STANDALONE {
        let dfg = k.dfg(UnrollFactor::X1);
        for mapping in [
            map_baseline(&dfg, &cfg).unwrap(),
            map_dvfs_aware(&dfg, &cfg).unwrap(),
        ] {
            let skipped = run_engine(&dfg, &mapping, 500, 8).unwrap();
            assert_eq!(skipped, full(&dfg, &mapping, 500, 8), "{}", k.name());
        }
    }
}

#[test]
fn injected_upsets_are_recovered_not_fatal() {
    // A hot SEU plan over a long run must inject, recover every upset, and
    // still complete with the clean report's op count — the machine state
    // after each rollback is the reference state.
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
    let mapping = map_dvfs_aware(&dfg, &cfg).unwrap();
    let plan = seu_plan(0xBEEF, 8);
    let r = run_with_faults(&dfg, &mapping, 256, 11, &plan).unwrap();
    assert!(
        r.upsets_injected > 0,
        "hot plan must hit a 256-iteration run"
    );
    assert_eq!(r.upsets_detected, r.upsets_injected);
    assert_eq!(r.rollbacks, r.upsets_injected);
    assert_eq!(r.recovery_cycles, r.rollbacks * mapping.makespan());
    assert!(r.recovery_overhead() > 0.0 && r.recovery_overhead() < 1.0);
    // Recovery never loses work: same ops and cycles as the clean machine.
    let clean = run_engine(&dfg, &mapping, 256, 11).unwrap();
    assert_eq!(r.report.ops_executed, clean.ops_executed);
    assert_eq!(r.report.cycles, clean.cycles);
}

#[test]
fn slowed_tiles_fault_more_than_normal_tiles() {
    // The per-level rates (rest > relax > normal) must show up in the
    // aggregate: the same kernel under the DVFS-aware mapper (which slows
    // islands) collects at least as many upsets as under the all-normal
    // baseline, because every slowed tile rolls with a higher rate.
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Latnrm.dfg(UnrollFactor::X1);
    let base = map_baseline(&dfg, &cfg).unwrap();
    let dvfs = map_dvfs_aware(&dfg, &cfg).unwrap();
    let mut base_total = 0u64;
    let mut dvfs_total = 0u64;
    for seed in 0..8u64 {
        let plan = seu_plan(seed, 4);
        base_total += run_with_faults(&dfg, &base, 200, 3, &plan)
            .unwrap()
            .upsets_injected;
        dvfs_total += run_with_faults(&dfg, &dvfs, 200, 3, &plan)
            .unwrap()
            .upsets_injected;
    }
    assert!(
        dvfs_total > base_total,
        "slowed fabric must absorb more upsets ({dvfs_total} vs {base_total})"
    );
}

#[test]
fn mismatched_kernel_and_mapping_is_a_typed_error() {
    // A mapping paired with a different kernel's DFG (the shape an
    // untrusted service caller can produce) must fail up front with
    // KernelMismatch, not panic on an out-of-bounds placement index.
    let cfg = CgraConfig::iced_prototype();
    let fir = Kernel::Fir.dfg(UnrollFactor::X1);
    let fft = Kernel::Fft.dfg(UnrollFactor::X1);
    let mapping = map_baseline(&fir, &cfg).unwrap();
    let err = run_engine(&fft, &mapping, 4, 1).unwrap_err();
    match err {
        iced_sim::EngineError::KernelMismatch { nodes, placements } => {
            assert_eq!(nodes, fft.node_count());
            assert_eq!(placements, fir.node_count());
        }
        other => panic!("expected KernelMismatch, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full fault-sim report replays byte-identically under the same
    /// (plan, kernel, mapping, seed) — the recovery trace is part of the
    /// determinism contract.
    #[test]
    fn fault_runs_replay_bit_identically(plan_seed in any::<u64>(), sim_seed in any::<u64>()) {
        let cfg = CgraConfig::iced_prototype();
        let dfg = Kernel::Spmv.dfg(UnrollFactor::X1);
        let mapping = map_dvfs_aware(&dfg, &cfg).unwrap();
        let plan = seu_plan(plan_seed, 6);
        let a = run_with_faults(&dfg, &mapping, 64, sim_seed, &plan).unwrap();
        let b = run_with_faults(&dfg, &mapping, 64, sim_seed, &plan).unwrap();
        prop_assert_eq!(a, b);
    }
}
