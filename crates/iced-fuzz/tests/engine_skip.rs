//! The engine's steady-state skip over generated kernels.
//!
//! The suite's kernels carry values at most one iteration deep. Generated
//! kernels carry edges up to four deep, so their FIFOs hold tokens across
//! several periods, into the shorter run the skip finishes as. Over seed
//! sweeps, the skipping engine must return
//! the oracle's report at every run length around the skip's thresholds,
//! and the full loop's (the fault path with the empty plan, which steps
//! every period) at a long one.

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_fault::FaultPlan;
use iced_fuzz::{generate, GenOptions};
use iced_mapper::{map_dvfs_aware, Mapping};
use iced_sim::{run_engine, run_oracle, run_with_faults};

fn max_distance(dfg: &Dfg) -> u64 {
    dfg.edges()
        .map(|e| u64::from(e.kind().distance()))
        .max()
        .unwrap_or(0)
}

/// `seed`'s kernel and its DVFS-aware mapping, unless the generator or
/// the mapper rejects the seed.
fn mapped(seed: u64) -> Option<(Dfg, Mapping)> {
    let dfg = generate(seed, &GenOptions::default()).ok()?;
    let mapping = map_dvfs_aware(&dfg, &CgraConfig::iced_prototype()).ok()?;
    Some((dfg, mapping))
}

#[test]
fn skip_matches_the_oracle_around_every_threshold() {
    let (mut checked, mut far_carried) = (0, 0);
    for seed in 0..32u64 {
        let Some((dfg, mapping)) = mapped(seed) else {
            continue;
        };
        // A run skips once it spans about twice the periods one
        // iteration does; go well past that.
        let span = mapping.makespan() / u64::from(mapping.ii()) + max_distance(&dfg);
        for iters in 0..=3 * span + 8 {
            let fast = run_engine(&dfg, &mapping, iters, seed).unwrap();
            let slow = run_oracle(&dfg, &mapping, iters, seed).unwrap();
            assert_eq!(fast, slow, "seed {seed:#x}: iters={iters}");
        }
        checked += 1;
        far_carried += usize::from(max_distance(&dfg) >= 2);
    }
    assert!(checked >= 16, "only {checked} of 32 seeds mapped");
    assert!(far_carried > 0, "no kernel carried an edge ≥ 2 deep");
}

#[test]
fn skip_matches_the_full_loop_on_long_runs() {
    let plan = FaultPlan::empty();
    let mut checked = 0;
    for seed in 0..128u64 {
        let Some((dfg, mapping)) = mapped(seed) else {
            continue;
        };
        let fast = run_engine(&dfg, &mapping, 2_000, seed).unwrap();
        let full = run_with_faults(&dfg, &mapping, 2_000, seed, &plan).unwrap();
        assert_eq!(fast, full.report, "seed {seed:#x}");
        checked += 1;
    }
    assert!(checked >= 64, "only {checked} of 128 seeds mapped");
}
