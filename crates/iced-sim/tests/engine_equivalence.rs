//! Compiled engine vs. naive oracle: the whole equivalence matrix.
//!
//! The compiled periodic-event-table engine must return an `EngineReport`
//! **equal** to the preserved naive engine (`run_oracle`) for every
//! standalone kernel, both mappers, the service's relaxed strategies, and
//! both unroll factors — cycles, per-tile busy vectors, fifo peak and op
//! counts, bit for bit. A second
//! test pins the observed FIFO peak to the analytic per-edge capacity
//! bound, and a third proves the engine's memory does not scale with the
//! iteration count by completing a million-iteration run that would need
//! hundreds of megabytes under the oracle's materialise-everything scheme.
//! A fourth compares at every run length up to 64 iterations, across
//! each threshold of the engine's steady-state skip.

use iced_arch::CgraConfig;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{
    map_baseline, map_dvfs_aware, power_gate_idle, relax_islands, relax_per_tile, Mapping,
};
use iced_sim::{edge_fifo_depths, run_engine, run_oracle};

fn suite_mappings(cfg: &CgraConfig, uf: UnrollFactor) -> Vec<(String, iced_dfg::Dfg, Mapping)> {
    let mut out = Vec::new();
    for k in Kernel::STANDALONE {
        let dfg = k.dfg(uf);
        let base = map_baseline(&dfg, cfg).unwrap();
        let dvfs = map_dvfs_aware(&dfg, cfg).unwrap();
        // The service's strategies: the relaxed post-passes over the two
        // mappers, which the cluster-churn workload simulates.
        for (policy, mapping) in [
            ("relax_islands", relax_islands(&dfg, &dvfs)),
            ("relax_per_tile", relax_per_tile(&dfg, &base)),
            ("power_gate_idle", power_gate_idle(&dfg, &base)),
            ("baseline", base),
            ("dvfs", dvfs),
        ] {
            out.push((
                format!("{} {uf:?} {policy}", k.name()),
                dfg.clone(),
                mapping,
            ));
        }
    }
    out
}

#[test]
fn reports_are_bit_identical_across_the_matrix() {
    let cfg = CgraConfig::iced_prototype();
    for uf in [UnrollFactor::X1, UnrollFactor::X2] {
        for (label, dfg, mapping) in suite_mappings(&cfg, uf) {
            // A few dozen iterations covers prologue, steady state, and
            // epilogue for every suite schedule; two seeds guard against
            // value-path coincidences.
            for (iters, seed) in [(1u64, 7u64), (13, 42), (40, 99)] {
                let fast = run_engine(&dfg, &mapping, iters, seed)
                    .unwrap_or_else(|e| panic!("{label} engine: {e}"));
                let slow = run_oracle(&dfg, &mapping, iters, seed)
                    .unwrap_or_else(|e| panic!("{label} oracle: {e}"));
                assert_eq!(fast, slow, "{label}: iters={iters} seed={seed}");
            }
        }
    }
}

#[test]
fn every_skip_threshold_matches_the_oracle() {
    // Every short run length: no skip, a skip of one or two periods, and
    // each distance between the verified period and the epilogue.
    let cfg = CgraConfig::iced_prototype();
    for k in [Kernel::Fir, Kernel::Conv] {
        for uf in [UnrollFactor::X1, UnrollFactor::X2] {
            let dfg = k.dfg(uf);
            for mapping in [
                map_baseline(&dfg, &cfg).unwrap(),
                map_dvfs_aware(&dfg, &cfg).unwrap(),
            ] {
                for iters in 0..=64u64 {
                    let fast = run_engine(&dfg, &mapping, iters, 23).unwrap();
                    let slow = run_oracle(&dfg, &mapping, iters, 23).unwrap();
                    assert_eq!(fast, slow, "{} {uf:?}: iters={iters}", k.name());
                }
            }
        }
    }
}

#[test]
fn fifo_peak_matches_analytic_capacity_bound() {
    let cfg = CgraConfig::iced_prototype();
    for (label, dfg, mapping) in suite_mappings(&cfg, UnrollFactor::X1) {
        let bound = edge_fifo_depths(&dfg, &mapping)
            .into_iter()
            .max()
            .unwrap_or(0);
        let report = run_engine(&dfg, &mapping, 48, 3).unwrap();
        assert_eq!(report.fifo_peak as u64, bound, "{label}");
    }
}

#[test]
fn long_runs_complete_with_flat_memory() {
    // The acceptance bar: a million iterations without materialising any
    // per-iteration structure. Under the oracle this run would allocate a
    // full reference trace plus a timeline entry per event×iteration; the
    // compiled engine holds only the fabric- and DFG-sized state, so this
    // completes in seconds; the steady-state skip makes it fast in debug
    // builds too.
    let iters: u64 = 1_000_000;
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
    let mapping = map_dvfs_aware(&dfg, &cfg).unwrap();
    let report = run_engine(&dfg, &mapping, iters, 17).unwrap();
    assert_eq!(report.iterations, iters);
    assert_eq!(report.ops_executed, iters * dfg.node_count() as u64);
    assert_eq!(
        report.cycles,
        mapping.makespan() + iters * u64::from(mapping.ii()) + 1
    );
}
