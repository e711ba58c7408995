//! Trace-counter equivalence: the compiled engine must emit exactly the
//! observability surface the naive oracle does — same counter names, same
//! values — so dashboards and the perf-smoke job see no difference when
//! the fast path replaced the slow one.
//!
//! Lives in its own integration-test binary: the trace collector installs
//! once per process, and this test needs to own it.

use std::collections::HashMap;
use std::sync::Arc;

use iced_arch::CgraConfig;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::map_dvfs_aware;
use iced_sim::{run_engine, run_oracle};
use iced_trace::{Phase, RecordingCollector};

fn sim_totals(collector: &RecordingCollector) -> HashMap<String, u64> {
    collector
        .counter_totals()
        .into_iter()
        .filter(|(phase, _, _)| *phase == Phase::Sim)
        .map(|(_, name, total)| (name, total))
        .collect()
}

#[test]
fn engine_and_oracle_emit_identical_counters() {
    let collector = Arc::new(RecordingCollector::new());
    assert!(
        iced_trace::install(collector.clone()).is_ok(),
        "first install in this process"
    );

    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Conv.dfg(UnrollFactor::X1);
    let mapping = map_dvfs_aware(&dfg, &cfg).unwrap();

    run_oracle(&dfg, &mapping, 25, 11).unwrap();
    let after_oracle = sim_totals(&collector);
    assert!(
        after_oracle.contains_key("cycles") && after_oracle.contains_key("token_wait_cycles"),
        "oracle emitted no sim counters — tracing inactive?"
    );

    run_engine(&dfg, &mapping, 25, 11).unwrap();
    let after_both = sim_totals(&collector);

    // Totals are cumulative, so an identical emission doubles every
    // counter the oracle touched — and introduces no new names.
    assert_eq!(
        after_both.len(),
        after_oracle.len(),
        "engine emitted counters the oracle does not: {:?}",
        after_both
            .keys()
            .filter(|k| !after_oracle.contains_key(*k))
            .collect::<Vec<_>>()
    );
    for (name, oracle_total) in &after_oracle {
        assert_eq!(
            after_both.get(name),
            Some(&(oracle_total * 2)),
            "counter {name:?} diverged (oracle total {oracle_total})"
        );
    }

    // A run long enough for the engine to skip its steady-state band
    // must still emit what the oracle, which steps every cycle, does.
    run_oracle(&dfg, &mapping, 2_000, 11).unwrap();
    let after_long_oracle = sim_totals(&collector);
    run_engine(&dfg, &mapping, 2_000, 11).unwrap();
    let after_long_both = sim_totals(&collector);
    assert_eq!(after_long_both.len(), after_oracle.len());
    for (name, &total) in &after_long_oracle {
        let oracle_long = total - after_both.get(name).copied().unwrap_or(0);
        assert_eq!(
            after_long_both.get(name),
            Some(&(total + oracle_long)),
            "counter {name:?} diverged over 2,000 iterations (oracle {oracle_long})"
        );
    }
}
