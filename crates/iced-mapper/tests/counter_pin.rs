//! Pins the serial mapper's search-effort counters over Table I.
//!
//! The 21 Table I kernels at ×1 and ×2, each mapped DVFS-aware and by the
//! baseline at one thread. The router counts only into the process-wide
//! collector, which installs once per process, so this file is its own
//! test binary with a single test. The attempt
//! counters (`ii_attempts`, `label_attempts`) follow from which attempts
//! map, so they move only with a mapping; the work counters
//! (`commit_aborts`, `doomed_attempts`, and the router's
//! `routes_requested` and `dijkstra_expansions`) move when the mapper
//! gives up failing work earlier or later. A debug build runs each doomed
//! attempt on to check that it fails, untraced, so both profiles read the
//! same totals.

use std::sync::Arc;

use iced_arch::CgraConfig;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_with, MapperOptions};
use iced_trace::{Phase, RecordingCollector};

/// `(ii_attempts, label_attempts, commit_aborts, doomed_attempts,
/// routes_requested, dijkstra_expansions)` over the corpus.
type Totals = [u64; 6];

fn read(rec: &RecordingCollector) -> Totals {
    [
        rec.counter_total(Phase::Mapper, "ii_attempts"),
        rec.counter_total(Phase::Mapper, "label_attempts"),
        rec.counter_total(Phase::Mapper, "commit_aborts"),
        rec.counter_total(Phase::Mapper, "doomed_attempts"),
        rec.counter_total(Phase::Router, "routes_requested"),
        rec.counter_total(Phase::Router, "dijkstra_expansions"),
    ]
}

/// The counters mapping the corpus with `base` at one thread adds.
fn totals(rec: &RecordingCollector, base: &MapperOptions) -> Totals {
    let before = read(rec);
    let cfg = CgraConfig::iced_prototype();
    for kernel in Kernel::ALL {
        for unroll in UnrollFactor::ALL {
            let dfg = kernel.dfg(unroll);
            let opts = MapperOptions {
                threads: 1,
                ..base.clone()
            };
            map_with(&dfg, &cfg, &opts).unwrap_or_else(|e| panic!("{}: {e}", dfg.name()));
        }
    }
    let after = read(rec);
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn table1_search_counters_are_pinned() {
    let rec = Arc::new(RecordingCollector::new());
    assert!(
        iced_trace::install(rec.clone()).is_ok(),
        "first install in this process"
    );
    assert_eq!(
        totals(&rec, &MapperOptions::default()),
        [96, 275, 3401, 179, 11815, 394151],
        "DVFS-aware"
    );
    assert_eq!(
        totals(&rec, &MapperOptions::baseline()),
        [186, 186, 311, 136, 5096, 110655],
        "baseline"
    );
}
