//! Search-effort regression guard: total Dijkstra expansions for mapping
//! the standalone kernel suite must stay under a recorded ceiling. This
//! catches accidental search-space blowups (e.g. a router key change that
//! silently degrades the bucket queue to breadth-first flooding) that the
//! result-equality tests cannot see.
//!
//! Lives in its own integration-test binary: the trace collector installs
//! once per process, and this test needs to own it.

use std::sync::Arc;

use iced_arch::CgraConfig;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_with, MapperOptions};
use iced_trace::{Phase, RecordingCollector};

/// Measured 2026-10: 117,133 expansions for the 10-kernel suite across
/// both option sets (serial), once the placer stopped routing in-edges for
/// candidates whose out-routes cannot meet their deadlines (146,307 before
/// that, with modulo-phase dominance in the router; 474,653 with the
/// goal-bounded router alone; 586,460 before that). The ceiling leaves
/// ~25 % headroom for benign drift; raise it deliberately — with a note —
/// if the mapper's search genuinely needs to grow.
const EXPANSION_CEILING: u64 = 146_000;

#[test]
fn suite_expansions_stay_under_ceiling() {
    let collector = Arc::new(RecordingCollector::new());
    assert!(
        iced_trace::install(collector.clone()).is_ok(),
        "first install in this process"
    );

    let cfg = CgraConfig::iced_prototype();
    for base in [MapperOptions::baseline(), MapperOptions::default()] {
        for kernel in Kernel::STANDALONE {
            let dfg = kernel.dfg(UnrollFactor::X1);
            map_with(
                &dfg,
                &cfg,
                &MapperOptions {
                    threads: 1,
                    ..base.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        }
    }

    let expansions = collector.counter_total(Phase::Router, "dijkstra_expansions");
    assert!(expansions > 0, "tracing was not active");
    assert!(
        expansions <= EXPANSION_CEILING,
        "suite needed {expansions} Dijkstra expansions (ceiling {EXPANSION_CEILING}) — \
         the router search space regressed"
    );
}
