//! `ReferenceStream` against `interpret`, over generated kernels.
//!
//! The compiled engine checks every computed value against the streaming
//! reference, so the stream must reproduce the materialised interpreter
//! frame for frame: across prologues of carried edges (distance ≥ 2
//! included), multi-input Phi nodes, and every lookback the caller may
//! ask for. Reads go back and forth inside the lookback window the way
//! the engine's do, and a frame older than the window must still panic
//! rather than return a recycled slot.

use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use iced_dfg::{Dfg, Opcode};
use iced_fuzz::{generate, GenOptions};
use iced_sim::functional::{interpret, ReferenceStream};
use proptest::prelude::*;

const ITERATIONS: u64 = 40;

/// Keeps the expected retired-frame panics out of the test output; every
/// other panic still reaches the default hook.
fn quiet_retired_frame_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map_or("", String::as_str);
            if !msg.contains("already retired") {
                default(info);
            }
        }));
    });
}

/// Checks the stream over `seed`'s kernel at `lookback`. Returns whether
/// the kernel has a carried edge of distance ≥ 2 and a Phi with more than
/// one input; `None` when the generator rejects the seed.
fn check(seed: u64, lookback: u64) -> Option<(bool, bool)> {
    quiet_retired_frame_panics();
    let dfg = generate(seed, &GenOptions::default()).ok()?;
    let trace = interpret(&dfg, ITERATIONS, seed);
    let mut stream = ReferenceStream::new(&dfg, seed, lookback);
    for i in 0..ITERATIONS {
        assert_eq!(
            stream.frame(i),
            &trace[i as usize][..],
            "seed {seed:#x} frame {i}"
        );
        // Every frame inside the lookback window is still readable, newest
        // first, then oldest first.
        let oldest = i.saturating_sub(lookback);
        for j in (oldest..=i).rev().chain(oldest..=i) {
            assert_eq!(
                stream.frame(j),
                &trace[j as usize][..],
                "seed {seed:#x} lookback {lookback}: frame {j} read at {i}"
            );
        }
        for node in dfg.node_ids() {
            assert_eq!(
                stream.value(node, oldest),
                trace[oldest as usize][node.index()],
                "seed {seed:#x}: {node} in iteration {oldest}"
            );
        }
    }
    // The ring holds fewer than twice the window, so a frame that far back
    // has been retired.
    let window = max_distance(&dfg).max(lookback) + 1;
    if let Some(retired) = (ITERATIONS - 1).checked_sub(2 * window) {
        let read = catch_unwind(AssertUnwindSafe(|| stream.frame(retired).to_vec()));
        assert!(
            read.is_err(),
            "seed {seed:#x} lookback {lookback}: retired frame {retired} was readable"
        );
    }
    Some((max_distance(&dfg) >= 2, has_multi_input_phi(&dfg)))
}

fn max_distance(dfg: &Dfg) -> u64 {
    dfg.edges()
        .map(|e| u64::from(e.kind().distance()))
        .max()
        .unwrap_or(0)
}

fn has_multi_input_phi(dfg: &Dfg) -> bool {
    dfg.nodes()
        .any(|n| n.op() == Opcode::Phi && dfg.in_edges(n.id()).count() >= 2)
}

#[test]
fn stream_matches_interpret_over_a_seed_sweep() {
    let (mut far_carried, mut multi_input_phi) = (0, 0);
    for seed in 0..64u64 {
        for lookback in [0, 1, 3, 7] {
            if let Some((far, phi)) = check(seed, lookback) {
                far_carried += usize::from(far);
                multi_input_phi += usize::from(phi);
            }
        }
    }
    assert!(far_carried > 0, "no kernel carried an edge ≥ 2 deep");
    assert!(multi_input_phi > 0, "no kernel had a multi-input Phi");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_matches_interpret(seed in any::<u64>(), lookback in 0u64..12) {
        check(seed, lookback);
    }
}
