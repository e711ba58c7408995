//! The first error on an invalid mapping, pinned.
//!
//! Each test tampers with one valid suite mapping through
//! `Mapping::assemble`, so exactly one event breaks one machine rule, and
//! every earlier event is still legal. The engine must return that
//! rule's error variant, naming the exact tile or edge and the base cycle
//! of the broken event. The naive oracle must return the same error.

use iced_arch::{CgraConfig, Dir};
use iced_dfg::Dfg;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_baseline, map_dvfs_aware, Hop, Mapping, Placement, Route};
use iced_sim::{run_engine, run_oracle, EngineError};

const ITERATIONS: u64 = 8;

fn suite() -> Vec<(String, Dfg, Mapping)> {
    let cfg = CgraConfig::iced_prototype();
    let mut out = Vec::new();
    for k in [Kernel::Fir, Kernel::Conv, Kernel::Gemm, Kernel::Histogram] {
        let dfg = k.dfg(UnrollFactor::X1);
        for (policy, mapping) in [
            ("baseline", map_baseline(&dfg, &cfg).unwrap()),
            ("dvfs", map_dvfs_aware(&dfg, &cfg).unwrap()),
        ] {
            out.push((format!("{} {policy}", k.name()), dfg.clone(), mapping));
        }
    }
    out
}

/// `mapping` with its placements and routes replaced.
fn tampered(mapping: &Mapping, placements: Vec<Placement>, routes: Vec<Route>) -> Mapping {
    let cfg = mapping.config().clone();
    let islands = cfg.islands().map(|i| mapping.island_level(i)).collect();
    let tiles = cfg.tiles().map(|t| mapping.tile_level(t)).collect();
    Mapping::assemble(
        mapping.kernel().to_string(),
        cfg,
        mapping.ii(),
        placements,
        routes,
        islands,
        tiles,
    )
}

/// Runs both machines on a tampered mapping: each must return `expected`.
fn assert_first_error(label: &str, dfg: &Dfg, bad: &Mapping, expected: EngineError) {
    let got = run_engine(dfg, bad, ITERATIONS, 5);
    assert_eq!(got, Err(expected.clone()), "{label}: engine");
    // A single broken event leaves no same-cycle tie, so the oracle names
    // the same culprit.
    let oracle = run_oracle(dfg, bad, ITERATIONS, 5);
    assert_eq!(oracle, Err(expected), "{label}: oracle");
}

/// Node `a` and a later node `b` that starts no earlier: moving `b` onto
/// `a`'s tile and start leaves every event before `a.start` untouched,
/// and within that cycle `b` fires after `a`.
fn colliding_pair(ps: &[Placement]) -> Option<(usize, usize)> {
    (0..ps.len())
        .flat_map(|a| (a + 1..ps.len()).map(move |b| (a, b)))
        .find(|&(a, b)| ps[b].start >= ps[a].start)
}

#[test]
fn two_firings_in_one_fu_window_is_a_fu_collision() {
    let mut cases = 0;
    for (label, dfg, mapping) in suite() {
        let ps = mapping.placements();
        let Some((a, b)) = colliding_pair(ps) else {
            continue;
        };
        let mut placements = ps.to_vec();
        placements[b] = placements[a];
        let bad = tampered(&mapping, placements, mapping.routes().to_vec());
        let expected = EngineError::FuCollision {
            tile: ps[a].tile,
            cycle: ps[a].start,
        };
        assert_first_error(&label, &dfg, &bad, expected);
        cases += 1;
    }
    assert!(cases >= 6, "only {cases} mappings had a candidate pair");
}

#[test]
fn a_firing_inside_a_slow_window_is_a_fu_collision() {
    let mut cases = 0;
    for (label, dfg, mapping) in suite() {
        // A slow op `a` (rate ≥ 2) holds its FU for the whole window; a
        // second op started one base cycle into it collides there.
        let ps = mapping.placements();
        let Some((a, b)) = (0..ps.len())
            .filter(|&a| ps[a].rate >= 2)
            .flat_map(|a| (0..ps.len()).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && ps[b].start > ps[a].start)
        else {
            continue;
        };
        let mut placements = ps.to_vec();
        placements[b] = Placement {
            start: ps[a].start + 1,
            ..ps[a]
        };
        let bad = tampered(&mapping, placements, mapping.routes().to_vec());
        let expected = EngineError::FuCollision {
            tile: ps[a].tile,
            cycle: ps[a].start + 1,
        };
        assert_first_error(&label, &dfg, &bad, expected);
        cases += 1;
    }
    assert!(cases >= 3, "only {cases} mappings run slow ops");
}

#[test]
fn a_hop_duplicated_onto_a_busy_link_is_a_link_collision() {
    let mut cases = 0;
    for (label, dfg, mapping) in suite() {
        let mut routes = mapping.routes().to_vec();
        let Some(route) = routes.iter_mut().find(|r| !r.hops.is_empty()) else {
            continue;
        };
        // The copy drives the same link in the same cycle, right after the
        // original: hops of one edge run in route order.
        let hop = route.hops[0];
        route.hops.insert(1, hop);
        let bad = tampered(&mapping, mapping.placements().to_vec(), routes);
        let expected = EngineError::LinkCollision {
            tile: hop.from,
            cycle: hop.depart,
        };
        assert_first_error(&label, &dfg, &bad, expected);
        cases += 1;
    }
    assert!(cases >= 6, "only {cases} mappings route over the mesh");
}

#[test]
fn a_consumer_firing_before_its_operand_lands_is_token_not_ready() {
    let mut cases = 0;
    for (label, dfg, mapping) in suite() {
        let mut routes = mapping.routes().to_vec();
        let Some(route) = routes.first_mut() else {
            continue;
        };
        // Land the value one cycle after the consumer reads it: the
        // consumer's first firing that pops this edge (iteration
        // `distance`, at `consume_at`) finds the FIFO empty.
        route.arrival = route.consume_at + 1;
        let expected = EngineError::TokenNotReady {
            edge: route.edge,
            cycle: route.consume_at,
        };
        let bad = tampered(&mapping, mapping.placements().to_vec(), routes);
        assert_first_error(&label, &dfg, &bad, expected);
        cases += 1;
    }
    assert!(cases >= 6, "only {cases} mappings have routed edges");
}

#[test]
fn a_fu_and_a_link_collision_in_one_cycle_report_the_fu() {
    let mut cases = 0;
    for (label, dfg, mapping) in suite() {
        // The FU collision of the first test, at cycle `a.start`...
        let ps = mapping.placements();
        let Some((a, b)) = colliding_pair(ps) else {
            continue;
        };
        let mut placements = ps.to_vec();
        placements[b] = placements[a];
        // ...and two transfers on a link no route uses, in the same cycle.
        let used: Vec<_> = mapping
            .routes()
            .iter()
            .flat_map(|r| r.hops.iter().map(|h| (h.from, h.dir)))
            .collect();
        let cfg = mapping.config();
        let Some((from, dir)) = cfg
            .tiles()
            .flat_map(|t| Dir::ALL.into_iter().map(move |d| (t, d)))
            .find(|link| !used.contains(link))
        else {
            continue;
        };
        let mut routes = mapping.routes().to_vec();
        let Some(route) = routes.first_mut() else {
            continue;
        };
        let hop = Hop {
            from,
            to: from,
            dir,
            depart: ps[a].start,
            arrive: ps[a].start + 1,
        };
        route.hops.extend([hop, hop]);
        let bad = tampered(&mapping, placements, routes);
        // Within a cycle firings run before hops, on both machines.
        let expected = EngineError::FuCollision {
            tile: ps[a].tile,
            cycle: ps[a].start,
        };
        assert_first_error(&label, &dfg, &bad, expected);
        cases += 1;
    }
    assert!(cases >= 6, "only {cases} mappings had a candidate pair");
}
