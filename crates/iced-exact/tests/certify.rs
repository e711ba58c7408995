//! Cross-validation of the exact backend against the heuristic mapper:
//! the certified minimum II must never exceed any heuristic II, exact
//! results must be thread-count- and seed-invariant, an empty fault plan
//! must be bit-identical to the plain path, and on random small DFGs
//! exact feasibility must imply heuristic feasibility.

use iced_arch::CgraConfig;
use iced_dfg::{Dfg, DfgBuilder, Opcode};
use iced_exact::{certify, certify_with_plan, ExactOptions, Proof};
use iced_fault::FaultPlan;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{check_dependencies, map_with, MapperOptions};
use proptest::prelude::*;

/// Test-sized budget: enough for small-kernel refutations, small enough
/// that a budget-truncated certification stays fast.
fn opts() -> ExactOptions {
    ExactOptions {
        node_budget: 2_000,
        ..ExactOptions::default()
    }
}

fn heur(threads: usize) -> MapperOptions {
    MapperOptions {
        threads,
        ..MapperOptions::baseline()
    }
}

#[test]
fn heuristic_ii_bounds_certified_ii_on_every_table1_kernel() {
    let cfg = CgraConfig::iced_prototype();
    for kernel in Kernel::ALL {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let c = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        assert!(
            c.certificate.lower_bound <= c.certificate.ii,
            "{}: lb {} > certified {}",
            kernel.name(),
            c.certificate.lower_bound,
            c.certificate.ii
        );
        assert_eq!(c.mapping.ii(), c.certificate.ii, "{}", kernel.name());
        assert!(
            check_dependencies(&dfg, &c.mapping),
            "{}: certified mapping violates dependencies",
            kernel.name()
        );
        // Both heuristic strategies are upper bounds on the certified
        // minimum: the baseline by the certification loop's construction,
        // the DVFS-aware flow because relabeling never lowers II.
        for (name, h) in [
            ("baseline", MapperOptions::baseline()),
            ("iced", MapperOptions::default()),
        ] {
            let m = map_with(&dfg, &cfg, &h).unwrap();
            assert!(
                m.ii() >= c.certificate.ii,
                "{}: heuristic {} II {} below certified minimum {}",
                kernel.name(),
                name,
                m.ii(),
                c.certificate.ii
            );
        }
    }
}

#[test]
fn certification_is_thread_count_invariant() {
    // The exact search is single-threaded by design; the heuristic arm
    // runs under the portfolio at any thread count with a bit-identity
    // guarantee. The combination must yield the same certificate and the
    // same mapping bytes for every thread count. Fft and aggregate are
    // the Table I kernels whose certification searches (to the budget);
    // the rest certify without exploring a node.
    let cfg = CgraConfig::iced_prototype();
    let kernels = [
        Kernel::Fir,
        Kernel::Mvt,
        Kernel::Latnrm,
        Kernel::Fft,
        Kernel::GcnAggregate,
    ];
    for kernel in kernels {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let serial = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        for threads in [2, 4] {
            let par = certify(&dfg, &cfg, &heur(threads), &opts()).unwrap();
            assert_eq!(
                par.certificate,
                serial.certificate,
                "{}: certificate diverged at {} threads",
                kernel.name(),
                threads
            );
            assert!(
                par.mapping.result_eq(&serial.mapping),
                "{}: mapping diverged at {} threads",
                kernel.name(),
                threads
            );
        }
    }
}

#[test]
fn certification_is_run_invariant() {
    // No hidden seed: two identical calls must agree on everything,
    // including the explored-node count, on a kernel that certifies
    // without searching and on the two that search.
    let cfg = CgraConfig::iced_prototype();
    for kernel in [Kernel::Fir, Kernel::Fft, Kernel::GcnAggregate] {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let a = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        let b = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        assert_eq!(a.certificate, b.certificate, "{}", kernel.name());
        assert!(a.mapping.result_eq(&b.mapping), "{}", kernel.name());
        let searched = a.certificate.nodes_explored > 0;
        assert_eq!(searched, kernel != Kernel::Fir, "{}", kernel.name());
    }
}

#[test]
fn empty_fault_plan_is_bit_identical() {
    let cfg = CgraConfig::iced_prototype();
    for kernel in [Kernel::Fir, Kernel::Latnrm, Kernel::Mvt] {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let plain = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        let planned =
            certify_with_plan(&dfg, &cfg, &heur(1), &opts(), &FaultPlan::empty()).unwrap();
        assert_eq!(plain.certificate, planned.certificate, "{}", kernel.name());
        assert!(
            plain.mapping.result_eq(&planned.mapping),
            "{}: empty plan diverged from plain certification",
            kernel.name()
        );
    }
}

#[test]
fn backjumping_changes_effort_not_verdicts() {
    // Backjumping must be a pure accelerator: same certificate II, same
    // proof, same mapping — only nodes_explored may differ.
    let cfg = CgraConfig::iced_prototype();
    for kernel in [Kernel::Fir, Kernel::Latnrm, Kernel::Conv] {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let on = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
        let off = certify(
            &dfg,
            &cfg,
            &heur(1),
            &ExactOptions {
                backjump: false,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(on.certificate.ii, off.certificate.ii, "{}", kernel.name());
        assert_eq!(
            on.certificate.proof,
            off.certificate.proof,
            "{}",
            kernel.name()
        );
        assert!(
            on.mapping.result_eq(&off.mapping),
            "{}: backjump changed the mapping",
            kernel.name()
        );
    }
}

#[test]
fn certified_optimum_matches_lower_bound_on_tight_kernels() {
    // Kernels whose heuristic II already sits on the admissible lower
    // bound certify with zero search — the fast path that makes `auto`
    // cheap for small kernels.
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Relu.dfg(UnrollFactor::X1);
    let c = certify(&dfg, &cfg, &heur(1), &opts()).unwrap();
    if c.certificate.ii == c.certificate.lower_bound {
        assert_eq!(c.certificate.proof, Proof::Optimal);
        assert_eq!(c.certificate.nodes_explored, 0);
    }
}

/// Deterministic small random DAG: `n` nodes, forward edges picked by a
/// seeded LCG, optionally one loop-carried back edge closing a cycle.
fn random_dfg(n: usize, seed: u64) -> Dfg {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = DfgBuilder::new("rand");
    let ops = [Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Shift];
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let op = ops[(next() % ops.len() as u64) as usize];
            b.node(op, format!("n{i}"))
        })
        .collect();
    // Connectivity: each non-root node gets one edge from an earlier node;
    // sprinkle a few extra forward edges for fan-out.
    for i in 1..n {
        let src = (next() % i as u64) as usize;
        b.data(ids[src], ids[i]).unwrap();
    }
    for _ in 0..n / 2 {
        let a = (next() % n as u64) as usize;
        let c = (next() % n as u64) as usize;
        if a < c {
            let _ = b.data(ids[a], ids[c]);
        }
    }
    if next() % 2 == 0 {
        let _ = b.carry(ids[n - 1], ids[0]);
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_feasible_implies_heuristic_feasible(n in 3usize..8, seed in 0u64..1_000_000) {
        let cfg = CgraConfig::iced_prototype();
        let dfg = random_dfg(n, seed);
        if let Ok(c) = certify(&dfg, &cfg, &heur(1), &opts()) {
            prop_assert!(check_dependencies(&dfg, &c.mapping));
            // Exact found a mapping, so the escalating heuristic must find
            // one too — at the certified II or above, never below.
            let m = map_with(&dfg, &cfg, &MapperOptions::baseline()).unwrap();
            prop_assert!(m.ii() >= c.certificate.ii,
                "heuristic II {} below certified {}", m.ii(), c.certificate.ii);
        }
    }
}
