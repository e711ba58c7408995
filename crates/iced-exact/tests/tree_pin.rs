//! Pins the exact search tree on the 21 Table I kernels at ×1.
//!
//! Each row records a certification's `(ii, lower_bound, proof,
//! nodes_explored)` and a fingerprint of its placement (every node's tile
//! and start cycle). Changes that only make the search cheaper — cuts
//! that skip candidates which could never succeed — must leave every row
//! as it is: the same tree, explored in the same order, reaches the same
//! leaf after the same number of decisions.
//!
//! At budget 2 000 the suite certifies most kernels without searching
//! (the heuristic already sits on the lower bound) and spends the whole
//! budget on the rest, so the suite rows mostly pin verdicts. The
//! own-leaf rows pin the tree itself: the search alone maps a kernel, and
//! its decision count and first leaf move if any branch is explored
//! differently.

use iced_arch::CgraConfig;
use iced_exact::{certify, certify_with_plan, Certified, ExactOptions};
use iced_fault::FaultPlan;
use iced_hash::StableHasher;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{MapError, MapperOptions};

fn opts(backjump: bool) -> ExactOptions {
    ExactOptions {
        node_budget: 2_000,
        backjump,
        ..ExactOptions::default()
    }
}

fn heur() -> MapperOptions {
    MapperOptions {
        threads: 1,
        ..MapperOptions::default()
    }
}

/// One pinned row: the certificate and a placement fingerprint.
fn row(kernel: Kernel, res: Result<Certified, MapError>) -> String {
    let c = match res {
        Ok(c) => c,
        Err(e) => return format!("{} err {e}", kernel.name()),
    };
    let mut h = StableHasher::new();
    for p in c.mapping.placements() {
        h.write_u32(u32::from(p.tile.0));
        h.write_u64(p.start);
    }
    let cert = c.certificate;
    format!(
        "{} ii {} lb {} {} nodes {} fp {:016x}",
        kernel.name(),
        cert.ii,
        cert.lower_bound,
        cert.proof.name(),
        cert.nodes_explored,
        h.finish()
    )
}

fn rows(certify_one: impl Fn(&iced_dfg::Dfg) -> Result<Certified, MapError>) -> Vec<String> {
    Kernel::ALL
        .into_iter()
        .map(|k| row(k, certify_one(&k.dfg(UnrollFactor::X1))))
        .collect()
}

fn assert_rows(got: Vec<String>, pinned: &[&str]) {
    assert_eq!(got, pinned, "search tree changed; got:\n{}", got.join("\n"));
}

#[test]
fn tree_with_backjumping_is_pinned() {
    let cfg = CgraConfig::iced_prototype();
    assert_rows(rows(|dfg| certify(dfg, &cfg, &heur(), &opts(true))), &CLEAN);
}

#[test]
fn tree_without_backjumping_is_pinned() {
    let cfg = CgraConfig::iced_prototype();
    assert_rows(
        rows(|dfg| certify(dfg, &cfg, &heur(), &opts(false))),
        &CLEAN,
    );
}

#[test]
fn tree_on_a_faulty_fabric_is_pinned() {
    let cfg = CgraConfig::iced_prototype();
    let plan = FaultPlan::generate(&cfg, 1, 0.1);
    assert!(!plan.permanent.is_empty(), "the plan kills something");
    assert_rows(
        rows(|dfg| certify_with_plan(dfg, &cfg, &heur(), &opts(true), &plan)),
        &FAULTY,
    );
}

#[test]
fn leaves_the_search_finds_by_itself_are_pinned() {
    // With the heuristic arm capped below every II, the certificate's
    // mapping is the exact search's own first leaf, and `nodes_explored`
    // counts every decision made on the way to it, backtracks included.
    let cfg = CgraConfig::iced_prototype();
    let heuristic_off = MapperOptions {
        max_ii: 1,
        ..heur()
    };
    let mut got = Vec::new();
    for (kernel, ii) in OWN_LEAVES {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let [on, off] = [true, false].map(|backjump| {
            let o = ExactOptions {
                min_ii: ii,
                ..opts(backjump)
            };
            row(kernel, certify(&dfg, &cfg, &heuristic_off, &o))
        });
        // Every conflict on these paths is tainted, so backjumping
        // never fires and both trees are the same.
        assert_eq!(on, off);
        got.push(on);
    }
    assert_rows(got, &OWN_LEAF_ROWS);
}

/// Kernels and IIs at which the search reaches a leaf of its own within
/// the budget.
const OWN_LEAVES: [(Kernel, u32); 7] = [
    (Kernel::Histogram, 4),
    (Kernel::LuInit, 4),
    (Kernel::LuInit, 5),
    (Kernel::LuInit, 6),
    (Kernel::Conv, 6),
    (Kernel::GcnPooling, 6),
    (Kernel::LuDecompose, 6),
];

const OWN_LEAF_ROWS: [&str; 7] = [
    "histogram ii 4 lb 4 optimal nodes 683 fp 7faa1ac7b477c91d",
    "init ii 4 lb 4 optimal nodes 53 fp c38d0612feba70e0",
    "init ii 5 lb 5 optimal nodes 765 fp b378b15ccc3ad17d",
    "init ii 6 lb 6 optimal nodes 1703 fp 8f1ad465b325dddb",
    "conv ii 6 lb 6 optimal nodes 17 fp 442aa15db233f786",
    "pooling ii 6 lb 6 optimal nodes 854 fp fa6dec013b580e60",
    "decompose ii 6 lb 6 optimal nodes 853 fp ce9c465c8fc73585",
];

/// Rows on the fault-free fabric. Backjumping changes none of them: the
/// kernels that search at all (fft, aggregate) spend the whole budget
/// either way, and backjumping never changes a certificate or mapping.
const CLEAN: [&str; 21] = [
    "fir ii 4 lb 4 optimal nodes 0 fp 9ce124f7c367cce9",
    "latnrm ii 4 lb 4 optimal nodes 0 fp 9ce124f7c367cce9",
    "fft ii 5 lb 4 best_under_budget nodes 2000 fp 3fe9dcf24129e624",
    "dtw ii 4 lb 4 optimal nodes 0 fp 093dbd0af2cd92da",
    "spmv ii 4 lb 4 optimal nodes 0 fp 3622101cb126fc7a",
    "conv ii 4 lb 4 optimal nodes 0 fp b2bc6de7643c1d99",
    "relu ii 4 lb 4 optimal nodes 0 fp b8dc768a5918a4d7",
    "histogram ii 4 lb 4 optimal nodes 0 fp d68eedb2e0b0af2d",
    "mvt ii 4 lb 4 optimal nodes 0 fp f543dd3e49349912",
    "gemm ii 4 lb 4 optimal nodes 0 fp afcd66afc067a683",
    "compress ii 4 lb 4 optimal nodes 0 fp c13a3fa733f6b40f",
    "aggregate ii 5 lb 4 best_under_budget nodes 2000 fp 611c3cda52950a07",
    "combine ii 4 lb 4 optimal nodes 0 fp 3a9f9d37f14fcf32",
    "combrelu ii 4 lb 4 optimal nodes 0 fp 4c1aa8b590143b14",
    "pooling ii 4 lb 4 optimal nodes 0 fp 0f465ba3d2c08636",
    "init ii 4 lb 4 optimal nodes 0 fp bfa6c5323a2d12d1",
    "decompose ii 4 lb 4 optimal nodes 0 fp 61debb0f8df2bd77",
    "solver0 ii 8 lb 8 optimal nodes 0 fp 76d21529ce92ff1d",
    "solver1 ii 12 lb 12 optimal nodes 0 fp ab11d47260126732",
    "invert ii 4 lb 4 optimal nodes 0 fp b4e51d35b59da96b",
    "determinant ii 7 lb 7 optimal nodes 0 fp 2c323ca27bad4527",
];

/// Rows on the fabric of `FaultPlan::generate(&cfg, 1, 0.1)`.
const FAULTY: [&str; 21] = [
    "fir ii 4 lb 4 optimal nodes 0 fp 9ce124f7c367cce9",
    "latnrm ii 4 lb 4 optimal nodes 0 fp 9ce124f7c367cce9",
    "fft ii 6 lb 4 best_under_budget nodes 2000 fp 54f2b84e90899ce4",
    "dtw ii 5 lb 4 best_under_budget nodes 2000 fp faff0e5cfec7feb6",
    "spmv ii 4 lb 4 optimal nodes 0 fp 647795c43afdbacb",
    "conv ii 4 lb 4 optimal nodes 0 fp b2bc6de7643c1d99",
    "relu ii 4 lb 4 optimal nodes 0 fp b8dc768a5918a4d7",
    "histogram ii 4 lb 4 optimal nodes 0 fp d68eedb2e0b0af2d",
    "mvt ii 4 lb 4 optimal nodes 0 fp f543dd3e49349912",
    "gemm ii 4 lb 4 optimal nodes 0 fp afcd66afc067a683",
    "compress ii 4 lb 4 optimal nodes 0 fp 1554e2d1477b7b67",
    "aggregate ii 5 lb 4 best_under_budget nodes 2000 fp 611c3cda52950a07",
    "combine ii 4 lb 4 optimal nodes 0 fp 10cb6a5b6c01ed76",
    "combrelu ii 5 lb 4 best_under_budget nodes 2000 fp c758f1b324f0b9f8",
    "pooling ii 4 lb 4 optimal nodes 0 fp 0f465ba3d2c08636",
    "init ii 4 lb 4 optimal nodes 0 fp bfa6c5323a2d12d1",
    "decompose ii 4 lb 4 optimal nodes 0 fp 61debb0f8df2bd77",
    "solver0 ii 8 lb 8 optimal nodes 0 fp 76d21529ce92ff1d",
    "solver1 ii 12 lb 12 optimal nodes 0 fp ab11d47260126732",
    "invert ii 4 lb 4 optimal nodes 0 fp b4e51d35b59da96b",
    "determinant ii 7 lb 7 optimal nodes 0 fp 2c323ca27bad4527",
];
