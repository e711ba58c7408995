//! Certified-minimum-II exact modulo mapping for the ICED CGRA.
//!
//! The heuristic mapper ([`iced_mapper::map_with`]) returns *a* mapping;
//! it cannot say whether its II is the best possible one. This crate adds
//! the second opinion: a deterministic branch-and-bound search
//! ([`certify`]) that either produces a mapping **proven minimal** within
//! its declared decision space, or a typed refutation
//! ([`MapError::Infeasible`]) for every II it exhausted. The certified II
//! per kernel turns the benchmark corpus into a *quality* regression
//! suite — a heuristic change that widens the optimality gap now fails a
//! bench assertion instead of silently shipping slower schedules.
//!
//! # What exactly is certified
//!
//! The search explores the same decision space the heuristic engine
//! commits into, exhaustively:
//!
//! * one `(tile, FU start slot)` decision per DFG node, taken in the
//!   heuristic's cycle-first topological order;
//! * start slots drawn from a `2·II`-cycle window above each node's
//!   dynamic lower bound (modulo-ASAP ∨ routed-arrival constraints);
//! * every edge routed by the *shared* Dijkstra router (earliest-arrival,
//!   fixed edge order, identical register/link accounting) the moment its
//!   second endpoint is placed;
//! * all islands at nominal V/F (the all-normal schedule space — DVFS
//!   relabeling never lowers II, so the minimum II over this space is the
//!   minimum II overall for the machine model).
//!
//! A `CertifiedII { proof: Optimal }` therefore reads: *no assignment in
//! this space maps the kernel at any smaller II*. The space is the
//! heuristic's own commit discipline, so the certificate is exactly the
//! right yardstick for the heuristic — and the certification loop is
//! constructed so `certified II ≤ heuristic II` holds unconditionally.
//!
//! # Pruning
//!
//! Three admissible lower bounds gate the loop before any search
//! (RecMII, resource MII over FU/memory/multiplier capacity, and a
//! per-II routing-capacity bound from node degree vs. link slots — see
//! [`lower_bound`]); during search, a capacity propagation cut refutes
//! subtrees whose remaining nodes outnumber remaining FU slots, and
//! failed subtrees backjump over decision levels that provably did not
//! contribute to the conflict.
//!
//! # Budgets
//!
//! The search honors a node budget ([`ExactOptions::node_budget`],
//! cumulative over all IIs of one certification) and a wall-clock
//! deadline. Exhausting either degrades the result, never corrupts it:
//! with a heuristic fallback mapping in hand the certificate becomes
//! `proof: BestUnderBudget` (the mapping is the heuristic's, minimality
//! unproven); without one, [`MapError::BudgetExhausted`] /
//! [`MapError::DeadlineExceeded`] is returned. Budgets only truncate the
//! search — they never change which mapping a completed search finds, so
//! certified results are thread-count-, seed-, and budget-invariant
//! whenever the proof says `Optimal`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_fault::FaultPlan;
use iced_mapper::engine_internals::{self, usable_tiles, Prepared, RouterScratch};
use iced_mapper::{map_with_faults, MapError, MapperOptions, Mapping};
use iced_trace::Phase;

use crate::search::{Search, Verdict};

/// Options controlling the exact search.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Give up (typed [`MapError::Infeasible`]) once the II exceeds this
    /// bound without the heuristic providing a fallback mapping.
    pub max_ii: u32,
    /// Lower bound on the first II searched (the engine still starts no
    /// lower than the admissible bounds).
    pub min_ii: u32,
    /// Search-tree decision budget, cumulative across every II attempted
    /// by one certification run. Exhausting it yields
    /// `proof: BestUnderBudget` (with a heuristic fallback) or
    /// [`MapError::BudgetExhausted`] (without).
    pub node_budget: u64,
    /// Conflict-driven backjumping. Disabling falls back to chronological
    /// backtracking; certificates and mappings are unchanged, only
    /// `nodes_explored` grows. Participates in the canonical hash because
    /// `nodes_explored` is reported in cached service responses.
    pub backjump: bool,
    /// Abort the search once this instant passes (checked between
    /// decisions). Excluded from [`ExactOptions::canonical_hash`] — like
    /// the heuristic's deadline it is a serving knob that can only
    /// truncate, never redirect, the search.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_ii: 96,
            min_ii: 1,
            node_budget: 200_000,
            backjump: true,
            deadline: None,
        }
    }
}

impl ExactOptions {
    /// A stable content digest of the semantic options, for cache keys.
    /// `deadline` is deliberately excluded (see its field docs); every
    /// other field can change the reported certificate and participates.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = iced_hash::StableHasher::new();
        h.write_str("exact-options");
        h.write_str("max_ii");
        h.write_u32(self.max_ii);
        h.write_str("min_ii");
        h.write_u32(self.min_ii);
        h.write_str("node_budget");
        h.write_u64(self.node_budget);
        h.write_str("backjump");
        h.write_bool(self.backjump);
        h.finish()
    }
}

/// How strong the certificate is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// Every II below the result was exhaustively refuted: the mapping's
    /// II is the minimum over the declared decision space.
    Optimal,
    /// The node budget or deadline ran out mid-refutation; the mapping is
    /// the best one known (the heuristic's), minimality unproven.
    BestUnderBudget,
}

impl Proof {
    /// Stable lower-case name (wire format and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Proof::Optimal => "optimal",
            Proof::BestUnderBudget => "best_under_budget",
        }
    }
}

/// The certificate attached to a certified mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedII {
    /// II of the accompanying mapping.
    pub ii: u32,
    /// The admissible lower bound the search started from (certified II
    /// equals it whenever no refutation search was needed at all).
    pub lower_bound: u32,
    /// Search-tree decisions committed across every II attempted.
    pub nodes_explored: u64,
    /// Whether minimality was proven or budget-truncated.
    pub proof: Proof,
}

/// A mapping together with its optimality certificate.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The mapping (the exact search's own when it beat the heuristic or
    /// proved the first feasible II; the heuristic's otherwise).
    pub mapping: Mapping,
    /// The certificate.
    pub certificate: CertifiedII,
}

/// The admissible lower bound on II for `dfg` on the whole of `cfg`
/// (the mapper's [`lower_bound`](iced_mapper::engine_internals::lower_bound)
/// over every tile): the maximum of RecMII, resource MII (all FUs,
/// SPM-connected FUs, multiplier FUs), and the routing-capacity bound.
/// `u32::MAX` when no II can map the kernel.
///
/// Every component is admissible — no mapping can exist below the
/// returned II — so `certify` never searches below it.
pub fn lower_bound(dfg: &Dfg, cfg: &CgraConfig) -> u32 {
    engine_internals::lower_bound(dfg, cfg, &usable_tiles(cfg, None, None)).unwrap_or(u32::MAX)
}

/// Certifies the minimum II for `dfg` on `cfg`.
///
/// The certification loop is a sequential portfolio: the heuristic arm
/// runs first — the caller's `heur` options plus the complementary
/// strategy family (baseline spread vs DVFS-aware clustered), lower II
/// winning — and supplies the upper bound `H`; the exact search then
/// walks II upward from the admissible lower bound, either finding a
/// mapping below `H` (returned, `proof: Optimal`) or refuting every II
/// in `[lb, H)` — which certifies the heuristic's own mapping as
/// optimal. When `H` already equals the lower bound no search runs at
/// all.
///
/// # Errors
///
/// * [`MapError::Infeasible`] — every II up to `opts.max_ii` was refuted
///   and the heuristic found nothing either.
/// * [`MapError::BudgetExhausted`] / [`MapError::DeadlineExceeded`] — the
///   budget ran out with no mapping in hand.
/// * [`MapError::MemoryPressure`], [`MapError::Arch`], [`MapError::Dfg`]
///   — propagated structural failures.
pub fn certify(
    dfg: &Dfg,
    cfg: &CgraConfig,
    heur: &MapperOptions,
    opts: &ExactOptions,
) -> Result<Certified, MapError> {
    certify_with_plan(dfg, cfg, heur, opts, &FaultPlan::empty())
}

/// [`certify`] on a partially dead fabric: resources excluded by `plan`
/// are never placed on or routed through, by either arm of the
/// portfolio. An empty plan is bit-identical to [`certify`].
pub fn certify_with_plan(
    dfg: &Dfg,
    cfg: &CgraConfig,
    heur: &MapperOptions,
    opts: &ExactOptions,
    plan: &FaultPlan,
) -> Result<Certified, MapError> {
    dfg.validate()?;
    let mask = (!plan.is_empty()).then(|| plan.mask(cfg));
    // The mapper's preparation over every live tile (no island budget) in
    // the heuristic's cycle-first order, which keeps the exact tree's
    // first leaf close to the heuristic's mapping.
    let prep = Prepared::new(dfg, cfg, None, mask.as_ref(), true);
    let bound = engine_internals::lower_bound(dfg, cfg, &prep.tiles)?;
    let lb = bound.max(opts.min_ii);
    let _span = iced_trace::span(
        Phase::Mapper,
        "certify",
        &[
            ("kernel", dfg.name().into()),
            ("lower_bound", u64::from(lb).into()),
        ],
    );
    // Heuristic arm: upper bound + fallback mapping. Neither strategy
    // family dominates the other on II — clustering wins on
    // recurrence-heavy kernels, spreading on broadcast-heavy ones — so
    // the arm is itself a two-entry portfolio: the caller's options plus
    // the complementary family, lower II wins (ties keep the caller's).
    // That makes the certified II a bound on every shipped heuristic
    // strategy, not just the one the caller picked. An arm's failure is
    // not fatal — the exact search may still find a mapping both missed.
    // No mapper maps below `bound`, so once the caller's arm sits on it
    // the companion can at best tie, and ties keep the caller's: it is
    // not run at all.
    let mut companion = if heur.dvfs_aware {
        MapperOptions::baseline()
    } else {
        MapperOptions::default()
    };
    companion.max_ii = heur.max_ii;
    companion.min_ii = heur.min_ii;
    companion.island_budget = heur.island_budget;
    companion.threads = heur.threads;
    companion.deadline = heur.deadline;
    let mut upper: Option<Mapping> = None;
    for arm in [heur, &companion] {
        if upper.as_ref().is_some_and(|u| u.ii() == bound) {
            break;
        }
        match map_with_faults(dfg, cfg, arm, plan) {
            Ok(m) => {
                if upper.as_ref().is_none_or(|u| m.ii() < u.ii()) {
                    upper = Some(m);
                }
            }
            Err(MapError::IiExceeded { .. }) | Err(MapError::DeadlineExceeded) => {}
            Err(e) => return Err(e),
        }
    }
    let search_max = match &upper {
        // The heuristic's II is feasible by construction; only smaller
        // IIs are in question.
        Some(m) => m.ii().saturating_sub(1).min(opts.max_ii),
        None => opts.max_ii,
    };
    let (mut slot, mut scratch) = (None, RouterScratch::default());
    let mut explored = 0u64;
    for ii in lb..=search_max {
        let mrrg = prep.mrrg(&mut slot, ii)?;
        let verdict = Search::new(&prep, opts, mrrg, &mut scratch).run(&mut explored);
        match verdict {
            Verdict::Feasible(mapping) => {
                return Ok(Certified {
                    mapping: *mapping,
                    certificate: CertifiedII {
                        ii,
                        lower_bound: lb,
                        nodes_explored: explored,
                        proof: Proof::Optimal,
                    },
                });
            }
            Verdict::Refuted => continue,
            Verdict::Budget | Verdict::Deadline => {
                return match upper {
                    Some(mapping) => {
                        let ii = mapping.ii();
                        Ok(Certified {
                            mapping,
                            certificate: CertifiedII {
                                ii,
                                lower_bound: lb,
                                nodes_explored: explored,
                                proof: Proof::BestUnderBudget,
                            },
                        })
                    }
                    None => Err(if matches!(verdict, Verdict::Budget) {
                        MapError::BudgetExhausted {
                            budget: opts.node_budget,
                        }
                    } else {
                        MapError::DeadlineExceeded
                    }),
                };
            }
        }
    }
    // Every II in [lb, search_max] refuted (or the range was empty).
    match upper {
        Some(mapping) => {
            let ii = mapping.ii();
            Ok(Certified {
                mapping,
                certificate: CertifiedII {
                    ii,
                    lower_bound: lb,
                    nodes_explored: explored,
                    proof: Proof::Optimal,
                },
            })
        }
        None => Err(MapError::Infeasible { ii: opts.max_ii }),
    }
}

/// Node-count threshold at or below which `auto` picks the exact
/// backend ("exact when small, heuristic when big").
pub const DEFAULT_AUTO_MAX_NODES: usize = 12;

/// Whether the `auto` strategy resolves to the exact backend for a
/// kernel of `node_count` nodes.
pub fn auto_prefers_exact(node_count: usize) -> bool {
    node_count <= DEFAULT_AUTO_MAX_NODES
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_dfg::{DfgBuilder, Opcode};
    use iced_mapper::map_with;

    fn chain(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ids: Vec<_> = (0..n)
            .map(|i| b.node(Opcode::Add, format!("a{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.finish().unwrap()
    }

    fn ring(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..n)
            .map(|i| b.node(Opcode::Add, format!("r{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.carry(ids[n - 1], ids[0]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn routing_bound_ignores_parallel_and_self_edges() {
        // Found by the differential fuzzer (seed 0x7a80): a node fed by a
        // data edge plus two carried edges from the same producer, and a
        // carried self-edge, maps at II 1 — one physical transfer per
        // source per iteration, carried copies buffered at the
        // destination, self-edges never leaving the tile. The bound used
        // to count raw edge multiplicity and claimed II ≥ 2, which is
        // inadmissible.
        let mut b = DfgBuilder::new("parallel_edges");
        let phi = b.node(Opcode::Phi, "r0");
        let m1 = b.node(Opcode::Mul, "r1");
        let m2 = b.node(Opcode::Mul, "f2");
        b.data(phi, m1).unwrap();
        b.edge(m1, phi, iced_dfg::EdgeKind::loop_carried(4))
            .unwrap();
        b.data(m2, m1).unwrap();
        b.edge(phi, m1, iced_dfg::EdgeKind::loop_carried(2))
            .unwrap();
        b.edge(phi, m1, iced_dfg::EdgeKind::loop_carried(3))
            .unwrap();
        b.edge(m1, m1, iced_dfg::EdgeKind::loop_carried(4)).unwrap();
        let dfg = b.finish().unwrap();
        let cfg = CgraConfig::iced_prototype();
        let lb = lower_bound(&dfg, &cfg);
        let m = map_with(&dfg, &cfg, &MapperOptions::default()).unwrap();
        assert!(
            lb <= m.ii(),
            "bound {lb} exceeds achieved ii {} — inadmissible",
            m.ii()
        );
    }

    #[test]
    fn a_missing_resource_class_is_memory_pressure_before_any_attempt() {
        // Every multiplier tile's FU dead: no II can place gemm's
        // multiplies, and both backends say so up front with the same
        // typed error instead of walking the II range.
        let cfg = CgraConfig::builder(4, 4)
            .fu_layout(iced_arch::FuLayout::CheckerboardMul)
            .build()
            .unwrap();
        let plan = FaultPlan {
            seed: 1,
            permanent: cfg
                .tiles()
                .filter(|&t| cfg.tile_has_multiplier(t))
                .map(iced_fault::PermanentFault::DeadFu)
                .collect(),
            ..FaultPlan::empty()
        };
        let dfg = iced_kernels::Kernel::Gemm.dfg(iced_kernels::UnrollFactor::X1);
        let heur = MapperOptions {
            threads: 1,
            ..MapperOptions::default()
        };
        assert_eq!(
            map_with_faults(&dfg, &cfg, &heur, &plan).map(|m| m.ii()),
            Err(MapError::MemoryPressure)
        );
        assert_eq!(
            certify_with_plan(&dfg, &cfg, &heur, &ExactOptions::default(), &plan)
                .map(|c| c.certificate),
            Err(MapError::MemoryPressure)
        );
    }

    #[test]
    fn a_faulted_certify_maps_once_per_heuristic_arm() {
        // Each heuristic arm maps the masked fabric once (one
        // `map_faulted` span around one `map` span) and nothing else: no
        // healthy-fabric map rides along. fft's starved fabric runs both
        // arms; fir's single dead FU leaves the caller's arm on the bound,
        // so the companion is skipped.
        let cfg = CgraConfig::iced_prototype();
        let starved = FaultPlan {
            seed: 1,
            permanent: cfg
                .tiles()
                .filter(|&t| !cfg.is_memory_tile(t))
                .skip(3)
                .map(iced_fault::PermanentFault::DeadFu)
                .collect(),
            ..FaultPlan::empty()
        };
        let one_fu = FaultPlan {
            seed: 2,
            permanent: vec![iced_fault::PermanentFault::DeadFu(cfg.tile_at(1, 2))],
            ..FaultPlan::empty()
        };
        let heur = MapperOptions {
            threads: 1,
            ..MapperOptions::default()
        };
        for (kernel, plan, arms) in [
            (iced_kernels::Kernel::Fft, &starved, 2),
            (iced_kernels::Kernel::Fir, &one_fu, 1),
        ] {
            let dfg = kernel.dfg(iced_kernels::UnrollFactor::X1);
            let rec = std::sync::Arc::new(iced_trace::RecordingCollector::new());
            {
                let _overlay = iced_trace::overlay(rec.clone());
                certify_with_plan(&dfg, &cfg, &heur, &ExactOptions::default(), plan).unwrap();
            }
            let spans = |want: &str| {
                let begins = |r: &iced_trace::Record| match r {
                    iced_trace::Record::SpanBegin { phase, name, .. } => {
                        *phase == Phase::Mapper && name == want
                    }
                    _ => false,
                };
                rec.records().iter().filter(|r| begins(r)).count()
            };
            assert_eq!(spans("map_faulted"), arms, "{}: arms run", kernel.name());
            assert_eq!(spans("map"), arms, "{}: one map per arm", kernel.name());
        }
    }

    #[test]
    fn exact_options_hash_is_pinned() {
        // The cache contract: exact-strategy cache keys embed this digest,
        // so it must not drift silently. Bump deliberately with a schema
        // change, never accidentally.
        assert_eq!(
            ExactOptions::default().canonical_hash(),
            0xf6ee_32cc_9a31_2a11,
        );
    }

    #[test]
    fn deadline_does_not_change_the_hash() {
        let o = ExactOptions {
            deadline: Some(std::time::Instant::now()),
            ..ExactOptions::default()
        };
        assert_eq!(o.canonical_hash(), ExactOptions::default().canonical_hash());
    }

    #[test]
    fn every_semantic_field_changes_the_hash() {
        let base = ExactOptions::default().canonical_hash();
        for o in [
            ExactOptions {
                max_ii: 7,
                ..ExactOptions::default()
            },
            ExactOptions {
                min_ii: 3,
                ..ExactOptions::default()
            },
            ExactOptions {
                node_budget: 1,
                ..ExactOptions::default()
            },
            ExactOptions {
                backjump: false,
                ..ExactOptions::default()
            },
        ] {
            assert_ne!(o.canonical_hash(), base, "{o:?}");
        }
    }

    #[test]
    fn chain_certifies_at_ii_1() {
        let cfg = CgraConfig::iced_prototype();
        let c = certify(
            &chain(5),
            &cfg,
            &MapperOptions::baseline(),
            &ExactOptions::default(),
        )
        .unwrap();
        assert_eq!(c.certificate.ii, 1);
        assert_eq!(c.certificate.proof, Proof::Optimal);
        assert!(iced_mapper::check_dependencies(&chain(5), &c.mapping));
    }

    #[test]
    fn ring_certifies_at_rec_mii() {
        let cfg = CgraConfig::iced_prototype();
        let dfg = ring(4);
        let c = certify(
            &dfg,
            &cfg,
            &MapperOptions::baseline(),
            &ExactOptions::default(),
        )
        .unwrap();
        assert_eq!(c.certificate.ii, 4);
        assert_eq!(c.certificate.lower_bound, 4);
        assert_eq!(c.certificate.proof, Proof::Optimal);
    }

    #[test]
    fn zero_budget_with_heuristic_fallback_is_best_under_budget() {
        let cfg = CgraConfig::iced_prototype();
        // High fan-in forces lb < heuristic II so a refutation search is
        // actually needed — which the zero budget immediately truncates.
        let mut b = DfgBuilder::new("fan");
        let srcs: Vec<_> = (0..6)
            .map(|i| b.node(Opcode::Add, format!("s{i}")))
            .collect();
        let sink = b.node(Opcode::Add, "sink");
        for s in &srcs {
            b.data(*s, sink).unwrap();
        }
        let dfg = b.finish().unwrap();
        let opts = ExactOptions {
            node_budget: 0,
            ..ExactOptions::default()
        };
        let c = certify(&dfg, &cfg, &MapperOptions::baseline(), &opts).unwrap();
        if c.certificate.lower_bound < c.certificate.ii {
            assert_eq!(c.certificate.proof, Proof::BestUnderBudget);
            assert_eq!(c.certificate.nodes_explored, 0);
        }
    }

    #[test]
    fn auto_threshold_dispatches_by_size() {
        assert!(auto_prefers_exact(1));
        assert!(auto_prefers_exact(DEFAULT_AUTO_MAX_NODES));
        assert!(!auto_prefers_exact(DEFAULT_AUTO_MAX_NODES + 1));
    }
}
