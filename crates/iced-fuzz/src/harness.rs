//! The differential cross-backend harness.
//!
//! One *case* is a kernel × fault-density rung. The harness runs it through
//! every independent answer path and cross-checks:
//!
//! 1. **heuristic vs certified bound** — `iced_exact::lower_bound` is
//!    admissible on the intact fabric, and faults only *remove* resources,
//!    so `lower_bound ≤ II` must hold for every mapping, degraded or not.
//!    The heuristic starts its II search at that same bound, so for
//!    its mappings this holds by construction and cannot catch a bound
//!    that is too high; `tests/mapping_pin.rs` guards that instead, by
//!    pinning the mappings a too-high bound would change;
//! 2. **heuristic vs exact** — for small fault-free kernels, full
//!    certification: the certified II may never exceed the heuristic's
//!    (the portfolio contains it), and an exact *refutation* while the
//!    heuristic holds a witness is a contradiction;
//! 3. **dependency discipline** — `check_dependencies` must accept every
//!    produced mapping;
//! 4. **engine vs oracle** — bit-identical [`EngineReport`](iced_sim::EngineReport)s on the mapped
//!    result (plus an SEU fault-sim smoke run on degraded rungs);
//! 5. **typed-failure discipline** — any [`MapError`] is an acceptable
//!    outcome; a panic anywhere is a [`Bug`].
//!
//! Classification never consults the wall clock — budgets are node counts,
//! II ceilings, and iteration counts — so the same seed produces the same
//! [`Outcome`] taxonomy byte for byte on any machine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use iced_arch::CgraConfig;
use iced_dfg::{text, Dfg};
use iced_exact::{certify, lower_bound, ExactOptions};
use iced_fault::FaultPlan;
use iced_mapper::{check_dependencies, map_with_faults, MapError, MapperOptions};
use iced_sim::{run_engine, run_oracle, run_with_faults};

use crate::gen::{generate, GenOptions};

/// Options controlling one harness case.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Target fabric.
    pub cgra: CgraConfig,
    /// Heuristic mapper options. Defaults pin `threads = 1` so a panic in
    /// the mapper surfaces on the calling thread where the harness can
    /// catch and classify it.
    pub mapper: MapperOptions,
    /// Engine/oracle run length (iterations).
    pub iterations: u64,
    /// Engine/oracle input seed.
    pub sim_seed: u64,
    /// Run full exact certification only for fault-free kernels at or
    /// under this node count (the exact search is exponential).
    pub exact_max_nodes: usize,
    /// Exact-backend options; defaults use a deterministic node budget and
    /// no wall-clock deadline.
    pub exact: ExactOptions,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let mapper = MapperOptions {
            max_ii: 64,
            threads: 1,
            ..MapperOptions::default()
        };
        // A small, deterministic budget: refutation work per search node is
        // expensive on the 6×6 fabric (milliseconds of MRRG propagation),
        // and the differential checks stay sound under truncation — a
        // `BestUnderBudget` certificate still pins `cert.ii ≤ heuristic II`
        // and passes the dependency checker.
        let exact = ExactOptions {
            max_ii: 64,
            node_budget: 1_500,
            ..ExactOptions::default()
        };
        HarnessOptions {
            cgra: CgraConfig::iced_prototype(),
            mapper,
            iterations: 12,
            sim_seed: 0x5EED,
            exact_max_nodes: 12,
            exact,
        }
    }
}

/// A differential failure: something no typed error path may ever produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bug {
    /// A backend panicked instead of returning a typed error.
    Panic {
        /// Which stage panicked (`map`, `lower_bound`, `certify`,
        /// `engine`, `oracle`, `fault_sim`, `round_trip`).
        stage: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The admissible lower bound exceeded a produced mapping's II.
    LowerBoundViolation {
        /// The bound.
        lower_bound: u32,
        /// The mapping's II.
        ii: u32,
    },
    /// `check_dependencies` rejected a produced mapping.
    DependencyViolation,
    /// The exact backend contradicted the heuristic (worse II than the
    /// portfolio guarantees, or a refutation while a witness exists).
    BackendDisagreement {
        /// Human-readable contradiction.
        detail: String,
    },
    /// Engine and oracle disagreed on a mapped result.
    EngineDivergence {
        /// Human-readable divergence.
        detail: String,
    },
    /// A backend rejected a mapping the mapper claimed valid.
    EngineRejectedMapping {
        /// The typed engine error.
        error: String,
    },
    /// `text::parse(text::to_text(g))` was not the identity.
    RoundTripMismatch,
}

/// The outcome of one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Fault-free mapping that passed every cross-check.
    Mapped {
        /// Heuristic II.
        ii: u32,
        /// Admissible lower bound.
        lower_bound: u32,
        /// Certified II when exact certification ran and completed.
        certified: Option<u32>,
    },
    /// Mapping on a degraded fabric that passed every cross-check.
    Degraded {
        /// Achieved II.
        ii: u32,
    },
    /// The mapper rejected the case with a typed error — an acceptable
    /// outcome by contract.
    Rejected {
        /// Stable taxonomy class (e.g. `ii_exceeded`).
        class: &'static str,
    },
    /// The generator itself rejected the drawn structure with a typed
    /// `DfgError` (counted, never hidden by retries).
    GeneratorReject {
        /// The typed error rendered.
        error: String,
    },
    /// A differential failure.
    Fault(Bug),
}

impl Outcome {
    /// Whether this outcome is a bug (panic, disagreement, divergence…).
    pub fn is_bug(&self) -> bool {
        matches!(self, Outcome::Fault(_))
    }

    /// Stable taxonomy key for aggregation (`mapped`, `degraded`,
    /// `rejected:<class>`, `generator_reject`, `bug:<kind>`).
    pub fn class(&self) -> String {
        match self {
            Outcome::Mapped { .. } => "mapped".to_string(),
            Outcome::Degraded { .. } => "degraded".to_string(),
            Outcome::Rejected { class } => format!("rejected:{class}"),
            Outcome::GeneratorReject { .. } => "generator_reject".to_string(),
            Outcome::Fault(b) => format!("bug:{}", bug_kind(b)),
        }
    }
}

fn bug_kind(b: &Bug) -> String {
    match b {
        Bug::Panic { stage, .. } => format!("panic:{stage}"),
        Bug::LowerBoundViolation { .. } => "lower_bound_violation".to_string(),
        Bug::DependencyViolation => "dependency_violation".to_string(),
        Bug::BackendDisagreement { .. } => "backend_disagreement".to_string(),
        Bug::EngineDivergence { .. } => "engine_divergence".to_string(),
        Bug::EngineRejectedMapping { .. } => "engine_rejected_mapping".to_string(),
        Bug::RoundTripMismatch => "round_trip_mismatch".to_string(),
    }
}

/// Stable taxonomy class of a [`MapError`].
pub fn map_error_class(e: &MapError) -> &'static str {
    match e {
        MapError::IiExceeded { .. } => "ii_exceeded",
        MapError::MemoryPressure => "memory_pressure",
        MapError::DeadlineExceeded => "deadline",
        MapError::Infeasible { .. } => "infeasible",
        MapError::BudgetExhausted { .. } => "budget_exhausted",
        MapError::Arch(_) => "arch",
        MapError::Dfg(_) => "dfg",
        _ => "other",
    }
}

/// Runs `f`, converting a panic into `Err(message)`.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Runs one kernel × fault-density case through the full oracle matrix.
///
/// `density == 0.0` is the fault-free rung (an empty plan, bit-identical
/// to plain mapping); positive densities draw a deterministic
/// [`FaultPlan`] from `fault_seed`.
pub fn run_case(dfg: &Dfg, density: f64, fault_seed: u64, opts: &HarnessOptions) -> Outcome {
    // (1) Text round-trip: minimized repros must be faithful.
    match catching(|| text::parse(&text::to_text(dfg)).ok() == Some(dfg.clone())) {
        Ok(true) => {}
        Ok(false) => return Outcome::Fault(Bug::RoundTripMismatch),
        Err(message) => {
            return Outcome::Fault(Bug::Panic {
                stage: "round_trip",
                message,
            })
        }
    }
    let plan = if density > 0.0 {
        FaultPlan::generate(&opts.cgra, fault_seed, density)
    } else {
        FaultPlan::empty()
    };
    // (2) Heuristic map (degraded-aware path; empty plan is bit-identical
    // to the plain mapper).
    let mapping = match catching(|| map_with_faults(dfg, &opts.cgra, &opts.mapper, &plan)) {
        Err(message) => {
            return Outcome::Fault(Bug::Panic {
                stage: "map",
                message,
            })
        }
        Ok(Err(e)) => {
            return Outcome::Rejected {
                class: map_error_class(&e),
            }
        }
        Ok(Ok(m)) => m,
    };
    let ii = mapping.ii();
    // (3) Dependency checker must accept.
    match catching(|| check_dependencies(dfg, &mapping)) {
        Ok(true) => {}
        Ok(false) => return Outcome::Fault(Bug::DependencyViolation),
        Err(message) => {
            return Outcome::Fault(Bug::Panic {
                stage: "check_dependencies",
                message,
            })
        }
    }
    // (4) Admissible bound on the *intact* fabric: any mapping on a
    // degraded fabric is also a mapping on the intact one, so the bound
    // holds at every density.
    let lb = match catching(|| lower_bound(dfg, &opts.cgra)) {
        Ok(lb) => lb,
        Err(message) => {
            return Outcome::Fault(Bug::Panic {
                stage: "lower_bound",
                message,
            })
        }
    };
    if lb > ii {
        return Outcome::Fault(Bug::LowerBoundViolation {
            lower_bound: lb,
            ii,
        });
    }
    // (5) Exact certification for small fault-free kernels.
    let mut certified = None;
    if plan.is_empty() && dfg.node_count() <= opts.exact_max_nodes {
        match catching(|| certify(dfg, &opts.cgra, &opts.mapper, &opts.exact)) {
            Err(message) => {
                return Outcome::Fault(Bug::Panic {
                    stage: "certify",
                    message,
                })
            }
            Ok(Ok(cert)) => {
                let c = cert.certificate;
                if c.ii > ii {
                    return Outcome::Fault(Bug::BackendDisagreement {
                        detail: format!(
                            "certified ii {} exceeds heuristic ii {} (portfolio must contain it)",
                            c.ii, ii
                        ),
                    });
                }
                if c.lower_bound > c.ii {
                    return Outcome::Fault(Bug::BackendDisagreement {
                        detail: format!(
                            "certificate bound {} exceeds certified ii {}",
                            c.lower_bound, c.ii
                        ),
                    });
                }
                match catching(|| check_dependencies(dfg, &cert.mapping)) {
                    Ok(true) => {}
                    Ok(false) => return Outcome::Fault(Bug::DependencyViolation),
                    Err(message) => {
                        return Outcome::Fault(Bug::Panic {
                            stage: "check_dependencies",
                            message,
                        })
                    }
                }
                certified = Some(c.ii);
            }
            Ok(Err(e)) => match e {
                // Budget/deadline truncation is inconclusive — acceptable.
                MapError::BudgetExhausted { .. } | MapError::DeadlineExceeded => {}
                // Anything else claims the kernel cannot map — but the
                // heuristic holds a witness.
                other => {
                    return Outcome::Fault(Bug::BackendDisagreement {
                        detail: format!(
                            "exact backend rejected ({other}) while heuristic mapped at ii {ii}"
                        ),
                    })
                }
            },
        }
    }
    // (6) Engine vs oracle bit-identity on the mapped result.
    let eng = catching(|| run_engine(dfg, &mapping, opts.iterations, opts.sim_seed));
    let ora = catching(|| run_oracle(dfg, &mapping, opts.iterations, opts.sim_seed));
    match (eng, ora) {
        (Err(message), _) => {
            return Outcome::Fault(Bug::Panic {
                stage: "engine",
                message,
            })
        }
        (_, Err(message)) => {
            return Outcome::Fault(Bug::Panic {
                stage: "oracle",
                message,
            })
        }
        (Ok(Ok(a)), Ok(Ok(b))) => {
            if a != b {
                return Outcome::Fault(Bug::EngineDivergence {
                    detail: format!("engine {a:?} != oracle {b:?}"),
                });
            }
        }
        (Ok(Err(ea)), Ok(Err(eb))) => {
            // Both backends rejecting a mapper-approved mapping means the
            // mapper emitted an invalid schedule.
            return Outcome::Fault(Bug::EngineRejectedMapping {
                error: format!("engine: {ea}; oracle: {eb}"),
            });
        }
        (Ok(a), Ok(b)) => {
            return Outcome::Fault(Bug::EngineDivergence {
                detail: format!("engine {a:?} vs oracle {b:?} disagree on acceptance"),
            });
        }
    }
    // (7) SEU fault-sim smoke on degraded rungs: typed contract says a
    // correct mapping never errors.
    if !plan.is_empty() {
        match catching(|| run_with_faults(dfg, &mapping, opts.iterations, opts.sim_seed, &plan)) {
            Err(message) => {
                return Outcome::Fault(Bug::Panic {
                    stage: "fault_sim",
                    message,
                })
            }
            Ok(Err(e)) => {
                return Outcome::Fault(Bug::EngineRejectedMapping {
                    error: format!("fault sim: {e}"),
                })
            }
            Ok(Ok(_)) => {}
        }
        return Outcome::Degraded { ii };
    }
    Outcome::Mapped {
        ii,
        lower_bound: lb,
        certified,
    }
}

/// Generates the seed's kernel and runs its case: the one-call entry the
/// sweep binary and chaos tests use. Returns the generated kernel (when
/// generation succeeded) alongside the outcome.
pub fn run_seed(
    seed: u64,
    density: f64,
    gopts: &GenOptions,
    hopts: &HarnessOptions,
) -> (Option<Dfg>, Outcome) {
    match catching(|| generate(seed, gopts)) {
        Err(message) => (
            None,
            Outcome::Fault(Bug::Panic {
                stage: "generate",
                message,
            }),
        ),
        Ok(Err(e)) => (
            None,
            Outcome::GeneratorReject {
                error: e.to_string(),
            },
        ),
        Ok(Ok(dfg)) => {
            // Salt the fault seed per kernel so rungs do not reuse one
            // fault pattern across the corpus (same scheme as the figures' fault ladder).
            let fault_seed = (0xFA11 ^ dfg.canonical_hash()).wrapping_add(seed.wrapping_mul(7919));
            let outcome = run_case(&dfg, density, fault_seed, hopts);
            (Some(dfg), outcome)
        }
    }
}

/// Installs a silent panic hook for the duration of `f`, so expected
/// `catch_unwind` classification does not spam stderr with backtraces.
/// Restores the previous hook afterwards. Process-global: callers run it
/// once around a whole sweep, not per case.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_cases_map_or_reject_typed() {
        let gopts = GenOptions::default();
        let hopts = HarnessOptions::default();
        with_quiet_panics(|| {
            for seed in 0..40u64 {
                let (_, outcome) = run_seed(seed, 0.0, &gopts, &hopts);
                assert!(!outcome.is_bug(), "seed {seed}: {outcome:?}");
            }
        });
    }

    #[test]
    fn degraded_rungs_hold_the_contract() {
        let gopts = GenOptions::default();
        let hopts = HarnessOptions::default();
        with_quiet_panics(|| {
            for seed in 0..15u64 {
                for density in [0.1, 0.3] {
                    let (_, outcome) = run_seed(seed, density, &gopts, &hopts);
                    assert!(!outcome.is_bug(), "seed {seed} d{density}: {outcome:?}");
                }
            }
        });
    }

    #[test]
    fn outcomes_are_deterministic() {
        let gopts = GenOptions::default();
        let hopts = HarnessOptions::default();
        with_quiet_panics(|| {
            for seed in [3u64, 17, 91] {
                let (_, a) = run_seed(seed, 0.2, &gopts, &hopts);
                let (_, b) = run_seed(seed, 0.2, &gopts, &hopts);
                assert_eq!(a, b);
            }
        });
    }

    #[test]
    fn taxonomy_classes_are_stable_strings() {
        let o = Outcome::Rejected {
            class: "ii_exceeded",
        };
        assert_eq!(o.class(), "rejected:ii_exceeded");
        let b = Outcome::Fault(Bug::DependencyViolation);
        assert_eq!(b.class(), "bug:dependency_violation");
        assert!(b.is_bug());
    }
}
