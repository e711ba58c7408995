//! Mapper error type.

use std::error::Error;
use std::fmt;

use iced_arch::ArchError;
use iced_dfg::DfgError;

/// Errors produced by the mapping algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// No valid mapping was found up to the configured maximum II.
    IiExceeded {
        /// The configured ceiling.
        max_ii: u32,
    },
    /// No usable tile can host one of the kernel's op classes: memory
    /// operations with no live SPM-connected tile, multiplies with no live
    /// multiplier tile, or no live tile at all. No II can help, so the
    /// heuristic mapper and the exact backend both return this from the
    /// shared lower bound, before any attempt. (The name predates the
    /// multiplier case; the display text is kept for wire stability.)
    MemoryPressure,
    /// The search deadline (`MapperOptions::deadline`) passed before a
    /// valid mapping was found; the II escalation was aborted between
    /// attempts. A mapping may still exist at a higher II.
    DeadlineExceeded,
    /// The exact backend *proved* that no mapping exists at any II up to
    /// and including `ii` — a refutation certificate, not a search
    /// giving up. Contrast [`MapError::IiExceeded`], which only says the
    /// heuristic found nothing below its ceiling.
    Infeasible {
        /// Largest II the search exhausted without finding a mapping.
        ii: u32,
    },
    /// The exact backend's node budget ran out before the search space
    /// was exhausted and no fallback mapping was available. The result
    /// is inconclusive: a mapping may exist.
    BudgetExhausted {
        /// The configured node budget that was consumed.
        budget: u64,
    },
    /// Architecture-level failure (invalid configuration or MRRG).
    Arch(ArchError),
    /// DFG-level failure (invalid graph handed in).
    Dfg(DfgError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::IiExceeded { max_ii } => {
                write!(f, "no valid mapping found up to II = {max_ii}")
            }
            MapError::MemoryPressure => {
                write!(f, "memory operations exceed SPM-connected tile capacity")
            }
            MapError::DeadlineExceeded => {
                write!(
                    f,
                    "mapping deadline expired before a valid mapping was found"
                )
            }
            MapError::Infeasible { ii } => {
                write!(f, "proven infeasible: no mapping exists at II <= {ii}")
            }
            MapError::BudgetExhausted { budget } => {
                write!(
                    f,
                    "search node budget of {budget} exhausted before a verdict"
                )
            }
            MapError::Arch(e) => write!(f, "architecture error: {e}"),
            MapError::Dfg(e) => write!(f, "dataflow graph error: {e}"),
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Arch(e) => Some(e),
            MapError::Dfg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for MapError {
    fn from(e: ArchError) -> Self {
        MapError::Arch(e)
    }
}

impl From<DfgError> for MapError {
    fn from(e: DfgError) -> Self {
        MapError::Dfg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MapError::IiExceeded { max_ii: 32 };
        assert!(e.to_string().contains("32"));
        let e2: MapError = ArchError::ZeroDimension.into();
        assert!(e2.source().is_some());
    }

    #[test]
    fn infeasible_display_names_the_ii() {
        let e = MapError::Infeasible { ii: 7 };
        let s = e.to_string();
        assert!(s.contains('7'), "display must name the II: {s}");
        assert!(s.contains("infeasible"), "display must say infeasible: {s}");
    }

    #[test]
    fn budget_exhausted_display_names_the_budget() {
        let e = MapError::BudgetExhausted { budget: 250_000 };
        let s = e.to_string();
        assert!(s.contains("250000"), "display must name the budget: {s}");
        assert!(s.contains("budget"), "display must say budget: {s}");
    }
}
