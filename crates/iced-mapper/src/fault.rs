//! Fault-tolerant remapping: compile a kernel onto a fabric with known
//! permanent faults.
//!
//! The mapper does not fail when tiles, FUs, or links are dead — it
//! transparently remaps onto the surviving fabric, escalating the II when
//! the reduced resource pool demands it. The fault plan is applied as a
//! [`FaultMask`] that pre-occupies every faulted resource in the MRRG for
//! the full II window, so the search itself stays fault-oblivious and the
//! determinism guarantees of the portfolio search carry over unchanged:
//! the same `(dfg, config, opts, plan)` always yields the same mapping, at
//! any thread count.
//!
//! The masked fabric is mapped once, and only the masked fabric. The
//! price of the faults is the II escalation over a fault-free mapping of
//! the same kernel; a caller that wants it holds the healthy II and
//! subtracts.
//!
//! [`FaultMask`]: iced_fault::FaultMask

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_fault::FaultPlan;
use iced_trace::Phase;

use crate::error::MapError;
use crate::mapping::Mapping;
use crate::place::{map_with_mask, MapperOptions};

/// Maps `dfg` onto `config` treating every permanent fault in `plan` as a
/// dead resource, remapping around it. The returned mapping never uses a
/// faulted resource.
///
/// An empty plan is bit-identical to [`map_with`]: the fault path adds no
/// candidates, removes none, and perturbs no ordering. A non-empty plan
/// runs one map, with the fault mask applied; the II penalty is
/// `mapping.ii()` minus the II of a fault-free [`map_with`] under the
/// same options.
///
/// [`map_with`]: crate::map_with
///
/// # Errors
///
/// Returns [`MapError::MemoryPressure`] when the faults leave no usable
/// tile (or no usable memory or multiplier tile for a kernel with memory
/// ops or multiplies), and
/// [`MapError::IiExceeded`] when the surviving fabric cannot admit the
/// kernel within `opts.max_ii`.
pub fn map_with_faults(
    dfg: &Dfg,
    config: &CgraConfig,
    opts: &MapperOptions,
    plan: &FaultPlan,
) -> Result<Mapping, MapError> {
    if plan.is_empty() {
        // Bit-identity with the fault-free path: same call, no mask.
        return map_with_mask(dfg, config, opts, None);
    }
    let _span = iced_trace::span(
        Phase::Mapper,
        "map_faulted",
        &[
            ("kernel", dfg.name().into()),
            ("fault_seed", plan.seed.into()),
            (
                "excluded_resources",
                (plan.excluded(config).count() as u64).into(),
            ),
        ],
    );
    let mapping = map_with_mask(dfg, config, opts, Some(&plan.mask(config)))?;
    iced_trace::counter(Phase::Mapper, "fault_remaps", 1);
    Ok(mapping)
}
