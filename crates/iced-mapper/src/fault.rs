//! Fault-tolerant remapping: compile a kernel onto a fabric with known
//! permanent faults.
//!
//! The mapper does not fail when tiles, FUs, or links are dead — it
//! transparently remaps onto the surviving fabric, escalating the II when
//! the reduced resource pool demands it, and reports the degradation it
//! paid. The fault plan is applied as a [`FaultMask`] that pre-occupies
//! every faulted resource in the MRRG for the full II window, so the
//! search itself stays fault-oblivious and the determinism guarantees of
//! the portfolio search carry over unchanged: the same `(dfg, config,
//! opts, plan)` always yields the same mapping, at any thread count.
//!
//! [`FaultMask`]: iced_fault::FaultMask

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_fault::{ExcludedResources, FaultPlan};
use iced_trace::Phase;

use crate::error::MapError;
use crate::mapping::Mapping;
use crate::place::{map_with_mask, MapperOptions};

/// A mapping produced on a partially dead fabric, together with the price
/// paid for the faults: the II escalation relative to the fault-free
/// mapping and the resources that were masked out.
#[derive(Debug, Clone)]
pub struct DegradedMapping {
    /// The mapping on the surviving fabric. Never uses a faulted resource.
    pub mapping: Mapping,
    /// II of the fault-free mapping of the same kernel, when one exists.
    /// `None` means the kernel cannot map even on the healthy fabric with
    /// these options (so no penalty baseline exists).
    pub baseline_ii: Option<u32>,
    /// `mapping.ii() - baseline_ii`: extra II cycles forced by the faults.
    /// Zero when the surviving fabric still admits the fault-free II.
    pub ii_penalty: u32,
    /// The resources the plan's permanent faults removed from the fabric.
    pub excluded: ExcludedResources,
}

impl DegradedMapping {
    /// True when the faults cost nothing: same II as the healthy fabric.
    pub fn is_lossless(&self) -> bool {
        self.ii_penalty == 0
    }
}

/// Maps `dfg` onto `config` treating every permanent fault in `plan` as a
/// dead resource, remapping around it.
///
/// An empty plan is bit-identical to [`map_with`](crate::map_with): the
/// fault path adds no candidates, removes none, and perturbs no ordering.
/// A non-empty plan first maps the healthy fabric to establish the
/// baseline II (reported in [`DegradedMapping::ii_penalty`]), then maps
/// with the fault mask applied.
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
) -> Result<DegradedMapping, MapError> {
    if plan.is_empty() {
        // Bit-identity with the fault-free path: same call, no mask.
        let mapping = map_with_mask(dfg, config, opts, None)?;
        let ii = mapping.ii();
        return Ok(DegradedMapping {
            mapping,
            baseline_ii: Some(ii),
            ii_penalty: 0,
            excluded: ExcludedResources::default(),
        });
    }
    let excluded = plan.excluded(config);
    let _span = iced_trace::span(
        Phase::Mapper,
        "map_faulted",
        &[
            ("kernel", dfg.name().into()),
            ("fault_seed", plan.seed.into()),
            ("excluded_resources", (excluded.count() as u64).into()),
        ],
    );
    // Healthy-fabric baseline for the penalty accounting. Its failure is
    // not fatal: a kernel that never mapped cleanly can still map on the
    // degraded fabric (the II search space is identical), it just has no
    // penalty baseline.
    let baseline_ii = map_with_mask(dfg, config, opts, None).map(|m| m.ii()).ok();
    let mask = plan.mask(config);
    let mapping = map_with_mask(dfg, config, opts, Some(&mask))?;
    let ii_penalty = baseline_ii.map_or(0, |b| mapping.ii().saturating_sub(b));
    iced_trace::counter(Phase::Mapper, "fault_remaps", 1);
    iced_trace::counter(Phase::Mapper, "fault_ii_penalty", u64::from(ii_penalty));
    Ok(DegradedMapping {
        mapping,
        baseline_ii,
        ii_penalty,
        excluded,
    })
}
