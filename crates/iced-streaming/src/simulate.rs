//! Pipeline event simulation with runtime DVFS or DRIPS re-partitioning.

use iced_arch::{DvfsLevel, IslandId};
use iced_fault::{FaultPlan, MidRunFailure};
use iced_kernels::pipelines::Pipeline;
use iced_power::{PowerModel, TransitionModel, VfPoint};
use iced_trace::Phase;

use crate::controller::DvfsController;
use crate::partition::Partition;

/// Runtime adaptation policy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimePolicy {
    /// ICED: fixed partition, per-window island DVFS (§III-B).
    IcedDvfs,
    /// DRIPS: per-window island re-partitioning towards the bottleneck,
    /// everything at nominal V/F (HPCA'22).
    Drips,
    /// No adaptation at all (ablation).
    StaticNormal,
}

/// Per-window measurement (one point of the Fig. 13 series).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window index (each window covers 10 inputs).
    pub window: usize,
    /// Inputs per second achieved in this window.
    pub throughput: f64,
    /// Average power over the window (mW).
    pub power_mw: f64,
    /// DVFS level of every pipeline kernel at the window's close (always
    /// `normal` for the non-DVFS policies) — the controller trace.
    pub levels: Vec<DvfsLevel>,
}

impl WindowSample {
    /// Energy efficiency: throughput per watt.
    pub fn perf_per_watt(&self) -> f64 {
        if self.power_mw <= 0.0 {
            0.0
        } else {
            self.throughput / (self.power_mw / 1000.0)
        }
    }
}

/// Result of streaming one input set through the pipeline.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Policy simulated.
    pub policy: RuntimePolicy,
    /// Per-window samples.
    pub samples: Vec<WindowSample>,
    /// Total wall time (µs).
    pub total_time_us: f64,
    /// Total energy (nJ).
    pub total_energy_nj: f64,
    /// Inputs processed.
    pub inputs: usize,
}

impl StreamReport {
    /// Overall throughput (inputs/s).
    pub fn throughput(&self) -> f64 {
        if self.total_time_us <= 0.0 {
            0.0
        } else {
            self.inputs as f64 / (self.total_time_us * 1e-6)
        }
    }

    /// Overall average power (mW).
    pub fn avg_power_mw(&self) -> f64 {
        if self.total_time_us <= 0.0 {
            0.0
        } else {
            self.total_energy_nj / self.total_time_us
        }
    }

    /// Overall energy efficiency (inputs per second per watt).
    pub fn perf_per_watt(&self) -> f64 {
        let p = self.avg_power_mw();
        if p <= 0.0 {
            0.0
        } else {
            self.throughput() / (p / 1000.0)
        }
    }
}

/// One island failure absorbed mid-run (the failover trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Input index at which the failure struck (the repartition happened
    /// before this input was processed).
    pub input_index: usize,
    /// The island that died.
    pub island: IslandId,
    /// Islands still alive after this failure.
    pub surviving_islands: usize,
    /// The per-kernel island allocation chosen for the surviving fabric
    /// (empty when the pipeline could not be repartitioned and halted).
    pub reallocation: Vec<usize>,
}

/// Result of a stream run under a fault plan: the ordinary report plus the
/// failover trace. With no mid-run failures `report` is bit-identical to
/// [`simulate_with_window`]'s and `failovers` is empty.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The stream report over the inputs that were actually processed.
    pub report: StreamReport,
    /// Every island failure absorbed, in input order.
    pub failovers: Vec<FailoverEvent>,
    /// True when a failure left too few islands for every kernel's feasible
    /// minimum and the stream halted early; `report.inputs` then counts
    /// only the inputs processed before the halt.
    pub halted: bool,
}

/// Simulates streaming `inputs` (work units per input, e.g. graph nnz)
/// through `pipeline` under `policy` with the paper's 10-input adaptation
/// window.
pub fn simulate(
    pipeline: &Pipeline,
    partition: &Partition,
    model: &PowerModel,
    inputs: &[u64],
    policy: RuntimePolicy,
) -> StreamReport {
    simulate_with_window(pipeline, partition, model, inputs, policy, 10)
}

/// [`simulate_with_window`] under a [`FaultPlan`]: every
/// [`MidRunFailure`] in the plan kills one island when its input index is
/// reached, and the runtime repartitions the surviving islands with the
/// same exhaustive bottleneck search used offline
/// ([`Partition::reallocate`], profiled over the not-yet-processed
/// inputs). When the survivors cannot grant every kernel its feasible
/// minimum the stream halts and the report says so — a structured
/// degradation, never a panic. Fully deterministic in its arguments.
pub fn simulate_with_faults(
    pipeline: &Pipeline,
    partition: &Partition,
    model: &PowerModel,
    inputs: &[u64],
    policy: RuntimePolicy,
    window: usize,
    plan: &FaultPlan,
) -> FailoverReport {
    simulate_inner(
        pipeline,
        partition,
        model,
        inputs,
        policy,
        window,
        &plan.midrun,
    )
}

/// [`simulate`] with an explicit adaptation window. The paper adapts every
/// 10 inputs for a fair comparison with DRIPS, but notes that ICED's
/// ns-scale LDO/ADPLL would allow much finer-grained switching — sweeping
/// the window quantifies that headroom (the adaptation-window tables of
/// `BENCH_figures.json`).
pub fn simulate_with_window(
    pipeline: &Pipeline,
    partition: &Partition,
    model: &PowerModel,
    inputs: &[u64],
    policy: RuntimePolicy,
    window: usize,
) -> StreamReport {
    simulate_inner(pipeline, partition, model, inputs, policy, window, &[]).report
}

fn simulate_inner(
    pipeline: &Pipeline,
    partition: &Partition,
    model: &PowerModel,
    inputs: &[u64],
    policy: RuntimePolicy,
    window: usize,
    failures: &[MidRunFailure],
) -> FailoverReport {
    let window = window.max(1);
    let n_kernels = partition.profiles.len();
    if n_kernels == 0 {
        // A kernel-less pipeline processes nothing: report an empty stream
        // rather than indexing into per-kernel state that does not exist.
        return FailoverReport {
            report: StreamReport {
                policy,
                samples: Vec::new(),
                total_time_us: 0.0,
                total_energy_nj: 0.0,
                inputs: 0,
            },
            failovers: Vec::new(),
            halted: false,
        };
    }
    // Pre-resolve the failure schedule: the repartition at each strike
    // depends only on (partition, surviving capacity, remaining inputs),
    // so the allocation swaps — and the halt point, if the survivors ever
    // drop below the feasible minimum — are computed up front. Truncating
    // the stream at the halt point lets the ordinary window bookkeeping
    // flush the final (partial) window exactly as at end-of-stream.
    let mut sorted_failures: Vec<&MidRunFailure> = failures.iter().collect();
    sorted_failures.sort_by_key(|f| f.after_inputs);
    let mut capacity = partition.total_islands();
    let mut failovers: Vec<FailoverEvent> = Vec::new();
    let mut swaps: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut truncate_at: Option<usize> = None;
    let mut halted = false;
    for f in sorted_failures {
        let at = f.after_inputs;
        if at >= inputs.len() || truncate_at.is_some() {
            // Strikes past the stream's end (or past a halt) never happen.
            continue;
        }
        capacity = capacity.saturating_sub(1);
        iced_trace::counter(Phase::Controller, "stream_failovers", 1);
        match partition.reallocate(capacity, &inputs[at..]) {
            Some(a) => {
                failovers.push(FailoverEvent {
                    input_index: at,
                    island: f.island,
                    surviving_islands: capacity,
                    reallocation: a.clone(),
                });
                swaps.push((at, a));
            }
            None => {
                iced_trace::counter(Phase::Controller, "stream_halts", 1);
                failovers.push(FailoverEvent {
                    input_index: at,
                    island: f.island,
                    surviving_islands: capacity,
                    reallocation: Vec::new(),
                });
                truncate_at = Some(at);
                halted = true;
            }
        }
    }
    let inputs = &inputs[..truncate_at.unwrap_or(inputs.len())];
    let mut swaps = swaps.into_iter().peekable();
    let stage_of: Vec<usize> = pipeline
        .stages
        .iter()
        .enumerate()
        .flat_map(|(s, st)| st.kernels.iter().map(move |_| s))
        .collect();
    let tpi = 4.0; // 2×2 islands on the prototype
    let f_base = VfPoint::nominal().freq_mhz();

    let mut alloc: Vec<usize> = (0..n_kernels).map(|i| partition.islands_of(i)).collect();
    let mut controller = DvfsController::new(n_kernels, window);
    let transition = TransitionModel::prototype_island();
    let mut prev_levels: Vec<DvfsLevel> = vec![DvfsLevel::Normal; n_kernels];
    let mut finish = vec![0.0f64; n_kernels];
    let mut busy_in_window = vec![0.0f64; n_kernels];
    let mut lat_in_window: Vec<Vec<f64>> = vec![Vec::new(); n_kernels];
    let mut samples = Vec::new();
    let mut total_energy = 0.0;
    let mut window_start = 0.0f64;
    let mut window_idx = 0usize;

    let latency_us = |k: usize, units: u64, alloc: &[usize], level: DvfsLevel| -> f64 {
        let prof = &partition.profiles[k];
        let ii = prof.ii(alloc[k]).unwrap_or(u32::MAX) as f64;
        let iters = prof.stage.work.iterations(units) as f64;
        let div = level.rate_divisor().unwrap_or(4) as f64;
        iters * ii * div / f_base
    };

    for (i, &units) in inputs.iter().enumerate() {
        // Apply any repartition scheduled at this input (island failures
        // strike *before* the input is processed).
        while swaps.peek().is_some_and(|(at, _)| *at == i) {
            let (_, a) = swaps.next().expect("peeked");
            alloc = a;
        }
        // Stage readiness: every kernel of stage s-1 must have finished
        // this input before stage s starts it.
        let mut stage_ready = 0.0f64;
        let mut prev_stage = usize::MAX;
        for k in 0..n_kernels {
            if stage_of[k] != prev_stage {
                // Entering a new stage: inputs flow from the previous one.
                stage_ready = (0..k)
                    .filter(|&j| stage_of[j] + 1 == stage_of[k])
                    .map(|j| finish[j])
                    .fold(stage_ready, f64::max);
                prev_stage = stage_of[k];
            }
            let level = match policy {
                RuntimePolicy::IcedDvfs => controller.level(k),
                _ => DvfsLevel::Normal,
            };
            let lat = latency_us(k, units, &alloc, level);
            let start = finish[k].max(stage_ready);
            finish[k] = start + lat;
            busy_in_window[k] += lat;
            lat_in_window[k].push(lat);
            if policy == RuntimePolicy::IcedDvfs {
                let _ = controller.record(k, lat);
            }
        }

        // Window boundary bookkeeping.
        if (i + 1) % window == 0 || i + 1 == inputs.len() {
            let wall_end = finish.iter().fold(0.0f64, |a, &b| a.max(b));
            let wall = (wall_end - window_start).max(1e-9);
            let mut power = 0.0;
            for k in 0..n_kernels {
                let level = match policy {
                    RuntimePolicy::IcedDvfs => controller.level(k),
                    _ => DvfsLevel::Normal,
                };
                let tiles = alloc[k] as f64 * tpi;
                let busy_frac = (busy_in_window[k] / wall).min(1.0);
                let act = partition.profiles[k].activity;
                let p_busy = model.tile_power_mw(level, act);
                let p_idle = model.tile_power_mw(level, 0.0);
                power += tiles * (p_busy * busy_frac + p_idle * (1.0 - busy_frac));
            }
            // Adaptation hardware: ICED pays one LDO+ADPLL+control unit
            // per island; DRIPS pays its dynamic-reshape support (per-kernel
            // execution monitors, reshape controller, and double-buffered
            // configuration contexts — charged as four controller
            // equivalents, a conservative reading of the DRIPS design).
            let controllers = match policy {
                RuntimePolicy::IcedDvfs => alloc.iter().sum::<usize>(),
                RuntimePolicy::Drips => 4,
                RuntimePolicy::StaticNormal => 0,
            };
            power += model.controllers_power_mw(controllers);
            power += model.sram_power_mw(0.35);
            let in_window = lat_in_window[0].len();
            total_energy += power * wall;
            // Charge DVFS transitions: every island of a kernel whose level
            // changed this window pays the rail-charging energy (ns-scale
            // switch latency is negligible against the ms-scale window and
            // is not added to the timeline).
            if policy == RuntimePolicy::IcedDvfs {
                for k in 0..n_kernels {
                    let new_level = controller.level(k);
                    if new_level != prev_levels[k] {
                        total_energy +=
                            alloc[k] as f64 * transition.energy_nj(prev_levels[k], new_level);
                        prev_levels[k] = new_level;
                    }
                }
            }
            samples.push(WindowSample {
                window: window_idx,
                throughput: in_window as f64 / (wall * 1e-6),
                power_mw: power,
                levels: (0..n_kernels)
                    .map(|k| match policy {
                        RuntimePolicy::IcedDvfs => controller.level(k),
                        _ => DvfsLevel::Normal,
                    })
                    .collect(),
            });
            window_idx += 1;
            window_start = wall_end;
            // DRIPS: move one island from the fastest kernel to the
            // bottleneck (dynamic rebalancing).
            if policy == RuntimePolicy::Drips {
                rebalance(partition, &mut alloc, &lat_in_window);
            }
            for k in 0..n_kernels {
                busy_in_window[k] = 0.0;
                lat_in_window[k].clear();
            }
        }
    }

    // Wall clock: when the last kernel finishes the last input (0 when no
    // inputs streamed).
    let total_time = finish.iter().fold(0.0f64, |a, &b| a.max(b));
    FailoverReport {
        report: StreamReport {
            policy,
            samples,
            total_time_us: total_time,
            total_energy_nj: total_energy,
            inputs: inputs.len(),
        },
        failovers,
        halted,
    }
}

/// DRIPS rebalancing: donate one island from the kernel with the most
/// slack to the bottleneck kernel, if both stay feasible.
fn rebalance(partition: &Partition, alloc: &mut [usize], lats: &[Vec<f64>]) {
    let avg = |v: &Vec<f64>| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let times: Vec<f64> = lats.iter().map(avg).collect();
    let Some(bottleneck) = times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
    else {
        return;
    };
    let donor = times
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != bottleneck && alloc[k] > partition.profiles[k].min_islands())
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i);
    if let Some(d) = donor {
        // Only donate if the bottleneck actually benefits.
        let p = &partition.profiles[bottleneck];
        let before = p.ii(alloc[bottleneck]);
        let after = p.ii(alloc[bottleneck] + 1);
        if after < before {
            alloc[d] -= 1;
            alloc[bottleneck] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::CgraConfig;
    use iced_kernels::workloads;

    fn gcn_setup() -> (Pipeline, Partition, PowerModel, Vec<u64>) {
        let cfg = CgraConfig::iced_prototype();
        let pipeline = Pipeline::gcn();
        let partition = Partition::table1(&pipeline, &cfg).unwrap();
        let inputs: Vec<u64> = workloads::enzymes_like(150, 9)
            .iter()
            .map(|g| g.nnz())
            .collect();
        (pipeline, partition, PowerModel::asap7(), inputs)
    }

    #[test]
    fn iced_beats_drips_on_energy_efficiency() {
        let (pipeline, partition, model, inputs) = gcn_setup();
        let iced = simulate(
            &pipeline,
            &partition,
            &model,
            &inputs,
            RuntimePolicy::IcedDvfs,
        );
        let drips = simulate(&pipeline, &partition, &model, &inputs, RuntimePolicy::Drips);
        let ratio = iced.perf_per_watt() / drips.perf_per_watt();
        assert!(
            ratio > 1.0,
            "ICED/DRIPS perf-per-watt = {ratio:.3} (expected > 1)"
        );
        assert!(ratio < 2.0, "ratio {ratio:.3} implausibly high");
    }

    #[test]
    fn dvfs_lowers_power_versus_static() {
        let (pipeline, partition, model, inputs) = gcn_setup();
        let iced = simulate(
            &pipeline,
            &partition,
            &model,
            &inputs,
            RuntimePolicy::IcedDvfs,
        );
        let stat = simulate(
            &pipeline,
            &partition,
            &model,
            &inputs,
            RuntimePolicy::StaticNormal,
        );
        // Static-normal has no controller overhead but never slows idle
        // kernels; ICED must still come out ahead on average power.
        assert!(
            iced.avg_power_mw() < stat.avg_power_mw() + model.controllers_power_mw(9),
            "iced {} vs static {}",
            iced.avg_power_mw(),
            stat.avg_power_mw()
        );
    }

    #[test]
    fn window_samples_cover_the_stream() {
        let (pipeline, partition, model, inputs) = gcn_setup();
        let r = simulate(
            &pipeline,
            &partition,
            &model,
            &inputs,
            RuntimePolicy::IcedDvfs,
        );
        assert_eq!(r.samples.len(), inputs.len().div_ceil(10));
        assert_eq!(r.inputs, inputs.len());
        assert!(r.total_time_us > 0.0);
        assert!(r
            .samples
            .iter()
            .all(|s| s.power_mw > 0.0 && s.throughput > 0.0));
    }

    #[test]
    fn empty_input_stream_reports_zero_wall_clock() {
        let (pipeline, partition, model, _) = gcn_setup();
        let r = simulate(&pipeline, &partition, &model, &[], RuntimePolicy::IcedDvfs);
        assert!(r.samples.is_empty());
        assert_eq!(r.inputs, 0);
        assert_eq!(r.total_time_us, 0.0);
        assert_eq!(r.total_energy_nj, 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.avg_power_mw(), 0.0);
    }

    #[test]
    fn zero_kernel_pipeline_reports_empty_stream() {
        let pipeline = Pipeline {
            name: "empty",
            stages: Vec::new(),
        };
        let partition = Partition {
            allocations: Vec::new(),
            profiles: Vec::new(),
        };
        let model = PowerModel::asap7();
        let r = simulate(
            &pipeline,
            &partition,
            &model,
            &[10, 20, 30],
            RuntimePolicy::Drips,
        );
        assert!(r.samples.is_empty());
        assert_eq!(r.inputs, 0);
        assert_eq!(r.total_time_us, 0.0);
        assert_eq!(r.total_energy_nj, 0.0);
    }

    #[test]
    fn drips_rebalances_towards_the_bottleneck() {
        let (pipeline, partition, model, _) = gcn_setup();
        // Dense graphs make aggregate the persistent bottleneck.
        let dense: Vec<u64> = vec![240; 40];
        let r = simulate(&pipeline, &partition, &model, &dense, RuntimePolicy::Drips);
        // Rebalancing must help or at least not hurt throughput windows.
        let first = r.samples.first().unwrap().throughput;
        let last = r.samples.last().unwrap().throughput;
        assert!(last >= first * 0.95, "first {first}, last {last}");
    }
}
