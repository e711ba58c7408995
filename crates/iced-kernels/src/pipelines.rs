//! Streaming-application pipeline descriptions (paper §IV-B, Table I).
//!
//! A streaming application is a linear pipeline of stages; a stage may run
//! several kernels in parallel (the LU application organises 6 kernels into
//! 4 stages). Each stage kernel carries the island allocation Table I
//! assigns to it and a *work model* describing how many loop iterations one
//! input instance costs — fixed for dense kernels (the paper's "weights
//! combine always has a fixed execution delay"), proportional to the
//! input's non-zeros for sparse kernels. The shifting bottleneck between
//! those two classes is exactly what the runtime DVFS controller exploits.
//!
//! A stage's kernel comes from a [`StageSource`]: either a Table I suite
//! [`Kernel`], or a deterministic fuzzer-generated kernel (seeded through
//! `iced-fuzz`) — the [`Pipeline::sensor`] and [`Pipeline::stencil`]
//! applications are built entirely from generated kernels, giving the
//! streaming layer coverage beyond the two paper applications.

use iced_dfg::Dfg;
use iced_fuzz::gen::{generate, GenOptions};

use crate::suite::{Kernel, UnrollFactor};

/// Per-input work model of one pipeline kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkModel {
    /// Iterations grow with the input's non-zero count: `base + scale·nnz`.
    PerUnit {
        /// Fixed overhead iterations.
        base: f64,
        /// Iterations per work unit (non-zero).
        scale: f64,
    },
    /// Input-independent iteration count (dense kernels).
    Fixed {
        /// Iterations per input.
        iters: f64,
    },
}

impl WorkModel {
    /// Loop iterations needed for an input with `units` work units.
    pub fn iterations(&self, units: u64) -> u64 {
        let it = match *self {
            WorkModel::PerUnit { base, scale } => base + scale * units as f64,
            WorkModel::Fixed { iters } => iters,
        };
        it.max(1.0).round() as u64
    }

    /// Whether the model depends on the input at all.
    pub fn is_data_dependent(&self) -> bool {
        matches!(self, WorkModel::PerUnit { .. })
    }
}

/// Where a stage kernel's DFG comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageSource {
    /// A Table I suite kernel.
    Suite(Kernel),
    /// A deterministic fuzzer-generated kernel: `seed` fully determines
    /// the DFG (via `iced_fuzz::gen::generate` with default options);
    /// `name` is the stable stage name used for display and routing.
    Generated {
        /// Stable stage name.
        name: &'static str,
        /// Generator seed.
        seed: u64,
    },
}

impl StageSource {
    /// Stable display name of the stage kernel.
    pub fn name(&self) -> &'static str {
        match self {
            StageSource::Suite(k) => k.name(),
            StageSource::Generated { name, .. } => name,
        }
    }

    /// The suite kernel, when this source is one.
    pub fn suite_kernel(&self) -> Option<Kernel> {
        match self {
            StageSource::Suite(k) => Some(*k),
            StageSource::Generated { .. } => None,
        }
    }

    /// Whether this source is the given suite kernel.
    pub fn is_kernel(&self, kernel: Kernel) -> bool {
        self.suite_kernel() == Some(kernel)
    }

    /// Builds the stage's DFG.
    ///
    /// Generated sources ignore the unroll factor below the generator
    /// (their seeds already decide unrolling); suite sources honour it.
    ///
    /// # Panics
    ///
    /// Panics if a generated source's seed does not generate — pipeline
    /// seeds are curated constants and covered by unit tests, so this is
    /// unreachable for the shipped pipelines.
    pub fn dfg(&self, uf: UnrollFactor) -> Dfg {
        match self {
            StageSource::Suite(k) => k.dfg(uf),
            StageSource::Generated { name, seed } => generate(*seed, &GenOptions::default())
                .unwrap_or_else(|e| panic!("pipeline seed {seed:#x} ({name}) must generate: {e}")),
        }
    }
}

/// One kernel within a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageKernel {
    /// The kernel source (suite or generated).
    pub source: StageSource,
    /// Islands allocated by the static partitioning (Table I).
    pub islands: usize,
    /// Per-input work model.
    pub work: WorkModel,
}

/// One pipeline stage (kernels within a stage run in parallel).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStage {
    /// Parallel kernels of this stage.
    pub kernels: Vec<StageKernel>,
}

/// A streaming application.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Application name ("gcn" or "lu").
    pub name: &'static str,
    /// Stages in dataflow order.
    pub stages: Vec<PipelineStage>,
}

fn stage(kernels: Vec<StageKernel>) -> PipelineStage {
    PipelineStage { kernels }
}

fn sk(kernel: Kernel, islands: usize, work: WorkModel) -> StageKernel {
    StageKernel {
        source: StageSource::Suite(kernel),
        islands,
        work,
    }
}

fn gk(name: &'static str, seed: u64, islands: usize, work: WorkModel) -> StageKernel {
    StageKernel {
        source: StageSource::Generated { name, seed },
        islands,
        work,
    }
}

impl Pipeline {
    /// The 2-layer GCN inference application: 5 unique kernels with
    /// `aggregate` instantiated twice (Table I allocates its 4 islands
    /// across the two instances). Aggregation and compression are
    /// spmv-like (work ∝ graph nnz); combine/combrelu/pooling are dense.
    pub fn gcn() -> Pipeline {
        Pipeline {
            name: "gcn",
            stages: vec![
                stage(vec![sk(
                    Kernel::GcnCompress,
                    1,
                    WorkModel::PerUnit {
                        base: 32.0,
                        scale: 0.8,
                    },
                )]),
                stage(vec![sk(
                    Kernel::GcnAggregate,
                    2,
                    WorkModel::PerUnit {
                        base: 16.0,
                        scale: 5.0,
                    },
                )]),
                stage(vec![sk(
                    Kernel::GcnCombine,
                    1,
                    WorkModel::Fixed { iters: 112.0 },
                )]),
                stage(vec![sk(
                    Kernel::GcnAggregate,
                    2,
                    WorkModel::PerUnit {
                        base: 16.0,
                        scale: 5.0,
                    },
                )]),
                stage(vec![sk(
                    Kernel::GcnCombRelu,
                    2,
                    WorkModel::Fixed { iters: 128.0 },
                )]),
                stage(vec![sk(
                    Kernel::GcnPooling,
                    1,
                    WorkModel::Fixed { iters: 64.0 },
                )]),
            ],
        }
    }

    /// The synthesized LU-decomposition application: 6 kernels in 4 stages
    /// (the two solvers run in parallel, as do invert/determinant).
    pub fn lu() -> Pipeline {
        Pipeline {
            name: "lu",
            stages: vec![
                stage(vec![sk(
                    Kernel::LuInit,
                    1,
                    WorkModel::Fixed { iters: 150.0 },
                )]),
                stage(vec![sk(
                    Kernel::LuDecompose,
                    1,
                    WorkModel::PerUnit {
                        base: 32.0,
                        scale: 0.5,
                    },
                )]),
                stage(vec![
                    sk(
                        Kernel::LuSolver0,
                        2,
                        WorkModel::PerUnit {
                            base: 24.0,
                            scale: 1.2,
                        },
                    ),
                    sk(
                        Kernel::LuSolver1,
                        2,
                        WorkModel::PerUnit {
                            base: 24.0,
                            scale: 1.2,
                        },
                    ),
                ]),
                stage(vec![
                    sk(Kernel::LuInvert, 1, WorkModel::Fixed { iters: 350.0 }),
                    sk(
                        Kernel::LuDeterminant,
                        2,
                        WorkModel::PerUnit {
                            base: 60.0,
                            scale: 0.3,
                        },
                    ),
                ]),
            ],
        }
    }

    /// A sensor-fusion style application built entirely from
    /// fuzzer-generated kernels: deskew → fuse (two parallel channels) →
    /// threshold. The front stages are sparse (work tracks the number of
    /// active sensor channels), the final threshold is dense — the same
    /// shifting-bottleneck structure the runtime controller exploits in
    /// GCN, but over generated dataflow instead of Table I kernels.
    pub fn sensor() -> Pipeline {
        Pipeline {
            name: "sensor",
            stages: vec![
                stage(vec![gk(
                    "deskew",
                    0x5E50_0001,
                    2,
                    WorkModel::PerUnit {
                        base: 24.0,
                        scale: 1.5,
                    },
                )]),
                stage(vec![
                    gk(
                        "fuse_lo",
                        0x5E50_0002,
                        2,
                        WorkModel::PerUnit {
                            base: 16.0,
                            scale: 2.0,
                        },
                    ),
                    gk(
                        "fuse_hi",
                        0x5E50_0003,
                        2,
                        WorkModel::PerUnit {
                            base: 16.0,
                            scale: 2.0,
                        },
                    ),
                ]),
                stage(vec![gk(
                    "threshold",
                    0x5E50_0004,
                    3,
                    WorkModel::Fixed { iters: 96.0 },
                )]),
            ],
        }
    }

    /// A stencil-sweep style application from fuzzer-generated kernels:
    /// halo exchange → interior update → residual reduction → correction.
    /// The interior update dominates on dense inputs; the residual stage
    /// scales with the number of boundary cells.
    pub fn stencil() -> Pipeline {
        Pipeline {
            name: "stencil",
            stages: vec![
                stage(vec![gk(
                    "halo",
                    0x57E4_0001,
                    1,
                    WorkModel::PerUnit {
                        base: 12.0,
                        scale: 0.6,
                    },
                )]),
                stage(vec![gk(
                    "interior",
                    0x57E4_0002,
                    4,
                    WorkModel::Fixed { iters: 220.0 },
                )]),
                stage(vec![gk(
                    "residual",
                    0x57E4_0003,
                    2,
                    WorkModel::PerUnit {
                        base: 20.0,
                        scale: 1.0,
                    },
                )]),
                stage(vec![gk(
                    "correct",
                    0x57E4_0004,
                    2,
                    WorkModel::Fixed { iters: 72.0 },
                )]),
            ],
        }
    }

    /// Looks a pipeline up by name (`gcn`, `lu`, `sensor`, `stencil`).
    pub fn by_name(name: &str) -> Option<Pipeline> {
        match name {
            "gcn" => Some(Pipeline::gcn()),
            "lu" => Some(Pipeline::lu()),
            "sensor" => Some(Pipeline::sensor()),
            "stencil" => Some(Pipeline::stencil()),
            _ => None,
        }
    }

    /// Every shipped pipeline, suite-backed and generated.
    pub fn all() -> Vec<Pipeline> {
        vec![
            Pipeline::gcn(),
            Pipeline::lu(),
            Pipeline::sensor(),
            Pipeline::stencil(),
        ]
    }

    /// Total islands allocated across all stage kernels.
    pub fn total_islands(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| s.kernels.iter())
            .map(|k| k.islands)
            .sum()
    }

    /// All stage kernels in dataflow order.
    pub fn stage_kernels(&self) -> impl Iterator<Item = &StageKernel> + '_ {
        self.stages.iter().flat_map(|s| s.kernels.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_matches_table1_allocation() {
        let p = Pipeline::gcn();
        assert_eq!(p.total_islands(), 9);
        assert_eq!(p.stages.len(), 6);
        // aggregate appears twice with 2 islands each (Table I's "4").
        let agg: Vec<_> = p
            .stage_kernels()
            .filter(|k| k.source.is_kernel(Kernel::GcnAggregate))
            .collect();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.iter().map(|k| k.islands).sum::<usize>(), 4);
    }

    #[test]
    fn lu_has_four_stages_six_kernels() {
        let p = Pipeline::lu();
        assert_eq!(p.stages.len(), 4);
        assert_eq!(p.stage_kernels().count(), 6);
        assert_eq!(p.total_islands(), 9);
    }

    #[test]
    fn work_models_shift_the_bottleneck() {
        let p = Pipeline::gcn();
        let agg = p
            .stage_kernels()
            .find(|k| k.source.is_kernel(Kernel::GcnAggregate))
            .unwrap();
        let comb = p
            .stage_kernels()
            .find(|k| k.source.is_kernel(Kernel::GcnCombine))
            .unwrap();
        // Sparse input: combine dominates; dense input: aggregate does.
        assert!(agg.work.iterations(8) < comb.work.iterations(8));
        assert!(agg.work.iterations(200) > comb.work.iterations(200));
        assert!(agg.work.is_data_dependent());
        assert!(!comb.work.is_data_dependent());
    }

    #[test]
    fn generated_pipelines_fit_the_fabric() {
        for p in [Pipeline::sensor(), Pipeline::stencil()] {
            assert!(p.total_islands() <= 9, "{} over-allocates islands", p.name);
            assert!(p.stages.len() >= 3);
            // Each application keeps a sparse and a dense stage so the
            // runtime DVFS controller has a bottleneck to chase.
            assert!(p.stage_kernels().any(|k| k.work.is_data_dependent()));
            assert!(p.stage_kernels().any(|k| !k.work.is_data_dependent()));
        }
    }

    #[test]
    fn generated_stage_seeds_are_curated() {
        // Every generated stage seed must actually generate (dfg() panics
        // otherwise) and produce a non-trivial, valid kernel — this is the
        // curation gate for the constants in sensor()/stencil().
        for p in [Pipeline::sensor(), Pipeline::stencil()] {
            for k in p.stage_kernels() {
                assert!(k.source.suite_kernel().is_none());
                let dfg = k.source.dfg(UnrollFactor::X1);
                dfg.validate().unwrap();
                assert!(dfg.node_count() >= 3, "{} too small", k.source.name());
            }
        }
    }

    #[test]
    fn generated_stage_kernels_map_on_the_prototype() {
        use iced_arch::CgraConfig;
        use iced_mapper::{map_with, MapperOptions};
        let cfg = CgraConfig::iced_prototype();
        for p in [Pipeline::sensor(), Pipeline::stencil()] {
            for k in p.stage_kernels() {
                let dfg = k.source.dfg(UnrollFactor::X1);
                let m = map_with(&dfg, &cfg, &MapperOptions::default())
                    .unwrap_or_else(|e| panic!("{} does not map: {e}", k.source.name()));
                assert!(m.ii() >= 1);
            }
        }
    }

    #[test]
    fn by_name_covers_all_pipelines() {
        for p in Pipeline::all() {
            let found = Pipeline::by_name(p.name).unwrap();
            assert_eq!(found.name, p.name);
            assert_eq!(found.stages.len(), p.stages.len());
        }
        assert!(Pipeline::by_name("nope").is_none());
    }

    #[test]
    fn stage_source_names_are_stable() {
        let s = StageSource::Generated {
            name: "deskew",
            seed: 1,
        };
        assert_eq!(s.name(), "deskew");
        assert!(!s.is_kernel(Kernel::Fir));
        assert_eq!(StageSource::Suite(Kernel::Fir).name(), "fir");
    }

    #[test]
    fn iterations_are_at_least_one() {
        assert_eq!(WorkModel::Fixed { iters: 0.0 }.iterations(0), 1);
        assert_eq!(
            WorkModel::PerUnit {
                base: 0.0,
                scale: 0.0
            }
            .iterations(0),
            1
        );
    }

    #[test]
    fn work_models_agree_with_reference_trip_shapes() {
        use crate::pipelines::Pipeline;
        // The GCN aggregate stage is spmv-like: doubling nnz must roughly
        // double its modeled iterations, while combine stays fixed.
        let p = Pipeline::gcn();
        let agg = p
            .stage_kernels()
            .find(|k| k.source.is_kernel(crate::Kernel::GcnAggregate))
            .unwrap();
        let comb = p
            .stage_kernels()
            .find(|k| k.source.is_kernel(crate::Kernel::GcnCombine))
            .unwrap();
        let a1 = agg.work.iterations(100) as f64;
        let a2 = agg.work.iterations(200) as f64;
        assert!(
            (a2 / a1 - 2.0).abs() < 0.2,
            "spmv-like scaling: {}",
            a2 / a1
        );
        assert_eq!(comb.work.iterations(100), comb.work.iterations(200));
    }
}
