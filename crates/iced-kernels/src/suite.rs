//! The evaluated kernel suite (paper Table I).

use iced_dfg::{Dfg, DfgBuilder, Opcode};

use crate::synth::SynthSpec;

/// Loop unrolling factor used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnrollFactor {
    /// Original loop body.
    X1,
    /// Unrolled by a factor of 2.
    X2,
}

impl UnrollFactor {
    /// Both evaluated factors.
    pub const ALL: [UnrollFactor; 2] = [UnrollFactor::X1, UnrollFactor::X2];

    /// Numeric factor.
    pub fn factor(self) -> u32 {
        match self {
            UnrollFactor::X1 => 1,
            UnrollFactor::X2 => 2,
        }
    }
}

/// Application domain of a kernel (Table I's leftmost column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// DSP kernels from UTDSP (fir, latnrm, fft, dtw).
    Embedded,
    /// ML kernels (spmv, conv, relu).
    MachineLearning,
    /// HPC kernels from PolyBench/Parboil (histogram, mvt, gemm).
    Hpc,
    /// Kernels of the 2-layer GCN streaming application.
    Gcn,
    /// Kernels of the synthesized LU-decomposition streaming application.
    Lu,
}

/// One benchmark kernel of the ICED evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Finite impulse response filter (embedded).
    Fir,
    /// Normalised lattice filter (embedded).
    Latnrm,
    /// Fast Fourier transform (embedded).
    Fft,
    /// Dynamic time warping (embedded).
    Dtw,
    /// Sparse matrix-vector multiplication (ML).
    Spmv,
    /// Convolution (ML).
    Conv,
    /// Rectified linear unit, standalone to exercise control flow (ML).
    Relu,
    /// Histogram (HPC).
    Histogram,
    /// Matrix-vector product and transpose (HPC).
    Mvt,
    /// Generalised matrix multiplication (HPC).
    Gemm,
    /// GCN: feature compression stage.
    GcnCompress,
    /// GCN: neighbourhood aggregation (instantiated twice in the pipeline).
    GcnAggregate,
    /// GCN: weight combine stage.
    GcnCombine,
    /// GCN: combine + ReLU stage.
    GcnCombRelu,
    /// GCN: global pooling stage.
    GcnPooling,
    /// LU: initialisation.
    LuInit,
    /// LU: decomposition step.
    LuDecompose,
    /// LU: forward solver.
    LuSolver0,
    /// LU: backward solver.
    LuSolver1,
    /// LU: inversion step.
    LuInvert,
    /// LU: determinant computation.
    LuDeterminant,
}

impl Kernel {
    /// All 21 kernels of the evaluation, in Table I order.
    pub const ALL: [Kernel; 21] = [
        Kernel::Fir,
        Kernel::Latnrm,
        Kernel::Fft,
        Kernel::Dtw,
        Kernel::Spmv,
        Kernel::Conv,
        Kernel::Relu,
        Kernel::Histogram,
        Kernel::Mvt,
        Kernel::Gemm,
        Kernel::GcnCompress,
        Kernel::GcnAggregate,
        Kernel::GcnCombine,
        Kernel::GcnCombRelu,
        Kernel::GcnPooling,
        Kernel::LuInit,
        Kernel::LuDecompose,
        Kernel::LuSolver0,
        Kernel::LuSolver1,
        Kernel::LuInvert,
        Kernel::LuDeterminant,
    ];

    /// The 10 standalone kernels mapped on the whole fabric (Figs. 2, 4,
    /// 9–12).
    pub const STANDALONE: [Kernel; 10] = [
        Kernel::Fir,
        Kernel::Latnrm,
        Kernel::Fft,
        Kernel::Dtw,
        Kernel::Spmv,
        Kernel::Conv,
        Kernel::Relu,
        Kernel::Histogram,
        Kernel::Mvt,
        Kernel::Gemm,
    ];

    /// Short lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Fir => "fir",
            Kernel::Latnrm => "latnrm",
            Kernel::Fft => "fft",
            Kernel::Dtw => "dtw",
            Kernel::Spmv => "spmv",
            Kernel::Conv => "conv",
            Kernel::Relu => "relu",
            Kernel::Histogram => "histogram",
            Kernel::Mvt => "mvt",
            Kernel::Gemm => "gemm",
            Kernel::GcnCompress => "compress",
            Kernel::GcnAggregate => "aggregate",
            Kernel::GcnCombine => "combine",
            Kernel::GcnCombRelu => "combrelu",
            Kernel::GcnPooling => "pooling",
            Kernel::LuInit => "init",
            Kernel::LuDecompose => "decompose",
            Kernel::LuSolver0 => "solver0",
            Kernel::LuSolver1 => "solver1",
            Kernel::LuInvert => "invert",
            Kernel::LuDeterminant => "determinant",
        }
    }

    /// Application domain.
    pub fn domain(self) -> Domain {
        match self {
            Kernel::Fir | Kernel::Latnrm | Kernel::Fft | Kernel::Dtw => Domain::Embedded,
            Kernel::Spmv | Kernel::Conv | Kernel::Relu => Domain::MachineLearning,
            Kernel::Histogram | Kernel::Mvt | Kernel::Gemm => Domain::Hpc,
            Kernel::GcnCompress
            | Kernel::GcnAggregate
            | Kernel::GcnCombine
            | Kernel::GcnCombRelu
            | Kernel::GcnPooling => Domain::Gcn,
            Kernel::LuInit
            | Kernel::LuDecompose
            | Kernel::LuSolver0
            | Kernel::LuSolver1
            | Kernel::LuInvert
            | Kernel::LuDeterminant => Domain::Lu,
        }
    }

    /// Number of 2×2 islands Table I allocates to this kernel inside its
    /// streaming application (`None` for standalone kernels, which use the
    /// whole fabric). `GcnAggregate`'s 4 islands cover its two pipeline
    /// instances (2 each).
    pub fn islands(self) -> Option<usize> {
        match self {
            Kernel::GcnCompress => Some(1),
            Kernel::GcnAggregate => Some(4),
            Kernel::GcnCombine => Some(1),
            Kernel::GcnCombRelu => Some(2),
            Kernel::GcnPooling => Some(1),
            Kernel::LuInit => Some(1),
            Kernel::LuDecompose => Some(1),
            Kernel::LuSolver0 => Some(2),
            Kernel::LuSolver1 => Some(2),
            Kernel::LuInvert => Some(1),
            Kernel::LuDeterminant => Some(2),
            _ => None,
        }
    }

    /// Published Table I statistics `(nodes, edges, RecMII)`.
    pub fn table1(self, uf: UnrollFactor) -> (usize, usize, u32) {
        let s = self.spec(uf);
        (s.nodes, s.edges, s.rec_mii())
    }

    /// Builds the kernel's DFG at the given unroll factor.
    pub fn dfg(self, uf: UnrollFactor) -> Dfg {
        self.spec(uf).build()
    }

    /// Structural specification reproducing Table I.
    pub fn spec(self, uf: UnrollFactor) -> SynthSpec {
        use Opcode::*;
        // Critical-cycle construction: a phi followed by a flavour pattern
        // cycled to the RecMII length.
        let crit = |len: usize, tail: &[Opcode]| -> Vec<Opcode> {
            let mut v = vec![Phi];
            for i in 0..len - 1 {
                v.push(tail[i % tail.len()]);
            }
            v
        };
        let acc4 = || crit(4, &[Add, Cmp, Select]);
        let acc7 = || crit(7, &[Add, Mul, Add, Cmp, Select, Mov]);
        let dsp = || vec![Mul, Add, Sub, Shift];
        let ml = || vec![Mul, Add, Max];
        let hpc = || vec![Mul, Add, Sub];
        let gcn = || vec![Mul, Add, Max, Mov];
        let lu = || vec![Mul, Sub, Div];
        let x1 = uf == UnrollFactor::X1;

        let (nodes, edges, critical, secondary, palette) = match self {
            Kernel::Fir => (
                if x1 { 12 } else { 20 },
                if x1 { 16 } else { 26 },
                acc4(),
                vec![],
                dsp(),
            ),
            Kernel::Latnrm => (
                if x1 { 12 } else { 19 },
                if x1 { 16 } else { 25 },
                acc4(),
                vec![],
                dsp(),
            ),
            Kernel::Fft => (
                if x1 { 42 } else { 71 },
                if x1 { 60 } else { 100 },
                acc4(),
                vec![],
                dsp(),
            ),
            Kernel::Dtw => (
                if x1 { 32 } else { 51 },
                if x1 { 49 } else { 84 },
                crit(4, &[Min, Add, Select]),
                vec![2],
                dsp(),
            ),
            Kernel::Spmv => (
                if x1 { 19 } else { 37 },
                if x1 { 24 } else { 50 },
                if x1 { acc4() } else { acc7() },
                vec![2],
                ml(),
            ),
            Kernel::Conv => (
                if x1 { 17 } else { 24 },
                if x1 { 23 } else { 34 },
                acc4(),
                vec![],
                ml(),
            ),
            Kernel::Relu => (
                if x1 { 14 } else { 23 },
                if x1 { 19 } else { 32 },
                crit(4, &[Max, Cmp, Select]),
                vec![],
                ml(),
            ),
            Kernel::Histogram => (
                if x1 { 15 } else { 23 },
                if x1 { 17 } else { 26 },
                acc4(),
                vec![],
                hpc(),
            ),
            Kernel::Mvt => (
                if x1 { 20 } else { 37 },
                if x1 { 29 } else { 54 },
                acc4(),
                vec![],
                hpc(),
            ),
            Kernel::Gemm => (
                if x1 { 17 } else { 23 },
                if x1 { 24 } else { 37 },
                if x1 { acc4() } else { acc7() },
                vec![2],
                hpc(),
            ),
            Kernel::GcnCompress => (
                if x1 { 24 } else { 46 },
                if x1 { 32 } else { 65 },
                if x1 { acc4() } else { acc7() },
                vec![],
                gcn(),
            ),
            Kernel::GcnAggregate => (
                if x1 { 27 } else { 53 },
                if x1 { 34 } else { 69 },
                if x1 { acc4() } else { acc7() },
                vec![],
                gcn(),
            ),
            Kernel::GcnCombine => (
                if x1 { 26 } else { 51 },
                if x1 { 35 } else { 71 },
                if x1 { acc4() } else { acc7() },
                vec![],
                gcn(),
            ),
            Kernel::GcnCombRelu => (
                if x1 { 30 } else { 59 },
                if x1 { 42 } else { 85 },
                if x1 {
                    crit(4, &[Max, Cmp, Select])
                } else {
                    crit(7, &[Max, Mul, Add, Cmp, Select, Mov])
                },
                vec![],
                gcn(),
            ),
            Kernel::GcnPooling => (
                if x1 { 16 } else { 31 },
                if x1 { 21 } else { 43 },
                if x1 {
                    crit(4, &[Max, Cmp, Select])
                } else {
                    crit(7, &[Max, Add, Max, Cmp, Select, Mov])
                },
                vec![],
                gcn(),
            ),
            Kernel::LuInit => (
                if x1 { 11 } else { 21 },
                if x1 { 15 } else { 32 },
                if x1 { acc4() } else { acc7() },
                vec![],
                lu(),
            ),
            Kernel::LuDecompose => (
                if x1 { 15 } else { 27 },
                if x1 { 25 } else { 50 },
                if x1 {
                    crit(4, &[Mul, Sub, Select])
                } else {
                    crit(7, &[Mul, Sub, Div, Cmp, Select, Mov])
                },
                vec![],
                lu(),
            ),
            Kernel::LuSolver0 => (
                if x1 { 33 } else { 65 },
                if x1 { 49 } else { 98 },
                if x1 {
                    crit(8, &[Mul, Sub, Mul, Add, Div, Cmp, Select])
                } else {
                    crit(15, &[Mul, Sub, Mul, Add, Div, Cmp, Select])
                },
                vec![],
                lu(),
            ),
            Kernel::LuSolver1 => (
                if x1 { 35 } else { 69 },
                if x1 { 54 } else { 108 },
                if x1 {
                    crit(12, &[Mul, Sub, Mul, Add, Div, Cmp, Select])
                } else {
                    crit(23, &[Mul, Sub, Mul, Add, Div, Cmp, Select])
                },
                vec![],
                lu(),
            ),
            Kernel::LuInvert => (
                if x1 { 14 } else { 24 },
                if x1 { 22 } else { 37 },
                crit(4, &[Mul, Div, Select]),
                vec![],
                lu(),
            ),
            Kernel::LuDeterminant => (
                if x1 { 20 } else { 38 },
                if x1 { 36 } else { 71 },
                if x1 {
                    crit(7, &[Mul, Sub, Mul, Cmp, Select, Mov])
                } else {
                    crit(13, &[Mul, Sub, Mul, Cmp, Select, Mov])
                },
                vec![],
                lu(),
            ),
        };
        SynthSpec {
            name: self.name(),
            nodes,
            edges,
            critical,
            secondary,
            palette,
            sink_len: 2,
        }
    }
}

/// The synthetic kernel of the paper's motivating example (Figs. 1
/// and 3): 11 nodes with a 4-node critical recurrence cycle (n1, n4, n7,
/// n9 in the paper), a 2-node secondary cycle (n10, n11), and grey feeder
/// nodes including loads that must sit on the SPM-connected column.
/// The critical cycle pins RecMII at 4.
pub fn motivating_example() -> Dfg {
    let mut b = DfgBuilder::new("fig1");
    let n1 = b.node(Opcode::Phi, "n1");
    let n4 = b.node(Opcode::Add, "n4");
    let n7 = b.node(Opcode::Cmp, "n7");
    let n9 = b.node(Opcode::Select, "n9");
    let n10 = b.node(Opcode::Add, "n10");
    let n11 = b.node(Opcode::Mov, "n11");
    let n5 = b.node(Opcode::Load, "n5");
    let n6 = b.node(Opcode::Mul, "n6");
    let n8 = b.node(Opcode::Mul, "n8");
    let n2 = b.node(Opcode::Load, "n2");
    let n3 = b.node(Opcode::Store, "n3");
    let wire = |b: &mut DfgBuilder| -> Result<(), iced_dfg::DfgError> {
        b.data(n1, n4)?;
        b.data(n4, n7)?;
        b.data(n7, n9)?;
        b.carry(n9, n1)?; // II-critical cycle of length 4
        b.data(n9, n10)?;
        b.data(n10, n11)?;
        b.carry(n11, n10)?; // secondary cycle of length 2
        b.data(n5, n6)?;
        b.data(n6, n8)?;
        b.data(n2, n8)?;
        b.data(n8, n4)?;
        b.data(n9, n3)
    };
    wire(&mut b).expect("the edges join nodes of this graph");
    b.finish().expect("the motivating example is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivating_example_has_the_figure_1_shape() {
        let dfg = motivating_example();
        assert_eq!(dfg.node_count(), 11);
        assert_eq!(dfg.edge_count(), 12);
        assert_eq!(dfg.rec_mii(), 4);
    }

    /// The published Table I, transcribed verbatim:
    /// (kernel, nodes@1, edges@1, recmii@1, nodes@2, edges@2, recmii@2).
    const TABLE1: [(Kernel, usize, usize, u32, usize, usize, u32); 21] = [
        (Kernel::Fir, 12, 16, 4, 20, 26, 4),
        (Kernel::Latnrm, 12, 16, 4, 19, 25, 4),
        (Kernel::Fft, 42, 60, 4, 71, 100, 4),
        (Kernel::Dtw, 32, 49, 4, 51, 84, 4),
        (Kernel::Spmv, 19, 24, 4, 37, 50, 7),
        (Kernel::Conv, 17, 23, 4, 24, 34, 4),
        (Kernel::Relu, 14, 19, 4, 23, 32, 4),
        (Kernel::Histogram, 15, 17, 4, 23, 26, 4),
        (Kernel::Mvt, 20, 29, 4, 37, 54, 4),
        (Kernel::Gemm, 17, 24, 4, 23, 37, 7),
        (Kernel::GcnCompress, 24, 32, 4, 46, 65, 7),
        (Kernel::GcnAggregate, 27, 34, 4, 53, 69, 7),
        (Kernel::GcnCombine, 26, 35, 4, 51, 71, 7),
        (Kernel::GcnCombRelu, 30, 42, 4, 59, 85, 7),
        (Kernel::GcnPooling, 16, 21, 4, 31, 43, 7),
        (Kernel::LuInit, 11, 15, 4, 21, 32, 7),
        (Kernel::LuDecompose, 15, 25, 4, 27, 50, 7),
        (Kernel::LuSolver0, 33, 49, 8, 65, 98, 15),
        (Kernel::LuSolver1, 35, 54, 12, 69, 108, 23),
        (Kernel::LuInvert, 14, 22, 4, 24, 37, 4),
        (Kernel::LuDeterminant, 20, 36, 7, 38, 71, 13),
    ];

    #[test]
    fn table1_exact() {
        for &(k, n1, e1, r1, n2, e2, r2) in &TABLE1 {
            let d1 = k.dfg(UnrollFactor::X1);
            assert_eq!(d1.node_count(), n1, "{} nodes @1", k.name());
            assert_eq!(d1.edge_count(), e1, "{} edges @1", k.name());
            assert_eq!(d1.rec_mii(), r1, "{} RecMII @1", k.name());
            let d2 = k.dfg(UnrollFactor::X2);
            assert_eq!(d2.node_count(), n2, "{} nodes @2", k.name());
            assert_eq!(d2.edge_count(), e2, "{} edges @2", k.name());
            assert_eq!(d2.rec_mii(), r2, "{} RecMII @2", k.name());
        }
    }

    #[test]
    fn all_graphs_validate() {
        for k in Kernel::ALL {
            for uf in UnrollFactor::ALL {
                k.dfg(uf).validate().unwrap();
            }
        }
    }

    #[test]
    fn all_kernels_have_memory_ops() {
        for k in Kernel::ALL {
            let d = k.dfg(UnrollFactor::X1);
            assert!(d.count_ops(|op| op == Opcode::Load) >= 1, "{}", k.name());
            assert!(d.count_ops(|op| op == Opcode::Store) >= 1, "{}", k.name());
        }
    }

    #[test]
    fn streaming_island_allocations_sum_to_nine() {
        let gcn: usize = [
            Kernel::GcnCompress,
            Kernel::GcnAggregate,
            Kernel::GcnCombine,
            Kernel::GcnCombRelu,
            Kernel::GcnPooling,
        ]
        .iter()
        .map(|k| k.islands().unwrap())
        .sum();
        assert_eq!(gcn, 9);
        let lu: usize = [
            Kernel::LuInit,
            Kernel::LuDecompose,
            Kernel::LuSolver0,
            Kernel::LuSolver1,
            Kernel::LuInvert,
            Kernel::LuDeterminant,
        ]
        .iter()
        .map(|k| k.islands().unwrap())
        .sum();
        assert_eq!(lu, 9);
        assert!(Kernel::Fir.islands().is_none());
    }

    #[test]
    fn domains_partition_the_suite() {
        assert_eq!(
            Kernel::ALL
                .iter()
                .filter(|k| k.domain() == Domain::Embedded)
                .count(),
            4
        );
        assert_eq!(
            Kernel::ALL
                .iter()
                .filter(|k| k.domain() == Domain::Gcn)
                .count(),
            5
        );
        assert_eq!(
            Kernel::ALL
                .iter()
                .filter(|k| k.domain() == Domain::Lu)
                .count(),
            6
        );
    }

    #[test]
    fn relu_exercises_control_flow() {
        let d = Kernel::Relu.dfg(UnrollFactor::X1);
        assert!(d.count_ops(|op| op == Opcode::Select) >= 1);
        assert!(d.count_ops(|op| op == Opcode::Cmp) >= 1);
    }
}
