//! The paper's evaluation as data: Table I, Figs. 2, 4 and 8–14, and the
//! three extension studies (ablations, adaptation window, design space).
//!
//! Every artifact is a [`Table`] of rounded values. One renderer prints a
//! table for the console ([`Table::text`]) and the same cells go into
//! `BENCH_figures.json` ([`json`]), so the committed file holds exactly
//! the numbers the console shows. Work the figures share is done once:
//! Figs. 9, 10, 11 and 14 read one prototype grid of compiles, and
//! Fig. 13 reads the window-10 runs of the adaptation-window sweep.
//!
//! ```sh
//! cargo run --release -p iced-bench --bin figures
//! ```

use std::collections::BTreeSet;
use std::fmt;

use iced::arch::{CgraConfig, DvfsLevel, FuLayout};
use iced::kernels::pipelines::Pipeline;
use iced::kernels::{workloads, Kernel, UnrollFactor};
use iced::mapper::{map_with, MapperOptions};
use iced::power::{AreaModel, PowerModel, VfPoint};
use iced::sim::{EnergyBreakdown, FabricStats};
use iced::streaming::{simulate, simulate_with_window, Partition, RuntimePolicy, StreamReport};
use iced::{Compiled, Strategy, Toolchain};

use crate::par_sweep;

/// Loop iterations charged when converting activity to energy; the figures
/// compare averages, so any value cancels out (kept explicit for clarity).
const POWER_ITERATIONS: u64 = 4096;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A finite number and the decimals it is shown with.
    Num(f64, usize),
    /// A word.
    Text(String),
    /// No value (printed `-`, written `null`).
    Blank,
}

impl Cell {
    /// `value` shown with `dp` decimals.
    ///
    /// # Panics
    ///
    /// Panics when `value` is not finite: JSON cannot hold it.
    pub fn num(value: f64, dp: usize) -> Cell {
        assert!(value.is_finite(), "figure value {value} is not finite");
        Cell::Num(value, dp)
    }

    fn json(&self) -> String {
        match self {
            Cell::Num(..) => self.to_string(),
            Cell::Text(s) => quote(s),
            Cell::Blank => "null".into(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Num(v, dp) => write!(f, "{v:.dp$}"),
            Cell::Text(s) => f.write_str(s),
            Cell::Blank => f.write_str("-"),
        }
    }
}

/// A row: its label and one cell per value column.
pub type Row = (String, Vec<Cell>);

/// One artifact: labelled rows of rounded values under named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Key of the table in `BENCH_figures.json`.
    pub key: String,
    /// Heading printed above the table.
    pub title: String,
    /// Column headers; the first one heads the row labels.
    pub columns: Vec<&'static str>,
    /// The rows, in print order.
    pub rows: Vec<Row>,
}

impl Table {
    /// The console rendering: title, header and right-aligned rows.
    pub fn text(&self) -> String {
        let head = self.columns.iter().map(|c| c.to_string()).collect();
        let body = self.rows.iter().map(|(label, cells)| {
            let cells = cells.iter().map(Cell::to_string);
            std::iter::once(label.clone()).chain(cells).collect()
        });
        let lines: Vec<Vec<String>> = std::iter::once(head).chain(body).collect();
        let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| width(c).unwrap_or(0))
            .collect();
        let mut out = format!("{}\n", self.title);
        for line in &lines {
            out += &format!("{:<w$}", line[0], w = widths[0]);
            for (cell, w) in line.iter().zip(&widths).skip(1) {
                out += &format!("  {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }

    /// The JSON rendering: an object whose `rows` map each row label to
    /// its cells, indented to sit one level inside [`json`]'s document.
    ///
    /// # Panics
    ///
    /// Panics when two rows share a label.
    fn json(&self) -> String {
        let labels: BTreeSet<&String> = self.rows.iter().map(|(l, _)| l).collect();
        assert_eq!(labels.len(), self.rows.len(), "{}: duplicate row", self.key);
        let list = |items: Vec<String>| format!("[{}]", items.join(", "));
        let row = |(label, cells): &Row| {
            let cells = list(cells.iter().map(Cell::json).collect());
            format!("      {}: {cells}", quote(label))
        };
        let rows: Vec<String> = self.rows.iter().map(row).collect();
        let columns = list(self.columns.iter().map(|c| quote(c)).collect());
        let head = format!(
            "    \"title\": {},\n    \"columns\": {columns},\n",
            quote(&self.title)
        );
        format!(
            "{{\n{head}    \"rows\": {{\n{}\n    }}\n  }}",
            rows.join(",\n")
        )
    }
}

/// `BENCH_figures.json`: every table under its key, in the given order.
pub fn json(tables: &[Table]) -> String {
    let body: Vec<String> = tables
        .iter()
        .map(|t| format!("  {}: {}", quote(&t.key), t.json()))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' | '\\' => out.extend(['\\', ch]),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Every table, in paper order.
pub fn all() -> Vec<Table> {
    let grid = Grid::compile();
    let gcn = workloads::enzymes_like(150, 9);
    let gcn: Vec<u64> = gcn.iter().map(|g| g.nnz()).collect();
    let lu = workloads::suitesparse_like(150, 11);
    let lu: Vec<u64> = lu.iter().map(|m| m.nnz as u64).collect();
    let streams = [
        Stream::run("GCN", Pipeline::gcn(), &gcn),
        Stream::run("LU", Pipeline::lu(), &lu),
    ];
    let mut tables = vec![table1(), fig02(), fig04()];
    tables.extend(fig08());
    tables.extend(fig09(&grid));
    tables.extend(fig10(&grid));
    tables.extend(fig11(&grid));
    tables.push(fig12());
    tables.extend(fig13(&streams));
    tables.push(fig14(&grid));
    tables.push(ablations());
    tables.extend(streams.iter().map(Stream::window_table));
    tables.push(dse());
    tables
}

/// Rows for the standalone suite: one per kernel of `values` (suite
/// order) and an `average` row of column means, each value shown as
/// `scale · value` with `dp` decimals.
fn suite_rows(values: &[Vec<f64>], scale: f64, dp: usize) -> Vec<Row> {
    let cells = |row: &[f64]| row.iter().map(|v| Cell::num(scale * v, dp)).collect();
    let mut sums = vec![0.0f64; values[0].len()];
    let mut rows = Vec::new();
    for (k, row) in Kernel::STANDALONE.iter().zip(values) {
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
        rows.push((k.name().to_string(), cells(row)));
    }
    let means: Vec<f64> = sums.iter().map(|s| s / values.len() as f64).collect();
    rows.push(("average".into(), cells(&means)));
    rows
}

/// Sum of column `c` over the suite rows of `values`.
fn column_sum(values: &[Vec<f64>], c: usize) -> f64 {
    values.iter().map(|row| row[c]).sum()
}

/// Every `(a, b)` pair, `a` major.
fn pairs<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// The prototype grid: every standalone kernel at both unroll factors
/// under all four strategies on the 6×6 fabric, compiled once.
struct Grid(Vec<Compiled>);

impl Grid {
    fn compile() -> Grid {
        let tc = Toolchain::prototype();
        let kernels = pairs(&UnrollFactor::ALL, &Kernel::STANDALONE);
        Grid(par_sweep(
            &pairs(&kernels, &Strategy::ALL),
            |&((uf, k), s)| {
                let c = tc.compile(&k.dfg(uf), s);
                c.unwrap_or_else(|e| panic!("{} {uf:?} {}: {e}", k.name(), s.name()))
            },
        ))
    }

    /// The compile of `kernel` at `uf` under `strategy`.
    fn get(&self, uf: UnrollFactor, kernel: Kernel, strategy: Strategy) -> &Compiled {
        let index = |n: Option<usize>| n.expect("a point of the grid");
        let u = index(UnrollFactor::ALL.iter().position(|&x| x == uf));
        let k = index(Kernel::STANDALONE.iter().position(|&x| x == kernel));
        let s = index(Strategy::ALL.iter().position(|&x| x == strategy));
        &self.0[(u * Kernel::STANDALONE.len() + k) * Strategy::ALL.len() + s]
    }

    /// Per-kernel rows of the compiles under each of `strategies` at `uf`.
    fn values(&self, uf: UnrollFactor, strategies: &[Strategy]) -> Vec<Vec<&Compiled>> {
        let row = |k| strategies.iter().map(|&s| self.get(uf, k, s)).collect();
        Kernel::STANDALONE.into_iter().map(row).collect()
    }
}

/// `metric` of every compile in `rows`.
fn metric(rows: Vec<Vec<&Compiled>>, f: impl Fn(&Compiled) -> f64) -> Vec<Vec<f64>> {
    let row = |r: Vec<&Compiled>| r.into_iter().map(&f).collect();
    rows.into_iter().map(row).collect()
}

fn table1() -> Table {
    let row = |k: &Kernel| {
        let mut cells = vec![Cell::Text(format!("{:?}", k.domain()).to_lowercase())];
        for uf in UnrollFactor::ALL {
            let d = k.dfg(uf);
            let stats = [d.node_count(), d.edge_count(), d.rec_mii() as usize];
            cells.extend(stats.map(|v| Cell::num(v as f64, 0)));
        }
        let islands = k.islands().map(|i| Cell::num(i as f64, 0));
        cells.push(islands.unwrap_or(Cell::Text("n x n".into())));
        (k.name().to_string(), cells)
    };
    Table {
        key: "table1".into(),
        title: "Table I: kernel statistics; islands of 2x2 tiles".into(),
        columns: vec![
            "kernel", "domain", "n@1", "e@1", "rec@1", "n@2", "e@2", "rec@2", "islands",
        ],
        rows: Kernel::ALL.iter().map(row).collect(),
    }
}

fn fig02() -> Table {
    let kernels = pairs(&Kernel::STANDALONE, &UnrollFactor::ALL);
    let util = par_sweep(&pairs(&kernels, &[4, 6, 8]), |&((k, uf), n)| {
        let tc = Toolchain::new(CgraConfig::square(n).expect("valid size"));
        let c = tc.compile(&k.dfg(uf), Strategy::Baseline);
        let c = c.unwrap_or_else(|e| panic!("{} {n} {uf:?}: {e}", k.name()));
        c.average_utilization_all_tiles()
    });
    let values: Vec<Vec<f64>> = util.chunks(6).map(<[f64]>::to_vec).collect();
    Table {
        key: "fig02".into(),
        title: "Figure 2: baseline average tile utilization % by fabric size".into(),
        columns: vec![
            "kernel", "4x4 uf1", "6x6 uf1", "8x8 uf1", "4x4 uf2", "6x6 uf2", "8x8 uf2",
        ],
        rows: suite_rows(&values, 100.0, 1),
    }
}

fn fig04() -> Table {
    let islands = [1, 2, 3, 4, 8];
    let iis = par_sweep(&pairs(&Kernel::STANDALONE, &islands), |&(k, g)| {
        let cfg = CgraConfig::builder(8, 8).island(g, g).build();
        let tc = Toolchain::new(cfg.expect("valid island size"));
        let strategy = if g == 1 {
            Strategy::PerTileDvfs
        } else {
            Strategy::IcedIslands
        };
        let c = tc.compile(&k.dfg(UnrollFactor::X1), strategy);
        let c = c.unwrap_or_else(|e| panic!("{} {g}x{g}: {e}", k.name()));
        c.mapping().ii() as f64
    });
    let speedups = |row: &[f64]| row.iter().map(|ii| row[0] / ii).collect();
    let values: Vec<Vec<f64>> = iis.chunks(islands.len()).map(speedups).collect();
    Table {
        key: "fig04".into(),
        title: "Figure 4: per-tile DVFS II / island II on 8x8, by island size".into(),
        columns: vec!["kernel", "1x1", "2x2", "3x3", "4x4", "8x8"],
        rows: suite_rows(&values, 1.0, 2),
    }
}

fn fig08() -> [Table; 2] {
    let cfg = CgraConfig::iced_prototype();
    let power = PowerModel::asap7();
    let b = AreaModel::asap7().breakdown(&cfg);
    let (tiles, islands) = (cfg.tile_count(), cfg.island_count());
    let tile_mw = power.tile_power_mw(DvfsLevel::Normal, 1.0);
    let array_mw = tiles as f64 * tile_mw;
    let (island_mw, per_tile_mw) = (
        power.controllers_power_mw(islands),
        power.controllers_power_mw(tiles),
    );
    let row = |label: String, v: f64, dp: usize| (label, vec![Cell::num(v, dp)]);
    let rows = vec![
        row(format!("tiles ({tiles}), mm2"), b.tiles_mm2, 3),
        row(
            format!("DVFS units ({islands} islands), mm2"),
            b.dvfs_mm2,
            3,
        ),
        row("array total (no SRAM), mm2".into(), b.array_mm2(), 3),
        row("SRAM (32 KB, 8 banks), mm2".into(), b.sram_mm2, 3),
        row("chip total, mm2".into(), b.total_mm2(), 3),
        row("one tile, mW".into(), tile_mw, 3),
        row(format!("{tiles}-tile array, mW"), array_mw, 2),
        row(format!("{islands} island DVFS units, mW"), island_mw, 2),
        row(
            format!("{islands} island DVFS units, % of array"),
            100.0 * island_mw / array_mw,
            1,
        ),
        row(format!("{tiles} per-tile DVFS units, mW"), per_tile_mw, 2),
        row(
            format!("{tiles} per-tile DVFS units, % of array"),
            100.0 * per_tile_mw / array_mw,
            1,
        ),
        row("SRAM peak, mW".into(), power.sram_power_mw(1.0), 2),
    ];
    let vf = |lvl: DvfsLevel| {
        let vf = VfPoint::of(lvl).expect("active level");
        let busy_idle = [1.0, 0.0].map(|a| Cell::num(power.tile_power_mw(lvl, a), 3));
        let vf = [Cell::num(vf.voltage_v(), 2), Cell::num(vf.freq_mhz(), 1)];
        (lvl.to_string(), vf.into_iter().chain(busy_idle).collect())
    };
    [
        Table {
            key: "fig08".into(),
            title: "Figure 8: 6x6 CGRA at 0.7 V / 434 MHz, full activity (published: \
                    array 6.630 mm2, SRAM 0.559 mm2, array 113.95 mW, SRAM peak 62.653 mW)"
                .into(),
            columns: vec!["component", "value"],
            rows,
        },
        Table {
            key: "fig08_vf".into(),
            title: "Figure 8: V/F operating points and tile power".into(),
            columns: vec!["level", "V", "MHz", "busy mW", "idle mW"],
            rows: DvfsLevel::ACTIVE.map(vf).to_vec(),
        },
    ]
}

fn fig09(grid: &Grid) -> [Table; 3] {
    // The baseline keeps every tile clocked, so its utilization counts
    // all tiles; the DVFS designs count the tiles they leave on.
    let util = |c: &Compiled| match c.strategy() {
        Strategy::Baseline => c.average_utilization_all_tiles(),
        _ => c.average_utilization(),
    };
    let strategies = [
        Strategy::Baseline,
        Strategy::PerTileDvfs,
        Strategy::IcedIslands,
    ];
    let values = UnrollFactor::ALL.map(|uf| metric(grid.values(uf, &strategies), util));
    let [uf1, uf2] = [1, 2].map(|uf| Table {
        key: format!("fig09_uf{uf}"),
        title: format!("Figure 9: average tile utilization %, unroll factor {uf}"),
        columns: vec!["kernel", "baseline", "per-tile", "iced"],
        rows: suite_rows(&values[uf - 1], 100.0, 1),
    });
    let lift = |uf: usize| {
        let v = &values[uf - 1];
        let lift = column_sum(v, 2) / column_sum(v, 0);
        (format!("uf{uf}"), vec![Cell::num(lift, 2)])
    };
    let lift = Table {
        key: "fig09_lift".into(),
        title: "Figure 9: ICED over baseline (paper: 2.3x at UF1, 1.6x at UF2)".into(),
        columns: vec!["unroll", "iced/baseline"],
        rows: vec![lift(1), lift(2)],
    };
    [uf1, uf2, lift]
}

fn fig10(grid: &Grid) -> [Table; 2] {
    let strategies = [Strategy::PerTileDvfs, Strategy::IcedIslands];
    let paper = ["26 % vs 35 %", "37 % vs 53 %"];
    [1, 2].map(|uf| {
        let compiles = grid.values(UnrollFactor::ALL[uf - 1], &strategies);
        let values = metric(compiles, Compiled::average_dvfs_level);
        let paper = paper[uf - 1];
        Table {
            key: format!("fig10_uf{uf}"),
            title: format!("Figure 10: average DVFS level %, unroll factor {uf} (paper: {paper})"),
            columns: vec!["kernel", "per-tile", "iced"],
            rows: suite_rows(&values, 100.0, 1),
        }
    })
}

fn fig11(grid: &Grid) -> [Table; 3] {
    let power = |c: &Compiled| c.power_mw(POWER_ITERATIONS);
    let values = UnrollFactor::ALL.map(|uf| metric(grid.values(uf, &Strategy::ALL), power));
    let [uf1, uf2] = [1, 2].map(|uf| Table {
        key: format!("fig11_uf{uf}"),
        title: format!("Figure 11: average power (mW), unroll factor {uf}"),
        columns: vec!["kernel", "baseline", "baseline+pg", "per-tile", "iced"],
        rows: suite_rows(&values[uf - 1], 1.0, 1),
    });
    let ratios = |uf: usize| {
        let sum = |c| column_sum(&values[uf - 1], c);
        let r = [sum(0) / sum(3), sum(0) / sum(1), sum(2) / sum(3)];
        (format!("uf{uf}"), r.map(|r| Cell::num(r, 2)).to_vec())
    };
    let ratios = Table {
        key: "fig11_ratios".into(),
        title: "Figure 11: energy-efficiency ratios (paper, UF2: 1.32x, 1.12x, 1.6x)".into(),
        columns: vec!["unroll", "iced/baseline", "pg/baseline", "per-tile/iced"],
        rows: vec![ratios(1), ratios(2)],
    };
    [uf1, uf2, ratios]
}

fn fig12() -> Table {
    let sizes = [2, 4, 6, 8];
    // Small fabrics cannot hold the big kernels; a pair that does not map
    // under both designs is left out of both averages.
    let levels = par_sweep(&pairs(&sizes, &Kernel::STANDALONE), |&(n, k)| {
        let tc = Toolchain::new(CgraConfig::square(n).expect("valid size"));
        let dfg = k.dfg(UnrollFactor::X1);
        let pt = tc.compile(&dfg, Strategy::PerTileDvfs).ok()?;
        let ic = tc.compile(&dfg, Strategy::IcedIslands).ok()?;
        Some((pt.average_dvfs_level(), ic.average_dvfs_level()))
    });
    let row = |(n, chunk): (&usize, &[Option<(f64, f64)>])| {
        let mapped: Vec<(f64, f64)> = chunk.iter().flatten().copied().collect();
        let count = mapped.len() as f64;
        let pt = mapped.iter().map(|m| m.0).sum::<f64>() / count;
        let ic = mapped.iter().map(|m| m.1).sum::<f64>() / count;
        let pcts = [pt, ic, ic - pt].map(|v| Cell::num(100.0 * v, 1));
        let cells = pcts.into_iter().chain([Cell::num(count, 0)]);
        (format!("{n}x{n}"), cells.collect())
    };
    let chunks = levels.chunks(Kernel::STANDALONE.len());
    Table {
        key: "fig12".into(),
        title: "Figure 12: average DVFS level % by fabric size, unroll factor 1".into(),
        columns: vec!["fabric", "per-tile", "iced", "gap (pts)", "mapped"],
        rows: sizes.iter().zip(chunks).map(row).collect(),
    }
}

/// One streaming application: ICED at every adaptation window, and DRIPS
/// at the paper's window of 10 inputs.
struct Stream {
    name: &'static str,
    iced: Vec<(usize, StreamReport)>,
    drips: StreamReport,
}

impl Stream {
    const WINDOWS: [usize; 6] = [1, 2, 5, 10, 20, 50];

    /// Streams `inputs` (their nonzero counts) through `pipeline` on the
    /// Table I partition. The paper profiles the first 50 inputs to seed
    /// the initial mapping and then streams the datasets (ENZYMES
    /// inference split / 150 sparse matrices).
    fn run(name: &'static str, pipeline: Pipeline, inputs: &[u64]) -> Stream {
        let model = PowerModel::asap7();
        let cfg = CgraConfig::iced_prototype();
        let partition = Partition::table1(&pipeline, &cfg).expect("partition maps");
        let run =
            |policy, w| simulate_with_window(&pipeline, &partition, &model, inputs, policy, w);
        let iced = Stream::WINDOWS.map(|w| (w, run(RuntimePolicy::IcedDvfs, w)));
        let drips = simulate(&pipeline, &partition, &model, inputs, RuntimePolicy::Drips);
        Stream {
            name,
            iced: iced.to_vec(),
            drips,
        }
    }

    /// ICED at the paper's window, the one DRIPS runs at.
    fn iced_at_10(&self) -> &StreamReport {
        let at_10 = self.iced.iter().find(|(w, _)| *w == 10);
        &at_10.expect("window 10").1
    }

    /// ICED over DRIPS perf-per-watt, one value per 10-input interval.
    fn ratios(&self) -> Vec<f64> {
        let pairs = self.iced_at_10().samples.iter().zip(&self.drips.samples);
        pairs
            .map(|(a, b)| a.perf_per_watt() / b.perf_per_watt())
            .collect()
    }

    fn window_table(&self) -> Table {
        let row = |(w, r): &(usize, StreamReport)| {
            let (thr, mw, ppw) = (r.throughput(), r.avg_power_mw(), r.perf_per_watt());
            let cells = vec![Cell::num(thr, 0), Cell::num(mw, 1), Cell::num(ppw, 0)];
            (w.to_string(), cells)
        };
        Table {
            key: format!("window_{}", self.name.to_lowercase()),
            title: format!("Adaptation window: ICED on {}", self.name),
            columns: vec!["window", "inputs/s", "power mW", "inputs/s/W"],
            rows: self.iced.iter().map(row).collect(),
        }
    }
}

fn fig13(streams: &[Stream; 2]) -> [Table; 2] {
    let ratios = streams.each_ref().map(Stream::ratios);
    let summary = |(s, r): (&Stream, &Vec<f64>)| {
        let report =
            |x: &StreamReport| [Cell::num(x.throughput(), 0), Cell::num(x.avg_power_mw(), 1)];
        let mean = Cell::num(r.iter().sum::<f64>() / r.len() as f64, 2);
        let cells = report(s.iced_at_10()).into_iter().chain(report(&s.drips));
        (s.name.to_string(), cells.chain([mean]).collect())
    };
    let interval = |i: usize| {
        let cells = ratios
            .iter()
            .map(|r| r.get(i).map_or(Cell::Blank, |&v| Cell::num(v, 2)));
        (i.to_string(), cells.collect())
    };
    let intervals = ratios.iter().map(Vec::len).max().unwrap_or(0);
    [
        Table {
            key: "fig13".into(),
            title: "Figure 13: ICED vs DRIPS, window 10 (paper: GCN ~1.12x, LU ~1.26x)".into(),
            columns: vec![
                "app",
                "iced /s",
                "iced mW",
                "drips /s",
                "drips mW",
                "avg ratio",
            ],
            rows: streams.iter().zip(&ratios).map(summary).collect(),
        },
        Table {
            key: "fig13_intervals".into(),
            title: "Figure 13: ICED/DRIPS perf-per-watt per 10-input interval".into(),
            columns: vec!["interval", "GCN", "LU"],
            rows: (0..intervals).map(interval).collect(),
        },
    ]
}

/// Published FFT datapoints (architecture, power in mW, MOPS), derived
/// from HyCUBE (A-SSCC'19) and RipTide (MICRO'22) as in the paper.
const FIG14_LITERATURE: [(&str, f64, f64); 4] = [
    ("HyCUBE @0.9V", 15.6, 412.0),
    ("HyCUBE @0.6V", 3.6, 139.0),
    ("RipTide", 0.32, 43.0),
    ("SNAFU", 0.27, 28.0),
];

fn fig14(grid: &Grid) -> Table {
    let point = |name: &str, p: f64, mops: f64, ii: Cell| {
        let cells = vec![
            Cell::num(p, 2),
            Cell::num(mops, 0),
            Cell::num(mops / p, 1),
            ii,
        ];
        (name.to_string(), cells)
    };
    let literature = FIG14_LITERATURE.iter();
    let mut rows: Vec<Row> = literature
        .map(|&(name, p, mops)| point(name, p, mops, Cell::Blank))
        .collect();
    let c = grid.get(UnrollFactor::X1, Kernel::Fft, Strategy::IcedIslands);
    let ii = c.mapping().ii();
    // Operations per second: DFG ops per iteration / iteration period.
    let ops_per_iter = Kernel::Fft.dfg(UnrollFactor::X1).node_count() as f64;
    let mops = ops_per_iter / (ii as f64 / VfPoint::nominal().freq_mhz());
    let p = c.energy(1_000_000).total_power_mw();
    rows.push(point("ICED (model)", p, mops, Cell::num(ii as f64, 0)));
    Table {
        key: "fig14".into(),
        title: "Figure 14: FFT power vs performance (context only, other process nodes)".into(),
        columns: vec!["architecture", "power mW", "MOPS", "MOPS/mW", "II"],
        rows,
    }
}

/// The mapper's design choices, each variant a change to the ICED recipe:
/// `Strategy::IcedIslands`'s mapper options and post-pass.
fn ablations() -> Table {
    let iced = Strategy::IcedIslands;
    let with = |change: fn(&mut MapperOptions)| {
        let mut opts = iced.mapper_options();
        change(&mut opts);
        opts
    };
    let no_ladder = |o: &mut MapperOptions| {
        o.label_ladder = false;
        o.max_ii = 96;
    };
    let relax_only =
        |o: &mut MapperOptions| o.allowed_levels = vec![DvfsLevel::Normal, DvfsLevel::Relax];
    let variants: [(&str, MapperOptions, bool); 5] = [
        ("full iced", iced.mapper_options(), true),
        ("no island-relax", iced.mapper_options(), false),
        ("no cycle-first", with(|o| o.cycle_first = false), true),
        ("no label-ladder", with(no_ladder), true),
        ("relax-only levels", with(relax_only), true),
    ];
    let (cfg, model) = (CgraConfig::iced_prototype(), PowerModel::asap7());
    let variant_refs: Vec<_> = variants.iter().collect();
    let measured = par_sweep(&pairs(&variant_refs, &Kernel::STANDALONE), |&(v, k)| {
        let (_, opts, post_pass) = v;
        let dfg = k.dfg(UnrollFactor::X1);
        let m = map_with(&dfg, &cfg, opts).ok()?;
        let m = if *post_pass {
            iced.post_pass(&dfg, m)
        } else {
            m
        };
        let level = FabricStats::analyze(&m).average_dvfs_level();
        let e = EnergyBreakdown::account(&dfg, &m, &model, iced.dvfs_support(), POWER_ITERATIONS);
        Some([m.ii() as f64, level, e.total_power_mw()])
    });
    let rows = variants
        .iter()
        .zip(measured.chunks(Kernel::STANDALONE.len()));
    let rows = rows.map(|((name, ..), chunk)| (name.to_string(), mapped_means(chunk)));
    Table {
        key: "ablations".into(),
        title: "Ablations: mapper design choices, unroll factor 1".into(),
        columns: vec!["variant", "avg II", "avg lvl %", "power mW", "mapped"],
        rows: rows.collect(),
    }
}

/// Means of (II, DVFS level, power) over the kernels that mapped, then the
/// count that mapped.
fn mapped_means(results: &[Option<[f64; 3]>]) -> Vec<Cell> {
    let mapped: Vec<&[f64; 3]> = results.iter().flatten().collect();
    let n = mapped.len().max(1) as f64;
    let sum = |i: usize| mapped.iter().map(|m| m[i]).sum::<f64>();
    let count = Cell::num(mapped.len() as f64, 0);
    vec![
        Cell::num(sum(0) / n, 2),
        Cell::num(100.0 * sum(1) / n, 1),
        Cell::num(sum(2) / n, 1),
        count,
    ]
}

/// Fabric size × island geometry × FU layout. The paper notes that
/// "DVFS island size is a design parameter that can be optimized
/// specifically"; each point reports the suite-average II, DVFS level,
/// power and the area cost.
fn dse() -> Table {
    use iced::kernels::Kernel::{Conv, Fir, Gemm, Histogram, Spmv};
    let layouts = [FuLayout::Homogeneous, FuLayout::CheckerboardMul];
    let area = AreaModel::asap7();
    let points = pairs(&pairs(&[4, 6, 8], &[1, 2, 4]), &layouts);
    let rows = par_sweep(&points, |&((n, g), layout)| {
        let cfg = CgraConfig::builder(n, n)
            .island(g, g)
            .fu_layout(layout)
            .build();
        let tc = Toolchain::new(cfg.expect("valid design point"));
        let point = |k: Kernel| {
            let c = tc
                .compile(&k.dfg(UnrollFactor::X1), Strategy::IcedIslands)
                .ok()?;
            let ii = c.mapping().ii() as f64;
            Some([ii, c.average_dvfs_level(), c.power_mw(POWER_ITERATIONS)])
        };
        let mut cells = mapped_means(&[Fir, Spmv, Conv, Histogram, Gemm].map(point));
        cells.insert(3, Cell::num(area.breakdown(tc.config()).total_mm2(), 2));
        (format!("{n}x{n} {g}x{g} {layout:?}"), cells)
    });
    Table {
        key: "dse".into(),
        title: "Design space over fir, spmv, conv, histogram and gemm".into(),
        columns: vec![
            "design point",
            "avg II",
            "avg lvl %",
            "power mW",
            "area mm2",
            "mapped",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_show_the_same_rounded_numbers() {
        let table = Table {
            key: "t".into(),
            title: "T \"quoted\"".into(),
            columns: vec!["row", "x", "y", "z"],
            rows: vec![
                (
                    "a".into(),
                    vec![Cell::num(0.126, 2), Cell::num(2.0 / 3.0, 1), Cell::Blank],
                ),
                (
                    "b".into(),
                    vec![Cell::num(41.96, 0), Cell::num(-0.04, 1), Cell::num(7.0, 3)],
                ),
            ],
        };
        let text = table.text();
        let json = json(std::slice::from_ref(&table));
        for (label, cells) in &table.rows {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label));
            let printed: Vec<&str> = line.unwrap().split_whitespace().skip(1).collect();
            let key = format!("{}: [", quote(label));
            let at = json.find(&key).expect("row in json") + key.len();
            let written: Vec<&str> = json[at..at + json[at..].find(']').unwrap()]
                .split(", ")
                .collect();
            assert_eq!((printed.len(), written.len()), (cells.len(), cells.len()));
            for ((p, w), cell) in printed.iter().zip(&written).zip(cells) {
                match cell {
                    Cell::Num(..) => {
                        assert_eq!(p, w, "{label}: {cell:?}");
                        assert_eq!(p.parse::<f64>().unwrap(), w.parse::<f64>().unwrap());
                    }
                    _ => assert_eq!((*p, *w), ("-", "null")),
                }
            }
        }
        assert_eq!(text.lines().nth(2).unwrap(), "a    0.13   0.7      -");
        assert_eq!(text.lines().nth(3).unwrap(), "b      42  -0.0  7.000");
        assert!(json.contains(r#""title": "T \"quoted\"""#));
    }
}
