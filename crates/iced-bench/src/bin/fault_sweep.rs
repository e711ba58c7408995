//! Fault-tolerance sweep: how gracefully does the mapper degrade as the
//! fabric breaks?
//!
//! For every standalone kernel and a ladder of fault densities, seeded
//! [`FaultPlan`]s are generated and remapped with `map_with_faults`; the
//! sweep reports remap success rate, mean II penalty (faulted minus clean
//! II), and how much of the fabric each density knocks out. A second
//! stage sweeps SEU rate scaling through the fault-aware cycle engine and
//! reports the rollback-recovery overhead. Results go to
//! `BENCH_fault.json` (and `fault_sweep.csv` under `ICED_CSV_DIR`).
//!
//! ```sh
//! cargo run --release -p iced-bench --bin fault_sweep -- [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;

use iced::arch::CgraConfig;
use iced::fault::{FaultPlan, SeuRates};
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::{map_with, map_with_faults, MapperOptions};
use iced::sim::run_with_faults;
use iced_bench::{emit_csv, par_sweep};

/// One (kernel, density) sample point, aggregated over several seeds.
struct Point {
    kernel: Kernel,
    density: f64,
    attempts: usize,
    remapped: usize,
    clean_ii: u32,
    mean_faulted_ii: f64,
    mean_penalty: f64,
    mean_dead_tiles: f64,
}

fn sweep_mapper(quick: bool) -> Vec<Point> {
    let cfg = CgraConfig::iced_prototype();
    let densities: &[f64] = if quick {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.4]
    };
    let seeds: u64 = if quick { 2 } else { 4 };
    let mut points: Vec<(Kernel, f64)> = Vec::new();
    for &k in &Kernel::STANDALONE {
        for &d in densities {
            points.push((k, d));
        }
    }
    par_sweep(&points, |&(kernel, density)| {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let opts = MapperOptions::default();
        let clean = map_with(&dfg, &cfg, &opts).expect("fault-free baseline maps");
        let (mut remapped, mut ii_sum, mut pen_sum, mut dead_sum) = (0usize, 0u64, 0u64, 0usize);
        for seed in 0..seeds {
            // Salt the plan seed per kernel so the sweep samples distinct
            // fabrics instead of reusing one fault draw across all rows.
            let plan =
                FaultPlan::generate(&cfg, (0xFA11 ^ dfg.canonical_hash()) + seed * 7919, density);
            let dead = plan.excluded(&cfg);
            dead_sum += dead.tiles.len() + dead.fus.len();
            if let Ok(m) = map_with_faults(&dfg, &cfg, &opts, &plan) {
                remapped += 1;
                ii_sum += u64::from(m.ii());
                pen_sum += u64::from(m.ii().saturating_sub(clean.ii()));
            }
        }
        let n = remapped.max(1) as f64;
        Point {
            kernel,
            density,
            attempts: seeds as usize,
            remapped,
            clean_ii: clean.ii(),
            mean_faulted_ii: ii_sum as f64 / n,
            mean_penalty: pen_sum as f64 / n,
            mean_dead_tiles: dead_sum as f64 / seeds as f64,
        }
    })
}

/// SEU scale → mean recovery overhead of the rollback model.
struct SeuPoint {
    scale: u32,
    upsets: u64,
    rollbacks: u64,
    overhead: f64,
}

fn sweep_seu(quick: bool) -> Vec<SeuPoint> {
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
    let mapping = map_with(&dfg, &cfg, &MapperOptions::default()).expect("fir maps");
    let iterations = if quick { 256 } else { 1024 };
    let scales: &[u32] = if quick { &[0, 8] } else { &[0, 2, 8, 32] };
    par_sweep(scales, |&scale| {
        let plan = FaultPlan {
            seed: 0x5E0 + u64::from(scale),
            permanent: Vec::new(),
            seu: SeuRates {
                normal_per_million: 500 * scale,
                relax_per_million: 2000 * scale,
                rest_per_million: 4000 * scale,
            },
            midrun: Vec::new(),
        };
        let r = run_with_faults(&dfg, &mapping, iterations, 0xBEE5, &plan)
            .expect("fault-aware run completes");
        SeuPoint {
            scale,
            upsets: r.upsets_injected,
            rollbacks: r.rollbacks,
            overhead: r.recovery_overhead(),
        }
    })
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fault.json".into());

    let points = sweep_mapper(quick);
    println!(
        "{:>10} {:>8} {:>8} {:>9} {:>11} {:>9} {:>11}",
        "kernel", "density", "remaps", "clean ii", "faulted ii", "penalty", "dead tiles"
    );
    let mut csv: Vec<Vec<String>> = Vec::new();
    for p in &points {
        println!(
            "{:>10} {:>8.2} {:>5}/{:<2} {:>9} {:>11.1} {:>9.1} {:>11.1}",
            p.kernel.name(),
            p.density,
            p.remapped,
            p.attempts,
            p.clean_ii,
            p.mean_faulted_ii,
            p.mean_penalty,
            p.mean_dead_tiles,
        );
        csv.push(vec![
            p.kernel.name().to_string(),
            format!("{:.2}", p.density),
            p.remapped.to_string(),
            p.attempts.to_string(),
            p.clean_ii.to_string(),
            format!("{:.2}", p.mean_faulted_ii),
            format!("{:.2}", p.mean_penalty),
            format!("{:.1}", p.mean_dead_tiles),
        ]);
    }
    emit_csv(
        "fault_sweep",
        &[
            "kernel",
            "density",
            "remapped",
            "attempts",
            "clean_ii",
            "mean_faulted_ii",
            "mean_ii_penalty",
            "mean_dead_tiles",
        ],
        &csv,
    );

    let seu = sweep_seu(quick);
    println!();
    println!(
        "{:>8} {:>9} {:>10} {:>10}",
        "seu x", "upsets", "rollbacks", "overhead"
    );
    for s in &seu {
        println!(
            "{:>8} {:>9} {:>10} {:>9.1}%",
            s.scale,
            s.upsets,
            s.rollbacks,
            100.0 * s.overhead
        );
    }

    // Aggregate: remap survival by density (every kernel pooled).
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"mapper\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"density\": {:.2}, \"remapped\": {}, \
             \"attempts\": {}, \"clean_ii\": {}, \"mean_faulted_ii\": {:.2}, \
             \"mean_ii_penalty\": {:.2}, \"mean_dead_tiles\": {:.1}}}{}",
            p.kernel.name(),
            p.density,
            p.remapped,
            p.attempts,
            p.clean_ii,
            p.mean_faulted_ii,
            p.mean_penalty,
            p.mean_dead_tiles,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"seu\": [");
    for (i, s) in seu.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"scale\": {}, \"upsets\": {}, \"rollbacks\": {}, \
             \"recovery_overhead\": {:.4}}}{}",
            s.scale,
            s.upsets,
            s.rollbacks,
            s.overhead,
            if i + 1 < seu.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write fault report");

    let total_attempts: usize = points.iter().map(|p| p.attempts).sum();
    let total_remaps: usize = points.iter().map(|p| p.remapped).sum();
    println!();
    println!(
        "fault_sweep: {total_remaps}/{total_attempts} remaps succeeded; report written to {out_path}"
    );
}

fn main() {
    iced_bench::with_tracing(run);
}
