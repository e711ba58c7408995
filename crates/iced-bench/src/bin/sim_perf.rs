//! Simulator performance benchmark: runs the 10-kernel standalone suite
//! (DVFS-aware mappings) through both cycle engines and emits
//! `BENCH_sim.json` — per-kernel wall time for the compiled engine vs. the
//! naive oracle, simulated cycles per second on a long run, and a peak-RSS
//! proxy — so the simulator's speed trajectory is tracked across PRs.
//! Every compiled-engine report is checked bit-identical against the
//! oracle's, and every long-run report against the engine's full loop
//! (`run_with_faults` with the empty plan, which steps every period where
//! `run_engine` skips the proven-periodic band); the process exits
//! non-zero on divergence. `cycles_per_sec` counts simulated cycles,
//! those of skipped periods included, per second of wall time. A long
//! run's wall time does not grow with its length (the engine finishes
//! it as a run of a few periods), so `cycles_per_sec` grows in
//! proportion to the long-run count: it reads the fixed cost of a run,
//! not a stepping rate.
//!
//! Phases run engine-first so the recorded peak RSS covers only the
//! compiled engine's long runs: a growing high-water mark here would mean
//! the engine's memory is no longer flat in the iteration count.
//!
//! ```sh
//! cargo run --release -p iced-bench --bin sim_perf -- [--quick] [--out PATH] [--iters N]
//! ```
//!
//! `--quick` compares at 10k iterations and long-runs 100k (the CI
//! perf-smoke configuration); the default compares at 100k and long-runs
//! one million iterations. `--iters N` overrides the comparison count.

use std::fmt::Write as _;
use std::time::Instant;

use iced::fault::FaultPlan;
use iced::kernels::{Kernel, UnrollFactor};
use iced::sim::{run_engine, run_oracle, run_with_faults};
use iced::{Strategy, Toolchain};

struct KernelRow {
    kernel: &'static str,
    ii: u32,
    oracle_wall_us: u128,
    engine_wall_us: u128,
    long_wall_us: u128,
    long_cycles: u64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.oracle_wall_us as f64 / (self.engine_wall_us.max(1)) as f64
    }

    fn cycles_per_sec(&self) -> f64 {
        self.long_cycles as f64 / (self.long_wall_us.max(1) as f64 / 1e6)
    }
}

/// Process high-water-mark RSS in kB (`VmHWM`), or 0 where unavailable.
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Some(kb) = rest.split_whitespace().next() {
                        return kb.parse().unwrap_or(0);
                    }
                }
            }
        }
    }
    0
}

fn emit_json(
    rows: &[KernelRow],
    compare_iters: u64,
    long_iters: u64,
    engine_peak_rss: u64,
) -> String {
    let oracle_total: u128 = rows.iter().map(|r| r.oracle_wall_us).sum();
    let engine_total: u128 = rows.iter().map(|r| r.engine_wall_us).sum();
    let mut out = String::new();
    out.push_str("{\n  \"suite\": \"standalone-x1\",\n");
    let _ = writeln!(out, "  \"compare_iterations\": {compare_iters},");
    let _ = writeln!(out, "  \"long_iterations\": {long_iters},");
    let _ = writeln!(out, "  \"engine_peak_rss_kb\": {engine_peak_rss},");
    out.push_str("  \"equivalence\": \"ok\",\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"ii\": {}, \"oracle_wall_us\": {}, \
             \"engine_wall_us\": {}, \"speedup\": {:.2}, \"long_wall_us\": {}, \
             \"cycles_per_sec\": {:.0}}}{}",
            r.kernel,
            r.ii,
            r.oracle_wall_us,
            r.engine_wall_us,
            r.speedup(),
            r.long_wall_us,
            r.cycles_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"totals\": {{\"oracle_wall_us\": {}, \"engine_wall_us\": {}, \
         \"speedup\": {:.2}}}\n}}",
        oracle_total,
        engine_total,
        oracle_total as f64 / engine_total.max(1) as f64
    );
    out
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_sim.json".to_string(), String::clone);
    let compare_iters: u64 = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 10_000 } else { 100_000 });
    let long_iters: u64 = if quick { 100_000 } else { 1_000_000 };

    let tc = Toolchain::prototype();
    let suite: Vec<_> = Kernel::STANDALONE
        .iter()
        .map(|&k| {
            let dfg = k.dfg(UnrollFactor::X1);
            let mapping = tc
                .compile(&dfg, Strategy::IcedIslands)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name()))
                .mapping()
                .clone();
            (k, dfg, mapping)
        })
        .collect();

    // Phase 1 — compiled engine only: long runs for throughput, then the
    // comparison-length runs. Peak RSS sampled here is an engine-only
    // figure (the oracle has not allocated anything yet).
    let mut rows: Vec<KernelRow> = Vec::new();
    let mut long_reports = Vec::new();
    for (k, dfg, mapping) in &suite {
        let start = Instant::now();
        let long = run_engine(dfg, mapping, long_iters, 42)
            .unwrap_or_else(|e| panic!("{} engine long run: {e}", k.name()));
        let long_wall_us = start.elapsed().as_micros();
        let start = Instant::now();
        let _fast = run_engine(dfg, mapping, compare_iters, 42).unwrap();
        let engine_wall_us = start.elapsed().as_micros();
        rows.push(KernelRow {
            kernel: k.name(),
            ii: mapping.ii(),
            oracle_wall_us: 0,
            engine_wall_us,
            long_wall_us,
            long_cycles: long.cycles,
        });
        long_reports.push(long);
    }
    let engine_peak_rss = peak_rss_kb();

    // Phase 2 — the long runs again through the full loop, which must
    // reach the skipping engine's report.
    let plan = FaultPlan::empty();
    for ((k, dfg, mapping), skipped) in suite.iter().zip(&long_reports) {
        let full = run_with_faults(dfg, mapping, long_iters, 42, &plan)
            .unwrap_or_else(|e| panic!("{} full-loop long run: {e}", k.name()));
        if *skipped != full.report {
            eprintln!(
                "sim_perf: {} diverged — skipping engine report != full-loop report at {long_iters} iterations",
                k.name()
            );
            std::process::exit(1);
        }
    }

    // Phase 3 — naive oracle at the comparison length, with the report
    // equality check that backs the "equivalence: ok" field.
    for (row, (k, dfg, mapping)) in rows.iter_mut().zip(&suite) {
        let fast = run_engine(dfg, mapping, compare_iters, 42).unwrap();
        let start = Instant::now();
        let slow = run_oracle(dfg, mapping, compare_iters, 42)
            .unwrap_or_else(|e| panic!("{} oracle: {e}", k.name()));
        row.oracle_wall_us = start.elapsed().as_micros();
        if fast != slow {
            eprintln!(
                "sim_perf: {} diverged — compiled engine report != oracle report",
                k.name()
            );
            std::process::exit(1);
        }
    }

    println!(
        "{:<12} {:>4} {:>12} {:>12} {:>9} {:>14}",
        "kernel", "ii", "oracle us", "engine us", "speedup", "cycles/sec"
    );
    for r in &rows {
        println!(
            "{:<12} {:>4} {:>12} {:>12} {:>8.1}x {:>14.0}",
            r.kernel,
            r.ii,
            r.oracle_wall_us,
            r.engine_wall_us,
            r.speedup(),
            r.cycles_per_sec()
        );
    }
    let oracle_total: u128 = rows.iter().map(|r| r.oracle_wall_us).sum();
    let engine_total: u128 = rows.iter().map(|r| r.engine_wall_us).sum();
    println!(
        "total: oracle {} us, engine {} us ({:.1}x) at {} iterations; \
         long runs {} iterations, engine peak RSS {} kB",
        oracle_total,
        engine_total,
        oracle_total as f64 / engine_total.max(1) as f64,
        compare_iters,
        long_iters,
        engine_peak_rss
    );
    println!(
        "equivalence: ok (every compiled-engine report matched the oracle, \
         every long run the full loop)"
    );

    let json = emit_json(&rows, compare_iters, long_iters, engine_peak_rss);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("sim_perf: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

fn main() {
    iced_bench::with_tracing(run);
}
