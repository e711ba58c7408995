//! Mapper performance benchmark: maps the 10-kernel standalone suite
//! (baseline + DVFS-aware) at several portfolio thread counts and emits
//! `BENCH_mapper.json` — per-kernel wall time, `ii_attempts` and
//! `dijkstra_expansions`, plus per-run totals of the router's search
//! passes and of the expansions spent on routes that failed — so the
//! mapper's speed trajectory is tracked across PRs. Every parallel mapping
//! is checked bit-identical against the serial reference; the process
//! exits non-zero on divergence.
//!
//! ```sh
//! cargo run --release -p iced-bench --bin map_perf -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` benches thread counts 1 and 4 only (the CI perf-smoke
//! configuration); the default sweep is 1/2/4/8.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use iced::arch::CgraConfig;
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::{map_with, MapperOptions, Mapping};
use iced::trace::{Phase, RecordingCollector};

struct KernelRow {
    kernel: &'static str,
    ii: u32,
    wall_us: u128,
    ii_attempts: u64,
    dijkstra_expansions: u64,
}

struct RunRow {
    mode: &'static str,
    threads: usize,
    kernels: Vec<KernelRow>,
    failed_route_expansions: u64,
    route_passes: u64,
}

fn mode_opts(mode: &str) -> MapperOptions {
    match mode {
        "baseline" => MapperOptions::baseline(),
        _ => MapperOptions::default(),
    }
}

fn bench_run(
    collector: &RecordingCollector,
    cfg: &CgraConfig,
    mode: &'static str,
    threads: usize,
    reference: Option<&[Mapping]>,
) -> (RunRow, Vec<Mapping>) {
    let mut kernels = Vec::new();
    let mut mappings = Vec::new();
    let failed_before = collector.counter_total(Phase::Router, "failed_route_expansions");
    let passes_before = collector.counter_total(Phase::Router, "route_passes");
    for (i, kernel) in Kernel::STANDALONE.iter().enumerate() {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let opts = MapperOptions {
            threads,
            ..mode_opts(mode)
        };
        let attempts_before = collector.counter_total(Phase::Mapper, "ii_attempts");
        let expansions_before = collector.counter_total(Phase::Router, "dijkstra_expansions");
        let start = Instant::now();
        let mapping = map_with(&dfg, cfg, &opts)
            .unwrap_or_else(|e| panic!("{} ({mode}, {threads} threads): {e}", kernel.name()));
        let wall_us = start.elapsed().as_micros();
        if let Some(reference) = reference {
            assert!(
                mapping.result_eq(&reference[i]),
                "{} ({mode}): threads={threads} diverged from the serial mapping",
                kernel.name()
            );
        }
        kernels.push(KernelRow {
            kernel: kernel.name(),
            ii: mapping.ii(),
            wall_us,
            ii_attempts: collector.counter_total(Phase::Mapper, "ii_attempts") - attempts_before,
            dijkstra_expansions: collector.counter_total(Phase::Router, "dijkstra_expansions")
                - expansions_before,
        });
        mappings.push(mapping);
    }
    (
        RunRow {
            mode,
            threads,
            kernels,
            failed_route_expansions: collector
                .counter_total(Phase::Router, "failed_route_expansions")
                - failed_before,
            route_passes: collector.counter_total(Phase::Router, "route_passes") - passes_before,
        },
        mappings,
    )
}

fn emit_json(runs: &[RunRow], thread_counts: &[usize]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"suite\": \"standalone-x1\",\n  \"thread_counts\": [");
    for (i, t) in thread_counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{t}");
    }
    out.push_str("],\n  \"determinism\": \"ok\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let wall: u128 = run.kernels.iter().map(|k| k.wall_us).sum();
        let exp: u64 = run.kernels.iter().map(|k| k.dijkstra_expansions).sum();
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"total_wall_us\": {}, \
             \"total_dijkstra_expansions\": {}, \"failed_route_expansions\": {}, \
             \"route_passes\": {}, \"kernels\": [",
            run.mode, run.threads, wall, exp, run.failed_route_expansions, run.route_passes
        );
        for (j, k) in run.kernels.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"kernel\": \"{}\", \"ii\": {}, \"wall_us\": {}, \
                 \"ii_attempts\": {}, \"dijkstra_expansions\": {}}}{}",
                k.kernel,
                k.ii,
                k.wall_us,
                k.ii_attempts,
                k.dijkstra_expansions,
                if j + 1 < run.kernels.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "    ]}}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_mapper.json".to_string(), String::clone);
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    // This binary installs its own collector (it needs the mapper/router
    // counters regardless of `ICED_TRACE`), so it does not use
    // `iced_bench::with_tracing`.
    let collector = Arc::new(RecordingCollector::new());
    assert!(
        iced::trace::install(collector.clone()).is_ok(),
        "map_perf must own the process trace collector"
    );

    let cfg = CgraConfig::iced_prototype();
    let mut runs = Vec::new();
    for mode in ["baseline", "dvfs-aware"] {
        let (serial_row, reference) = bench_run(&collector, &cfg, mode, 1, None);
        runs.push(serial_row);
        for &threads in &thread_counts[1..] {
            let (row, _) = bench_run(&collector, &cfg, mode, threads, Some(&reference));
            runs.push(row);
        }
    }

    for run in &runs {
        let wall: u128 = run.kernels.iter().map(|k| k.wall_us).sum();
        let exp: u64 = run.kernels.iter().map(|k| k.dijkstra_expansions).sum();
        println!(
            "{:>10}  threads={}  wall={:>8} us  expansions={}",
            run.mode, run.threads, wall, exp
        );
    }
    println!("determinism: ok (every parallel run matched the serial mapping)");

    let json = emit_json(&runs, thread_counts);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("map_perf: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
