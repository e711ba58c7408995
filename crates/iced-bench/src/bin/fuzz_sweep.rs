//! Differential fuzzing sweep: the standing scenario-coverage engine.
//!
//! Generates a seeded DFG corpus (see `iced::fuzz::gen`) and runs every
//! kernel through the cross-backend harness at a ladder of fault
//! densities: heuristic map vs certified lower bound, dependency checker,
//! exact certification on small kernels, engine vs oracle bit-identity,
//! and an SEU fault-sim smoke on degraded rungs. Outcomes aggregate into a
//! taxonomy (`mapped`, `degraded`, `rejected:<class>`, `bug:<kind>`); the
//! whole sweep then runs a second pass over the same seeds and asserts the
//! taxonomy is byte-for-byte identical, and replays the committed
//! regression corpus. Results go to `BENCH_fuzz.json`. Exit status is non-zero when
//! any bug, determinism mismatch, or corpus regression is found — CI runs
//! this as the `fuzz-smoke` gate.
//!
//! Seed and per-density case count come from `ICED_FUZZ_SEED` /
//! `ICED_FUZZ_CASES` (defaults `0x1CED_F0CC` / 256).
//!
//! ```sh
//! cargo run --release -p iced-bench --bin fuzz_sweep -- [--quick] [--out PATH]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use iced::fuzz::corpus::replay_failures;
use iced::fuzz::harness::with_quiet_panics;
use iced::fuzz::{env_cases, env_seed, run_seed, GenOptions, HarnessOptions, Outcome};

/// One density rung's aggregate.
struct Rung {
    density: f64,
    cases: usize,
    /// taxonomy class → count, deterministic order.
    taxonomy: BTreeMap<String, usize>,
    bugs: Vec<(u64, String)>,
    /// Fraction of cases that produced a usable mapping (mapped or
    /// degraded) — the per-density survival rate.
    survival: f64,
    elapsed_s: f64,
}

fn sweep(seed_base: u64, cases: usize, densities: &[f64]) -> Vec<Rung> {
    let gopts = GenOptions::default();
    let hopts = HarnessOptions::default();
    let mut rungs = Vec::new();
    for &density in densities {
        let start = Instant::now();
        let mut taxonomy: BTreeMap<String, usize> = BTreeMap::new();
        let mut bugs = Vec::new();
        let mut usable = 0usize;
        let mut slowest: Vec<(f64, u64, String)> = Vec::new();
        for i in 0..cases {
            let seed = seed_base.wrapping_add(i as u64);
            let t0 = Instant::now();
            let (_, outcome) = run_seed(seed, density, &gopts, &hopts);
            let dt = t0.elapsed().as_secs_f64();
            let class = outcome.class();
            if matches!(outcome, Outcome::Mapped { .. } | Outcome::Degraded { .. }) {
                usable += 1;
            }
            if outcome.is_bug() {
                bugs.push((seed, class.clone()));
            }
            slowest.push((dt, seed, class.clone()));
            *taxonomy.entry(class).or_insert(0) += 1;
        }
        slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (dt, seed, class) in slowest.iter().take(3) {
            if *dt > 0.5 {
                eprintln!("  slow case: d={density:.2} seed={seed:#x} {class} took {dt:.2}s");
            }
        }
        rungs.push(Rung {
            density,
            cases,
            taxonomy,
            bugs,
            survival: usable as f64 / cases.max(1) as f64,
            elapsed_s: start.elapsed().as_secs_f64(),
        });
    }
    rungs
}

/// Renders a taxonomy deterministically (`class=count` joined by `,`).
fn taxonomy_line(t: &BTreeMap<String, usize>) -> String {
    t.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fuzz.json".into());

    let seed_base = env_seed();
    let cases = env_cases();
    let densities: &[f64] = if quick {
        &[0.0, 0.1, 0.3]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.4]
    };

    let total_start = Instant::now();
    let rungs = with_quiet_panics(|| sweep(seed_base, cases, densities));
    let elapsed = total_start.elapsed().as_secs_f64();

    println!(
        "{:>8} {:>7} {:>9} {:>7} {:>9}  taxonomy",
        "density", "cases", "cases/s", "bugs", "survival"
    );
    let mut total_bugs = 0usize;
    for r in &rungs {
        println!(
            "{:>8.2} {:>7} {:>9.1} {:>7} {:>8.1}%  {}",
            r.density,
            r.cases,
            r.cases as f64 / r.elapsed_s.max(1e-9),
            r.bugs.len(),
            100.0 * r.survival,
            taxonomy_line(&r.taxonomy),
        );
        for (seed, class) in &r.bugs {
            println!("    BUG d={:.2} seed={seed:#x}: {class}", r.density);
        }
        total_bugs += r.bugs.len();
    }

    // Determinism: the same seeds must reproduce the identical taxonomy,
    // byte for byte.
    eprintln!(
        "fuzz_sweep: determinism re-pass over {} seeds...",
        cases.min(64)
    );
    let repass = with_quiet_panics(|| sweep(seed_base, cases.min(64), densities));
    let mut deterministic = true;
    for (a, b) in rungs.iter().zip(&repass) {
        // Compare over the re-pass prefix: recount pass 1 outcomes for the
        // first `b.cases` seeds by re-running is wasteful, so when case
        // counts match we compare full lines, otherwise re-sweep decides.
        if a.cases == b.cases && taxonomy_line(&a.taxonomy) != taxonomy_line(&b.taxonomy) {
            deterministic = false;
            eprintln!(
                "DETERMINISM MISMATCH d={:.2}:\n  pass1 {}\n  pass2 {}",
                a.density,
                taxonomy_line(&a.taxonomy),
                taxonomy_line(&b.taxonomy)
            );
        }
    }
    if cases > 64 {
        // Case counts differed; verify the prefix independently.
        let prefix = with_quiet_panics(|| sweep(seed_base, 64, densities));
        for (a, b) in repass.iter().zip(&prefix) {
            if taxonomy_line(&a.taxonomy) != taxonomy_line(&b.taxonomy) {
                deterministic = false;
                eprintln!(
                    "DETERMINISM MISMATCH (prefix) d={:.2}:\n  pass2 {}\n  pass3 {}",
                    a.density,
                    taxonomy_line(&a.taxonomy),
                    taxonomy_line(&b.taxonomy)
                );
            }
        }
    }

    // Regression corpus replay: every historical bug must stay fixed.
    let hopts = HarnessOptions::default();
    let corpus_failures = with_quiet_panics(|| replay_failures(&hopts));
    for (name, density, class) in &corpus_failures {
        eprintln!("CORPUS REGRESSION {name} d={density:.2}: {class}");
    }

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {seed_base},");
    let _ = writeln!(out, "  \"cases_per_density\": {cases},");
    let _ = writeln!(out, "  \"elapsed_s\": {elapsed:.3},");
    let _ = writeln!(
        out,
        "  \"cases_per_sec\": {:.3},",
        rungs.iter().map(|r| r.cases).sum::<usize>() as f64 / elapsed.max(1e-9)
    );
    let _ = writeln!(out, "  \"deterministic\": {deterministic},");
    let _ = writeln!(out, "  \"corpus_regressions\": {},", corpus_failures.len());
    let _ = writeln!(out, "  \"total_bugs\": {total_bugs},");
    let _ = writeln!(out, "  \"rungs\": [");
    for (i, r) in rungs.iter().enumerate() {
        let taxo = r
            .taxonomy
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "    {{\"density\": {:.2}, \"cases\": {}, \"survival\": {:.4}, \"bugs\": {}, \"taxonomy\": {{{taxo}}}}}{}",
            r.density,
            r.cases,
            r.survival,
            r.bugs.len(),
            if i + 1 == rungs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write fuzz report");

    let total_cases: usize = rungs.iter().map(|r| r.cases).sum();
    println!();
    println!(
        "fuzz_sweep: {total_cases} cases in {elapsed:.1}s ({:.1}/s), {total_bugs} bugs, \
         deterministic={deterministic}, corpus regressions={}; report written to {out_path}",
        total_cases as f64 / elapsed.max(1e-9),
        corpus_failures.len()
    );
    if total_bugs > 0 || !deterministic || !corpus_failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    iced_bench::with_tracing(run);
}
