//! Regenerates every table and figure of the paper's evaluation, plus the
//! ablation, adaptation-window and design-space studies: prints each table
//! in paper order and writes the same rounded values to
//! `BENCH_figures.json` at the repository root, where the file is
//! committed.
//!
//! ```sh
//! cargo run --release -p iced-bench --bin figures
//! ```

use std::path::Path;

use iced_bench::figures;

fn run() {
    let tables = figures::all();
    for table in &tables {
        println!("{}", table.text());
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_figures.json");
    if let Err(e) = std::fs::write(&path, figures::json(&tables)) {
        eprintln!("figures: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    iced_bench::with_tracing(run);
}
