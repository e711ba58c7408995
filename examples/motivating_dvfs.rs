//! The paper's motivating example (Figures 1 and 3): a synthetic 11-node
//! kernel whose critical recurrence cycle pins four nodes at `normal` while
//! the rest of the fabric idles — the opportunity per-island DVFS exploits.
//!
//! Reproduces the Figure 3 comparison on a 4×4 CGRA with 2×2 islands:
//! (a) conventional mapping, (b) per-tile DVFS on it, (e) DVFS-aware
//! mapping with per-island DVFS. Also dumps the colored DOT of the DFG
//! (green = critical cycle, blue = secondary cycle, grey = rest), matching
//! Figure 1's color coding.
//!
//! ```sh
//! cargo run --example motivating_dvfs
//! ```

use iced::arch::CgraConfig;
use iced::dfg::dot;
use iced::kernels::motivating_example;
use iced::{Strategy, Toolchain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The synthetic kernel of Figure 1: an 11-node DFG with a 4-node
    // critical recurrence cycle, a 2-node secondary cycle, and grey
    // feeder nodes. The figures run's `fig03` table maps the same graph.
    let dfg = motivating_example();

    println!("--- Figure 1 DFG (DOT, recurrence-cycle coloring) ---");
    println!("{}", dot::to_dot_colored(&dfg));

    // The motivating example uses a 4×4 CGRA with 2×2 islands.
    let toolchain = Toolchain::new(CgraConfig::square(4)?);
    println!("--- Figure 3: mapping strategies on a 4x4 CGRA ---");
    println!(
        "{:<12} {:>4} {:>10} {:>12} {:>10}",
        "strategy", "II", "util %", "avg-DVFS %", "power mW"
    );
    for strategy in [
        Strategy::Baseline,
        Strategy::PerTileDvfs,
        Strategy::IcedIslands,
    ] {
        let c = toolchain.compile(&dfg, strategy)?;
        println!(
            "{:<12} {:>4} {:>10.1} {:>12.1} {:>10.1}",
            strategy.name(),
            c.mapping().ii(),
            100.0 * c.average_utilization(),
            100.0 * c.average_dvfs_level(),
            c.power_mw(10_000),
        );
    }

    let iced = toolchain.compile(&dfg, Strategy::IcedIslands)?;
    let base = toolchain.compile(&dfg, Strategy::Baseline)?;
    println!(
        "\nICED vs baseline power: {:.2}x better at the same II ({} vs {})",
        base.power_mw(10_000) / iced.power_mw(10_000),
        iced.mapping().ii(),
        base.mapping().ii(),
    );

    println!("\nper-island DVFS map (Figure 3(e)):");
    for row in 0..4usize {
        let cells: Vec<String> = (0..4usize)
            .map(|col| {
                let tile = toolchain.config().tile_at(row, col);
                format!("{:^12}", iced.mapping().tile_level(tile).to_string())
            })
            .collect();
        println!("  {}", cells.join(" "));
    }
    Ok(())
}
