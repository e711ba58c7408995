//! Bring your own kernel: write a loop body as a small structured CFG,
//! let the partial-predication pass turn its control flow into `select`
//! dataflow (paper §IV, "control dependencies are converted to data
//! dependencies using partial predication"), then unroll, map, and
//! simulate it end-to-end.
//!
//! The kernel here is a clamped accumulation:
//!
//! ```c
//! for (i = 0; i < n; i++) {
//!     t = x[i] * w[i];
//!     if (t > limit) t = limit;   // saturation branch
//!     acc = acc + t;
//!     y[i] = acc;
//! }
//! ```
//!
//! ```sh
//! cargo run --release --example custom_kernel_predication
//! ```

use iced::dfg::transform::{unroll, CfgBuilder, Terminator, UnrollOptions};
use iced::dfg::{DfgMetrics, Opcode};
use iced::sim::run_engine;
use iced::{Strategy, Toolchain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The loop body as a structured CFG (if-triangle for saturation).
    let mut cfg = CfgBuilder::new("sat_acc");
    let entry = cfg.block();
    let clamp = cfg.block();
    let merge = cfg.block();
    cfg.inst(entry, "x", Opcode::Load, &["xs"]);
    cfg.inst(entry, "w", Opcode::Load, &["ws"]);
    cfg.inst(entry, "t", Opcode::Mul, &["x", "w"]);
    cfg.inst(entry, "p", Opcode::Cmp, &["t", "limit"]);
    cfg.terminate(entry, Terminator::branch("p", clamp, merge));
    cfg.inst(clamp, "t", Opcode::Mov, &["limit"]);
    cfg.terminate(clamp, Terminator::Jump(merge));
    cfg.inst(merge, "sum", Opcode::Add, &["acc", "t"]);
    cfg.inst(merge, "st", Opcode::Store, &["sum"]);
    cfg.terminate(merge, Terminator::Return);
    cfg.loop_carry("sum", "acc", 1); // the accumulator recurrence

    // 2. If-conversion: control flow becomes select dataflow.
    let dfg = cfg.finish()?.predicate()?;
    let m = DfgMetrics::measure(&dfg);
    println!(
        "predicated kernel: {} nodes, {} edges, {} select(s), RecMII {}",
        m.nodes(),
        m.edges(),
        m.control_ops(),
        m.rec_mii()
    );

    // 3. Compile at unroll factors 1 and 2 and compare.
    let toolchain = Toolchain::prototype();
    for (uf, graph) in [
        (1u32, dfg.clone()),
        (2u32, unroll(&dfg, &UnrollOptions::new(2))?),
    ] {
        let base = toolchain.compile(&graph, Strategy::Baseline)?;
        let iced = toolchain.compile(&graph, Strategy::IcedIslands)?;
        println!(
            "uf{uf}: II {} -> {} | util {:>5.1}% -> {:>5.1}% | power {:>5.1} -> {:>5.1} mW",
            base.mapping().ii(),
            iced.mapping().ii(),
            100.0 * base.average_utilization_all_tiles(),
            100.0 * iced.average_utilization(),
            base.power_mw(10_000),
            iced.power_mw(10_000),
        );

        // 4. Run the mapped schedule on the cycle-stepped engine, which
        //    compares every fired value with the plain dataflow
        //    interpretation and fails on the first mismatch.
        let report = run_engine(&graph, iced.mapping(), 16, 2024)?;
        println!(
            "     engine: 16 iterations bit-exact, max FIFO depth {}",
            report.fifo_peak
        );
    }
    Ok(())
}
