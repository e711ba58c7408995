//! Graphviz (DOT) export of DFGs, mirroring the paper's figures: critical
//! recurrence-cycle nodes in green, secondary cycles in blue, the rest grey.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::graph::{Dfg, NodeId};
use crate::recurrence::RecurrenceReport;

/// Node fill colours for [`to_dot_colored`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeColor {
    /// On the longest recurrence cycle (II-critical) — paper's green.
    Critical,
    /// On a shorter recurrence cycle — paper's blue.
    Secondary,
    /// Not on any recurrence cycle — paper's grey.
    Plain,
}

impl NodeColor {
    fn fill(self) -> &'static str {
        match self {
            NodeColor::Critical => "palegreen",
            NodeColor::Secondary => "lightskyblue",
            NodeColor::Plain => "lightgrey",
        }
    }
}

/// Renders `dfg` with recurrence-cycle colouring as in the paper's Figure 1.
pub fn to_dot_colored(dfg: &Dfg) -> String {
    let report = RecurrenceReport::new(dfg);
    let mut colors: HashMap<NodeId, NodeColor> = HashMap::new();
    let longest = report.longest_len();
    for cycle in report.cycles() {
        let color = if cycle.len() == longest {
            NodeColor::Critical
        } else {
            NodeColor::Secondary
        };
        for &n in cycle.nodes() {
            let slot = colors.entry(n).or_insert(color);
            if *slot == NodeColor::Secondary && color == NodeColor::Critical {
                *slot = NodeColor::Critical;
            }
        }
    }
    render(dfg, &colors)
}

fn render(dfg: &Dfg, colors: &HashMap<NodeId, NodeColor>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", dfg.name());
    let _ = writeln!(out, "  node [shape=circle, style=filled];");
    for node in dfg.nodes() {
        let color = colors.get(&node.id()).copied().unwrap_or(NodeColor::Plain);
        let _ = writeln!(
            out,
            "  {} [label=\"{}\\n{}\", fillcolor={}];",
            node.id(),
            node.id(),
            node.op(),
            color.fill()
        );
    }
    for e in dfg.edges() {
        if e.kind().is_loop_carried() {
            let _ = writeln!(
                out,
                "  {} -> {} [style=dashed, label=\"d={}\"];",
                e.src(),
                e.dst(),
                e.kind().distance()
            );
        } else {
            let _ = writeln!(out, "  {} -> {};", e.src(), e.dst());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::op::Opcode;

    #[test]
    fn dot_contains_all_nodes_and_dashed_carries() {
        let mut b = DfgBuilder::new("g");
        let phi = b.node(Opcode::Phi, "acc");
        let add = b.node(Opcode::Add, "add");
        b.data(phi, add).unwrap();
        b.carry(add, phi).unwrap();
        let g = b.finish().unwrap();
        let dot = to_dot_colored(&g);
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn colored_dot_marks_critical_cycle() {
        let mut b = DfgBuilder::new("g");
        let phi = b.node(Opcode::Phi, "acc");
        let add = b.node(Opcode::Add, "add");
        let lone = b.node(Opcode::Load, "x");
        b.data(phi, add).unwrap();
        b.data(lone, add).unwrap();
        b.carry(add, phi).unwrap();
        let g = b.finish().unwrap();
        let dot = to_dot_colored(&g);
        assert!(dot.contains("palegreen"));
        assert!(dot.contains("lightgrey"));
    }
}
