//! `--compare A.jsonl B.jsonl`: judges two sets of `--out` records
//! against the bounds in `BENCHMARK.json`, one row per (workload,
//! end-to-end metric).

use std::collections::BTreeMap;
use std::path::Path;

use iced_service::json::{self, Value};

use crate::stats;

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// How set B compares with set A on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's spread (interquartile range over median) is wider than
    /// the bound, and the runs of B neither all beat nor all trail A's.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over median.
fn spread(sorted: &[f64]) -> f64 {
    let [q1, q2, q3] = stats::quartiles(sorted);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Judges B against A. `bound` is the share of A's median by which B may
/// be worse before it counts as a regression.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a, b) = (stats::sorted(a), stats::sorted(b));
    let (ma, mb) = (stats::quartiles(&a)[1], stats::quartiles(&b)[1]);
    // How much worse B is, as a share of A's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let (a_lo, a_hi, b_lo, b_hi) = (a[0], a[a.len() - 1], b[0], b[b.len() - 1]);
    let (all_better, all_worse) = match better {
        Better::Lower => (b_hi < a_lo, b_lo > a_hi),
        Better::Higher => (b_lo > a_hi, b_hi < a_lo),
    };
    if spread(&a) > bound || spread(&b) > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// (name, better, bound) of every end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: 'better' must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// workload → metric → values, from the end-to-end records of a file.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_records(&text).map_err(|(n, e)| format!("{}:{n}: {e}", path.display()))
}

/// Groups the end-to-end (`"trace":0`) records of a JSONL text; an error
/// carries its 1-based line number.
fn parse_records(text: &str) -> Result<Samples, (usize, String)> {
    let mut out = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| (n + 1, e.to_string()))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or((n + 1, "no workload".to_string()))?;
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err((n + 1, "no metrics".into()));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// Prints one row per (workload, metric) present in both files. Returns
/// whether no row regressed.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (sa, sb) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>6} {:>6} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A iqr", "B iqr"
    );
    let mut clean = true;
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else {
            continue;
        };
        for (name, better, bound) in &bounds {
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            let v = verdict(va, vb, *better, *bound);
            clean &= v != Verdict::Regressed;
            let (a_sorted, b_sorted) = (stats::sorted(va), stats::sorted(vb));
            let (med_a, med_b) = (
                stats::quartiles(&a_sorted)[1],
                stats::quartiles(&b_sorted)[1],
            );
            println!(
                "{workload:<14} {name:<15} {med_a:>12.4} {med_b:>12.4} {:>+7.1}% {:>5.0}% {:>5.1}% {:>5.1}%  {} (n={}/{})",
                100.0 * (med_b - med_a) / med_a.abs(),
                100.0 * bound,
                100.0 * spread(&a_sorted),
                100.0 * spread(&b_sorted),
                v.name(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts_on_hand_made_sets() {
        let shift = |k: f64| A.map(|x| x * k);
        assert_eq!(
            verdict(&A, &shift(1.02), Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&A, &shift(1.2), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&A, &shift(0.8), Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&A, &shift(1.2), Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&A, &shift(0.8), Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&A, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &A, Better::Lower, 0.1), Verdict::Unresolved);
        let far_better = [10.0, 20.0, 30.0, 15.0, 25.0];
        assert_eq!(
            verdict(&A, &far_better, Better::Lower, 0.1),
            Verdict::Improved
        );
        let far_worse = far_better.map(|x| x * 20.0);
        assert_eq!(
            verdict(&A, &far_worse, Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn records_group_by_workload_and_skip_trace_runs() {
        let text = concat!(
            r#"{"workload":"warm-hit","trace":0,"metrics":{"setup_s":{"value":0.5,"unit":"s","samples":5}}}"#,
            "\n\n",
            r#"{"workload":"warm-hit","trace":1,"metrics":{"setup_s":{"value":9,"unit":"s","samples":1}}}"#,
            "\n",
            r#"{"workload":"warm-hit","trace":0,"metrics":{"setup_s":{"value":0.7,"unit":"s","samples":5}}}"#,
        );
        let s = parse_records(text).expect("records");
        assert_eq!(s["warm-hit"]["setup_s"], vec![0.5, 0.7]);
        assert_eq!(parse_records("{\"trace\":0}").unwrap_err().0, 1);
    }
}
