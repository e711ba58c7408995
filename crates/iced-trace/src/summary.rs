//! Terminal-friendly profiling summary of a recording.

use std::collections::HashMap;
use std::fmt;

use crate::collector::{Phase, Record};

/// Aggregated view of one phase: span totals and counter totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// The phase summarised.
    pub phase: Phase,
    /// Per span name: (count, total inclusive wall time in µs). Sorted by
    /// total time, descending.
    pub spans: Vec<(String, u64, u64)>,
    /// Per counter name: final total. Sorted descending by total.
    pub counters: Vec<(String, u64)>,
    /// Instant events recorded in this phase.
    pub instants: u64,
    /// Virtual-time complete events recorded in this phase.
    pub completes: u64,
}

/// Per-phase aggregation of a recording, printable with `{}`.
///
/// The `Display` form lists, for every phase that recorded anything, the
/// top 8 counters and span time totals — the "where did the work go"
/// report the bench binaries print when `ICED_TRACE` is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    phases: Vec<PhaseSummary>,
}

/// How many entries per list `Display` prints.
const TOP_K: usize = 8;

impl TraceSummary {
    /// Builds a summary from raw records.
    pub fn from_records(records: &[Record]) -> TraceSummary {
        let mut span_stats: HashMap<(Phase, String), (u64, u64)> = HashMap::new();
        let mut open: HashMap<u64, (Phase, String, u64)> = HashMap::new();
        let mut counters: HashMap<(Phase, String), u64> = HashMap::new();
        let mut instants: HashMap<Phase, u64> = HashMap::new();
        let mut completes: HashMap<Phase, u64> = HashMap::new();

        for r in records {
            match r {
                Record::SpanBegin {
                    id,
                    phase,
                    name,
                    t_us,
                    ..
                } => {
                    open.insert(*id, (*phase, name.clone(), *t_us));
                }
                Record::SpanEnd { id, t_us, .. } => {
                    if let Some((phase, name, begin)) = open.remove(id) {
                        let slot = span_stats.entry((phase, name)).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 += t_us.saturating_sub(begin);
                    }
                }
                Record::Instant { phase, .. } => *instants.entry(*phase).or_insert(0) += 1,
                Record::Complete { phase, .. } => *completes.entry(*phase).or_insert(0) += 1,
                Record::Counter {
                    phase, name, total, ..
                } => {
                    // Records carry running totals; the last one wins.
                    counters.insert((*phase, name.clone()), *total);
                }
            }
        }
        // Spans still open when the recording was snapshotted count with
        // zero duration, so their existence is visible.
        for (phase, name, _) in open.into_values() {
            span_stats.entry((phase, name)).or_insert((0, 0)).0 += 1;
        }

        let phases = Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let mut spans: Vec<(String, u64, u64)> = span_stats
                    .iter()
                    .filter(|((p, _), _)| *p == phase)
                    .map(|((_, n), (count, us))| (n.clone(), *count, *us))
                    .collect();
                spans.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
                let mut cs: Vec<(String, u64)> = counters
                    .iter()
                    .filter(|((p, _), _)| *p == phase)
                    .map(|((_, n), t)| (n.clone(), *t))
                    .collect();
                cs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let summary = PhaseSummary {
                    phase,
                    spans,
                    counters: cs,
                    instants: instants.get(&phase).copied().unwrap_or(0),
                    completes: completes.get(&phase).copied().unwrap_or(0),
                };
                let empty = summary.spans.is_empty()
                    && summary.counters.is_empty()
                    && summary.instants == 0
                    && summary.completes == 0;
                (!empty).then_some(summary)
            })
            .collect();
        TraceSummary { phases }
    }

    /// The per-phase aggregates (phases that recorded nothing are omitted).
    pub fn phases(&self) -> &[PhaseSummary] {
        &self.phases
    }

    /// Aggregate for one phase, if it recorded anything.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} us")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phases.is_empty() {
            return writeln!(f, "trace summary: no records");
        }
        writeln!(f, "trace summary (top {TOP_K} per phase):")?;
        for p in &self.phases {
            writeln!(
                f,
                "  [{}] {} span kind(s), {} instant(s), {} firing record(s)",
                p.phase,
                p.spans.len(),
                p.instants,
                p.completes
            )?;
            for (name, count, us) in p.spans.iter().take(TOP_K) {
                writeln!(f, "    span    {name:<28} x{count:<6} {}", fmt_us(*us))?;
            }
            for (name, total) in p.counters.iter().take(TOP_K) {
                writeln!(f, "    counter {name:<28} {total}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, RecordingCollector};

    #[test]
    fn summary_aggregates_spans_and_counters() {
        let c = RecordingCollector::new();
        for ii in 2..5u64 {
            let s = c.span_begin(Phase::Mapper, "ii_attempt", &[("ii", ii.into())]);
            c.counter(Phase::Mapper, "placement_candidates", 10 * ii);
            c.span_end(s);
        }
        c.counter(Phase::Router, "expansions", 99);
        c.instant(Phase::Controller, "decision", &[]);
        c.complete(Phase::Sim, "t0", "fire", 0, 1, &[]);

        let s = c.summary();
        let mapper = s.phase(Phase::Mapper).expect("mapper recorded");
        assert_eq!(mapper.spans.len(), 1);
        assert_eq!(mapper.spans[0].0, "ii_attempt");
        assert_eq!(mapper.spans[0].1, 3);
        assert_eq!(
            mapper.counters,
            vec![("placement_candidates".to_string(), 90)]
        );
        assert_eq!(s.phase(Phase::Router).unwrap().counters[0].1, 99);
        assert_eq!(s.phase(Phase::Controller).unwrap().instants, 1);
        assert_eq!(s.phase(Phase::Sim).unwrap().completes, 1);
        assert!(s.phase(Phase::Bench).is_none());

        let text = s.to_string();
        assert!(text.contains("[mapper]"));
        assert!(text.contains("placement_candidates"));
        assert!(text.contains("x3"));
    }

    #[test]
    fn empty_summary_prints_placeholder() {
        let s = TraceSummary::from_records(&[]);
        assert!(s.phases().is_empty());
        assert!(s.to_string().contains("no records"));
    }

    #[test]
    fn top_k_truncates_display() {
        let c = RecordingCollector::new();
        for i in 0..20 {
            c.counter(Phase::Bench, &format!("c{i}"), i + 1);
        }
        let text = c.summary().to_string();
        assert_eq!(text.matches("counter c").count(), 8);
        assert!(text.contains("top 8 per phase"));
        // Highest totals win.
        assert!(text.contains("c19"));
    }
}
