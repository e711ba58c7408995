//! A trace collector with bounded memory: it records spans and events,
//! but keeps each counter only as a running total. The exact search
//! bumps the router's counters about a million times per suite pass;
//! `RecordingCollector` would keep a record for every bump.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use iced::trace::{ArgValue, Collector, Phase, Record, SpanId};

#[derive(Debug, Default)]
struct Inner {
    records: Vec<Record>,
    open: HashMap<u64, Phase>,
    next_span: u64,
    counters: BTreeMap<(Phase, String), u64>,
}

/// Spans and events in full, counters as totals.
#[derive(Debug)]
pub struct SpanCollector {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// An empty recording starting now.
    pub fn new() -> SpanCollector {
        SpanCollector {
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span collector lock poisoned by a panic")
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Total of one counter (0 if never bumped).
    pub fn total(&self, phase: Phase, name: &str) -> u64 {
        self.lock()
            .counters
            .get(&(phase, name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Every span and event, then one record per counter with its total.
    pub fn records(&self) -> Vec<Record> {
        let t_us = self.now_us();
        let inner = self.lock();
        let mut out = inner.records.clone();
        out.extend(
            inner
                .counters
                .iter()
                .map(|((phase, name), &total)| Record::Counter {
                    phase: *phase,
                    name: name.clone(),
                    t_us,
                    total,
                }),
        );
        out
    }
}

fn own(args: &[(&str, ArgValue)]) -> Vec<(String, ArgValue)> {
    args.iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

impl Collector for SpanCollector {
    fn enabled(&self) -> bool {
        true
    }

    fn span_begin(&self, phase: Phase, name: &str, args: &[(&str, ArgValue)]) -> SpanId {
        let t_us = self.now_us();
        let mut inner = self.lock();
        inner.next_span += 1;
        let id = inner.next_span;
        inner.open.insert(id, phase);
        inner.records.push(Record::SpanBegin {
            id,
            phase,
            name: name.to_string(),
            t_us,
            args: own(args),
        });
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        let t_us = self.now_us();
        let mut inner = self.lock();
        if let Some(phase) = inner.open.remove(&id.0) {
            inner.records.push(Record::SpanEnd {
                id: id.0,
                phase,
                t_us,
            });
        }
    }

    fn instant(&self, phase: Phase, name: &str, args: &[(&str, ArgValue)]) {
        let t_us = self.now_us();
        self.lock().records.push(Record::Instant {
            phase,
            name: name.to_string(),
            t_us,
            args: own(args),
        });
    }

    fn complete(
        &self,
        phase: Phase,
        track: &str,
        name: &str,
        start: u64,
        dur: u64,
        args: &[(&str, ArgValue)],
    ) {
        self.lock().records.push(Record::Complete {
            phase,
            track: track.to_string(),
            name: name.to_string(),
            start,
            dur,
            args: own(args),
        });
    }

    fn counter(&self, phase: Phase, name: &str, delta: u64) {
        *self
            .lock()
            .counters
            .entry((phase, name.to_string()))
            .or_default() += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_and_spans_pair() {
        let c = SpanCollector::new();
        let s = c.span_begin(Phase::Bench, "layer", &[("req", 1u64.into())]);
        c.counter(Phase::Router, "routes", 2);
        c.counter(Phase::Router, "routes", 3);
        c.span_end(s);
        c.span_end(s);
        assert_eq!(c.total(Phase::Router, "routes"), 5);
        let r = c.records();
        assert_eq!(r.len(), 3, "begin, end and one counter total: {r:?}");
        assert!(matches!(&r[2], Record::Counter { total: 5, .. }));
    }
}
