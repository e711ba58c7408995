//! Service-side observability: lock-free counters, per-verb latency
//! histograms with quantile estimation, a sliding-window view, and
//! Prometheus-style text exposition — mirrored into `iced-trace` so the
//! `metrics`/`stats` verbs and a Chrome-trace export tell the same story.
//!
//! Every scalar metric is declared once, as a registry entry (`Scalar`)
//! carrying its JSON key, Prometheus family name, kind, help text and
//! value. Both roles expose from their lists of entries: the flat
//! `metrics` JSON, the `connections`/`batch` blocks of `stats`, and one
//! Prometheus family per entry. The shard and the router share the
//! connection and error entries; the router adds its own. The three
//! latency histograms go out through one summary writer.
//!
//! Two time horizons are reported:
//!
//! * **Lifetime** — the atomic [`Histogram`]s, never reset.
//! * **Window** — a ring of [`WINDOW_SLOTS`] epoch sub-histograms, each
//!   covering [`EPOCH_SECONDS`]; a slot is zeroed when its epoch comes
//!   round again, so the ring always holds the last ~60 s of samples.
//!
//! Quantiles (p50/p95/p99) are estimated from the log2 buckets by linear
//! interpolation inside the covering bucket, capped at the observed
//! maximum — cheap, deterministic, and monotone in `q`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use iced::trace::Phase;

use crate::json::Obj;
use crate::proto::{SvcError, Verb};

/// Number of log2 latency buckets. Bucket `i` counts requests whose
/// latency was in `[2^i, 2^(i+1))` microseconds; the last bucket absorbs
/// everything slower (~ 9 minutes and up).
pub const LATENCY_BUCKETS: usize = 30;

/// Seconds covered by one window slot.
pub const EPOCH_SECONDS: u64 = 10;

/// Number of slots in the sliding-window ring (6 × 10 s ≈ last minute).
pub const WINDOW_SLOTS: usize = 6;

/// Verbs whose work flows through the queue/worker pool and therefore
/// has a queue-wait/service-time split worth reporting.
const WORK_VERBS: [Verb; 4] = [Verb::Compile, Verb::Simulate, Verb::Stream, Verb::Batch];

/// The log2 bucket an observation of `us` microseconds falls in.
#[inline]
fn bucket_of(us: u64) -> usize {
    (64 - us.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1)
}

/// One verb's latency histogram (lifetime, lock-free).
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough copy of the current state (individual loads are
    /// relaxed; the histogram is only ever added to).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn render(&self) -> String {
        let snap = self.snapshot();
        let mut buckets = String::from("[");
        // Trailing all-zero buckets are trimmed so the payload stays small.
        let last = (0..LATENCY_BUCKETS).rev().find(|&i| snap.buckets[i] != 0);
        if let Some(last) = last {
            for (i, b) in snap.buckets[..=last].iter().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                buckets.push_str(&b.to_string());
            }
        }
        buckets.push(']');
        Obj::new()
            .u64("count", snap.count)
            .u64("total_us", snap.total_us)
            .f64("mean_us", snap.mean_us())
            .u64("max_us", snap.max_us)
            .u64("p50_us", snap.quantile(0.50))
            .u64("p95_us", snap.quantile(0.95))
            .u64("p99_us", snap.quantile(0.99))
            .raw("log2_us_buckets", &buckets)
            .finish()
    }
}

/// A point-in-time copy of one histogram, from which quantiles are
/// estimated. Also used for merged window views.
#[derive(Debug, Clone, Copy)]
pub struct HistSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observations in microseconds.
    pub total_us: u64,
    /// Largest observation in microseconds.
    pub max_us: u64,
    /// Log2 bucket counts (see [`LATENCY_BUCKETS`]).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            total_us: 0,
            max_us: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Adds another snapshot into this one (used to merge window slots).
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Records one observation (non-atomic variant for window slots).
    fn add(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        self.buckets[bucket_of(us)] += 1;
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) in microseconds by linear
    /// interpolation inside the covering log2 bucket. The estimate is
    /// capped at the observed maximum, which makes it exact for the top
    /// of the distribution and keeps `quantile` monotone in `q`; an empty
    /// snapshot reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i == LATENCY_BUCKETS - 1 {
                    self.max_us.max(lo)
                } else {
                    1u64 << (i + 1)
                };
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).min(self.max_us);
            }
            seen += c;
        }
        self.max_us
    }

    fn render_summary(&self) -> String {
        Obj::new()
            .u64("count", self.count)
            .f64("mean_us", self.mean_us())
            .u64("max_us", self.max_us)
            .u64("p50_us", self.quantile(0.50))
            .u64("p95_us", self.quantile(0.95))
            .u64("p99_us", self.quantile(0.99))
            .finish()
    }
}

/// One ring slot: per-verb sub-histograms valid for a single epoch.
#[derive(Debug, Default, Clone)]
struct Slot {
    /// The epoch these counts belong to; a slot whose epoch is stale is
    /// zeroed before reuse (and skipped when merging the window view).
    epoch: u64,
    hists: [HistSnapshot; Verb::ALL.len()],
}

/// Sliding-window latency view: a ring of per-epoch sub-histograms.
/// Epochs are supplied by the caller so tests can drive time explicitly.
#[derive(Debug, Default)]
struct Window {
    slots: Mutex<[Slot; WINDOW_SLOTS]>,
}

impl Window {
    /// Records one observation into the slot for `epoch`.
    fn record(&self, verb: Verb, us: u64, epoch: u64) {
        let mut slots = self.slots.lock().expect("window lock");
        let slot = &mut slots[(epoch as usize) % WINDOW_SLOTS];
        if slot.epoch != epoch {
            *slot = Slot {
                epoch,
                ..Slot::default()
            };
        }
        slot.hists[verb as usize].add(us);
    }

    /// Merged per-verb view of the slots still inside the window ending
    /// at `now_epoch` (inclusive).
    fn view(&self, now_epoch: u64) -> [HistSnapshot; Verb::ALL.len()] {
        let oldest = now_epoch.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let slots = self.slots.lock().expect("window lock");
        let mut out: [HistSnapshot; Verb::ALL.len()] = Default::default();
        for slot in slots.iter() {
            if slot.epoch < oldest || slot.epoch > now_epoch {
                continue; // stale slot not yet reused
            }
            for (acc, h) in out.iter_mut().zip(slot.hists.iter()) {
                acc.merge(h);
            }
        }
        out
    }
}

/// Decrements the per-verb in-flight gauge on drop.
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
    verb: Verb,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight[self.verb as usize].fetch_sub(1, Ordering::Relaxed);
    }
}

/// The iced-trace counter each verb's answered requests bump, indexed
/// by verb: `svc_<verb>_requests`.
const REQUEST_COUNTERS: [&str; Verb::ALL.len()] = [
    "svc_compile_requests",
    "svc_simulate_requests",
    "svc_stream_requests",
    "svc_healthz_requests",
    "svc_metrics_requests",
    "svc_shutdown_requests",
    "svc_stats_requests",
    "svc_batch_requests",
    "svc_cache_put_requests",
];

/// How Prometheus types a family.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Only ever grows.
    Counter,
    /// Goes up and down.
    Gauge,
}

/// One entry of the metrics registry, declared once: its JSON `key`,
/// kind, help text and value. Prometheus names the family after the
/// role's prefix and `name` (the key unless renamed), with `_total`
/// appended to counters, so a name ends in `_total` exactly when it
/// counts. `stat` files the entry in its section's `stats` block; `by`
/// breaks the Prometheus value down by a label, while JSON keeps the
/// total.
#[derive(Debug, Clone)]
pub(crate) struct Scalar<'a> {
    pub(crate) key: &'static str,
    name: &'static str,
    kind: Kind,
    help: &'static str,
    value: u64,
    pub(crate) stat: Option<&'static str>,
    by: Option<(&'static str, Vec<(&'a str, u64)>)>,
}

/// A counter entry.
pub(crate) fn counter<'a>(key: &'static str, help: &'static str, value: u64) -> Scalar<'a> {
    Scalar {
        key,
        name: key,
        kind: Kind::Counter,
        help,
        value,
        stat: None,
        by: None,
    }
}

/// A gauge entry.
pub(crate) fn gauge<'a>(key: &'static str, help: &'static str, value: u64) -> Scalar<'a> {
    Scalar {
        kind: Kind::Gauge,
        ..counter(key, help, value)
    }
}

impl<'a> Scalar<'a> {
    /// Names the Prometheus family `name` instead of the JSON key.
    pub(crate) fn named(self, name: &'static str) -> Self {
        Scalar { name, ..self }
    }

    /// Files the entry under `field` in its section's `stats` block.
    pub(crate) fn stat(self, field: &'static str) -> Self {
        Scalar {
            stat: Some(field),
            ..self
        }
    }

    /// Breaks the Prometheus value down by `label`.
    pub(crate) fn by(self, label: &'static str, samples: Vec<(&'a str, u64)>) -> Self {
        Scalar {
            by: Some((label, samples)),
            ..self
        }
    }
}

/// Adds each entry to `obj` under its JSON key.
pub(crate) fn put_fields<'s, 'a: 's>(
    obj: Obj,
    list: impl IntoIterator<Item = &'s Scalar<'a>>,
) -> Obj {
    list.into_iter().fold(obj, |o, s| o.u64(s.key, s.value))
}

/// A section's `stats` block: each entry filed with a `stat` field.
pub(crate) fn block(section: &[Scalar<'_>]) -> Obj {
    section
        .iter()
        .filter_map(|s| Some((s.stat?, s.value)))
        .fold(Obj::new(), |o, (field, v)| o.u64(field, v))
}

/// Writes the HELP and TYPE lines that open the Prometheus family `name`.
fn header(out: &mut String, name: &str, ty: &str, help: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {ty}\n");
}

/// Writes each entry as one Prometheus family, names prefixed `prefix`.
pub(crate) fn write_families(out: &mut String, prefix: &str, list: &[Scalar<'_>]) {
    for s in list {
        let (ty, total) = match s.kind {
            Kind::Counter => ("counter", "_total"),
            Kind::Gauge => ("gauge", ""),
        };
        let name = format!("{prefix}{}{total}", s.name);
        header(out, &name, ty, s.help);
        match &s.by {
            None => {
                let _ = writeln!(out, "{name} {}", s.value);
            }
            Some((label, samples)) => {
                for (at, v) in samples {
                    let _ = writeln!(out, "{name}{{{label}=\"{at}\"}} {v}");
                }
            }
        }
    }
}

/// Writes one latency summary family: per verb, three quantiles, then
/// `_sum` and `_count`, one verb after the other.
fn write_summary(out: &mut String, name: &str, help: &str, verbs: &[Verb], hists: &[Histogram]) {
    header(out, name, "summary", help);
    for &v in verbs {
        let snap = hists[v as usize].snapshot();
        let verb = v.name();
        for q in [0.5, 0.95, 0.99] {
            let est = snap.quantile(q);
            let _ = writeln!(out, "{name}{{verb=\"{verb}\",quantile=\"{q}\"}} {est}");
        }
        let _ = writeln!(out, "{name}_sum{{verb=\"{verb}\"}} {}", snap.total_us);
        let _ = writeln!(out, "{name}_count{{verb=\"{verb}\"}} {}", snap.count);
    }
}

/// All service metrics. One instance per server (or router), shared by
/// every worker.
#[derive(Debug)]
pub struct Metrics {
    /// Cache hits across all cacheable verbs.
    pub cache_hits: AtomicU64,
    /// Cache misses (the request was computed).
    pub cache_misses: AtomicU64,
    /// Entries evicted to respect the byte budget.
    pub cache_evictions: AtomicU64,
    /// `simulate` computations that reused a memoized mapping.
    pub map_memo_hits: AtomicU64,
    /// `simulate` computations that had to map (successfully or not).
    pub map_memo_misses: AtomicU64,
    /// Requests rejected with `queue_full`.
    pub rejected: AtomicU64,
    /// Requests that returned a structured error.
    pub errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Faults injected by the chaos layer (0 unless chaos is armed).
    pub chaos_faults: AtomicU64,
    /// High-water mark of the request queue depth.
    pub queue_peak: AtomicU64,
    /// Connections currently open (reactor-maintained gauge).
    pub conns_open: AtomicU64,
    /// High-water mark of concurrently open connections.
    pub conns_peak: AtomicU64,
    /// Connections refused at the connection cap.
    pub conns_rejected: AtomicU64,
    /// Requests rejected at the per-connection pipeline cap
    /// (`too_many_requests`).
    pub pipeline_rejected: AtomicU64,
    /// Total slots received across `batch` requests.
    pub batch_slots: AtomicU64,
    /// Unique cache keys actually executed across `batch` requests; the
    /// gap to [`Metrics::batch_slots`] is work the intra-batch dedup saved.
    pub batch_unique: AtomicU64,
    /// Configured connection cap, mirrored for exposition.
    max_conns: AtomicU64,
    /// Configured per-connection pipeline cap, mirrored for exposition.
    pipeline_cap: AtomicU64,
    started: Instant,
    latency: [Histogram; Verb::ALL.len()],
    /// Time between queueing and a worker picking the job up (work verbs).
    queue_wait: [Histogram; Verb::ALL.len()],
    /// Time the worker actually spent on the job (work verbs).
    service: [Histogram; Verb::ALL.len()],
    in_flight: [AtomicU64; Verb::ALL.len()],
    window: Window,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// A relaxed load: every counter here is independent.
fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

impl Metrics {
    /// Creates a zeroed metrics block; the uptime clock starts now.
    pub fn new() -> Self {
        Metrics {
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            map_memo_hits: AtomicU64::new(0),
            map_memo_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            chaos_faults: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            conns_peak: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            pipeline_rejected: AtomicU64::new(0),
            batch_slots: AtomicU64::new(0),
            batch_unique: AtomicU64::new(0),
            max_conns: AtomicU64::new(0),
            pipeline_cap: AtomicU64::new(0),
            started: Instant::now(),
            latency: Default::default(),
            queue_wait: Default::default(),
            service: Default::default(),
            in_flight: Default::default(),
            window: Window::default(),
        }
    }

    /// Seconds since the metrics block (the server) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The current window epoch.
    fn epoch_now(&self) -> u64 {
        self.started.elapsed().as_secs() / EPOCH_SECONDS
    }

    /// Records a completed request for `verb` — lifetime histogram, the
    /// sliding window, and an iced-trace mirror counter.
    pub fn observe(&self, verb: Verb, latency: Duration) {
        self.latency[verb as usize].record(latency);
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.window.record(verb, us, self.epoch_now());
        iced::trace::counter(Phase::Service, REQUEST_COUNTERS[verb as usize], 1);
    }

    /// Records the queue-wait vs. service-time split for a worker-served
    /// request (total latency is observed separately via [`Metrics::observe`]).
    /// Cache hits the reactor answers inline never reach a worker, so
    /// they count in [`Metrics::observe`] and the cache counters only:
    /// this split covers worker-served requests, not every request.
    pub fn observe_split(&self, verb: Verb, queue_wait: Duration, service: Duration) {
        self.queue_wait[verb as usize].record(queue_wait);
        self.service[verb as usize].record(service);
    }

    /// Marks a request for `verb` in flight until the guard drops.
    pub fn flight(&self, verb: Verb) -> InFlightGuard<'_> {
        self.in_flight[verb as usize].fetch_add(1, Ordering::Relaxed);
        InFlightGuard {
            metrics: self,
            verb,
        }
    }

    /// Current in-flight count for `verb`.
    pub fn in_flight_count(&self, verb: Verb) -> u64 {
        self.in_flight[verb as usize].load(Ordering::Relaxed)
    }

    /// Records a cache hit or miss, mirroring into iced-trace.
    pub fn cache_event(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            iced::trace::counter(Phase::Service, "svc_cache_hits", 1);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            iced::trace::counter(Phase::Service, "svc_cache_misses", 1);
        }
    }

    /// Records a mapping-memo hit or miss, mirroring into iced-trace.
    pub fn map_memo_event(&self, hit: bool) {
        if hit {
            self.map_memo_hits.fetch_add(1, Ordering::Relaxed);
            iced::trace::counter(Phase::Service, "svc_map_memo_hits", 1);
        } else {
            self.map_memo_misses.fetch_add(1, Ordering::Relaxed);
            iced::trace::counter(Phase::Service, "svc_map_memo_misses", 1);
        }
    }

    /// Records `n` evictions.
    pub fn evicted(&self, n: u64) {
        if n > 0 {
            self.cache_evictions.fetch_add(n, Ordering::Relaxed);
            iced::trace::counter(Phase::Service, "svc_cache_evictions", n);
        }
    }

    /// Records a backpressure rejection.
    pub fn rejected_request(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        iced::trace::counter(Phase::Service, "svc_queue_full", 1);
    }

    /// Records one request answered with a structured error.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected chaos fault (any site).
    pub fn chaos_fault(&self) {
        self.chaos_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the queue high-water mark.
    pub fn queue_depth(&self, depth: usize) {
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records the configured connection/pipeline caps for exposition.
    pub fn set_limits(&self, pipeline_cap: usize, max_conns: usize) {
        self.pipeline_cap
            .store(pipeline_cap as u64, Ordering::Relaxed);
        self.max_conns.store(max_conns as u64, Ordering::Relaxed);
    }

    /// A connection was accepted: counts it and bumps the open gauge and
    /// its peak.
    pub fn conn_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let now = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// A connection was closed or swept.
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was refused at the connection cap.
    pub fn conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
        iced::trace::counter(Phase::Service, "svc_conns_rejected", 1);
    }

    /// A request was refused at the per-connection pipeline cap.
    pub fn pipeline_rejected_request(&self) {
        self.pipeline_rejected.fetch_add(1, Ordering::Relaxed);
        iced::trace::counter(Phase::Service, "svc_pipeline_rejected", 1);
    }

    /// A line the connection core answered itself with `err` (oversized,
    /// or past the pipeline cap): an error, and a pipeline rejection when
    /// it was one.
    pub fn line_rejected(&self, err: &SvcError) {
        if err.code == "too_many_requests" {
            self.pipeline_rejected_request();
        }
        self.error();
    }

    /// Records one executed batch: total slots vs. unique keys computed.
    pub fn batch_observed(&self, slots: usize, unique: usize) {
        self.batch_slots.fetch_add(slots as u64, Ordering::Relaxed);
        self.batch_unique
            .fetch_add(unique as u64, Ordering::Relaxed);
        iced::trace::counter(Phase::Service, "svc_batch_slots", slots as u64);
        iced::trace::counter(
            Phase::Service,
            "svc_batch_deduped",
            slots.saturating_sub(unique) as u64,
        );
    }

    /// Per-verb request count (for tests and health summaries).
    pub fn requests(&self, verb: Verb) -> u64 {
        self.latency[verb as usize].count()
    }

    /// Lifetime latency snapshot for `verb` (for tests and exposition).
    pub fn lifetime(&self, verb: Verb) -> HistSnapshot {
        self.latency[verb as usize].snapshot()
    }

    /// The registry entry both roles open their lists with.
    pub(crate) fn uptime_scalar<'a>(&self) -> Scalar<'a> {
        gauge("uptime_s", "Seconds since start.", self.uptime().as_secs()).named("uptime_seconds")
    }

    /// The error and connection-admission entries both roles keep; the
    /// ones filed with a `stat` field make the `connections` block.
    #[rustfmt::skip]
    pub(crate) fn conn_scalars<'a>(&self) -> [Scalar<'a>; 8] {
        [
            counter("errors", "Requests answered with a structured error.", load(&self.errors)),
            counter("connections", "Connections accepted.", load(&self.connections)),
            gauge("conns_open", "Connections currently open.", load(&self.conns_open)).stat("open"),
            gauge("conns_peak", "High-water mark of concurrently open connections.",
                load(&self.conns_peak)).stat("peak"),
            counter("conns_rejected", "Connections refused at the ICED_SVC_MAX_CONNS cap.",
                load(&self.conns_rejected)).stat("rejected"),
            gauge("max_conns", "Configured connection cap.", load(&self.max_conns)).stat("max_conns"),
            gauge("pipeline_cap", "Configured per-connection pipeline cap.",
                load(&self.pipeline_cap)).stat("pipeline_cap"),
            counter("pipeline_rejected", "Requests refused at the per-connection pipeline cap.",
                load(&self.pipeline_rejected)).stat("pipeline_rejected"),
        ]
    }

    /// The batch entries: the `batch` block of the shard's `stats`.
    #[rustfmt::skip]
    fn batch_scalars<'a>(&self) -> [Scalar<'a>; 2] {
        [
            counter("batch_slots", "Slots received across batch requests.",
                load(&self.batch_slots)).stat("slots"),
            counter("batch_unique", "Unique cache keys executed across batch requests.",
                load(&self.batch_unique)).stat("unique"),
        ]
    }

    /// The shard's registry, in `metrics` order. The queue, cache and
    /// event-log figures live outside this block and are passed in.
    fn shard_scalars<'a>(
        &self,
        queue_depth: usize,
        cache_bytes: u64,
        cache_entries: usize,
        log_dropped: u64,
    ) -> Vec<Scalar<'a>> {
        #[rustfmt::skip]
        let head = [
            self.uptime_scalar(),
            counter("cache_hits", "Cache hits.", load(&self.cache_hits)),
            counter("cache_misses", "Cache misses.", load(&self.cache_misses)),
            counter("cache_evictions", "Cache evictions.", load(&self.cache_evictions)),
            counter("map_memo_hits", "Simulate computations that reused a memoized mapping.",
                load(&self.map_memo_hits)),
            counter("map_memo_misses", "Simulate computations that mapped.",
                load(&self.map_memo_misses)),
            gauge("cache_bytes", "Resident cache payload bytes.", cache_bytes),
            gauge("cache_entries", "Resident cache entries.", cache_entries as u64),
            gauge("queue_depth", "Current request queue depth.", queue_depth as u64),
            gauge("queue_peak", "Queue depth high-water mark.", load(&self.queue_peak)),
            counter("rejected", "Requests rejected with queue_full.", load(&self.rejected)),
        ];
        #[rustfmt::skip]
        let tail = [
            counter("chaos_faults", "Faults injected by the chaos layer.", load(&self.chaos_faults)),
            counter("log_dropped", "Event-log lines dropped under backpressure.", log_dropped),
        ];
        head.into_iter()
            .chain(self.conn_scalars())
            .chain(self.batch_scalars())
            .chain(tail)
            .collect()
    }

    /// Renders `healthz`: the fields both roles share around the role's
    /// own `middle` fields.
    pub(crate) fn render_healthz(
        &self,
        role: &str,
        draining: bool,
        middle: impl FnOnce(Obj) -> Obj,
    ) -> String {
        let up = self.uptime();
        let head = Obj::new()
            .str("status", "ok")
            .str("role", role)
            .str("state", if draining { "draining" } else { "running" })
            .str("version", env!("CARGO_PKG_VERSION"))
            .u64("uptime_s", up.as_secs())
            .u64("uptime_ms", up.as_millis() as u64);
        middle(head)
            .u64("conns_open", load(&self.conns_open))
            .u64("max_conns", load(&self.max_conns))
            .u64("pipeline_cap", load(&self.pipeline_cap))
            .finish()
    }

    /// Renders the `metrics` result object. Not cached, so field content
    /// may differ between calls; field *order* is still deterministic.
    pub fn render(
        &self,
        queue_depth: usize,
        cache_bytes: u64,
        cache_entries: usize,
        log_dropped: u64,
    ) -> String {
        let list = self.shard_scalars(queue_depth, cache_bytes, cache_entries, log_dropped);
        let mut verbs = Obj::new();
        let mut flight = Obj::new();
        for v in Verb::ALL {
            verbs = verbs.raw(v.name(), &self.latency[v as usize].render());
            flight = flight.u64(v.name(), self.in_flight_count(v));
        }
        let mut wait = Obj::new();
        let mut svc = Obj::new();
        for v in WORK_VERBS {
            wait = wait.raw(v.name(), &self.queue_wait[v as usize].render());
            svc = svc.raw(v.name(), &self.service[v as usize].render());
        }
        put_fields(Obj::new(), &list)
            .raw("in_flight", &flight.finish())
            .raw("latency", &verbs.finish())
            .raw("queue_wait", &wait.finish())
            .raw("service_time", &svc.finish())
            .finish()
    }

    /// Renders the `stats` result object: lifetime and last-window
    /// quantile summaries per verb, the window geometry, and the
    /// connection and batch blocks.
    pub fn render_stats(&self) -> String {
        let now = self.epoch_now();
        let window = self.window.view(now);
        let mut life = Obj::new();
        let mut win = Obj::new();
        for v in Verb::ALL {
            life = life.raw(v.name(), &self.lifetime(v).render_summary());
            win = win.raw(v.name(), &window[v as usize].render_summary());
        }
        let deduped = load(&self.batch_slots).saturating_sub(load(&self.batch_unique));
        let batch = block(&self.batch_scalars()).u64("deduped", deduped);
        Obj::new()
            .str("role", "shard")
            .u64("uptime_s", self.uptime().as_secs())
            .u64("window_seconds", EPOCH_SECONDS * WINDOW_SLOTS as u64)
            .u64("epoch_seconds", EPOCH_SECONDS)
            .raw("lifetime", &life.finish())
            .raw("window", &win.finish())
            .raw("connections", &block(&self.conn_scalars()).finish())
            .raw("batch", &batch.finish())
            .finish()
    }

    /// Renders every metric family as Prometheus text exposition.
    pub fn render_prometheus(
        &self,
        queue_depth: usize,
        cache_bytes: u64,
        cache_entries: usize,
        log_dropped: u64,
    ) -> String {
        let per_verb = |f: &dyn Fn(Verb) -> u64| Verb::ALL.map(|v| (v.name(), f(v))).to_vec();
        // The per-verb families; the `metrics` JSON carries the same
        // counts in its `in_flight` and `latency` sections.
        #[rustfmt::skip]
        let mut list = vec![
            counter("requests", "Completed requests per verb.", 0)
                .by("verb", per_verb(&|v| self.requests(v))),
            gauge("in_flight", "Requests currently being served per verb.", 0)
                .by("verb", per_verb(&|v| self.in_flight_count(v))),
        ];
        list.extend(self.shard_scalars(queue_depth, cache_bytes, cache_entries, log_dropped));
        let mut out = String::with_capacity(8192);
        write_families(&mut out, "iced_svc_", &list);
        #[rustfmt::skip]
        let summaries: [(&str, &str, &[Verb], &[Histogram]); 3] = [
            ("iced_svc_request_latency_us", "Request latency quantiles per verb.",
                &Verb::ALL, &self.latency),
            ("iced_svc_queue_wait_us", "Queue wait before a worker picked the job up.",
                &WORK_VERBS, &self.queue_wait),
            ("iced_svc_service_time_us", "Worker service time.", &WORK_VERBS, &self.service),
        ];
        for (name, help, verbs, hists) in summaries {
            write_summary(&mut out, name, help, verbs, hists);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = Histogram::default();
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(3)); // bucket 1
        h.record(Duration::from_micros(1024)); // bucket 10
        assert_eq!(h.count(), 3);
        let s = h.render();
        assert!(s.contains("\"count\":3"), "{s}");
        assert!(
            s.contains("\"log2_us_buckets\":[1,1,0,0,0,0,0,0,0,0,1]"),
            "{s}"
        );
    }

    #[test]
    fn exact_powers_of_two_land_in_their_own_bucket() {
        // 2^k is the *lower* edge of bucket k: [2^k, 2^(k+1)).
        for k in 0..LATENCY_BUCKETS - 1 {
            assert_eq!(bucket_of(1u64 << k), k, "2^{k}");
            assert_eq!(bucket_of((1u64 << (k + 1)) - 1), k, "2^{} - 1", k + 1);
        }
        // Beyond the table everything saturates into the last bucket.
        assert_eq!(bucket_of(1u64 << 29), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 35), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        // And the degenerate low end.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        assert!(h.render().contains("[1]"));
    }

    #[test]
    fn quantiles_match_a_known_uniform_distribution() {
        let h = Histogram::default();
        // 100 samples at exactly 100 µs: every quantile is inside bucket 6
        // ([64, 128)) and capped at the true max.
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        let snap = h.snapshot();
        for q in [0.1, 0.5, 0.95, 0.99, 1.0] {
            let est = snap.quantile(q);
            assert!((64..=100).contains(&est), "q={q} -> {est}");
        }
        assert_eq!(snap.quantile(1.0), 100, "p100 is the exact max");
    }

    #[test]
    fn quantiles_are_monotone_and_ordered_across_a_spread() {
        let h = Histogram::default();
        // 90 fast (≈10 µs), 9 medium (≈1 ms), 1 slow (≈100 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(1000));
        }
        h.record(Duration::from_micros(100_000));
        let snap = h.snapshot();
        let (p50, p95, p99) = (
            snap.quantile(0.50),
            snap.quantile(0.95),
            snap.quantile(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 < 100, "p50 should sit near the fast mode: {p50}");
        assert!(
            (512..=2048).contains(&p95),
            "p95 near the medium mode: {p95}"
        );
        assert!(p99 >= 1000, "{p99}");
        // Dense sweep: the estimator must never decrease as q grows.
        let mut last = 0;
        for i in 1..=100 {
            let est = snap.quantile(i as f64 / 100.0);
            assert!(est >= last, "q={i}% went backwards: {est} < {last}");
            last = est;
        }
    }

    #[test]
    fn saturating_last_bucket_reports_the_true_max() {
        let h = Histogram::default();
        // Both far beyond the bucket table; they share the last bucket.
        h.record(Duration::from_secs(700)); // 7e8 µs
        h.record(Duration::from_secs(1000)); // 1e9 µs
        let snap = h.snapshot();
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 2);
        assert_eq!(snap.quantile(1.0), 1_000_000_000);
        assert!(snap.quantile(0.99) <= 1_000_000_000);
        assert!(snap.quantile(0.5) >= 1 << 29, "inside the last bucket");
    }

    #[test]
    fn empty_snapshot_reports_zero_quantiles() {
        let snap = HistSnapshot::default();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean_us(), 0.0);
    }

    #[test]
    fn window_expires_old_epochs_and_merges_live_ones() {
        let w = Window::default();
        w.record(Verb::Compile, 100, 0);
        w.record(Verb::Compile, 200, 1);
        let view = w.view(1);
        assert_eq!(view[Verb::Compile as usize].count, 2, "both epochs live");
        // Move far ahead: epoch 0/1 slots are outside the window.
        let view = w.view(10);
        assert_eq!(view[Verb::Compile as usize].count, 0, "window expired");
        // A slot is zeroed when its epoch comes round again: epoch 12
        // reuses slot 0 (12 % 6), and the old epoch-0/1 samples are
        // outside the [7..=12] window.
        w.record(Verb::Compile, 300, 2 * WINDOW_SLOTS as u64);
        let view = w.view(2 * WINDOW_SLOTS as u64);
        assert_eq!(view[Verb::Compile as usize].count, 1);
        assert_eq!(view[Verb::Compile as usize].max_us, 300);
    }

    #[test]
    fn request_counters_keep_the_per_verb_trace_names() {
        for v in Verb::ALL {
            assert_eq!(
                REQUEST_COUNTERS[v as usize],
                format!("svc_{}_requests", v.name())
            );
        }
    }

    #[test]
    fn in_flight_gauge_tracks_guard_lifetime() {
        let m = Metrics::new();
        assert_eq!(m.in_flight_count(Verb::Compile), 0);
        {
            let _a = m.flight(Verb::Compile);
            let _b = m.flight(Verb::Compile);
            let _c = m.flight(Verb::Stream);
            assert_eq!(m.in_flight_count(Verb::Compile), 2);
            assert_eq!(m.in_flight_count(Verb::Stream), 1);
        }
        assert_eq!(m.in_flight_count(Verb::Compile), 0);
        assert_eq!(m.in_flight_count(Verb::Stream), 0);
    }

    #[test]
    fn metrics_render_is_complete_and_ordered() {
        let m = Metrics::new();
        m.observe(Verb::Compile, Duration::from_micros(10));
        m.observe_split(
            Verb::Compile,
            Duration::from_micros(2),
            Duration::from_micros(8),
        );
        m.cache_event(false);
        m.cache_event(true);
        m.evicted(2);
        m.map_memo_event(false);
        m.map_memo_event(true);
        m.map_memo_event(true);
        let s = m.render(3, 4096, 5, 1);
        let hits = s.find("\"cache_hits\":1").expect("hits");
        let misses = s.find("\"cache_misses\":1").expect("misses");
        assert!(hits < misses, "field order must be deterministic: {s}");
        assert!(s.contains("\"cache_evictions\":2"), "{s}");
        assert!(
            s.contains("\"map_memo_hits\":2,\"map_memo_misses\":1"),
            "{s}"
        );
        assert!(s.contains("\"queue_depth\":3"), "{s}");
        assert!(s.contains("\"compile\":{\"count\":1"), "{s}");
        assert!(s.contains("\"log_dropped\":1"), "{s}");
        assert!(s.contains("\"in_flight\":"), "{s}");
        assert!(s.contains("\"queue_wait\":"), "{s}");
        assert!(s.contains("\"service_time\":"), "{s}");
        assert!(s.contains("\"p99_us\":"), "{s}");
    }

    #[test]
    fn connection_and_batch_gauges_are_exposed_everywhere() {
        let m = Metrics::new();
        m.set_limits(32, 4096);
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.conn_rejected();
        m.pipeline_rejected_request();
        m.batch_observed(10, 3);
        assert_eq!(m.conns_open.load(Ordering::Relaxed), 1);
        assert_eq!(m.conns_peak.load(Ordering::Relaxed), 2);

        let s = m.render(0, 0, 0, 0);
        for field in [
            "\"conns_open\":1",
            "\"conns_peak\":2",
            "\"conns_rejected\":1",
            "\"max_conns\":4096",
            "\"pipeline_cap\":32",
            "\"pipeline_rejected\":1",
            "\"batch_slots\":10",
            "\"batch_unique\":3",
        ] {
            assert!(s.contains(field), "missing {field} in {s}");
        }
        assert!(
            s.contains("\"batch\":{\"count\":0"),
            "batch in latency: {s}"
        );

        let s = m.render_stats();
        assert!(
            s.contains("\"connections\":{\"open\":1,\"peak\":2,\"rejected\":1"),
            "{s}"
        );
        assert!(
            s.contains("\"batch\":{\"slots\":10,\"unique\":3,\"deduped\":7}"),
            "{s}"
        );

        let text = m.render_prometheus(0, 0, 0, 0);
        for family in [
            "iced_svc_conns_open 1",
            "iced_svc_conns_peak 2",
            "iced_svc_conns_rejected_total 1",
            "iced_svc_pipeline_rejected_total 1",
            "iced_svc_batch_slots_total 10",
            "iced_svc_batch_unique_total 3",
            "iced_svc_max_conns 4096",
            "iced_svc_pipeline_cap 32",
            "iced_svc_queue_wait_us{verb=\"batch\",quantile=\"0.5\"}",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn stats_render_reports_lifetime_and_window() {
        let m = Metrics::new();
        for i in 0..20 {
            m.observe(Verb::Simulate, Duration::from_micros(50 + i));
        }
        let s = m.render_stats();
        assert!(s.contains("\"window_seconds\":60"), "{s}");
        assert!(s.contains("\"lifetime\":"), "{s}");
        assert!(s.contains("\"window\":"), "{s}");
        // Fresh server: the window still holds everything just observed.
        let life = m.lifetime(Verb::Simulate);
        assert_eq!(life.count, 20);
        assert!(life.quantile(0.5) <= life.quantile(0.99));
    }

    #[test]
    fn prometheus_exposition_contains_every_family() {
        let m = Metrics::new();
        m.observe(Verb::Compile, Duration::from_micros(123));
        m.cache_event(true);
        m.map_memo_event(true);
        let text = m.render_prometheus(2, 100, 1, 0);
        for family in [
            "iced_svc_requests_total{verb=\"compile\"} 1",
            "iced_svc_request_latency_us{verb=\"compile\",quantile=\"0.99\"}",
            "iced_svc_queue_wait_us{verb=\"compile\",quantile=\"0.5\"}",
            "iced_svc_service_time_us{verb=\"simulate\",quantile=\"0.95\"}",
            "iced_svc_in_flight{verb=\"stream\"} 0",
            "iced_svc_cache_hits_total 1",
            "iced_svc_map_memo_hits_total 1",
            "iced_svc_map_memo_misses_total 0",
            "iced_svc_queue_depth 2",
            "iced_svc_uptime_seconds",
            "# TYPE iced_svc_requests_total counter",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
