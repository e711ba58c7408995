//! Structured tracing, counters, and trace export for the ICED toolchain.
//!
//! Every interesting decision in the toolchain — Algorithm 2's II
//! escalation and routing retries in `iced-mapper`, per-tile activity in
//! `iced-sim`'s cycle-stepped engine, window-boundary level changes in
//! `iced-streaming`'s runtime DVFS controller — can emit into a
//! process-wide [`Collector`]:
//!
//! * [`NullCollector`] — the default; every emit site is behind a single
//!   relaxed atomic load, so instrumentation is free when tracing is off.
//! * [`RecordingCollector`] — in-memory recording with wall-clock span
//!   timestamps, virtual-time (cycle-stamped) complete events, and
//!   monotonic running counters.
//!
//! Recordings export to two formats (see [`export`]):
//!
//! * **Chrome `trace_event` JSON** — open in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) to see mapper II attempts and
//!   simulator tile timelines as a flame/track view.
//! * **JSONL** — one record per line, for ad-hoc `jq`/script analysis.
//!
//! [`TraceSummary`] condenses a recording into per-phase top-k counters
//! and span totals for terminal output.
//!
//! # Wiring
//!
//! The bench binaries install a collector when `ICED_TRACE=path` is set
//! (see `iced-bench`). Library code emits through the free functions:
//!
//! ```
//! use iced_trace::{Phase, span, counter};
//!
//! {
//!     let _s = span(Phase::Mapper, "ii_attempt", &[("ii", 4u64.into())]);
//!     counter(Phase::Mapper, "placement_candidates", 12);
//! } // span closed on drop
//! ```
//!
//! # Request scopes and thread overlays
//!
//! The global collector installs once per process, which is the right
//! model for a bench binary but not for a server answering many requests
//! on a worker pool. Two thread-scoped mechanisms layer on top:
//!
//! * [`request_scope`] tags the current thread with a request id; while
//!   the returned guard lives, every span/instant/complete emitted from
//!   this thread carries an extra `("req", id)` argument, so one
//!   request's compile→map→simulate phases are attributable in a shared
//!   recording. Scopes nest; the previous id is restored on drop.
//! * [`overlay`] installs an *additional* per-thread collector; records
//!   emitted from this thread are delivered to it as well as to the
//!   global collector (if one is installed and enabled). An overlay
//!   activates the emit sites even when no global collector exists, which
//!   is what lets a server capture a single request's trace without the
//!   install-once limitation.
//!
//! * [`mute`] silences the current thread: while the returned guard
//!   lives, nothing it emits reaches any collector. It is for work that
//!   runs only as a check and must not count, such as a debug build
//!   re-running what a release build skips.
//!
//! All three are thread-local: work handed to other threads (e.g. the mapper
//! portfolio's internal workers) is not captured by an overlay, though
//! the top-level spans opened on the scoped thread are.
//!
//! The fully-disabled fast path is two relaxed atomic loads (global
//! enabled flag + process-wide overlay count) per emit site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
pub mod export;
mod summary;

pub use collector::{
    ArgValue, Collector, NullCollector, Phase, Record, RecordingCollector, SpanId,
};
pub use summary::{PhaseSummary, TraceSummary};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Arc<dyn Collector>> = OnceLock::new();

/// Process-wide count of live thread overlays. Zero means no thread has
/// an overlay, so emit sites can skip the thread-local lookup entirely.
static OVERLAYS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of live request scopes; same skip-the-TLS trick.
static REQ_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of live mute guards; same skip-the-TLS trick.
static MUTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SCOPE: RefCell<ThreadScope> = RefCell::new(ThreadScope::default());
}

#[derive(Default)]
struct ThreadScope {
    overlay: Option<Arc<dyn Collector>>,
    request: u64, // 0 = no request scope active
    muted: usize, // live mute guards on this thread
}

/// Installs the process-wide collector. Returns `Err` with the rejected
/// collector if one was already installed (first install wins).
pub fn install(c: Arc<dyn Collector>) -> Result<(), Arc<dyn Collector>> {
    let enabled = c.enabled();
    match COLLECTOR.set(c) {
        Ok(()) => {
            ENABLED.store(enabled, Ordering::Release);
            Ok(())
        }
        Err(rejected) => Err(rejected),
    }
}

/// The installed collector, if any.
pub fn collector() -> Option<&'static Arc<dyn Collector>> {
    COLLECTOR.get()
}

/// Whether an enabled collector is installed. Emit sites gate on this —
/// a single relaxed atomic load — so the disabled path stays free.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether any sink — the global collector or a thread overlay somewhere
/// in the process — might receive records from this thread.
#[inline]
fn active() -> bool {
    (ENABLED.load(Ordering::Relaxed) || OVERLAYS.load(Ordering::Relaxed) != 0) && !muted()
}

/// Whether a [`mute`] guard is live on this thread.
#[inline]
fn muted() -> bool {
    MUTES.load(Ordering::Relaxed) != 0 && SCOPE.with(|s| s.borrow().muted != 0)
}

/// Whether per-event detail records (e.g. one record per FU firing in the
/// simulator) should be emitted. Off by default even when tracing is on,
/// because firing records scale with cycles simulated.
#[inline]
pub fn detail_enabled() -> bool {
    enabled() && DETAIL.load(Ordering::Relaxed)
}

/// Turns per-event detail records on or off (see [`detail_enabled`]).
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Release);
}

/// Installs `c` as this thread's overlay collector; records emitted from
/// this thread reach it (in addition to the global collector) until the
/// returned guard drops. Overlays nest: the previous overlay, if any, is
/// shadowed and restored on drop.
pub fn overlay(c: Arc<dyn Collector>) -> OverlayGuard {
    OVERLAYS.fetch_add(1, Ordering::SeqCst);
    let prev = SCOPE.with(|s| s.borrow_mut().overlay.replace(c));
    OverlayGuard { prev: Some(prev) }
}

/// RAII guard for a thread overlay installed with [`overlay`].
pub struct OverlayGuard {
    prev: Option<Option<Arc<dyn Collector>>>,
}

impl Drop for OverlayGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| s.borrow_mut().overlay = prev);
            OVERLAYS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for OverlayGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayGuard").finish_non_exhaustive()
    }
}

/// Silences the current thread until the returned guard drops: counters,
/// instants, complete events and spans it emits reach no collector. A
/// span opened before the guard still ends on drop. Guards nest.
pub fn mute() -> MuteGuard {
    MUTES.fetch_add(1, Ordering::SeqCst);
    SCOPE.with(|s| s.borrow_mut().muted += 1);
    MuteGuard { _private: () }
}

/// RAII guard for [`mute`].
#[derive(Debug)]
pub struct MuteGuard {
    _private: (),
}

impl Drop for MuteGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.borrow_mut().muted -= 1);
        MUTES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Tags the current thread with a request id until the returned guard
/// drops; spans, instants, and complete events emitted from this thread
/// gain a `("req", id)` argument. Scopes nest (previous id restored).
pub fn request_scope(id: u64) -> RequestScope {
    REQ_SCOPES.fetch_add(1, Ordering::SeqCst);
    let prev = SCOPE.with(|s| std::mem::replace(&mut s.borrow_mut().request, id));
    RequestScope { prev: Some(prev) }
}

/// The request id set by the innermost live [`request_scope`] on this
/// thread, if any.
pub fn current_request() -> Option<u64> {
    if REQ_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPE.with(|s| {
        let id = s.borrow().request;
        (id != 0).then_some(id)
    })
}

/// RAII guard for a request scope opened with [`request_scope`].
pub struct RequestScope {
    prev: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| s.borrow_mut().request = prev);
            REQ_SCOPES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for RequestScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestScope").finish_non_exhaustive()
    }
}

/// This thread's overlay collector, cloned out of the TLS cell so the
/// borrow never spans the collector call.
fn thread_overlay() -> Option<Arc<dyn Collector>> {
    if OVERLAYS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPE.with(|s| s.borrow().overlay.clone())
}

/// Extends `args` with the active request scope's `("req", id)`, when one
/// is set. `None` means no extension is needed — use `args` as-is.
fn req_args<'a>(args: &[(&'a str, ArgValue)]) -> Option<Vec<(&'a str, ArgValue)>> {
    let id = current_request()?;
    let mut v = Vec::with_capacity(args.len() + 1);
    v.extend(args.iter().map(|(k, a)| (*k, a.clone())));
    v.push(("req", ArgValue::U64(id)));
    Some(v)
}

/// Adds `delta` to a named monotonic counter. No-op when disabled.
#[inline]
pub fn counter(phase: Phase, name: &str, delta: u64) {
    if !active() {
        return;
    }
    if enabled() {
        if let Some(c) = collector() {
            c.counter(phase, name, delta);
        }
    }
    if let Some(o) = thread_overlay() {
        o.counter(phase, name, delta);
    }
}

/// Emits an instantaneous event. No-op when disabled.
#[inline]
pub fn instant(phase: Phase, name: &str, args: &[(&str, ArgValue)]) {
    if !active() {
        return;
    }
    let extended = req_args(args);
    let args = extended.as_deref().unwrap_or(args);
    if enabled() {
        if let Some(c) = collector() {
            c.instant(phase, name, args);
        }
    }
    if let Some(o) = thread_overlay() {
        o.instant(phase, name, args);
    }
}

/// Emits a virtual-time complete event (`start`/`dur` in whatever unit the
/// caller's timeline uses — the simulator uses base cycles). `track` names
/// the horizontal lane (e.g. a tile). No-op when disabled.
#[inline]
pub fn complete(
    phase: Phase,
    track: &str,
    name: &str,
    start: u64,
    dur: u64,
    args: &[(&str, ArgValue)],
) {
    if !active() {
        return;
    }
    let extended = req_args(args);
    let args = extended.as_deref().unwrap_or(args);
    if enabled() {
        if let Some(c) = collector() {
            c.complete(phase, track, name, start, dur, args);
        }
    }
    if let Some(o) = thread_overlay() {
        o.complete(phase, track, name, start, dur, args);
    }
}

/// Opens a wall-clock span closed when the returned guard drops.
/// No-op (and allocation-free) when disabled.
#[inline]
pub fn span(phase: Phase, name: &str, args: &[(&str, ArgValue)]) -> SpanGuard {
    if !active() {
        return SpanGuard { open: Vec::new() };
    }
    let extended = req_args(args);
    let args = extended.as_deref().unwrap_or(args);
    let mut open = Vec::new();
    if enabled() {
        if let Some(c) = collector() {
            open.push((Arc::clone(c), c.span_begin(phase, name, args)));
        }
    }
    if let Some(o) = thread_overlay() {
        let id = o.span_begin(phase, name, args);
        open.push((o, id));
    }
    SpanGuard { open }
}

/// RAII guard for a span opened with [`span`]; ends the span (in every
/// collector it was begun in) on drop.
pub struct SpanGuard {
    open: Vec<(Arc<dyn Collector>, SpanId)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        for (c, id) in self.open.drain(..) {
            c.span_end(id);
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &!self.open.is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global is process-wide and tests share one process, so the
    // global-install path is covered by a single test; everything else
    // drives collectors directly or through thread overlays.
    #[test]
    fn install_enables_and_second_install_is_rejected() {
        counter(Phase::Mapper, "noop", 1); // no collector: must not panic
        let rec = Arc::new(RecordingCollector::new());
        assert!(install(rec.clone()).is_ok(), "first install");
        assert!(enabled());
        counter(Phase::Mapper, "c", 2);
        {
            let _s = span(Phase::Sim, "s", &[("k", "v".into())]);
            instant(Phase::Controller, "i", &[]);
        }
        complete(Phase::Sim, "t0", "fire", 3, 2, &[]);
        let records = rec.records();
        assert!(records.len() >= 4);
        assert!(install(Arc::new(NullCollector)).is_err());
        // Collector reference survives; counter totals visible.
        assert_eq!(rec.counter_total(Phase::Mapper, "c"), 2);
    }

    #[test]
    fn overlay_captures_on_its_thread_even_without_a_global_install() {
        // A spawned thread keeps this test's TLS state away from the
        // other tests' emissions (and vice versa).
        std::thread::spawn(|| {
            let rec = Arc::new(RecordingCollector::new());
            {
                let _ov = overlay(rec.clone());
                counter(Phase::Bench, "ov_hits", 3);
                let _s = span(Phase::Bench, "ov_span", &[]);
            }
            // Overlay removed: later emissions don't reach it.
            counter(Phase::Bench, "ov_hits", 5);
            assert_eq!(rec.counter_total(Phase::Bench, "ov_hits"), 3);
            let spans = rec
                .records()
                .iter()
                .filter(|r| matches!(r, Record::SpanBegin { .. }))
                .count();
            assert_eq!(spans, 1);
        })
        .join()
        .expect("overlay thread");
    }

    #[test]
    fn mute_silences_only_its_own_thread_until_dropped() {
        std::thread::spawn(|| {
            let rec = Arc::new(RecordingCollector::new());
            let _ov = overlay(rec.clone());
            counter(Phase::Bench, "mute_hits", 1);
            {
                let _m = mute();
                {
                    let _inner = mute();
                    counter(Phase::Bench, "mute_hits", 10);
                }
                counter(Phase::Bench, "mute_hits", 100);
                let _s = span(Phase::Bench, "mute_span", &[]);
            }
            counter(Phase::Bench, "mute_hits", 1000);
            assert_eq!(rec.counter_total(Phase::Bench, "mute_hits"), 1001);
            assert!(rec
                .records()
                .iter()
                .all(|r| !matches!(r, Record::SpanBegin { .. })));
        })
        .join()
        .expect("mute thread");
    }

    #[test]
    fn overlays_nest_and_restore_the_previous_collector() {
        std::thread::spawn(|| {
            let outer = Arc::new(RecordingCollector::new());
            let inner = Arc::new(RecordingCollector::new());
            let _a = overlay(outer.clone());
            counter(Phase::Bench, "ov_nest", 1);
            {
                let _b = overlay(inner.clone());
                counter(Phase::Bench, "ov_nest", 10);
            }
            counter(Phase::Bench, "ov_nest", 100);
            // Inner shadowed outer while live; outer resumed afterwards.
            assert_eq!(inner.counter_total(Phase::Bench, "ov_nest"), 10);
            assert_eq!(outer.counter_total(Phase::Bench, "ov_nest"), 101);
        })
        .join()
        .expect("nest thread");
    }

    #[test]
    fn request_scope_tags_spans_and_instants_with_the_request_id() {
        std::thread::spawn(|| {
            let rec = Arc::new(RecordingCollector::new());
            let _ov = overlay(rec.clone());
            {
                let _req = request_scope(42);
                assert_eq!(current_request(), Some(42));
                let _s = span(Phase::Bench, "ov_tagged", &[("k", 7u64.into())]);
                instant(Phase::Bench, "ov_instant", &[]);
                {
                    let _nested = request_scope(43);
                    assert_eq!(current_request(), Some(43));
                }
                assert_eq!(current_request(), Some(42), "nesting restores");
            }
            assert_eq!(current_request(), None);
            let records = rec.records();
            let tagged = |args: &Vec<(String, ArgValue)>| {
                args.iter()
                    .any(|(k, v)| k == "req" && *v == ArgValue::U64(42))
            };
            let span_ok = records.iter().any(
                |r| matches!(r, Record::SpanBegin { name, args, .. } if name == "ov_tagged" && tagged(args)),
            );
            let instant_ok = records.iter().any(
                |r| matches!(r, Record::Instant { name, args, .. } if name == "ov_instant" && tagged(args)),
            );
            assert!(span_ok, "span missing req arg: {records:?}");
            assert!(instant_ok, "instant missing req arg: {records:?}");
        })
        .join()
        .expect("request-scope thread");
    }
}
