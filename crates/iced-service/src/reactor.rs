//! The shard's event loop: one thread, every socket.
//!
//! A single readiness loop over [`crate::poll`] owns the listener, the
//! wake token, and all client connections, which live in the shared
//! connection core ([`crate::conn`]): framing, ticket ordering, buffered
//! writes and admission are the same as the router's. What is the
//! shard's own is its [`Handler`]:
//!
//! * **Control verbs** (`healthz`, `metrics`, `stats`, `shutdown`,
//!   `cache_put`) are answered inline.
//! * **Warm hits** are answered here: a `compile`/`simulate`/`stream`
//!   request whose key is cheap to derive (a named kernel, a stream
//!   spec, inline text with a memoized hash) is probed against the
//!   in-memory cache and, on a hit, answered without a worker hop.
//!   Misses, spill-directory reads and WL hashing stay on the workers.
//! * **Batches** are planned here, before enqueueing: every slot's cache
//!   key is derived and deduped, so a batch of N identical specs reaches
//!   the worker pool as one unit of computation.
//! * **Accounting**: connection, error and latency metrics, the event
//!   log, and the chaos write-drop site, rolled once per released line.
//!
//! Workers finish out of order; their [`Completion`]s come back through
//! `Shared::completions` and the wake token.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::CacheKey;
use crate::conn::{serve, Completion, Conn, Handler, ReplyTo};
use crate::json::Obj;
use crate::log::Level;
use crate::metrics::Scalar;
use crate::proto::{
    parse_request, render_batch_result, render_err, render_ok, BatchElem, BatchSlot, Payload,
    Request, RequestId, SvcError, Verb,
};
use crate::queue::PushError;
use crate::server::{
    begin_shutdown, elem_key, lock, log_control_finish, log_request_error, request_key, Job,
    JobKind, Shared, SlotPlan,
};

/// Runs until shutdown has drained: accepts, frames, answers control
/// verbs, enqueues work, routes completions, flushes.
pub(crate) fn reactor_loop(shared: &Arc<Shared>, listener: TcpListener, wake_rx: TcpStream) {
    let (max_conns, cap) = (shared.max_conns, shared.pipeline_cap);
    serve(listener, wake_rx, max_conns, cap, &mut Shard { shared });
}

/// The shard's side of the connection core.
pub(crate) struct Shard<'a> {
    pub(crate) shared: &'a Arc<Shared>,
}

impl Handler for Shard<'_> {
    fn line(&mut self, c: &mut Conn, to: ReplyTo, line: &str) {
        handle_line(self.shared, c, to, line);
    }

    fn rejected(&mut self, rid: RequestId, err: &SvcError) {
        self.shared.metrics.line_rejected(err);
        log_request_error(self.shared, rid, None, err);
    }

    fn opened(&mut self) {
        self.shared.metrics.conn_opened();
    }

    fn closed(&mut self) {
        self.shared.metrics.sub(Scalar::ConnsOpen, 1);
    }

    /// The refusal is visible in metrics and the event log.
    fn refused(&mut self) {
        self.shared.metrics.add(Scalar::ConnsRejected, 1);
        self.shared.log.emit(Level::Warn, "conn_rejected", |o| {
            o.u64("max_conns", self.shared.max_conns as u64)
        });
    }

    fn draining(&mut self) -> bool {
        self.shared.shutting.load(Ordering::SeqCst)
    }

    fn completions(&mut self) -> Vec<Completion> {
        let done = std::mem::take(&mut *lock(&self.shared.completions));
        self.shared
            .jobs_outstanding
            .fetch_sub(done.len(), Ordering::SeqCst);
        done
    }

    /// Queued and running work always finishes; only unflushable sockets
    /// are cut off at the deadline.
    fn drained(&self, flushed: bool, expired: bool) -> bool {
        let work_done = self.shared.jobs_outstanding.load(Ordering::SeqCst) == 0
            && lock(&self.shared.completions).is_empty();
        work_done && (flushed || expired)
    }

    /// Rolls the chaos write-drop site: the connection is lost; the
    /// daemon must not be.
    fn tear(&mut self, rid: RequestId, line: &str) -> bool {
        let Some(chaos) = &self.shared.chaos else {
            return false;
        };
        if !chaos.drop_write() {
            return false;
        }
        self.shared.metrics.add(Scalar::ChaosFaults, 1);
        iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_drops", 1);
        self.shared.log.emit(Level::Warn, "chaos_drop", |o| {
            o.str("req", &rid.token())
                .u64("bytes_torn", (line.len() / 2) as u64)
        });
        true
    }
}

fn handle_line(shared: &Arc<Shared>, c: &mut Conn, to: ReplyTo, text: &str) {
    let t0 = Instant::now();
    let rid = to.rid;
    let req = match parse_request(text) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.add(Scalar::Errors, 1);
            log_request_error(shared, rid, e.verb, &e.error);
            c.complete(to, render_err(e.id, Some(rid), e.verb, &e.error));
            return;
        }
    };
    shared.log.emit(Level::Debug, "request_start", |o| {
        o.str("req", &rid.token())
            .str("verb", req.verb.name())
            .u64("id", req.id)
    });
    match req.verb {
        Verb::Compile | Verb::Simulate | Verb::Stream => match probe_resident(shared, &req) {
            Some(hit) => answer_cached(shared, c, &req, to, t0, &hit),
            None => enqueue_work(shared, c, req, to, t0),
        },
        Verb::Batch => enqueue_work(shared, c, req, to, t0),
        _ => answer_control(shared, c, req, to, t0),
    }
}

/// Answers a control verb (`healthz`, `metrics`, `stats`, `shutdown`,
/// `cache_put`) inline.
fn answer_control(shared: &Shared, c: &mut Conn, req: Request, to: ReplyTo, t0: Instant) {
    let verb = req.verb;
    let _flight = shared.metrics.flight(verb);
    let result = match (verb, req.payload) {
        (Verb::Metrics, _) => {
            sample_gauges(shared);
            shared.metrics.render()
        }
        (Verb::Shutdown, _) => {
            // Keep reading afterwards: the client may pipeline further
            // requests, which now receive `shutting_down` errors.
            begin_shutdown(shared);
            Obj::new()
                .str("state", "draining")
                .u64("queued", shared.queue.len() as u64)
                .u64("in_flight", shared.in_flight.load(Ordering::Relaxed) as u64)
                .finish()
        }
        (_, Payload::Stats { prometheus: true }) => {
            sample_gauges(shared);
            let body = shared.metrics.render_prometheus();
            Obj::new()
                .str("format", "prometheus")
                .str("body", &body)
                .finish()
        }
        (_, Payload::Stats { .. }) => shared.metrics.render_stats(),
        (_, Payload::CachePut { key, value }) => {
            shared.cache.put(key, value);
            Obj::new().bool("stored", true).finish()
        }
        _ => {
            let draining = shared.shutting.load(Ordering::SeqCst);
            shared.metrics.render_healthz("shard", draining, |o| {
                o.u64("threads", shared.threads as u64)
                    .u64("queue_cap", shared.queue_cap as u64)
                    .u64(Scalar::QueueDepth.row().key, shared.queue.len() as u64)
                    .u64("in_flight", shared.in_flight.load(Ordering::Relaxed) as u64)
                    .bool("chaos_armed", shared.chaos.is_some())
            })
        }
    };
    shared.metrics.observe(verb, t0.elapsed());
    log_control_finish(shared, to.rid, verb, t0);
    c.complete(to, render_ok(req.id, Some(to.rid), verb, false, &result));
}

/// Reads the gauges the shard keeps outside its metrics — queue depth,
/// resident cache size, dropped log lines — into their rows.
fn sample_gauges(shared: &Shared) {
    let m = &shared.metrics;
    m.set(Scalar::QueueDepth, shared.queue.len() as u64);
    m.set(Scalar::CacheBytes, shared.cache.bytes());
    m.set(Scalar::CacheEntries, shared.cache.entries() as u64);
    m.set(Scalar::LogDropped, shared.log.dropped());
}

/// Probes the in-memory cache for a work request whose key is cheap to
/// derive here: a named kernel, a `stream` spec, or inline text whose
/// hash is memoized. Anything that would need a WL refinement, and every
/// spill-directory read, stays on the workers, so the reactor never
/// hashes a graph or touches a file. A draining server answers no new
/// work, cached or not.
fn probe_resident(shared: &Shared, req: &Request) -> Option<Arc<String>> {
    let cheap = match &req.payload {
        Payload::Compile(spec) => spec.source.hash_known(),
        Payload::Simulate(spec) => spec.compile.source.hash_known(),
        Payload::Stream(_) => true,
        _ => false,
    };
    if !cheap || shared.shutting.load(Ordering::SeqCst) {
        return None;
    }
    shared
        .cache
        .get_resident(request_key(shared.config_hash, req)?)
}

/// Answers a resident cache hit inline, through the same ticketed path
/// as the control verbs, so per-connection order is unchanged. The hit
/// counts in the cache and per-verb latency metrics and logs a `cached`
/// finish, but never enters the worker-only queue-wait/service split.
fn answer_cached(
    shared: &Shared,
    c: &mut Conn,
    req: &Request,
    to: ReplyTo,
    t0: Instant,
    result: &str,
) {
    let _flight = shared.metrics.flight(req.verb);
    shared.metrics.add(Scalar::CacheHits, 1);
    shared.metrics.observe(req.verb, t0.elapsed());
    shared.log.emit(Level::Info, "request_finish", |o| {
        o.str("req", &to.rid.token())
            .str("verb", req.verb.name())
            .str("outcome", "cached")
            .u64("total_us", t0.elapsed().as_micros() as u64)
    });
    c.complete(to, render_ok(req.id, Some(to.rid), req.verb, true, result));
}

fn enqueue_work(shared: &Arc<Shared>, c: &mut Conn, req: Request, to: ReplyTo, t0: Instant) {
    let (id, verb, rid) = (req.id, req.verb, to.rid);
    let kind = match req.payload {
        Payload::Batch(spec) => {
            if spec.items.is_empty() {
                // Nothing to compute; answer inline.
                shared.metrics.batch_observed(0, 0);
                shared.metrics.observe(Verb::Batch, t0.elapsed());
                log_control_finish(shared, rid, Verb::Batch, t0);
                let result = render_batch_result(0, 0, &[]);
                c.complete(to, render_ok(id, Some(rid), Verb::Batch, false, &result));
                return;
            }
            let kind = plan_batch(shared, id, spec.items);
            if let JobKind::Batch { slots, unique, .. } = &kind {
                shared.log.emit(Level::Debug, "batch_plan", |o| {
                    o.str("req", &rid.token())
                        .u64("slots", slots.len() as u64)
                        .u64("unique", unique.len() as u64)
                });
            }
            kind
        }
        payload => JobKind::Single(Request { id, verb, payload }),
    };
    // Count before pushing: the worker may finish (and the reactor
    // observe the completion) before `try_push` even returns.
    shared.jobs_outstanding.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        kind,
        to,
        accepted_at: t0,
    };
    let err = match shared.queue.try_push(job) {
        Ok(depth) => return shared.metrics.max(Scalar::QueuePeak, depth as u64),
        Err(PushError::Full) => {
            shared.metrics.add(Scalar::Rejected, 1);
            SvcError::with_entity(
                "queue_full",
                format!(
                    "request queue at capacity ({}); retry later",
                    shared.queue.capacity()
                ),
                verb.name(),
            )
        }
        Err(PushError::Closed) => SvcError::new(
            "shutting_down",
            "server is draining and accepts no new work",
        ),
    };
    shared.jobs_outstanding.fetch_sub(1, Ordering::SeqCst);
    log_request_error(shared, rid, Some(verb), &err);
    c.complete(to, render_err(id, Some(rid), Some(verb), &err));
}

/// Dedupes a batch's slots by cache key: identical specs collapse to one
/// unique element computed once, every slot keeping a pointer to it.
fn plan_batch(shared: &Shared, id: u64, items: Vec<BatchSlot>) -> JobKind {
    let cfg = shared.config_hash;
    let mut index: HashMap<CacheKey, usize> = HashMap::new();
    let mut unique: Vec<(CacheKey, BatchElem)> = Vec::new();
    let mut slots: Vec<SlotPlan> = Vec::with_capacity(items.len());
    for item in items {
        match item {
            BatchSlot::Elem(elem) => {
                let key = elem_key(cfg, &elem);
                let idx = *index.entry(key).or_insert_with(|| {
                    unique.push((key, elem));
                    unique.len() - 1
                });
                slots.push(SlotPlan::Unique(idx));
            }
            BatchSlot::Invalid { verb, error } => slots.push(SlotPlan::Invalid(verb, error)),
        }
    }
    JobKind::Batch { id, slots, unique }
}
