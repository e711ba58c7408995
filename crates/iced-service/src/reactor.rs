//! The event loop: one thread, every socket.
//!
//! A single readiness loop over [`crate::poll`] owns the listener, the
//! wake token, and all client connections. Each connection is a slab slot
//! carrying read/write buffers and a response reorder window:
//!
//! * **Framing** is incremental — bytes accumulate in `read_buf` until a
//!   newline; a line past [`MAX_LINE_BYTES`] flips the connection into
//!   discard mode until the stream resyncs at the next newline, costing
//!   one `too_large` error instead of unbounded memory.
//! * **Ordering** is strict per connection: every parsed line (and every
//!   line-level rejection) takes a monotonic *ticket*; finished responses
//!   park in a `BTreeMap` keyed by ticket and are released only in ticket
//!   order, so pipelined clients read answers in exactly the order they
//!   asked, even though the worker pool finishes out of order.
//! * **Writes** never block the loop: rendered bytes append to
//!   `write_buf`, the socket is polled with `POLLOUT` only while bytes
//!   remain, and partial writes simply stay queued.
//! * **Warm hits** are answered here: a `compile`/`simulate`/`stream`
//!   request whose key is cheap to derive (a named kernel, a stream
//!   spec, inline text with a memoized hash) is probed against the
//!   in-memory cache and, on a hit, answered without a worker hop.
//!   Misses, spill-directory reads and WL hashing stay on the workers.
//! * **Batches** are planned here, before enqueueing: every slot's cache
//!   key is derived and deduped, so a batch of N identical specs reaches
//!   the worker pool as one unit of computation.
//!
//! Slots are generation-checked: a completion carries the connection
//! *token* (a globally unique accept ordinal) and is dropped if the slot
//! was reused by a newer connection in the meantime.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::CacheKey;
use crate::log::Level;
use crate::poll::{drain_wakes, poll, PollFd, POLLIN, POLLOUT};
use crate::proto::{
    parse_request, render_batch_result, render_err, render_ok, BatchElem, BatchSlot, Payload,
    Request, RequestId, SvcError, Verb, MAX_LINE_BYTES,
};
use crate::queue::PushError;
use crate::server::{
    begin_shutdown, elem_key, lock, log_control_finish, log_request_error, request_key, Job,
    JobKind, Shared, SlotPlan,
};

/// Poll timeout: a liveness backstop only — completions and shutdown
/// arrive via the wake token, socket traffic via readiness.
const POLL_TIMEOUT_MS: i32 = 500;

/// Read granularity, and (×[`READ_ROUNDS`]) the per-connection fairness
/// bound for one loop iteration.
const READ_CHUNK: usize = 64 * 1024;

/// Max chunks read from one connection per iteration; level-triggered
/// polling re-reports leftover readability next time around.
const READ_ROUNDS: usize = 4;

/// Compact the write buffer once this many bytes are consumed.
const WRITE_COMPACT_BYTES: usize = 64 * 1024;

/// How long shutdown waits for unflushable sockets before closing them.
const FLUSH_BUDGET_MS: u64 = 5000;

/// A finished response awaiting release in ticket order.
struct PendingLine {
    rid: RequestId,
    line: String,
}

/// One client connection in the slab.
struct Conn {
    stream: TcpStream,
    /// Globally unique accept ordinal; the `conn` half of request ids and
    /// the generation tag completions are checked against.
    token: u64,
    /// This connection's slab index (routing key carried by jobs).
    slot: usize,
    /// Requests read so far (the `seq` half of request ids).
    seq: u64,
    read_buf: Vec<u8>,
    /// An oversized line is being skipped until the next newline.
    discarding: bool,
    write_buf: Vec<u8>,
    /// Consumed prefix of `write_buf`.
    wpos: usize,
    /// Next ticket to assign to an incoming line.
    next_ticket: u64,
    /// Next ticket to release into the write buffer.
    next_release: u64,
    /// Finished-but-unreleased responses, keyed by ticket.
    pending: BTreeMap<u64, PendingLine>,
    /// Tickets assigned but not yet released — the pipeline depth.
    outstanding: usize,
    read_closed: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, slot: usize) -> Conn {
        Conn {
            stream,
            token,
            slot,
            seq: 0,
            read_buf: Vec::new(),
            discarding: false,
            write_buf: Vec::new(),
            wpos: 0,
            next_ticket: 0,
            next_release: 0,
            pending: BTreeMap::new(),
            outstanding: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn write_pending(&self) -> bool {
        self.wpos < self.write_buf.len()
    }

    /// Takes the next ticket and mints the request id for a new line.
    fn admit(&mut self) -> (RequestId, u64) {
        self.seq += 1;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding += 1;
        (
            RequestId {
                conn: self.token,
                seq: self.seq,
            },
            ticket,
        )
    }

    /// Parks a locally produced response under its ticket.
    fn complete(&mut self, ticket: u64, rid: RequestId, line: String) {
        self.pending.insert(ticket, PendingLine { rid, line });
    }
}

/// Runs until shutdown has drained: accepts, frames, answers control
/// verbs, enqueues work, routes completions, flushes.
pub(crate) fn reactor_loop(shared: &Arc<Shared>, listener: TcpListener, mut wake_rx: TcpStream) {
    let mut listener = Some(listener);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_token = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let shutting = shared.shutting.load(Ordering::SeqCst);
        if shutting {
            // Dropping the listener refuses new connections immediately.
            listener = None;
        }

        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for (i, conn) in conns.iter().enumerate() {
            let Some(c) = conn else { continue };
            let mut interest = 0i16;
            if !c.read_closed && !c.dead {
                interest |= POLLIN;
            }
            if c.write_pending() && !c.dead {
                interest |= POLLOUT;
            }
            if interest != 0 {
                fds.push(PollFd::new(c.stream.as_raw_fd(), interest));
                fd_slots.push(i);
            }
        }
        let _ = poll(&mut fds, POLL_TIMEOUT_MS);
        if fds[0].readable() {
            drain_wakes(&mut wake_rx);
        }

        // Route finished work to its connection, generation-checked so a
        // completion for a closed connection's reused slot is dropped.
        let completed = std::mem::take(&mut *lock(&shared.completions));
        for done in completed {
            shared.jobs_outstanding.fetch_sub(1, Ordering::SeqCst);
            if let Some(c) = conns.get_mut(done.slot).and_then(Option::as_mut) {
                if c.token == done.token {
                    c.complete(done.ticket, done.rid, done.line);
                }
            }
        }

        if let Some(l) = listener.as_ref() {
            if fds[1].readable() {
                accept_all(shared, l, &mut conns, &mut free, &mut next_token);
            }
        }

        for (k, pfd) in fds.iter().enumerate().skip(base) {
            if !pfd.readable() {
                continue;
            }
            let slot = fd_slots[k - base];
            if let Some(c) = conns[slot].as_mut() {
                read_conn(shared, c, &mut scratch);
            }
        }

        // Release in-order responses and push bytes; cheap when idle.
        for c in conns.iter_mut().flatten() {
            if !c.dead {
                release_ready(shared, c);
                flush_conn(c);
            }
        }

        // Sweep: torn/errored sockets, and naturally finished ones (peer
        // closed its send half and every admitted request is answered).
        for (i, entry) in conns.iter_mut().enumerate() {
            let finished = match entry {
                Some(c) => c.dead || (c.read_closed && c.outstanding == 0 && !c.write_pending()),
                None => false,
            };
            if finished {
                if let Some(c) = entry.take() {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    shared.metrics.conn_closed();
                }
                free.push(i);
            }
        }

        if shutting {
            let deadline = *drain_deadline.get_or_insert_with(|| {
                Instant::now() + std::time::Duration::from_millis(FLUSH_BUDGET_MS)
            });
            let work_done = shared.jobs_outstanding.load(Ordering::SeqCst) == 0
                && lock(&shared.completions).is_empty();
            let flushed = conns
                .iter()
                .flatten()
                .all(|c| c.pending.is_empty() && !c.write_pending());
            if work_done && (flushed || Instant::now() >= deadline) {
                break;
            }
        }
    }

    for c in conns.iter().flatten() {
        let _ = c.stream.shutdown(Shutdown::Both);
        shared.metrics.conn_closed();
    }
}

fn accept_all(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(true);
                // Responses are single short lines; Nagle would add a
                // delayed-ACK round trip to every warm hit.
                let _ = stream.set_nodelay(true);
                let open = shared.metrics.conns_open.load(Ordering::Relaxed) as usize;
                if open >= shared.max_conns {
                    refuse_connection(shared, stream);
                    continue;
                }
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                shared.metrics.conn_opened();
                // 1-based, in accept order — the `conn` half of every
                // request id on this connection.
                *next_token += 1;
                let slot = free.pop().unwrap_or(conns.len());
                let conn = Conn::new(stream, *next_token, slot);
                if slot == conns.len() {
                    conns.push(Some(conn));
                } else {
                    conns[slot] = Some(conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Answers an over-limit connect with one structured error line and
/// closes it. No ordinal is spent; the refusal is visible in metrics and
/// the event log.
fn refuse_connection(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.conn_rejected();
    let err = SvcError::new(
        "too_many_connections",
        format!(
            "connection limit ({}) reached; retry later",
            shared.max_conns
        ),
    );
    shared.log.emit(Level::Warn, "conn_rejected", |o| {
        o.u64("max_conns", shared.max_conns as u64)
    });
    let mut line = render_err(0, None, None, &err);
    line.push('\n');
    // Best effort: the line is far smaller than a fresh socket's send
    // buffer, so a nonblocking write takes it whole.
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn read_conn(shared: &Arc<Shared>, c: &mut Conn, scratch: &mut [u8]) {
    for _ in 0..READ_ROUNDS {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.read_closed = true;
                break;
            }
            Ok(n) => {
                consume_bytes(shared, c, &scratch[..n]);
                if c.dead {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.read_closed {
        // The peer half-closed; a final unterminated line still counts.
        if c.discarding {
            c.discarding = false;
            c.read_buf.clear();
            reject_unframed(shared, c, too_large());
        } else if !c.read_buf.is_empty() {
            let bytes = std::mem::take(&mut c.read_buf);
            let text = String::from_utf8_lossy(&bytes).into_owned();
            handle_line(shared, c, text.trim());
        }
    }
}

fn too_large() -> SvcError {
    SvcError::new("too_large", "request line exceeds 1 MiB")
}

/// Splits freshly read bytes into lines, honoring discard mode and the
/// line-length bound.
fn consume_bytes(shared: &Arc<Shared>, c: &mut Conn, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        match bytes.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let (head, rest) = bytes.split_at(pos);
                bytes = &rest[1..];
                if c.discarding {
                    // Resynced: report the oversized line we skipped.
                    c.discarding = false;
                    c.read_buf.clear();
                    reject_unframed(shared, c, too_large());
                    continue;
                }
                if c.read_buf.len() + head.len() > MAX_LINE_BYTES {
                    c.read_buf.clear();
                    reject_unframed(shared, c, too_large());
                    continue;
                }
                let text = if c.read_buf.is_empty() {
                    String::from_utf8_lossy(head).into_owned()
                } else {
                    c.read_buf.extend_from_slice(head);
                    let buf = std::mem::take(&mut c.read_buf);
                    String::from_utf8_lossy(&buf).into_owned()
                };
                handle_line(shared, c, text.trim());
                if c.dead {
                    return;
                }
            }
            None => {
                if c.discarding {
                    return;
                }
                if c.read_buf.len() + bytes.len() > MAX_LINE_BYTES {
                    // Too big already; skip until the next newline and
                    // answer `too_large` then, keeping the stream framed.
                    c.read_buf.clear();
                    c.discarding = true;
                    return;
                }
                c.read_buf.extend_from_slice(bytes);
                return;
            }
        }
    }
}

/// Rejects a line that never parsed far enough to carry an id (oversized
/// or line-level garbage): consumes a ticket so ordering holds.
fn reject_unframed(shared: &Arc<Shared>, c: &mut Conn, err: SvcError) {
    let (rid, ticket) = c.admit();
    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    log_request_error(shared, rid, None, &err);
    c.complete(ticket, rid, render_err(0, Some(rid), None, &err));
}

fn handle_line(shared: &Arc<Shared>, c: &mut Conn, text: &str) {
    if text.is_empty() {
        return;
    }
    let (rid, ticket) = c.admit();
    let t0 = Instant::now();
    if c.outstanding > shared.pipeline_cap {
        shared.metrics.pipeline_rejected_request();
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let err = SvcError::new(
            "too_many_requests",
            format!(
                "connection has {} unanswered requests (pipeline cap {}); read responses before sending more",
                c.outstanding - 1,
                shared.pipeline_cap
            ),
        );
        log_request_error(shared, rid, None, &err);
        c.complete(ticket, rid, render_err(0, Some(rid), None, &err));
        return;
    }
    let req = match parse_request(text) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            log_request_error(shared, rid, e.verb, &e.error);
            c.complete(ticket, rid, render_err(e.id, Some(rid), e.verb, &e.error));
            return;
        }
    };
    shared.log.emit(Level::Debug, "request_start", |o| {
        o.str("req", &rid.token())
            .str("verb", req.verb.name())
            .u64("id", req.id)
    });
    match req.verb {
        Verb::Healthz => {
            let _flight = shared.metrics.flight(Verb::Healthz);
            let state = if shared.shutting.load(Ordering::SeqCst) {
                "draining"
            } else {
                "running"
            };
            let result = crate::json::Obj::new()
                .str("status", "ok")
                .str("role", "shard")
                .str("state", state)
                .str("version", env!("CARGO_PKG_VERSION"))
                .u64("uptime_s", shared.started.elapsed().as_secs())
                .u64("uptime_ms", shared.started.elapsed().as_millis() as u64)
                .u64("threads", shared.threads as u64)
                .u64("queue_cap", shared.queue_cap as u64)
                .u64("queue_depth", shared.queue.len() as u64)
                .u64("in_flight", shared.in_flight.load(Ordering::Relaxed) as u64)
                .bool("chaos_armed", shared.chaos.is_some())
                .u64(
                    "conns_open",
                    shared.metrics.conns_open.load(Ordering::Relaxed),
                )
                .u64("max_conns", shared.max_conns as u64)
                .u64("pipeline_cap", shared.pipeline_cap as u64)
                .finish();
            shared.metrics.observe(Verb::Healthz, t0.elapsed());
            log_control_finish(shared, rid, Verb::Healthz, t0);
            c.complete(
                ticket,
                rid,
                render_ok(req.id, Some(rid), Verb::Healthz, false, &result),
            );
        }
        Verb::Metrics => {
            let _flight = shared.metrics.flight(Verb::Metrics);
            let result = shared.metrics.render(
                shared.queue.len(),
                shared.cache.bytes(),
                shared.cache.entries(),
                shared.log.dropped(),
            );
            shared.metrics.observe(Verb::Metrics, t0.elapsed());
            log_control_finish(shared, rid, Verb::Metrics, t0);
            c.complete(
                ticket,
                rid,
                render_ok(req.id, Some(rid), Verb::Metrics, false, &result),
            );
        }
        Verb::Stats => {
            let _flight = shared.metrics.flight(Verb::Stats);
            let result = match req.payload {
                Payload::Stats { prometheus: true } => {
                    let body = shared.metrics.render_prometheus(
                        shared.queue.len(),
                        shared.cache.bytes(),
                        shared.cache.entries(),
                        shared.log.dropped(),
                    );
                    crate::json::Obj::new()
                        .str("format", "prometheus")
                        .str("body", &body)
                        .finish()
                }
                _ => shared.metrics.render_stats(),
            };
            shared.metrics.observe(Verb::Stats, t0.elapsed());
            log_control_finish(shared, rid, Verb::Stats, t0);
            c.complete(
                ticket,
                rid,
                render_ok(req.id, Some(rid), Verb::Stats, false, &result),
            );
        }
        Verb::Shutdown => {
            let _flight = shared.metrics.flight(Verb::Shutdown);
            begin_shutdown(shared);
            let result = crate::json::Obj::new()
                .str("state", "draining")
                .u64("queued", shared.queue.len() as u64)
                .u64("in_flight", shared.in_flight.load(Ordering::Relaxed) as u64)
                .finish();
            shared.metrics.observe(Verb::Shutdown, t0.elapsed());
            log_control_finish(shared, rid, Verb::Shutdown, t0);
            c.complete(
                ticket,
                rid,
                render_ok(req.id, Some(rid), Verb::Shutdown, false, &result),
            );
            // Keep reading: the client may pipeline further requests,
            // which now receive `shutting_down` errors.
        }
        Verb::CachePut => {
            let _flight = shared.metrics.flight(Verb::CachePut);
            let Payload::CachePut { key, value } = req.payload else {
                // parse_request only builds CachePut payloads for this verb.
                unreachable!("cache_put request with non-cache_put payload");
            };
            let result = match CacheKey::from_hex(&key) {
                Some(k) => {
                    shared.cache.put(k, value);
                    crate::json::Obj::new().bool("stored", true).finish()
                }
                None => crate::json::Obj::new().bool("stored", false).finish(),
            };
            shared.metrics.observe(Verb::CachePut, t0.elapsed());
            log_control_finish(shared, rid, Verb::CachePut, t0);
            c.complete(
                ticket,
                rid,
                render_ok(req.id, Some(rid), Verb::CachePut, false, &result),
            );
        }
        Verb::Compile | Verb::Simulate | Verb::Stream => match probe_resident(shared, &req) {
            Some(hit) => answer_cached(shared, c, &req, rid, ticket, t0, &hit),
            None => enqueue_work(shared, c, req, rid, ticket, t0),
        },
        Verb::Batch => enqueue_work(shared, c, req, rid, ticket, t0),
    }
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
    rid: RequestId,
    ticket: u64,
    t0: Instant,
    result: &str,
) {
    let _flight = shared.metrics.flight(req.verb);
    shared.metrics.cache_event(true);
    shared.metrics.observe(req.verb, t0.elapsed());
    shared.log.emit(Level::Info, "request_finish", |o| {
        o.str("req", &rid.token())
            .str("verb", req.verb.name())
            .str("outcome", "cached")
            .u64("total_us", t0.elapsed().as_micros() as u64)
    });
    c.complete(
        ticket,
        rid,
        render_ok(req.id, Some(rid), req.verb, true, result),
    );
}

fn enqueue_work(
    shared: &Arc<Shared>,
    c: &mut Conn,
    req: Request,
    rid: RequestId,
    ticket: u64,
    t0: Instant,
) {
    let id = req.id;
    let verb = req.verb;
    let kind = match req.payload {
        Payload::Batch(spec) => {
            if spec.items.is_empty() {
                // Nothing to compute; answer inline.
                shared.metrics.batch_observed(0, 0);
                shared.metrics.observe(Verb::Batch, t0.elapsed());
                log_control_finish(shared, rid, Verb::Batch, t0);
                let result = render_batch_result(0, 0, &[]);
                c.complete(
                    ticket,
                    rid,
                    render_ok(id, Some(rid), Verb::Batch, false, &result),
                );
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
        rid,
        slot: c.slot,
        token: c.token,
        ticket,
        accepted_at: t0,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => shared.metrics.queue_depth(depth),
        Err(PushError::Full) => {
            shared.jobs_outstanding.fetch_sub(1, Ordering::SeqCst);
            shared.metrics.rejected_request();
            let err = SvcError::with_entity(
                "queue_full",
                format!(
                    "request queue at capacity ({}); retry later",
                    shared.queue.capacity()
                ),
                verb.name(),
            );
            log_request_error(shared, rid, Some(verb), &err);
            c.complete(ticket, rid, render_err(id, Some(rid), Some(verb), &err));
        }
        Err(PushError::Closed) => {
            shared.jobs_outstanding.fetch_sub(1, Ordering::SeqCst);
            let err = SvcError::new(
                "shutting_down",
                "server is draining and accepts no new work",
            );
            log_request_error(shared, rid, Some(verb), &err);
            c.complete(ticket, rid, render_err(id, Some(rid), Some(verb), &err));
        }
    }
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

/// Releases parked responses in strict ticket order into the write
/// buffer, rolling the chaos write-drop site once per released line.
fn release_ready(shared: &Shared, c: &mut Conn) {
    while let Some(entry) = c.pending.remove(&c.next_release) {
        c.next_release += 1;
        c.outstanding -= 1;
        if let Some(chaos) = &shared.chaos {
            if chaos.drop_write() {
                // Tear the response — half the bytes, no newline — then
                // drop the socket hard, as a dying peer or failing NIC
                // would. The connection is lost; the daemon must not be.
                shared.metrics.chaos_fault();
                iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_drops", 1);
                shared.log.emit(Level::Warn, "chaos_drop", |o| {
                    o.str("req", &entry.rid.token())
                        .u64("bytes_torn", (entry.line.len() / 2) as u64)
                });
                c.write_buf
                    .extend_from_slice(&entry.line.as_bytes()[..entry.line.len() / 2]);
                flush_conn(c);
                let _ = c.stream.shutdown(Shutdown::Both);
                c.dead = true;
                return;
            }
        }
        c.write_buf.extend_from_slice(entry.line.as_bytes());
        c.write_buf.push(b'\n');
    }
}

/// Pushes buffered bytes without blocking; whatever the socket refuses
/// stays queued under `POLLOUT` interest.
fn flush_conn(c: &mut Conn) {
    while c.wpos < c.write_buf.len() {
        match c.stream.write(&c.write_buf[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.wpos == c.write_buf.len() {
        c.write_buf.clear();
        c.wpos = 0;
    } else if c.wpos > WRITE_COMPACT_BYTES {
        c.write_buf.drain(..c.wpos);
        c.wpos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Framing logic exercised directly on a `Conn` backed by a loopback
    /// socket nobody reads from the kernel side.
    fn test_conn() -> (Conn, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        (Conn::new(stream, 1, 0), listener)
    }

    fn test_shared() -> Arc<Shared> {
        crate::server::test_shared()
    }

    #[test]
    fn incremental_framing_reassembles_split_lines() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        consume_bytes(&shared, &mut c, b"{\"verb\":\"heal");
        assert_eq!(c.pending.len(), 0, "half a line is not a request");
        consume_bytes(&shared, &mut c, b"thz\"}\n{\"verb\":\"healthz\"}\n");
        assert_eq!(c.pending.len(), 2, "both lines parsed once completed");
        assert_eq!(c.seq, 2);
        // Released strictly in ticket order.
        release_ready(&shared, &mut c);
        let text = String::from_utf8_lossy(&c.write_buf).into_owned();
        assert_eq!(text.matches("\"req\":\"c1-1\"").count(), 1);
        assert_eq!(text.matches("\"req\":\"c1-2\"").count(), 1);
        assert!(
            text.find("c1-1").expect("first") < text.find("c1-2").expect("second"),
            "responses leave in request order"
        );
    }

    #[test]
    fn oversized_lines_discard_and_resync() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        // Feed > MAX_LINE_BYTES without a newline: discard mode.
        let big = vec![b'x'; MAX_LINE_BYTES + 10];
        consume_bytes(&shared, &mut c, &big);
        assert!(c.discarding);
        assert!(c.read_buf.is_empty(), "discarded bytes are not buffered");
        // Resync at the newline → one too_large error, then a clean parse.
        consume_bytes(&shared, &mut c, b"tail\n{\"verb\":\"healthz\"}\n");
        assert!(!c.discarding);
        assert_eq!(c.pending.len(), 2);
        release_ready(&shared, &mut c);
        let text = String::from_utf8_lossy(&c.write_buf).into_owned();
        assert!(text.contains("too_large"), "{text}");
        assert!(text.contains("\"result\""), "healthz after resync: {text}");
    }

    #[test]
    fn eof_flushes_an_unterminated_final_line() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        consume_bytes(&shared, &mut c, b"{\"verb\":\"healthz\"}");
        assert_eq!(c.pending.len(), 0);
        c.read_closed = true;
        // What read_conn does at EOF:
        let bytes = std::mem::take(&mut c.read_buf);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        handle_line(&shared, &mut c, text.trim());
        assert_eq!(c.pending.len(), 1, "final line processed at EOF");
    }

    #[test]
    fn pipeline_cap_rejects_excess_unanswered_requests() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        let cap = shared.pipeline_cap;
        for _ in 0..cap + 3 {
            consume_bytes(&shared, &mut c, b"{\"verb\":\"healthz\"}\n");
        }
        // Control verbs complete inline but stay parked until released,
        // so `outstanding` models exactly what a non-reading client owes.
        assert_eq!(c.pending.len(), cap + 3);
        let rejected = c
            .pending
            .values()
            .filter(|p| p.line.contains("too_many_requests"))
            .count();
        assert_eq!(rejected, 3, "requests past the cap answer with the limit");
        release_ready(&shared, &mut c);
        assert_eq!(c.outstanding, 0);
    }
}
