//! The cluster layer: one router, N shards, one wire protocol.
//!
//! [`Router`] accepts the same newline-delimited JSON protocol as
//! [`crate::server::Server`] and consistent-hashes every cacheable
//! request's [`CacheKey`] to one of N backend `iced-serviced` shards via
//! rendezvous (highest-random-weight) hashing from `iced_hash`. Design
//! points, in the order they matter:
//!
//! * **One connection core.** Client connections live in the same
//!   internal `conn` core as the shard's — framing, ticket ordering,
//!   buffered writes, admission — with the router as the line handler.
//!   Responses from different shards park under their ticket and release
//!   strictly in request order.
//! * **One pipelined upstream connection per shard.** Shards answer each
//!   connection strictly in request order, so the router needs no
//!   per-request correlation state upstream: a FIFO of in-flight
//!   `Forward` records per link is exact. Links frame and buffer with
//!   the core's line reader and write buffer.
//! * **Byte identity.** Envelopes are read by span with the JSON parser
//!   ([`Fields`]), never by substring. A forwarded response is passed
//!   through verbatim except for the shard's top-level `"req"` token,
//!   which is replaced by the router's own — the `cached` flag, result
//!   bytes, and error objects are exactly what a single daemon would have
//!   sent.
//! * **Batches split per shard.** Each slot's key is derived (same
//!   memoized derivation the shards use), slots group by owning shard
//!   into sub-batches whose raw item bytes are forwarded untouched, and
//!   the ordered response array is reassembled slot-by-slot. Invalid
//!   slots are answered locally with the shard-identical rendering.
//!   Identical keys route to the same shard, so envelope `unique` is the
//!   sum of per-shard uniques.
//! * **Hot-entry replication.** A key observed hot (≥K hits inside a
//!   sliding window) has its rendered result replicated to the key's
//!   rendezvous successor via the internal `cache_put` verb, so the ~160×
//!   warm-hit advantage survives the owner's death.
//! * **Failover.** A connect/read/write failure marks the shard down;
//!   its in-flight forwards replay to the surviving rendezvous owner
//!   (safe: results are content-addressed, requests idempotent), and
//!   rendezvous hashing guarantees only the dead shard's keys move.
//!   Down shards are re-probed at most every [`RECONNECT_MS`].

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iced::arch::CgraConfig;
use iced_hash::{rendezvous_owner, rendezvous_rank, shard_id};

use crate::cache::CacheKey;
use crate::conn::{
    serve, Completion, Conn, Frame, Handler, LineReader, ReplyTo, WriteBuf, READ_ROUNDS,
};
use crate::json::{self, Fields, Obj};
use crate::metrics::{block, counter, gauge, put_fields, write_families, Metrics, Scalar};
use crate::poll::{wake_pair, PollFd, Waker, POLLIN, POLLOUT};
use crate::proto::{
    parse_request, read_batch_result, render_batch_item_err, render_batch_result, render_err,
    render_ok, BatchSlot, Payload, Request, RequestId, SvcError, Verb,
};
use crate::server::{elem_key, request_key};
use crate::settings::{self, Role, SHARDS};

/// Minimum spacing between reconnect probes to a down shard.
const RECONNECT_MS: u64 = 2000;

/// Blocking connect budget per shard probe; the loop stalls at most this
/// long when a shard has just died.
const CONNECT_TIMEOUT_MS: u64 = 100;

/// Default per-link inflight ceiling: the shards enforce their own
/// per-connection pipeline cap (default 32), and a router link is one
/// connection — exceeding the shard's cap would turn excess forwards
/// into `too_many_requests` errors. Forwards beyond this ceiling queue
/// on the link and drain as responses come back.
pub(crate) const LINK_PIPELINE: usize = 32;

/// Sliding window for hot-hit counting.
const HOT_WINDOW: Duration = Duration::from_secs(60);

/// Hard bound on tracked keys; the table resets when exceeded (losing
/// counts is harmless — a genuinely hot key re-earns them immediately).
const HOT_TABLE_CAP: usize = 65_536;

/// Router configuration. The daemon reads it through [`crate::settings`]
/// (`iced-routerd --help`); `Default` is the daemon's defaults on an
/// ephemeral port, with no shard.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (port 0 picks an ephemeral port).
    pub addr: String,
    /// Backend shard addresses.
    pub shards: Vec<String>,
    /// Cached hits inside the window before a key's result is replicated
    /// to its successor shard (0 disables replication).
    pub replicate_hot: usize,
    /// Per-connection pipeline cap.
    pub pipeline: usize,
    /// Connection cap.
    pub max_conns: usize,
    /// Per-shard-link inflight ceiling, at most the shards' own pipeline
    /// cap or excess forwards bounce as `too_many_requests`.
    pub shard_pipeline: usize,
    /// CGRA configuration whose canonical hash keys the cache — must
    /// match the shards' or routed keys never hit.
    pub cgra: CgraConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ..settings::defaults(Role::Router, settings::router)
        }
    }
}

/// Why a forwarded line is in flight, in FIFO order per shard link.
enum Forward {
    /// A whole client request; the response passes through (req token
    /// rewritten). `line` is kept for failover replay.
    Single {
        to: ReplyTo,
        id: u64,
        verb: Verb,
        key: CacheKey,
        line: String,
    },
    /// One per-shard piece of a split batch.
    BatchPart {
        /// Key into the assembly table.
        assembly: u64,
        /// Index into the assembly's `parts`.
        part: usize,
    },
    /// Router-originated traffic (`cache_put` replication, forwarded
    /// shutdown); the response is consumed and dropped.
    Internal,
}

/// One sub-batch forwarded to a single shard.
struct AsmPart {
    /// The raw sub-batch request line (kept for failover replay).
    line: String,
    /// Original slot indexes this part's response array maps onto.
    slot_idxs: Vec<usize>,
    /// First slot's key — the routing key for failover replay.
    first_key: CacheKey,
}

/// A split batch being reassembled.
struct Assembly {
    to: ReplyTo,
    id: u64,
    /// Rendered per-slot items; invalid slots are prefilled locally.
    items: Vec<Option<String>>,
    unique_sum: usize,
    parts: Vec<AsmPart>,
    parts_outstanding: usize,
}

/// One pipelined upstream connection to a backend shard.
struct ShardLink {
    addr: String,
    id: u64,
    stream: Option<TcpStream>,
    up: bool,
    last_probe: Option<Instant>,
    reader: LineReader,
    out: WriteBuf,
    inflight: VecDeque<Forward>,
    /// Forwards accepted while the link was at [`LINK_PIPELINE`]; drained
    /// onto the wire in order as responses free slots.
    queued: VecDeque<(String, Forward)>,
    forwarded: u64,
}

impl ShardLink {
    fn new(addr: String) -> ShardLink {
        let id = shard_id(&addr);
        ShardLink {
            addr,
            id,
            stream: None,
            up: false,
            last_probe: None,
            reader: LineReader::default(),
            out: WriteBuf::default(),
            inflight: VecDeque::new(),
            queued: VecDeque::new(),
            forwarded: 0,
        }
    }

    /// Forwards on the wire or queued behind the pipeline ceiling.
    fn in_flight(&self) -> u64 {
        (self.inflight.len() + self.queued.len()) as u64
    }
}

/// The router's metrics registry: its own entries, then the connection
/// entries the shard keeps too. There, the accepted-connection count is
/// a top-level field; here `connections` names the block, so the count
/// is filed in it as `total`.
fn scalars(st: &Loop) -> Vec<Scalar<'_>> {
    let per_shard = |f: fn(&ShardLink) -> u64| -> Vec<(&str, u64)> {
        st.links.iter().map(|l| (l.addr.as_str(), f(l))).collect()
    };
    let sum = |samples: &[(&str, u64)]| samples.iter().map(|(_, v)| v).sum();
    let forwarded = per_shard(|l| l.forwarded);
    let up = per_shard(|l| u64::from(l.up));
    let in_flight = per_shard(ShardLink::in_flight);
    #[rustfmt::skip]
    let mut list = vec![
        st.metrics.uptime_scalar(),
        counter("forwarded", "Requests forwarded per shard.", sum(&forwarded)).by("shard", forwarded),
        counter("replicated", "Hot entries replicated to successor shards.", st.replicated),
        counter("failovers", "Shard deaths that triggered in-flight replay.", st.failovers)
            .named("failover"),
        gauge("hot_tracked", "Keys tracked for hot-entry replication.", st.hot.len() as u64),
        gauge("shards_up", "Per-shard liveness (1 = up).", sum(&up)).named("shard_up").by("shard", up),
        gauge("in_flight", "Forwards in flight or queued per shard.", sum(&in_flight))
            .by("shard", in_flight),
    ];
    list.extend(st.metrics.conn_scalars().map(|s| match s.key {
        "connections" => s.stat("total"),
        _ => s,
    }));
    list
}

/// Hot-hit tracking for one key.
struct HotEntry {
    hits: usize,
    window_start: Instant,
    /// Shard id holding the replica, if any.
    replicated_to: Option<u64>,
}

/// State shared between the router loop and the [`Router`] handle.
struct RouterShared {
    shutting: AtomicBool,
    waker: Waker,
}

/// A running cluster router.
pub struct Router {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the listen address and starts the routing loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a wake-pair setup failure, or an
    /// empty shard list (`InvalidInput`).
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("router needs at least one shard address ({})", SHARDS.env),
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = wake_pair()?;
        let shared = Arc::new(RouterShared {
            shutting: AtomicBool::new(false),
            waker,
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("iced-router".into())
            .spawn(move || router_loop(&loop_shared, cfg, listener, wake_rx))?;
        Ok(Router {
            shared,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins shutdown: stop accepting, forward `shutdown` to every live
    /// shard, drain in-flight responses, exit.
    pub fn shutdown(&self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Blocks until the routing loop has drained and exited.
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Everything the routing loop owns except the client connections, which
/// live in the connection core with this state as their handler.
/// Single-threaded: no locks anywhere past the shutdown flag.
struct Loop {
    shared: Arc<RouterShared>,
    cfg_hash: u64,
    replicate_hot: usize,
    link_pipeline: usize,
    links: Vec<ShardLink>,
    /// The link behind each pollfd [`Handler::poll_extra`] added.
    link_fds: Vec<usize>,
    shard_ids: Vec<u64>,
    assemblies: HashMap<u64, Assembly>,
    next_assembly: u64,
    hot: HashMap<CacheKey, HotEntry>,
    /// Connection, error and uptime accounting, kept as the shard keeps
    /// it; the router's own counters follow.
    metrics: Metrics,
    /// Hot entries replicated to a successor shard.
    replicated: u64,
    /// Shard deaths that replayed in-flight work.
    failovers: u64,
    /// The shared shutdown flag as of this loop iteration.
    shutting: bool,
    shutdown_sent: bool,
    /// Set by a wire `shutdown`; promoted to the shared flag at the loop
    /// top so wire- and API-initiated shutdowns share one path.
    shutdown_requested: bool,
    /// Responses finished away from their connection (shard responses,
    /// failover answers): the handler cannot reach the connection slab,
    /// so the loop delivers them, generation-checked, every iteration.
    completions: Vec<Completion>,
}

fn router_loop(
    shared: &Arc<RouterShared>,
    cfg: RouterConfig,
    listener: TcpListener,
    wake_rx: TcpStream,
) {
    let links: Vec<ShardLink> = cfg
        .shards
        .iter()
        .map(|a| ShardLink::new(a.clone()))
        .collect();
    let shard_ids: Vec<u64> = links.iter().map(|l| l.id).collect();
    let (max_conns, pipeline_cap) = (cfg.max_conns.max(1), cfg.pipeline.max(1));
    let mut st = Loop {
        shared: Arc::clone(shared),
        cfg_hash: cfg.cgra.canonical_hash(),
        replicate_hot: cfg.replicate_hot,
        link_pipeline: cfg.shard_pipeline.max(1),
        links,
        link_fds: Vec::new(),
        shard_ids,
        assemblies: HashMap::new(),
        next_assembly: 0,
        hot: HashMap::new(),
        metrics: Metrics::new(),
        replicated: 0,
        failovers: 0,
        shutting: false,
        shutdown_sent: false,
        shutdown_requested: false,
        completions: Vec::new(),
    };
    st.metrics.set_limits(pipeline_cap, max_conns);
    serve(listener, wake_rx, max_conns, pipeline_cap, &mut st);
    for l in &st.links {
        if let Some(s) = &l.stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The router's side of the connection core: it answers control verbs
/// itself and forwards everything else.
impl Handler for Loop {
    fn line(&mut self, c: &mut Conn, to: ReplyTo, line: &str) {
        handle_client_line(self, c, to, line);
    }

    fn rejected(&mut self, _rid: RequestId, err: &SvcError) {
        self.metrics.line_rejected(err);
    }

    fn opened(&mut self) {
        self.metrics.conn_opened();
    }

    fn closed(&mut self) {
        self.metrics.conn_closed();
    }

    fn refused(&mut self) {
        self.metrics.conn_rejected();
    }

    fn draining(&mut self) -> bool {
        if self.shutdown_requested {
            self.shared.shutting.store(true, Ordering::SeqCst);
        }
        self.shutting = self.shared.shutting.load(Ordering::SeqCst);
        if self.shutting && !self.shutdown_sent {
            self.shutdown_sent = true;
            forward_shutdown_to_shards(self);
        }
        self.shutting
    }

    fn poll_extra(&mut self, fds: &mut Vec<PollFd>) {
        self.link_fds.clear();
        for (i, l) in self.links.iter().enumerate() {
            let Some(s) = &l.stream else { continue };
            let mut interest = POLLIN;
            if l.out.pending() {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(s.as_raw_fd(), interest));
            self.link_fds.push(i);
        }
    }

    fn ready_extra(&mut self, fds: &[PollFd], scratch: &mut [u8]) {
        for (k, pfd) in fds.iter().enumerate() {
            let idx = self.link_fds[k];
            if pfd.writable() {
                flush_link(self, idx);
            }
            if pfd.readable() {
                read_link(self, idx, scratch);
            }
        }
        // One flush per link per iteration: forwards accumulated across
        // every client line read this iteration go out in a single write,
        // so a deep pipeline costs one syscall per chunk, not one per
        // request.
        for i in 0..self.links.len() {
            if self.links[i].out.pending() {
                flush_link(self, i);
            }
        }
    }

    fn completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Upstream work left on a dead link is abandoned, and everything is
    /// cut off at the deadline.
    fn drained(&self, flushed: bool, expired: bool) -> bool {
        let upstream_done = self
            .links
            .iter()
            .all(|l| (l.inflight.is_empty() && l.queued.is_empty()) || !l.up);
        (upstream_done && flushed) || expired
    }
}

fn handle_client_line(st: &mut Loop, c: &mut Conn, to: ReplyTo, text: &str) {
    let rid = to.rid;
    let req = match parse_request(text) {
        Ok(r) => r,
        Err(e) => {
            st.metrics.error();
            c.complete(to, render_err(e.id, Some(rid), e.verb, &e.error));
            return;
        }
    };
    let control = |result: String| render_ok(req.id, Some(rid), req.verb, false, &result);
    match req.verb {
        Verb::Healthz => {
            let up = st.links.iter().filter(|l| l.up).count();
            let result = st.metrics.render_healthz("router", st.shutting, |o| {
                o.u64("shards", st.links.len() as u64)
                    .u64("shards_up", up as u64)
            });
            c.complete(to, control(result));
        }
        Verb::Metrics | Verb::Stats => {
            let list = scalars(st);
            let result = if matches!(req.payload, Payload::Stats { prometheus: true }) {
                let mut body = String::with_capacity(2048);
                write_families(&mut body, "iced_router_", &list);
                Obj::new()
                    .str("format", "prometheus")
                    .str("body", &body)
                    .finish()
            } else {
                // The router's own middle field: one row per shard link.
                let rows: Vec<String> = st
                    .links
                    .iter()
                    .map(|l| {
                        Obj::new()
                            .str("addr", &l.addr)
                            .bool("up", l.up)
                            .u64("forwarded", l.forwarded)
                            .u64("in_flight", l.in_flight())
                            .finish()
                    })
                    .collect();
                let top = list.iter().filter(|s| s.stat.is_none());
                put_fields(Obj::new().str("role", "router"), top)
                    .raw("connections", &block(&list).finish())
                    .raw("shards", &format!("[{}]", rows.join(",")))
                    .finish()
            };
            c.complete(to, control(result));
        }
        Verb::Shutdown => {
            // The cluster drains as one unit: the router forwards the
            // shutdown to every live shard (at the loop top, when the
            // requested flag is promoted) and answers the client now.
            let in_flight: u64 = st.links.iter().map(ShardLink::in_flight).sum();
            let result = Obj::new()
                .str("state", "draining")
                .u64("queued", 0)
                .u64("in_flight", in_flight)
                .finish();
            c.complete(to, control(result));
            st.shutdown_requested = true;
        }
        _ if st.shutting || st.shutdown_requested => {
            st.metrics.error();
            let err = SvcError::new(
                "shutting_down",
                "server is draining and accepts no new work",
            );
            c.complete(to, render_err(req.id, Some(rid), Some(req.verb), &err));
        }
        Verb::Batch => {
            let Payload::Batch(spec) = req.payload else {
                unreachable!("batch request with non-batch payload");
            };
            route_batch(st, c, text, req.id, spec.items, to);
        }
        Verb::Compile | Verb::Simulate | Verb::Stream | Verb::CachePut => {
            let key = match &req.payload {
                Payload::CachePut { key, .. } => *key,
                _ => request_key(st.cfg_hash, &req).expect("work verbs always derive a key"),
            };
            route_single(st, c, text, &req, key, to);
        }
    }
}

/// Picks the live shard owning `key`: the best-ranked rendezvous shard
/// that is up (probing down shards at most every [`RECONNECT_MS`]).
fn pick_shard(st: &mut Loop, key: CacheKey) -> Option<usize> {
    // Fast path: the owner without the rank vector's allocation and
    // sort; only when the owner is down does the full ranking matter.
    let best = rendezvous_owner(key.0, key.1, &st.shard_ids)?;
    if st.links[best].up || try_connect(&mut st.links[best]) {
        return Some(best);
    }
    rendezvous_rank(key.0, key.1, &st.shard_ids)
        .into_iter()
        .find(|&idx| idx != best && (st.links[idx].up || try_connect(&mut st.links[idx])))
}

/// Attempts a (throttled) reconnect to a down shard. Returns whether the
/// link is usable.
fn try_connect(link: &mut ShardLink) -> bool {
    if link.up {
        return true;
    }
    if let Some(t) = link.last_probe {
        if t.elapsed() < Duration::from_millis(RECONNECT_MS) {
            return false;
        }
    }
    link.last_probe = Some(Instant::now());
    let Some(addr) = link.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return false;
    };
    match TcpStream::connect_timeout(&addr, Duration::from_millis(CONNECT_TIMEOUT_MS)) {
        Ok(s) => {
            let _ = s.set_nonblocking(true);
            let _ = s.set_nodelay(true);
            link.stream = Some(s);
            link.up = true;
            link.reader = LineReader::default();
            link.out = WriteBuf::default();
            true
        }
        Err(_) => false,
    }
}

/// Forwards one already-rendered line to shard `idx` and records what is
/// in flight.
fn forward_to(st: &mut Loop, idx: usize, line: &str, fwd: Forward) {
    let link = &mut st.links[idx];
    link.forwarded += 1;
    if link.inflight.len() >= st.link_pipeline {
        // At the shard's pipeline ceiling: hold the forward back rather
        // than have the shard reject it with `too_many_requests`.
        link.queued.push_back((line.to_string(), fwd));
        return;
    }
    link.out.push_line(line);
    link.inflight.push_back(fwd);
    // No flush here: the loop flushes every link with pending bytes once
    // per iteration, batching pipelined forwards into one write.
}

/// Moves queued forwards onto the wire while the link has free pipeline
/// slots. Called after responses drain inflight entries; the loop's
/// per-iteration flush pushes the bytes out.
fn pump_link_queue(st: &mut Loop, idx: usize) {
    let cap = st.link_pipeline;
    let link = &mut st.links[idx];
    if !link.up {
        return;
    }
    while link.inflight.len() < cap {
        let Some((line, fwd)) = link.queued.pop_front() else {
            break;
        };
        link.out.push_line(&line);
        link.inflight.push_back(fwd);
    }
}

fn route_single(
    st: &mut Loop,
    c: &mut Conn,
    text: &str,
    req: &Request,
    key: CacheKey,
    to: ReplyTo,
) {
    let Some(idx) = pick_shard(st, key) else {
        st.metrics.error();
        let line = render_err(req.id, Some(to.rid), Some(req.verb), &no_shards());
        c.complete(to, line);
        return;
    };
    forward_to(
        st,
        idx,
        text,
        Forward::Single {
            to,
            id: req.id,
            verb: req.verb,
            key,
            line: text.to_string(),
        },
    );
}

fn no_shards() -> SvcError {
    SvcError::new(
        "no_shards",
        format!(
            "no backend shard is reachable; check {} and shard health",
            SHARDS.env
        ),
    )
}

fn route_batch(
    st: &mut Loop,
    c: &mut Conn,
    text: &str,
    id: u64,
    slots: Vec<BatchSlot>,
    to: ReplyTo,
) {
    let rid = to.rid;
    // The same parser and duplicate-key rule as `parse_request`, so the
    // raw items are exactly the ones the slots were parsed from.
    let raw = Fields::read(text)
        .and_then(|f| json::elements(f.get("items")?))
        .unwrap_or_default();
    if raw.len() != slots.len() {
        // Cannot happen for JSON that just parsed; answer structurally
        // rather than panic on a hostile line.
        st.metrics.error();
        let err = SvcError::new("internal", "batch item framing mismatch");
        c.complete(to, render_err(id, Some(rid), Some(Verb::Batch), &err));
        return;
    }
    let mut items: Vec<Option<String>> = vec![None; slots.len()];
    // Per shard: the slots it owns in slot order (it answers its
    // sub-batch in that order), their raw items, and the first slot's key.
    let mut groups: Vec<(Vec<usize>, Vec<&str>, Option<CacheKey>)> =
        vec![Default::default(); st.links.len()];
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            BatchSlot::Invalid { verb, error } => {
                items[i] = Some(render_batch_item_err(*verb, error));
            }
            BatchSlot::Elem(elem) => {
                let key = elem_key(st.cfg_hash, elem);
                let Some(idx) = pick_shard(st, key) else {
                    st.metrics.error();
                    let line = render_err(id, Some(rid), Some(Verb::Batch), &no_shards());
                    c.complete(to, line);
                    return;
                };
                let group = &mut groups[idx];
                group.0.push(i);
                group.1.push(raw[i]);
                group.2.get_or_insert(key);
            }
        }
    }
    // `forward_to` only queues, so parts may go out before the assembly
    // they belong to is recorded.
    let assembly = st.next_assembly;
    let mut parts = Vec::new();
    for (idx, (slot_idxs, raws, first_key)) in groups.into_iter().enumerate() {
        let Some(first_key) = first_key else { continue };
        let line = format!(
            "{{\"id\":{id},\"verb\":\"batch\",\"items\":[{}]}}",
            raws.join(",")
        );
        let part = parts.len();
        forward_to(st, idx, &line, Forward::BatchPart { assembly, part });
        parts.push(AsmPart {
            line,
            slot_idxs,
            first_key,
        });
    }
    if parts.is_empty() {
        // Every slot was invalid: answer locally, exactly as a shard
        // would (count = slots, nothing unique).
        let rendered: Vec<String> = items.into_iter().map(Option::unwrap).collect();
        let result = render_batch_result(rendered.len(), 0, &rendered);
        c.complete(to, render_ok(id, Some(rid), Verb::Batch, false, &result));
        return;
    }
    st.next_assembly += 1;
    let asm = Assembly {
        to,
        id,
        items,
        unique_sum: 0,
        parts_outstanding: parts.len(),
        parts,
    };
    st.assemblies.insert(assembly, asm);
}

/// Forwards `shutdown` once to every live shard so the cluster drains as
/// one unit.
fn forward_shutdown_to_shards(st: &mut Loop) {
    for idx in 0..st.links.len() {
        if st.links[idx].up || try_connect(&mut st.links[idx]) {
            forward_to(st, idx, "{\"verb\":\"shutdown\"}", Forward::Internal);
        }
    }
}

fn flush_link(st: &mut Loop, idx: usize) {
    let link = &mut st.links[idx];
    let Some(stream) = &link.stream else {
        return;
    };
    if !link.out.flush(stream) {
        shard_died(st, idx);
    }
}

fn read_link(st: &mut Loop, idx: usize, scratch: &mut [u8]) {
    for _ in 0..READ_ROUNDS {
        let Some(stream) = st.links[idx].stream.as_mut() else {
            return;
        };
        match stream.read(scratch) {
            Ok(n) if n > 0 => drain_link_lines(st, idx, &scratch[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // EOF or a read error: the shard is gone.
            _ => return shard_died(st, idx),
        }
    }
}

/// Frames freshly read link bytes into response lines and matches each
/// to the front of the in-flight FIFO.
fn drain_link_lines(st: &mut Loop, idx: usize, bytes: &[u8]) {
    // The reader is taken out of the link so each line can be handled as
    // a borrowed slice. Handlers never touch this link's reader (a
    // response only completes client state or forwards to *other* links),
    // so the take is safe. Responses are unbounded: a large batch answer
    // may exceed the request line bound.
    let mut reader = std::mem::take(&mut st.links[idx].reader);
    let mut poisoned = false;
    reader.feed(bytes, usize::MAX, |frame| {
        let next = match frame {
            Frame::Line(line) => st.links[idx].inflight.pop_front().map(|f| (f, line)),
            Frame::TooLarge => None,
        };
        let Some((fwd, line)) = next else {
            // An unsolicited line is a protocol violation; treat the
            // link as poisoned. The taken bytes are dropped with it.
            shard_died(st, idx);
            poisoned = true;
            return false;
        };
        handle_shard_response(st, idx, fwd, line);
        true
    });
    if !poisoned {
        st.links[idx].reader = reader;
        pump_link_queue(st, idx);
    }
}

fn handle_shard_response(st: &mut Loop, idx: usize, fwd: Forward, line: &str) {
    match fwd {
        Forward::Internal => {}
        Forward::Single { to, key, .. } => {
            let env = Fields::read(line);
            // Only an answer the shard served from its cache counts: the
            // shard alone decides what may be kept.
            if let Some(env) = env
                .as_ref()
                .filter(|e| e.is_true("ok") && e.is_true("cached"))
            {
                if let Some(result) = env.get("result") {
                    note_hot_hit(st, idx, key, result);
                }
            }
            let line = rewrite_req_token(line, env.and_then(|e| e.span("req")), to.rid);
            st.completions.push(Completion { to, line });
        }
        Forward::BatchPart { assembly, part } => {
            let Some(asm) = st.assemblies.get_mut(&assembly) else {
                // Assembly already answered (a sibling part hit a
                // shard-level error); drop the straggler.
                return;
            };
            let env = Fields::read(line);
            let Some(env) = env.as_ref().filter(|e| e.is_true("ok")) else {
                // Shard-level failure (queue_full/shutting_down/internal):
                // the whole batch answers with it, preserving the
                // client's whole-batch retry contract.
                fail_assembly(st, assembly, shard_error(env.as_ref()));
                return;
            };
            let answer = env.get("result").and_then(read_batch_result);
            let Some((part_unique, part_items)) =
                answer.filter(|(_, items)| items.len() == asm.parts[part].slot_idxs.len())
            else {
                let err = SvcError::new("internal", "shard answered a mis-sized batch part");
                fail_assembly(st, assembly, err);
                return;
            };
            for (&slot_idx, item) in asm.parts[part].slot_idxs.iter().zip(part_items) {
                asm.items[slot_idx] = Some(item.to_string());
            }
            asm.unique_sum += part_unique as usize;
            asm.parts_outstanding -= 1;
            if asm.parts_outstanding == 0 {
                let asm = st.assemblies.remove(&assembly).expect("checked above");
                let rendered: Vec<String> = asm
                    .items
                    .into_iter()
                    .map(|i| i.expect("every slot answered"))
                    .collect();
                let result = render_batch_result(rendered.len(), asm.unique_sum, &rendered);
                let line = render_ok(asm.id, Some(asm.to.rid), Verb::Batch, false, &result);
                st.completions.push(Completion { to: asm.to, line });
            }
        }
    }
}

/// Answers a split batch with one error and forgets it; parts still in
/// flight are dropped as stragglers.
fn fail_assembly(st: &mut Loop, assembly: u64, err: SvcError) {
    let asm = st.assemblies.remove(&assembly).expect("assembly is live");
    st.metrics.error();
    let line = render_err(asm.id, Some(asm.to.rid), Some(Verb::Batch), &err);
    st.completions.push(Completion { to: asm.to, line });
}

/// Counts a warm-able hit and replicates the rendered `result` object to
/// the key's successor shard once the threshold is crossed.
fn note_hot_hit(st: &mut Loop, owner_idx: usize, key: CacheKey, result: &str) {
    if st.replicate_hot == 0 || st.shutting {
        return;
    }
    if st.hot.len() >= HOT_TABLE_CAP {
        st.hot.clear();
    }
    let now = Instant::now();
    let entry = st.hot.entry(key).or_insert(HotEntry {
        hits: 0,
        window_start: now,
        replicated_to: None,
    });
    if now.duration_since(entry.window_start) > HOT_WINDOW {
        entry.hits = 0;
        entry.window_start = now;
    }
    entry.hits += 1;
    if entry.hits < st.replicate_hot || entry.replicated_to.is_some() {
        return;
    }
    // Successor: the best-ranked live shard other than the one that just
    // answered.
    let owner_id = st.shard_ids[owner_idx];
    let rank = rendezvous_rank(key.0, key.1, &st.shard_ids);
    let succ = rank.into_iter().find(|&i| {
        st.shard_ids[i] != owner_id && (st.links[i].up || try_connect(&mut st.links[i]))
    });
    let Some(succ) = succ else {
        return;
    };
    let put = Obj::new()
        .u64("id", 0)
        .str("verb", "cache_put")
        .str("key", &key.hex())
        .str("value", result)
        .finish();
    st.hot
        .get_mut(&key)
        .expect("entry just inserted")
        .replicated_to = Some(st.shard_ids[succ]);
    st.replicated += 1;
    forward_to(st, succ, &put, Forward::Internal);
}

/// Handles a shard death: marks the link down, replays its in-flight
/// client work onto survivors, and drops its internal traffic.
fn shard_died(st: &mut Loop, idx: usize) {
    let link = &mut st.links[idx];
    if let Some(s) = link.stream.take() {
        let _ = s.shutdown(Shutdown::Both);
    }
    let was_up = link.up;
    link.up = false;
    link.reader = LineReader::default();
    link.out = WriteBuf::default();
    link.last_probe = Some(Instant::now());
    let mut orphans: Vec<Forward> = link.inflight.drain(..).collect();
    orphans.extend(link.queued.drain(..).map(|(_, f)| f));
    let dead_id = link.id;
    if !was_up {
        return;
    }
    // Replicas held by the dead shard are gone; allow re-replication.
    for entry in st.hot.values_mut() {
        if entry.replicated_to == Some(dead_id) {
            entry.replicated_to = None;
        }
    }
    if st.shutting {
        // Shards closing their sockets during a cluster drain is the
        // expected end of life, not a failover.
        return;
    }
    if !orphans.is_empty() {
        st.failovers += 1;
    }
    for fwd in orphans {
        match fwd {
            Forward::Internal => {}
            Forward::Single {
                to,
                id,
                verb,
                key,
                line,
            } => {
                // Replay on the surviving owner: requests are idempotent
                // and content-addressed, so a duplicate execution is
                // merely a cache-warming no-op.
                match pick_shard(st, key) {
                    Some(new_idx) => forward_to(
                        st,
                        new_idx,
                        &line.clone(),
                        Forward::Single {
                            to,
                            id,
                            verb,
                            key,
                            line,
                        },
                    ),
                    None => {
                        st.metrics.error();
                        let line = render_err(id, Some(to.rid), Some(verb), &no_shards());
                        st.completions.push(Completion { to, line });
                    }
                }
            }
            Forward::BatchPart { assembly, part } => {
                let Some(asm) = st.assemblies.get(&assembly) else {
                    continue;
                };
                let replay_key = asm.parts[part].first_key;
                let line = asm.parts[part].line.clone();
                match pick_shard(st, replay_key) {
                    Some(new_idx) => {
                        forward_to(st, new_idx, &line, Forward::BatchPart { assembly, part })
                    }
                    None => fail_assembly(st, assembly, no_shards()),
                }
            }
        }
    }
}

/// Replaces the shard's top-level `"req"` token (the value at `span`)
/// with the router's own. Everything else — including the `cached` flag
/// and result bytes — is passed through verbatim, which is what makes
/// router responses byte-identical to single-daemon responses after
/// `req` normalization.
fn rewrite_req_token(line: &str, span: Option<std::ops::Range<usize>>, rid: RequestId) -> String {
    let Some(span) = span else {
        return line.to_string();
    };
    let token = rid.token();
    let mut out = String::with_capacity(line.len() + token.len());
    out.push_str(&line[..span.start]);
    out.push('"');
    out.push_str(&token);
    out.push('"');
    out.push_str(&line[span.end..]);
    out
}

/// Recovers a structured error from a shard's error envelope (best
/// effort: unknown shapes degrade to `internal`).
fn shard_error(env: Option<&Fields<'_>>) -> SvcError {
    let error = env.and_then(|e| Fields::read(e.get("error")?));
    let text = |key| Some(error.as_ref()?.value(key)?.as_str()?.to_string());
    let code: &'static str = match text("code").as_deref() {
        Some("queue_full") => "queue_full",
        Some("shutting_down") => "shutting_down",
        _ => "internal",
    };
    SvcError::new(
        code,
        text("message").unwrap_or_else(|| "shard error".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_token_rewriting_touches_only_the_envelope_token() {
        let rid = RequestId { conn: 9, seq: 4 };
        let line = r#"{"id":5,"req":"c3-7","ok":true,"verb":"compile","cached":true,"result":{"note":"req stays \"c3-7\" in payload","req":"c3-7"}}"#;
        let span = Fields::read(line).and_then(|f| f.span("req"));
        assert_eq!(
            rewrite_req_token(line, span, rid),
            r#"{"id":5,"req":"c9-4","ok":true,"verb":"compile","cached":true,"result":{"note":"req stays \"c3-7\" in payload","req":"c3-7"}}"#
        );
        // No req field: passthrough.
        let plain = r#"{"id":5,"ok":true}"#;
        let span = Fields::read(plain).and_then(|f| f.span("req"));
        assert_eq!(rewrite_req_token(plain, span, rid), plain);
    }

    #[test]
    fn shard_error_recovery_preserves_the_retry_contract() {
        let read = |line| shard_error(Fields::read(line).as_ref());
        let e = read(
            r#"{"id":1,"ok":false,"verb":"batch","error":{"code":"queue_full","message":"request queue at capacity (64); retry later","entity":"batch"}}"#,
        );
        assert_eq!(e.code, "queue_full");
        assert_eq!(e.message, "request queue at capacity (64); retry later");
        let e = read(r#"{"id":1,"ok":false,"error":{"code":"shutting_down","message":"x"}}"#);
        assert_eq!(e.code, "shutting_down");
        // A code that only appears inside the message is not the code.
        let e = read(
            r#"{"ok":false,"error":{"code":"bad_request","message":"\"code\":\"queue_full\""}}"#,
        );
        assert_eq!(e.code, "internal");
        assert_eq!(e.message, r#""code":"queue_full""#);
        let e = read("garbage");
        assert_eq!(e.code, "internal");
    }

    #[test]
    fn router_refuses_an_empty_shard_list() {
        match Router::start(RouterConfig {
            shards: Vec::new(),
            ..RouterConfig::default()
        }) {
            Ok(_) => panic!("router started with no shards"),
            Err(err) => assert_eq!(err.kind(), ErrorKind::InvalidInput),
        }
    }
}
