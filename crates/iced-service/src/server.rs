//! The daemon: a single-threaded readiness reactor that owns every
//! connection, a bounded request queue, a fixed worker pool, a
//! content-addressed cache, and graceful shutdown.
//!
//! ## Threading model
//!
//! * One **reactor** thread (the internal `reactor` module) multiplexes the
//!   listener and all client sockets over nonblocking `poll(2)`: it
//!   accepts, frames newline-delimited JSON incrementally, answers
//!   control verbs (`healthz`, `metrics`, `stats`, `shutdown`) inline so
//!   they stay responsive even when the work queue is saturated, answers
//!   warm hits from the in-memory cache when the key is cheap to derive,
//!   pushes the remaining work onto the bounded queue (a full queue
//!   yields an immediate typed `queue_full` response, never an unbounded
//!   buffer), and writes responses back in strict per-connection request
//!   order with interest-driven writability — partial writes are
//!   buffered, never blocked on.
//! * A pool of **workers** drain the queue, derive keys that
//!   need a WL hash, consult the cache (spill directory included),
//!   compute on miss, render the full response envelope, and hand it back
//!   to the reactor through a completion list plus a wake token.
//!
//! ## Batching
//!
//! The `batch` verb carries many compile/simulate slots in one envelope.
//! The reactor derives every slot's [`CacheKey`] *before* enqueueing and
//! dedupes inside the batch: identical specs are computed once and the
//! rendered bytes fan out to every slot (and into the cache). A bad slot
//! is answered in place with a structured error; its siblings still run.
//!
//! ## Shutdown
//!
//! `shutdown` (or [`Server::shutdown`]) flips a flag, closes the queue,
//! and wakes the reactor. The listener is dropped immediately; workers
//! drain everything already accepted; the reactor keeps routing and
//! flushing those responses and exits once nothing is outstanding (with
//! a bounded grace period for unflushable sockets); the cache is spilled;
//! only then are client sockets closed. A request the server accepted is
//! therefore always answered.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iced::arch::CgraConfig;
use iced::dfg::Dfg;
use iced::kernels::pipelines::Pipeline;
use iced::kernels::workloads;
use iced::mapper::{map_with, Bitstream, MapError, Mapping};
use iced::power::PowerModel;
use iced::sim::{run_engine, EnergyBreakdown, FabricStats};
use iced::streaming::{simulate, Partition};

use iced_hash::StableHasher;

use crate::cache::{CacheKey, ResultCache};
use crate::chaos::ChaosInjector;
use crate::conn::{Completion, ReplyTo};
use crate::log::{EventLog, Level};
use crate::memo::Memo;
use crate::metrics::{Metrics, Scalar};
use crate::poll::Waker;
use crate::proto::{
    policy_name, render_batch_item_err, render_batch_item_ok, render_batch_result, render_err,
    render_ok, Backend, BatchElem, CompileSpec, Payload, Request, RequestId, SimulateSpec,
    StreamSpec, SvcError, Verb,
};
use crate::queue::BoundedQueue;
use crate::settings::{self, Role};

/// Server configuration. The daemon reads it through [`crate::settings`]
/// (`iced-serviced --help` lists each setting with its default and
/// bound); `Default` is the daemon's defaults on an ephemeral port with
/// two workers.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker pool size.
    pub threads: usize,
    /// Request queue capacity; a full queue answers `queue_full`.
    pub queue_cap: usize,
    /// In-memory cache budget in bytes.
    pub cache_bytes: u64,
    /// Optional disk-spill directory.
    pub cache_dir: Option<PathBuf>,
    /// Chaos-injection seed (see [`crate::chaos`]); `None` disables chaos.
    pub chaos: Option<u64>,
    /// JSONL event-log path; `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// Minimum event severity written.
    pub log_level: Level,
    /// Max unanswered requests per connection (`too_many_requests` past it).
    pub pipeline: usize,
    /// Max open connections (`too_many_connections` past it).
    pub max_conns: usize,
    /// Target CGRA configuration.
    pub cgra: CgraConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..settings::defaults(Role::Shard, settings::shard)
        }
    }
}

/// How one batch slot resolves: an index into the batch's unique work
/// list, or a structured per-slot parse error.
pub(crate) enum SlotPlan {
    /// Serve this slot from unique element `i`'s rendered bytes.
    Unique(usize),
    /// Answer this slot with the error, computed nothing.
    Invalid(Option<Verb>, SvcError),
}

/// What a queued job computes.
pub(crate) enum JobKind {
    /// One compile/simulate/stream request.
    Single(Request),
    /// A batch: per-slot plans plus the deduped unique work list the
    /// reactor derived before enqueueing.
    Batch {
        id: u64,
        slots: Vec<SlotPlan>,
        unique: Vec<(CacheKey, BatchElem)>,
    },
}

/// One queued unit of work plus the routing needed to answer it: the
/// connection slot, its generation token, and the response-order ticket.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    /// Where the response goes.
    pub(crate) to: ReplyTo,
    pub(crate) accepted_at: Instant,
}

impl Job {
    fn verb(&self) -> Verb {
        match &self.kind {
            JobKind::Single(req) => req.verb,
            JobKind::Batch { .. } => Verb::Batch,
        }
    }

    fn id(&self) -> u64 {
        match &self.kind {
            JobKind::Single(req) => req.id,
            JobKind::Batch { id, .. } => *id,
        }
    }
}

/// Mappings a shard's mapping memo keeps; the oldest insertion is
/// evicted first.
const MAPPING_MEMO_CAP: usize = 64;

/// Compile key → the DFG and mapping `simulate` runs.
type MappingMemo = Memo<CacheKey, Arc<(Dfg, Mapping)>>;

/// State shared by the reactor and the workers.
pub(crate) struct Shared {
    pub(crate) config: CgraConfig,
    /// `config.canonical_hash()`, computed once: every cache key folds it.
    pub(crate) config_hash: u64,
    pub(crate) model: PowerModel,
    pub(crate) cache: ResultCache,
    /// Successful mappings `simulate` reuses across seeds and iteration
    /// counts (see [`memoized_mapping`]).
    mappings: Mutex<MappingMemo>,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) metrics: Metrics,
    pub(crate) chaos: Option<ChaosInjector>,
    pub(crate) log: EventLog,
    pub(crate) shutting: AtomicBool,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) threads: usize,
    pub(crate) queue_cap: usize,
    pub(crate) pipeline_cap: usize,
    pub(crate) max_conns: usize,
    /// Jobs accepted onto the queue whose responses the reactor has not
    /// yet routed; the drain condition.
    pub(crate) jobs_outstanding: AtomicUsize,
    /// Finished responses awaiting reactor pickup.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Pops the reactor out of its poll wait when completions arrive or
    /// shutdown begins.
    pub(crate) waker: Waker,
}

impl Shared {
    /// Hands a finished response to the reactor and wakes it.
    pub(crate) fn push_completion(&self, done: Completion) {
        lock(&self.completions).push(done);
        self.waker.wake();
    }
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: reactor + worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (or a wake-pair setup failure).
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = crate::poll::wake_pair()?;
        let (threads, pipeline_cap) = (cfg.threads.max(1), cfg.pipeline.max(1));
        let max_conns = cfg.max_conns.max(1);
        let log = match &cfg.log_path {
            Some(p) => EventLog::to_path(p, cfg.log_level)?,
            None => EventLog::disabled(),
        };
        log.emit(Level::Info, "server_start", |o| {
            o.str("addr", &addr.to_string())
                .str("version", env!("CARGO_PKG_VERSION"))
                .u64("threads", threads as u64)
                .u64("queue_cap", cfg.queue_cap as u64)
                .u64("cache_bytes", cfg.cache_bytes)
                .u64("pipeline_cap", pipeline_cap as u64)
                .u64("max_conns", max_conns as u64)
                .bool("chaos_armed", cfg.chaos.is_some())
        });
        let shared = Arc::new(Shared {
            config_hash: cfg.cgra.canonical_hash(),
            config: cfg.cgra,
            model: PowerModel::asap7(),
            cache: ResultCache::new(cfg.cache_bytes, cfg.cache_dir),
            mappings: Mutex::new(MappingMemo::new(MAPPING_MEMO_CAP)),
            queue: BoundedQueue::new(cfg.queue_cap),
            metrics: Metrics::new(),
            chaos: cfg.chaos.map(ChaosInjector::new),
            log,
            shutting: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            threads,
            queue_cap: cfg.queue_cap,
            pipeline_cap,
            max_conns,
            jobs_outstanding: AtomicUsize::new(0),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        shared.metrics.set(Scalar::PipelineCap, pipeline_cap as u64);
        shared.metrics.set(Scalar::MaxConns, max_conns as u64);
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("iced-svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("iced-svc-reactor".into())
                .spawn(move || crate::reactor::reactor_loop(&shared, listener, wake_rx))
                .expect("spawn reactor thread")
        };
        Ok(Server {
            shared,
            addr,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the same graceful shutdown as the `shutdown` verb.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until shutdown completes: listener dropped, queue drained,
    /// every in-flight response routed and flushed, cache flushed,
    /// sockets closed.
    pub fn wait(mut self) {
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // All accepted work is answered by now; persist warm state.
        let flushed = self.shared.cache.flush();
        if flushed > 0 {
            iced::trace::counter(
                iced::trace::Phase::Service,
                "svc_cache_spilled_entries",
                flushed as u64,
            );
            self.shared.log.emit(Level::Info, "cache_spill", |o| {
                o.u64("entries", flushed as u64)
            });
        }
        let shared = &self.shared;
        shared.log.emit(Level::Info, "server_stop", |o| {
            let m = &shared.metrics;
            let o = m.put(o, Scalar::Uptime);
            m.put(o, Scalar::Connections)
                .u64(Scalar::LogDropped.row().key, shared.log.dropped())
        });
        shared.log.shutdown();
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn begin_shutdown(shared: &Shared) {
    if !shared.shutting.swap(true, Ordering::SeqCst) {
        shared.queue.close();
        shared.waker.wake();
    }
}

/// Logs a `request_error` event for an error envelope about to be written.
pub(crate) fn log_request_error(
    shared: &Shared,
    rid: RequestId,
    verb: Option<Verb>,
    err: &SvcError,
) {
    shared.log.emit(Level::Warn, "request_error", |mut o| {
        o = o.str("req", &rid.token());
        if let Some(v) = verb {
            o = o.str("verb", v.name());
        }
        o.str("code", err.code).str("message", &err.message)
    });
}

/// Logs a `request_finish` event for a successful control-verb response.
pub(crate) fn log_control_finish(shared: &Shared, rid: RequestId, verb: Verb, t0: Instant) {
    shared.log.emit(Level::Info, "request_finish", |o| {
        o.str("req", &rid.token())
            .str("verb", verb.name())
            .str("outcome", "ok")
            .u64("total_us", t0.elapsed().as_micros() as u64)
    });
}

/// Renders a panic payload for the error envelope and the event log.
/// `panic!` almost always carries a `String` or `&str`; anything else is
/// reported by type only.
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let verb = job.verb();
        let id = job.id();
        let rid = job.to.rid;
        let queue_wait = job.accepted_at.elapsed();
        let _flight = shared.metrics.flight(verb);
        // Everything the worker does for this request — including mapper
        // and simulator spans — is attributed to its request id.
        let _scope = iced::trace::request_scope(rid.as_u64());
        // At debug level, capture this request's own trace via a thread
        // overlay and log a summary; the global collector (if any) still
        // sees everything.
        let trace_rec = if shared.log.enabled(Level::Debug) {
            Some(Arc::new(iced::trace::RecordingCollector::new()))
        } else {
            None
        };
        let overlay = trace_rec
            .as_ref()
            .map(|r| iced::trace::overlay(Arc::clone(r) as Arc<dyn iced::trace::Collector>));
        let service_started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _span = iced::trace::span(
                iced::trace::Phase::Service,
                "svc_request",
                &[("verb", verb.name().into())],
            );
            if let Some(chaos) = &shared.chaos {
                if chaos.worker_panic() {
                    shared.metrics.add(Scalar::ChaosFaults, 1);
                    iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_panics", 1);
                    shared.log.emit(Level::Warn, "chaos_panic", |o| {
                        o.str("req", &rid.token()).str("verb", verb.name())
                    });
                    panic!("chaos: injected worker panic");
                }
            }
            match &job.kind {
                JobKind::Single(req) => execute(shared, req, rid),
                JobKind::Batch { slots, unique, .. } => execute_batch(shared, slots, unique, rid),
            }
        }));
        let service_time = service_started.elapsed();
        drop(overlay);
        if let Some(rec) = trace_rec {
            let records = rec.records();
            let spans = records
                .iter()
                .filter(|r| matches!(r, iced::trace::Record::SpanBegin { .. }))
                .count();
            shared.log.emit(Level::Debug, "request_trace", |o| {
                o.str("req", &rid.token())
                    .u64("trace_records", records.len() as u64)
                    .u64("trace_spans", spans as u64)
            });
        }
        let response = match outcome {
            Ok(Ok((result, cached))) => {
                // Batch cache traffic is accounted per unique slot inside
                // execute_batch; the envelope itself is never cached.
                if matches!(&job.kind, JobKind::Single(_)) {
                    let hit = if cached {
                        Scalar::CacheHits
                    } else {
                        Scalar::CacheMisses
                    };
                    shared.metrics.add(hit, 1);
                }
                shared.log.emit(Level::Info, "request_finish", |o| {
                    o.str("req", &rid.token())
                        .str("verb", verb.name())
                        .str("outcome", if cached { "cached" } else { "ok" })
                        .u64("total_us", job.accepted_at.elapsed().as_micros() as u64)
                        .u64("queue_us", queue_wait.as_micros() as u64)
                        .u64("service_us", service_time.as_micros() as u64)
                });
                render_ok(id, Some(rid), verb, cached, &result)
            }
            Ok(Err(e)) => {
                shared.metrics.add(Scalar::Errors, 1);
                log_request_error(shared, rid, Some(verb), &e);
                render_err(id, Some(rid), Some(verb), &e)
            }
            Err(p) => {
                shared.metrics.add(Scalar::Errors, 1);
                let payload = panic_payload(p.as_ref());
                shared.log.emit(Level::Error, "worker_panic", |o| {
                    o.str("req", &rid.token())
                        .str("verb", verb.name())
                        .str("payload", &payload)
                });
                let e = SvcError::with_entity(
                    "internal",
                    format!("request processing panicked: {payload}"),
                    rid.token(),
                );
                render_err(id, Some(rid), Some(verb), &e)
            }
        };
        // Metrics are recorded before the response is handed back, so a
        // client that reads its answer and immediately scrapes
        // `metrics`/`stats` always sees its own request counted.
        shared.metrics.observe(verb, job.accepted_at.elapsed());
        shared.metrics.observe_split(verb, queue_wait, service_time);
        shared.push_completion(Completion {
            to: job.to,
            line: response,
        });
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one work verb, consulting the cache. Returns the rendered result
/// JSON plus whether it came from the cache.
fn execute(
    shared: &Shared,
    req: &Request,
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    let key = cache_key(shared, req);
    if let Some(hit) = shared.cache.get(key) {
        return Ok((hit, true));
    }
    let (rendered, keep) = match &req.payload {
        Payload::Compile(spec) => (compile_result(shared, spec)?, keepable(spec)),
        Payload::Simulate(spec) => (simulate_result(shared, spec)?, keepable(&spec.compile)),
        Payload::Stream(spec) => (stream_result(shared, spec)?, true),
        Payload::Stats { .. } | Payload::Control | Payload::Batch(_) | Payload::CachePut { .. } => {
            return Err(SvcError::new(
                "internal",
                "control verb reached the worker pool",
            ))
        }
    };
    Ok((insert_rendered(shared, key, rendered, rid, keep), false))
}

/// Runs one batch: computes each unique element once (through the cache)
/// and fans the rendered bytes out to every slot that maps to it. Always
/// returns the envelope-level result; per-slot failures are structured
/// errors inside the response array.
fn execute_batch(
    shared: &Shared,
    slots: &[SlotPlan],
    unique: &[(CacheKey, BatchElem)],
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    shared.metrics.batch_observed(slots.len(), unique.len());
    let computed: Vec<(Verb, bool, Result<Arc<String>, SvcError>)> = unique
        .iter()
        .map(|(key, elem)| {
            let verb = elem.verb();
            match execute_elem(shared, *key, elem, rid) {
                Ok((bytes, cached)) => {
                    let hit = if cached {
                        Scalar::CacheHits
                    } else {
                        Scalar::CacheMisses
                    };
                    shared.metrics.add(hit, 1);
                    (verb, cached, Ok(bytes))
                }
                Err(e) => {
                    shared.metrics.add(Scalar::Errors, 1);
                    log_request_error(shared, rid, Some(verb), &e);
                    (verb, false, Err(e))
                }
            }
        })
        .collect();
    let items: Vec<String> = slots
        .iter()
        .map(|plan| match plan {
            SlotPlan::Unique(i) => {
                let (verb, cached, result) = &computed[*i];
                match result {
                    Ok(bytes) => render_batch_item_ok(*verb, *cached, bytes),
                    Err(e) => render_batch_item_err(Some(*verb), e),
                }
            }
            SlotPlan::Invalid(verb, e) => render_batch_item_err(*verb, e),
        })
        .collect();
    Ok((
        Arc::new(render_batch_result(slots.len(), unique.len(), &items)),
        false,
    ))
}

/// Serves one batch element through the cache, exactly as a standalone
/// request for the same spec would be.
fn execute_elem(
    shared: &Shared,
    key: CacheKey,
    elem: &BatchElem,
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    if let Some(hit) = shared.cache.get(key) {
        return Ok((hit, true));
    }
    let (rendered, keep) = match elem {
        BatchElem::Compile(spec) => (compile_result(shared, spec)?, keepable(spec)),
        BatchElem::Simulate(spec) => (simulate_result(shared, spec)?, keepable(&spec.compile)),
    };
    Ok((insert_rendered(shared, key, rendered, rid, keep), false))
}

/// Whether what `spec` maps may be kept under a key that leaves
/// `deadline_ms` out: the rendered answer in the result cache, the
/// mapping in the memo. Not when the exact backend ran under a deadline,
/// which can cut the heuristic arms or the search and still leave a
/// mapping (a heuristic arm's, possibly at a higher II than the search
/// finds without one). The heuristic mapper checks its deadline only
/// between attempts, so its mappings do not depend on one.
fn keepable(spec: &CompileSpec) -> bool {
    spec.deadline_ms.is_none() || spec.backend == Backend::Heuristic
}

/// Inserts freshly rendered bytes into the cache when `keep` is set,
/// accounting evictions and rolling the chaos spill-corruption site.
fn insert_rendered(
    shared: &Shared,
    key: CacheKey,
    rendered: String,
    rid: RequestId,
    keep: bool,
) -> Arc<String> {
    let rendered = Arc::new(rendered);
    if !keep {
        return rendered;
    }
    let evicted = shared.cache.put_shared(key, Arc::clone(&rendered));
    shared.metrics.add(Scalar::CacheEvictions, evicted);
    if evicted > 0 {
        shared.log.emit(Level::Info, "cache_evict", |o| {
            o.str("req", &rid.token()).u64("evicted", evicted)
        });
    }
    if let Some(chaos) = &shared.chaos {
        if chaos.corrupt_spill() && shared.cache.corrupt_for_chaos(key) {
            shared.metrics.add(Scalar::ChaosFaults, 1);
            iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_corruptions", 1);
            shared
                .log
                .emit(Level::Warn, "chaos_corrupt", |o| o.str("req", &rid.token()));
        }
    }
    rendered
}

fn hash_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// The backend's contribution to a compile key: its name plus, for the
/// exact backend, the canonical hash of the exact-search options (they
/// determine the certified fields in the rendered bytes — including
/// `nodes_explored`, which `backjump` changes). Heuristic requests hash
/// a constant here, so pre-existing heuristic keys stay strategy-keyed
/// exactly as before plus this one extra lane.
fn backend_lanes(spec: &CompileSpec) -> [u64; 2] {
    [
        hash_str(spec.backend.name()),
        match spec.backend {
            Backend::Exact => spec.exact_options().canonical_hash(),
            Backend::Heuristic => 0,
        },
    ]
}

/// The `compile` content-addressed key for a given CGRA config hash.
/// Uses the memoized `Source::canonical_hash` so key derivation on the
/// router's forwarding path never rebuilds a suite DFG.
pub(crate) fn compile_key(cfg: u64, spec: &CompileSpec) -> CacheKey {
    let [backend, exact_opts] = backend_lanes(spec);
    CacheKey::derive(&[
        hash_str("compile"),
        spec.source.canonical_hash(),
        cfg,
        spec.mapper_options().canonical_hash(),
        hash_str(spec.strategy.name()),
        backend,
        exact_opts,
    ])
}

/// The `simulate` content-addressed key for a given CGRA config hash.
pub(crate) fn simulate_key(cfg: u64, spec: &SimulateSpec) -> CacheKey {
    let [backend, exact_opts] = backend_lanes(&spec.compile);
    CacheKey::derive(&[
        hash_str("simulate"),
        spec.compile.source.canonical_hash(),
        cfg,
        spec.compile.mapper_options().canonical_hash(),
        hash_str(spec.compile.strategy.name()),
        backend,
        exact_opts,
        spec.iterations,
        spec.seed,
    ])
}

/// The key for one batch element — identical to what the standalone verb
/// would derive, so batch slots and single requests share cache entries.
pub(crate) fn elem_key(cfg: u64, elem: &BatchElem) -> CacheKey {
    match elem {
        BatchElem::Compile(spec) => compile_key(cfg, spec),
        BatchElem::Simulate(spec) => simulate_key(cfg, spec),
    }
}

/// The content-addressed key a cacheable request resolves to, given the
/// CGRA configuration's canonical hash — the exact key the shard's cache
/// uses, exposed so the cluster router (and benches/tests computing
/// shard placement) derive byte-identical keys. `None` for verbs whose
/// responses are not content-addressed (control verbs and `batch`
/// envelopes; batch *slots* key through [`BatchElem`] separately).
pub fn request_key(cfg: u64, req: &Request) -> Option<CacheKey> {
    match &req.payload {
        Payload::Compile(spec) => Some(compile_key(cfg, spec)),
        Payload::Simulate(spec) => Some(simulate_key(cfg, spec)),
        Payload::Stream(spec) => Some(CacheKey::derive(&[
            hash_str("stream"),
            cfg,
            hash_str(&spec.pipeline),
            hash_str(policy_name(spec.policy)),
            spec.inputs as u64,
            spec.seed,
        ])),
        Payload::Stats { .. } | Payload::Control | Payload::Batch(_) | Payload::CachePut { .. } => {
            None
        }
    }
}

/// The content-addressed key: canonical hashes of every semantic input.
/// Serving knobs (deadline, thread count, client id) are deliberately
/// excluded — they cannot change the payload bytes.
fn cache_key(shared: &Shared, req: &Request) -> CacheKey {
    request_key(shared.config_hash, req).unwrap_or_else(|| CacheKey::derive(&[hash_str("control")]))
}

fn map_err_to_svc(e: MapError, entity: &str) -> SvcError {
    if matches!(e, MapError::DeadlineExceeded) {
        SvcError::with_entity("deadline_exceeded", e.to_string(), entity)
    } else {
        SvcError::with_entity("map_error", e.to_string(), entity)
    }
}

/// Maps per the requested strategy (its [`iced::Strategy::mapper_options`]
/// and [`iced::Strategy::post_pass`], with per-request deadline/II options
/// threaded through). For the exact backend the mapping comes with its
/// minimum-II certificate.
fn compile_mapping(
    shared: &Shared,
    spec: &CompileSpec,
) -> Result<(Dfg, Mapping, Option<iced::exact::CertifiedII>), SvcError> {
    let dfg = spec.source.try_dfg()?;
    let mut opts = spec.mapper_options();
    if let Some(ms) = spec.deadline_ms {
        opts.deadline = Some(Instant::now() + Duration::from_millis(ms));
    }
    if spec.backend == Backend::Exact {
        let mut xopts = spec.exact_options();
        xopts.deadline = opts.deadline;
        let c = iced::exact::certify(&dfg, &shared.config, &opts, &xopts)
            .map_err(|e| map_err_to_svc(e, dfg.name()))?;
        return Ok((dfg, c.mapping, Some(c.certificate)));
    }
    let base = map_with(&dfg, &shared.config, &opts).map_err(|e| map_err_to_svc(e, dfg.name()))?;
    let mapping = spec.strategy.post_pass(&dfg, base);
    Ok((dfg, mapping, None))
}

fn compile_result(shared: &Shared, spec: &CompileSpec) -> Result<String, SvcError> {
    let (dfg, mapping, cert) = compile_mapping(shared, spec)?;
    let stats = FabricStats::analyze(&mapping);
    let energy = EnergyBreakdown::account(
        &dfg,
        &mapping,
        &shared.model,
        spec.strategy.dvfs_support(),
        1000,
    );
    let bits = Bitstream::assemble(&dfg, &mapping);
    let mut o = crate::json::Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.strategy_name())
        .u64("nodes", dfg.node_count() as u64)
        .u64("edges", dfg.edge_count() as u64)
        .u64("ii", u64::from(mapping.ii()))
        .u64("makespan", mapping.makespan());
    if let Some(c) = cert {
        // Certified fields, present only on exact-backend responses. The
        // search is single-threaded and deterministic, so every field —
        // including nodes_explored — is byte-stable across runs.
        o = o
            .str("proof", c.proof.name())
            .u64("lower_bound", u64::from(c.lower_bound))
            .u64("nodes_explored", c.nodes_explored);
    }
    Ok(o.f64("avg_dvfs_level", stats.average_dvfs_level())
        .f64("avg_utilization", stats.average_utilization())
        .f64("power_mw", energy.total_power_mw())
        .u64("bitstream_words", bits.words().len() as u64)
        .u64("bitstream_bytes", bits.total_bytes() as u64)
        // The hash the cache key folded in: no second WL pass.
        .str(
            "dfg_hash",
            &format!("{:016x}", spec.source.canonical_hash()),
        )
        .finish())
}

/// The mapping a `simulate` runs: the shard's memoized one when this
/// compile key was mapped before, else a fresh [`compile_mapping`] that
/// is memoized if it succeeds. Exact because the compile key folds in
/// every input the mapping depends on, while the iteration count and
/// the engine seed never reach the mapper. A hit does no mapping work,
/// so a `deadline_ms` cannot expire on it. Two workers that miss the
/// same key at once both map; the mapping is deterministic, so either
/// result is the memo's. A mapping a deadline may have shaped is not
/// memoized ([`keepable`]).
fn memoized_mapping(shared: &Shared, spec: &CompileSpec) -> Result<Arc<(Dfg, Mapping)>, SvcError> {
    let key = compile_key(shared.config_hash, spec);
    let memoized = lock(&shared.mappings).get(&key);
    if let Some(hit) = memoized {
        shared.metrics.add(Scalar::MapMemoHits, 1);
        return Ok(hit);
    }
    shared.metrics.add(Scalar::MapMemoMisses, 1);
    let (dfg, mapping, _cert) = compile_mapping(shared, spec)?;
    let mapped = Arc::new((dfg, mapping));
    if keepable(spec) {
        lock(&shared.mappings).insert(key, Arc::clone(&mapped));
    }
    Ok(mapped)
}

fn simulate_result(shared: &Shared, spec: &SimulateSpec) -> Result<String, SvcError> {
    let mapped = memoized_mapping(shared, &spec.compile)?;
    let (dfg, mapping) = &*mapped;
    let report = run_engine(dfg, mapping, spec.iterations, spec.seed)
        .map_err(|e| SvcError::with_entity("sim_error", e.to_string(), dfg.name()))?;
    Ok(crate::json::Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.compile.strategy_name())
        .u64("ii", u64::from(mapping.ii()))
        .u64("iterations", report.iterations)
        .u64("cycles", report.cycles)
        .u64("ops_executed", report.ops_executed)
        .f64("fu_activity", report.fu_activity())
        .u64("fifo_peak", report.fifo_peak as u64)
        .finish())
}

fn stream_result(shared: &Shared, spec: &StreamSpec) -> Result<String, SvcError> {
    let pipeline = Pipeline::by_name(spec.pipeline.as_str()).ok_or_else(|| {
        SvcError::with_entity("bad_request", "unknown pipeline", spec.pipeline.clone())
    })?;
    let partition = Partition::table1(&pipeline, &shared.config)
        .map_err(|e| map_err_to_svc(e, &spec.pipeline))?;
    // Graph-shaped workloads drive gcn and the generated sensor app;
    // matrix-shaped ones drive lu and stencil.
    let inputs: Vec<u64> = if matches!(spec.pipeline.as_str(), "gcn" | "sensor") {
        workloads::enzymes_like(spec.inputs, spec.seed)
            .iter()
            .map(|g| g.nnz())
            .collect()
    } else {
        workloads::suitesparse_like(spec.inputs, spec.seed)
            .iter()
            .map(|m| m.nnz as u64)
            .collect()
    };
    let report = simulate(&pipeline, &partition, &shared.model, &inputs, spec.policy);
    Ok(crate::json::Obj::new()
        .str("pipeline", &spec.pipeline)
        .str("policy", policy_name(spec.policy))
        .u64("inputs", report.inputs as u64)
        .f64("throughput", report.throughput())
        .f64("avg_power_mw", report.avg_power_mw())
        .f64("perf_per_watt", report.perf_per_watt())
        .f64("total_time_us", report.total_time_us)
        .f64("total_energy_nj", report.total_energy_nj)
        .u64("windows", report.samples.len() as u64)
        .finish())
}

/// A workerless `Shared` for reactor unit tests: inline verbs work, the
/// queue accepts pushes nobody drains, logging is disabled.
#[cfg(test)]
pub(crate) fn test_shared() -> Arc<Shared> {
    let (waker, _rx) = crate::poll::wake_pair().expect("wake pair");
    let cfg = ServiceConfig::default();
    Arc::new(Shared {
        config_hash: cfg.cgra.canonical_hash(),
        config: cfg.cgra,
        model: PowerModel::asap7(),
        cache: ResultCache::new(cfg.cache_bytes, None),
        mappings: Mutex::new(MappingMemo::new(MAPPING_MEMO_CAP)),
        queue: BoundedQueue::new(cfg.queue_cap),
        metrics: Metrics::new(),
        chaos: None,
        log: EventLog::disabled(),
        shutting: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        threads: cfg.threads,
        queue_cap: cfg.queue_cap,
        pipeline_cap: cfg.pipeline,
        max_conns: cfg.max_conns,
        jobs_outstanding: AtomicUsize::new(0),
        completions: Mutex::new(Vec::new()),
        waker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Source;
    use iced::kernels::{Kernel, UnrollFactor};
    use iced::Strategy;

    #[test]
    fn default_config_keeps_the_daemon_caps() {
        let cfg = ServiceConfig::default();
        assert_eq!(cfg.pipeline, 32);
        assert_eq!(cfg.max_conns, 4096);
    }

    #[test]
    fn batch_element_keys_match_standalone_verb_keys() {
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let spec = CompileSpec {
            source: Source::Named(Kernel::Fir, UnrollFactor::X1),
            strategy: Strategy::IcedIslands,
            backend: Backend::Heuristic,
            max_ii: None,
            deadline_ms: None,
        };
        let elem = BatchElem::Compile(spec.clone());
        assert_eq!(elem_key(cfg, &elem), compile_key(cfg, &spec));

        let sim = SimulateSpec {
            compile: spec.clone(),
            iterations: 500,
            seed: 3,
        };
        assert_eq!(
            elem_key(cfg, &BatchElem::Simulate(sim.clone())),
            simulate_key(cfg, &sim)
        );
        // The two verbs never collide, and serving knobs stay excluded.
        assert_ne!(compile_key(cfg, &spec), simulate_key(cfg, &sim));
        let with_deadline = CompileSpec {
            deadline_ms: Some(5000),
            ..spec.clone()
        };
        assert_eq!(compile_key(cfg, &spec), compile_key(cfg, &with_deadline));
    }

    #[test]
    fn exact_and_heuristic_requests_never_share_cache_keys() {
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let exact = CompileSpec {
            source: Source::Named(Kernel::Fir, UnrollFactor::X1),
            strategy: Strategy::Baseline,
            backend: Backend::Exact,
            max_ii: None,
            deadline_ms: None,
        };
        // The exact backend must not warm-hit any heuristic strategy's
        // entry for the same kernel — their response bytes differ.
        for strategy in Strategy::ALL {
            let heur = CompileSpec {
                strategy,
                backend: Backend::Heuristic,
                ..exact.clone()
            };
            assert_ne!(
                compile_key(cfg, &exact),
                compile_key(cfg, &heur),
                "exact collides with {}",
                strategy.name()
            );
        }
        // Different exact options are different certified responses.
        let tighter = CompileSpec {
            max_ii: Some(8),
            ..exact.clone()
        };
        assert_ne!(compile_key(cfg, &exact), compile_key(cfg, &tighter));
    }
}
