//! Wire protocol: request verbs, typed request parsing, structured errors,
//! and the response envelope.
//!
//! Every exchange is one line of JSON in each direction. Requests carry a
//! `verb` plus verb-specific fields; responses echo the client's `id` and
//! carry either a `result` object or a structured `error` object — the
//! daemon never answers with a panic or a closed socket mid-request.

use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

use iced::dfg::{text, Dfg};
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::MapperOptions;
use iced::streaming::RuntimePolicy;
use iced::Strategy;

use iced_hash::StableHasher;

use crate::cache::CacheKey;
use crate::json::{self, Fields, Obj, Value};
use crate::memo::Memo;

/// Request verbs the daemon understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Map a kernel and return mapping stats + bitstream summary.
    Compile = 0,
    /// Compile then run the cycle engine.
    Simulate = 1,
    /// Stream a pipeline under a runtime policy.
    Stream = 2,
    /// Liveness/readiness probe.
    Healthz = 3,
    /// Counter and latency snapshot.
    Metrics = 4,
    /// Graceful shutdown: drain in-flight work, then stop.
    Shutdown = 5,
    /// Windowed quantile view (JSON, or Prometheus text when asked).
    Stats = 6,
    /// Many compile/simulate specs in one envelope, answered as one
    /// ordered response array with intra-batch cache dedup.
    Batch = 7,
    /// Internal cluster verb: install an already-rendered result object
    /// under a content-addressed key. The router uses it to replicate hot
    /// entries to a key's successor shard; answered inline by the reactor
    /// (never queued) so replication cannot be starved by work traffic.
    CachePut = 8,
}

impl Verb {
    /// Every verb, in wire-name order used by the metrics payload.
    pub const ALL: [Verb; 9] = [
        Verb::Compile,
        Verb::Simulate,
        Verb::Stream,
        Verb::Healthz,
        Verb::Metrics,
        Verb::Shutdown,
        Verb::Stats,
        Verb::Batch,
        Verb::CachePut,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Compile => "compile",
            Verb::Simulate => "simulate",
            Verb::Stream => "stream",
            Verb::Healthz => "healthz",
            Verb::Metrics => "metrics",
            Verb::Shutdown => "shutdown",
            Verb::Stats => "stats",
            Verb::Batch => "batch",
            Verb::CachePut => "cache_put",
        }
    }

    fn from_name(s: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.name() == s)
    }
}

/// Deterministic per-request identity: the accepting connection's ordinal
/// paired with the request's sequence number on that connection. Both
/// counters start at 1 and advance in accept/read order, so a given test
/// or chaos scenario produces the same ids on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// Connection ordinal (1-based, in accept order).
    pub conn: u64,
    /// Request ordinal within the connection (1-based, in read order).
    pub seq: u64,
}

impl RequestId {
    /// Wire token, e.g. `"c3-7"` for the 7th request on connection 3.
    pub fn token(self) -> String {
        format!("c{}-{}", self.conn, self.seq)
    }

    /// Packed form for trace args (`conn` in the high 32 bits). Lossy for
    /// connections past 2^32 requests, which the daemon never reaches.
    pub fn as_u64(self) -> u64 {
        (self.conn << 32) | (self.seq & 0xffff_ffff)
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}-{}", self.conn, self.seq)
    }
}

/// A structured service error: machine-readable code, human-readable
/// message, and (where meaningful) the entity that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcError {
    /// Stable machine-readable code (`bad_json`, `queue_full`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// The offending entity (kernel name, field, verb…), when known.
    pub entity: Option<String>,
}

impl SvcError {
    /// Builds an error with an offending entity attached.
    pub fn with_entity(
        code: &'static str,
        message: impl Into<String>,
        entity: impl Into<String>,
    ) -> Self {
        SvcError {
            code,
            message: message.into(),
            entity: Some(entity.into()),
        }
    }

    /// Builds an error without an entity.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        SvcError {
            code,
            message: message.into(),
            entity: None,
        }
    }

    /// Renders the `error` field object.
    pub fn render(&self) -> String {
        let mut o = Obj::new()
            .str("code", self.code)
            .str("message", &self.message);
        if let Some(e) = &self.entity {
            o = o.str("entity", e);
        }
        o.finish()
    }
}

/// Where the kernel under compilation comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A suite kernel by name, with an unroll factor.
    Named(Kernel, UnrollFactor),
    /// An inline DFG in the `iced-dfg` text format.
    Inline(InlineDfg),
}

impl Source {
    /// Resolves to the DFG to compile.
    ///
    /// # Errors
    ///
    /// `dfg_parse_error` when inline text whose key came from the memo
    /// fails its re-parse — only possible if two texts share a 128-bit
    /// digest, the same collision bound the result cache's keys carry.
    pub fn try_dfg(&self) -> Result<Dfg, SvcError> {
        match self {
            Source::Named(k, uf) => Ok(k.dfg(*uf)),
            Source::Inline(d) => d.dfg(),
        }
    }

    /// [`try_dfg`](Self::try_dfg) for in-process callers that hold a
    /// source this process already parsed or keyed. The service itself
    /// always goes through `try_dfg`.
    ///
    /// # Panics
    ///
    /// Only on the digest collision `try_dfg` reports as an error.
    pub fn dfg(&self) -> Dfg {
        self.try_dfg()
            .unwrap_or_else(|e| panic!("inline DFG failed its re-parse: {}", e.message))
    }

    /// Node count of the DFG this source resolves to — the `auto`
    /// backend threshold's input.
    pub fn node_count(&self) -> usize {
        match self {
            Source::Named(k, uf) => k.dfg(*uf).node_count(),
            Source::Inline(d) => d.node_count(),
        }
    }

    /// The canonical hash of the DFG this source resolves to. For named
    /// suite kernels the hash comes from a lazily built process-wide
    /// table, so key derivation on hot paths (the cluster router keys
    /// every forwarded request) skips the DFG construction entirely;
    /// inline DFGs memoize theirs per text (see [`InlineDfg`]).
    pub fn canonical_hash(&self) -> u64 {
        match self {
            Source::Named(k, uf) => named_dfg_hash(*k, *uf),
            Source::Inline(d) => d.canonical_hash(),
        }
    }

    /// Whether [`canonical_hash`](Self::canonical_hash) is a lookup
    /// rather than a WL refinement: always for named kernels, and for
    /// inline text once its hash is memoized. The reactor only derives a
    /// cache key where this holds.
    pub(crate) fn hash_known(&self) -> bool {
        match self {
            Source::Named(..) => true,
            Source::Inline(d) => d.hash_known(),
        }
    }
}

/// An inline DFG: the request's text plus what the service needs to key
/// it — its canonical hash and node count.
///
/// A process-wide memo maps a 128-bit digest of the raw text to
/// `(canonical_hash, node_count)`. On a memo hit the request skips both
/// the text parse and the WL refinement; the DFG itself is re-parsed
/// only if a worker has to compile it. On a miss the text is parsed
/// (which validates it) and the hash is computed once, on first use,
/// then memoized. Text that fails to parse is never memoized.
#[derive(Debug, Clone)]
pub struct InlineDfg {
    text: Arc<str>,
    digest: TextDigest,
    nodes: usize,
    state: InlineState,
}

#[derive(Debug, Clone)]
enum InlineState {
    /// Memo hit: the hash is known and the text was not parsed.
    Keyed(u64),
    /// This request parsed the text; the hash is computed on first use.
    Parsed { dfg: Arc<Dfg>, hash: OnceLock<u64> },
}

impl InlineDfg {
    /// Keys `text` through the memo, parsing it only on a memo miss.
    ///
    /// # Errors
    ///
    /// `dfg_parse_error` when the text does not parse.
    pub(crate) fn new(text: &str) -> Result<InlineDfg, SvcError> {
        let digest = TextDigest::of(text);
        let (nodes, state) = match dfg_memo().get(&digest) {
            Some((hash, nodes)) => (nodes, InlineState::Keyed(hash)),
            None => {
                let dfg = parse_dfg_text(text)?;
                let nodes = dfg.node_count();
                let state = InlineState::Parsed {
                    dfg: Arc::new(dfg),
                    hash: OnceLock::new(),
                };
                (nodes, state)
            }
        };
        Ok(InlineDfg {
            text: Arc::from(text),
            digest,
            nodes,
            state,
        })
    }

    /// The DFG's node count.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The DFG's canonical hash: memoized, or computed once and then
    /// inserted into the memo.
    pub fn canonical_hash(&self) -> u64 {
        match &self.state {
            InlineState::Keyed(hash) => *hash,
            InlineState::Parsed { dfg, hash } => *hash.get_or_init(|| {
                let h = dfg.canonical_hash();
                dfg_memo().insert(self.digest, (h, self.nodes));
                h
            }),
        }
    }

    /// Whether the canonical hash is known without a WL refinement.
    pub(crate) fn hash_known(&self) -> bool {
        match &self.state {
            InlineState::Keyed(_) => true,
            InlineState::Parsed { hash, .. } => hash.get().is_some(),
        }
    }

    /// The DFG: a copy of the parsed one, or a re-parse of the text.
    fn dfg(&self) -> Result<Dfg, SvcError> {
        match &self.state {
            InlineState::Keyed(_) => parse_dfg_text(&self.text),
            InlineState::Parsed { dfg, .. } => Ok(Dfg::clone(dfg)),
        }
    }
}

fn parse_dfg_text(text: &str) -> Result<Dfg, SvcError> {
    text::parse(text).map_err(|e| SvcError::with_entity("dfg_parse_error", e.to_string(), "dfg"))
}

/// A 128-bit digest of raw DFG text: two independently seeded
/// [`StableHasher`] lanes, as `CacheKey::derive` uses, so the memo adds
/// no collision surface weaker than the result cache's own keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TextDigest(u64, u64);

impl TextDigest {
    fn of(text: &str) -> TextDigest {
        let mut a = StableHasher::with_seed(0x1ced_0004);
        let mut b = StableHasher::with_seed(0x1ced_0005);
        a.write_u64(text.len() as u64);
        b.write_u64(text.len() as u64);
        // One pass feeding both lanes: two independent multiply chains
        // the CPU overlaps.
        for &byte in text.as_bytes() {
            a.write_u8(byte);
            b.write_u8(byte);
        }
        TextDigest(a.finish(), b.finish())
    }
}

/// Entries the inline-DFG memo keeps (about 40 bytes each); the oldest
/// insertion is evicted first.
const DFG_MEMO_CAP: usize = 4096;

/// Text digest → `(canonical_hash, node_count)`.
type DfgMemo = Memo<TextDigest, (u64, usize)>;

fn dfg_memo() -> MutexGuard<'static, DfgMemo> {
    static MEMO: LazyLock<Mutex<DfgMemo>> =
        LazyLock::new(|| Mutex::new(DfgMemo::new(DFG_MEMO_CAP)));
    // No update can stop halfway (only an allocation failure could, and
    // that aborts), so a poisoned guard still holds a consistent memo.
    MEMO.lock().unwrap_or_else(|e| e.into_inner())
}

/// Memoized `Kernel::dfg(unroll).canonical_hash()` over the whole suite.
/// Building a suite DFG costs microseconds; the single-threaded router
/// derives one key per request, so this table is what keeps routing off
/// the scaling-bottleneck path.
fn named_dfg_hash(kernel: Kernel, unroll: UnrollFactor) -> u64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        Kernel::ALL
            .iter()
            .flat_map(|k| UnrollFactor::ALL.map(|uf| k.dfg(uf).canonical_hash()))
            .collect()
    });
    let ki = Kernel::ALL
        .iter()
        .position(|k| k.name() == kernel.name())
        .expect("suite kernel is in Kernel::ALL");
    let ui = UnrollFactor::ALL
        .iter()
        .position(|&u| u == unroll)
        .expect("unroll factor is in UnrollFactor::ALL");
    table[ki * UnrollFactor::ALL.len() + ui]
}

/// Which mapper backend serves a `compile`/`simulate` request.
///
/// Parsed from the same `strategy` wire field that selects the heuristic
/// [`Strategy`]: `"exact"` and `"auto"` extend the four heuristic names,
/// and `"heuristic"` is an alias for the default heuristic (`"iced"`).
/// `"auto"` is resolved here, at spec level, by node count against
/// [`iced::exact::auto_prefers_exact`] — so an `auto` request shares
/// cache entries (and response bytes) with the explicit backend it
/// resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The heuristic mapper under the spec's [`Strategy`].
    Heuristic,
    /// The exact branch-and-bound mapper with a certified minimum II.
    Exact,
}

impl Backend {
    /// Stable name folded into cache keys.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Heuristic => "heuristic",
            Backend::Exact => "exact",
        }
    }
}

/// `compile` request payload.
#[derive(Debug, Clone)]
pub struct CompileSpec {
    /// Kernel source.
    pub source: Source,
    /// Mapping strategy (`baseline`, `baseline+pg`, `per-tile`, `iced`).
    /// For the exact backend this is pinned to [`Strategy::Baseline`]:
    /// the exact search certifies the all-normal schedule space, so its
    /// mappings carry baseline DVFS hardware semantics.
    pub strategy: Strategy,
    /// Which mapper backend runs (`auto` already resolved).
    pub backend: Backend,
    /// Mapper II ceiling override.
    pub max_ii: Option<u32>,
    /// Per-request mapping deadline in milliseconds (serving knob; not
    /// part of the cache key). A request answered without mapping — a
    /// result-cache hit, or a `simulate` whose mapping the shard has
    /// memoized — does no mapping work, so its deadline cannot expire.
    /// An exact-backend answer made under a deadline is neither cached
    /// nor memoized: the deadline may have shaped it.
    pub deadline_ms: Option<u64>,
}

/// `simulate` request payload: compile plus a cycle-engine run.
#[derive(Debug, Clone)]
pub struct SimulateSpec {
    /// The compile half.
    pub compile: CompileSpec,
    /// Loop iterations to run.
    pub iterations: u64,
    /// Engine seed.
    pub seed: u64,
}

/// `stream` request payload.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Pipeline name: `gcn` or `lu`.
    pub pipeline: String,
    /// Runtime policy.
    pub policy: RuntimePolicy,
    /// Number of streamed inputs.
    pub inputs: usize,
    /// Workload seed.
    pub seed: u64,
}

/// One batchable work element: only verbs whose specs are cheap to key
/// and fan out may appear inside a `batch`.
#[derive(Debug, Clone)]
pub enum BatchElem {
    /// A `compile` slot.
    Compile(CompileSpec),
    /// A `simulate` slot.
    Simulate(SimulateSpec),
}

impl BatchElem {
    /// The element's verb, for per-slot envelopes and metrics.
    pub fn verb(&self) -> Verb {
        match self {
            BatchElem::Compile(_) => Verb::Compile,
            BatchElem::Simulate(_) => Verb::Simulate,
        }
    }
}

/// One parsed batch slot: either a valid element or a structured per-slot
/// error. A bad slot never poisons its siblings — it is answered in place
/// inside the response array.
#[derive(Debug, Clone)]
pub enum BatchSlot {
    /// A valid compile/simulate element.
    Elem(BatchElem),
    /// A slot that failed to parse; answered per-slot.
    Invalid {
        /// The slot's verb, when parsing got far enough to recover it.
        verb: Option<Verb>,
        /// The structured error for this slot.
        error: SvcError,
    },
}

/// `batch` request payload: the slots in request order.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Slots in the order they were sent (and will be answered).
    pub items: Vec<BatchSlot>,
}

/// Hard cap on slots per batch; larger batches are rejected whole with
/// `bad_request` rather than silently truncated.
pub const MAX_BATCH_ITEMS: usize = 128;

/// Verb-specific payload.
#[derive(Debug, Clone)]
pub enum Payload {
    /// `compile`.
    Compile(CompileSpec),
    /// `simulate`.
    Simulate(SimulateSpec),
    /// `stream`.
    Stream(StreamSpec),
    /// `stats`: windowed quantiles, optionally as Prometheus text.
    Stats {
        /// `"format":"prometheus"` asks for text exposition.
        prometheus: bool,
    },
    /// `batch`.
    Batch(BatchSpec),
    /// `cache_put`: install an already-rendered result object under a
    /// content-addressed key (internal cluster replication).
    CachePut {
        /// The key, sent in its 32-hex-digit [`CacheKey::hex`] form.
        key: CacheKey,
        /// The rendered result-object bytes to install verbatim.
        value: String,
    },
    /// `healthz` / `metrics` / `shutdown` carry no payload.
    Control,
}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response (0 when absent).
    pub id: u64,
    /// The verb.
    pub verb: Verb,
    /// Verb payload.
    pub payload: Payload,
}

/// Hard cap on request line length; longer lines are rejected, never
/// buffered without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

fn policy_from_name(s: &str) -> Option<RuntimePolicy> {
    match s {
        "iced" => Some(RuntimePolicy::IcedDvfs),
        "drips" => Some(RuntimePolicy::Drips),
        "static" => Some(RuntimePolicy::StaticNormal),
        _ => None,
    }
}

/// Display name for a policy, mirrored by `policy_from_name`.
pub fn policy_name(p: RuntimePolicy) -> &'static str {
    match p {
        RuntimePolicy::IcedDvfs => "iced",
        RuntimePolicy::Drips => "drips",
        RuntimePolicy::StaticNormal => "static",
    }
}

fn strategy_from_name(s: &str) -> Option<Strategy> {
    Strategy::ALL.into_iter().find(|st| st.name() == s)
}

fn kernel_from_name(s: &str) -> Option<Kernel> {
    Kernel::ALL.into_iter().find(|k| k.name() == s)
}

fn parse_compile_spec(v: &Value) -> Result<CompileSpec, SvcError> {
    let source = match (v.get("kernel"), v.get("dfg")) {
        (Some(_), Some(_)) => {
            return Err(SvcError::new(
                "bad_request",
                "provide either 'kernel' or 'dfg', not both",
            ))
        }
        (Some(k), None) => {
            let name = k.as_str().ok_or_else(|| {
                SvcError::with_entity("bad_request", "'kernel' must be a string", "kernel")
            })?;
            let kernel = kernel_from_name(name).ok_or_else(|| {
                SvcError::with_entity("unknown_kernel", "no such kernel in the suite", name)
            })?;
            let unroll = match v.get("unroll").map(Value::as_u64) {
                None => UnrollFactor::X1,
                Some(Some(1)) => UnrollFactor::X1,
                Some(Some(2)) => UnrollFactor::X2,
                _ => {
                    return Err(SvcError::with_entity(
                        "bad_request",
                        "'unroll' must be 1 or 2",
                        "unroll",
                    ))
                }
            };
            Source::Named(kernel, unroll)
        }
        (None, Some(d)) => {
            let body = d.as_str().ok_or_else(|| {
                SvcError::with_entity("bad_request", "'dfg' must be a string", "dfg")
            })?;
            Source::Inline(InlineDfg::new(body)?)
        }
        (None, None) => {
            return Err(SvcError::new(
                "bad_request",
                "missing kernel source: provide 'kernel' or 'dfg'",
            ))
        }
    };
    let (strategy, backend) = match v.get("strategy") {
        None => (Strategy::IcedIslands, Backend::Heuristic),
        Some(s) => {
            let name = s.as_str().ok_or_else(|| {
                SvcError::with_entity("bad_request", "'strategy' must be a string", "strategy")
            })?;
            match name {
                // The exact backend certifies the all-normal schedule
                // space; its mappings carry baseline DVFS semantics.
                "exact" => (Strategy::Baseline, Backend::Exact),
                // Alias for the default heuristic: same spec, same cache
                // key, same rendered name as an explicit "iced".
                "heuristic" => (Strategy::IcedIslands, Backend::Heuristic),
                // Size dispatch, resolved here so the cache key and the
                // response bytes match the explicit backend's.
                "auto" => {
                    if iced::exact::auto_prefers_exact(source.node_count()) {
                        (Strategy::Baseline, Backend::Exact)
                    } else {
                        (Strategy::IcedIslands, Backend::Heuristic)
                    }
                }
                _ => {
                    let strategy = strategy_from_name(name).ok_or_else(|| {
                        SvcError::with_entity(
                            "bad_request",
                            "unknown strategy (expected baseline, baseline+pg, per-tile, \
                             iced, heuristic, exact, auto)",
                            name,
                        )
                    })?;
                    (strategy, Backend::Heuristic)
                }
            }
        }
    };
    let max_ii = match v.get("max_ii") {
        None => None,
        Some(n) => Some(
            n.as_u64()
                .filter(|&n| (1..=1024).contains(&n))
                .ok_or_else(|| {
                    SvcError::with_entity(
                        "bad_request",
                        "'max_ii' must be an integer in 1..=1024",
                        "max_ii",
                    )
                })? as u32,
        ),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(n) => Some(n.as_u64().ok_or_else(|| {
            SvcError::with_entity(
                "bad_request",
                "'deadline_ms' must be a non-negative integer",
                "deadline_ms",
            )
        })?),
    };
    Ok(CompileSpec {
        source,
        strategy,
        backend,
        max_ii,
        deadline_ms,
    })
}

fn bounded_u64(v: &Value, key: &str, default: u64, max: u64) -> Result<u64, SvcError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n.as_u64().filter(|&n| n <= max).ok_or_else(|| {
            SvcError::with_entity(
                "bad_request",
                format!("'{key}' must be an integer in 0..={max}"),
                key,
            )
        }),
    }
}

fn parse_simulate_spec(v: &Value) -> Result<SimulateSpec, SvcError> {
    Ok(SimulateSpec {
        compile: parse_compile_spec(v)?,
        iterations: bounded_u64(v, "iterations", 1000, 10_000_000)?.max(1),
        seed: bounded_u64(v, "seed", 0, u64::MAX - 1)?,
    })
}

/// Parses one batch slot. Never fails: malformed slots become
/// [`BatchSlot::Invalid`] so the rest of the batch still runs.
fn parse_batch_item(v: &Value) -> BatchSlot {
    let invalid = |verb, error| BatchSlot::Invalid { verb, error };
    if !matches!(v, Value::Obj(_)) {
        return invalid(
            None,
            SvcError::new("bad_request", "batch item must be a JSON object"),
        );
    }
    let Some(name) = v.get("verb").and_then(Value::as_str) else {
        return invalid(
            None,
            SvcError::new("bad_request", "missing string field 'verb'"),
        );
    };
    match Verb::from_name(name) {
        Some(Verb::Compile) => match parse_compile_spec(v) {
            Ok(spec) => BatchSlot::Elem(BatchElem::Compile(spec)),
            Err(e) => invalid(Some(Verb::Compile), e),
        },
        Some(Verb::Simulate) => match parse_simulate_spec(v) {
            Ok(spec) => BatchSlot::Elem(BatchElem::Simulate(spec)),
            Err(e) => invalid(Some(Verb::Simulate), e),
        },
        Some(other) => invalid(
            Some(other),
            SvcError::with_entity(
                "bad_request",
                "only compile and simulate may appear in a batch",
                name,
            ),
        ),
        None => invalid(
            None,
            SvcError::with_entity("unknown_verb", "unsupported verb", name),
        ),
    }
}

/// A parse failure paired with the request id it belongs to (0 when the
/// id itself could not be recovered), so error responses still correlate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Echoed request id (best effort).
    pub id: u64,
    /// The verb, when parsing got far enough to recover it.
    pub verb: Option<Verb>,
    /// The structured error.
    pub error: SvcError,
}

/// Parses one request line into a typed [`Request`].
///
/// # Errors
///
/// Every malformed input maps to a structured [`RequestError`]; this
/// function never panics on untrusted bytes.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let anon = |error: SvcError| RequestError {
        id: 0,
        verb: None,
        error,
    };
    if line.len() > MAX_LINE_BYTES {
        return Err(anon(SvcError::new(
            "too_large",
            "request line exceeds 1 MiB",
        )));
    }
    let v = json::parse(line).map_err(|e| anon(SvcError::new("bad_json", e.to_string())))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(anon(SvcError::new(
            "bad_request",
            "request must be a JSON object",
        )));
    }
    let id = match v.get("id") {
        None => 0,
        Some(n) => n.as_u64().ok_or_else(|| {
            anon(SvcError::with_entity(
                "bad_request",
                "'id' must be a non-negative integer",
                "id",
            ))
        })?,
    };
    let fail = |error: SvcError| RequestError {
        id,
        verb: None,
        error,
    };
    let verb_name = v
        .get("verb")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(SvcError::new("bad_request", "missing string field 'verb'")))?;
    let verb = Verb::from_name(verb_name).ok_or_else(|| {
        fail(SvcError::with_entity(
            "unknown_verb",
            "unsupported verb",
            verb_name,
        ))
    })?;
    let fail = |error: SvcError| RequestError {
        id,
        verb: Some(verb),
        error,
    };
    let payload = (|| -> Result<Payload, SvcError> {
        Ok(match verb {
            Verb::Compile => Payload::Compile(parse_compile_spec(&v)?),
            Verb::Simulate => Payload::Simulate(parse_simulate_spec(&v)?),
            Verb::Stream => {
                let pipeline = v
                    .get("pipeline")
                    .and_then(Value::as_str)
                    .unwrap_or("gcn")
                    .to_string();
                if !matches!(pipeline.as_str(), "gcn" | "lu" | "sensor" | "stencil") {
                    return Err(SvcError::with_entity(
                        "bad_request",
                        "unknown pipeline (expected gcn, lu, sensor, or stencil)",
                        pipeline,
                    ));
                }
                let policy = match v.get("policy") {
                    None => RuntimePolicy::IcedDvfs,
                    Some(p) => {
                        let name = p.as_str().ok_or_else(|| {
                            SvcError::with_entity(
                                "bad_request",
                                "'policy' must be a string",
                                "policy",
                            )
                        })?;
                        policy_from_name(name).ok_or_else(|| {
                            SvcError::with_entity(
                                "bad_request",
                                "unknown policy (expected iced, drips, static)",
                                name,
                            )
                        })?
                    }
                };
                Payload::Stream(StreamSpec {
                    pipeline,
                    policy,
                    inputs: bounded_u64(&v, "inputs", 64, 100_000)?.max(1) as usize,
                    seed: bounded_u64(&v, "seed", 7, u64::MAX - 1)?,
                })
            }
            Verb::Stats => Payload::Stats {
                prometheus: v.get("format").and_then(Value::as_str) == Some("prometheus"),
            },
            Verb::Batch => {
                let items = v
                    .get("items")
                    .ok_or_else(|| SvcError::new("bad_request", "missing 'items' array"))?;
                let arr = items.as_arr().ok_or_else(|| {
                    SvcError::with_entity("bad_request", "'items' must be an array", "items")
                })?;
                if arr.len() > MAX_BATCH_ITEMS {
                    return Err(SvcError::with_entity(
                        "bad_request",
                        format!(
                            "batch has {} items, more than the {MAX_BATCH_ITEMS} allowed",
                            arr.len()
                        ),
                        "items",
                    ));
                }
                Payload::Batch(BatchSpec {
                    items: arr.iter().map(parse_batch_item).collect(),
                })
            }
            Verb::CachePut => {
                let key = v.get("key").and_then(Value::as_str).ok_or_else(|| {
                    SvcError::with_entity("bad_request", "missing string field 'key'", "key")
                })?;
                let key = CacheKey::from_hex(key).ok_or_else(|| {
                    SvcError::with_entity("bad_request", "'key' must be 32 hex characters", "key")
                })?;
                let value = v.get("value").and_then(Value::as_str).ok_or_else(|| {
                    SvcError::with_entity("bad_request", "missing string field 'value'", "value")
                })?;
                Payload::CachePut {
                    key,
                    value: value.to_string(),
                }
            }
            Verb::Healthz | Verb::Metrics | Verb::Shutdown => Payload::Control,
        })
    })()
    .map_err(fail)?;
    Ok(Request { id, verb, payload })
}

impl CompileSpec {
    /// The mapper options this request runs with. `deadline` is installed
    /// by the worker at execution time, not here.
    pub fn mapper_options(&self) -> MapperOptions {
        let mut opts = self.strategy.mapper_options();
        if let Some(m) = self.max_ii {
            opts.max_ii = m;
        }
        opts
    }

    /// The strategy name rendered in responses: the backend name for
    /// exact requests, the heuristic strategy's name otherwise.
    pub fn strategy_name(&self) -> &'static str {
        match self.backend {
            Backend::Exact => "exact",
            Backend::Heuristic => self.strategy.name(),
        }
    }

    /// The exact-backend options this request certifies under. The
    /// service runs the library defaults (their canonical hash is folded
    /// into the cache key); the per-request deadline is installed by the
    /// worker at execution time, not here.
    pub fn exact_options(&self) -> iced::exact::ExactOptions {
        let mut o = iced::exact::ExactOptions::default();
        if let Some(m) = self.max_ii {
            o.max_ii = m;
        }
        o
    }
}

/// Renders a success envelope. `result` is already-rendered JSON — for
/// cacheable verbs it is exactly the cached byte payload, so warm and
/// cold responses differ only in the `cached` flag and the per-request
/// `req` token.
pub fn render_ok(
    id: u64,
    req: Option<RequestId>,
    verb: Verb,
    cached: bool,
    result: &str,
) -> String {
    let mut o = Obj::new().u64("id", id);
    if let Some(r) = req {
        o = o.str("req", &r.token());
    }
    o.bool("ok", true)
        .str("verb", verb.name())
        .bool("cached", cached)
        .raw("result", result)
        .finish()
}

/// Renders one successful batch slot. `result` is the slot's rendered
/// (and cached) result object — exactly the bytes a standalone request
/// for the same spec would carry, so batch and single-request responses
/// are byte-identical where it matters.
pub fn render_batch_item_ok(verb: Verb, cached: bool, result: &str) -> String {
    Obj::new()
        .bool("ok", true)
        .str("verb", verb.name())
        .bool("cached", cached)
        .raw("result", result)
        .finish()
}

/// Renders one failed batch slot.
pub fn render_batch_item_err(verb: Option<Verb>, err: &SvcError) -> String {
    let mut o = Obj::new().bool("ok", false);
    if let Some(v) = verb {
        o = o.str("verb", v.name());
    }
    o.raw("error", &err.render()).finish()
}

/// Renders the `batch` result object around already-rendered slot items.
pub fn render_batch_result(count: usize, unique: usize, items: &[String]) -> String {
    let mut results = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(item);
    }
    results.push(']');
    Obj::new()
        .u64("count", count as u64)
        .u64("unique", unique as u64)
        .u64("deduped", count.saturating_sub(unique) as u64)
        .raw("results", &results)
        .finish()
}

/// Reads a `batch` result object back by span, the inverse of
/// [`render_batch_result`]: its `unique` count and each slot's exact
/// rendered bytes. `None` unless `result` has that shape.
pub fn read_batch_result(result: &str) -> Option<(u64, Vec<&str>)> {
    let fields = Fields::read(result)?;
    let unique = fields.value("unique")?.as_u64()?;
    Some((unique, json::elements(fields.get("results")?)?))
}

/// Renders an error envelope.
pub fn render_err(id: u64, req: Option<RequestId>, verb: Option<Verb>, err: &SvcError) -> String {
    let mut o = Obj::new().u64("id", id);
    if let Some(r) = req {
        o = o.str("req", &r.token());
    }
    let mut o = o.bool("ok", false);
    if let Some(v) = verb {
        o = o.str("verb", v.name());
    }
    o.raw("error", &err.render()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_compile_request() {
        let r = parse_request(r#"{"id":3,"verb":"compile","kernel":"fir","unroll":2}"#).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.verb, Verb::Compile);
        match r.payload {
            Payload::Compile(c) => {
                assert!(matches!(
                    c.source,
                    Source::Named(Kernel::Fir, UnrollFactor::X2)
                ));
                assert_eq!(c.strategy, Strategy::IcedIslands);
                assert_eq!(c.max_ii, None);
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn strategy_knob_accepts_backend_names() {
        let compile = |strategy: &str| {
            let line = format!(r#"{{"verb":"compile","kernel":"fir","strategy":"{strategy}"}}"#);
            match parse_request(&line).unwrap().payload {
                Payload::Compile(c) => c,
                p => panic!("wrong payload {p:?}"),
            }
        };
        let c = compile("exact");
        assert_eq!(c.backend, Backend::Exact);
        assert_eq!(c.strategy, Strategy::Baseline);
        assert_eq!(c.strategy_name(), "exact");

        // "heuristic" normalizes to the default heuristic, so it shares
        // cache keys and rendered names with an explicit "iced".
        let c = compile("heuristic");
        assert_eq!(c.backend, Backend::Heuristic);
        assert_eq!(c.strategy, Strategy::IcedIslands);
        assert_eq!(c.strategy_name(), "iced");

        // "auto" resolves at parse time by node count.
        let c = compile("auto");
        let nodes = Source::Named(Kernel::Fir, UnrollFactor::X1).node_count();
        let expect = if iced::exact::auto_prefers_exact(nodes) {
            Backend::Exact
        } else {
            Backend::Heuristic
        };
        assert_eq!(c.backend, expect);

        let e =
            parse_request(r#"{"verb":"compile","kernel":"fir","strategy":"optimal"}"#).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert!(e.error.message.contains("exact"), "{}", e.error.message);
        assert!(e.error.message.contains("auto"), "{}", e.error.message);
    }

    #[test]
    fn parses_an_inline_dfg() {
        let dfg = "dfg tiny\nnode n0 add a\nnode n1 add b\nedge n0 n1\n";
        let line = format!(
            r#"{{"id":1,"verb":"compile","dfg":"{}"}}"#,
            dfg.replace('\n', "\\n")
        );
        let r = parse_request(&line).unwrap();
        match r.payload {
            Payload::Compile(c) => {
                let d = c.source.dfg();
                assert_eq!(d.node_count(), 2);
                assert_eq!(d.name(), "tiny");
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn structured_errors_name_the_offender() {
        let e = parse_request(r#"{"id":4,"verb":"compile","kernel":"nope"}"#).unwrap_err();
        assert_eq!(e.id, 4, "payload errors still echo the id");
        assert_eq!(e.error.code, "unknown_kernel");
        assert_eq!(e.error.entity.as_deref(), Some("nope"));

        let e = parse_request(r#"{"verb":"warp"}"#).unwrap_err();
        assert_eq!(e.error.code, "unknown_verb");
        assert_eq!(e.error.entity.as_deref(), Some("warp"));

        let e = parse_request("{nope}").unwrap_err();
        assert_eq!(e.id, 0);
        assert_eq!(e.error.code, "bad_json");

        let e = parse_request(r#"{"verb":"compile"}"#).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
    }

    #[test]
    fn simulate_defaults_are_applied_and_bounded() {
        let r = parse_request(r#"{"verb":"simulate","kernel":"fir"}"#).unwrap();
        match r.payload {
            Payload::Simulate(s) => {
                assert_eq!(s.iterations, 1000);
                assert_eq!(s.seed, 0);
            }
            p => panic!("wrong payload {p:?}"),
        }
        let e = parse_request(r#"{"verb":"simulate","kernel":"fir","iterations":99999999999}"#)
            .unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert_eq!(e.error.entity.as_deref(), Some("iterations"));
    }

    #[test]
    fn stream_parses_policy_and_pipeline() {
        let r = parse_request(r#"{"verb":"stream","pipeline":"lu","policy":"drips","inputs":8}"#)
            .unwrap();
        match r.payload {
            Payload::Stream(s) => {
                assert_eq!(s.pipeline, "lu");
                assert_eq!(s.policy, RuntimePolicy::Drips);
                assert_eq!(s.inputs, 8);
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn envelopes_have_fixed_field_order() {
        assert_eq!(
            render_ok(5, None, Verb::Compile, true, "{\"ii\":2}"),
            r#"{"id":5,"ok":true,"verb":"compile","cached":true,"result":{"ii":2}}"#
        );
        let req = RequestId { conn: 3, seq: 7 };
        assert_eq!(
            render_ok(5, Some(req), Verb::Compile, false, "{\"ii\":2}"),
            r#"{"id":5,"req":"c3-7","ok":true,"verb":"compile","cached":false,"result":{"ii":2}}"#
        );
        let err = SvcError::with_entity("queue_full", "server saturated", "queue");
        assert_eq!(
            render_err(5, Some(req), Some(Verb::Simulate), &err),
            r#"{"id":5,"req":"c3-7","ok":false,"verb":"simulate","error":{"code":"queue_full","message":"server saturated","entity":"queue"}}"#
        );
        assert_eq!(
            render_err(0, None, None, &SvcError::new("bad_json", "oops")),
            r#"{"id":0,"ok":false,"error":{"code":"bad_json","message":"oops"}}"#
        );
    }

    #[test]
    fn request_ids_are_deterministic_and_packable() {
        let r = RequestId { conn: 1, seq: 2 };
        assert_eq!(r.token(), "c1-2");
        assert_eq!(r.to_string(), "c1-2");
        assert_eq!(r.as_u64(), (1 << 32) | 2);
        assert_eq!(RequestId { conn: 0, seq: 9 }.as_u64(), 9);
    }

    #[test]
    fn stats_verb_parses_with_optional_prometheus_format() {
        let r = parse_request(r#"{"id":1,"verb":"stats"}"#).unwrap();
        assert_eq!(r.verb, Verb::Stats);
        assert!(matches!(r.payload, Payload::Stats { prometheus: false }));
        let r = parse_request(r#"{"id":2,"verb":"stats","format":"prometheus"}"#).unwrap();
        assert!(matches!(r.payload, Payload::Stats { prometheus: true }));
    }

    #[test]
    fn batch_parses_slots_independently() {
        let line = r#"{"id":9,"verb":"batch","items":[
            {"verb":"compile","kernel":"fir"},
            {"verb":"simulate","kernel":"fir","iterations":10},
            {"verb":"compile","kernel":"nope"},
            {"verb":"stream","pipeline":"gcn"},
            {"verb":"warp"},
            {"kernel":"fir"},
            7
        ]}"#;
        let r = parse_request(line).unwrap();
        assert_eq!(r.verb, Verb::Batch);
        let Payload::Batch(spec) = r.payload else {
            panic!("wrong payload");
        };
        assert_eq!(spec.items.len(), 7);
        assert!(matches!(
            spec.items[0],
            BatchSlot::Elem(BatchElem::Compile(_))
        ));
        match &spec.items[1] {
            BatchSlot::Elem(BatchElem::Simulate(s)) => assert_eq!(s.iterations, 10),
            s => panic!("wrong slot {s:?}"),
        }
        match &spec.items[2] {
            BatchSlot::Invalid { verb, error } => {
                assert_eq!(*verb, Some(Verb::Compile));
                assert_eq!(error.code, "unknown_kernel");
            }
            s => panic!("wrong slot {s:?}"),
        }
        match &spec.items[3] {
            BatchSlot::Invalid { verb, error } => {
                assert_eq!(*verb, Some(Verb::Stream));
                assert_eq!(error.code, "bad_request");
            }
            s => panic!("wrong slot {s:?}"),
        }
        match &spec.items[4] {
            BatchSlot::Invalid { verb, error } => {
                assert_eq!(*verb, None);
                assert_eq!(error.code, "unknown_verb");
            }
            s => panic!("wrong slot {s:?}"),
        }
        assert!(matches!(
            &spec.items[5],
            BatchSlot::Invalid { verb: None, error } if error.code == "bad_request"
        ));
        assert!(matches!(
            &spec.items[6],
            BatchSlot::Invalid { verb: None, error } if error.code == "bad_request"
        ));
    }

    #[test]
    fn batch_envelope_bounds_are_enforced() {
        let e = parse_request(r#"{"verb":"batch"}"#).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert_eq!(e.verb, Some(Verb::Batch));

        let e = parse_request(r#"{"verb":"batch","items":3}"#).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert_eq!(e.error.entity.as_deref(), Some("items"));

        let slot = r#"{"verb":"compile","kernel":"fir"}"#;
        let many = vec![slot; MAX_BATCH_ITEMS + 1].join(",");
        let e = parse_request(&format!(r#"{{"verb":"batch","items":[{many}]}}"#)).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert!(e.error.message.contains("129 items"), "{}", e.error.message);

        let r = parse_request(r#"{"id":1,"verb":"batch","items":[]}"#).unwrap();
        let Payload::Batch(spec) = r.payload else {
            panic!("wrong payload");
        };
        assert!(spec.items.is_empty());

        // A nested batch is rejected per-slot, not recursed into.
        let r = parse_request(r#"{"verb":"batch","items":[{"verb":"batch","items":[]}]}"#).unwrap();
        let Payload::Batch(spec) = r.payload else {
            panic!("wrong payload");
        };
        assert!(matches!(
            &spec.items[0],
            BatchSlot::Invalid { verb: Some(Verb::Batch), error } if error.code == "bad_request"
        ));
    }

    #[test]
    fn batch_item_and_result_rendering_is_stable() {
        assert_eq!(
            render_batch_item_ok(Verb::Compile, true, "{\"ii\":2}"),
            r#"{"ok":true,"verb":"compile","cached":true,"result":{"ii":2}}"#
        );
        let err = SvcError::with_entity("unknown_kernel", "no such kernel in the suite", "nope");
        assert_eq!(
            render_batch_item_err(Some(Verb::Compile), &err),
            r#"{"ok":false,"verb":"compile","error":{"code":"unknown_kernel","message":"no such kernel in the suite","entity":"nope"}}"#
        );
        assert_eq!(
            render_batch_item_err(None, &SvcError::new("bad_request", "oops")),
            r#"{"ok":false,"error":{"code":"bad_request","message":"oops"}}"#
        );
        let items = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        assert_eq!(
            render_batch_result(5, 2, &items),
            r#"{"count":5,"unique":2,"deduped":3,"results":[{"a":1},{"b":2}]}"#
        );
        assert_eq!(
            render_batch_result(0, 0, &[]),
            r#"{"count":0,"unique":0,"deduped":0,"results":[]}"#
        );
    }

    #[test]
    fn cache_put_parses_and_validates_its_key() {
        let key = "0123456789abcdef0123456789abcdef";
        let line = format!(r#"{{"id":7,"verb":"cache_put","key":"{key}","value":"{{\"ii\":2}}"}}"#);
        let r = parse_request(&line).unwrap();
        assert_eq!(r.verb, Verb::CachePut);
        match r.payload {
            Payload::CachePut { key: k, value } => {
                assert_eq!(k, CacheKey(0x0123_4567_89ab_cdef, 0x0123_4567_89ab_cdef));
                assert_eq!(k.hex(), key);
                assert_eq!(value, "{\"ii\":2}");
            }
            p => panic!("wrong payload {p:?}"),
        }

        let e = parse_request(r#"{"verb":"cache_put","key":"zz","value":"{}"}"#).unwrap_err();
        assert_eq!(e.error.code, "bad_request");
        assert_eq!(e.error.entity.as_deref(), Some("key"));
        let e = parse_request(&format!(r#"{{"verb":"cache_put","key":"{key}"}}"#)).unwrap_err();
        assert_eq!(e.error.entity.as_deref(), Some("value"));
    }

    #[test]
    fn memoized_source_hash_matches_direct_dfg_hash() {
        for k in Kernel::ALL {
            for uf in UnrollFactor::ALL {
                let s = Source::Named(k, uf);
                assert_eq!(s.canonical_hash(), s.dfg().canonical_hash(), "{}", k.name());
            }
        }
        let text = "dfg tiny\nnode n0 add a\n";
        let h = text::parse(text).unwrap().canonical_hash();
        assert_eq!(
            Source::Inline(InlineDfg::new(text).unwrap()).canonical_hash(),
            h
        );
    }

    /// A compile request line carrying `text` as its inline DFG.
    fn inline_line(text: &str) -> String {
        let mut body = String::new();
        json::escape_into(&mut body, text);
        format!(r#"{{"id":1,"verb":"compile","dfg":"{body}"}}"#)
    }

    fn inline_source(line: &str) -> InlineDfg {
        match parse_request(line).expect("valid request").payload {
            Payload::Compile(CompileSpec {
                source: Source::Inline(d),
                ..
            }) => d,
            p => panic!("wrong payload {p:?}"),
        }
    }

    /// `dfg`'s nodes re-declared in a seeded shuffled order: the same
    /// graph under different node ids, so different text.
    fn shuffled(dfg: &Dfg, seed: u64) -> Dfg {
        use iced::dfg::{DfgBuilder, NodeId};
        let n = dfg.node_count();
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
        }
        let mut b = DfgBuilder::new(dfg.name());
        let mut new_id: Vec<Option<NodeId>> = vec![None; n];
        for &old in &order {
            let node = dfg.node(NodeId::from_index(old));
            new_id[old] = Some(b.node(node.op(), node.label()));
        }
        for &old in &order {
            for e in dfg.out_edges(NodeId::from_index(old)) {
                let (s, d) = (new_id[e.src().index()], new_id[e.dst().index()]);
                b.edge(s.expect("inserted"), d.expect("inserted"), e.kind())
                    .expect("edge valid in the shuffled graph");
            }
        }
        b.finish().expect("shuffled graph is the same graph")
    }

    mod memo {
        use super::*;
        use crate::server::request_key;
        use proptest::prelude::*;

        fn cfg() -> u64 {
            iced::arch::CgraConfig::iced_prototype().canonical_hash()
        }

        /// The key a fresh parse plus WL hash derives, bypassing the memo.
        fn fresh_key(line: &str, text: &str) -> crate::cache::CacheKey {
            let mut req = parse_request(line).expect("valid request");
            let Payload::Compile(spec) = &mut req.payload else {
                panic!("not a compile");
            };
            let dfg = text::parse(text).expect("parses");
            let hash = dfg.canonical_hash();
            spec.source = Source::Inline(InlineDfg {
                text: Arc::from(text),
                digest: TextDigest::of(text),
                nodes: dfg.node_count(),
                state: InlineState::Keyed(hash),
            });
            request_key(cfg(), &req).expect("keyed")
        }

        fn generated(seed: u64) -> Option<Dfg> {
            iced::fuzz::gen::generate(seed, &iced::fuzz::gen::GenOptions::small()).ok()
        }

        fn check_memoized_key(seed: u64) {
            let Some(dfg) = generated(seed) else {
                return;
            };
            let text = text::to_text(&dfg);
            let line = inline_line(&text);
            let want = fresh_key(&line, &text);

            // The first sighting parses; keying it fills the memo.
            let first = parse_request(&line).expect("valid");
            assert_eq!(request_key(cfg(), &first), Some(want));
            // The next one is a memo hit: no parse, no WL, same key.
            let hit = inline_source(&line);
            assert!(
                matches!(hit.state, InlineState::Keyed(_)),
                "memo hit must skip the parse"
            );
            assert!(hit.hash_known());
            assert_eq!(hit.node_count(), dfg.node_count());
            let again = parse_request(&line).expect("valid");
            assert_eq!(request_key(cfg(), &again), Some(want));
            // A worker resolving the hit re-parses to the same graph.
            assert_eq!(Source::Inline(hit).try_dfg().expect("re-parses"), dfg);

            // The same graph with its nodes declared in another order is
            // another text (another memo entry) but the same key.
            let permuted = text::to_text(&shuffled(&dfg, seed));
            if permuted != text {
                assert_ne!(TextDigest::of(&permuted), TextDigest::of(&text));
            }
            let pline = inline_line(&permuted);
            let preq = parse_request(&pline).expect("valid");
            assert_eq!(request_key(cfg(), &preq), Some(want));
            assert!(dfg_memo().get(&TextDigest::of(&permuted)).is_some());
            assert!(dfg_memo().get(&TextDigest::of(&text)).is_some());
            assert!(dfg_memo().len() <= DFG_MEMO_CAP);
        }

        fn check_malformed(seed: u64, cut: usize) {
            let Some(dfg) = generated(seed) else {
                return;
            };
            // An edge to a node that does not exist, after a valid prefix
            // of random length.
            let text = text::to_text(&dfg);
            let cut = text
                .char_indices()
                .map(|(i, _)| i)
                .nth(cut)
                .unwrap_or(text.len());
            let bad = format!("{}\nedge n0 n9999\n", &text[..cut]);
            let line = inline_line(&bad);
            for _ in 0..3 {
                let e = parse_request(&line).expect_err("malformed DFG text");
                assert_eq!(e.error.code, "dfg_parse_error");
                assert_eq!(e.verb, Some(Verb::Compile));
                assert!(dfg_memo().get(&TextDigest::of(&bad)).is_none());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn memoized_key_equals_the_freshly_derived_key(seed in any::<u64>()) {
                check_memoized_key(seed);
            }

            #[test]
            fn malformed_text_is_a_typed_error_and_never_memoized(seed in any::<u64>(), cut in 1usize..64) {
                check_malformed(seed, cut);
            }
        }

        #[test]
        fn inline_auto_backend_reads_the_memoized_node_count() {
            let text = "dfg auto_memo\nnode n0 add a\nnode n1 add b\nedge n0 n1\n";
            let line = inline_line(text).replace(
                r#""verb":"compile""#,
                r#""verb":"compile","strategy":"auto""#,
            );
            for _ in 0..2 {
                let Payload::Compile(spec) = parse_request(&line).expect("valid").payload else {
                    panic!("not a compile");
                };
                let want = if iced::exact::auto_prefers_exact(2) {
                    Backend::Exact
                } else {
                    Backend::Heuristic
                };
                assert_eq!(spec.backend, want);
                assert_eq!(spec.source.node_count(), 2);
                let _ = spec.source.canonical_hash();
            }
        }
    }

    #[test]
    fn payload_errors_recover_the_verb_for_the_envelope() {
        let e = parse_request(r#"{"id":4,"verb":"compile","kernel":"nope"}"#).unwrap_err();
        assert_eq!(e.verb, Some(Verb::Compile));
        let e = parse_request(r#"{"verb":"warp"}"#).unwrap_err();
        assert_eq!(e.verb, None);
    }
}
