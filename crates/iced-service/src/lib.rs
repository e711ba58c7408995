//! # iced-service — compile-and-simulate daemon
//!
//! A std-only TCP service wrapping the ICED toolchain: clients send
//! newline-delimited JSON requests (`compile`, `simulate`, `stream`, plus
//! the `healthz` / `metrics` / `shutdown` control verbs) and receive
//! newline-delimited JSON responses.
//!
//! The interesting machinery, each in its own module:
//!
//! * [`cache`] — content-addressed result cache keyed by canonical hashes
//!   of the request's semantic inputs, with an LRU byte budget and
//!   optional disk spill. Warm hits replay the cold request's rendered bytes verbatim.
//! * [`queue`] — bounded request queue; saturation produces a typed
//!   `queue_full` response instead of unbounded buffering.
//! * [`server`] — worker pool, per-request mapper
//!   deadlines, a per-shard mapping memo `simulate` reuses across seeds
//!   and iteration counts, batch dedup execution, and graceful shutdown
//!   that drains in-flight work before closing sockets.
//! * `conn` (internal) — the connection core the shard and the router
//!   share: nonblocking accept, incremental newline framing, strict
//!   per-connection response ordering via tickets, interest-driven
//!   buffered writes, per-connection pipeline caps, and a connection
//!   ceiling.
//! * `reactor` (internal) — the shard's readiness loop and line handler
//!   over that core: control verbs, warm hits, batch planning, and the
//!   hand-off to the worker pool.
//! * `memo` (internal) — the bounded, oldest-first memo behind the
//!   inline-DFG key memo and each shard's mapping memo.
//! * `poll` (internal) — `libc`-free `poll(2)` (direct syscall on Linux,
//!   portable degradation elsewhere) plus the loopback wake token the
//!   reactor sleeps on.
//! * [`chaos`] — deterministic fault injection: worker
//!   panics, torn response writes, spill-file corruption; the daemon must
//!   convert all of it into structured errors and keep serving.
//! * [`client`] — reconnecting protocol client with per-request timeouts
//!   and jittered-backoff retries on transient failures, shared by the
//!   test suites.
//! * [`proto`] — verbs, typed request parsing, structured errors, and
//!   deterministic per-request ids (`c<conn>-<seq>`) echoed as `req`.
//! * [`json`] — defensive std-only JSON parsing and deterministic
//!   insertion-ordered serialization.
//! * [`router`] — the cluster layer: `iced-routerd` speaks the same wire
//!   protocol, rendezvous-hashes each request's cache key to one of N
//!   backend shards, forwards over pooled pipelined
//!   connections, splits batches per shard and reassembles them
//!   byte-identically, replicates hot entries to a successor shard,
//!   and fails over when a shard dies.
//! * `metrics` (internal) — the one metrics registry both roles expose
//!   from: each scalar counter or gauge is one row of one table (JSON
//!   key, Prometheus family, kind, help, `stats` field, iced-trace
//!   mirror) over one atomic array, plus per-verb log2 latency
//!   histograms with p50/p95/p99 estimation, a sliding-window view
//!   (`stats` verb), in-flight gauges, and Prometheus text exposition.
//! * [`log`] — leveled JSONL event log written off the request path by
//!   a dedicated thread; request lifecycle, chaos injections, and worker panics all
//!   land here keyed by request id.
//! * [`settings`] — every daemon setting declared once (environment
//!   variable, flag, default, bound, help); both binaries read their
//!   configuration through it and print it with `--help`.

// `deny`, not `forbid`: the poll module carries the only two `unsafe`
// blocks in the workspace (the raw `poll(2)`/`ppoll(2)` syscalls) behind
// an explicit allow; everything else stays unsafe-free at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
mod conn;
pub mod json;
pub mod log;
mod memo;
mod metrics;
#[allow(unsafe_code)]
mod poll;
pub mod proto;
pub mod queue;
mod reactor;
pub mod router;
pub mod server;
pub mod settings;

pub use cache::{CacheKey, ResultCache};
pub use chaos::ChaosInjector;
pub use client::{BatchItem, Client, ClientError};
pub use log::{EventLog, Level};
pub use proto::{Request, RequestId, SvcError, Verb};
pub use queue::{BoundedQueue, PushError};
pub use router::{Router, RouterConfig};
pub use server::{request_key, Server, ServiceConfig};
