//! Observability suite: enriched `healthz`, structured worker-panic
//! errors that carry the request id and panic payload into both the
//! envelope and the JSONL event log, the `stats`/Prometheus expositions
//! over the wire, and reactor-served warm hits accounted like any other.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use iced_service::json::{self, Layout, Value};
use iced_service::{ChaosInjector, Router, RouterConfig, Server, ServiceConfig};

/// A line-oriented test client with no retry discipline — chaos-injected
/// failures must be observed raw, not absorbed.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("send");
        let mut out = String::new();
        let n = self.reader.read_line(&mut out).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        out.trim_end().to_string()
    }
}

fn start(cfg: ServiceConfig) -> (Server, SocketAddr) {
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn healthz_reports_enriched_fields_in_deterministic_order() {
    let (server, addr) = start(ServiceConfig {
        threads: 3,
        queue_cap: 17,
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);
    let health = c.round_trip(r#"{"id":1,"verb":"healthz"}"#);
    assert!(health.contains("\"ok\":true"), "{health}");

    // Every enriched field is present with its configured value…
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"role\":\"shard\""), "{health}");
    assert!(health.contains("\"state\":\"running\""), "{health}");
    assert!(
        health.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{health}"
    );
    assert!(health.contains("\"uptime_s\":"), "{health}");
    assert!(health.contains("\"uptime_ms\":"), "{health}");
    assert!(health.contains("\"threads\":3"), "{health}");
    assert!(health.contains("\"queue_cap\":17"), "{health}");
    assert!(health.contains("\"queue_depth\":"), "{health}");
    assert!(health.contains("\"in_flight\":"), "{health}");
    assert!(health.contains("\"chaos_armed\":false"), "{health}");

    // …and the field order is deterministic, so two probes diff cleanly.
    let fields = [
        "\"status\":",
        "\"role\":",
        "\"state\":",
        "\"version\":",
        "\"uptime_s\":",
        "\"uptime_ms\":",
        "\"threads\":",
        "\"queue_cap\":",
        "\"queue_depth\":",
        "\"in_flight\":",
        "\"chaos_armed\":",
    ];
    let positions: Vec<usize> = fields
        .iter()
        .map(|f| health.find(f).unwrap_or_else(|| panic!("missing {f}")))
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "healthz field order changed: {health}"
    );

    server.shutdown();
    server.wait();
}

/// Every key path of the JSON object `text`, depth first in emission
/// order (`a.b` for nesting, `a[]` for array elements; values ignored).
/// Built on the crate's own [`json::layout`], whose spans give each
/// field's position.
fn key_paths(text: &str) -> Vec<String> {
    fn walk(text: &str, prefix: &str, out: &mut Vec<String>) {
        match json::layout(text).expect("valid JSON") {
            Layout::Obj(fields) => {
                let mut fields: Vec<_> = fields.into_iter().collect();
                fields.sort_by_key(|(_, span)| span.start);
                for (key, span) in fields {
                    let path = if prefix.is_empty() {
                        key
                    } else {
                        format!("{prefix}.{key}")
                    };
                    out.push(path.clone());
                    walk(&text[span], &path, out);
                }
            }
            Layout::Arr(elems) => {
                for span in elems {
                    walk(&text[span], &format!("{prefix}[]"), out);
                }
            }
            Layout::Scalar => {}
        }
    }
    let mut out = Vec::new();
    walk(text, "", &mut out);
    out
}

/// The `result` object of a response line.
fn result_of(line: &str) -> String {
    json::Fields::read(line)
        .and_then(|f| f.get("result").map(str::to_string))
        .unwrap_or_else(|| panic!("no result in {line}"))
}

/// `block.verb.field` for every verb and field, in that nesting order.
fn per_verb(block: &str, verbs: &[&str], fields: &[&str]) -> Vec<String> {
    let mut out = vec![block.to_string()];
    for v in verbs {
        out.push(format!("{block}.{v}"));
        out.extend(fields.iter().map(|f| format!("{block}.{v}.{f}")));
    }
    out
}

/// The shard's `metrics` and `stats` results keep the same keys in the
/// same order, whatever their values: dashboards and the benchmark read
/// them by path.
#[test]
fn metrics_and_stats_key_sequences_are_pinned() {
    let (server, addr) = start(ServiceConfig::default());
    let mut c = Raw::connect(addr);
    let verbs = [
        "compile",
        "simulate",
        "stream",
        "healthz",
        "metrics",
        "shutdown",
        "stats",
        "batch",
        "cache_put",
    ];
    let work = ["compile", "simulate", "stream", "batch"];
    let hist = [
        "count",
        "total_us",
        "mean_us",
        "max_us",
        "p50_us",
        "p95_us",
        "p99_us",
        "log2_us_buckets",
    ];
    let summary = ["count", "mean_us", "max_us", "p50_us", "p95_us", "p99_us"];

    let metrics = result_of(&c.round_trip(r#"{"id":1,"verb":"metrics"}"#));
    let mut want: Vec<String> = [
        "uptime_s",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "map_memo_hits",
        "map_memo_misses",
        "cache_bytes",
        "cache_entries",
        "queue_depth",
        "queue_peak",
        "rejected",
        "errors",
        "connections",
        "conns_open",
        "conns_peak",
        "conns_rejected",
        "max_conns",
        "pipeline_cap",
        "pipeline_rejected",
        "batch_slots",
        "batch_unique",
        "chaos_faults",
        "log_dropped",
        "in_flight",
    ]
    .map(String::from)
    .to_vec();
    want.extend(verbs.iter().map(|v| format!("in_flight.{v}")));
    want.extend(per_verb("latency", &verbs, &hist));
    want.extend(per_verb("queue_wait", &work, &hist));
    want.extend(per_verb("service_time", &work, &hist));
    assert_eq!(key_paths(&metrics), want, "metrics: {metrics}");

    let stats = result_of(&c.round_trip(r#"{"id":2,"verb":"stats"}"#));
    let mut want: Vec<String> = ["role", "uptime_s", "window_seconds", "epoch_seconds"]
        .map(String::from)
        .to_vec();
    want.extend(per_verb("lifetime", &verbs, &summary));
    want.extend(per_verb("window", &verbs, &summary));
    want.extend(
        [
            "connections",
            "connections.open",
            "connections.peak",
            "connections.rejected",
            "connections.max_conns",
            "connections.pipeline_cap",
            "connections.pipeline_rejected",
            "batch",
            "batch.slots",
            "batch.unique",
            "batch.deduped",
        ]
        .map(String::from),
    );
    assert_eq!(key_paths(&stats), want, "stats: {stats}");

    server.shutdown();
    server.wait();
}

#[test]
fn worker_panic_surfaces_structured_error_and_logs_the_payload() {
    // Pick a chaos seed whose very first panic roll fires while the first
    // few write-drop rolls stay quiet, so the error envelope reaches the
    // client intact. Decision streams are deterministic per seed, so this
    // search is stable across runs.
    let seed = (1u64..10_000)
        .find(|&s| {
            let inj = ChaosInjector::new(s);
            inj.worker_panic() && (0..4).all(|_| !inj.drop_write())
        })
        .expect("a suitable chaos seed below 10000");

    let log = std::env::temp_dir().join(format!("iced-svc-obs-panic-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (server, addr) = start(ServiceConfig {
        threads: 1,
        queue_cap: 8,
        chaos: Some(seed),
        log_path: Some(log.clone()),
        ..ServiceConfig::default()
    });

    let mut c = Raw::connect(addr);
    let resp = c.round_trip(r#"{"id":7,"verb":"compile","kernel":"fir"}"#);

    // The lossy "see server log" of old is gone: the envelope itself
    // carries the captured panic payload and the request id.
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"req\":\"c1-1\""), "{resp}");
    assert!(resp.contains("\"code\":\"internal\""), "{resp}");
    assert!(
        resp.contains("request processing panicked: chaos: injected worker panic"),
        "panic payload must reach the client: {resp}"
    );
    assert!(resp.contains("\"entity\":\"c1-1\""), "{resp}");

    server.shutdown();
    server.wait(); // flushes and closes the event log

    let events = std::fs::read_to_string(&log).expect("event log written");
    let panic_line = events
        .lines()
        .find(|l| l.contains("\"event\":\"worker_panic\""))
        .unwrap_or_else(|| panic!("no worker_panic event in log:\n{events}"));
    assert!(panic_line.contains("\"level\":\"error\""), "{panic_line}");
    assert!(panic_line.contains("\"req\":\"c1-1\""), "{panic_line}");
    assert!(panic_line.contains("\"verb\":\"compile\""), "{panic_line}");
    assert!(
        panic_line.contains("\"payload\":\"chaos: injected worker panic\""),
        "{panic_line}"
    );
    // The injection site itself is also on record, same request id.
    let chaos_line = events
        .lines()
        .find(|l| l.contains("\"event\":\"chaos_panic\""))
        .unwrap_or_else(|| panic!("no chaos_panic event in log:\n{events}"));
    assert!(chaos_line.contains("\"req\":\"c1-1\""), "{chaos_line}");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn stats_and_prometheus_expositions_work_over_the_wire() {
    let (server, addr) = start(ServiceConfig {
        threads: 2,
        queue_cap: 8,
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);

    // Generate a little latency history first: a cold compile, a warm
    // replay, and a parse error.
    let cold = c.round_trip(r#"{"id":1,"verb":"compile","kernel":"fir"}"#);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    let warm = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"fir"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    let bad = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"no-such-kernel"}"#);
    assert!(bad.contains("\"unknown_kernel\""), "{bad}");

    // The default stats rendering: lifetime + window summaries per verb.
    let stats = c.round_trip(r#"{"id":4,"verb":"stats"}"#);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    assert!(stats.contains("\"window_seconds\":60"), "{stats}");
    assert!(stats.contains("\"epoch_seconds\":10"), "{stats}");
    assert!(stats.contains("\"lifetime\":"), "{stats}");
    assert!(stats.contains("\"window\":"), "{stats}");
    assert!(stats.contains("\"p99_us\":"), "{stats}");

    // The Prometheus form embeds the text exposition as a JSON string.
    let prom = c.round_trip(r#"{"id":5,"verb":"stats","format":"prometheus"}"#);
    assert!(prom.contains("\"ok\":true"), "{prom}");
    assert!(prom.contains("\"format\":\"prometheus\""), "{prom}");
    for family in [
        "iced_svc_requests_total",
        "iced_svc_request_latency_us",
        "iced_svc_in_flight",
        "iced_svc_cache_hits_total",
        "iced_svc_uptime_seconds",
    ] {
        assert!(prom.contains(family), "missing {family}: {prom}");
    }
    assert!(prom.contains("# TYPE"), "{prom}");

    server.shutdown();
    server.wait();
}

/// Checks `text` against the Prometheus text format and returns its
/// family names in order. Each family has exactly one HELP and one TYPE
/// line, both before its samples; a family's samples are contiguous; a
/// name ends in `_total` exactly when its TYPE is `counter`; and every
/// summary carries `_sum` and `_count` samples.
fn lint_prometheus(text: &str) -> Vec<String> {
    use std::collections::{HashMap, HashSet};
    let mut help: HashSet<&str> = HashSet::new();
    let mut kind: HashMap<&str, &str> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    // Families whose samples have started, and those whose run has ended.
    let mut sampled: HashSet<&str> = HashSet::new();
    let mut closed: HashSet<&str> = HashSet::new();
    let mut current: Option<&str> = None;
    let mut summary_parts: HashSet<(&str, &str)> = HashSet::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(help.insert(name), "second HELP for {name}");
            assert!(!sampled.contains(name), "HELP after samples of {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split(' ');
            let (name, ty) = (words.next().unwrap(), words.next().unwrap());
            assert!(kind.insert(name, ty).is_none(), "second TYPE for {name}");
            assert!(!sampled.contains(name), "TYPE after samples of {name}");
            order.push(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment: {line}");
        let sample = line.split(['{', ' ']).next().unwrap();
        let (family, part) = if kind.contains_key(sample) {
            (sample, "")
        } else {
            ["_sum", "_count"]
                .into_iter()
                .find_map(|suffix| {
                    let base = sample.strip_suffix(suffix)?;
                    (kind.get(base) == Some(&"summary")).then_some((base, suffix))
                })
                .unwrap_or_else(|| panic!("sample before its TYPE line: {line}"))
        };
        assert!(help.contains(family), "sample before its HELP line: {line}");
        if current != Some(family) {
            assert!(!closed.contains(family), "{family} samples split: {line}");
            if let Some(prev) = current {
                closed.insert(prev);
            }
            current = Some(family);
        }
        sampled.insert(family);
        summary_parts.insert((family, part));
    }
    for (name, ty) in &kind {
        assert!(help.contains(name), "{name} has no HELP line");
        assert_eq!(
            name.ends_with("_total"),
            *ty == "counter",
            "{name} is typed {ty}"
        );
        if *ty == "summary" {
            for part in ["_sum", "_count"] {
                assert!(
                    summary_parts.contains(&(*name, part)),
                    "{name} lacks {part}"
                );
            }
        }
    }
    order
}

/// Both roles' Prometheus text passes the format lint, and every family
/// either role has exposed stays exposed.
#[test]
fn prometheus_text_passes_the_format_lint_for_shard_and_router() {
    let (server, addr) = start(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let router = Router::start(RouterConfig {
        shards: vec![addr.to_string()],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut c = Raw::connect(router.local_addr());
    // Some traffic on every path: a cold compile, a warm hit, a batch,
    // and an error.
    for line in [
        r#"{"id":1,"verb":"compile","kernel":"fir"}"#,
        r#"{"id":2,"verb":"compile","kernel":"fir"}"#,
        r#"{"id":3,"verb":"batch","items":[{"verb":"compile","kernel":"fir"}]}"#,
        r#"{"id":4,"verb":"compile","kernel":"no-such-kernel"}"#,
    ] {
        c.round_trip(line);
    }
    let scrape = |addr: SocketAddr| {
        let line =
            Raw::connect(addr).round_trip(r#"{"id":5,"verb":"stats","format":"prometheus"}"#);
        let result = json::parse(&line).expect("JSON");
        let body = result.get("result").and_then(|r| r.get("body"));
        body.and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no body: {line}"))
            .to_string()
    };
    let shard_families = lint_prometheus(&scrape(addr));
    for family in [
        "iced_svc_requests_total",
        "iced_svc_request_latency_us",
        "iced_svc_queue_wait_us",
        "iced_svc_service_time_us",
        "iced_svc_in_flight",
        "iced_svc_cache_hits_total",
        "iced_svc_cache_misses_total",
        "iced_svc_cache_evictions_total",
        "iced_svc_map_memo_hits_total",
        "iced_svc_map_memo_misses_total",
        "iced_svc_rejected_total",
        "iced_svc_errors_total",
        "iced_svc_connections_total",
        "iced_svc_chaos_faults_total",
        "iced_svc_conns_rejected_total",
        "iced_svc_pipeline_rejected_total",
        "iced_svc_batch_slots_total",
        "iced_svc_batch_unique_total",
        "iced_svc_queue_depth",
        "iced_svc_queue_peak",
        "iced_svc_cache_bytes",
        "iced_svc_cache_entries",
        "iced_svc_log_dropped_total",
        "iced_svc_conns_open",
        "iced_svc_conns_peak",
        "iced_svc_max_conns",
        "iced_svc_pipeline_cap",
        "iced_svc_uptime_seconds",
    ] {
        assert!(
            shard_families.iter().any(|f| f == family),
            "shard lost {family}"
        );
    }
    let router_families = lint_prometheus(&scrape(router.local_addr()));
    for family in [
        "iced_router_shard_up",
        "iced_router_forwarded_total",
        "iced_router_replicated_total",
        "iced_router_failover_total",
        "iced_router_errors_total",
        "iced_router_conns_open",
    ] {
        assert!(
            router_families.iter().any(|f| f == family),
            "router lost {family}"
        );
    }

    router.shutdown();
    router.wait();
    server.wait();
}

/// Warm hits the reactor answers inline are first-class requests: they
/// count as cache hits, in the per-verb latency histograms and windows,
/// and as `cached` finishes in the event log — but not in the
/// worker-only queue-wait/service-time split.
#[test]
fn reactor_served_hits_are_counted_and_logged() {
    const HITS: u64 = 6;
    let log = std::env::temp_dir().join(format!("iced-svc-obs-hits-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (server, addr) = start(ServiceConfig {
        threads: 2,
        log_path: Some(log.clone()),
        ..ServiceConfig::default()
    });
    let mut c = Raw::connect(addr);
    let named = r#"{"id":1,"verb":"compile","kernel":"fir"}"#;
    let inline = r#"{"id":2,"verb":"compile","dfg":"dfg obs_hit\nnode n0 ld a\nnode n1 mul b\nnode n2 st c\nedge n0 n1\nedge n1 n2\n"}"#;
    for cold in [named, inline] {
        let resp = c.round_trip(cold);
        assert!(resp.contains("\"cached\":false"), "{resp}");
    }
    for i in 0..HITS {
        let resp = c.round_trip(if i % 2 == 0 { named } else { inline });
        assert!(resp.contains("\"cached\":true"), "{resp}");
    }

    let metrics = json::parse(&c.round_trip(r#"{"id":3,"verb":"metrics"}"#)).expect("JSON");
    let m = metrics.get("result").expect("result");
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(m, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no {path:?} in metrics"))
    };
    assert_eq!(field(&["cache_hits"]), HITS);
    assert_eq!(field(&["cache_misses"]), 2);
    assert_eq!(field(&["latency", "compile", "count"]), HITS + 2);
    assert_eq!(field(&["queue_wait", "compile", "count"]), 2);
    assert_eq!(field(&["service_time", "compile", "count"]), 2);

    let stats = json::parse(&c.round_trip(r#"{"id":4,"verb":"stats"}"#)).expect("JSON");
    let window = stats
        .get("result")
        .and_then(|r| r.get("window"))
        .and_then(|w| w.get("compile"))
        .and_then(|w| w.get("count"))
        .and_then(Value::as_u64);
    assert_eq!(window, Some(HITS + 2), "hits land in the sliding window");

    server.shutdown();
    server.wait(); // flushes and closes the event log
    let events = std::fs::read_to_string(&log).expect("event log written");
    let cached: Vec<&str> = events
        .lines()
        .filter(|l| {
            l.contains("\"event\":\"request_finish\"") && l.contains("\"outcome\":\"cached\"")
        })
        .collect();
    assert_eq!(cached.len() as u64, HITS, "{events}");
    for line in &cached {
        assert!(line.contains("\"verb\":\"compile\""), "{line}");
        assert!(line.contains("\"req\":\"c1-"), "{line}");
        assert!(line.contains("\"total_us\":"), "{line}");
    }
    let _ = std::fs::remove_file(&log);
}
