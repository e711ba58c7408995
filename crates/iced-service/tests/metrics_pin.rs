//! Byte pins for both roles' metric answers. A fixed request script
//! drives one shard, then a router over two fresh shards; the `metrics`,
//! `stats`, Prometheus `stats` and `healthz` results must then match the
//! files under `tests/pins/` byte for byte, once the values that move
//! from run to run are masked: uptimes, the version, the shards'
//! ephemeral addresses and latency timings (histogram counts stay). The
//! `svc_*` iced-trace counters the daemons mirror their metrics into are
//! pinned as totals.
//!
//! The daemons bump their counters on their reactor, worker and router
//! threads, not on the test thread, so the recording collector is
//! installed process-wide; this binary holds this one test so no other
//! traffic reaches it.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use iced::trace::{Phase, RecordingCollector};
use iced_hash::{rendezvous_owner, shard_id};
use iced_service::json::{self, Fields, Layout, Obj};
use iced_service::proto::parse_request;
use iced_service::{request_key, Client, Router, RouterConfig, Server, ServiceConfig};

/// Fields whose values move from run to run.
const MASKED: [&str; 10] = [
    "uptime_s",
    "uptime_ms",
    "version",
    "total_us",
    "mean_us",
    "max_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "log2_us_buckets",
];

fn connect(addr: &str) -> Client {
    Client::connect_retry(addr, Duration::ZERO).expect("connect")
}

fn ask(c: &mut Client, line: &str) -> String {
    c.send(line).expect("send");
    c.recv().expect("response")
}

/// The `result` object of a success envelope.
fn result_of(line: &str) -> String {
    let fields = Fields::read(line).filter(|f| f.is_true("ok"));
    let result = fields.and_then(|f| f.get("result").map(str::to_string));
    result.unwrap_or_else(|| panic!("no result in {line}"))
}

/// Collects the absolute spans of every value under a [`MASKED`] key.
fn masked_spans(text: &str, base: usize, out: &mut Vec<Range<usize>>) {
    let at = |span: &Range<usize>| base + span.start..base + span.end;
    match json::layout(text).expect("valid JSON") {
        Layout::Obj(fields) => {
            for (key, span) in fields {
                if MASKED.contains(&key.as_str()) {
                    out.push(at(&span));
                } else {
                    masked_spans(&text[span.clone()], at(&span).start, out);
                }
            }
        }
        Layout::Arr(elems) => {
            for span in elems {
                masked_spans(&text[span.clone()], at(&span).start, out);
            }
        }
        Layout::Scalar => {}
    }
}

/// `text` with every [`MASKED`] value replaced by `"~"`.
fn mask_json(text: &str) -> String {
    let mut spans = Vec::new();
    masked_spans(text, 0, &mut spans);
    spans.sort_by_key(|s| s.start);
    let (mut out, mut from) = (String::new(), 0);
    for span in spans {
        out.push_str(&text[from..span.start]);
        out.push_str("\"~\"");
        from = span.end;
    }
    out.push_str(&text[from..]);
    out
}

/// The Prometheus body of a `"format":"prometheus"` result, checked to
/// be wrapped exactly as rendered, with uptimes, quantile estimates and
/// latency sums masked.
fn mask_prometheus(result: &str) -> String {
    let body = json::parse(result)
        .ok()
        .and_then(|v| v.get("body")?.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no body in {result}"));
    let wrapped = Obj::new()
        .str("format", "prometheus")
        .str("body", &body)
        .finish();
    assert_eq!(result, wrapped, "prometheus result wrapper");
    let mut out = String::new();
    for line in body.lines() {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        let timing = name.ends_with("_uptime_seconds")
            || name.ends_with("_sum")
            || line.contains("quantile=\"");
        match line.rsplit_once(' ') {
            Some((head, _)) if timing && !line.starts_with('#') => {
                out.push_str(head);
                out.push_str(" ~");
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Compares `got` with the pin file `name`.
fn check(name: &str, got: &str) {
    let path = format!("{}/tests/pins/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let trim = |s: &str| s.trim_end_matches('\n').to_string();
    assert_eq!(trim(got), trim(&want), "{name} drifted");
}

/// Scrapes the four metric answers of the daemon behind `c` and checks
/// each against its pin; `addrs` maps ephemeral addresses to fixed names.
fn check_answers(role: &str, c: &mut Client, addrs: &[(&str, &str)]) {
    let mut pin = |file: &str, line: &str, mask: fn(&str) -> String| {
        let mut text = mask(&result_of(&ask(c, line)));
        for (addr, name) in addrs {
            text = text.replace(&format!("\"{addr}\""), &format!("\"{name}\""));
        }
        check(&format!("{role}.{file}"), &text);
    };
    pin("metrics.json", r#"{"id":90,"verb":"metrics"}"#, mask_json);
    pin("stats.json", r#"{"id":91,"verb":"stats"}"#, mask_json);
    let prometheus = r#"{"id":92,"verb":"stats","format":"prometheus"}"#;
    pin("prometheus.txt", prometheus, mask_prometheus);
    pin("healthz.json", r#"{"id":93,"verb":"healthz"}"#, mask_json);
}

/// One shard, one worker, two connections at most, one unanswered
/// request per connection: every counter the script can move
/// deterministically moves.
fn shard_script() {
    let server = Server::start(ServiceConfig {
        threads: 1,
        queue_cap: 4,
        pipeline: 1,
        max_conns: 2,
        cache_bytes: 1000,
        ..ServiceConfig::default()
    })
    .expect("bind shard");
    let addr = server.local_addr().to_string();
    let mut a = connect(&addr);
    for (line, want) in [
        (
            r#"{"id":1,"verb":"compile","kernel":"fir"}"#,
            "\"cached\":false",
        ),
        (
            r#"{"id":2,"verb":"compile","kernel":"fir"}"#,
            "\"cached\":true",
        ),
        (
            r#"{"id":3,"verb":"simulate","kernel":"fir","iterations":50,"seed":1}"#,
            "\"cached\":false",
        ),
        (
            r#"{"id":4,"verb":"simulate","kernel":"fir","iterations":50,"seed":2}"#,
            "\"cached\":false",
        ),
        (
            r#"{"id":5,"verb":"batch","items":[{"verb":"compile","kernel":"fir"},{"verb":"compile","kernel":"fir"},{"verb":"compile","kernel":"relu"}]}"#,
            "\"unique\":2",
        ),
        (
            r#"{"id":6,"verb":"compile","kernel":"no-such-kernel"}"#,
            "\"unknown_kernel\"",
        ),
        ("not json", "\"ok\":false"),
        (r#"{"id":8,"verb":"stream","kernel":"fir"}"#, "\"ok\":true"),
        (
            r#"{"id":9,"verb":"compile","kernel":"fft"}"#,
            "\"cached\":false",
        ),
        (
            r#"{"id":10,"verb":"compile","kernel":"dtw"}"#,
            "\"cached\":false",
        ),
    ] {
        let resp = ask(&mut a, line);
        assert!(resp.contains(want), "{line} -> {resp}");
    }
    // An oversized line, then two lines in one write past the pipeline
    // cap of one, on a second connection.
    let mut b = connect(&addr);
    let huge = "x".repeat((1 << 20) + 1);
    assert!(ask(&mut b, &huge).contains("\"too_large\""));
    b.send("{\"id\":11,\"verb\":\"healthz\"}\n{\"id\":12,\"verb\":\"healthz\"}")
        .expect("send");
    assert!(b.recv().expect("first").contains("\"ok\":true"));
    assert!(b.recv().expect("second").contains("\"too_many_requests\""));
    // A third connection is refused at the cap; its one line proves the
    // refusal counted.
    let mut refused = connect(&addr);
    let line = refused.recv().expect("refusal line");
    assert!(line.contains("\"too_many_connections\""), "{line}");

    check_answers("shard", &mut a, &[]);
    drop((a, b));
    server.shutdown();
    server.wait();
}

/// A router over two shards, listed owner-first for the fixed key so the
/// per-shard families come out in a fixed order: a miss, two hits (the
/// second replicates the entry to the other shard), a one-shard batch, a
/// request the other shard owns, errors, and a refused connection.
fn router_script() {
    let shards: Vec<Server> = (0..2)
        .map(|_| Server::start(ServiceConfig::default()).expect("bind shard"))
        .collect();
    let mut addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let owner = |line: &str, addrs: &[String]| {
        let req = parse_request(line).expect("valid request");
        let key = request_key(RouterConfig::default().cgra.canonical_hash(), &req).expect("key");
        let ids: Vec<u64> = addrs.iter().map(|a| shard_id(a)).collect();
        rendezvous_owner(key.0, key.1, &ids).expect("two shards")
    };
    let hot = r#"{"id":1,"verb":"compile","kernel":"fir"}"#;
    if owner(hot, &addrs) == 1 {
        addrs.swap(0, 1);
    }
    // A compile the second shard owns: its answer comes after the
    // replicated entry's, so no forward is in flight at the scrape.
    let probe = ["relu", "fft", "dtw", "conv", "mvt", "latnrm", "histogram"]
        .map(|k| format!("{{\"id\":7,\"verb\":\"compile\",\"kernel\":\"{k}\"}}"))
        .into_iter()
        .find(|line| owner(line, &addrs) == 1)
        .expect("a kernel the second shard owns");
    let router = Router::start(RouterConfig {
        shards: addrs.clone(),
        replicate_hot: 2,
        max_conns: 1,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut c = connect(&router.local_addr().to_string());
    for (line, want) in [
        (hot, "\"cached\":false"),
        (hot, "\"cached\":true"),
        (hot, "\"cached\":true"),
        (
            r#"{"id":4,"verb":"batch","items":[{"verb":"compile","kernel":"fir"},{"verb":"compile","kernel":"fir"}]}"#,
            "\"unique\":1",
        ),
        ("not json", "\"ok\":false"),
        (probe.as_str(), "\"cached\":false"),
    ] {
        let resp = ask(&mut c, line);
        assert!(resp.contains(want), "{line} -> {resp}");
    }
    let huge = "x".repeat((1 << 20) + 1);
    assert!(ask(&mut c, &huge).contains("\"too_large\""));
    let mut refused = connect(&router.local_addr().to_string());
    let line = refused.recv().expect("refusal line");
    assert!(line.contains("\"too_many_connections\""), "{line}");

    let names = [
        (addrs[0].as_str(), "shard-a"),
        (addrs[1].as_str(), "shard-b"),
    ];
    check_answers("router", &mut c, &names);
    drop(c);
    router.shutdown();
    router.wait();
    for s in shards {
        s.wait();
    }
}

#[test]
fn metric_answers_and_trace_mirrors_are_pinned() {
    let rec = Arc::new(RecordingCollector::new());
    assert!(iced::trace::install(rec.clone()).is_ok(), "first collector");
    shard_script();
    router_script();
    let mut totals: Vec<(String, u64)> = rec
        .counter_totals()
        .into_iter()
        .filter(|(phase, name, _)| *phase == Phase::Service && name.starts_with("svc_"))
        .map(|(_, name, total)| (name, total))
        .collect();
    totals.sort();
    let text: Vec<String> = totals.iter().map(|(n, t)| format!("{n} {t}")).collect();
    check("trace.txt", &text.join("\n"));
}
