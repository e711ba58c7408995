//! Acceptance e2e for the service observability layer: a live daemon with
//! the JSONL event log enabled serves mixed cold/warm/erroring traffic,
//! and every response's request id must be found again in the event log
//! with the matching verb and outcome; the `stats` verb must report
//! ordered quantiles whose counts agree with the lifetime histogram.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use iced_service::{Server, ServiceConfig};

/// A line-oriented test client (no retries: every envelope is observed).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
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

/// The `"req":"cN-M"` token of an envelope, quotes included so later
/// substring matches are exact (`"c1-3"` never matches `"c1-30"`).
fn req_token(resp: &str) -> String {
    let at = resp
        .find("\"req\":\"")
        .unwrap_or_else(|| panic!("no req token in {resp}"));
    let rest = &resp[at + "\"req\":\"".len()..];
    let end = rest.find('"').expect("terminated token");
    format!("\"{}\"", &rest[..end])
}

/// Extracts `"field":<u64>` from a flat JSON rendering.
fn json_u64(s: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let at = s.find(&tag).unwrap_or_else(|| panic!("no {field} in {s}"));
    s[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("digits after field")
}

/// The flat sub-object rendered for `inner` within the `outer` section.
/// Summaries hold no nested objects, so the next `}` closes them.
fn section<'a>(s: &'a str, outer: &str, inner: &str) -> &'a str {
    let o = s
        .find(&format!("\"{outer}\":"))
        .unwrap_or_else(|| panic!("no {outer} section in {s}"));
    let tag = format!("\"{inner}\":{{");
    let i = s[o..]
        .find(&tag)
        .unwrap_or_else(|| panic!("no {inner} inside {outer}: {s}"));
    let start = o + i + tag.len() - 1;
    let end = s[start..].find('}').expect("closed object") + start;
    &s[start..=end]
}

#[test]
fn request_ids_correlate_responses_with_the_event_log() {
    let log = std::env::temp_dir().join(format!("iced-svc-obs-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let server = Server::start(ServiceConfig {
        threads: 2,
        queue_cap: 16,
        log_path: Some(log.clone()),
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut c = Client::connect(addr);

    // Mixed traffic. Each entry records the expected event-log evidence:
    // (req token, verb, event, outcome-or-code fragment).
    let mut expect: Vec<(String, &'static str, &'static str, &'static str)> = Vec::new();

    let cold = c.round_trip(r#"{"id":1,"verb":"compile","kernel":"fir"}"#);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    expect.push((
        req_token(&cold),
        "compile",
        "request_finish",
        "\"outcome\":\"ok\"",
    ));

    let cold2 = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"latnrm"}"#);
    assert!(cold2.contains("\"cached\":false"), "{cold2}");
    expect.push((
        req_token(&cold2),
        "compile",
        "request_finish",
        "\"outcome\":\"ok\"",
    ));

    let warm = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"fir"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    expect.push((
        req_token(&warm),
        "compile",
        "request_finish",
        "\"outcome\":\"cached\"",
    ));

    let sim =
        c.round_trip(r#"{"id":4,"verb":"simulate","kernel":"fir","iterations":500,"seed":3}"#);
    assert!(sim.contains("\"ok\":true"), "{sim}");
    expect.push((
        req_token(&sim),
        "simulate",
        "request_finish",
        "\"outcome\":\"ok\"",
    ));

    let health = c.round_trip(r#"{"id":5,"verb":"healthz"}"#);
    assert!(health.contains("\"ok\":true"), "{health}");
    expect.push((
        req_token(&health),
        "healthz",
        "request_finish",
        "\"outcome\":\"ok\"",
    ));

    // Reader-level error: the verb parsed but the kernel does not exist.
    let bad = c.round_trip(r#"{"id":6,"verb":"compile","kernel":"no-such-kernel"}"#);
    assert!(bad.contains("\"unknown_kernel\""), "{bad}");
    expect.push((
        req_token(&bad),
        "compile",
        "request_error",
        "\"code\":\"unknown_kernel\"",
    ));

    // Worker-level error: an impossible deadline fails inside the mapper.
    let dead = c.round_trip(
        r#"{"id":7,"verb":"compile","kernel":"fft","unroll":2,"strategy":"baseline","deadline_ms":0}"#,
    );
    assert!(dead.contains("\"deadline_exceeded\""), "{dead}");
    expect.push((
        req_token(&dead),
        "compile",
        "request_error",
        "\"code\":\"deadline_exceeded\"",
    ));

    // Quantile view: p50 ≤ p95 ≤ p99 ≤ max, and the lifetime count agrees
    // with the log2 bucket sum the `metrics` verb exposes.
    let stats = c.round_trip(r#"{"id":8,"verb":"stats"}"#);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    expect.push((
        req_token(&stats),
        "stats",
        "request_finish",
        "\"outcome\":\"ok\"",
    ));
    let life = section(&stats, "lifetime", "compile");
    let (p50, p95, p99) = (
        json_u64(life, "p50_us"),
        json_u64(life, "p95_us"),
        json_u64(life, "p99_us"),
    );
    assert!(p50 <= p95 && p95 <= p99, "quantiles out of order: {life}");
    assert!(p99 <= json_u64(life, "max_us"), "p99 above max: {life}");
    assert!(p99 > 0, "compiles ran, p99 must be non-zero: {life}");

    let metrics = c.round_trip(r#"{"id":9,"verb":"metrics"}"#);
    let hist = section(&metrics, "latency", "compile");
    let buckets_tag = "\"log2_us_buckets\":[";
    let b0 = hist
        .find(buckets_tag)
        .unwrap_or_else(|| panic!("no buckets in {hist}"))
        + buckets_tag.len();
    let b1 = hist[b0..].find(']').expect("closed array") + b0;
    let bucket_sum: u64 = hist[b0..b1]
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<u64>().expect("bucket count"))
        .sum();
    let life_count = json_u64(life, "count");
    assert_eq!(
        bucket_sum, life_count,
        "stats lifetime count must equal the histogram bucket sum"
    );
    // cold + cold2 + warm + dead all landed on the compile histogram.
    assert_eq!(life_count, 4, "{life}");

    server.shutdown();
    server.wait(); // flushes and closes the event log

    // (a) Every response's request id shows up in the log with the
    // matching verb and outcome.
    let events = std::fs::read_to_string(&log).expect("event log written");
    for (req, verb, event, detail) in &expect {
        let tag = format!("\"req\":{req}");
        let line = events
            .lines()
            .find(|l| l.contains(&format!("\"event\":\"{event}\"")) && l.contains(&tag))
            .unwrap_or_else(|| panic!("no {event} with req {req} in log:\n{events}"));
        assert!(
            line.contains(&format!("\"verb\":\"{verb}\"")),
            "wrong verb for {req}: {line}"
        );
        assert!(line.contains(detail), "missing {detail} for {req}: {line}");
    }
    // Lifecycle events bracket the run.
    assert!(events.contains("\"event\":\"server_start\""), "{events}");
    assert!(events.contains("\"event\":\"server_stop\""), "{events}");
    let _ = std::fs::remove_file(&log);
}
