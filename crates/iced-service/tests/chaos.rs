//! Chaos suite: a daemon running with `ICED_SVC_CHAOS` sabotages itself —
//! worker panics, torn response writes, spill-file corruption — while
//! concurrent clients hammer it with over a thousand requests through the
//! shared retrying [`Client`]. The daemon must answer every request with
//! either a success or a structured error, keep its cache honest, and
//! still drain cleanly on shutdown.

use std::time::Duration;

use iced_service::{Client, Server, ServiceConfig};

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 300; // 1200 requests total

fn chaos_server(seed: u64, dir: &std::path::Path) -> Server {
    let cfg = ServiceConfig {
        threads: 4,
        queue_cap: 32,
        // A tiny memory budget keeps entries churning through the spill
        // path, so the corruption site actually gets exercised.
        cache_bytes: 1 << 20,
        cache_dir: Some(dir.to_path_buf()),
        chaos: Some(seed),
        ..ServiceConfig::default()
    };
    Server::start(cfg).expect("bind ephemeral port")
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

#[test]
fn daemon_survives_a_thousand_chaotic_requests() {
    let dir = std::env::temp_dir().join(format!("iced-svc-chaos-suite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = chaos_server(0xC4A05, &dir);
    let addr = server.local_addr().to_string();

    let kernels = ["fir", "relu", "histogram", "mvt"];
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
                    .expect("daemon reachable")
                    .with_salt(ci as u64 + 1)
                    .with_limits(Duration::from_secs(60), 16);
                let (mut ok, mut structured) = (0usize, 0usize);
                for r in 0..PER_CLIENT {
                    // A mix that touches every path: compiles (cacheable),
                    // simulates with a few distinct seeds (hits and
                    // misses), control verbs, and some permanently-bad
                    // requests whose errors must stay structured even
                    // when chaos rages around them.
                    let line = match r % 6 {
                        0 => format!(
                            "{{\"id\":{r},\"verb\":\"compile\",\"kernel\":\"{}\"}}",
                            kernels[r / 6 % kernels.len()]
                        ),
                        1 | 2 => format!(
                            "{{\"id\":{r},\"verb\":\"simulate\",\"kernel\":\"fir\",\
                             \"iterations\":500,\"seed\":{}}}",
                            r % 8
                        ),
                        3 => format!("{{\"id\":{r},\"verb\":\"healthz\"}}"),
                        4 => format!(
                            "{{\"id\":{r},\"verb\":\"compile\",\"kernel\":\"no-such-kernel\"}}"
                        ),
                        _ => format!("{{\"id\":{r},\"verb\":\"metrics\"}}"),
                    };
                    let resp = c
                        .request(&line)
                        .unwrap_or_else(|e| panic!("client {ci} req {r} exhausted: {e}"));
                    if resp.contains("\"ok\":true") {
                        ok += 1;
                    } else {
                        // A permanent failure must be a structured
                        // {code, message} envelope, never silence or noise.
                        assert!(resp.contains("\"ok\":false"), "{resp}");
                        assert!(resp.contains("\"code\":\""), "{resp}");
                        assert!(resp.contains("\"message\":\""), "{resp}");
                        structured += 1;
                    }
                }
                (ok, structured)
            })
        })
        .collect();

    let (mut ok, mut structured) = (0usize, 0usize);
    for h in handles {
        let (o, s) = h.join().expect("chaos client");
        ok += o;
        structured += s;
    }
    assert_eq!(
        ok + structured,
        CLIENTS * PER_CLIENT,
        "every request answered"
    );
    // The deliberately-invalid requests (1 in 6) come back as structured
    // errors; everything else eventually succeeds through the retries.
    assert_eq!(
        structured,
        CLIENTS * PER_CLIENT / 6,
        "only the bad requests fail"
    );

    // The chaos layer really was firing, and the daemon is still healthy.
    let mut probe = Client::connect_retry(&addr, Duration::from_secs(5))
        .expect("daemon still accepting")
        .with_limits(Duration::from_secs(30), 16);
    let metrics = probe
        .request("{\"id\":9000,\"verb\":\"metrics\"}")
        .expect("metrics after the storm");
    let faults = json_u64(&metrics, "chaos_faults");
    assert!(
        faults > 50,
        "expected a storm of injected faults, saw {faults}: {metrics}"
    );

    // Graceful drain still works after all the abuse.
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Escapes a string for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The envelope with its `req` token removed and the `cached` flag
/// normalised: the only fields a replay may change.
fn canonical(resp: &str) -> String {
    let s = resp.replace("\"cached\":false", "\"cached\":true");
    let Some(start) = s.find(",\"req\":\"") else {
        return s;
    };
    let end = start + 8 + s[start + 8..].find('"').expect("req id is terminated");
    format!("{}{}", &s[..start], &s[end + 1..])
}

#[test]
fn daemon_survives_a_corpus_driven_storm() {
    // The fuzzer's corpus hits the daemon: seeded generator kernels plus
    // every committed regression repro, shipped as inline-DFG compile
    // requests while the chaos layer injects worker panics and torn
    // writes. The daemon must answer each with a success or a structured
    // typed error — untrusted DFG text must never crash the service — and
    // replay the same bytes when the corpus is sent again.
    let dir = std::env::temp_dir().join(format!("iced-svc-chaos-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = chaos_server(0xF0CC, &dir);
    let addr = server.local_addr().to_string();

    // Corpus: 32 generated kernels (fixed seed base, independent of the
    // env knobs so the test is hermetic) + the committed regressions +
    // a hostile non-parsing payload.
    let gopts = iced_fuzz::gen::GenOptions::default();
    let mut bodies: Vec<String> = (0..32u64)
        .filter_map(|i| iced_fuzz::gen::generate(0x1CED_F0CC + i, &gopts).ok())
        .map(|dfg| iced_dfg::text::to_text(&dfg))
        .collect();
    assert!(bodies.len() >= 16, "generator rejected too many seeds");
    for repro in iced_fuzz::corpus::builtin_corpus() {
        bodies.push(repro.text.to_string());
    }
    bodies.push("dfg broken\nnode without parts\n".to_string());

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .expect("daemon reachable")
        .with_limits(Duration::from_secs(60), 16);
    let lines: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(r, body)| {
            format!(
                "{{\"id\":{r},\"verb\":\"compile\",\"dfg\":\"{}\"}}",
                json_escape(body)
            )
        })
        .collect();
    let (mut ok, mut structured) = (0usize, 0usize);
    let mut first_pass = Vec::with_capacity(lines.len());
    for (r, line) in lines.iter().enumerate() {
        let resp = c
            .request(line)
            .unwrap_or_else(|e| panic!("corpus req {r} exhausted: {e}"));
        if resp.contains("\"ok\":true") {
            ok += 1;
        } else {
            assert!(resp.contains("\"ok\":false"), "{resp}");
            assert!(resp.contains("\"code\":\""), "{resp}");
            assert!(resp.contains("\"message\":\""), "{resp}");
            structured += 1;
        }
        first_pass.push(canonical(&resp));
    }
    assert_eq!(ok + structured, bodies.len(), "every request answered");
    // A second pass replays the same answers: cache hits, spill
    // recoveries and recomputes after chaos all return the first pass's
    // bytes, apart from the `req` token and the `cached` flag.
    for (r, line) in lines.iter().enumerate() {
        let resp = c
            .request(line)
            .unwrap_or_else(|e| panic!("corpus replay {r} exhausted: {e}"));
        assert_eq!(
            canonical(&resp),
            first_pass[r],
            "corpus req {r} replayed different bytes"
        );
    }
    // The deliberately-broken payload must be a structured parse error,
    // and the well-formed kernels must dominate.
    assert!(structured >= 1, "the broken payload must fail structurally");
    assert!(ok >= bodies.len() / 2, "most corpus kernels compile: {ok}");

    // Chaos really fired, and the daemon drains cleanly afterwards.
    let metrics = c
        .request("{\"id\":9000,\"verb\":\"metrics\"}")
        .expect("metrics after the storm");
    assert!(json_u64(&metrics, "chaos_faults") > 0, "chaos never fired");
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_decisions_are_reproducible_across_daemons() {
    // Two daemons with the same seed take identical fault decisions in
    // sequence: drive each with one single-threaded client and the same
    // request list, and the failure counts must match exactly.
    let run = |port_dir: &str| {
        let dir = std::env::temp_dir().join(format!(
            "iced-svc-chaos-repro-{}-{port_dir}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            threads: 1, // one worker: the decision order is the arrival order
            queue_cap: 8,
            cache_bytes: 1 << 20,
            cache_dir: Some(dir.clone()),
            chaos: Some(0xD1CE),
            ..ServiceConfig::default()
        };
        let server = Server::start(cfg).expect("bind");
        let addr = server.local_addr().to_string();
        let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
            .expect("reach daemon")
            .with_limits(Duration::from_secs(60), 16);
        for r in 0..60 {
            let line = format!(
                "{{\"id\":{r},\"verb\":\"simulate\",\"kernel\":\"fir\",\
                 \"iterations\":200,\"seed\":{}}}",
                r % 5
            );
            c.request(&line).expect("answered eventually");
        }
        let metrics = c
            .request("{\"id\":99,\"verb\":\"metrics\"}")
            .expect("metrics");
        let faults = json_u64(&metrics, "chaos_faults");
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
        faults
    };
    let a = run("a");
    let b = run("b");
    assert!(a > 0, "chaos must have fired");
    assert_eq!(a, b, "same seed, same request sequence, same fault count");
}
