//! End-to-end tests against a live daemon on an ephemeral port: concurrent
//! clients, warm-vs-cold byte identity, backpressure, graceful shutdown,
//! and malformed-input robustness.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iced_service::{Server, ServiceConfig};

/// A line-oriented test client.
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

    fn send(&mut self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        line.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn start(threads: usize, queue_cap: usize) -> (Server, SocketAddr) {
    let cfg = ServiceConfig {
        threads,
        queue_cap,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

/// Removes the per-request `"req":"cN-M"` token so envelopes from
/// different requests can be compared byte-for-byte.
fn strip_req(envelope: &str) -> String {
    match (envelope.find(",\"req\":\""), envelope.find("\",\"ok\"")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &envelope[..a], &envelope[b + 1..]),
        _ => envelope.to_string(),
    }
}

/// The `result` payload of a success envelope (everything the cache
/// stores). Panics if the response is not a success envelope.
fn result_payload(response: &str) -> &str {
    let idx = response
        .find("\"result\":")
        .unwrap_or_else(|| panic!("no result field in {response}"));
    &response[idx + "\"result\":".len()..response.len() - 1]
}

#[test]
fn eight_concurrent_clients_all_get_correct_answers() {
    let (server, addr) = start(4, 64);
    let kernels = [
        "fir",
        "latnrm",
        "fft",
        "dtw",
        "conv",
        "relu",
        "histogram",
        "mvt",
    ];
    let handles: Vec<_> = kernels
        .iter()
        .enumerate()
        .map(|(i, &kernel)| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                // Interleave a control verb to exercise the inline path.
                let health = c.round_trip(&format!("{{\"id\":{i},\"verb\":\"healthz\"}}"));
                assert!(health.contains("\"ok\":true"), "{health}");
                let id = 100 + i;
                let resp = c.round_trip(&format!(
                    "{{\"id\":{id},\"verb\":\"compile\",\"kernel\":\"{kernel}\"}}"
                ));
                assert!(resp.contains("\"ok\":true"), "{kernel}: {resp}");
                assert!(
                    resp.starts_with(&format!("{{\"id\":{id},")),
                    "id must echo: {resp}"
                );
                assert!(resp.contains("\"ii\":"), "{resp}");
                assert!(resp.contains("\"bitstream_words\":"), "{resp}");
                resp
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
    server.wait();
}

#[test]
fn warm_cache_replays_cold_bytes_verbatim() {
    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    let req = r#"{"id":1,"verb":"compile","kernel":"fft","unroll":2}"#;

    let t_cold = Instant::now();
    let cold = c.round_trip(req);
    let cold_latency = t_cold.elapsed();
    assert!(cold.contains("\"cached\":false"), "{cold}");

    let t_warm = Instant::now();
    let warm = c.round_trip(req);
    let warm_latency = t_warm.elapsed();
    assert!(warm.contains("\"cached\":true"), "{warm}");

    // The payload must be byte-identical; only the cached marker and the
    // per-request id differ.
    assert_eq!(result_payload(&cold), result_payload(&warm));
    assert_eq!(
        strip_req(&cold).replace("\"cached\":false", "\"cached\":true"),
        strip_req(&warm),
        "envelopes differ beyond the cached flag and req token"
    );
    // A warm hit skips the mapper entirely; even allowing wild scheduler
    // noise it must undercut the cold compile.
    assert!(
        warm_latency < cold_latency,
        "warm {warm_latency:?} not faster than cold {cold_latency:?}"
    );

    // Same kernel requested through a second connection also hits.
    let mut c2 = Client::connect(addr);
    let again = c2.round_trip(req);
    assert!(again.contains("\"cached\":true"), "{again}");
    assert_eq!(result_payload(&cold), result_payload(&again));

    // An equivalent request with different serving knobs (deadline) is
    // the same content address — still a hit.
    let knob =
        c.round_trip(r#"{"id":9,"verb":"compile","kernel":"fft","unroll":2,"deadline_ms":60000}"#);
    assert!(knob.contains("\"cached\":true"), "{knob}");

    server.shutdown();
    server.wait();
}

#[test]
fn saturated_queue_answers_queue_full_not_silence() {
    // One worker, queue bound 1: pipelining several slow jobs must
    // overflow deterministically.
    let (server, addr) = start(1, 1);
    let mut c = Client::connect(addr);
    for i in 0..4 {
        // Nothing is cached until the first search ends; its fixed
        // 200,000 nodes keep the worker busy long after the pipelined
        // lines land.
        c.send(&format!(
            "{{\"id\":{i},\"verb\":\"compile\",\"kernel\":\"fft\",\"strategy\":\"exact\"}}"
        ));
    }
    let responses: Vec<String> = (0..4).map(|_| c.recv()).collect();
    let full = responses
        .iter()
        .filter(|r| r.contains("\"code\":\"queue_full\""))
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.contains("\"ok\":true"))
        .count();
    assert!(full >= 1, "expected at least one queue_full: {responses:?}");
    assert!(ok >= 1, "expected at least one success: {responses:?}");
    assert_eq!(full + ok, 4, "every request gets exactly one answer");
    // Backpressure responses carry the retry contract fields.
    let reject = responses.iter().find(|r| r.contains("queue_full")).unwrap();
    assert!(reject.contains("\"ok\":false"), "{reject}");
    assert!(reject.contains("\"message\":"), "{reject}");

    // The server is still healthy afterwards.
    let health = c.round_trip(r#"{"id":50,"verb":"healthz"}"#);
    assert!(health.contains("\"ok\":true"), "{health}");
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_in_flight_work_before_closing() {
    let (server, addr) = start(1, 4);
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);

    // A's job occupies the single worker for a while. Wait until the
    // worker has picked it up, as the daemon's own in-flight gauge says.
    a.send(r#"{"id":1,"verb":"compile","kernel":"fft","strategy":"exact"}"#);
    let give_up = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = b.round_trip(r#"{"id":9,"verb":"metrics"}"#);
        let in_flight = metrics
            .split_once("\"in_flight\":{")
            .and_then(|(_, rest)| rest.split_once('}'))
            .map_or("", |(obj, _)| obj);
        if in_flight.contains("\"compile\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "compile never went in flight: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // B asks for shutdown and is answered immediately.
    let bye = b.round_trip(r#"{"id":2,"verb":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(bye.contains("\"state\":\"draining\""), "{bye}");

    // New work is refused while draining…
    let refused = b.round_trip(r#"{"id":3,"verb":"compile","kernel":"fir"}"#);
    assert!(refused.contains("\"shutting_down\""), "{refused}");

    // …but A's accepted request still completes before sockets close.
    let slow = a.recv();
    assert!(slow.contains("\"ok\":true"), "in-flight dropped: {slow}");
    assert!(slow.contains("\"nodes_explored\":"), "{slow}");

    server.wait();

    // After the drain the daemon is really gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener should be closed after wait()"
    );
}

#[test]
fn malformed_input_never_kills_the_server() {
    let (server, addr) = start(2, 8);
    let mut c = Client::connect(addr);
    let garbage: &[&str] = &[
        "{",
        "}",
        "garbage",
        "\"just a string\"",
        "[1,2,3]",
        "{\"verb\":42}",
        "{\"verb\":\"compile\"}",
        "{\"verb\":\"compile\",\"kernel\":\"fir\",\"dfg\":\"dfg x\"}",
        "{\"verb\":\"compile\",\"kernel\":\"no-such-kernel\"}",
        "{\"verb\":\"compile\",\"dfg\":\"node without header\"}",
        "{\"id\":-5,\"verb\":\"healthz\"}",
        "{\"id\":1,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":1e300}",
        "{\"verb\":\"stream\",\"pipeline\":\"warp-drive\"}",
        "{\"id\":1,\"verb\":\"compile\",\"kernel\":\"fir\",\"unroll\":7}",
        "\\u0000\\u0001",
    ];
    for (i, g) in garbage.iter().enumerate() {
        let resp = c.round_trip(g);
        assert!(
            resp.contains("\"ok\":false"),
            "garbage #{i} {g:?} got {resp}"
        );
        assert!(resp.contains("\"code\":"), "garbage #{i}: {resp}");
    }

    // Truncated JSON mid-string, deep nesting, and an over-long line.
    let deep = "[".repeat(200) + &"]".repeat(200);
    let resp = c.round_trip(&deep);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    let huge = format!(
        "{{\"verb\":\"compile\",\"pad\":\"{}\"}}",
        "x".repeat(2 << 20)
    );
    let resp = c.round_trip(&huge);
    assert!(resp.contains("too_large"), "{resp}");

    // A raw binary blast (invalid UTF-8) on a fresh connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");

    // After all that abuse the daemon still does real work.
    let resp = c.round_trip(r#"{"id":77,"verb":"compile","kernel":"fir"}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let metrics = c.round_trip(r#"{"id":78,"verb":"metrics"}"#);
    assert!(metrics.contains("\"errors\":"), "{metrics}");
    server.shutdown();
    server.wait();
}

#[test]
fn stream_and_simulate_verbs_return_reports() {
    let (server, addr) = start(2, 8);
    let mut c = Client::connect(addr);
    let sim =
        c.round_trip(r#"{"id":1,"verb":"simulate","kernel":"fir","iterations":1000,"seed":3}"#);
    assert!(sim.contains("\"ok\":true"), "{sim}");
    assert!(sim.contains("\"cycles\":"), "{sim}");
    assert!(sim.contains("\"fu_activity\":"), "{sim}");

    let stream = c.round_trip(
        r#"{"id":2,"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
    );
    assert!(stream.contains("\"ok\":true"), "{stream}");
    assert!(stream.contains("\"throughput\":"), "{stream}");
    assert!(stream.contains("\"perf_per_watt\":"), "{stream}");

    // Stream results are cached too.
    let warm = c.round_trip(
        r#"{"id":3,"verb":"stream","pipeline":"gcn","policy":"iced","inputs":20,"seed":5}"#,
    );
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(result_payload(&stream), result_payload(&warm));

    // A tiny mapping deadline surfaces as a typed error, not a hang.
    let dead = c.round_trip(
        r#"{"id":4,"verb":"compile","kernel":"fft","unroll":2,"strategy":"baseline","deadline_ms":0}"#,
    );
    assert!(dead.contains("\"deadline_exceeded\""), "{dead}");
    server.shutdown();
    server.wait();
}

#[test]
fn exact_strategy_is_certified_cache_keyed_and_byte_stable() {
    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    // Warm the heuristic entry first: the exact request for the same
    // kernel must not hit it — the backend is part of the cache key.
    let heur = c.round_trip(r#"{"id":1,"verb":"compile","kernel":"relu"}"#);
    assert!(heur.contains("\"cached\":false"), "{heur}");
    assert!(heur.contains("\"strategy\":\"iced\""), "{heur}");
    assert!(
        !heur.contains("\"proof\":"),
        "heuristic payloads carry no proof: {heur}"
    );
    let cold = c.round_trip(r#"{"id":2,"verb":"compile","kernel":"relu","strategy":"exact"}"#);
    assert!(
        cold.contains("\"cached\":false"),
        "exact warm-hit a heuristic entry: {cold}"
    );
    assert!(cold.contains("\"strategy\":\"exact\""), "{cold}");
    assert!(cold.contains("\"proof\":"), "{cold}");
    assert!(cold.contains("\"lower_bound\":"), "{cold}");
    assert!(cold.contains("\"nodes_explored\":"), "{cold}");

    // Warm exact responses replay the cold bytes verbatim.
    let warm = c.round_trip(r#"{"id":3,"verb":"compile","kernel":"relu","strategy":"exact"}"#);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(result_payload(&cold), result_payload(&warm));

    // "heuristic" aliases the default heuristic: same cache entry and
    // the same rendered bytes as the implicit/explicit "iced" request.
    let alias = c.round_trip(r#"{"id":4,"verb":"compile","kernel":"relu","strategy":"heuristic"}"#);
    assert!(alias.contains("\"cached\":true"), "{alias}");
    assert_eq!(result_payload(&heur), result_payload(&alias));

    // "auto" resolves by node count and shares the resolved backend's
    // cache entry — whichever side of the threshold relu falls on.
    let nodes = iced::kernels::Kernel::Relu
        .dfg(iced::kernels::UnrollFactor::X1)
        .node_count();
    let auto = c.round_trip(r#"{"id":5,"verb":"compile","kernel":"relu","strategy":"auto"}"#);
    assert!(auto.contains("\"cached\":true"), "{auto}");
    let expected = if iced::exact::auto_prefers_exact(nodes) {
        &cold
    } else {
        &heur
    };
    assert_eq!(result_payload(expected), result_payload(&auto));

    // The extended knob keeps its typed rejection for unknown names.
    let bad = c.round_trip(r#"{"id":6,"verb":"compile","kernel":"relu","strategy":"optimal"}"#);
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(
        bad.contains("exact"),
        "error must list the new names: {bad}"
    );

    server.shutdown();
    server.wait();
}

/// The envelope with its `req` token removed and the `cached` flag
/// normalised: what must match between two daemons' answers.
fn canonical(envelope: &str) -> String {
    strip_req(envelope).replace("\"cached\":true", "\"cached\":false")
}

/// The answer a fresh daemon gives `line` as its only request.
fn fresh_answer(line: &str) -> String {
    let (server, addr) = start(1, 4);
    let resp = Client::connect(addr).round_trip(line);
    server.shutdown();
    server.wait();
    resp
}

/// A counter from the shard's `metrics`.
fn counter(c: &mut Client, name: &str) -> u64 {
    let metrics = c.round_trip(r#"{"id":0,"verb":"metrics"}"#);
    iced_service::json::parse(&metrics)
        .ok()
        .and_then(|m| m.get("result")?.get(name)?.as_u64())
        .unwrap_or_else(|| panic!("no {name} in {metrics}"))
}

/// `(map_memo_misses, map_memo_hits)`.
fn memo_counters(c: &mut Client) -> (u64, u64) {
    (counter(c, "map_memo_misses"), counter(c, "map_memo_hits"))
}

/// `simulate` bodies over two kernels, three seeds and two iteration
/// counts, grouped by kernel.
fn simulate_bodies() -> Vec<(&'static str, String)> {
    let mut bodies = Vec::new();
    for kernel in ["fir", "fft"] {
        for iterations in [300, 1000] {
            for seed in [1, 2, 3] {
                bodies.push((
                    kernel,
                    format!(
                        "\"verb\":\"simulate\",\"kernel\":\"{kernel}\",\"iterations\":{iterations},\"seed\":{seed}"
                    ),
                ));
            }
        }
    }
    bodies
}

/// A shard maps each kernel once and reuses that mapping for every other
/// seed and iteration count: one memo miss per kernel, a hit for every
/// later simulate computation, and answers byte-identical to a fresh
/// daemon's, for standalone requests and batch slots alike.
#[test]
fn simulate_maps_each_kernel_once_and_answers_as_a_fresh_daemon() {
    let bodies = simulate_bodies();
    let fresh: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, (_, body))| fresh_answer(&format!("{{\"id\":{i},{body}}}")))
        .collect();

    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    let mut kernels_seen: Vec<&str> = Vec::new();
    for (i, (kernel, body)) in bodies.iter().enumerate() {
        let resp = c.round_trip(&format!("{{\"id\":{i},{body}}}"));
        assert!(resp.contains("\"cached\":false"), "{resp}");
        assert_eq!(canonical(&resp), canonical(&fresh[i]), "{body}");
        if !kernels_seen.contains(kernel) {
            kernels_seen.push(kernel);
        }
        let misses = kernels_seen.len() as u64;
        assert_eq!(
            memo_counters(&mut c),
            (misses, i as u64 + 1 - misses),
            "after {body}"
        );
    }
    // A result-cache hit computes nothing, so it touches no memo counter:
    // over a simulate-only drive hits + misses is the computation count.
    let again = c.round_trip(&format!("{{\"id\":0,{}}}", bodies[0].1));
    assert!(again.contains("\"cached\":true"), "{again}");
    let (misses, hits) = memo_counters(&mut c);
    assert_eq!((misses, hits), (2, bodies.len() as u64 - 2));
    assert_eq!(misses + hits, counter(&mut c, "cache_misses"));
    server.shutdown();
    server.wait();

    // One batch of every spec on another daemon: each slot carries the
    // fresh daemon's result bytes, and the batch mapped each kernel once.
    let (server, addr) = start(2, 16);
    let mut c = Client::connect(addr);
    let items: Vec<String> = bodies.iter().map(|(_, b)| format!("{{{b}}}")).collect();
    let resp = c.round_trip(&format!(
        "{{\"id\":1,\"verb\":\"batch\",\"items\":[{}]}}",
        items.join(",")
    ));
    let slots: Vec<String> = fresh
        .iter()
        .map(|f| {
            format!(
                "{{\"ok\":true,\"verb\":\"simulate\",\"cached\":false,\"result\":{}}}",
                result_payload(f)
            )
        })
        .collect();
    assert!(
        resp.contains(&format!("\"results\":[{}]", slots.join(","))),
        "batch slots differ from fresh answers: {resp}"
    );
    assert_eq!(memo_counters(&mut c), (2, bodies.len() as u64 - 2));
    server.shutdown();
    server.wait();
}

/// A mapping that missed its deadline is not memoized: the next request
/// maps again and succeeds. Once memoized, a mapping serves even a
/// zero deadline, because a memo hit does no mapping work.
#[test]
fn a_deadline_failure_is_never_memoized() {
    let body = |seed: u64, deadline: &str| {
        format!(
            "{{\"id\":{seed},\"verb\":\"simulate\",\"kernel\":\"fft\",\"unroll\":2,\"strategy\":\"baseline\",\"iterations\":500,\"seed\":{seed}{deadline}}}"
        )
    };
    let (server, addr) = start(1, 8);
    let mut c = Client::connect(addr);
    let dead = c.round_trip(&body(1, ",\"deadline_ms\":0"));
    assert!(dead.contains("\"deadline_exceeded\""), "{dead}");
    assert_eq!(memo_counters(&mut c), (1, 0));

    let ok = c.round_trip(&body(1, ""));
    assert!(ok.contains("\"ok\":true"), "{ok}");
    assert!(ok.contains("\"cached\":false"), "{ok}");
    assert_eq!(memo_counters(&mut c), (2, 0), "the failure was memoized");
    assert_eq!(canonical(&ok), canonical(&fresh_answer(&body(1, ""))));

    let hit = c.round_trip(&body(2, ",\"deadline_ms\":0"));
    assert!(hit.contains("\"ok\":true"), "{hit}");
    assert_eq!(memo_counters(&mut c), (2, 1));
    assert_eq!(canonical(&hit), canonical(&fresh_answer(&body(2, ""))));
    server.shutdown();
    server.wait();
}

/// The exact and the heuristic backend map the same kernel under
/// different compile keys, so each keeps its own memo entry.
#[test]
fn exact_and_heuristic_simulates_keep_separate_mappings() {
    let body = |strategy: &str, seed: u64| {
        format!(
            "{{\"id\":{seed},\"verb\":\"simulate\",\"kernel\":\"fir\",\"strategy\":\"{strategy}\",\"iterations\":400,\"seed\":{seed}}}"
        )
    };
    let (server, addr) = start(1, 8);
    let mut c = Client::connect(addr);
    for (round, seed) in [1, 2].into_iter().enumerate() {
        for strategy in ["iced", "exact"] {
            let line = body(strategy, seed);
            let resp = c.round_trip(&line);
            assert!(resp.contains("\"ok\":true"), "{resp}");
            assert!(
                resp.contains(&format!("\"strategy\":\"{strategy}\"")),
                "{resp}"
            );
            assert_eq!(canonical(&resp), canonical(&fresh_answer(&line)), "{line}");
        }
        let round = round as u64;
        assert_eq!(memo_counters(&mut c), (2, 2 * round));
    }
    server.shutdown();
    server.wait();
}

/// An exact answer made under a deadline is never cached, standalone or
/// as a batch element: the cache key leaves the deadline out, and a
/// deadline that cuts the exact backend can still answer `ok` with a
/// heuristic arm's mapping (on `solver1`, II 36 with proof
/// `best_under_budget` where the search certifies II 12). After each
/// short deadline, on a fresh daemon, the same compile without one
/// misses the cache and equals a fresh daemon's answer.
#[test]
fn an_exact_answer_under_a_deadline_is_never_cached() {
    let plain = r#"{"id":3,"verb":"compile","kernel":"solver1","strategy":"exact"}"#;
    let fresh = fresh_answer(plain);
    assert!(fresh.contains("\"ii\":12"), "{fresh}");
    for ms in 1..=24 {
        let cut = format!(
            "{{\"verb\":\"compile\",\"kernel\":\"solver1\",\"strategy\":\"exact\",\"deadline_ms\":{ms}}}"
        );
        let (server, addr) = start(1, 4);
        let mut c = Client::connect(addr);
        let single = c.round_trip(&format!("{{\"id\":1,{}", &cut[1..]));
        assert!(
            single.contains("\"ok\":true") || single.contains("\"deadline_exceeded\""),
            "{single}"
        );
        let batch = c.round_trip(&format!(
            "{{\"id\":2,\"verb\":\"batch\",\"items\":[{cut}]}}"
        ));
        assert!(batch.contains("\"ok\":true"), "{batch}");
        let after = c.round_trip(plain);
        assert!(
            after.contains("\"cached\":false"),
            "the answer made under deadline_ms {ms} was cached: {after}"
        );
        assert_eq!(
            canonical(&after),
            canonical(&fresh),
            "after deadline_ms {ms}"
        );
        drop(c);
        server.shutdown();
        server.wait();
    }
}

/// An exact mapping made under a deadline is never memoized. A deadline
/// that lands between the exact backend's heuristic arms can leave a
/// mapping at a higher II than the certified one (on `solver1`, the
/// baseline arm's II 36 against the companion arm's II 12), and the
/// compile key leaves the deadline out, so memoizing it would hand that
/// mapping to every later seed. The sweep of short deadlines, each on a
/// fresh daemon, aims at that window; whatever each deadline leaves, the
/// next request without one maps again and equals a fresh daemon's
/// answer.
#[test]
fn an_exact_mapping_under_a_deadline_is_never_memoized() {
    let line = |seed: u64, deadline: &str| {
        format!(
            "{{\"id\":{seed},\"verb\":\"simulate\",\"kernel\":\"solver1\",\"strategy\":\"exact\",\"iterations\":300,\"seed\":{seed}{deadline}}}"
        )
    };
    let fresh = fresh_answer(&line(2, ""));
    assert!(fresh.contains("\"ii\":12"), "{fresh}");
    for ms in (1..=24).chain([60_000]) {
        let (server, addr) = start(1, 4);
        let mut c = Client::connect(addr);
        let cut = c.round_trip(&line(1, &format!(",\"deadline_ms\":{ms}")));
        assert!(
            cut.contains("\"ok\":true") || cut.contains("\"deadline_exceeded\""),
            "{cut}"
        );
        assert_eq!(memo_counters(&mut c), (1, 0));
        let after = c.round_trip(&line(2, ""));
        assert_eq!(
            memo_counters(&mut c),
            (2, 0),
            "the mapping made under deadline_ms {ms} was memoized"
        );
        assert_eq!(
            canonical(&after),
            canonical(&fresh),
            "after deadline_ms {ms}"
        );
        drop(c);
        server.shutdown();
        server.wait();
    }
}
