//! End-to-end tests for the readiness-reactor connection handling:
//! hundreds of concurrent pipelined connections with strict response
//! ordering and routing, the per-connection pipeline cap, the
//! connection ceiling, and warm hits answered on the reactor while the
//! worker pool is busy.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iced_service::json::{self, Value};
use iced_service::{Server, ServiceConfig};

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

    /// Polls `healthz` until `"field":value` shows; `healthz` is answered
    /// by the reactor, so it observes a busy worker pool without waiting
    /// on it.
    fn wait_for_health(&mut self, field: &str, value: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let health = self.round_trip("{\"id\":99,\"verb\":\"healthz\"}");
            if health.contains(&format!("\"{field}\":{value}")) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never reached {field}={value}: {health}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The `metrics` result object.
    fn metrics(&mut self) -> Value {
        let resp = self.round_trip("{\"id\":98,\"verb\":\"metrics\"}");
        let v = json::parse(&resp).expect("metrics envelope is JSON");
        v.get("result").expect("metrics result").clone()
    }
}

/// `metrics` → `section.verb.count` (a histogram's sample count).
fn hist_count(metrics: &Value, section: &str, verb: &str) -> u64 {
    metrics
        .get(section)
        .and_then(|s| s.get(verb))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {section}.{verb}.count in metrics"))
}

fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {name} in metrics"))
}

/// The `result` payload of a success envelope.
fn result_payload(response: &str) -> &str {
    let idx = response
        .find("\"result\":")
        .unwrap_or_else(|| panic!("no result field in {response}"));
    &response[idx + 9..response.len() - 1]
}

/// A simulate long enough to hold the only worker for a while.
const PIN: &str =
    "{\"id\":50,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":2000000,\"seed\":50}";
const WARM_NAMED: &str = "{\"id\":1,\"verb\":\"compile\",\"kernel\":\"fir\",\"strategy\":\"iced\"}";
const WARM_INLINE: &str = "{\"id\":2,\"verb\":\"compile\",\"dfg\":\"dfg reactor_hit\\nnode n0 ld x\\nnode n1 add y\\nnode n2 st z\\nedge n0 n1\\nedge n1 n2\\n\"}";

/// Pulls `(conn, seq)` out of a response's `"req":"c<conn>-<seq>"`.
fn req_token(resp: &str) -> (u64, u64) {
    let i = resp.find("\"req\":\"c").expect("req token") + 8;
    let rest = &resp[i..];
    let end = rest.find('"').expect("token close quote");
    let (conn, seq) = rest[..end].split_once('-').expect("token dash");
    (conn.parse().expect("conn"), seq.parse().expect("seq"))
}

/// Two hundred concurrent connections, each with four pipelined requests
/// in flight at once. Every response must come back on the socket that
/// asked, in the order it asked, with a per-connection `req` token whose
/// `seq` walks 1..=4 under a connection ordinal no other socket shares.
#[test]
fn pipelined_connections_get_ordered_routed_responses() {
    const CONNS: usize = 200;
    const ROUNDS: usize = 4;
    let cfg = ServiceConfig {
        threads: 2,
        // Up to CONNS×2 work requests are genuinely queued at once.
        queue_cap: 1024,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    // Fire every request on every connection before reading anything:
    // the worker pool finishes them out of order, the reactor must not.
    for (ci, c) in clients.iter_mut().enumerate() {
        for r in 0..ROUNDS {
            let id = (ci as u64 + 1) * 100 + r as u64;
            let line = if r % 2 == 0 {
                format!(
                    "{{\"id\":{id},\"verb\":\"compile\",\"kernel\":\"fir\",\"strategy\":\"iced\"}}"
                )
            } else {
                format!("{{\"id\":{id},\"verb\":\"healthz\"}}")
            };
            c.send(&line);
        }
    }
    let mut seen_ordinals = HashSet::new();
    for (ci, c) in clients.iter_mut().enumerate() {
        let mut ordinal = None;
        for r in 0..ROUNDS {
            let resp = c.recv();
            assert!(resp.contains("\"ok\":true"), "conn {ci} round {r}: {resp}");
            let want_id = (ci as u64 + 1) * 100 + r as u64;
            assert!(
                resp.contains(&format!("\"id\":{want_id},")),
                "conn {ci}: response out of order or misrouted: {resp}"
            );
            let (tok, seq) = req_token(&resp);
            assert_eq!(seq, r as u64 + 1, "conn {ci}: seq must walk 1..=4");
            match ordinal {
                None => ordinal = Some(tok),
                Some(t) => assert_eq!(t, tok, "conn {ci}: ordinal changed mid-connection"),
            }
        }
        assert!(
            seen_ordinals.insert(ordinal.expect("ordinal")),
            "two connections shared ordinal {ordinal:?}"
        );
    }

    server.shutdown();
    server.wait();
}

/// With a worker pinned on a slow job and strict ordering holding every
/// later response back, the pipeline cap is reachable deterministically:
/// requests past it answer `too_many_requests` inline — and still in
/// order.
#[test]
fn pipeline_cap_rejects_excess_in_order() {
    let cfg = ServiceConfig {
        threads: 1,
        queue_cap: 1,
        pipeline: 4,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let mut c = Client::connect(server.local_addr());

    // Ticket 0 occupies the single worker; nothing later may release
    // until it finishes, so `outstanding` climbs with each send.
    c.send("{\"id\":1,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":300000,\"seed\":1}");
    std::thread::sleep(Duration::from_millis(100));
    // Ticket 1 sits in the queue (capacity 1).
    c.send("{\"id\":2,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":1000,\"seed\":2}");
    // Tickets 2..=3 fill the rest of the cap of 4; 4..=5 exceed it.
    for id in 3..=6 {
        c.send(&format!("{{\"id\":{id},\"verb\":\"healthz\"}}"));
    }

    for seq in 1u64..=6 {
        let resp = c.recv();
        let (_, got_seq) = req_token(&resp);
        assert_eq!(got_seq, seq, "responses leave in request order: {resp}");
        if seq <= 4 {
            // The admitted requests echo their ids and succeed.
            assert!(resp.contains("\"ok\":true"), "seq {seq}: {resp}");
            assert!(
                resp.contains(&format!("\"id\":{seq},")),
                "seq {seq}: {resp}"
            );
        } else {
            // Over-cap lines are rejected before parsing (no work spent
            // on an abusive client), so they carry id 0 and correlate by
            // the `req` token alone.
            assert!(
                resp.contains("too_many_requests"),
                "seq {seq} must hit the pipeline cap: {resp}"
            );
            assert!(resp.contains("pipeline cap 4"), "{resp}");
        }
    }

    server.shutdown();
    server.wait();
}

/// Connects past `max_conns` are answered with one structured
/// `too_many_connections` line and closed — and a freed slot makes room
/// for the next dialer.
#[test]
fn connection_ceiling_refuses_then_recovers() {
    let cfg = ServiceConfig {
        threads: 1,
        max_conns: 8,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut held: Vec<Client> = (0..8).map(|_| Client::connect(addr)).collect();
    // A round trip per connection proves all 8 are registered.
    for (i, c) in held.iter_mut().enumerate() {
        c.send(&format!("{{\"id\":{i},\"verb\":\"healthz\"}}"));
        assert!(c.recv().contains("\"ok\":true"));
    }

    // The 9th dialer is told why, then hung up on.
    let mut extra = TcpStream::connect(addr).expect("connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut refusal = String::new();
    extra
        .read_to_string(&mut refusal)
        .expect("read refusal to EOF");
    assert!(
        refusal.contains("too_many_connections"),
        "refusal line: {refusal}"
    );
    assert!(refusal.ends_with('\n'), "refusal is a complete line");

    // The refusal is observable.
    let metrics = {
        let c = &mut held[0];
        c.send("{\"id\":100,\"verb\":\"metrics\"}");
        c.recv()
    };
    assert!(metrics.contains("\"conns_rejected\":1"), "{metrics}");
    assert!(metrics.contains("\"max_conns\":8"), "{metrics}");
    assert!(metrics.contains("\"conns_open\":8"), "{metrics}");

    // Freeing one slot lets the next dialer in.
    drop(held.remove(7));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = Client::connect(addr);
        retry.send("{\"id\":200,\"verb\":\"healthz\"}");
        let mut line = String::new();
        match retry.reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.contains("\"ok\":true") => break,
            _ if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("slot never freed: {other:?} / {line}"),
        }
    }

    server.shutdown();
    server.wait();
}

/// With the only worker pinned by a long `simulate`, warm hits on
/// another connection — a named kernel and an inline DFG whose hash is
/// memoized — are answered by the reactor while `in_flight` stays 1,
/// byte-identical to their cold answers apart from the envelope.
#[test]
fn warm_hits_are_answered_while_the_worker_is_pinned() {
    let cfg = ServiceConfig {
        threads: 1,
        queue_cap: 4,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut probe = Client::connect(addr);
    let mut warm = Client::connect(addr);
    let cold_named = warm.round_trip(WARM_NAMED);
    let cold_inline = warm.round_trip(WARM_INLINE);
    for cold in [&cold_named, &cold_inline] {
        assert!(cold.contains("\"cached\":false"), "{cold}");
    }

    let mut pin = Client::connect(addr);
    pin.send(PIN);
    probe.wait_for_health("in_flight", 1);

    for (line, cold) in [(WARM_NAMED, &cold_named), (WARM_INLINE, &cold_inline)] {
        let hit = warm.round_trip(line);
        assert!(hit.contains("\"cached\":true"), "{hit}");
        assert_eq!(result_payload(&hit), result_payload(cold));
        let health = probe.round_trip("{\"id\":3,\"verb\":\"healthz\"}");
        assert!(
            health.contains("\"in_flight\":1"),
            "the hit must not have waited for the worker: {health}"
        );
    }
    let m = probe.metrics();
    assert_eq!(counter(&m, "cache_hits"), 2);
    assert_eq!(
        hist_count(&m, "queue_wait", "compile"),
        2,
        "only the two cold compiles went through the queue"
    );

    let done = pin.recv();
    assert!(done.contains("\"ok\":true"), "{done}");
    assert!(done.contains("\"id\":50,"), "{done}");
    server.shutdown();
    server.wait();
}

/// A hit pipelined behind a pinned miss on the same connection is
/// answered on the reactor at once, but released only after the miss:
/// per-connection order holds.
#[test]
fn a_hit_pipelined_behind_a_miss_keeps_ticket_order() {
    let cfg = ServiceConfig {
        threads: 1,
        queue_cap: 4,
        ..ServiceConfig::default()
    };
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut probe = Client::connect(addr);
    let mut c = Client::connect(addr);
    let cold = c.round_trip(WARM_NAMED);
    assert!(cold.contains("\"cached\":false"), "{cold}");

    c.send(PIN);
    c.send(WARM_NAMED);
    // The hit is counted while the miss still holds the worker…
    probe.wait_for_health("in_flight", 1);
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter(&probe.metrics(), "cache_hits") < 1 {
        assert!(
            Instant::now() < deadline,
            "the pipelined hit was never served"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let health = probe.round_trip("{\"id\":3,\"verb\":\"healthz\"}");
    assert!(health.contains("\"in_flight\":1"), "{health}");

    // …and still leaves after it, in request order.
    let first = c.recv();
    assert!(
        first.contains("\"id\":50,"),
        "the miss answers first: {first}"
    );
    assert!(first.contains("\"cycles\":"), "{first}");
    let second = c.recv();
    assert!(second.contains("\"id\":1,"), "{second}");
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(req_token(&first).1 + 1, req_token(&second).1);
    server.shutdown();
    server.wait();
}

/// An entry that lives only in the spill directory is still served, by
/// a worker (the reactor never reads files); once promoted back into
/// memory, the next hit is the reactor's.
#[test]
fn spill_only_entries_are_served_through_the_worker() {
    let dir = std::env::temp_dir().join(format!("iced-svc-reactor-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let first = Server::start(cfg.clone()).expect("bind ephemeral port");
    let cold = Client::connect(first.local_addr()).round_trip(WARM_NAMED);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    first.shutdown();
    first.wait(); // spills the cache

    let second = Server::start(cfg).expect("bind ephemeral port");
    let mut c = Client::connect(second.local_addr());
    let from_disk = c.round_trip(WARM_NAMED);
    assert!(from_disk.contains("\"cached\":true"), "{from_disk}");
    assert_eq!(result_payload(&from_disk), result_payload(&cold));
    let m = c.metrics();
    assert_eq!(counter(&m, "cache_hits"), 1);
    assert_eq!(
        hist_count(&m, "queue_wait", "compile"),
        1,
        "served by a worker"
    );

    let resident = c.round_trip(WARM_NAMED);
    assert!(resident.contains("\"cached\":true"), "{resident}");
    assert_eq!(result_payload(&resident), result_payload(&cold));
    let m = c.metrics();
    assert_eq!(counter(&m, "cache_hits"), 2);
    assert_eq!(
        hist_count(&m, "queue_wait", "compile"),
        1,
        "served by the reactor"
    );
    assert_eq!(hist_count(&m, "latency", "compile"), 2);

    second.shutdown();
    second.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
