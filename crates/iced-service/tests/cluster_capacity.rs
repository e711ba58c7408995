//! Capacity scaling through the router, in a test binary of its own so no
//! other test shares the CPU while it times.
//!
//! The scaling axis is aggregate cache capacity, not core count: every
//! shard gets the same small LRU budget, and the working set is sized to
//! ~1.7× one shard's budget, and every key is its own kernel. A single
//! shard cycles through more keys than it can hold, so the LRU evicts
//! each entry before its replay arrives and nearly every request maps and
//! simulates cold; four shards partition the same keys into quarters that
//! fit, so the drive runs at the warm-hit rate.
//! That is what adding shards buys a content-addressed service, and it
//! measures the same thing on a one-core machine as on a large one.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iced_dfg::text;
use iced_fuzz::gen::{generate, CfShape, GenOptions};
use iced_service::json::escape_into;
use iced_service::{Client, Router, RouterConfig, Server, ServiceConfig};

/// Per-shard cache budget.
const CACHE_BYTES: u64 = 48 << 10;
/// Connections driving the warm phase, each pipelining the whole working
/// set once per round.
const DRIVERS: usize = 2;
const ROUNDS: usize = 3;

/// Simulate-request bodies (everything after `"id":N,`), one per
/// distinct generated straight-line DFG sent as inline text. Every body
/// is a distinct cache key that needs a mapping of its own, so a shard
/// that evicts an entry must map again to answer it (a shard memoizes
/// far fewer mappings than the working set holds). The kernel names
/// have a fixed length, so results have near-identical size and the
/// working set's byte volume is `n × entry_bytes`.
fn bodies(n: usize) -> Vec<String> {
    let opts = GenOptions {
        shapes: vec![CfShape::Straight],
        ..GenOptions::default()
    };
    (0..)
        .filter_map(|seed| generate(seed, &opts).ok())
        .take(n)
        .map(|dfg| {
            let mut body = String::from("\"verb\":\"simulate\",\"dfg\":\"");
            escape_into(&mut body, &text::to_text(&dfg));
            body.push_str("\",\"iterations\":200,\"seed\":1");
            body
        })
        .collect()
}

fn connect(addr: &str) -> Client {
    Client::connect_retry(addr, Duration::from_secs(10)).expect("daemon reachable")
}

fn request(c: &mut Client, line: &str) -> String {
    let resp = c.request(line).expect("answered");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    resp
}

/// The envelope with its `req` token removed and the `cached` flag
/// normalised: the only fields allowed to differ between deployments.
fn canonical(resp: &str) -> String {
    let s = resp.replace("\"cached\":false", "\"cached\":true");
    let start = s.find(",\"req\":\"").expect("response carries a req id");
    let end = start + 8 + s[start + 8..].find('"').expect("req id is terminated");
    format!("{}{}", &s[..start], &s[end + 1..])
}

/// The rendered result size of one working-set entry, measured on a
/// throwaway shard with a roomy cache, so the working set stays sized
/// against the budget as result renderings evolve.
fn entry_bytes() -> usize {
    let shard = Server::start(ServiceConfig::default()).expect("bind calibration shard");
    let mut c = connect(&shard.local_addr().to_string());
    let samples = bodies(6);
    let total: usize = samples
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let resp = request(&mut c, &format!("{{\"id\":{},{body}}}", 100 + i));
            let start = resp.find(",\"result\":").expect("result object") + ",\"result\":".len();
            // Drop the envelope's closing brace.
            resp.len() - start - 1
        })
        .sum();
    shard.shutdown();
    shard.wait();
    (total / samples.len()).max(1)
}

/// `n` shards with [`CACHE_BYTES`] each behind one router, sized so the
/// sweep measures cache capacity rather than pipeline caps.
fn boot_cluster(n: usize) -> (Vec<Server>, Router) {
    let shards: Vec<Server> = (0..n)
        .map(|_| {
            Server::start(ServiceConfig {
                pipeline: 2048,
                queue_cap: 4096,
                cache_bytes: CACHE_BYTES,
                ..ServiceConfig::default()
            })
            .expect("bind shard")
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        pipeline: 2048,
        shard_pipeline: 2048,
        ..RouterConfig::default()
    })
    .expect("bind router");
    (shards, router)
}

/// Drives [`DRIVERS`] connections through the router, each pipelining the
/// whole request set [`ROUNDS`] times in one write per round. Returns
/// (answered requests/s, misrouted): every response must come back in
/// send order with the id it was sent with, and succeed.
fn warm_drive(addr: &str, bodies: &[String]) -> (f64, usize) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..DRIVERS)
        .map(|t| {
            let addr = addr.to_string();
            let bodies = bodies.to_vec();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(300)))
                    .unwrap();
                stream.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let id = |r: usize, i: usize| (t + 1) * 10_000_000 + r * 100_000 + i;
                let mut misrouted = 0usize;
                for r in 0..ROUNDS {
                    let mut batch = String::new();
                    for (i, body) in bodies.iter().enumerate() {
                        let _ = writeln!(batch, "{{\"id\":{},{body}}}", id(r, i));
                    }
                    writer.write_all(batch.as_bytes()).expect("send");
                    for i in 0..bodies.len() {
                        let mut resp = String::new();
                        reader.read_line(&mut resp).expect("recv");
                        if !resp.starts_with(&format!("{{\"id\":{},", id(r, i)))
                            || !resp.contains("\"ok\":true")
                        {
                            misrouted += 1;
                        }
                    }
                }
                misrouted
            })
        })
        .collect();
    let misrouted = handles
        .into_iter()
        .map(|h| h.join().expect("warm driver"))
        .sum();
    let answered = DRIVERS * ROUNDS * bodies.len();
    (answered as f64 / t0.elapsed().as_secs_f64(), misrouted)
}

/// 1, 2 and 4 shards behind a router answer a working set of ~1.7× one
/// shard's cache byte-identically to the 1-shard cluster, with nothing
/// misrouted, and 4 shards serve the warm drive at least 3× as fast as 1.
#[test]
fn warm_throughput_scales_with_aggregate_cache_capacity() {
    let entry = entry_bytes();
    let keys = ((CACHE_BYTES as f64 * 1.7 / entry as f64).ceil() as usize).clamp(64, 20_000);
    let bodies = bodies(keys);

    let mut baseline: Vec<String> = Vec::new();
    let mut rps = Vec::new();
    for shards in [1, 2, 4] {
        let (servers, router) = boot_cluster(shards);
        let addr = router.local_addr().to_string();
        let mut c = connect(&addr);
        // Cold pass: populate every home shard, byte-compared against the
        // 1-shard answers.
        for (i, body) in bodies.iter().enumerate() {
            let resp = canonical(&request(
                &mut c,
                &format!("{{\"id\":{},{body}}}", 30_000_000 + i),
            ));
            if shards == 1 {
                baseline.push(resp);
            } else {
                assert_eq!(
                    resp, baseline[i],
                    "{shards} shards diverged from 1 on key {i}"
                );
            }
        }
        let (warm_rps, misrouted) = warm_drive(&addr, &bodies);
        assert_eq!(misrouted, 0, "{shards} shards: responses misrouted");
        eprintln!(
            "{shards} shard(s): {keys} keys × ~{entry} B vs {} KiB per shard: warm {warm_rps:.0} req/s",
            CACHE_BYTES >> 10
        );
        rps.push(warm_rps);

        router.shutdown();
        router.wait();
        for s in servers {
            s.wait();
        }
    }
    let scaling = rps[2] / rps[0];
    assert!(
        scaling >= 3.0,
        "aggregate-capacity scaling regressed: {scaling:.2}x at 4 shards vs 1"
    );
}
