//! End-to-end tests for the `batch` verb: intra-batch dedup with byte
//! identity against the standalone verbs, mixed ok/error slots, bounds,
//! the client helpers, and whole-batch backpressure.

mod common;

use std::time::Duration;

use common::{result_payload, start, LineClient};
use iced_service::{Client, ServiceConfig};

/// A batch of N identical specs performs exactly one compile: the
/// envelope reports one unique element, every slot carries byte-identical
/// result bytes, and a later standalone request for the same spec is a
/// cache hit replaying those exact bytes.
#[test]
fn identical_specs_compile_once_with_byte_identical_slots() {
    let (server, addr) = start(ServiceConfig::default());
    let mut c = Client::connect(addr);

    let item = r#"{"verb":"compile","kernel":"dtw","strategy":"iced"}"#;
    let resp = c.round_trip(&format!(
        "{{\"id\":1,\"verb\":\"batch\",\"items\":[{item},{item},{item},{item}]}}"
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"count\":4"), "{resp}");
    assert!(
        resp.contains("\"unique\":1"),
        "dedup to one compile: {resp}"
    );
    assert!(resp.contains("\"deduped\":3"), "{resp}");

    // All four slots render the same bytes.
    let slot_pat = "{\"ok\":true,\"verb\":\"compile\",\"cached\":false,\"result\":";
    assert_eq!(
        resp.matches(slot_pat).count(),
        4,
        "four byte-identical uncached slots: {resp}"
    );

    // The standalone verb replays the batch's cached bytes.
    let single =
        c.round_trip("{\"id\":2,\"verb\":\"compile\",\"kernel\":\"dtw\",\"strategy\":\"iced\"}");
    assert!(
        single.contains("\"cached\":true"),
        "batch populated the cache: {single}"
    );
    let single_result = result_payload(&single).to_string();
    assert!(
        resp.contains(&format!("\"result\":{single_result}}}")),
        "slot result bytes must equal the standalone verb's"
    );

    // A second identical batch is served warm, still deduped.
    let warm = c.round_trip(&format!(
        "{{\"id\":3,\"verb\":\"batch\",\"items\":[{item},{item}]}}"
    ));
    assert!(warm.contains("\"unique\":1"), "{warm}");
    assert_eq!(
        warm.matches("\"cached\":true").count(),
        2,
        "both warm slots marked cached: {warm}"
    );

    server.shutdown();
    server.wait();
}

/// A bad slot answers with a structured error in place; its siblings
/// still compute. Slot errors never fail the envelope.
#[test]
fn mixed_ok_and_error_slots_resolve_independently() {
    let (server, addr) = start(ServiceConfig::default());
    let mut c = Client::connect(addr);

    let resp = c.round_trip(concat!(
        "{\"id\":7,\"verb\":\"batch\",\"items\":[",
        "{\"verb\":\"compile\",\"kernel\":\"fir\",\"strategy\":\"iced\"},",
        "{\"verb\":\"stream\",\"pipeline\":\"lu\"},",
        "{\"verb\":\"frobnicate\"},",
        "{\"verb\":\"compile\",\"kernel\":\"nosuch\"},",
        "{\"kernel\":\"fir\"},",
        "{\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":1000}",
        "]}"
    ));
    assert!(resp.contains("\"ok\":true"), "envelope survives: {resp}");
    assert!(resp.contains("\"count\":6"), "{resp}");
    // Only the two good slots reach the workers.
    assert!(resp.contains("\"unique\":2"), "{resp}");
    assert_eq!(resp.matches("{\"ok\":true,").count(), 2, "{resp}");
    assert_eq!(resp.matches("{\"ok\":false,").count(), 4, "{resp}");
    // Each failure mode is named.
    assert!(
        resp.contains("only compile and simulate may appear in a batch"),
        "stream slot: {resp}"
    );
    assert!(resp.contains("unknown_verb"), "frobnicate slot: {resp}");
    assert!(resp.contains("unknown_kernel"), "nosuch slot: {resp}");
    assert!(
        resp.contains("missing string field 'verb'"),
        "verbless slot: {resp}"
    );

    server.shutdown();
    server.wait();
}

/// Envelope bounds: an empty batch succeeds with zero slots; an
/// oversized one is rejected whole with a structured error.
#[test]
fn empty_and_oversized_batches_hit_the_bounds() {
    let (server, addr) = start(ServiceConfig::default());
    let mut c = Client::connect(addr);

    let empty = c.round_trip("{\"id\":1,\"verb\":\"batch\",\"items\":[]}");
    assert!(empty.contains("\"ok\":true"), "{empty}");
    assert!(
        empty.contains("\"count\":0") && empty.contains("\"results\":[]"),
        "{empty}"
    );

    let items: Vec<String> = (0..129)
        .map(|_| r#"{"verb":"compile","kernel":"fir"}"#.to_string())
        .collect();
    let oversized = c.round_trip(&format!(
        "{{\"id\":2,\"verb\":\"batch\",\"items\":[{}]}}",
        items.join(",")
    ));
    assert!(oversized.contains("\"ok\":false"), "{oversized}");
    assert!(oversized.contains("\"verb\":\"batch\""), "{oversized}");
    assert!(
        oversized.contains("129 items") && oversized.contains("128"),
        "the limit is named: {oversized}"
    );

    let not_array = c.round_trip("{\"id\":3,\"verb\":\"batch\",\"items\":7}");
    assert!(
        not_array.contains("'items' must be an array"),
        "{not_array}"
    );
    let missing = c.round_trip("{\"id\":4,\"verb\":\"batch\"}");
    assert!(missing.contains("missing 'items' array"), "{missing}");

    server.shutdown();
    server.wait();
}

/// The `Client` batch helpers: envelope assembly, response splitting,
/// per-slot errors surfaced as items rather than failures.
#[test]
fn client_helpers_split_slots_and_surface_item_errors() {
    let (server, addr) = start(ServiceConfig::default());
    let mut c = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).expect("connect");

    let fir = r#"{"kernel":"fir","strategy":"iced"}"#;
    let bad = r#"{"kernel":"nosuch"}"#;
    let slots = c.compile_batch(1, &[fir, fir, bad]).expect("compile_batch");
    assert_eq!(slots.len(), 3, "one item per slot, in order");
    assert!(slots[0].ok && slots[1].ok);
    assert_eq!(
        result_payload(&slots[0].raw),
        result_payload(&slots[1].raw),
        "identical specs share bytes"
    );
    assert!(!slots[2].ok, "bad slot is an item error: {}", slots[2].raw);
    assert!(slots[2].raw.contains("unknown_kernel"), "{}", slots[2].raw);

    let sim = r#"{"kernel":"fir","iterations":1500,"seed":9}"#;
    let sims = c.simulate_batch(2, &[sim, sim]).expect("simulate_batch");
    assert_eq!(sims.len(), 2);
    assert!(sims.iter().all(|s| s.ok));
    // The second identical spec dedups inside the batch: same bytes, and
    // at least one of the two slots in a fresh-cache run is uncached.
    assert_eq!(result_payload(&sims[0].raw), result_payload(&sims[1].raw));

    // An empty helper batch is a valid no-op.
    let none = c.compile_batch(3, &[]).expect("empty batch");
    assert!(none.is_empty());

    server.shutdown();
    server.wait();
}

/// When the queue cannot take the batch, the whole envelope answers
/// `queue_full` — the retryable whole-batch contract the client helpers
/// rely on.
#[test]
fn saturated_queue_rejects_the_whole_batch() {
    let (server, addr) = start(ServiceConfig {
        threads: 1,
        queue_cap: 1,
        ..ServiceConfig::default()
    });
    // Connection A pins the worker and fills the queue. `healthz` is
    // answered inline by the reactor even while the worker is busy, so a
    // side connection can observe each stage instead of guessing with
    // sleeps (the pin job's runtime varies with the machine).
    let mut probe = Client::connect(addr);
    let mut wait_for = |field: &str, value: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let health = probe.round_trip("{\"id\":99,\"verb\":\"healthz\"}");
            if health.contains(&format!("\"{field}\":{value}")) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never reached {field}={value}: {health}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let mut a = Client::connect(addr);
    a.send("{\"id\":1,\"verb\":\"compile\",\"kernel\":\"fft\",\"strategy\":\"exact\"}")
        .expect("send");
    wait_for("in_flight", 1); // the worker has picked up the pin job
    a.send("{\"id\":2,\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":1000,\"seed\":2}")
        .expect("send");
    wait_for("queue_depth", 1); // the only queue slot is now occupied

    // Connection B's batch cannot be enqueued: whole-batch queue_full.
    let mut b = Client::connect(addr);
    let item = r#"{"verb":"compile","kernel":"fir","strategy":"iced"}"#;
    let resp = b.round_trip(&format!(
        "{{\"id\":3,\"verb\":\"batch\",\"items\":[{item},{item}]}}"
    ));
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("queue_full"), "{resp}");
    assert!(resp.contains("\"verb\":\"batch\""), "{resp}");

    // A's pinned work still completes in order.
    assert!(
        a.recv().expect("read response").contains("\"id\":1,"),
        "first sim answers first"
    );
    assert!(a.recv().expect("read response").contains("\"id\":2,"));

    server.shutdown();
    server.wait();
}
