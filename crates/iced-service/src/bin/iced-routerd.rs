//! The `iced-routerd` cluster router binary.
//!
//! Speaks the same newline-delimited JSON protocol as `iced-serviced` on
//! its client port, and forwards each request to one of N backend shards
//! by rendezvous-hashing its cache key. Configuration is
//! environment-driven (see `RouterConfig::from_env`):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICED_SVC_ADDR` | `127.0.0.1:9191` | bind address (`:0` = ephemeral) |
//! | `ICED_SVC_SHARDS` | unset (required) | comma-separated backend `host:port` list |
//! | `ICED_SVC_REPLICATE_HOT` | 3 | warm hits before replicating to the successor shard (0 = off) |
//! | `ICED_SVC_PIPELINE` | 32 | max unanswered requests per client connection |
//! | `ICED_SVC_MAX_CONNS` | 4096 | max open client connections (further connects refused) |
//!
//! The process runs until a client sends the `shutdown` verb, then
//! forwards the shutdown to every shard, drains in-flight work, and
//! exits 0 — shutting the whole cluster down as one unit.

use std::io::Write;

use iced_service::{Router, RouterConfig};

fn main() {
    let mut cfg = RouterConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                if let Some(a) = args.next() {
                    cfg.addr = a;
                }
            }
            "--shards" => {
                if let Some(list) = args.next() {
                    cfg.shards = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                }
            }
            "--replicate-hot" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.replicate_hot = n;
                }
            }
            "--pipeline" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.pipeline = n;
                }
            }
            "--max-conns" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.max_conns = n;
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: iced-routerd --shards HOST:PORT[,HOST:PORT...] \
                     [--addr HOST:PORT] [--replicate-hot K] \
                     [--pipeline N] [--max-conns N]\n\
                     env: ICED_SVC_ADDR ICED_SVC_SHARDS ICED_SVC_REPLICATE_HOT \
                     ICED_SVC_PIPELINE ICED_SVC_MAX_CONNS"
                );
                return;
            }
            other => {
                eprintln!("iced-routerd: unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }
    if cfg.shards.is_empty() {
        eprintln!("iced-routerd: no shards configured (set ICED_SVC_SHARDS or pass --shards)");
        std::process::exit(2);
    }
    let router = match Router::start(cfg.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iced-routerd: failed to bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    // Stdout line protocol for supervisors: the bound address, flushed
    // before any request is served (supervisors and tests wait for it). A
    // supervisor may close its end of the pipe once it has read what it
    // needs, so every status line ignores write errors: a clean drain
    // must still exit 0.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "iced-routerd listening on {}", router.local_addr());
    let _ = writeln!(
        out,
        "iced-routerd: {} shard(s), replicate-hot {}",
        cfg.shards.len(),
        cfg.replicate_hot
    );
    router.wait();
    let _ = writeln!(out, "iced-routerd: drained and stopped");
}
