//! The `iced-serviced` daemon binary.
//!
//! Configuration is environment-driven (see `ServiceConfig::from_env`):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICED_SVC_ADDR` | `127.0.0.1:9090` | bind address (`:0` = ephemeral) |
//! | `ICED_SVC_THREADS` | min(cores, 4) | worker pool size |
//! | `ICED_SVC_QUEUE` | 64 | request queue capacity |
//! | `ICED_SVC_CACHE_MB` | 64 | in-memory cache budget |
//! | `ICED_SVC_CACHE_BYTES` | unset | exact cache budget in bytes, overrides `CACHE_MB` |
//! | `ICED_SVC_CACHE_DIR` | unset | disk-spill directory (off when unset) |
//! | `ICED_SVC_CHAOS` | unset | chaos-injection seed (number or label; off when unset) |
//! | `ICED_SVC_PIPELINE` | 32 | max unanswered requests per connection |
//! | `ICED_SVC_MAX_CONNS` | 4096 | max open connections (further connects refused) |
//! | `ICED_SVC_LOG` | unset | JSONL event-log path (logging off when unset) |
//! | `ICED_SVC_LOG_LEVEL` | `info` | minimum severity: `error`, `warn`, `info`, `debug` |
//!
//! The process runs until a client sends the `shutdown` verb, then drains
//! in-flight work, flushes the cache, and exits 0.

use std::io::Write;

use iced_service::{Level, Server, ServiceConfig};

fn main() {
    let mut cfg = ServiceConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                if let Some(a) = args.next() {
                    cfg.addr = a;
                }
            }
            "--threads" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.threads = n;
                }
            }
            "--queue" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.queue_cap = n;
                }
            }
            "--cache-mb" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.cache_mb = n;
                }
            }
            "--cache-bytes" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.cache_bytes = Some(n);
                }
            }
            "--cache-dir" => {
                cfg.cache_dir = args.next().map(std::path::PathBuf::from);
            }
            "--chaos" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.chaos = Some(n);
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
            "--log" => {
                cfg.log_path = args.next().map(std::path::PathBuf::from);
            }
            "--log-level" => {
                if let Some(l) = args.next().and_then(|v| Level::parse(&v)) {
                    cfg.log_level = l;
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: iced-serviced [--addr HOST:PORT] [--threads N] [--queue N] \
                     [--cache-mb N] [--cache-bytes N] [--cache-dir PATH] [--chaos SEED] \
                     [--pipeline N] [--max-conns N] \
                     [--log PATH] [--log-level error|warn|info|debug]\n\
                     env: ICED_SVC_ADDR ICED_SVC_THREADS ICED_SVC_QUEUE \
                     ICED_SVC_CACHE_MB ICED_SVC_CACHE_BYTES ICED_SVC_CACHE_DIR ICED_SVC_CHAOS \
                     ICED_SVC_PIPELINE ICED_SVC_MAX_CONNS \
                     ICED_SVC_LOG ICED_SVC_LOG_LEVEL"
                );
                return;
            }
            other => {
                eprintln!("iced-serviced: unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("iced-serviced: failed to bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    // Stdout line protocol for supervisors: the bound address, flushed
    // before any request is served (svc_load waits for this). A
    // supervisor may close its end of the pipe once it has read what it
    // needs, so every status line ignores write errors: a clean drain
    // must still exit 0.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "iced-serviced listening on {}", server.local_addr());
    if let Some(seed) = cfg.chaos {
        let _ = writeln!(
            out,
            "iced-serviced: chaos injection ACTIVE (seed {seed:#x})"
        );
    }
    server.wait();
    let _ = writeln!(out, "iced-serviced: drained and stopped");
}
