//! The `iced-routerd` cluster router binary.
//!
//! Speaks the same newline-delimited JSON protocol as `iced-serviced` on
//! its client port, and forwards each request to one of N backend shards
//! by rendezvous-hashing its cache key. Every setting is an environment
//! variable and a flag, read through the one settings table;
//! `iced-routerd --help` prints it with each default and bound. Bad
//! input or no shard exits 2 before anything binds, a bind failure
//! exits 1.
//!
//! The process runs until a client sends the `shutdown` verb, then
//! forwards the shutdown to every shard, drains in-flight work, and
//! exits 0 — shutting the whole cluster down as one unit.

use std::io::Write;

use iced_service::{settings, Router};

fn main() {
    let cfg = settings::routerd();
    let router = match Router::start(cfg.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iced-routerd: failed to bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    // Supervisors wait for the bound address on stdout, then may close
    // the pipe: status lines ignore write errors, a clean drain exits 0.
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
