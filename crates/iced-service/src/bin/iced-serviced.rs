//! The `iced-serviced` daemon binary.
//!
//! Every setting is an environment variable and a flag, read through the
//! one settings table; `iced-serviced --help` prints it with each
//! default and bound. Bad input exits 2 before anything binds, a bind
//! failure exits 1.
//!
//! The process runs until a client sends the `shutdown` verb, then drains
//! in-flight work, flushes the cache, and exits 0.

use std::io::Write;

use iced_service::{settings, Server};

fn main() {
    let cfg = settings::serviced();
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("iced-serviced: failed to bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    // Supervisors wait for the bound address on stdout, then may close
    // the pipe: status lines ignore write errors, a clean drain exits 0.
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
