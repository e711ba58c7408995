//! Child daemons: pinned ports, spawn, readiness, peak memory, shutdown,
//! and one blocking line-protocol connection per client thread.
//!
//! Ports are pinned, not ephemeral: `iced-routerd` places keys by
//! rendezvous-hashing each shard's address string, so an ephemeral port
//! would reshuffle keys between shards from run to run.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Default first port: the router (or the single daemon) listens here,
/// shards on the next two.
pub const DEFAULT_PORT_BASE: u16 = 47310;

/// How long a daemon may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a daemon may take to drain and exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest a single answer may take before the benchmark gives up.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// `127.0.0.1:<port>`.
pub fn loopback(port: u16) -> String {
    format!("127.0.0.1:{port}")
}

/// Fails fast, before anything is spawned, when `addr` is already bound.
pub fn ensure_free(addr: &str) -> Result<(), String> {
    TcpListener::bind(addr)
        .map(drop)
        .map_err(|e| format!("port {addr} is busy ({e}); pick another with --port-base"))
}

/// A daemon binary built next to this benchmark's executable.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe
        .parent()
        .ok_or("benchmark executable has no directory")?
        .join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p iced-service`",
            path.display()
        ))
    }
}

/// A supervised child daemon. Its stdout and stderr go to one file in the
/// run directory; dropping the handle kills and reaps a daemon that has
/// not exited yet.
#[derive(Debug)]
pub struct Daemon {
    name: String,
    addr: String,
    log: PathBuf,
    child: Option<Child>,
}

impl Daemon {
    /// Spawns `bin args…` with no inherited `ICED_*` settings, then waits
    /// for its `listening on <addr>` line.
    pub fn start(bin: &Path, args: &[String], addr: &str, dir: &Path) -> Result<Daemon, String> {
        let name = format!(
            "{}-{}",
            bin.file_name().and_then(|n| n.to_str()).unwrap_or("daemon"),
            addr.rsplit(':').next().unwrap_or("0")
        );
        let log = dir.join(format!("{name}.log"));
        let out = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out
            .try_clone()
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(out).stderr(err);
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("ICED_") {
                cmd.env_remove(k);
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            name,
            addr: addr.to_string(),
            log,
            child: Some(child),
        };
        d.wait_listening()?;
        Ok(d)
    }

    fn wait_listening(&mut self) -> Result<(), String> {
        let want = format!("listening on {}", self.addr);
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if text.contains(&want) {
                return Ok(());
            }
            let exited = self
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!(
                    "{} exited at start-up ({status}): {text}",
                    self.name
                ));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(format!("{} never printed '{want}'", self.name));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(self.child.as_ref()?.id())
    }

    /// Waits for the daemon to exit after it was told to shut down. A
    /// non-zero exit, or none within the timeout, is an error.
    pub fn finish(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until finish");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let text = std::fs::read_to_string(&self.log).unwrap_or_default();
                    return Err(format!("{} exited with {status}: {text}", self.name));
                }
                Ok(None) if t0.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{} did not exit after shutdown", self.name));
                }
                Err(e) => return Err(format!("{}: wait failed: {e}", self.name)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// One blocking connection speaking the newline-delimited JSON protocol,
/// one request in flight: the closed-loop client.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects with Nagle off and a per-answer timeout.
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends `{"id":<id>,<body>}` and returns the answer line.
    pub fn call(&mut self, id: u64, body: &str) -> std::io::Result<&str> {
        self.line.clear();
        self.line.push_str("{\"id\":");
        self.line.push_str(&id.to_string());
        if !body.is_empty() {
            self.line.push(',');
            self.line.push_str(body);
        }
        self.line.push_str("}\n");
        self.writer.write_all(self.line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

/// Sends one control verb on a fresh connection and returns the answer,
/// which must be `"ok":true`.
pub fn control(addr: &str, verb: &str) -> Result<String, String> {
    let mut c = Conn::open(addr).map_err(|e| format!("{addr}: {e}"))?;
    let answer = c
        .call(0, &format!("\"verb\":\"{verb}\""))
        .map_err(|e| format!("{addr} {verb}: {e}"))?
        .to_string();
    if answer.contains("\"ok\":true") {
        Ok(answer)
    } else {
        Err(format!("{addr} {verb}: {answer}"))
    }
}
