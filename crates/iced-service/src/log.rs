//! Leveled JSONL event log for the daemon.
//!
//! Every line is one JSON object with a deterministic field prefix —
//! `t_us` (microseconds since log creation), `level`, `event` — followed
//! by event-specific fields supplied by the caller. Events of note:
//! request lifecycle (`request_start`/`request_finish`/`request_error`),
//! cache activity (`cache_evict`, `cache_spill`), chaos injections
//! (`chaos_panic`, `chaos_drop`, `chaos_corrupt`), `worker_panic` with
//! the captured payload and request id, and server lifecycle
//! (`server_start`/`server_stop`).
//!
//! Writing happens on a dedicated thread fed by a bounded channel so the
//! request path never blocks on disk: when the channel is full the line
//! is dropped and a counter incremented (reported by the `metrics` verb
//! as `log_dropped`). The log is configured by a file path and a minimum
//! level (`error`|`warn`|`info`|`debug`, default `info`; see
//! `iced-serviced --help`); without a path the log is disarmed and every
//! emit site reduces to one atomic load.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::json::Obj;

/// Lines buffered between emitters and the writer thread before drops.
const CHANNEL_CAP: usize = 4096;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable per-request failures (worker panics).
    Error = 0,
    /// Degraded-but-handled conditions (structured errors, chaos faults).
    Warn = 1,
    /// Normal request lifecycle.
    Info = 2,
    /// High-volume detail (request starts, per-request trace summaries).
    Debug = 3,
}

impl Level {
    /// Stable lowercase name used on the wire and in the settings.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// The daemon's event log. Cheap to share (`Arc`), cheap when disarmed.
#[derive(Debug)]
pub struct EventLog {
    armed: AtomicBool,
    level: AtomicU8,
    start: Instant,
    dropped: AtomicU64,
    tx: Mutex<Option<SyncSender<String>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl EventLog {
    /// A disarmed log: every emit is a single atomic load and a return.
    pub fn disabled() -> EventLog {
        EventLog {
            armed: AtomicBool::new(false),
            level: AtomicU8::new(Level::Info as u8),
            start: Instant::now(),
            dropped: AtomicU64::new(0),
            tx: Mutex::new(None),
            writer: Mutex::new(None),
        }
    }

    /// Opens (truncating) `path` and starts the writer thread. Events at
    /// or above `level` severity (numerically ≤) are written.
    pub fn to_path(path: &Path, level: Level) -> std::io::Result<EventLog> {
        let file = File::create(path)?;
        let (tx, rx) = sync_channel::<String>(CHANNEL_CAP);
        let writer = std::thread::Builder::new()
            .name("iced-svc-log".into())
            .spawn(move || {
                let mut out = BufWriter::new(file);
                while let Ok(line) = rx.recv() {
                    let _ = out.write_all(line.as_bytes());
                    let _ = out.write_all(b"\n");
                    // One flush per line keeps the tail visible to
                    // followers and crash-safe; event volume is bounded
                    // by request volume, not by hot-path work.
                    let _ = out.flush();
                }
                let _ = out.flush();
            })?;
        Ok(EventLog {
            armed: AtomicBool::new(true),
            level: AtomicU8::new(level as u8),
            start: Instant::now(),
            dropped: AtomicU64::new(0),
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// Whether events at `level` would currently be written. Emit sites
    /// use this to skip building fields for filtered events.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        self.armed.load(Ordering::Relaxed) && level as u8 <= self.level.load(Ordering::Relaxed)
    }

    /// The configured minimum severity.
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Lines dropped because the writer channel was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emits one event. `fields` receives an [`Obj`] already carrying the
    /// `t_us`/`level`/`event` prefix and appends event-specific fields.
    /// Never blocks: a full channel drops the line and counts it.
    pub fn emit(&self, level: Level, event: &str, fields: impl FnOnce(Obj) -> Obj) {
        if !self.enabled(level) {
            return;
        }
        let line = fields(
            Obj::new()
                .u64("t_us", self.start.elapsed().as_micros() as u64)
                .str("level", level.name())
                .str("event", event),
        )
        .finish();
        let tx = self.tx.lock().expect("log tx lock");
        match tx.as_ref().map(|tx| tx.try_send(line)) {
            Some(Ok(())) => {}
            Some(Err(TrySendError::Full(_))) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            // Writer gone (shutdown race): count it like a drop.
            Some(Err(TrySendError::Disconnected(_))) | None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains and stops the writer thread; the log is disarmed afterwards.
    /// Safe to call more than once.
    pub fn shutdown(&self) {
        self.armed.store(false, Ordering::SeqCst);
        // Dropping the sender lets the writer's recv() loop end after the
        // queue drains.
        drop(self.tx.lock().expect("log tx lock").take());
        if let Some(h) = self.writer.lock().expect("log writer lock").take() {
            let _ = h.join();
        }
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iced-log-test-{}-{name}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join("events.jsonl")
    }

    #[test]
    fn writes_leveled_jsonl_with_deterministic_prefix() {
        let path = tmp("basic");
        let log = EventLog::to_path(&path, Level::Info).expect("create log");
        log.emit(Level::Info, "request_finish", |o| {
            o.str("req", "c1-1")
                .str("verb", "compile")
                .u64("total_us", 42)
        });
        log.emit(Level::Debug, "request_start", |o| o.str("req", "c1-2"));
        log.emit(Level::Error, "worker_panic", |o| o.str("payload", "boom"));
        log.shutdown();
        let body = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "debug filtered at info level: {body}");
        assert!(lines[0].starts_with("{\"t_us\":"), "{}", lines[0]);
        assert!(lines[0].contains("\"level\":\"info\""), "{}", lines[0]);
        assert!(lines[0].contains("\"event\":\"request_finish\""));
        assert!(lines[0].contains("\"req\":\"c1-1\""));
        assert!(lines[1].contains("\"event\":\"worker_panic\""));
        // Every line parses as JSON.
        for l in lines {
            assert!(crate::json::parse(l).is_ok(), "not JSON: {l}");
        }
        assert_eq!(log.dropped(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_log_ignores_everything() {
        let log = EventLog::disabled();
        assert!(!log.enabled(Level::Error));
        log.emit(Level::Error, "worker_panic", |o| o);
        log.shutdown();
        assert_eq!(log.dropped(), 0, "filtered events are not drops");
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.name()), Some(l));
            assert_eq!(Level::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("trace"), None);
        assert!(Level::Error < Level::Debug, "severity ordering");
    }

    #[test]
    fn shutdown_is_idempotent_and_later_emits_are_counted_as_drops() {
        let path = tmp("shutdown");
        let log = EventLog::to_path(&path, Level::Debug).expect("create log");
        log.emit(Level::Info, "server_start", |o| o);
        log.shutdown();
        log.shutdown();
        log.emit(Level::Info, "late", |o| o);
        assert_eq!(log.dropped(), 0, "disarmed emits return early");
        let body = std::fs::read_to_string(&path).expect("read log");
        assert_eq!(body.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
