//! One-command benchmark of the ICED toolchain and its daemons.
//!
//! ```sh
//! bash benchmark/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.sh` builds `iced-serviced`, `iced-routerd` and this binary from the
//! checkout, then runs it. The three service workloads start the real
//! daemons as child processes on pinned loopback ports and drive them
//! closed-loop from two client threads; certify-suite runs the exact
//! mapper in-process. With `--trace 0` a run prints the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of an in-process
//! replay of the same inputs. The last line of stdout is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Progress and
//! human-readable tables go to stderr. See `benchmark/README.md`.

mod answer;
mod compare;
mod daemon;
mod inputs;
mod layers;
mod service;
mod spans;
mod stats;
mod suite;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use iced_service::json::Obj;

/// The workloads, in the order a run without `--workload` visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a new inline DFG: the mapper does the work.
    ColdCompile,
    /// Every request a cache hit on one daemon: the request path does.
    WarmHit,
    /// Zipf-skewed simulate traffic through the router over two shards
    /// with small caches: hits, misses, evictions and replication.
    ClusterChurn,
    /// The exact mapper certifying the Table I suite in-process.
    CertifySuite,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ColdCompile,
        Workload::WarmHit,
        Workload::ClusterChurn,
        Workload::CertifySuite,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::WarmHit => "warm-hit",
            Workload::ClusterChurn => "cluster-churn",
            Workload::CertifySuite => "certify-suite",
        }
    }
}

/// Settings shared by every workload of one invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer replay instead of end-to-end measurement.
    pub trace: bool,
    /// First pinned port.
    pub port_base: u16,
    /// Scratch directory for daemon logs, removed after a clean run.
    pub run_dir: PathBuf,
    /// Where a per-layer run writes its Chrome trace.
    pub trace_path: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed: a non-ok answer, a transport failure or a
    /// failed check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// The metrics, end-to-end or per-layer by mode.
    pub metrics: Vec<Metric>,
    /// Digest of the canonical answers in request order, and how many
    /// answers it covers.
    pub digest: Option<(u64, usize)>,
}

impl Outcome {
    /// Records one failure, keeping the first few descriptions.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }
}

const USAGE: &str = "usage: benchmark [--workload NAME] --seed N [--seconds S] [--trace 0|1]
                 [--port-base PORT] [--out PATH]
       benchmark --compare A.jsonl B.jsonl
  --workload   cold-compile | warm-hit | cluster-churn | certify-suite
               (default: all four, one result line each)
  --seed       input seed; the same seed gives the same inputs
  --seconds    length of the measured phase (default 20)
  --trace      0: end-to-end metrics; 1: per-layer metrics from an
               in-process replay, plus a Chrome trace under bench-out/
  --port-base  first pinned loopback port (default 47310; uses 3)
  --out        append each result, with sample counts, to this JSONL file
  --compare    judge two JSONL files of --out results against the bounds
               in BENCHMARK.json";

fn usage_error(msg: &str) -> ! {
    eprintln!("benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            usage_error("--compare takes two files");
        };
        match compare::run(Path::new("BENCHMARK.json"), Path::new(a), Path::new(b)) {
            Ok(clean) => std::process::exit(if clean { 0 } else { 1 }),
            Err(e) => {
                eprintln!("benchmark: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut port_base = daemon::DEFAULT_PORT_BASE;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::ALL.into_iter().find(|w| w.name() == value) {
                Some(w) => workload = Some(w),
                None => usage_error(&format!("unknown workload '{value}'")),
            },
            "--seed" => seed = value.parse().ok().or_else(|| usage_error("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage_error("--seconds must be in (0, 600]"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            "--port-base" => {
                port_base = value
                    .parse()
                    .ok()
                    .filter(|p: &u16| *p > 0 && *p < u16::MAX - 3)
                    .unwrap_or_else(|| usage_error("bad --port-base"));
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let Some(seed) = seed else {
        usage_error("--seed is required");
    };
    let Some(w) = workload else {
        run_each(&args);
    };
    let out_dir = PathBuf::from("bench-out");
    let run_dir = out_dir.join(format!("{}-seed{seed}-pid{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("benchmark: {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        port_base,
        run_dir,
        trace_path: out_dir.join(format!("trace-{}-seed{seed}.json", w.name())),
    };
    eprintln!(
        "benchmark: {} seed {seed}, {seconds} s, trace {}",
        w.name(),
        u8::from(trace)
    );
    let result = match w {
        Workload::CertifySuite => suite::run(&ctx),
        _ => service::run(w, &ctx),
    };
    let outcome = result.unwrap_or_else(|e| {
        eprintln!("benchmark: {} could not run: {e}", w.name());
        eprintln!("benchmark: daemon logs kept in {}", ctx.run_dir.display());
        std::process::exit(2);
    });
    report(w, &ctx, &outcome);
    if let Some(path) = &out {
        if let Err(e) = append_record(path, w, &ctx, &outcome) {
            eprintln!("benchmark: {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        let _ = std::fs::remove_dir_all(&ctx.run_dir);
    } else {
        eprintln!("benchmark: logs kept in {}", ctx.run_dir.display());
        std::process::exit(1);
    }
}

/// Runs every workload, each in a process of its own: the trace
/// collector installs once per process, and certify-suite reports its
/// own peak memory. Exits 1 if any workload failed a check.
fn run_each(args: &[String]) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage_error(&e.to_string()));
    let mut all_correct = true;
    for w in Workload::ALL {
        match std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status()
        {
            Ok(s) if s.success() => {}
            Ok(s) if s.code() == Some(1) => all_correct = false,
            Ok(s) => std::process::exit(s.code().unwrap_or(2)),
            Err(e) => usage_error(&format!("cannot run {}: {e}", w.name())),
        }
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

/// A float as JSON with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn metrics_obj(outcome: &Outcome, with_samples: bool) -> String {
    let mut m = Obj::new();
    for metric in &outcome.metrics {
        let mut o = Obj::new()
            .raw("value", &num(metric.value))
            .str("unit", metric.unit);
        if with_samples {
            o = o.u64("samples", metric.samples as u64);
        }
        m = m.raw(metric.name, &o.finish());
    }
    m.finish()
}

/// The result line: the last line of stdout.
fn result_line(outcome: &Outcome) -> String {
    Obj::new()
        .bool("correct", outcome.failed == 0)
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics_obj(outcome, false))
        .finish()
}

fn append_record(path: &Path, w: Workload, ctx: &Ctx, outcome: &Outcome) -> std::io::Result<()> {
    let mut o = Obj::new()
        .str("workload", w.name())
        .u64("seed", ctx.seed)
        .u64("trace", u64::from(ctx.trace))
        .bool("correct", outcome.failed == 0)
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed);
    if let Some((d, n)) = outcome.digest {
        o = o
            .str("answers_digest", &format!("{d:016x}"))
            .u64("digest_answers", n as u64);
    }
    let line = o.raw("metrics", &metrics_obj(outcome, true)).finish();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

/// The human-readable table on stderr.
fn report(w: Workload, ctx: &Ctx, outcome: &Outcome) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "benchmark: {} seed {} ({} CPUs): {} attempted, {} failed",
        w.name(),
        ctx.seed,
        cpus,
        outcome.attempted,
        outcome.failed
    );
    for p in &outcome.problems {
        eprintln!("  FAILED: {p}");
    }
    for m in &outcome.metrics {
        eprintln!(
            "  {:<42} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some((d, n)) = outcome.digest {
        eprintln!("  answers_digest {d:016x} over {n} answers");
    }
}
