//! Per-layer attribution: an in-process replay of a workload's generated
//! inputs that calls each layer's public entry point in turn and times
//! it, plus the daemon-side numbers the service workloads read from the
//! daemons' own `metrics` verb.
//!
//! The replay runs twice. The first pass runs with tracing off and gives
//! the layer times. The second runs under a [`SpanCollector`]: it
//! gives the toolchain's own counters, one span per layer call tagged
//! with one request id per request, and the Chrome trace. The wall-time difference between the passes is the
//! tracing overhead. Mapping runs with `threads: 1`, so every counter
//! comes from this thread and repeats exactly.
//!
//! A layer's time is its own: where one public call contains another
//! timed layer (`parse_request` parses an inline DFG, `request_key`
//! hashes it), that layer's time on the same input is subtracted.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use iced::arch::CgraConfig;
use iced::exact::{certify, ExactOptions, Proof};
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::{
    label_dvfs_levels, map_with, power_gate_idle, relax_islands, relax_per_tile, Bitstream,
    MapperOptions, Mapping,
};
use iced::power::PowerModel;
use iced::sim::{run_engine, EnergyBreakdown, FabricStats};
use iced::trace::Phase;
use iced::Strategy;
use iced_service::json::{self, Obj, Value};
use iced_service::proto::{self, CompileSpec, Payload, SimulateSpec};
use iced_service::{request_key, CacheKey, ResultCache};

use crate::spans::SpanCollector;
use crate::Metric;

macro_rules! layer_table {
    ($($name:literal),* $(,)?) => {
        [$(($name, concat!($name, ".us"), concat!($name, ".calls"))),*]
    };
}

/// Every timed layer: (span name, total-time metric, call-count metric).
const LAYERS: [(&str, &str, &str); 16] = layer_table!(
    "service.json.parse",
    "service.proto.parse",
    "dfg.text.parse",
    "dfg.hash.wl",
    "service.cache.key",
    "service.cache.probe",
    "service.cache.insert",
    "mapper.place.map",
    "mapper.labeling",
    "mapper.relax",
    "mapper.bitstream.assemble",
    "sim.metrics.analyze",
    "sim.energy.account",
    "sim.engine",
    "exact.certify",
    "exact.heuristic_arm",
);

/// Serial maps of fft that make up the host calibration job.
const CALIB_MAPS: usize = 10;

/// What the exact replay certifies under.
pub fn exact_options() -> ExactOptions {
    ExactOptions {
        node_budget: crate::suite::NODE_BUDGET,
        ..ExactOptions::default()
    }
}

/// Numbers read from the daemons after the measured phase. All zero for
/// the in-process certify-suite.
#[derive(Debug, Clone, Default)]
pub struct DaemonSide {
    /// p50 of inline `healthz` round trips before measuring, µs.
    pub healthz_p50_us: f64,
    /// Cache hits over hits plus misses, summed over shards.
    pub hit_ratio: f64,
    /// Cache evictions, summed over shards.
    pub evictions: f64,
    /// Queue-wait p50 of the workload's verb (largest over shards), µs.
    pub queue_wait_p50_us: f64,
    /// Queue-wait p99, as above.
    pub queue_wait_p99_us: f64,
    /// Deepest the work queue got (largest over shards).
    pub queue_peak: f64,
    /// Worker service-time p50 of the workload's verb, µs.
    pub service_p50_us: f64,
    /// Worker service-time p99, µs.
    pub service_p99_us: f64,
    /// Router hop: p50 through the router minus p50 direct, µs.
    pub hop_p50_us: f64,
    /// Requests the router forwarded.
    pub forwarded: f64,
    /// Hot entries the router replicated.
    pub replicated: f64,
}

/// The inputs one replay walks through.
pub enum Replay {
    /// Service request lines, answered through content-addressed caches:
    /// one cache per shard address, keys placed by rendezvous hashing as
    /// the router places them.
    Service {
        /// Full request lines.
        lines: Vec<String>,
        /// Shard addresses (one entry for a single daemon).
        shards: Vec<String>,
        /// Byte budget of each cache.
        cache_bytes: u64,
    },
    /// Certification of the Table I kernels at ×1, in this order.
    Suite(Vec<Kernel>),
}

/// Accumulated (calls, nanoseconds) per layer.
#[derive(Debug, Default)]
struct Timer {
    layers: BTreeMap<&'static str, (u64, f64)>,
}

impl Timer {
    /// Runs `f` as one call of `layer` inside a span; returns its result
    /// and duration in ns.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = iced::trace::span(Phase::Bench, layer, &[]);
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as f64;
        let slot = self.layers.entry(layer).or_default();
        slot.0 += 1;
        slot.1 += ns;
        (out, ns)
    }

    /// Removes time that a nested layer already accounts for.
    fn discount(&mut self, layer: &'static str, ns: f64) {
        if let Some(slot) = self.layers.get_mut(layer) {
            slot.1 -= ns;
        }
    }

    fn us(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |s| (s.1 / 1e3).max(0.0))
    }

    fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |s| s.0)
    }
}

/// What one replay pass produced besides layer times.
#[derive(Debug, Default)]
struct PassTotals {
    nodes_explored: u64,
    optimal: u64,
}

struct ServiceState {
    cfg: CgraConfig,
    cfg_hash: u64,
    model: PowerModel,
    caches: Vec<ResultCache>,
    shard_ids: Vec<u64>,
}

impl ServiceState {
    fn cache(&self, key: CacheKey) -> &ResultCache {
        let owner = iced_hash::rendezvous_owner(key.0, key.1, &self.shard_ids).unwrap_or(0);
        &self.caches[owner]
    }
}

fn pass(replay: &Replay, t: &mut Timer) -> Result<PassTotals, String> {
    let mut totals = PassTotals::default();
    match replay {
        Replay::Service {
            lines,
            shards,
            cache_bytes,
        } => {
            let cfg = CgraConfig::iced_prototype();
            let st = ServiceState {
                cfg_hash: cfg.canonical_hash(),
                cfg,
                model: PowerModel::asap7(),
                caches: shards
                    .iter()
                    .map(|_| ResultCache::new(*cache_bytes, None))
                    .collect(),
                shard_ids: shards.iter().map(|a| iced_hash::shard_id(a)).collect(),
            };
            for (i, line) in lines.iter().enumerate() {
                let _req = iced::trace::request_scope(i as u64 + 1);
                replay_request(&st, line, t)?;
            }
        }
        Replay::Suite(order) => {
            let cfg = CgraConfig::iced_prototype();
            let heur = MapperOptions {
                threads: 1,
                ..MapperOptions::default()
            };
            let companion = MapperOptions {
                threads: 1,
                ..MapperOptions::baseline()
            };
            for (i, k) in order.iter().enumerate() {
                let _req = iced::trace::request_scope(i as u64 + 1);
                let dfg = k.dfg(UnrollFactor::X1);
                let (c, _) = t.time("exact.certify", || {
                    certify(&dfg, &cfg, &heur, &exact_options())
                });
                let c = c.map_err(|e| format!("certify {}: {e}", k.name()))?;
                t.time("exact.heuristic_arm", || {
                    (
                        map_with(&dfg, &cfg, &heur).ok(),
                        map_with(&dfg, &cfg, &companion).ok(),
                    )
                });
                totals.nodes_explored += c.certificate.nodes_explored;
                totals.optimal += u64::from(c.certificate.proof == Proof::Optimal);
            }
        }
    }
    Ok(totals)
}

/// One request through the steps a shard takes for it.
fn replay_request(st: &ServiceState, line: &str, t: &mut Timer) -> Result<(), String> {
    let (v, _) = t.time("service.json.parse", || json::parse(line));
    let v = v.map_err(|e| format!("replay json: {e}"))?;
    let (req, _) = t.time("service.proto.parse", || proto::parse_request(line));
    let req = req.map_err(|e| format!("replay request: {:?}", e.error))?;
    let mut inline_hash_ns = 0.0;
    if let Some(text) = v.get("dfg").and_then(Value::as_str) {
        let (dfg, ns) = t.time("dfg.text.parse", || iced::dfg::text::parse(text));
        t.discount("service.proto.parse", ns);
        let dfg = dfg.map_err(|e| format!("replay dfg: {e}"))?;
        inline_hash_ns = t.time("dfg.hash.wl", || dfg.canonical_hash()).1;
    }
    let (key, ns) = t.time("service.cache.key", || request_key(st.cfg_hash, &req));
    t.discount("service.cache.key", inline_hash_ns.min(ns));
    let key = key.ok_or("replayed request has no cache key")?;
    let cache = st.cache(key);
    if t.time("service.cache.probe", || cache.get(key)).0.is_some() {
        return Ok(());
    }
    let rendered = match &req.payload {
        Payload::Compile(spec) => compile(st, spec, t)?,
        Payload::Simulate(spec) => simulate(st, spec, t)?,
        _ => return Err("replay covers compile and simulate only".into()),
    };
    t.time("service.cache.insert", || {
        cache.put_shared(key, Arc::new(rendered))
    });
    Ok(())
}

/// Maps per the spec's strategy, as the shard's worker does, with one
/// mapper thread.
fn mapping(
    st: &ServiceState,
    spec: &CompileSpec,
    t: &mut Timer,
) -> Result<(iced::dfg::Dfg, Mapping), String> {
    let dfg = spec.source.dfg();
    let opts = MapperOptions {
        threads: 1,
        ..spec.mapper_options()
    };
    let (base, _) = t.time("mapper.place.map", || map_with(&dfg, &st.cfg, &opts));
    let base = base.map_err(|e| format!("replay map {}: {e}", dfg.name()))?;
    if opts.dvfs_aware {
        t.time("mapper.labeling", || {
            label_dvfs_levels(&dfg, &st.cfg, base.ii())
        });
    }
    let mapping = match spec.strategy {
        Strategy::Baseline => base,
        Strategy::BaselinePowerGated => t.time("mapper.relax", || power_gate_idle(&dfg, &base)).0,
        Strategy::PerTileDvfs => t.time("mapper.relax", || relax_per_tile(&dfg, &base)).0,
        Strategy::IcedIslands => t.time("mapper.relax", || relax_islands(&dfg, &base)).0,
    };
    Ok((dfg, mapping))
}

fn compile(st: &ServiceState, spec: &CompileSpec, t: &mut Timer) -> Result<String, String> {
    let (dfg, m) = mapping(st, spec, t)?;
    let (stats, _) = t.time("sim.metrics.analyze", || FabricStats::analyze(&m));
    let (energy, _) = t.time("sim.energy.account", || {
        EnergyBreakdown::account(&dfg, &m, &st.model, spec.strategy.dvfs_support(), 1000)
    });
    let (bits, _) = t.time("mapper.bitstream.assemble", || {
        Bitstream::assemble(&dfg, &m)
    });
    // The shard's rendering, so cache entries have the shard's sizes.
    Ok(Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.strategy_name())
        .u64("nodes", dfg.node_count() as u64)
        .u64("edges", dfg.edge_count() as u64)
        .u64("ii", u64::from(m.ii()))
        .u64("makespan", m.makespan())
        .f64("avg_dvfs_level", stats.average_dvfs_level())
        .f64("avg_utilization", stats.average_utilization())
        .f64("power_mw", energy.total_power_mw())
        .u64("bitstream_words", bits.words().len() as u64)
        .u64("bitstream_bytes", bits.total_bytes() as u64)
        .str("dfg_hash", &format!("{:016x}", dfg.canonical_hash()))
        .finish())
}

fn simulate(st: &ServiceState, spec: &SimulateSpec, t: &mut Timer) -> Result<String, String> {
    let (dfg, m) = mapping(st, &spec.compile, t)?;
    let (report, _) = t.time("sim.engine", || {
        run_engine(&dfg, &m, spec.iterations, spec.seed)
    });
    let report = report.map_err(|e| format!("replay engine {}: {e}", dfg.name()))?;
    Ok(Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.compile.strategy_name())
        .u64("ii", u64::from(m.ii()))
        .u64("iterations", report.iterations)
        .u64("cycles", report.cycles)
        .u64("ops_executed", report.ops_executed)
        .f64("fu_activity", report.fu_activity())
        .u64("fifo_peak", report.fifo_peak as u64)
        .finish())
}

/// A fixed in-process job, serial maps of fft ×1, timed before the
/// replay: it moves with the host, not with the workload.
fn host_calibration_ms() -> f64 {
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fft.dfg(UnrollFactor::X1);
    let opts = MapperOptions {
        threads: 1,
        ..MapperOptions::default()
    };
    let t0 = Instant::now();
    for _ in 0..CALIB_MAPS {
        let _ = std::hint::black_box(map_with(&dfg, &cfg, &opts));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Replays `replay` twice, writes the Chrome trace to `trace_path`, and
/// returns every per-layer metric, in `BENCHMARK.json` order.
pub fn measure(
    replay: &Replay,
    daemon: &DaemonSide,
    trace_path: &Path,
) -> Result<Vec<Metric>, String> {
    let calib_ms = host_calibration_ms();

    let mut timer = Timer::default();
    let t0 = Instant::now();
    let totals = pass(replay, &mut timer)?;
    let untraced_s = t0.elapsed().as_secs_f64();

    // Installed globally, not as a thread overlay: the mapper's router
    // counts routes only under a global collector. Installation is once
    // per process, so each process measures one workload.
    let rec = Arc::new(SpanCollector::new());
    iced::trace::install(rec.clone())
        .map_err(|_| "a trace collector is already installed in this process")?;
    let t0 = Instant::now();
    pass(replay, &mut Timer::default())?;
    let traced_s = t0.elapsed().as_secs_f64();
    write_chrome_trace(&rec, trace_path)?;
    print_self_times(&timer, untraced_s);

    let counter = |phase, name| rec.total(phase, name) as f64;
    let routes = counter(Phase::Router, "routes_requested");
    let cycles = counter(Phase::Sim, "cycles");
    let engine_s = timer.us("sim.engine") / 1e6;
    let search_us = (timer.us("exact.certify") - timer.us("exact.heuristic_arm")).max(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let d = daemon;
    let mut m = vec![
        Metric::new("service.reactor.healthz_p50_us", "us", d.healthz_p50_us, 1),
        Metric::new("service.cache.hit_ratio", "ratio", d.hit_ratio, 1),
        Metric::new("service.cache.evictions", "count", d.evictions, 1),
        Metric::new("service.queue.wait_p50_us", "us", d.queue_wait_p50_us, 1),
        Metric::new("service.queue.wait_p99_us", "us", d.queue_wait_p99_us, 1),
        Metric::new("service.queue.peak", "count", d.queue_peak, 1),
        Metric::new("service.server.service_p50_us", "us", d.service_p50_us, 1),
        Metric::new("service.server.service_p99_us", "us", d.service_p99_us, 1),
        Metric::new("service.router.hop_p50_us", "us", d.hop_p50_us, 1),
        Metric::new("service.router.forwarded", "count", d.forwarded, 1),
        Metric::new("service.router.replicated", "count", d.replicated, 1),
    ];
    for (layer, us, calls) in LAYERS {
        let n = timer.calls(layer) as usize;
        m.push(Metric::new(us, "us", timer.us(layer), n));
        m.push(Metric::new(calls, "count", n as f64, n));
    }
    let nodes = totals.nodes_explored as f64;
    m.extend([
        Metric::new("exact.search_us", "us", search_us, 1),
        Metric::new("exact.nodes_explored", "count", nodes, 1),
        Metric::new("exact.us_per_node", "us", ratio(search_us, nodes), 1),
        Metric::new(
            "exact.refutations",
            "count",
            counter(Phase::Mapper, "exact_refutations"),
            1,
        ),
        Metric::new("exact.optimal", "count", totals.optimal as f64, 1),
        Metric::new(
            "mapper.place.ii_attempts",
            "count",
            counter(Phase::Mapper, "ii_attempts"),
            1,
        ),
        Metric::new(
            "mapper.place.label_attempts",
            "count",
            counter(Phase::Mapper, "label_attempts"),
            1,
        ),
        Metric::new(
            "mapper.place.commit_aborts",
            "count",
            counter(Phase::Mapper, "commit_aborts"),
            1,
        ),
        Metric::new(
            "mapper.router.dijkstra_expansions",
            "count",
            counter(Phase::Router, "dijkstra_expansions"),
            1,
        ),
        Metric::new("mapper.router.routes_requested", "count", routes, 1),
        Metric::new(
            "mapper.router.route_fail_ratio",
            "ratio",
            ratio(counter(Phase::Router, "route_failures"), routes),
            1,
        ),
        Metric::new("sim.engine.cycles", "count", cycles, 1),
        Metric::new(
            "sim.engine.cycles_per_host_s",
            "1/s",
            ratio(cycles, engine_s),
            1,
        ),
        Metric::new(
            "sim.engine.token_wait_cycles",
            "count",
            counter(Phase::Sim, "token_wait_cycles"),
            1,
        ),
        Metric::new("host.calib_ms", "ms", calib_ms, CALIB_MAPS),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (traced_s - untraced_s) / untraced_s,
            1,
        ),
    ]);
    Ok(m)
}

fn write_chrome_trace(rec: &SpanCollector, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    iced::trace::export::write_chrome_trace(&rec.records(), &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("benchmark: Chrome trace written to {}", path.display());
    Ok(())
}

/// The per-layer self-time table, slowest layer first.
fn print_self_times(t: &Timer, wall_s: f64) {
    let mut rows: Vec<_> = LAYERS
        .iter()
        .filter(|(l, _, _)| t.calls(l) > 0)
        .map(|(l, _, _)| (*l, t.calls(l), t.us(l)))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    eprintln!(
        "  {:<28} {:>8} {:>12} {:>10} {:>7}",
        "layer (self time)", "calls", "total ms", "mean us", "share"
    );
    for (layer, calls, us) in rows {
        eprintln!(
            "  {layer:<28} {calls:>8} {:>12.3} {:>10.2} {:>6.1}%",
            us / 1e3,
            us / calls as f64,
            100.0 * us / (wall_s * 1e6)
        );
    }
}
