//! The three service workloads: cold-compile, warm-hit and cluster-churn.
//! Each starts the real daemons, drives them closed-loop from two client
//! threads (compile clients wait for their answer) and checks every
//! answer once the measured phase is over.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use iced::arch::CgraConfig;
use iced::kernels::UnrollFactor;
use iced::mapper::{check_dependencies, map_with, relax_islands, MapperOptions};
use iced::sim::run_engine;
use iced_service::json::{self, Value};

use crate::daemon::{self, Conn, Daemon};
use crate::inputs::{self, CompileInput, Zipf};
use crate::layers::{self, DaemonSide, Replay};
use crate::{answer, stats, Ctx, Metric, Outcome, Workload};

/// Closed-loop client threads, one connection each.
const CLIENTS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// The measured phase is cut into slices this long (see [`quiet`]).
const SLICE_S: f64 = 0.5;

/// Every this many answers is recomputed in-process and compared.
const RECHECK_EVERY: usize = 50;

/// The answers digest covers this many answers per client.
const DIGEST_PREFIX: usize = 100;

/// Cold-compile requests per client. A fixed count, so every run of a
/// seed compiles the same DFGs and the daemon's cache grows by the same
/// amount, whatever the speed (about 11 s on two vCPUs); `--seconds`
/// still caps the phase.
const COLD_REQUESTS_PER_CLIENT: usize = 2000;

/// Each cluster-churn shard's cache budget: about 40 entries. Most of the
/// Zipf traffic misses, so the median request is an engine run (or a hit
/// queued behind one) rather than sitting between the fast hits and the
/// slow misses, where it would jump from run to run.
const SHARD_CACHE_BYTES: u64 = 8 * 1024;

/// The single daemon's default cache budget (`ICED_SVC_CACHE_MB` 64).
const DAEMON_CACHE_BYTES: u64 = 64 << 20;

/// Inline `healthz` round trips timed before the measured phase.
const HEALTHZ_PROBES: usize = 2000;

/// Warm round trips timed through the router and directly at its shard.
const HOP_PROBES: usize = 1000;

/// Replay sizes for the per-layer run.
const COLD_REPLAY: usize = 50;
const WARM_REPLAY: usize = 2000;
const CHURN_REPLAY: usize = 400;

/// The running daemons of one deployment.
struct Deployment {
    /// Where clients connect: the router, or the single daemon.
    front: String,
    /// Shard addresses (the single daemon counts as one shard).
    shards: Vec<String>,
    /// Every child, front first.
    daemons: Vec<Daemon>,
}

impl Deployment {
    fn start(w: Workload, ctx: &Ctx) -> Result<Deployment, String> {
        let serviced = daemon::sibling_binary("iced-serviced")?;
        let front = daemon::loopback(ctx.port_base);
        if w != Workload::ClusterChurn {
            daemon::ensure_free(&front)?;
            let args = strings(&["--addr", &front, "--threads", "2"]);
            let d = Daemon::start(&serviced, &args, &front, &ctx.run_dir)?;
            daemon::control(&front, "healthz")?;
            return Ok(Deployment {
                shards: vec![front.clone()],
                front,
                daemons: vec![d],
            });
        }
        let routerd = daemon::sibling_binary("iced-routerd")?;
        let shards: Vec<String> = (1..=2)
            .map(|i| daemon::loopback(ctx.port_base + i))
            .collect();
        for addr in std::iter::once(&front).chain(&shards) {
            daemon::ensure_free(addr)?;
        }
        let mut daemons = Vec::new();
        for s in &shards {
            let args = strings(&[
                "--addr",
                s,
                "--threads",
                "1",
                "--cache-bytes",
                &SHARD_CACHE_BYTES.to_string(),
            ]);
            daemons.push(Daemon::start(&serviced, &args, s, &ctx.run_dir)?);
            daemon::control(s, "healthz")?;
        }
        let args = strings(&["--addr", &front, "--shards", &shards.join(",")]);
        daemons.insert(0, Daemon::start(&routerd, &args, &front, &ctx.run_dir)?);
        daemon::control(&front, "healthz")?;
        Ok(Deployment {
            front,
            shards,
            daemons,
        })
    }

    fn peak_rss_mib(&self) -> f64 {
        self.daemons.iter().filter_map(Daemon::peak_rss_mib).sum()
    }

    /// Sends `shutdown` to the front (the router forwards it to its
    /// shards) and waits for every daemon to exit 0.
    fn shutdown(self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(e) = daemon::control(&self.front, "shutdown") {
            problems.push(e);
        }
        for d in self.daemons {
            if let Err(e) = d.finish() {
                problems.push(e);
            }
        }
        problems
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// A workload's generated inputs.
enum Plan {
    Cold { pools: Vec<Vec<CompileInput>> },
    Warm { keys: Vec<String> },
    Churn { zipf: Zipf, perm: Vec<usize> },
}

impl Plan {
    fn new(w: Workload, ctx: &Ctx, cfg: &CgraConfig) -> Plan {
        match w {
            Workload::ColdCompile => Plan::Cold {
                pools: (0..CLIENTS)
                    .map(|c| inputs::cold_stream(ctx.seed, c, COLD_REQUESTS_PER_CLIENT, cfg))
                    .collect(),
            },
            Workload::WarmHit => Plan::Warm {
                keys: inputs::warm_keys(),
            },
            Workload::ClusterChurn => Plan::Churn {
                zipf: Zipf::new(inputs::CHURN_KEYS, 1.0),
                perm: inputs::churn_permutation(ctx.seed),
            },
            Workload::CertifySuite => unreachable!("certify-suite runs in-process"),
        }
    }

    /// Request `i` of `client`: its key and body, or `None` once the
    /// cold-compile stream is done.
    fn next(&self, seed: u64, client: usize, i: u64) -> Option<(usize, String)> {
        match self {
            Plan::Cold { pools } => pools[client]
                .get(i as usize)
                .map(|c| (i as usize, c.body.clone())),
            Plan::Warm { keys } => {
                let k = inputs::warm_draw(seed, client, i, keys.len());
                Some((k, keys[k].clone()))
            }
            Plan::Churn { zipf, perm } => {
                let k = inputs::churn_draw(seed, client, i, zipf, perm);
                Some((k, inputs::churn_key(seed, k).body()))
            }
        }
    }

    /// The requests that end set-up: warm-hit primes every key; the others
    /// send one request outside their key space (a suite kernel their
    /// streams never use).
    fn first_requests(&self) -> Vec<String> {
        match self {
            Plan::Warm { keys } => keys.clone(),
            Plan::Cold { .. } => vec!["\"verb\":\"compile\",\"kernel\":\"fft\"".into()],
            Plan::Churn { .. } => vec![format!(
                "\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":{}",
                inputs::CHURN_ITERATIONS
            )],
        }
    }

    /// Sends [`Plan::first_requests`] to a fresh deployment; each must be
    /// answered ok and uncached. Returns the canonical answer hashes.
    fn prime(&self, front: &str) -> Result<Vec<u64>, String> {
        let mut c = Conn::open(front).map_err(|e| format!("prime: {e}"))?;
        self.first_requests()
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let line = c.call(i as u64, body).map_err(|e| format!("prime: {e}"))?;
                let f = answer::fields(line).ok_or_else(|| format!("prime: bad answer {line}"))?;
                if answer::get(&f, "ok") != Some("true")
                    || answer::get(&f, "cached") != Some("false")
                {
                    return Err(format!("prime: expected a cold ok answer, got {line}"));
                }
                Ok(answer::hash(&answer::canonical(&f)))
            })
            .collect()
    }

    /// The verb whose daemon-side histograms describe this workload.
    fn verb(&self) -> &'static str {
        match self {
            Plan::Churn { .. } => "simulate",
            _ => "compile",
        }
    }
}

/// One answered request.
struct Answered {
    client: usize,
    i: u64,
    key: usize,
    latency_ms: f64,
    done: Instant,
    ok: bool,
    cached: bool,
    canon: u64,
    raw: String,
}

/// The closed-loop measured phase.
struct Drive {
    answers: Vec<Answered>,
    transport: Vec<String>,
    start: Instant,
    window_s: f64,
}

/// Runs `CLIENTS` closed-loop clients against `front` for `seconds`.
/// Answers are only split and hashed here; checks run afterwards.
fn drive(front: &str, seconds: f64, plan: &Plan, seed: u64) -> Drive {
    let barrier = Barrier::new(CLIENTS);
    let keep = !matches!(plan, Plan::Warm { .. });
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || {
                    let conn = Conn::open(front);
                    barrier.wait();
                    let start = Instant::now();
                    let mut answers = Vec::new();
                    let mut conn = match conn {
                        Ok(c) => c,
                        Err(e) => return (start, start, answers, Some(format!("connect: {e}"))),
                    };
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut i = 0u64;
                    let mut error = None;
                    while Instant::now() < deadline {
                        let Some((key, body)) = plan.next(seed, client, i) else {
                            break;
                        };
                        let id = (client as u64 + 1) * 1_000_000_000 + i;
                        let t0 = Instant::now();
                        match conn.call(id, &body) {
                            Ok(line) => {
                                let done = Instant::now();
                                let latency_ms = (done - t0).as_secs_f64() * 1e3;
                                let a = inspect(client, i, key, latency_ms, done, line, keep);
                                answers.push(a);
                            }
                            Err(e) => {
                                error = Some(format!("client {client} request {i}: {e}"));
                                break;
                            }
                        }
                        i += 1;
                    }
                    (start, Instant::now(), answers, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let start = per_client.iter().map(|c| c.0).min().expect("clients");
    let end = per_client.iter().map(|c| c.1).max().expect("clients");
    let mut d = Drive {
        answers: Vec::new(),
        transport: Vec::new(),
        start,
        window_s: (end - start).as_secs_f64(),
    };
    for (_, _, answers, error) in per_client {
        d.answers.extend(answers);
        d.transport.extend(error);
    }
    d
}

/// Splits and hashes one answer. Its bytes are kept only where a check
/// reads them: warm-hit compares hashes, and keeping 200 000 answers
/// would cost more memory than the daemon under test.
fn inspect(
    client: usize,
    i: u64,
    key: usize,
    latency_ms: f64,
    done: Instant,
    line: &str,
    keep: bool,
) -> Answered {
    let f = answer::fields(line).unwrap_or_default();
    let ok = answer::get(&f, "ok") == Some("true");
    Answered {
        client,
        i,
        key,
        latency_ms,
        done,
        ok,
        cached: answer::get(&f, "cached") == Some("true"),
        canon: answer::hash(&answer::canonical(&f)),
        raw: if keep || !ok {
            line.to_string()
        } else {
            String::new()
        },
    }
}

/// The parsed `result` object of an answer.
fn result_of(raw: &str) -> Option<Value> {
    let f = answer::fields(raw)?;
    json::parse(answer::get(&f, "result")?).ok()
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

pub fn run(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = CgraConfig::iced_prototype();
    let plan = Plan::new(w, ctx, &cfg);
    let mut outcome = Outcome::default();

    // Half the set-ups run before the measured phase and the rest after
    // it, so their median does not hang on one moment of the host's load.
    // A per-layer run reports no set-up time and sets up once.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    if !ctx.trace {
        for _ in 0..SETUP_REPEATS / 2 {
            let (dep, _) = set_up(w, ctx, &plan, &mut setups)?;
            for p in dep.shutdown() {
                outcome.fail(p);
            }
        }
    }
    let (dep, primed) = set_up(w, ctx, &plan, &mut setups)?;

    let healthz_p50_us = if ctx.trace {
        healthz_probe(&dep.front)?
    } else {
        0.0
    };
    let d = drive(&dep.front, ctx.seconds, &plan, ctx.seed);
    let daemon_side = if ctx.trace {
        let mut side = read_daemons(&dep, &plan)?;
        side.healthz_p50_us = healthz_p50_us;
        if let Plan::Churn { perm, .. } = &plan {
            side.hop_p50_us = hop_probe(&dep, &cfg, ctx.seed, perm[0], &mut outcome)?;
        }
        Some(side)
    } else {
        None
    };
    let rss = dep.peak_rss_mib();
    let daemons = dep.daemons.len();
    for p in dep.shutdown() {
        outcome.fail(p);
    }

    while !ctx.trace && setups.len() < SETUP_REPEATS {
        let (dep, _) = set_up(w, ctx, &plan, &mut setups)?;
        for p in dep.shutdown() {
            outcome.fail(p);
        }
    }

    outcome.attempted = (d.answers.len() + d.transport.len()) as u64;
    for e in &d.transport {
        outcome.fail(e.clone());
    }
    check(&plan, &d.answers, &primed, ctx.seed, &cfg, &mut outcome);
    outcome.digest = Some(digest(&d.answers));

    if let Some(side) = daemon_side {
        let replay = replay_inputs(&plan, ctx);
        outcome.metrics = layers::measure(&replay, &side, &ctx.trace_path)?;
        return Ok(outcome);
    }
    let q = quiet(&d).ok_or("no request was answered")?;
    let hits = d.answers.iter().filter(|a| a.cached).count();
    eprintln!(
        "benchmark: {} answers in {:.3} s, {hits} from the cache; {} answers in the {} quiet slices",
        d.answers.len(),
        d.window_s,
        q.answers,
        q.slices
    );
    outcome.metrics = vec![
        Metric::new("throughput_ops", "1/s", q.throughput, q.answers),
        Metric::new("latency_p50_ms", "ms", q.p50_ms, q.answers),
        Metric::new("latency_p99_ms", "ms", q.p99_ms, q.answers),
        Metric::new("setup_s", "s", stats::median(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MiB", rss, daemons),
    ];
    Ok(outcome)
}

/// Starts a deployment and waits for its first answers, adding the time
/// that took to `times`.
fn set_up(
    w: Workload,
    ctx: &Ctx,
    plan: &Plan,
    times: &mut Vec<f64>,
) -> Result<(Deployment, Vec<u64>), String> {
    let t0 = Instant::now();
    let dep = Deployment::start(w, ctx)?;
    let primed = plan.prime(&dep.front)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok((dep, primed))
}

/// End-to-end numbers over the quiet slices of the measured phase.
struct Quiet {
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    answers: usize,
    slices: usize,
}

/// Cuts the measured phase into slices and keeps the quiet half: the
/// slices with the lowest median latency. On a host shared with other
/// tenants the same work runs up to twice as slow for seconds at a time;
/// the quiet half tracks the uncontended machine, and a change to the
/// code moves it just as it moves the whole phase. Throughput and p50 are
/// medians over the quiet slices, p99 is over all their answers.
fn quiet(d: &Drive) -> Option<Quiet> {
    let len = SLICE_S.min(d.window_s);
    let n = ((d.window_s / len).floor() as usize).max(1);
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
    for a in d.answers.iter().filter(|a| a.ok) {
        let k = ((a.done - d.start).as_secs_f64() / len) as usize;
        if let Some(slice) = slices.get_mut(k) {
            slice.push(a.latency_ms);
        }
    }
    let mut ranked: Vec<(f64, Vec<f64>)> = slices
        .into_iter()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let l = stats::sorted(&l);
            (stats::percentile(&l, 0.5), l)
        })
        .collect();
    if ranked.is_empty() {
        return None;
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.truncate(ranked.len().div_ceil(2));
    let all: Vec<f64> = ranked.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    Some(Quiet {
        throughput: stats::median(
            &ranked
                .iter()
                .map(|(_, l)| l.len() as f64 / len)
                .collect::<Vec<_>>(),
        ),
        p50_ms: stats::median(&ranked.iter().map(|(m, _)| *m).collect::<Vec<_>>()),
        p99_ms: stats::tail(&stats::sorted(&all)),
        answers: all.len(),
        slices: ranked.len(),
    })
}

/// Checks every answer; a request fails at most once.
fn check(
    plan: &Plan,
    answers: &[Answered],
    primed: &[u64],
    seed: u64,
    cfg: &CgraConfig,
    outcome: &mut Outcome,
) {
    let mut first: BTreeMap<usize, &Answered> = BTreeMap::new();
    for a in answers {
        let verdict = if !a.ok {
            Err(format!("not ok: {}", a.raw))
        } else {
            match plan {
                Plan::Cold { pools } => check_cold(&pools[a.client][a.i as usize], a, cfg),
                Plan::Warm { .. } if !a.cached => Err("warm-hit answer not cached".into()),
                Plan::Warm { .. } if a.canon != primed[a.key] => {
                    Err(format!("key {} differs from its primed answer", a.key))
                }
                Plan::Warm { .. } => Ok(()),
                Plan::Churn { .. } => match first.get(&a.key) {
                    Some(f) if f.canon != a.canon => {
                        Err(format!("key {} answered two ways", a.key))
                    }
                    Some(_) => Ok(()),
                    None => {
                        first.insert(a.key, a);
                        Ok(())
                    }
                },
            }
        };
        if let Err(e) = verdict {
            outcome.fail(format!("client {} request {}: {e}", a.client, a.i));
        }
    }
    if let Plan::Churn { .. } = plan {
        for a in first.values().step_by(RECHECK_EVERY) {
            if let Err(e) = recheck_churn(seed, a, cfg) {
                outcome.fail(format!("key {}: {e}", a.key));
            }
        }
    }
}

/// The answer describes the client's own DFG, its II respects the lower
/// bound, and every `RECHECK_EVERY`th answer matches an in-process
/// compile that passes the dependence check.
fn check_cold(input: &CompileInput, a: &Answered, cfg: &CgraConfig) -> Result<(), String> {
    let r = result_of(&a.raw).ok_or("answer has no result")?;
    let ii = u64_field(&r, "ii").ok_or("no ii")?;
    if u64_field(&r, "nodes") != Some(input.nodes as u64)
        || u64_field(&r, "edges") != Some(input.edges as u64)
        || r.get("dfg_hash").and_then(Value::as_str) != Some(&format!("{:016x}", input.dfg_hash))
    {
        return Err("answer describes another DFG".into());
    }
    if ii < u64::from(input.lower_bound) {
        return Err(format!("ii {ii} below lower bound {}", input.lower_bound));
    }
    if !(a.i as usize).is_multiple_of(RECHECK_EVERY) {
        return Ok(());
    }
    let dfg = inputs::inline_dfg(input.gen_seed).ok_or("generator rejected a pooled seed")?;
    let iced = input.strategy == "iced";
    let opts = if iced {
        MapperOptions::default()
    } else {
        MapperOptions::baseline()
    };
    let base = map_with(&dfg, cfg, &opts).map_err(|e| format!("in-process map: {e}"))?;
    let m = if iced {
        relax_islands(&dfg, &base)
    } else {
        base
    };
    if !check_dependencies(&dfg, &m) {
        return Err("in-process mapping fails the dependence check".into());
    }
    if ii != u64::from(m.ii()) || u64_field(&r, "makespan") != Some(m.makespan()) {
        return Err(format!(
            "ii/makespan {ii}/{:?} differ from in-process {}/{}",
            u64_field(&r, "makespan"),
            m.ii(),
            m.makespan()
        ));
    }
    Ok(())
}

/// The engine run in-process gives the answer's cycles and op count.
fn recheck_churn(seed: u64, a: &Answered, cfg: &CgraConfig) -> Result<(), String> {
    let key = inputs::churn_key(seed, a.key);
    let dfg = key.kernel.dfg(UnrollFactor::X1);
    let base = map_with(&dfg, cfg, &MapperOptions::default()).map_err(|e| e.to_string())?;
    let m = relax_islands(&dfg, &base);
    let report =
        run_engine(&dfg, &m, inputs::CHURN_ITERATIONS, key.sim_seed).map_err(|e| e.to_string())?;
    let r = result_of(&a.raw).ok_or("answer has no result")?;
    if u64_field(&r, "cycles") != Some(report.cycles)
        || u64_field(&r, "ops_executed") != Some(report.ops_executed)
    {
        return Err(format!(
            "engine gives {} cycles / {} ops, the answer {:?} / {:?}",
            report.cycles,
            report.ops_executed,
            u64_field(&r, "cycles"),
            u64_field(&r, "ops_executed")
        ));
    }
    Ok(())
}

/// Digest of the first `DIGEST_PREFIX` canonical answers of each client.
fn digest(answers: &[Answered]) -> (u64, usize) {
    let mut prefix: Vec<&Answered> = answers
        .iter()
        .filter(|a| (a.i as usize) < DIGEST_PREFIX)
        .collect();
    prefix.sort_by_key(|a| (a.client, a.i));
    (answer::digest(prefix.iter().map(|a| a.canon)), prefix.len())
}

fn healthz_probe(front: &str) -> Result<f64, String> {
    let mut c = Conn::open(front).map_err(|e| format!("healthz probe: {e}"))?;
    let mut us = Vec::with_capacity(HEALTHZ_PROBES);
    for i in 0..HEALTHZ_PROBES {
        let t0 = Instant::now();
        let line = c
            .call(i as u64, "\"verb\":\"healthz\"")
            .map_err(|e| format!("healthz probe: {e}"))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !line.contains("\"ok\":true") {
            return Err(format!("healthz probe: {line}"));
        }
    }
    Ok(stats::percentile(&stats::sorted(&us), 0.5))
}

/// Queue, service-time and cache numbers from each shard's `metrics`,
/// plus the router's forwarding counters.
fn read_daemons(dep: &Deployment, plan: &Plan) -> Result<DaemonSide, String> {
    let mut side = DaemonSide::default();
    let (mut hits, mut misses) = (0.0, 0.0);
    let num = |v: &Value, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    for shard in &dep.shards {
        let r = result_of(&daemon::control(shard, "metrics")?)
            .ok_or_else(|| format!("{shard}: metrics without a result"))?;
        hits += num(&r, &["cache_hits"]);
        misses += num(&r, &["cache_misses"]);
        side.evictions += num(&r, &["cache_evictions"]);
        side.queue_peak = side.queue_peak.max(num(&r, &["queue_peak"]));
        let verb = plan.verb();
        for (slot, path) in [
            (&mut side.queue_wait_p50_us, ["queue_wait", verb, "p50_us"]),
            (&mut side.queue_wait_p99_us, ["queue_wait", verb, "p99_us"]),
            (&mut side.service_p50_us, ["service_time", verb, "p50_us"]),
            (&mut side.service_p99_us, ["service_time", verb, "p99_us"]),
        ] {
            *slot = slot.max(num(&r, &path));
        }
    }
    side.hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if dep.shards.len() > 1 {
        let r = result_of(&daemon::control(&dep.front, "metrics")?)
            .ok_or("router metrics without a result")?;
        side.forwarded = num(&r, &["forwarded"]);
        side.replicated = num(&r, &["replicated"]);
    }
    Ok(side)
}

/// p50 of warm round trips for the hottest key through the router, minus
/// p50 of the same request sent straight to its home shard.
fn hop_probe(
    dep: &Deployment,
    cfg: &CgraConfig,
    seed: u64,
    key: usize,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let body = inputs::churn_key(seed, key).body();
    let req = iced_service::proto::parse_request(&format!("{{\"id\":0,{body}}}"))
        .map_err(|e| format!("hop probe request: {:?}", e.error))?;
    let ck = iced_service::request_key(cfg.canonical_hash(), &req).ok_or("no cache key")?;
    let ids: Vec<u64> = dep.shards.iter().map(|a| iced_hash::shard_id(a)).collect();
    let home = iced_hash::rendezvous_owner(ck.0, ck.1, &ids).ok_or("no shards")?;
    let mut p50 = |addr: &str| -> Result<f64, String> {
        let mut c = Conn::open(addr).map_err(|e| format!("hop probe {addr}: {e}"))?;
        let mut us = Vec::with_capacity(HOP_PROBES);
        for i in 0..HOP_PROBES {
            let t0 = Instant::now();
            let line = c
                .call(i as u64, &body)
                .map_err(|e| format!("hop probe {addr}: {e}"))?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if !line.contains("\"ok\":true") {
                outcome.fail(format!("hop probe {addr}: {line}"));
            }
        }
        Ok(stats::percentile(&stats::sorted(&us), 0.5))
    };
    let routed = p50(&dep.front)?;
    let direct = p50(&dep.shards[home])?;
    Ok(routed - direct)
}

/// The in-process replay's inputs: the start of client 0's stream, and
/// for warm-hit the primed keys first.
fn replay_inputs(plan: &Plan, ctx: &Ctx) -> Replay {
    let line = |i: usize, body: &str| format!("{{\"id\":{i},{body}}}");
    let (lines, shards, cache_bytes) = match plan {
        Plan::Cold { pools } => (
            pools[0]
                .iter()
                .take(COLD_REPLAY)
                .enumerate()
                .map(|(i, c)| line(i, &c.body))
                .collect(),
            vec![daemon::loopback(ctx.port_base)],
            DAEMON_CACHE_BYTES,
        ),
        Plan::Warm { keys } => (
            keys.iter()
                .cloned()
                .chain(
                    (0..WARM_REPLAY as u64)
                        .map(|i| keys[inputs::warm_draw(ctx.seed, 0, i, keys.len())].clone()),
                )
                .enumerate()
                .map(|(i, body)| line(i, &body))
                .collect(),
            vec![daemon::loopback(ctx.port_base)],
            DAEMON_CACHE_BYTES,
        ),
        Plan::Churn { zipf, perm } => (
            (0..CHURN_REPLAY)
                .map(|i| {
                    let k = inputs::churn_draw(ctx.seed, 0, i as u64, zipf, perm);
                    line(i, &inputs::churn_key(ctx.seed, k).body())
                })
                .collect(),
            (1..=2)
                .map(|i| daemon::loopback(ctx.port_base + i))
                .collect(),
            SHARD_CACHE_BYTES,
        ),
    };
    Replay::Service {
        lines,
        shards,
        cache_bytes,
    }
}
