//! certify-suite: the exact mapper certifying the 21 Table I kernels at
//! ×1, in-process, in whole passes over the suite. Each kernel's time to
//! verdict is its median over the passes; throughput is kernels per
//! second of those medians, p50 their median, and the tail their maximum
//! (fft's), since 21 kernels cannot support a p99.
//!
//! The search does nearly all the work: fft and aggregate spend the whole
//! node budget failing to refute II 4, the other 19 kernels close with no
//! search at all. The budget is below the service's fixed 200 000 so a
//! pass fits a run (about 4 s on one core). The seed only orders each
//! pass, so every seed does the same work.

use std::time::Instant;

use iced::arch::CgraConfig;
use iced::exact::{certify, lower_bound, CertifiedII, Proof};
use iced::mapper::{check_dependencies, map_with, MapperOptions};

use crate::layers::{self, DaemonSide, Replay};
use crate::{inputs, stats, Ctx, Metric, Outcome};

/// Exact-search decision budget per kernel.
pub const NODE_BUDGET: u64 = 2000;

/// Set-up repetitions before each pass; `setup_s` is the median of all.
const SETUPS_PER_PASS: usize = 7;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if ctx.trace {
        let replay = Replay::Suite(inputs::suite_order(ctx.seed, 0));
        outcome.metrics = layers::measure(&replay, &DaemonSide::default(), &ctx.trace_path)?;
        outcome.attempted = iced::kernels::Kernel::ALL.len() as u64;
        return Ok(outcome);
    }

    // Set-up takes well under a millisecond, so it is repeated before
    // every pass: the median then spans the whole run, not one moment of
    // the host's load.
    let set_up = |times: &mut Vec<f64>| {
        let t0 = Instant::now();
        let cfg = CgraConfig::iced_prototype();
        let dfgs = inputs::suite_dfgs();
        let bounds: Vec<u32> = dfgs.iter().map(|(_, d)| lower_bound(d, &cfg)).collect();
        times.push(t0.elapsed().as_secs_f64());
        (cfg, dfgs, bounds)
    };
    let mut setups = Vec::new();
    let (cfg, dfgs, bounds) = set_up(&mut setups);

    let heur = MapperOptions::default();
    let xopts = layers::exact_options();
    let mut times_ms: Vec<Vec<f64>> = vec![Vec::new(); dfgs.len()];
    let mut certs: Vec<Option<CertifiedII>> = vec![None; dfgs.len()];
    let mut first_pass = Vec::new();
    let t0 = Instant::now();
    let mut pass = 0;
    while pass == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 0..SETUPS_PER_PASS {
            set_up(&mut setups);
        }
        for kernel in inputs::suite_order(ctx.seed, pass) {
            let idx = dfgs
                .iter()
                .position(|(k, _)| *k == kernel)
                .expect("suite kernel");
            let (_, dfg) = &dfgs[idx];
            outcome.attempted += 1;
            let t = Instant::now();
            let result = certify(dfg, &cfg, &heur, &xopts);
            times_ms[idx].push(t.elapsed().as_secs_f64() * 1e3);
            let c = match result {
                Ok(c) => c,
                Err(e) => {
                    outcome.fail(format!("certify {}: {e}", kernel.name()));
                    continue;
                }
            };
            match certs[idx] {
                None => certs[idx] = Some(c.certificate),
                Some(prev) if prev != c.certificate => outcome.fail(format!(
                    "{}: certificate changed between passes: {prev:?} then {:?}",
                    kernel.name(),
                    c.certificate
                )),
                Some(_) => {}
            }
            if pass == 0 {
                first_pass.push((idx, c));
            }
        }
        pass += 1;
    }
    for (idx, c) in &first_pass {
        let (kernel, dfg) = &dfgs[*idx];
        check(&mut outcome, kernel.name(), dfg, &cfg, bounds[*idx], c);
    }

    let optimal = certs
        .iter()
        .flatten()
        .filter(|c| c.proof == Proof::Optimal)
        .count();
    eprintln!(
        "benchmark: {pass} passes, {optimal}/{} kernels proven optimal under {NODE_BUDGET} nodes",
        dfgs.len()
    );
    let hashes = first_pass
        .iter()
        .map(|(idx, c)| cert_hash(dfgs[*idx].0.name(), &c.certificate));
    outcome.digest = Some((crate::answer::digest(hashes), first_pass.len()));
    let per_kernel = stats::sorted(
        &times_ms
            .iter()
            .map(|t| stats::median(t))
            .collect::<Vec<_>>(),
    );
    let n = outcome.attempted as usize;
    outcome.metrics = vec![
        Metric::new(
            "throughput_ops",
            "1/s",
            1e3 * per_kernel.len() as f64 / per_kernel.iter().sum::<f64>(),
            n,
        ),
        Metric::new(
            "latency_p50_ms",
            "ms",
            stats::percentile(&per_kernel, 0.5),
            n,
        ),
        Metric::new("latency_p99_ms", "ms", stats::tail(&per_kernel), n),
        Metric::new("setup_s", "s", stats::median(&setups), setups.len()),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            crate::daemon::peak_rss_mib(std::process::id()).unwrap_or(0.0),
            1,
        ),
    ];
    Ok(outcome)
}

fn cert_hash(kernel: &str, c: &CertifiedII) -> u64 {
    crate::answer::hash(&format!(
        "{kernel} {} {} {} {}",
        c.ii,
        c.lower_bound,
        c.nodes_explored,
        c.proof.name()
    ))
}

/// `lower_bound ≤ ii ≤ heuristic ii`, and the mapping honours every
/// dependence. The heuristic II is the better of the two strategy
/// families certify's own heuristic arm runs.
fn check(
    outcome: &mut Outcome,
    name: &str,
    dfg: &iced::dfg::Dfg,
    cfg: &CgraConfig,
    lb: u32,
    c: &iced::exact::Certified,
) {
    let ii = c.certificate.ii;
    let heuristic = [MapperOptions::default(), MapperOptions::baseline()]
        .iter()
        .filter_map(|o| map_with(dfg, cfg, o).ok())
        .map(|m| m.ii())
        .min();
    if c.certificate.lower_bound != lb || ii < lb {
        outcome.fail(format!("{name}: ii {ii} below lower bound {lb}"));
    } else if heuristic.is_some_and(|h| ii > h) {
        outcome.fail(format!("{name}: ii {ii} above heuristic {heuristic:?}"));
    } else if c.mapping.ii() != ii || !check_dependencies(dfg, &c.mapping) {
        outcome.fail(format!("{name}: mapping fails the dependence check"));
    }
}
