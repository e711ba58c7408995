//! Seeded input generation. Every request body, key draw and kernel order
//! derives from `--seed` alone, so one seed always yields the same inputs;
//! the daemons only ever see the generated requests.

use iced::arch::CgraConfig;
use iced::dfg::Dfg;
use iced::fuzz::gen::{generate, CfShape, GenOptions, Rng};
use iced::kernels::{Kernel, UnrollFactor};

/// Domain tags keeping the seed streams of different inputs independent.
const STREAM_COLD: u64 = 0xC01D;
const STREAM_WARM: u64 = 0x3A43;
const STREAM_CHURN: u64 = 0xC4C4;
const STREAM_SUITE: u64 = 0x5017;

/// A per-input seed from the run seed, a stream tag and indices.
fn derive(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    iced_hash::combine(&[seed, stream, a, b])
}

/// Generator options for inline DFGs: the fuzzer's defaults without the
/// two loop-nest shapes. Over 12 000 default-option seeds the heuristic
/// mapper failed only on nests (15 times); over 40 000 seeds without them
/// it never failed, so every cold-compile request has an ok answer.
fn gen_options() -> GenOptions {
    GenOptions {
        shapes: vec![
            CfShape::Straight,
            CfShape::Triangle,
            CfShape::Diamond,
            CfShape::NestedBranch,
            CfShape::EarlyExit,
        ],
        ..GenOptions::default()
    }
}

/// One `compile` request on an inline DFG, plus what its answer must say.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileInput {
    /// Request fields after `"id":N,` (JSON, no braces).
    pub body: String,
    /// The generator seed, so the DFG can be rebuilt for re-checks.
    pub gen_seed: u64,
    /// `iced` or `baseline`.
    pub strategy: &'static str,
    /// `Dfg::canonical_hash` of the generated graph.
    pub dfg_hash: u64,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// `iced::exact::lower_bound` on the prototype fabric.
    pub lower_bound: u32,
}

/// The generated DFG for `gen_seed`, or `None` if the generator rejects it.
pub fn inline_dfg(gen_seed: u64) -> Option<Dfg> {
    generate(gen_seed, &gen_options()).ok()
}

/// `"dfg":"<text>"`: a DFG as an inline request field.
fn inline_field(dfg: &Dfg) -> String {
    let mut field = String::from("\"dfg\":\"");
    iced_service::json::escape_into(&mut field, &iced::dfg::text::to_text(dfg));
    field.push('"');
    field
}

/// A `compile` body for a kernel source field under a strategy.
fn compile_body(source: &str, strategy: &str) -> String {
    format!("\"verb\":\"compile\",{source},\"strategy\":\"{strategy}\"")
}

fn compile_input(gen_seed: u64, strategy: &'static str, cfg: &CgraConfig) -> Option<CompileInput> {
    let dfg = inline_dfg(gen_seed)?;
    Some(CompileInput {
        body: compile_body(&inline_field(&dfg), strategy),
        gen_seed,
        strategy,
        dfg_hash: dfg.canonical_hash(),
        nodes: dfg.node_count(),
        edges: dfg.edge_count(),
        lower_bound: iced::exact::lower_bound(&dfg, cfg),
    })
}

/// Client `client`'s cold-compile stream: `count` requests on distinct
/// generated DFGs, strategies alternating `iced` / `baseline`.
pub fn cold_stream(seed: u64, client: usize, count: usize, cfg: &CgraConfig) -> Vec<CompileInput> {
    (0..count as u64)
        .filter_map(|i| {
            let strategy = if i % 2 == 0 { "iced" } else { "baseline" };
            compile_input(derive(seed, STREAM_COLD, client as u64, i), strategy, cfg)
        })
        .collect()
}

/// Suite kernels warm-hit sends by name: the eight cheapest to map.
const WARM_NAMED: [Kernel; 8] = [
    Kernel::Fir,
    Kernel::Latnrm,
    Kernel::Spmv,
    Kernel::Conv,
    Kernel::Relu,
    Kernel::Histogram,
    Kernel::LuInit,
    Kernel::LuInvert,
];

/// Suite kernels warm-hit sends as inline DFG text (15–33 nodes), so
/// half its requests pay the inline parse and WL hash. Fixed kernels, not
/// generated ones, so every seed primes and serves the same work.
const WARM_INLINE: [Kernel; 8] = [
    Kernel::Dtw,
    Kernel::Mvt,
    Kernel::Gemm,
    Kernel::GcnCompress,
    Kernel::GcnCombine,
    Kernel::LuDecompose,
    Kernel::LuSolver0,
    Kernel::LuDeterminant,
];

/// The warm-hit key set, as request bodies: every [`WARM_NAMED`] kernel
/// by name and every [`WARM_INLINE`] kernel as text, each under `iced`
/// and `baseline`.
pub fn warm_keys() -> Vec<String> {
    let named = WARM_NAMED
        .iter()
        .map(|k| format!("\"kernel\":\"{}\"", k.name()));
    let inline = WARM_INLINE
        .iter()
        .map(|k| inline_field(&k.dfg(UnrollFactor::X1)));
    named
        .chain(inline)
        .flat_map(|src| ["iced", "baseline"].map(|s| compile_body(&src, s)))
        .collect()
}

/// Key index of warm-hit request `i` on `client`: uniform over `keys`.
pub fn warm_draw(seed: u64, client: usize, i: u64, keys: usize) -> usize {
    Rng::new(derive(seed, STREAM_WARM, client as u64, i)).below(keys as u64) as usize
}

/// Suite kernels simulated in cluster-churn: six whose 20 000-iteration
/// engine runs cost about the same (12–15 ms on one core), so the cost of
/// a miss does not depend on which keys the seed makes hot.
const CHURN_KERNELS: [Kernel; 6] = [
    Kernel::Relu,
    Kernel::Histogram,
    Kernel::LuInit,
    Kernel::LuInvert,
    Kernel::GcnPooling,
    Kernel::Conv,
];

/// Distinct cluster-churn keys.
pub const CHURN_KEYS: usize = 4000;

/// Loop iterations per cluster-churn `simulate`.
pub const CHURN_ITERATIONS: u64 = 20_000;

/// One cluster-churn key: a kernel and an engine seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnKey {
    /// The suite kernel.
    pub kernel: Kernel,
    /// The engine seed.
    pub sim_seed: u64,
}

impl ChurnKey {
    /// Request fields after `"id":N,`.
    pub fn body(&self) -> String {
        format!(
            "\"verb\":\"simulate\",\"kernel\":\"{}\",\"iterations\":{CHURN_ITERATIONS},\"seed\":{}",
            self.kernel.name(),
            self.sim_seed
        )
    }
}

/// Key `k` of the cluster-churn key space.
pub fn churn_key(seed: u64, k: usize) -> ChurnKey {
    ChurnKey {
        kernel: CHURN_KERNELS[k % CHURN_KERNELS.len()],
        // Engine seeds stay below 2^32 so they are exact JSON numbers.
        sim_seed: derive(seed, STREAM_CHURN, 0, k as u64) & 0xffff_ffff,
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with weight `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The cluster-churn key order: rank `r` of the Zipf draw is key
/// `perm[r]`, so which keys are hot depends on the seed.
pub fn churn_permutation(seed: u64) -> Vec<usize> {
    shuffled(CHURN_KEYS, &mut Rng::new(derive(seed, STREAM_CHURN, 1, 0)))
}

/// Key drawn by cluster-churn request `i` on `client`.
pub fn churn_draw(seed: u64, client: usize, i: u64, zipf: &Zipf, perm: &[usize]) -> usize {
    let mut rng = Rng::new(derive(seed, STREAM_CHURN, 2 + client as u64, i));
    perm[zipf.sample(&mut rng)]
}

/// A Fisher–Yates shuffle of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// The order certify-suite visits the Table I kernels in on `pass`.
pub fn suite_order(seed: u64, pass: u64) -> Vec<Kernel> {
    let mut rng = Rng::new(derive(seed, STREAM_SUITE, pass, 0));
    shuffled(Kernel::ALL.len(), &mut rng)
        .into_iter()
        .map(|i| Kernel::ALL[i])
        .collect()
}

/// The Table I kernels at unroll ×1.
pub fn suite_dfgs() -> Vec<(Kernel, Dfg)> {
    Kernel::ALL
        .iter()
        .map(|&k| (k, k.dfg(UnrollFactor::X1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_generation_is_a_function_of_the_seed() {
        let cfg = CgraConfig::iced_prototype();
        let a = cold_stream(1, 0, 6, &cfg);
        assert_eq!(a, cold_stream(1, 0, 6, &cfg), "same seed, same bytes");
        assert_ne!(a, cold_stream(2, 0, 6, &cfg), "another seed, other inputs");
        assert_ne!(
            a,
            cold_stream(1, 1, 6, &cfg),
            "clients draw distinct streams"
        );
        assert_ne!(warm_draws(1), warm_draws(2));
        assert_eq!(churn_key(1, 7), churn_key(1, 7));
        assert_ne!(churn_key(1, 7), churn_key(2, 7));
        assert_eq!(suite_order(1, 0), suite_order(1, 0));
        assert_ne!(suite_order(1, 0), suite_order(2, 0));
    }

    fn warm_draws(seed: u64) -> Vec<usize> {
        (0..64).map(|i| warm_draw(seed, 0, i, 32)).collect()
    }

    #[test]
    fn warm_keys_are_distinct_requests() {
        let keys = warm_keys();
        assert_eq!(keys.len(), 32);
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let mut cache_keys: Vec<_> = keys
            .iter()
            .map(|b| {
                let req = iced_service::proto::parse_request(&format!("{{{b}}}")).expect("valid");
                iced_service::request_key(cfg, &req).expect("keyed")
            })
            .map(|k| (k.0, k.1))
            .collect();
        cache_keys.sort_unstable();
        cache_keys.dedup();
        assert_eq!(cache_keys.len(), 32, "no two keys share a cache entry");
        assert_eq!(warm_draws(1), warm_draws(1));
    }

    #[test]
    fn inline_requests_describe_their_dfg() {
        let cfg = CgraConfig::iced_prototype();
        for c in cold_stream(3, 0, 4, &cfg) {
            let dfg = inline_dfg(c.gen_seed).expect("generated");
            let line = format!("{{\"id\":1,{}}}", c.body);
            let req = iced_service::proto::parse_request(&line).expect("valid request");
            let iced_service::proto::Payload::Compile(spec) = req.payload else {
                panic!("not a compile");
            };
            assert_eq!(spec.source.canonical_hash(), c.dfg_hash);
            assert_eq!(dfg.node_count(), c.nodes);
            assert_eq!(dfg.edge_count(), c.edges);
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(CHURN_KEYS, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let ranks = draw(5);
        assert!(ranks.iter().all(|&r| r < CHURN_KEYS));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == CHURN_KEYS - 1).count();
        assert!(
            top > 100 && tail < 5,
            "rank 0 drawn {top}×, last rank {tail}×"
        );
        let perm = churn_permutation(1);
        assert_eq!(
            churn_draw(1, 0, 9, &z, &perm),
            churn_draw(1, 0, 9, &z, &perm)
        );
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..CHURN_KEYS).collect::<Vec<_>>(), "a permutation");
    }
}
