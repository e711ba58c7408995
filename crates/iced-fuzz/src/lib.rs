//! Seeded DFG fuzzing and differential cross-backend checking.
//!
//! ICED's reproduction has three independent answer paths — the heuristic
//! mapper, the certified exact backend, and the compiled sim engine with
//! its preserved oracle. This crate turns them into a standing
//! scenario-coverage engine:
//!
//! * [`gen`] — a deterministic, structure-aware DFG corpus generator grown
//!   out of the random-DFG proptests: op mixes, recurrence distances,
//!   memory/multiplier pressure, and control-flow shapes (straight-line,
//!   triangles/diamonds, nested branches, early exits, perfect and
//!   imperfect loop nests) with optional unrolling.
//! * [`harness`] — runs one generated kernel × fault-density rung through
//!   every backend and cross-checks the answers: `lower_bound ≤ heuristic
//!   II`, dependency-checker acceptance, exact-certification agreement,
//!   and engine/oracle bit-identity. Any typed `MapError`/`EngineError` is
//!   an acceptable outcome; panics and backend disagreement are
//!   [`harness::Bug`]s.
//! * [`mod@minimize`] — greedy node/edge deletion preserving a failure
//!   signature, shrinking found bugs to small committed repros.
//! * [`corpus`] — the committed `.dfg` regression corpus, replayed as unit
//!   tests and by the `fuzz_sweep` bench binary.
//!
//! Everything is deterministic: same seed → same kernels → byte-identical
//! outcome taxonomy, regardless of thread count or wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod corpus;
pub mod gen;
pub mod harness;
pub mod minimize;

pub use corpus::{builtin_corpus, Repro};
pub use gen::{generate, CfShape, GenOptions, Rng};
pub use harness::{run_case, run_seed, Bug, HarnessOptions, Outcome};
pub use minimize::{delete_edge, delete_node, minimize, signature, MinimizeReport};

/// The fuzzing seed: `ICED_FUZZ_SEED` (decimal or `0x`-prefixed hex), or a
/// fixed default so CI runs are reproducible.
pub fn env_seed() -> u64 {
    match std::env::var("ICED_FUZZ_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            };
            parsed.unwrap_or(DEFAULT_SEED)
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// The per-density case count: `ICED_FUZZ_CASES`, default 256.
pub fn env_cases() -> usize {
    std::env::var("ICED_FUZZ_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// Default fuzzing seed (see [`env_seed`]).
pub const DEFAULT_SEED: u64 = 0x1CED_F0CC;

/// Default per-density case count (see [`env_cases`]).
pub const DEFAULT_CASES: usize = 256;

#[cfg(test)]
mod tests {
    #[test]
    fn defaults_without_env() {
        // Env vars are absent in the test harness unless a caller sets
        // them; the defaults must be stable because CI pins taxonomies.
        assert_eq!(super::DEFAULT_SEED, 0x1CED_F0CC);
        assert!(super::env_cases() >= 1);
    }
}
