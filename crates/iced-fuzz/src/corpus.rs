//! The committed regression corpus.
//!
//! Every bug the fuzzer has ever found is minimized (see
//! [`mod@crate::minimize`]) into a small `.dfg` repro and committed under
//! `crates/iced-fuzz/corpus/regressions/`. The corpus is compiled in via
//! `include_str!`, replayed by this module's unit tests, and replayed
//! again by the `fuzz_sweep` bench binary — so a fixed bug that comes
//! back fails CI immediately, with the exact kernel that demonstrates it.
//!
//! Each repro records the failure signature it triggered at the time it
//! was found. After the fix, replaying it must produce a *clean* outcome
//! (mapped, degraded, or a typed rejection) at every standard density.

use iced_dfg::{text, Dfg};

use crate::harness::{run_case, HarnessOptions};

/// One committed regression repro.
#[derive(Debug, Clone, Copy)]
pub struct Repro {
    /// Corpus file stem.
    pub name: &'static str,
    /// Failure signature (see [`crate::minimize::signature`]) the kernel
    /// triggered when it was found, before the fix.
    pub signature: &'static str,
    /// The `.dfg` text (iced-dfg interchange format).
    pub text: &'static str,
}

impl Repro {
    /// Parses the committed kernel text.
    pub fn dfg(&self) -> Result<Dfg, text::ParseError> {
        text::parse(self.text)
    }
}

macro_rules! repro {
    ($name:literal, $signature:literal) => {
        Repro {
            name: $name,
            signature: $signature,
            text: include_str!(concat!("../corpus/regressions/", $name, ".dfg")),
        }
    };
}

/// The full committed corpus, in discovery order.
pub fn builtin_corpus() -> Vec<Repro> {
    vec![
        repro!("lb_route_parallel_edges", "bug:lower_bound_violation"),
        repro!("text_hostile_labels", "bug:round_trip_mismatch"),
    ]
}

/// Replays every committed repro at the standard density rungs and
/// returns the failures (repro name, density, outcome class). Empty means
/// the corpus is clean — every historical bug stays fixed.
pub fn replay_failures(opts: &HarnessOptions) -> Vec<(String, f64, String)> {
    let mut failures = Vec::new();
    for repro in builtin_corpus() {
        let dfg = match repro.dfg() {
            Ok(d) => d,
            Err(e) => {
                failures.push((repro.name.to_string(), -1.0, format!("parse: {e}")));
                continue;
            }
        };
        for density in [0.0, 0.25] {
            let outcome = run_case(&dfg, density, crate::DEFAULT_SEED, opts);
            if outcome.is_bug() {
                failures.push((repro.name.to_string(), density, outcome.class()));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::with_quiet_panics;

    #[test]
    fn corpus_parses_and_validates() {
        for repro in builtin_corpus() {
            let dfg = repro
                .dfg()
                .unwrap_or_else(|e| panic!("corpus entry {} does not parse: {e}", repro.name));
            dfg.validate()
                .unwrap_or_else(|e| panic!("corpus entry {} invalid: {e}", repro.name));
            assert!(
                repro.signature.starts_with("bug:"),
                "corpus entry {} records a non-bug signature",
                repro.name
            );
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let mut names: Vec<&str> = builtin_corpus().iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), builtin_corpus().len());
    }

    #[test]
    fn replaying_the_corpus_finds_no_regressions() {
        let opts = HarnessOptions::default();
        let failures = with_quiet_panics(|| replay_failures(&opts));
        assert!(failures.is_empty(), "regressions resurfaced: {failures:?}");
    }
}
