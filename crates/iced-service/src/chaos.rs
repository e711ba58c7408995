//! Deterministic chaos injection for resilience testing.
//!
//! When a chaos seed is set ([`ServiceConfig::chaos`], or its setting in
//! `iced-serviced --help`), the daemon deliberately sabotages itself at
//! three sites:
//!
//! * **worker panic** (~5% of work requests) — a panic inside the worker's
//!   `catch_unwind` scope, which must surface as a structured `internal`
//!   error, never a dead worker;
//! * **write drop** (~5% of response writes) — half the response bytes are
//!   written and the socket is shut down, as a failing NIC or killed peer
//!   would; the connection dies, the daemon does not;
//! * **spill corruption** (~10% of cache inserts, spill dir only) — the
//!   entry's disk copy is written with a flipped payload byte and the
//!   in-memory copy dropped, forcing the next lookup through the cache's
//!   checksum-verify-and-recompute path.
//!
//! Faults are drawn from a counter-salted [`StableHasher`] stream, so a
//! given seed produces the same fault *decisions* in sequence per site —
//! which requests they land on still depends on thread interleaving, as
//! real faults would.
//!
//! [`ServiceConfig::chaos`]: crate::ServiceConfig#structfield.chaos

use std::sync::atomic::{AtomicU64, Ordering};

use iced_hash::StableHasher;

/// Per-mille fault rates, fixed so a chaos run's failure mix is predictable.
const PANIC_PER_MILLE: u64 = 50;
const DROP_PER_MILLE: u64 = 50;
const CORRUPT_PER_MILLE: u64 = 100;

/// Site salts keep the three decision streams independent: a panic roll
/// never consumes a corruption roll's position.
const SITE_PANIC: u64 = 0x1ced_c401;
const SITE_DROP: u64 = 0x1ced_c402;
const SITE_CORRUPT: u64 = 0x1ced_c403;

/// A seeded source of fault decisions, shared by every worker and reader.
#[derive(Debug)]
pub struct ChaosInjector {
    seed: u64,
    panics: AtomicU64,
    drops: AtomicU64,
    corruptions: AtomicU64,
}

impl ChaosInjector {
    /// Creates an injector for `seed`.
    pub fn new(seed: u64) -> ChaosInjector {
        ChaosInjector {
            seed,
            panics: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// Parses a chaos seed: empty or `0` disables chaos; a decimal or
    /// `0x` hex literal is the seed; any other text is hashed, so a seed
    /// of `ci-nightly` works too.
    pub(crate) fn parse_seed(raw: &str) -> Option<u64> {
        let raw = raw.trim();
        if raw.is_empty() || raw == "0" {
            return None;
        }
        if let Some(hex) = raw.strip_prefix("0x") {
            if let Ok(v) = u64::from_str_radix(hex, 16) {
                return Some(v);
            }
        }
        if let Ok(v) = raw.parse::<u64>() {
            return Some(v);
        }
        let mut h = StableHasher::with_seed(0x1ced_c400);
        h.write_str(raw);
        Some(h.finish())
    }

    /// One fault decision: draw `counter`'s roll from `site`'s stream and
    /// fire when it lands under `per_mille`.
    fn roll(&self, site: u64, counter: &AtomicU64, per_mille: u64) -> bool {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        let mut h = StableHasher::with_seed(self.seed);
        h.write_u64(site);
        h.write_u64(n);
        h.finish() % 1000 < per_mille
    }

    /// Should this work request panic in the worker?
    pub fn worker_panic(&self) -> bool {
        self.roll(SITE_PANIC, &self.panics, PANIC_PER_MILLE)
    }

    /// Should this response write be torn and the socket dropped?
    pub fn drop_write(&self) -> bool {
        self.roll(SITE_DROP, &self.drops, DROP_PER_MILLE)
    }

    /// Should this cache insert's disk spill be corrupted?
    pub fn corrupt_spill(&self) -> bool {
        self.roll(SITE_CORRUPT, &self.corruptions, CORRUPT_PER_MILLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let a = ChaosInjector::new(42);
        let b = ChaosInjector::new(42);
        let seq_a: Vec<bool> = (0..256).map(|_| a.worker_panic()).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.worker_panic()).collect();
        assert_eq!(seq_a, seq_b);
        // A different seed gives a different stream.
        let c = ChaosInjector::new(43);
        let seq_c: Vec<bool> = (0..256).map(|_| c.worker_panic()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn fault_rates_land_near_their_targets() {
        let inj = ChaosInjector::new(0x5EED);
        let n = 20_000;
        let panics = (0..n).filter(|_| inj.worker_panic()).count();
        let drops = (0..n).filter(|_| inj.drop_write()).count();
        let corruptions = (0..n).filter(|_| inj.corrupt_spill()).count();
        // 5% / 5% / 10% with generous tolerance: determinism makes these
        // exact for a fixed seed, the bound just documents the intent.
        assert!((800..1200).contains(&panics), "{panics}");
        assert!((800..1200).contains(&drops), "{drops}");
        assert!((1700..2300).contains(&corruptions), "{corruptions}");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Consuming one site's stream must not shift another's.
        let a = ChaosInjector::new(7);
        let b = ChaosInjector::new(7);
        for _ in 0..100 {
            let _ = a.worker_panic();
        }
        let drops_a: Vec<bool> = (0..100).map(|_| a.drop_write()).collect();
        let drops_b: Vec<bool> = (0..100).map(|_| b.drop_write()).collect();
        assert_eq!(drops_a, drops_b);
    }

    #[test]
    fn seed_parsing_accepts_decimal_hex_and_labels() {
        assert_eq!(ChaosInjector::parse_seed("12345"), Some(12345));
        assert_eq!(ChaosInjector::parse_seed("0xdead"), Some(0xdead));
        let labeled = ChaosInjector::parse_seed("ci-nightly");
        assert!(labeled.is_some());
        assert_eq!(
            labeled,
            ChaosInjector::parse_seed("ci-nightly"),
            "stable hash"
        );
        assert_eq!(ChaosInjector::parse_seed("0"), None);
        assert_eq!(ChaosInjector::parse_seed(""), None);
    }
}
