//! Property-based tests over the whole stack: random well-formed DFGs must
//! map, validate, and run value-exactly on the engine on random fabric
//! configurations.

use iced::arch::CgraConfig;
use iced::dfg::transform::{unroll, UnrollOptions};
use iced::dfg::{Dfg, DfgBuilder, EdgeKind, Opcode};
use iced::mapper::label_dvfs_levels;
use iced::sim::{functional, run_engine, validate_schedule};
use iced::Strategy as MapStrategy;
use iced::Toolchain;
use proptest::prelude::*;

const OPS: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Max,
    Opcode::Min,
];

/// Strategy generating a random well-formed kernel DFG: a recurrence ring
/// of 2–6 nodes plus up to 12 feeder nodes with random forward edges.
fn arb_dfg() -> impl Strategy<Value = Dfg> {
    (
        2usize..=6,
        proptest::collection::vec(0usize..OPS.len(), 0..12),
        proptest::collection::vec((0usize..18, 0usize..18), 0..10),
        0u64..u64::MAX,
    )
        .prop_map(|(ring, feeders, extra, salt)| {
            let mut b = DfgBuilder::new("prop");
            let ring_ids: Vec<_> = (0..ring)
                .map(|i| b.node(OPS[(salt as usize + i) % OPS.len()], format!("r{i}")))
                .collect();
            b.data_chain(&ring_ids).unwrap();
            b.edge(ring_ids[ring - 1], ring_ids[0], EdgeKind::loop_carried(1))
                .unwrap();
            let mut all = ring_ids.clone();
            for (i, &op) in feeders.iter().enumerate() {
                let n = b.node(OPS[op], format!("f{i}"));
                // Feed an existing ring node (forward edge keeps data DAG).
                let tgt = ring_ids[i % ring];
                let _ = b.data(n, tgt);
                all.push(n);
            }
            for (s, d) in extra {
                let (s, d) = (s % all.len(), d % all.len());
                // Feeders may feed later feeders or ring nodes; only add
                // edges that keep the intra-iteration subgraph acyclic:
                // from feeder (index > ring) to anything earlier-created
                // in the ring, or from earlier feeder to later feeder.
                if s >= ring && (d < ring || s < d) {
                    let _ = b.data(all[s], all[d]);
                }
            }
            b.finish().expect("construction preserves the data DAG")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_dfgs_map_validate_and_run_on_the_engine(dfg in arb_dfg(), per_tile in any::<bool>()) {
        let tc = Toolchain::prototype();
        let strategy = if per_tile { MapStrategy::PerTileDvfs } else { MapStrategy::IcedIslands };
        let c = tc.compile(&dfg, strategy).unwrap();
        prop_assert!(validate_schedule(&dfg, c.mapping()).is_ok());
        prop_assert!(run_engine(&dfg, c.mapping(), 12, 7).is_ok());
    }

    #[test]
    fn rec_mii_is_ring_length(ring in 2usize..=8) {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..ring).map(|i| b.node(Opcode::Add, format!("n{i}"))).collect();
        b.data_chain(&ids).unwrap();
        b.edge(ids[ring-1], ids[0], EdgeKind::loop_carried(1)).unwrap();
        let dfg = b.finish().unwrap();
        prop_assert_eq!(dfg.rec_mii(), ring as u32);
    }

    #[test]
    fn unroll_multiplies_nodes_and_scales_rec_mii(dfg in arb_dfg(), k in 2u32..=4) {
        let u = unroll(&dfg, &UnrollOptions::new(k)).unwrap();
        prop_assert_eq!(u.node_count(), dfg.node_count() * k as usize);
        // A distance-1 ring of length L unrolls to length k·L with
        // distance 1, so RecMII scales exactly.
        prop_assert_eq!(u.rec_mii(), dfg.rec_mii() * k);
        prop_assert!(u.validate().is_ok());
    }

    #[test]
    fn labels_are_active_and_cycle_nodes_are_normal(dfg in arb_dfg(), ii in 2u32..=12) {
        let cfg = CgraConfig::iced_prototype();
        let labels = label_dvfs_levels(&dfg, &cfg, ii);
        prop_assert_eq!(labels.labels().len(), dfg.node_count());
        for &l in labels.labels() {
            prop_assert!(l.is_active());
        }
        // Longest-cycle nodes must be normal whenever the cycle is unique
        // in length class (it always is here: single ring).
        let cycles = iced::dfg::recurrence::enumerate_cycles(&dfg);
        let longest = cycles.first().map(|c| c.len()).unwrap_or(0);
        for c in &cycles {
            if c.len() == longest {
                for n in c.nodes() {
                    prop_assert_eq!(labels.label(*n), iced::arch::DvfsLevel::Normal);
                }
            }
        }
    }

    #[test]
    fn mapping_is_thread_count_invariant(dfg in arb_dfg(), threads in 2usize..=5, dvfs in any::<bool>()) {
        let cfg = CgraConfig::iced_prototype();
        let base = if dvfs {
            iced::mapper::MapperOptions::default()
        } else {
            iced::mapper::MapperOptions::baseline()
        };
        let serial = iced::mapper::map_with(
            &dfg,
            &cfg,
            &iced::mapper::MapperOptions { threads: 1, ..base.clone() },
        ).unwrap();
        let parallel = iced::mapper::map_with(
            &dfg,
            &cfg,
            &iced::mapper::MapperOptions { threads, ..base },
        ).unwrap();
        prop_assert!(
            serial.result_eq(&parallel),
            "threads={} diverged (II {} vs {})", threads, serial.ii(), parallel.ii()
        );
    }

    #[test]
    fn engine_matches_oracle(dfg in arb_dfg(), per_tile in any::<bool>(), seed in any::<u64>()) {
        // The compiled periodic-event-table engine must agree with the
        // preserved naive engine on arbitrary well-formed kernels, not
        // just the curated suite — same report, bit for bit.
        let tc = Toolchain::prototype();
        let strategy = if per_tile { MapStrategy::PerTileDvfs } else { MapStrategy::IcedIslands };
        let c = tc.compile(&dfg, strategy).unwrap();
        let fast = iced::sim::run_engine(&dfg, c.mapping(), 16, seed).unwrap();
        let slow = iced::sim::run_oracle(&dfg, c.mapping(), 16, seed).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn interpret_is_pure(dfg in arb_dfg(), seed in any::<u64>()) {
        let a = functional::interpret(&dfg, 8, seed);
        let b = functional::interpret(&dfg, 8, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fabric_stats_are_bounded(dfg in arb_dfg()) {
        let tc = Toolchain::prototype();
        let c = tc.compile(&dfg, MapStrategy::IcedIslands).unwrap();
        let u = c.average_utilization();
        prop_assert!((0.0..=1.0).contains(&u));
        let l = c.average_dvfs_level();
        prop_assert!((0.0..=1.0).contains(&l));
        prop_assert!(c.power_mw(100) > 0.0);
    }
}
