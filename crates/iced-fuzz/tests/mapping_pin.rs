//! Pins the heuristic mapper's output on a fixed corpus.
//!
//! The corpus is the 21 Table I kernels at ×1 and ×2 plus the first 400
//! kernels the generator builds from seed 0 up with the fuzzer's default
//! options minus the two loop-nest shapes (the options the cold-compile
//! benchmark draws its inline kernels from). Each strategy gets one digest
//! over every mapping's II, every placement (tile, start, rate) and every
//! route's hops, so a change that moves any mapping fails here.
//!
//! When the mapper starts its II search at the admissible lower bound, a
//! mapping's II cannot fall below that bound, so no check on a finished
//! mapping catches a bound that is too high: it would only make the
//! mapper skip an II it could have mapped at. The digests catch that as a
//! changed mapping. The rows pin each kernel whose bound exceeds the plain
//! `max(RecMII, ResMII, MemMII)` start, which is where such an error would
//! show first.

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_exact::lower_bound;
use iced_fuzz::gen::{generate, CfShape, GenOptions};
use iced_hash::StableHasher;
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_with, MapperOptions, Mapping};

fn corpus() -> Vec<Dfg> {
    let mut dfgs: Vec<Dfg> = Kernel::ALL
        .into_iter()
        .flat_map(|k| UnrollFactor::ALL.map(|u| k.dfg(u)))
        .collect();
    let gen = GenOptions {
        shapes: vec![
            CfShape::Straight,
            CfShape::Triangle,
            CfShape::Diamond,
            CfShape::NestedBranch,
            CfShape::EarlyExit,
        ],
        ..GenOptions::default()
    };
    dfgs.extend(
        (0u64..)
            .filter_map(|seed| generate(seed, &gen).ok())
            .take(400),
    );
    dfgs
}

/// `max(RecMII, ResMII, MemMII)` on the whole fabric.
fn plain_mii(dfg: &Dfg, cfg: &CgraConfig) -> u32 {
    let res = (dfg.node_count() as u32).div_ceil(cfg.tile_count() as u32);
    let mem_tiles = cfg.tiles().filter(|&t| cfg.is_memory_tile(t)).count() as u32;
    let mem = (dfg.count_ops(|op| op.is_memory()) as u32).div_ceil(mem_tiles);
    dfg.rec_mii().max(res).max(mem).max(1)
}

fn absorb(h: &mut StableHasher, mapped: &Result<Mapping, iced_mapper::MapError>) {
    let m = match mapped {
        Ok(m) => m,
        Err(e) => return h.write_str(&e.to_string()),
    };
    h.write_u32(m.ii());
    for p in m.placements() {
        h.write_u32(u32::from(p.tile.0));
        h.write_u64(p.start);
        h.write_u32(p.rate);
    }
    for r in m.routes() {
        h.write_usize(r.edge.index());
        h.write_usize(r.hops.len());
        for hop in &r.hops {
            h.write_u32(u32::from(hop.from.0));
            h.write_u32(u32::from(hop.to.0));
            h.write_u64(hop.depart);
            h.write_u64(hop.arrive);
        }
    }
}

fn ii(mapped: &Result<Mapping, iced_mapper::MapError>) -> String {
    mapped
        .as_ref()
        .map_or_else(|e| format!("err {e}"), |m| m.ii().to_string())
}

#[test]
fn heuristic_mappings_are_pinned() {
    let cfg = CgraConfig::iced_prototype();
    let strategies = [MapperOptions::default(), MapperOptions::baseline()]
        .map(|o| MapperOptions { threads: 1, ..o });
    let mut digests = [StableHasher::new(), StableHasher::new()];
    let mut rows = Vec::new();
    for dfg in corpus() {
        let mapped = strategies.clone().map(|o| map_with(&dfg, &cfg, &o));
        for (h, m) in digests.iter_mut().zip(&mapped) {
            h.write_str(dfg.name());
            absorb(h, m);
        }
        let (lb, mii) = (lower_bound(&dfg, &cfg), plain_mii(&dfg, &cfg));
        if lb > mii {
            rows.push(format!(
                "{} mii {mii} lb {lb} iced {} baseline {}",
                dfg.name(),
                ii(&mapped[0]),
                ii(&mapped[1])
            ));
        }
    }
    let got = digests.map(|h| format!("{:016x}", h.finish()));
    assert_eq!(got, DIGESTS, "a mapping changed");
    assert_eq!(rows, ROWS, "bound rows changed; got:\n{}", rows.join("\n"));
    assert!(
        rows.len() >= 12,
        "only {} kernels above the plain MII",
        rows.len()
    );
}

/// Digests for `[iced, baseline]`.
const DIGESTS: [&str; 2] = ["d22eebad010292b1", "8e3b28757ee0b131"];

/// Kernels whose lower bound exceeds `max(RecMII, ResMII, MemMII)`.
const ROWS: [&str; 12] = [
    "fuzz_0000000000000007_straight mii 1 lb 2 iced 2 baseline 2",
    "fuzz_000000000000002f_straight mii 1 lb 2 iced 4 baseline 4",
    "fuzz_0000000000000030_straight mii 1 lb 2 iced 2 baseline 2",
    "fuzz_000000000000006f_straight_x2 mii 1 lb 2 iced 2 baseline 2",
    "fuzz_00000000000000af_early_exit mii 1 lb 2 iced 2 baseline 2",
    "fuzz_00000000000000c4_straight_x2 mii 1 lb 2 iced 3 baseline 3",
    "fuzz_00000000000000df_straight mii 1 lb 2 iced 3 baseline 3",
    "fuzz_00000000000000f6_straight mii 1 lb 2 iced 2 baseline 2",
    "fuzz_000000000000012b_straight mii 1 lb 2 iced 3 baseline 3",
    "fuzz_0000000000000150_straight_x2 mii 1 lb 2 iced 3 baseline 4",
    "fuzz_000000000000015d_straight mii 1 lb 2 iced 4 baseline 5",
    "fuzz_0000000000000176_straight mii 1 lb 2 iced 3 baseline 3",
];
