//! Fault-tolerant remapping: the mapper must route around permanent
//! faults, never touch a masked resource, pay II only when forced, and —
//! with an empty plan — stay bit-identical to the fault-free path at any
//! thread count.

use std::sync::Arc;

use iced_arch::{CgraConfig, Dir, TileId};
use iced_fault::{FaultMask, FaultPlan, PermanentFault};
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{check_dependencies, map_with, map_with_faults, MapperOptions};
use iced_trace::{Phase, Record, RecordingCollector};
use proptest::prelude::*;

fn opts(threads: usize) -> MapperOptions {
    MapperOptions {
        threads,
        ..MapperOptions::default()
    }
}

/// Every resource a mapping uses must be live under `mask`.
fn assert_avoids_mask(mapping: &iced_mapper::Mapping, mask: &FaultMask, what: &str) {
    for p in mapping.placements() {
        assert!(
            mask.fu_usable(p.tile),
            "{what}: node placed on dead FU at tile {:?}",
            p.tile
        );
    }
    for r in mapping.routes() {
        for h in &r.hops {
            assert!(
                mask.link_usable(h.from, h.dir),
                "{what}: route uses dead link {:?} {:?}",
                h.from,
                h.dir
            );
            assert!(
                mask.tile_usable(h.to) || mapping.placements().iter().any(|p| p.tile == h.to),
                "{what}: route enters dead tile {:?}",
                h.to
            );
        }
    }
}

#[test]
fn empty_plan_is_bit_identical_to_fault_free() {
    let cfg = CgraConfig::iced_prototype();
    let plan = FaultPlan::empty();
    for kernel in Kernel::STANDALONE {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let clean = map_with(&dfg, &cfg, &opts(1)).unwrap();
        let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
        assert!(
            clean.result_eq(&mapping),
            "{}: empty plan diverged from map_with",
            kernel.name()
        );
        assert_eq!(mapping.ii(), clean.ii(), "{}", kernel.name());
        assert!(plan.excluded(&cfg).is_empty(), "{}", kernel.name());
    }
}

#[test]
fn remaps_around_dead_tile() {
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
    let clean = map_with(&dfg, &cfg, &opts(1)).unwrap();
    // Kill the tile that hosts the first placed node: the remap must move it.
    let victim = clean.placements()[0].tile;
    assert!(
        !cfg.is_memory_tile(victim),
        "test premise: victim is compute"
    );
    let mut plan = FaultPlan::empty();
    plan.permanent.push(PermanentFault::DeadTile(victim));
    let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
    let mask = plan.mask(&cfg);
    assert_avoids_mask(&mapping, &mask, "dead tile");
    assert!(check_dependencies(&dfg, &mapping));
    assert!(mapping.ii() >= clean.ii(), "penalty accounting");
    assert_eq!(plan.excluded(&cfg).tiles, vec![victim]);
}

#[test]
fn remaps_around_broken_links_and_dead_fu() {
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Mvt.dfg(UnrollFactor::X1);
    let mut plan = FaultPlan::empty();
    // A dead FU on a compute tile plus two broken links near the memory
    // column force both placement and routing detours.
    let fu_victim = cfg.tile_at(1, 2);
    plan.permanent.push(PermanentFault::DeadFu(fu_victim));
    plan.permanent
        .push(PermanentFault::BrokenLink(cfg.tile_at(1, 1), Dir::East));
    plan.permanent
        .push(PermanentFault::StuckPort(cfg.tile_at(2, 1), Dir::North));
    let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
    let mask = plan.mask(&cfg);
    assert_avoids_mask(&mapping, &mask, "links+fu");
    assert!(check_dependencies(&dfg, &mapping));
    // The FU is dead but the tile's crossbar lives: routing through it is
    // legal, placing on it is not.
    assert!(mapping.placements().iter().all(|p| p.tile != fu_victim));
}

#[test]
fn dead_islands_shrink_the_fabric_without_breaking_the_map() {
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Gemm.dfg(UnrollFactor::X2);
    let clean = map_with(&dfg, &cfg, &opts(1)).unwrap();
    let mut plan = FaultPlan::empty();
    // Kill every island that contains no memory tile except one, leaving a
    // heavily degraded fabric.
    let mut spared_compute = false;
    for island in cfg.islands() {
        let has_mem = cfg
            .island_tiles(island)
            .iter()
            .any(|&t| cfg.is_memory_tile(t));
        if has_mem {
            continue;
        }
        if !spared_compute {
            spared_compute = true;
            continue;
        }
        plan.permanent.push(PermanentFault::DeadIsland(island));
    }
    let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
    let mask = plan.mask(&cfg);
    assert_avoids_mask(&mapping, &mask, "dead islands");
    assert!(check_dependencies(&dfg, &mapping));
    assert!(mapping.ii() >= clean.ii(), "penalty accounting");
    // Every tile of every killed island is reported excluded.
    let excluded = plan.excluded(&cfg);
    for f in &plan.permanent {
        if let PermanentFault::DeadIsland(i) = *f {
            assert!(excluded.islands.contains(&i));
        }
    }
}

#[test]
fn fu_starvation_escalates_ii() {
    // FFT is resource-bound (42 nodes, clean II 5 on the 6×6 prototype):
    // killing the FU on all but 3 compute tiles leaves 9 placement tiles,
    // so ResMII alone forces II ≥ 5 and the tight slot budget pushes the
    // mapper past the fault-free II. The degradation must be *graceful* —
    // a worse II, not a failure.
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fft.dfg(UnrollFactor::X1);
    let clean = map_with(&dfg, &cfg, &opts(1)).unwrap();
    let mut plan = FaultPlan::empty();
    let mut kept = 0;
    for t in cfg.tiles() {
        if cfg.is_memory_tile(t) {
            continue;
        }
        if kept < 3 {
            kept += 1;
            continue;
        }
        plan.permanent.push(PermanentFault::DeadFu(t));
    }
    let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
    assert_avoids_mask(&mapping, &plan.mask(&cfg), "fu starvation");
    assert!(check_dependencies(&dfg, &mapping));
    assert!(
        mapping.ii() > clean.ii(),
        "starving the FU pool must escalate II ({} vs {})",
        mapping.ii(),
        clean.ii()
    );
}

#[test]
fn faulted_mapping_is_thread_count_invariant() {
    let cfg = CgraConfig::iced_prototype();
    let plan = FaultPlan::generate(&cfg, 0xDECAF, 0.5);
    assert!(
        !plan.is_empty(),
        "test premise: density 0.5 faults something"
    );
    for kernel in [Kernel::Fir, Kernel::Latnrm] {
        let dfg = kernel.dfg(UnrollFactor::X1);
        let serial = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
        for threads in [2, 4] {
            let parallel = map_with_faults(&dfg, &cfg, &opts(threads), &plan).unwrap();
            assert!(
                serial.result_eq(&parallel),
                "{}: threads={threads} diverged under faults",
                kernel.name()
            );
            assert_eq!(serial.ii(), parallel.ii());
        }
    }
}

#[test]
fn total_fabric_loss_is_memory_pressure() {
    let cfg = CgraConfig::iced_prototype();
    let mut plan = FaultPlan::empty();
    for t in cfg.tiles() {
        plan.permanent.push(PermanentFault::DeadTile(t));
    }
    let err =
        map_with_faults(&Kernel::Fir.dfg(UnrollFactor::X1), &cfg, &opts(1), &plan).unwrap_err();
    assert!(matches!(err, iced_mapper::MapError::MemoryPressure));
}

#[test]
fn a_faulted_map_maps_once() {
    // The masked fabric is the only one mapped: no hidden healthy-fabric
    // map rides along to price the faults.
    let cfg = CgraConfig::iced_prototype();
    let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
    let mut plan = FaultPlan::empty();
    plan.permanent
        .push(PermanentFault::DeadFu(cfg.tile_at(1, 2)));
    let rec = Arc::new(RecordingCollector::new());
    {
        let _overlay = iced_trace::overlay(rec.clone());
        map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
    }
    let maps = rec
        .records()
        .iter()
        .filter(
            |r| matches!(r, Record::SpanBegin { phase: Phase::Mapper, name, .. } if name == "map"),
        )
        .count();
    assert_eq!(maps, 1, "a faulted map must run the mapper once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated plans at any density either map (avoiding every masked
    /// resource: no placement on a dead FU, no hop over a dead link or
    /// into a dead tile) or fail with a typed error — never panic, never
    /// touch a dead resource.
    #[test]
    fn generated_plans_remap_cleanly(seed in any::<u64>(), density in 0.0f64..=0.8) {
        let cfg = CgraConfig::iced_prototype();
        let plan = FaultPlan::generate(&cfg, seed, density);
        let dfg = Kernel::Mvt.dfg(UnrollFactor::X1);
        match map_with_faults(&dfg, &cfg, &opts(1), &plan) {
            Ok(mapping) => {
                assert_avoids_mask(&mapping, &plan.mask(&cfg), "generated plan");
                prop_assert!(check_dependencies(&dfg, &mapping));
                // Re-running is bit-identical: the whole pipeline is pure.
                let again = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
                prop_assert!(mapping.result_eq(&again));
            }
            Err(e) => {
                // Typed failure is acceptable on a heavily dead fabric.
                let _ = e.to_string();
            }
        }
    }

    /// `TileId` sanity for the mask contract: placements never land on a
    /// tile whose FU the plan killed, across random single-fault plans.
    #[test]
    fn single_dead_fu_never_hosts_a_node(row in 0u16..6, col in 1u16..6) {
        let cfg = CgraConfig::iced_prototype();
        let victim: TileId = cfg.tile_at(row as usize, col as usize);
        let mut plan = FaultPlan::empty();
        plan.permanent.push(PermanentFault::DeadFu(victim));
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let mapping = map_with_faults(&dfg, &cfg, &opts(1), &plan).unwrap();
        prop_assert!(mapping.placements().iter().all(|p| p.tile != victim));
    }
}
