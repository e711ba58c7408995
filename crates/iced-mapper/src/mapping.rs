//! The result of mapping a kernel onto the CGRA.

use iced_arch::{CgraConfig, Dir, DvfsLevel, IslandId, TileId};
use iced_dfg::{EdgeId, NodeId};

/// Placement of one DFG node: which tile executes it and when.
///
/// `start` is an absolute base-clock cycle of iteration 0; iteration `i`
/// executes at `start + i·II`. The op occupies the tile's FU for `rate`
/// base cycles (`rate` = the island's DVFS rate divisor at placement time)
/// and its result is ready at `start + rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Executing tile.
    pub tile: TileId,
    /// Base-clock start cycle (iteration 0), phase-aligned to `rate`.
    pub start: u64,
    /// Base cycles per op on this tile (DVFS rate divisor).
    pub rate: u32,
}

impl Placement {
    /// Base cycle at which the result is available.
    pub fn ready(&self) -> u64 {
        self.start + self.rate as u64
    }
}

/// One mesh hop of a routed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Tile driving the link.
    pub from: TileId,
    /// Receiving tile.
    pub to: TileId,
    /// Link direction out of `from`.
    pub dir: Dir,
    /// Base cycle the transfer starts (aligned to the driving tile's rate).
    pub depart: u64,
    /// Base cycle the value is available at `to`.
    pub arrive: u64,
}

/// Routed realisation of one DFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The DFG edge this route realises.
    pub edge: EdgeId,
    /// Mesh hops in order (empty when producer and consumer share a tile).
    pub hops: Vec<Hop>,
    /// When the value left the producer (its `ready` time).
    pub src_ready: u64,
    /// When the value reached the consumer's tile.
    pub arrival: u64,
    /// When the consumer reads it (consumer `start`, plus `distance·II` for
    /// loop-carried edges).
    pub consume_at: u64,
}

/// A complete placement + routing + DVFS assignment for one kernel.
#[derive(Debug, Clone)]
pub struct Mapping {
    pub(crate) kernel: String,
    pub(crate) config: CgraConfig,
    pub(crate) ii: u32,
    pub(crate) placements: Vec<Placement>,
    pub(crate) routes: Vec<Route>,
    pub(crate) island_levels: Vec<DvfsLevel>,
    pub(crate) tile_levels: Vec<DvfsLevel>,
}

impl Mapping {
    /// Assembles a mapping from externally computed parts, e.g. a
    /// hand-built schedule that breaks one machine rule on purpose in a
    /// simulator test. `island_levels` and `tile_levels` must cover
    /// every island/tile of `config`; `placements` is indexed by dense
    /// node id.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        kernel: String,
        config: CgraConfig,
        ii: u32,
        placements: Vec<Placement>,
        routes: Vec<Route>,
        island_levels: Vec<DvfsLevel>,
        tile_levels: Vec<DvfsLevel>,
    ) -> Mapping {
        assert_eq!(
            island_levels.len(),
            config.island_count(),
            "island level per island"
        );
        assert_eq!(tile_levels.len(), config.tile_count(), "level per tile");
        Mapping {
            kernel,
            config,
            ii,
            placements,
            routes,
            island_levels,
            tile_levels,
        }
    }

    /// Kernel name this mapping belongs to.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Target CGRA configuration.
    pub fn config(&self) -> &CgraConfig {
        &self.config
    }

    /// Achieved initiation interval in base-clock cycles.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Placement of `node`.
    pub fn placement(&self, node: NodeId) -> Placement {
        self.placements[node.index()]
    }

    /// All placements, indexed by dense node id.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// All routed edges.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// DVFS level of `island` as assigned by the mapper (power-gated when
    /// the island hosts no work).
    pub fn island_level(&self, island: IslandId) -> DvfsLevel {
        self.island_levels[island.index()]
    }

    /// Effective DVFS level of `tile`. Equals its island's level for
    /// island-grained mappings; the per-tile post-pass refines this
    /// per tile.
    pub fn tile_level(&self, tile: TileId) -> DvfsLevel {
        self.tile_levels[tile.index()]
    }

    /// Overrides the level of a single tile (per-tile DVFS post-pass).
    pub(crate) fn set_tile_level(&mut self, tile: TileId, level: DvfsLevel) {
        self.tile_levels[tile.index()] = level;
    }

    /// Whether `tile` hosts any FU op or drives any hop.
    pub fn tile_is_used(&self, tile: TileId) -> bool {
        self.placements.iter().any(|p| p.tile == tile)
            || self
                .routes
                .iter()
                .flat_map(|r| r.hops.iter())
                .any(|h| h.from == tile)
    }

    /// Latest event time in the schedule (iteration-0 makespan; the
    /// steady-state period is [`ii`](Mapping::ii)).
    pub fn makespan(&self) -> u64 {
        let p = self
            .placements
            .iter()
            .map(Placement::ready)
            .max()
            .unwrap_or(0);
        let r = self.routes.iter().map(|r| r.consume_at).max().unwrap_or(0);
        p.max(r)
    }

    /// Whether two mappings are the same result: kernel, II, placements,
    /// routes and DVFS assignment all match (the embedded `CgraConfig` is
    /// not compared). The portfolio determinism tests use this to assert
    /// that `threads = N` reproduces the serial mapper exactly.
    pub fn result_eq(&self, other: &Mapping) -> bool {
        self.kernel == other.kernel
            && self.ii == other.ii
            && self.placements == other.placements
            && self.routes == other.routes
            && self.island_levels == other.island_levels
            && self.tile_levels == other.tile_levels
    }

    /// Average DVFS level across tiles (normal = 100 %, relax = 50 %,
    /// rest = 25 %, power-gated = 0 %) — the paper's Figure 10/12 metric.
    pub fn average_dvfs_level(&self) -> f64 {
        let sum: f64 = self
            .config
            .tiles()
            .map(|t| self.tile_level(t).frequency_fraction())
            .sum();
        sum / self.config.tile_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_ready_adds_rate() {
        let p = Placement {
            tile: TileId(0),
            start: 4,
            rate: 4,
        };
        assert_eq!(p.ready(), 8);
    }
}
