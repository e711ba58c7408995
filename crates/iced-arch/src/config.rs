//! Parametric CGRA description.

use crate::error::ArchError;
use crate::tile::{Dir, IslandId, TileId};

/// Functional-unit layout across the fabric.
///
/// Real CGRAs are often heterogeneous: multipliers and dividers are large,
/// so only a subset of tiles carries them (the paper's CGRA-Flow companion
/// framework exposes exactly this kind of per-tile FU customization). The
/// mapper consults [`CgraConfig::tile_has_multiplier`] when filtering placement
/// candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FuLayout {
    /// Every tile carries a full FU (the ICED prototype).
    #[default]
    Homogeneous,
    /// Multiplier/divider FUs on a checkerboard: tiles with even
    /// `(row + col)` carry them, the rest are ALU-only.
    CheckerboardMul,
    /// Multiplier/divider FUs only on even columns.
    EvenColumnsMul,
}

/// A validated description of an ICED CGRA instance.
///
/// Defaults follow the paper's prototype: a `6×6` array with `2×2` DVFS
/// islands, 32 KB of scratchpad memory in 8 banks reachable from the
/// leftmost tile column, and per-tile register files used by the router to
/// hold values across cycles.
///
/// Construct via [`CgraConfig::builder`], or use the shorthand constructors
/// [`CgraConfig::iced_prototype`] (6×6, 2×2 islands) and
/// [`CgraConfig::square`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgraConfig {
    rows: usize,
    cols: usize,
    island_rows: usize,
    island_cols: usize,
    reg_capacity: u8,
    spm_banks: usize,
    spm_kib: usize,
    fu_layout: FuLayout,
}

impl CgraConfig {
    /// The paper's 6×6 prototype with 2×2 DVFS islands.
    pub fn iced_prototype() -> Self {
        CgraConfig::builder(6, 6)
            .build()
            .expect("prototype config is valid")
    }

    /// A square `n×n` array with the default 2×2 island geometry (clamped to
    /// the array for `n = 1`).
    ///
    /// # Errors
    ///
    /// Returns an error when `n` is zero.
    pub fn square(n: usize) -> Result<Self, ArchError> {
        let island = 2.min(n.max(1));
        CgraConfig::builder(n, n).island(island, island).build()
    }

    /// A square array with per-tile DVFS (1×1 islands) — the UE-CGRA-style
    /// comparator configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` is zero.
    pub fn square_per_tile(n: usize) -> Result<Self, ArchError> {
        CgraConfig::builder(n, n).island(1, 1).build()
    }

    /// Starts building a `rows×cols` configuration.
    pub fn builder(rows: usize, cols: usize) -> CgraConfigBuilder {
        CgraConfigBuilder {
            rows,
            cols,
            island_rows: 2,
            island_cols: 2,
            reg_capacity: 16,
            spm_banks: 8,
            spm_kib: 32,
            fu_layout: FuLayout::Homogeneous,
        }
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Island height in tiles.
    pub fn island_rows(&self) -> usize {
        self.island_rows
    }

    /// Island width in tiles.
    pub fn island_cols(&self) -> usize {
        self.island_cols
    }

    /// Register-file slots per tile available to the router.
    pub fn reg_capacity(&self) -> u8 {
        self.reg_capacity
    }

    /// Scratchpad bank count.
    pub fn spm_banks(&self) -> usize {
        self.spm_banks
    }

    /// Scratchpad capacity in KiB.
    pub fn spm_kib(&self) -> usize {
        self.spm_kib
    }

    /// Number of island grid rows (edge islands may be narrower when the
    /// island geometry does not divide the array — e.g. 3×3 islands on an
    /// 8×8 array, the "irregular" case the paper notes for Figure 4).
    pub fn island_grid_rows(&self) -> usize {
        self.rows.div_ceil(self.island_rows)
    }

    /// Number of island grid columns.
    pub fn island_grid_cols(&self) -> usize {
        self.cols.div_ceil(self.island_cols)
    }

    /// Total number of DVFS islands.
    pub fn island_count(&self) -> usize {
        self.island_grid_rows() * self.island_grid_cols()
    }

    /// `(row, col)` position of a tile.
    pub fn position(&self, tile: TileId) -> (usize, usize) {
        let i = tile.index();
        (i / self.cols, i % self.cols)
    }

    /// Tile at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the array.
    pub fn tile_at(&self, row: usize, col: usize) -> TileId {
        assert!(row < self.rows && col < self.cols, "position out of bounds");
        TileId((row * self.cols + col) as u16)
    }

    /// Iterator over all tiles in row-major order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileId> + 'static {
        (0..self.tile_count() as u16).map(TileId)
    }

    /// Iterator over all islands.
    pub fn islands(&self) -> impl ExactSizeIterator<Item = IslandId> + 'static {
        (0..self.island_count() as u16).map(IslandId)
    }

    /// The island containing `tile`.
    pub fn island_of(&self, tile: TileId) -> IslandId {
        let (r, c) = self.position(tile);
        let ir = r / self.island_rows;
        let ic = c / self.island_cols;
        IslandId((ir * self.island_grid_cols() + ic) as u16)
    }

    /// Tiles belonging to `island`, in row-major order.
    pub fn island_tiles(&self, island: IslandId) -> Vec<TileId> {
        let ir = island.index() / self.island_grid_cols();
        let ic = island.index() % self.island_grid_cols();
        let r0 = ir * self.island_rows;
        let c0 = ic * self.island_cols;
        let mut tiles = Vec::new();
        for r in r0..(r0 + self.island_rows).min(self.rows) {
            for c in c0..(c0 + self.island_cols).min(self.cols) {
                tiles.push(self.tile_at(r, c));
            }
        }
        tiles
    }

    /// The neighbouring tile in direction `dir`, if it exists.
    pub fn neighbor(&self, tile: TileId, dir: Dir) -> Option<TileId> {
        let (r, c) = self.position(tile);
        let (nr, nc) = match dir {
            Dir::North => (r.checked_sub(1)?, c),
            Dir::South => (r + 1, c),
            Dir::East => (r, c + 1),
            Dir::West => (r, c.checked_sub(1)?),
        };
        (nr < self.rows && nc < self.cols).then(|| self.tile_at(nr, nc))
    }

    /// All existing neighbours of `tile` with their directions.
    pub fn neighbors(&self, tile: TileId) -> impl Iterator<Item = (Dir, TileId)> + '_ {
        Dir::ALL
            .into_iter()
            .filter_map(move |d| self.neighbor(tile, d).map(|t| (d, t)))
    }

    /// Whether `tile` can execute SPM loads/stores: in the ICED topology
    /// only the leftmost column connects to the scratchpad crossbar.
    pub fn is_memory_tile(&self, tile: TileId) -> bool {
        self.position(tile).1 == 0
    }

    /// Functional-unit layout of the fabric.
    pub fn fu_layout(&self) -> FuLayout {
        self.fu_layout
    }

    /// Whether `tile` carries a multiplier/divider-class FU. ALU, control,
    /// move, and (on SPM tiles) memory operations are supported everywhere.
    pub fn tile_has_multiplier(&self, tile: TileId) -> bool {
        let (r, c) = self.position(tile);
        match self.fu_layout {
            FuLayout::Homogeneous => true,
            FuLayout::CheckerboardMul => (r + c) % 2 == 0,
            FuLayout::EvenColumnsMul => c % 2 == 0,
        }
    }

    /// A stable content digest of this configuration, for cache keys.
    ///
    /// Every field is fed into an [`iced_hash::StableHasher`] under an
    /// explicit tag, so the digest survives process restarts and
    /// field-order refactors (unlike a derived `Hash` with
    /// `DefaultHasher`). Any semantic change — dimensions, island
    /// geometry, register capacity, SPM shape, FU layout — changes it.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = iced_hash::StableHasher::new();
        h.write_str("cgra-config");
        h.write_str("rows");
        h.write_usize(self.rows);
        h.write_str("cols");
        h.write_usize(self.cols);
        h.write_str("island_rows");
        h.write_usize(self.island_rows);
        h.write_str("island_cols");
        h.write_usize(self.island_cols);
        h.write_str("reg_capacity");
        h.write_u8(self.reg_capacity);
        h.write_str("spm_banks");
        h.write_usize(self.spm_banks);
        h.write_str("spm_kib");
        h.write_usize(self.spm_kib);
        h.write_str("fu_layout");
        h.write_u8(match self.fu_layout {
            FuLayout::Homogeneous => 0,
            FuLayout::CheckerboardMul => 1,
            FuLayout::EvenColumnsMul => 2,
        });
        h.finish()
    }

    /// Manhattan distance between two tiles (router's admissible heuristic).
    pub fn manhattan(&self, a: TileId, b: TileId) -> usize {
        let (ar, ac) = self.position(a);
        let (br, bc) = self.position(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }
}

impl Default for CgraConfig {
    fn default() -> Self {
        CgraConfig::iced_prototype()
    }
}

/// Builder for [`CgraConfig`]. Created by [`CgraConfig::builder`].
#[derive(Debug, Clone)]
pub struct CgraConfigBuilder {
    rows: usize,
    cols: usize,
    island_rows: usize,
    island_cols: usize,
    reg_capacity: u8,
    spm_banks: usize,
    spm_kib: usize,
    fu_layout: FuLayout,
}

impl CgraConfigBuilder {
    /// Sets the DVFS island geometry (`1×1` = per-tile DVFS).
    pub fn island(mut self, rows: usize, cols: usize) -> Self {
        self.island_rows = rows;
        self.island_cols = cols;
        self
    }

    /// Sets the per-tile register capacity available for routing.
    pub fn reg_capacity(mut self, slots: u8) -> Self {
        self.reg_capacity = slots;
        self
    }

    /// Sets the SPM bank count.
    pub fn spm_banks(mut self, banks: usize) -> Self {
        self.spm_banks = banks;
        self
    }

    /// Sets the SPM capacity in KiB.
    pub fn spm_kib(mut self, kib: usize) -> Self {
        self.spm_kib = kib;
        self
    }

    /// Sets the functional-unit layout (heterogeneous fabrics).
    pub fn fu_layout(mut self, layout: FuLayout) -> Self {
        self.fu_layout = layout;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] for zero dimensions, island geometry larger
    /// than the array, zero register capacity, or zero SPM banks.
    pub fn build(self) -> Result<CgraConfig, ArchError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ArchError::ZeroDimension);
        }
        if self.island_rows == 0
            || self.island_cols == 0
            || self.island_rows > self.rows
            || self.island_cols > self.cols
        {
            return Err(ArchError::InvalidIslandGeometry {
                island_rows: self.island_rows,
                island_cols: self.island_cols,
            });
        }
        if self.reg_capacity == 0 {
            return Err(ArchError::ZeroRegisterCapacity);
        }
        if self.spm_banks == 0 {
            return Err(ArchError::ZeroSpmBanks);
        }
        Ok(CgraConfig {
            rows: self.rows,
            cols: self.cols,
            island_rows: self.island_rows,
            island_cols: self.island_cols,
            reg_capacity: self.reg_capacity,
            spm_banks: self.spm_banks,
            spm_kib: self.spm_kib,
            fu_layout: self.fu_layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper() {
        let c = CgraConfig::iced_prototype();
        assert_eq!(c.rows(), 6);
        assert_eq!(c.cols(), 6);
        assert_eq!(c.island_count(), 9);
        assert_eq!(c.spm_banks(), 8);
        assert_eq!(c.spm_kib(), 32);
        assert_eq!(
            c.island_tiles(IslandId(0)),
            vec![
                c.tile_at(0, 0),
                c.tile_at(0, 1),
                c.tile_at(1, 0),
                c.tile_at(1, 1)
            ]
        );
    }

    #[test]
    fn per_tile_config_has_one_island_per_tile() {
        let c = CgraConfig::square_per_tile(4).unwrap();
        assert_eq!(c.island_count(), 16);
        for t in c.tiles() {
            assert_eq!(c.island_tiles(c.island_of(t)), vec![t]);
        }
    }

    #[test]
    fn irregular_islands_cover_all_tiles_once() {
        // 3×3 islands on 8×8: the paper's "irregular island shape" case.
        let c = CgraConfig::builder(8, 8).island(3, 3).build().unwrap();
        assert_eq!(c.island_count(), 9);
        let mut covered = vec![0u8; c.tile_count()];
        for i in c.islands() {
            for t in c.island_tiles(i) {
                covered[t.index()] += 1;
                assert_eq!(c.island_of(t), i);
            }
        }
        assert!(covered.iter().all(|&x| x == 1));
    }

    #[test]
    fn neighbors_respect_mesh_borders() {
        let c = CgraConfig::square(4).unwrap();
        let corner = c.tile_at(0, 0);
        let dirs: Vec<Dir> = c.neighbors(corner).map(|(d, _)| d).collect();
        assert_eq!(dirs, vec![Dir::East, Dir::South]);
        let center = c.tile_at(1, 1);
        assert_eq!(c.neighbors(center).count(), 4);
        assert_eq!(c.neighbor(center, Dir::North), Some(c.tile_at(0, 1)));
    }

    #[test]
    fn memory_tiles_are_leftmost_column() {
        let c = CgraConfig::square(4).unwrap();
        for t in c.tiles() {
            assert_eq!(c.is_memory_tile(t), c.position(t).1 == 0);
        }
        assert_eq!(c.tiles().filter(|&t| c.is_memory_tile(t)).count(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            CgraConfig::builder(0, 4).build(),
            Err(ArchError::ZeroDimension)
        ));
        assert!(matches!(
            CgraConfig::builder(4, 4).island(5, 2).build(),
            Err(ArchError::InvalidIslandGeometry { .. })
        ));
        assert!(matches!(
            CgraConfig::builder(4, 4).reg_capacity(0).build(),
            Err(ArchError::ZeroRegisterCapacity)
        ));
        assert!(matches!(
            CgraConfig::builder(4, 4).spm_banks(0).build(),
            Err(ArchError::ZeroSpmBanks)
        ));
    }

    #[test]
    fn heterogeneous_layouts_restrict_multipliers() {
        let hom = CgraConfig::square(4).unwrap();
        assert!(hom.tiles().all(|t| hom.tile_has_multiplier(t)));
        let check = CgraConfig::builder(4, 4)
            .fu_layout(FuLayout::CheckerboardMul)
            .build()
            .unwrap();
        let with_mul = check
            .tiles()
            .filter(|&t| check.tile_has_multiplier(t))
            .count();
        assert_eq!(with_mul, 8);
        assert!(check.tile_has_multiplier(check.tile_at(0, 0)));
        assert!(!check.tile_has_multiplier(check.tile_at(0, 1)));
        let cols = CgraConfig::builder(4, 4)
            .fu_layout(FuLayout::EvenColumnsMul)
            .build()
            .unwrap();
        assert!(cols.tile_has_multiplier(cols.tile_at(3, 2)));
        assert!(!cols.tile_has_multiplier(cols.tile_at(3, 3)));
    }

    #[test]
    fn canonical_hash_is_pinned_and_field_sensitive() {
        // Cross-process stability contract (service disk cache); change
        // deliberately or not at all.
        let proto = CgraConfig::iced_prototype();
        assert_eq!(proto.canonical_hash(), 0x6e22_878d_c451_e094);
        assert_eq!(proto.canonical_hash(), proto.clone().canonical_hash());
        let variants = [
            CgraConfig::builder(8, 6).build().unwrap(),
            CgraConfig::builder(6, 6).island(3, 3).build().unwrap(),
            CgraConfig::builder(6, 6).reg_capacity(8).build().unwrap(),
            CgraConfig::builder(6, 6).spm_banks(4).build().unwrap(),
            CgraConfig::builder(6, 6).spm_kib(64).build().unwrap(),
            CgraConfig::builder(6, 6)
                .fu_layout(FuLayout::CheckerboardMul)
                .build()
                .unwrap(),
        ];
        for v in &variants {
            assert_ne!(proto.canonical_hash(), v.canonical_hash(), "{v:?}");
        }
    }

    #[test]
    fn manhattan_distance() {
        let c = CgraConfig::square(6).unwrap();
        assert_eq!(c.manhattan(c.tile_at(0, 0), c.tile_at(3, 2)), 5);
        assert_eq!(c.manhattan(c.tile_at(2, 2), c.tile_at(2, 2)), 0);
    }
}
