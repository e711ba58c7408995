//! Modulo Routing Resource Graph: time-extended occupancy tracking.
//!
//! The MRRG replicates the CGRA's resources along a modulo time axis of `II`
//! base-clock cycles (Mei et al., the representation ICED's Algorithm 2 maps
//! onto). Three resource classes are tracked per `(tile, base-cycle mod II)`
//! slot:
//!
//! * the **functional unit** (one operation per tile cycle),
//! * the four **outgoing mesh links** of the tile's crossbar,
//! * the **register-file** slots used to hold routed values across cycles.
//!
//! DVFS awareness: an action on a tile whose island runs at rate divisor `r`
//! spans `r` consecutive base cycles and must start phase-aligned
//! (`start ≡ 0 (mod r)`); reservation methods take the window length so the
//! same structure serves normal, relax, and rest tiles. Callers guarantee
//! `r` divides `II`, which makes the wrapped windows tessellate.
//!
//! FU and link occupancy is stored as packed `u64` words — one bit per
//! modulo cycle — so a window probe is a handful of word-mask tests instead
//! of a per-cycle loop. Register occupancy stays a `u8` count per slot
//! (capacity can exceed 1).

use crate::config::CgraConfig;
use crate::error::ArchError;
use crate::tile::{Dir, TileId};

/// Occupancy state of a CGRA's resources over one modulo period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mrrg {
    ii: u32,
    tiles: usize,
    reg_capacity: u8,
    /// `u64` words per bit track (`ceil(ii / 64)`).
    words: usize,
    /// One bit track per tile: `[tile * words ..][cycle bit]`.
    fu: Vec<u64>,
    /// One bit track per (tile, dir): `[(tile * 4 + dir) * words ..]`.
    link: Vec<u64>,
    /// `[tile * ii + cycle]` — number of live register slots.
    reg: Vec<u8>,
}

/// Whether all `len` bits starting at `bit` are clear in the track at
/// `words[base..]`. `bit + len` must not exceed the track's bit width.
#[inline]
fn track_free(words: &[u64], base: usize, bit: u64, len: u64) -> bool {
    let mut w = base + (bit / 64) as usize;
    let mut b = bit % 64;
    let mut rem = len;
    while rem > 0 {
        let take = rem.min(64 - b);
        let mask = (u64::MAX >> (64 - take)) << b;
        if words[w] & mask != 0 {
            return false;
        }
        rem -= take;
        b = 0;
        w += 1;
    }
    true
}

/// Sets `len` bits starting at `bit` in the track at `words[base..]`.
#[inline]
fn track_set(words: &mut [u64], base: usize, bit: u64, len: u64) {
    let mut w = base + (bit / 64) as usize;
    let mut b = bit % 64;
    let mut rem = len;
    while rem > 0 {
        let take = rem.min(64 - b);
        let mask = (u64::MAX >> (64 - take)) << b;
        words[w] |= mask;
        rem -= take;
        b = 0;
        w += 1;
    }
}

/// Clears `len` bits starting at `bit` in the track at `words[base..]`.
#[inline]
fn track_clear(words: &mut [u64], base: usize, bit: u64, len: u64) {
    let mut w = base + (bit / 64) as usize;
    let mut b = bit % 64;
    let mut rem = len;
    while rem > 0 {
        let take = rem.min(64 - b);
        let mask = (u64::MAX >> (64 - take)) << b;
        words[w] &= !mask;
        rem -= take;
        b = 0;
        w += 1;
    }
}

impl Mrrg {
    /// Creates an empty MRRG for `config` with initiation interval `ii`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ZeroInitiationInterval`] when `ii == 0`.
    pub fn new(config: &CgraConfig, ii: u32) -> Result<Self, ArchError> {
        if ii == 0 {
            return Err(ArchError::ZeroInitiationInterval);
        }
        let tiles = config.tile_count();
        let words = (ii as usize).div_ceil(64);
        Ok(Mrrg {
            ii,
            tiles,
            reg_capacity: config.reg_capacity(),
            words,
            fu: vec![0; tiles * words],
            link: vec![0; tiles * 4 * words],
            reg: vec![0; tiles * ii as usize],
        })
    }

    /// The initiation interval this MRRG was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Clears every reservation in place, yielding the same state as a
    /// fresh [`Mrrg::new`] without reallocating. Lets a mapper reuse one
    /// allocation across retry attempts at the same II.
    pub fn reset(&mut self) {
        self.fu.fill(0);
        self.link.fill(0);
        self.reg.fill(0);
    }

    fn slot(&self, tile: TileId, cycle: u64) -> usize {
        debug_assert!(tile.index() < self.tiles, "tile out of range");
        tile.index() * self.ii as usize + (cycle % self.ii as u64) as usize
    }

    /// Splits the wrapped modulo window `[start, start + len)` into its
    /// unwrapped head (starting at `start mod II`) and, when the window
    /// crosses the period boundary, a tail starting at cycle 0.
    #[inline]
    fn window(&self, start: u64, len: u64) -> (u64, u64, u64) {
        debug_assert!(len <= self.ii as u64, "window longer than the period");
        let s = start % self.ii as u64;
        let head = len.min(self.ii as u64 - s);
        (s, head, len - head)
    }

    /// Whether the FU of `tile` is free for a window of `len` base cycles
    /// starting at absolute base cycle `start`.
    pub fn fu_free(&self, tile: TileId, start: u64, len: u32) -> bool {
        let base = tile.index() * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_free(&self.fu, base, s, head) && (tail == 0 || track_free(&self.fu, base, 0, tail))
    }

    /// Reserves the FU window. Call only after [`fu_free`](Mrrg::fu_free).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if part of the window is already occupied.
    pub fn occupy_fu(&mut self, tile: TileId, start: u64, len: u32) {
        debug_assert!(self.fu_free(tile, start, len), "double-booked FU slot");
        let base = tile.index() * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_set(&mut self.fu, base, s, head);
        if tail > 0 {
            track_set(&mut self.fu, base, 0, tail);
        }
    }

    /// Releases a previously reserved FU window.
    pub fn release_fu(&mut self, tile: TileId, start: u64, len: u32) {
        let base = tile.index() * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_clear(&mut self.fu, base, s, head);
        if tail > 0 {
            track_clear(&mut self.fu, base, 0, tail);
        }
    }

    /// Whether the outgoing link of `tile` towards `dir` is free for `len`
    /// base cycles starting at `start`.
    pub fn link_free(&self, tile: TileId, dir: Dir, start: u64, len: u32) -> bool {
        let base = (tile.index() * 4 + dir.index()) * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_free(&self.link, base, s, head)
            && (tail == 0 || track_free(&self.link, base, 0, tail))
    }

    /// Reserves a link window.
    pub fn occupy_link(&mut self, tile: TileId, dir: Dir, start: u64, len: u32) {
        let base = (tile.index() * 4 + dir.index()) * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_set(&mut self.link, base, s, head);
        if tail > 0 {
            track_set(&mut self.link, base, 0, tail);
        }
    }

    /// Releases a link window.
    pub fn release_link(&mut self, tile: TileId, dir: Dir, start: u64, len: u32) {
        let base = (tile.index() * 4 + dir.index()) * self.words;
        let (s, head, tail) = self.window(start, len as u64);
        track_clear(&mut self.link, base, s, head);
        if tail > 0 {
            track_clear(&mut self.link, base, 0, tail);
        }
    }

    /// Whether a register slot of `tile` can hold a value for `len` base
    /// cycles starting at `start`. Windows of `II` or more cycles demand a
    /// slot for the whole period (the value overlaps itself across
    /// iterations).
    pub fn reg_available(&self, tile: TileId, start: u64, len: u64) -> bool {
        let span = len.min(self.ii as u64);
        (0..span).all(|i| self.reg[self.slot(tile, start + i)] < self.reg_capacity)
    }

    /// Reserves a register hold window.
    pub fn occupy_reg(&mut self, tile: TileId, start: u64, len: u64) {
        let span = len.min(self.ii as u64);
        for i in 0..span {
            let s = self.slot(tile, start + i);
            debug_assert!(self.reg[s] < self.reg_capacity, "register overflow");
            self.reg[s] += 1;
        }
    }

    /// Releases a register hold window.
    pub fn release_reg(&mut self, tile: TileId, start: u64, len: u64) {
        let span = len.min(self.ii as u64);
        for i in 0..span {
            let s = self.slot(tile, start + i);
            debug_assert!(self.reg[s] > 0, "releasing an empty register window");
            self.reg[s] = self.reg[s].saturating_sub(1);
        }
    }

    /// Number of occupied FU base-cycle slots on `tile` (used by the
    /// utilization accounting).
    pub fn fu_busy_cycles(&self, tile: TileId) -> u32 {
        let base = tile.index() * self.words;
        self.fu[base..base + self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Number of occupied outgoing-link base-cycle slots on `tile`.
    pub fn link_busy_cycles(&self, tile: TileId) -> u32 {
        let mut n = 0;
        for dir in Dir::ALL {
            let base = (tile.index() * 4 + dir.index()) * self.words;
            n += self.link[base..base + self.words]
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrrg(ii: u32) -> Mrrg {
        Mrrg::new(&CgraConfig::square(4).unwrap(), ii).unwrap()
    }

    #[test]
    fn zero_ii_rejected() {
        assert!(matches!(
            Mrrg::new(&CgraConfig::square(4).unwrap(), 0),
            Err(ArchError::ZeroInitiationInterval)
        ));
    }

    #[test]
    fn fu_windows_wrap_modulo_ii() {
        let mut m = mrrg(4);
        let t = TileId(5);
        // A rest-rate op at absolute cycle 4 occupies cycles 4..8 ≡ 0..4.
        assert!(m.fu_free(t, 4, 4));
        m.occupy_fu(t, 4, 4);
        assert!(!m.fu_free(t, 0, 1));
        assert!(!m.fu_free(t, 103, 1)); // any absolute time maps into the period
        assert_eq!(m.fu_busy_cycles(t), 4);
        m.release_fu(t, 4, 4);
        assert!(m.fu_free(t, 0, 4));
    }

    #[test]
    fn windows_crossing_the_period_boundary_split() {
        // II = 6: a window starting at cycle 5 of length 2 wraps to 5, 0.
        let mut m = mrrg(6);
        let t = TileId(7);
        m.occupy_fu(t, 5, 2);
        assert!(!m.fu_free(t, 5, 1));
        assert!(!m.fu_free(t, 0, 1));
        assert!(m.fu_free(t, 1, 4));
        assert_eq!(m.fu_busy_cycles(t), 2);
        m.release_fu(t, 5, 2);
        assert_eq!(m.fu_busy_cycles(t), 0);
    }

    #[test]
    fn wide_periods_span_multiple_words() {
        // II = 96 > 64 exercises the two-word track path.
        let mut m = mrrg(96);
        let t = TileId(3);
        m.occupy_fu(t, 62, 4); // straddles the word boundary at bit 64
        assert!(!m.fu_free(t, 63, 1));
        assert!(!m.fu_free(t, 65, 1));
        assert!(m.fu_free(t, 66, 4));
        assert_eq!(m.fu_busy_cycles(t), 4);
        m.occupy_link(t, Dir::West, 94, 2);
        assert!(!m.link_free(t, Dir::West, 95, 1));
        assert!(m.link_free(t, Dir::West, 0, 64));
        assert_eq!(m.link_busy_cycles(t), 2);
        m.release_link(t, Dir::West, 94, 2);
        m.release_fu(t, 62, 4);
        assert!(m.fu_free(t, 0, 96));
    }

    #[test]
    fn links_are_independent_per_direction() {
        let mut m = mrrg(4);
        let t = TileId(0);
        m.occupy_link(t, Dir::East, 1, 1);
        assert!(!m.link_free(t, Dir::East, 1, 1));
        assert!(m.link_free(t, Dir::South, 1, 1));
        assert!(m.link_free(t, Dir::East, 2, 1));
        assert_eq!(m.link_busy_cycles(t), 1);
    }

    #[test]
    fn register_capacity_is_enforced() {
        let cfg = CgraConfig::builder(2, 2)
            .island(1, 1)
            .reg_capacity(2)
            .build()
            .unwrap();
        let mut m = Mrrg::new(&cfg, 2).unwrap();
        let t = TileId(3);
        assert!(m.reg_available(t, 0, 2));
        m.occupy_reg(t, 0, 2);
        m.occupy_reg(t, 0, 2);
        assert!(!m.reg_available(t, 0, 1));
        assert!(!m.reg_available(t, 1, 1));
        m.release_reg(t, 0, 2);
        assert!(m.reg_available(t, 1, 1));
    }

    #[test]
    fn long_holds_clamp_to_one_period() {
        let mut m = mrrg(4);
        let t = TileId(2);
        // Holding for 100 cycles just pins one slot for the whole period.
        m.occupy_reg(t, 1, 100);
        for c in 0..4 {
            assert_eq!(m.reg[t.index() * 4 + c], 1);
        }
        m.release_reg(t, 1, 100);
        assert!(m.reg_available(t, 0, 4));
    }

    #[test]
    fn reset_clears_everything_in_place() {
        let mut m = mrrg(4);
        let t = TileId(6);
        m.occupy_fu(t, 1, 2);
        m.occupy_link(t, Dir::North, 0, 1);
        m.occupy_reg(t, 2, 3);
        m.reset();
        assert!(m.fu_free(t, 0, 4));
        assert!(m.link_free(t, Dir::North, 0, 4));
        assert!(m.reg_available(t, 0, 4));
        assert_eq!(m.fu_busy_cycles(t), 0);
        assert_eq!(m.link_busy_cycles(t), 0);
    }

    #[test]
    fn clone_snapshots_state() {
        let mut m = mrrg(2);
        let snap = m.clone();
        m.occupy_fu(TileId(1), 0, 1);
        assert!(!m.fu_free(TileId(1), 0, 1));
        assert!(snap.fu_free(TileId(1), 0, 1));
    }
}
