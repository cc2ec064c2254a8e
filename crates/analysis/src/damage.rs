//! Damage-map backends for the Monte-Carlo attack harness.
//!
//! [`AttackSimCore`](crate::montecarlo::AttackSimCore) tracks, per row, the
//! disturbance accumulated since the last restore. PR 9 kept that state in a
//! `HashMap<u32, u64>`, which made every activation pay two hash probes
//! (restore the activated row, bump both neighbors) — the dominant cost of
//! fuzzer-candidate evaluation. This module abstracts the bookkeeping behind
//! [`DamageModel`] and provides two implementations:
//!
//! * [`MapDamage`] — the original hash map, kept as the differential oracle;
//! * [`DamageArena`] — a dense paged arena: rows map to fixed 4096-row pages
//!   allocated on first touch, each page holding SoA `stamp`/`value` columns.
//!   "Clearing" the arena between fuzzer candidates is an epoch bump: a slot
//!   whose stamp predates the current epoch reads as zero, so lane reuse
//!   costs O(1) instead of a per-row teardown.
//!
//! The two backends are pinned against each other by a differential proptest
//! oracle below (random op sequences, equality after every step) and by the
//! sim-level A/B in `montecarlo` — the arena is a pure representation change,
//! never a semantic one.

use std::collections::HashMap;

/// Rows per arena page (must be a power of two).
const PAGE_ROWS: usize = 4096;

/// Per-row damage bookkeeping: how much disturbance each row accumulated
/// since it was last restored (activated or refreshed).
pub trait DamageModel {
    /// Creates an empty model for a bank of `rows_per_bank` rows. Rows at or
    /// above the hint are still accepted (legacy patterns may address past
    /// the nominal bank end); the hint only sizes the initial layout.
    fn with_capacity(rows_per_bank: u32) -> Self;

    /// Adds one unit of disturbance to `row` and returns its new damage.
    fn disturb(&mut self, row: u32) -> u64;

    /// Restores `row` (activation or victim refresh): damage back to zero.
    fn restore(&mut self, row: u32);

    /// Current damage of `row` (zero if never disturbed or just restored).
    fn get(&self, row: u32) -> u64;

    /// Resets every row to zero damage. Called between fuzzer candidates,
    /// so it must be cheap in the common case.
    fn clear(&mut self);
}

/// The original damage map: one hash entry per currently-disturbed row.
/// Reference implementation for the differential oracle.
#[derive(Debug, Default, Clone)]
pub struct MapDamage {
    map: HashMap<u32, u64>,
}

impl DamageModel for MapDamage {
    fn with_capacity(_rows_per_bank: u32) -> Self {
        MapDamage::default()
    }

    fn disturb(&mut self, row: u32) -> u64 {
        let d = self.map.entry(row).or_insert(0);
        *d += 1;
        *d
    }

    fn restore(&mut self, row: u32) {
        self.map.remove(&row);
    }

    fn get(&self, row: u32) -> u64 {
        self.map.get(&row).copied().unwrap_or(0)
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// One lazily-allocated page of rows, stored as SoA columns: the epoch stamp
/// that says whether `value` is current, and the damage value itself.
struct Page {
    stamp: Box<[u32]>,
    value: Box<[u64]>,
}

impl Page {
    fn new() -> Self {
        Page {
            stamp: vec![0; PAGE_ROWS].into_boxed_slice(),
            value: vec![0; PAGE_ROWS].into_boxed_slice(),
        }
    }
}

/// Dense paged damage arena with epoch-stamp clearing.
///
/// Row `r` lives in page `r / 4096`, slot `r % 4096`. A slot's value counts
/// only while its stamp equals the arena's current epoch; [`clear`] bumps the
/// epoch, logically zeroing every row without touching page memory. Pages
/// are allocated on first disturb and kept across clears, so a lane that
/// evaluates thousands of candidates touches steady-state memory only.
///
/// [`clear`]: DamageModel::clear
pub struct DamageArena {
    pages: Vec<Option<Page>>,
    epoch: u32,
}

impl core::fmt::Debug for DamageArena {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DamageArena")
            .field("pages", &self.pages.iter().filter(|p| p.is_some()).count())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl DamageArena {
    #[inline]
    fn locate(row: u32) -> (usize, usize) {
        let row = row as usize;
        (row / PAGE_ROWS, row % PAGE_ROWS)
    }

    /// The page holding `row`, allocating (and growing the page table) on
    /// first touch.
    fn page_mut(&mut self, page_idx: usize) -> &mut Page {
        if page_idx >= self.pages.len() {
            self.pages.resize_with(page_idx + 1, || None);
        }
        self.pages[page_idx].get_or_insert_with(Page::new)
    }
}

impl DamageModel for DamageArena {
    fn with_capacity(rows_per_bank: u32) -> Self {
        let pages = (rows_per_bank as usize).div_ceil(PAGE_ROWS);
        let mut v = Vec::new();
        v.resize_with(pages, || None);
        DamageArena { pages: v, epoch: 1 }
    }

    fn disturb(&mut self, row: u32) -> u64 {
        let epoch = self.epoch;
        let (pi, slot) = Self::locate(row);
        let page = self.page_mut(pi);
        if page.stamp[slot] != epoch {
            page.stamp[slot] = epoch;
            page.value[slot] = 0;
        }
        page.value[slot] += 1;
        page.value[slot]
    }

    fn restore(&mut self, row: u32) {
        let (pi, slot) = Self::locate(row);
        // A row never disturbed needs no page just to hold a zero.
        if let Some(Some(page)) = self.pages.get_mut(pi) {
            if page.stamp[slot] == self.epoch {
                page.value[slot] = 0;
            }
        }
    }

    fn get(&self, row: u32) -> u64 {
        let (pi, slot) = Self::locate(row);
        match self.pages.get(pi) {
            Some(Some(page)) if page.stamp[slot] == self.epoch => page.value[slot],
            _ => 0,
        }
    }

    fn clear(&mut self) {
        // Epoch bump: every stale stamp now reads as zero. On (theoretical)
        // wrap, hard-zero the stamps so old epochs cannot alias the new one.
        if self.epoch == u32::MAX {
            for page in self.pages.iter_mut().flatten() {
                page.stamp.fill(0);
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autorfm_sim_core::DetRng;
    use proptest::prelude::*;

    #[test]
    fn arena_basic_semantics() {
        let mut a = DamageArena::with_capacity(131_072);
        assert_eq!(a.get(7), 0);
        assert_eq!(a.disturb(7), 1);
        assert_eq!(a.disturb(7), 2);
        assert_eq!(a.get(7), 2);
        a.restore(7);
        assert_eq!(a.get(7), 0);
        assert_eq!(a.disturb(7), 1);
        a.clear();
        assert_eq!(a.get(7), 0);
        assert_eq!(a.disturb(7), 1, "damage restarts after a clear");
    }

    #[test]
    fn arena_grows_past_capacity_hint() {
        let mut a = DamageArena::with_capacity(16);
        let far = 3 * PAGE_ROWS as u32 + 5;
        assert_eq!(a.disturb(far), 1);
        assert_eq!(a.get(far), 1);
        a.restore(far);
        assert_eq!(a.get(far), 0);
    }

    #[test]
    fn restore_of_untouched_row_allocates_nothing() {
        let mut a = DamageArena::with_capacity(1 << 20);
        a.restore(999_999);
        assert_eq!(a.pages.iter().filter(|p| p.is_some()).count(), 0);
    }

    #[test]
    fn epoch_wrap_hard_clears() {
        let mut a = DamageArena::with_capacity(64);
        a.disturb(3);
        a.epoch = u32::MAX; // simulate 4 billion clears
        a.disturb(5);
        a.clear();
        assert_eq!(a.epoch, 1);
        assert_eq!(a.get(3), 0);
        assert_eq!(a.get(5), 0);
        assert_eq!(a.disturb(5), 1);
    }

    /// One random op applied to both backends, with return values and
    /// observable damage equality-checked.
    fn apply_both(rng: &mut DetRng, arena: &mut DamageArena, map: &mut MapDamage) -> u32 {
        // Bias toward a handful of hot rows so disturb/restore actually
        // collide, plus occasional far rows to exercise page growth.
        let row = match rng.gen_range(4) {
            0 => rng.gen_range(8) as u32,
            1 => 4090 + rng.gen_range(12) as u32, // straddles a page boundary
            2 => rng.gen_range(1 << 17) as u32,
            _ => rng.gen_range(1 << 20) as u32, // beyond the capacity hint
        };
        match rng.gen_range(10) {
            0..=5 => assert_eq!(arena.disturb(row), map.disturb(row), "disturb({row})"),
            6 | 7 => {
                arena.restore(row);
                map.restore(row);
            }
            8 => assert_eq!(arena.get(row), map.get(row), "get({row})"),
            _ => {
                arena.clear();
                map.clear();
            }
        }
        row
    }

    proptest! {
        /// Differential oracle: any op sequence leaves the arena and the
        /// legacy map observably identical (same per-op returns, same damage
        /// at the touched row after every op).
        #[test]
        fn arena_matches_map_oracle(seed in 0u64..100_000) {
            let mut rng = DetRng::seeded(seed);
            let mut arena = DamageArena::with_capacity(1 << 17);
            let mut map = MapDamage::with_capacity(1 << 17);
            let mut touched = Vec::new();
            for _ in 0..300 {
                touched.push(apply_both(&mut rng, &mut arena, &mut map));
                let &row = touched.last().unwrap();
                prop_assert_eq!(arena.get(row), map.get(row));
            }
            for row in touched {
                prop_assert_eq!(arena.get(row), map.get(row), "final state at {}", row);
            }
        }
    }
}
