//! Shared last-level cache: set-associative, LRU, write-back/write-allocate.

use autorfm_sim_core::{ConfigError, LineAddr};
use autorfm_snapshot::{decode_bool, Reader, SnapError, Snapshot, Writer};

/// LLC geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcParams {
    /// Total capacity in bytes (8 MB in the baseline).
    pub capacity_bytes: u64,
    /// Associativity (16 in the baseline).
    pub ways: u32,
    /// Line size in bytes (64 in the baseline).
    pub line_bytes: u32,
}

impl Default for LlcParams {
    fn default() -> Self {
        LlcParams {
            capacity_bytes: 8 << 20,
            ways: 16,
            line_bytes: 64,
        }
    }
}

/// One way's valid/dirty/age record, kept apart from its tag so a set's
/// tags scan as one contiguous run of `u64`s.
#[derive(Debug, Clone, Copy, Default)]
struct WayState {
    valid: bool,
    dirty: bool,
    /// LRU age: 0 = most recently used; saturates at 255.
    age: u8,
}

/// Encoded size of one way: tag (`u64`), valid, dirty, age.
const WAY_BYTES: usize = 11;

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent; the caller must fetch it from memory and then call
    /// [`Llc::fill`].
    Miss,
}

/// The shared last-level cache.
///
/// # Examples
///
/// ```
/// use autorfm_cpu::{Llc, LlcParams, AccessResult};
/// use autorfm_sim_core::LineAddr;
///
/// let mut llc = Llc::new(LlcParams::default())?;
/// assert_eq!(llc.access(LineAddr(42), false), AccessResult::Miss);
/// llc.fill(LineAddr(42), false);
/// assert_eq!(llc.access(LineAddr(42), false), AccessResult::Hit);
/// # Ok::<(), autorfm_sim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    /// Every way's tag, set-major: set `s` is `[s * ways, (s + 1) * ways)`.
    tags: Vec<u64>,
    /// Every way's valid/dirty/age record, indexed like `tags`.
    state: Vec<WayState>,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
    /// Per-set MRU way index (`u32::MAX` = no hint): the hot-way fast path
    /// for [`Llc::access`]. Redundant state — validated on probe, rebuilt
    /// empty on snapshot restore, never serialized.
    hot: Vec<u32>,
}

/// "No hint" sentinel for [`Llc::hot`].
const NO_HINT: u32 = u32::MAX;

impl Llc {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `ways == 0`, the way count does not divide
    /// the line count evenly, or the parameters do not produce a power-of-two
    /// number of sets.
    pub fn new(p: LlcParams) -> Result<Self, ConfigError> {
        if p.ways == 0 {
            return Err(ConfigError::new("LLC needs at least one way"));
        }
        let lines = p.capacity_bytes / p.line_bytes as u64;
        if !lines.is_multiple_of(p.ways as u64) {
            return Err(ConfigError::new(format!(
                "LLC associativity {} must divide the line count {lines} evenly",
                p.ways
            )));
        }
        let num_sets = lines / p.ways as u64;
        if num_sets == 0 || !num_sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "LLC set count must be a power of two, got {num_sets}"
            )));
        }
        let total = lines as usize;
        Ok(Llc {
            tags: vec![0; total],
            state: vec![WayState::default(); total],
            ways: p.ways as usize,
            set_mask: num_sets - 1,
            hits: 0,
            misses: 0,
            hot: vec![NO_HINT; num_sets as usize],
        })
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    fn tag_of(&self, line: LineAddr) -> u64 {
        line.0 >> self.set_mask.count_ones()
    }

    /// Index of set `set_idx`'s first way in `tags` and `state`.
    fn base_of(&self, set_idx: usize) -> usize {
        set_idx * self.ways
    }

    /// The way of the set starting at `base` that holds `tag`, if any.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let end = base + self.ways;
        self.tags[base..end]
            .iter()
            .zip(&self.state[base..end])
            .position(|(&t, w)| w.valid && t == tag)
    }

    /// Looks up `line`; `is_write` marks the line dirty on hit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessResult {
        let set_idx = self.set_of(line);
        let tag = self.tag_of(line);
        let base = self.base_of(set_idx);
        // Hot-way fast path: re-accessing the set's MRU line (the common case
        // on strided streams) needs no way scan and no re-aging — every other
        // way is already older, so the LRU update below would be a no-op. The
        // hint is validated on probe (valid, tag, and still age 0), so a
        // stale hint falls through to the full scan instead of misbehaving.
        let hint = self.hot[set_idx];
        if hint != NO_HINT {
            let i = base + hint as usize;
            let w = &mut self.state[i];
            if w.valid && self.tags[i] == tag && w.age == 0 {
                w.dirty |= is_write;
                self.hits += 1;
                return AccessResult::Hit;
            }
        }
        if let Some(pos) = self.find(base, tag) {
            let set = &mut self.state[base..base + self.ways];
            let old_age = set[pos].age;
            for w in set.iter_mut() {
                if w.valid && w.age < old_age {
                    w.age += 1;
                }
            }
            set[pos].age = 0;
            set[pos].dirty |= is_write;
            self.hot[set_idx] = pos as u32;
            self.hits += 1;
            AccessResult::Hit
        } else {
            self.misses += 1;
            AccessResult::Miss
        }
    }

    /// Inserts `line` (after a miss fill), dirty if `dirty` (a store
    /// triggered the fill). Returns the evicted line if it was dirty (the
    /// caller must write it back to memory).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<LineAddr> {
        let set_idx = self.set_of(line);
        let tag = self.tag_of(line);
        let base = self.base_of(set_idx);
        if let Some(pos) = self.find(base, tag) {
            // Already present (racing fills merge in the MSHR).
            self.state[base + pos].dirty |= dirty;
            return None;
        }
        let set = &mut self.state[base..base + self.ways];
        // Victim: an invalid way, else the LRU (max age; the last on a tie).
        let victim = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .max_by_key(|(_, w)| w.age)
                .map(|(i, _)| i)
                .expect("ways > 0")
        });
        let evicted = set[victim];
        for w in set.iter_mut() {
            if w.valid {
                w.age = w.age.saturating_add(1);
            }
        }
        set[victim] = WayState {
            valid: true,
            dirty,
            age: 0,
        };
        let evicted_tag = std::mem::replace(&mut self.tags[base + victim], tag);
        self.hot[set_idx] = victim as u32;
        if evicted.valid && evicted.dirty {
            let set_bits = self.set_mask.count_ones();
            Some(LineAddr((evicted_tag << set_bits) | set_idx as u64))
        } else {
            None
        }
    }

    /// Invalidates `line` if present, returning it if it was dirty (the
    /// caller must write it back). Models CLFLUSH, which Rowhammer attackers
    /// use to defeat the cache (threat model, Section II-A).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineAddr> {
        let set_idx = self.set_of(line);
        let base = self.base_of(set_idx);
        let pos = self.find(base, self.tag_of(line))?;
        let w = &mut self.state[base + pos];
        let was_dirty = w.dirty;
        w.valid = false;
        w.dirty = false;
        if self.hot[set_idx] == pos as u32 {
            self.hot[set_idx] = NO_HINT;
        }
        was_dirty.then_some(line)
    }

    /// Marks `line` dirty if present (used when a store triggered the fill).
    pub fn mark_dirty(&mut self, line: LineAddr) {
        let base = self.base_of(self.set_of(line));
        if let Some(pos) = self.find(base, self.tag_of(line)) {
            self.state[base + pos].dirty = true;
        }
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl Snapshot for Llc {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.hot.len());
        w.put_usize(self.ways);
        for (&tag, s) in self.tags.iter().zip(&self.state) {
            let mut rec = [0; WAY_BYTES];
            rec[..8].copy_from_slice(&tag.to_le_bytes());
            rec[8..].copy_from_slice(&[u8::from(s.valid), u8::from(s.dirty), s.age]);
            w.put_raw(&rec);
        }
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let num_sets = r.take_usize()?;
        let num_ways = r.take_usize()?;
        if num_sets == 0 || !num_sets.is_power_of_two() || num_ways == 0 {
            return Err(SnapError::corrupt("bad LLC geometry in snapshot"));
        }
        let block = num_sets
            .checked_mul(num_ways)
            .and_then(|total| total.checked_mul(WAY_BYTES))
            .ok_or_else(|| SnapError::corrupt("LLC way count overflow"))?;
        let block = r.take_raw(block)?;
        let recs = block.chunks_exact(WAY_BYTES);
        // One branch-light scan for a bad bool byte; `decode_bool` names it.
        if let Some(rec) = recs.clone().find(|rec| rec[8] > 1 || rec[9] > 1) {
            decode_bool(rec[8])?;
            decode_bool(rec[9])?;
        }
        let tags = recs
            .clone()
            .map(|rec| u64::from_le_bytes(rec[..8].try_into().expect("8 bytes")))
            .collect();
        let state = recs
            .map(|rec| WayState {
                valid: rec[8] == 1,
                dirty: rec[9] == 1,
                age: rec[10],
            })
            .collect();
        Ok(Llc {
            tags,
            state,
            ways: num_ways,
            set_mask: num_sets as u64 - 1,
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            // The hot-way hint is redundant state: never serialized, rebuilt
            // empty here, and repopulated by the first access per set.
            hot: vec![NO_HINT; num_sets],
        })
    }
}

/// The nested `Vec<Vec<Way>>` LLC the flat [`Llc`] replaced, kept as a
/// differential oracle. It has no hot-way hint, so agreeing with it also
/// shows the hint never changes an answer.
#[cfg(test)]
mod reference {
    use super::{AccessResult, LineAddr, Writer};

    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        age: u8,
    }

    pub struct RefLlc {
        sets: Vec<Vec<Way>>,
        set_mask: u64,
        pub hits: u64,
        pub misses: u64,
    }

    impl RefLlc {
        pub fn new(num_sets: usize, ways: usize) -> Self {
            RefLlc {
                sets: vec![vec![Way::default(); ways]; num_sets],
                set_mask: num_sets as u64 - 1,
                hits: 0,
                misses: 0,
            }
        }

        fn split(&self, line: LineAddr) -> (usize, u64) {
            (
                (line.0 & self.set_mask) as usize,
                line.0 >> self.set_mask.count_ones(),
            )
        }

        pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessResult {
            let (set_idx, tag) = self.split(line);
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|w| w.valid && w.tag == tag) {
                let old_age = set[pos].age;
                for w in set.iter_mut() {
                    if w.valid && w.age < old_age {
                        w.age += 1;
                    }
                }
                set[pos].age = 0;
                set[pos].dirty |= is_write;
                self.hits += 1;
                AccessResult::Hit
            } else {
                self.misses += 1;
                AccessResult::Miss
            }
        }

        pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<LineAddr> {
            let (set_idx, tag) = self.split(line);
            let set_bits = self.set_mask.count_ones();
            let set = &mut self.sets[set_idx];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.dirty |= dirty;
                return None;
            }
            let victim = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .max_by_key(|(_, w)| w.age)
                    .map(|(i, _)| i)
                    .expect("ways > 0")
            });
            let evicted = set[victim];
            for w in set.iter_mut() {
                if w.valid {
                    w.age = w.age.saturating_add(1);
                }
            }
            set[victim] = Way {
                tag,
                valid: true,
                dirty,
                age: 0,
            };
            (evicted.valid && evicted.dirty)
                .then(|| LineAddr((evicted.tag << set_bits) | set_idx as u64))
        }

        pub fn invalidate(&mut self, line: LineAddr) -> Option<LineAddr> {
            let (set_idx, tag) = self.split(line);
            let w = self.sets[set_idx]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)?;
            let was_dirty = w.dirty;
            w.valid = false;
            w.dirty = false;
            was_dirty.then_some(line)
        }

        pub fn mark_dirty(&mut self, line: LineAddr) {
            let (set_idx, tag) = self.split(line);
            if let Some(w) = self.sets[set_idx]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
            {
                w.dirty = true;
            }
        }

        /// The snapshot bytes `Llc::encode` wrote before the flat layout.
        pub fn encode(&self, w: &mut Writer) {
            w.put_usize(self.sets.len());
            w.put_usize(self.sets.first().map_or(0, Vec::len));
            for way in self.sets.iter().flatten() {
                w.put_u64(way.tag);
                w.put_bool(way.valid);
                w.put_bool(way.dirty);
                w.put_u8(way.age);
            }
            w.put_u64(self.hits);
            w.put_u64(self.misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 4 sets x 2 ways x 64B = 512B.
        Llc::new(LlcParams {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
        .unwrap()
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(5), false), AccessResult::Miss);
        assert_eq!(c.fill(LineAddr(5), false), None);
        assert_eq!(c.access(LineAddr(5), false), AccessResult::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.miss_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0: lines 0, 4, 8 (stride = number of sets).
        c.fill(LineAddr(0), false);
        c.fill(LineAddr(4), false);
        c.access(LineAddr(0), false); // 0 is now MRU; 4 is LRU
        c.fill(LineAddr(8), false); // evicts 4
        assert_eq!(c.access(LineAddr(0), false), AccessResult::Hit);
        assert_eq!(c.access(LineAddr(4), false), AccessResult::Miss);
        assert_eq!(c.access(LineAddr(8), false), AccessResult::Hit);
    }

    #[test]
    fn dirty_eviction_returns_victim() {
        let mut c = tiny();
        c.fill(LineAddr(0), false);
        c.access(LineAddr(0), true); // dirty
        c.fill(LineAddr(4), false);
        let evicted = c.fill(LineAddr(8), false); // evicts 0 (LRU, dirty)
        assert_eq!(evicted, Some(LineAddr(0)));
    }

    #[test]
    fn clean_eviction_returns_none() {
        let mut c = tiny();
        c.fill(LineAddr(0), false);
        c.fill(LineAddr(4), false);
        assert_eq!(c.fill(LineAddr(8), false), None);
    }

    #[test]
    fn mark_dirty_after_fill() {
        let mut c = tiny();
        c.fill(LineAddr(12), false);
        c.mark_dirty(LineAddr(12));
        c.fill(LineAddr(16), false);
        c.fill(LineAddr(20), false); // evict 12
                                     // One of the fills must have evicted dirty line 12.
                                     // (12 maps to set 0b00? 12 & 3 == 0 ... all in set 0.)
        let evicted = c.fill(LineAddr(24), false);
        // Either the earlier fill or this one returned Some(12); ensure 12 gone.
        assert_eq!(c.access(LineAddr(12), false), AccessResult::Miss);
        let _ = evicted;
    }

    #[test]
    fn dirty_fill_marks_the_inserted_or_present_way() {
        let mut c = tiny();
        // A dirty fill comes back as a writeback when it is evicted.
        c.fill(LineAddr(0), true);
        c.fill(LineAddr(4), false);
        assert_eq!(c.fill(LineAddr(8), false), Some(LineAddr(0)));
        // A racing dirty fill of a present clean line marks it dirty.
        c.fill(LineAddr(8), true);
        c.access(LineAddr(4), false); // 8 is now the LRU
        assert_eq!(c.fill(LineAddr(12), false), Some(LineAddr(8)));
    }

    #[test]
    fn double_fill_is_idempotent() {
        let mut c = tiny();
        c.fill(LineAddr(7), false);
        assert_eq!(c.fill(LineAddr(7), false), None);
        assert_eq!(c.access(LineAddr(7), false), AccessResult::Hit);
    }

    #[test]
    fn invalidate_flushes_line() {
        let mut c = tiny();
        c.fill(LineAddr(5), false);
        assert_eq!(c.invalidate(LineAddr(5)), None); // clean: no writeback
        assert_eq!(c.access(LineAddr(5), false), AccessResult::Miss);
        c.fill(LineAddr(5), false);
        c.access(LineAddr(5), true);
        assert_eq!(c.invalidate(LineAddr(5)), Some(LineAddr(5))); // dirty
        assert_eq!(c.invalidate(LineAddr(5)), None); // already gone
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Llc::new(LlcParams {
            capacity_bytes: 0,
            ways: 2,
            line_bytes: 64
        })
        .is_err());
        assert!(Llc::new(LlcParams {
            capacity_bytes: 512,
            ways: 0,
            line_bytes: 64
        })
        .is_err());
        // 3 sets: not a power of two.
        assert!(Llc::new(LlcParams {
            capacity_bytes: 3 * 128,
            ways: 2,
            line_bytes: 64
        })
        .is_err());
    }

    #[test]
    fn rejects_non_dividing_ways() {
        // 8 lines across 3 ways: 8 % 3 != 0, previously silently truncated
        // to 2 sets; now a configuration error.
        assert!(Llc::new(LlcParams {
            capacity_bytes: 512,
            ways: 3,
            line_bytes: 64
        })
        .is_err());
    }

    #[test]
    fn hot_way_hint_tracks_mru_and_invalidation() {
        let mut c = tiny();
        c.fill(LineAddr(0), false); // hint -> way holding line 0
        assert_eq!(c.access(LineAddr(0), false), AccessResult::Hit);
        // Fast-path hit must still set the dirty bit.
        assert_eq!(c.access(LineAddr(0), true), AccessResult::Hit);
        c.fill(LineAddr(4), false); // hint moves to line 4's way; line 0 ages
        assert_eq!(c.access(LineAddr(0), false), AccessResult::Hit); // slow path
        assert_eq!(c.invalidate(LineAddr(0)), Some(LineAddr(0))); // dirty via fast path
        assert_eq!(c.access(LineAddr(0), false), AccessResult::Miss);
        // Snapshot round-trip rebuilds an empty hint but must behave the same.
        let mut w = Writer::new();
        c.encode(&mut w);
        let mut copy = Llc::decode(&mut Reader::new(w.bytes())).unwrap();
        assert_eq!(copy.access(LineAddr(4), false), AccessResult::Hit);
        assert_eq!(copy.hits(), c.hits() + 1);
    }

    #[test]
    fn default_params_match_table4() {
        let p = LlcParams::default();
        assert_eq!(p.capacity_bytes, 8 << 20);
        assert_eq!(p.ways, 16);
        let c = Llc::new(p).unwrap();
        assert_eq!(c.hot.len(), 8192);
        assert_eq!(c.tags.len(), 8192 * 16);
    }

    fn encoded(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        encode(&mut w);
        w.into_bytes()
    }

    /// The flat LLC answers every access, fill, invalidate and mark-dirty
    /// exactly as the nested reference does, and encodes to the same bytes
    /// after every operation — including invalidate-then-fill runs that age
    /// a set's resident ways past `ways - 1` up to the `u8` saturation.
    #[test]
    fn flat_llc_matches_the_nested_reference() {
        use autorfm_sim_core::DetRng;
        // 4 sets x 4 ways x 64B; 8 tags per set in play.
        let params = LlcParams {
            capacity_bytes: 1024,
            ways: 4,
            line_bytes: 64,
        };
        let mut max_age = 0;
        for seed in 0..16 {
            let mut rng = DetRng::seeded(seed);
            let mut flat = Llc::new(params).unwrap();
            let mut oracle = reference::RefLlc::new(4, 4);
            let mut ops = Vec::new();
            for _ in 0..2_000 {
                let line = LineAddr(rng.gen_range(32));
                if rng.gen_range(100) == 0 {
                    // Invalidate-then-fill run: every fill ages the set's
                    // other resident ways without evicting any of them.
                    for _ in 0..300 {
                        ops.push((3, line));
                        ops.push((2, line));
                    }
                } else {
                    ops.push((rng.gen_range(6), line));
                }
            }
            for (op, line) in ops {
                match op {
                    0 | 1 => assert_eq!(flat.access(line, op == 1), oracle.access(line, op == 1)),
                    2 | 5 => assert_eq!(flat.fill(line, op == 5), oracle.fill(line, op == 5)),
                    3 => assert_eq!(flat.invalidate(line), oracle.invalidate(line)),
                    _ => {
                        flat.mark_dirty(line);
                        oracle.mark_dirty(line);
                    }
                }
                assert_eq!((flat.hits(), flat.misses()), (oracle.hits, oracle.misses));
                assert_eq!(
                    encoded(|w| flat.encode(w)),
                    encoded(|w| oracle.encode(w)),
                    "seed {seed}: state diverged after op {op} on {line:?}"
                );
                max_age = max_age.max(flat.state.iter().map(|w| w.age).max().unwrap());
            }
        }
        assert_eq!(max_age, u8::MAX, "the runs must reach age saturation");
    }

    fn decode(bytes: &[u8]) -> Result<Llc, SnapError> {
        Llc::decode(&mut Reader::new(bytes))
    }

    #[test]
    fn decode_rejects_a_bad_bool_byte() {
        let mut c = tiny();
        c.fill(LineAddr(4), false); // set 0, way 0
        let mut bytes = encoded(|w| c.encode(w));
        let valid = 16 + 8; // first way's valid byte
        assert_eq!(bytes[valid], 1);
        bytes[valid] = 2;
        assert!(matches!(decode(&bytes), Err(SnapError::Corrupt(_))));
        bytes[valid] = 1;
        bytes[valid + 1] = 2; // dirty
        assert!(matches!(decode(&bytes), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_a_short_way_block() {
        let c = tiny();
        let bytes = encoded(|w| c.encode(w));
        let block_end = 16 + 8 * WAY_BYTES;
        assert!(decode(&bytes[..block_end - 1]).is_err());
        // The counters after the block are checked too.
        assert!(decode(&bytes[..block_end + 8]).is_err());
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn decode_rejects_a_way_block_size_overflow() {
        // 2^61 sets x 1 way fits a usize; 11 bytes per way does not.
        let mut w = Writer::new();
        w.put_usize(1 << 61);
        w.put_usize(1);
        assert!(matches!(decode(w.bytes()), Err(SnapError::Corrupt(_))));
        // Nor does the set x way product itself.
        let mut w = Writer::new();
        w.put_usize(1 << 62);
        w.put_usize(8);
        assert!(matches!(decode(w.bytes()), Err(SnapError::Corrupt(_))));
    }
}
